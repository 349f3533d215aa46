"""Unit tests for receiver models, outcome partitions and reversed spaces."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qkdlab import fockspace as fs
from qkdlab import receivers as rc
from qkdlab.fockspace import PhotonicState, inner_product, occ, pol_h, pol_v, t_in


ALL_RECEIVERS = [
    ("interferometric-6mode", None, 5),
    ("interferometric-defended-10mode", None, 7),
    ("interferometric-2mode", None, 5),
    ("interferometric-2mode", "single-window", 3),
    ("polarization-threshold", None, 6),
    ("blinded-bright", None, 5),
    ("ideal-bb84", None, 3),
]


@pytest.mark.parametrize("kind,variant,dim", ALL_RECEIVERS)
def test_reversed_space_dimension(kind, variant, dim):
    receiver = rc.make_receiver(kind, variant)
    basis = rc.reversed_space(receiver)
    assert len(basis) == dim


@pytest.mark.parametrize("kind,variant,dim", ALL_RECEIVERS)
def test_reversed_space_is_orthonormal_and_vacuum_first(kind, variant, dim):
    receiver = rc.make_receiver(kind, variant)
    basis = rc.reversed_space(receiver)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(a, b) - want) < 1e-9
    assert set(basis[0].components()) == {fs.VACUUM}


@pytest.mark.parametrize("kind,variant,dim", ALL_RECEIVERS)
def test_source_states_are_normalized(kind, variant, dim):
    receiver = rc.make_receiver(kind, variant)
    for state in receiver.source.states.values():
        assert abs(state.norm() - 1.0) < 1e-12
    for basis_name in receiver.source.bases:
        s0 = receiver.source.states[(basis_name, 0)]
        s1 = receiver.source.states[(basis_name, 1)]
        assert abs(inner_product(s0, s1)) < 1e-12


@pytest.mark.parametrize("kind,variant,dim", ALL_RECEIVERS)
def test_outcome_probabilities_are_a_distribution(kind, variant, dim):
    receiver = rc.make_receiver(kind, variant)
    for state in receiver.source.states.values():
        for name in receiver.settings:
            probs = rc.outcome_probabilities(receiver, name, state)
            assert all(p >= -1e-12 for p in probs.values())
            assert abs(sum(probs.values()) - 1.0) < 1e-9


def test_six_mode_unattacked_detection_pattern():
    receiver = rc.make_receiver("interferometric-6mode")
    src = receiver.source.states
    comp0 = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL,
                                     src[(rc.COMPUTATIONAL, 0)])
    assert abs(comp0["s0"] + comp0["d0"] - 0.5) < 1e-12
    assert comp0["s2"] < 1e-12 and comp0["d2"] < 1e-12
    had0 = rc.outcome_probabilities(receiver, rc.HADAMARD,
                                    src[(rc.HADAMARD, 0)])
    assert abs(had0["d1"] - 0.5) < 1e-12
    assert had0["s1"] < 1e-12
    had1 = rc.outcome_probabilities(receiver, rc.HADAMARD,
                                    src[(rc.HADAMARD, 1)])
    assert abs(had1["s1"] - 0.5) < 1e-12
    assert had1["d1"] < 1e-12


def test_two_mode_unattacked_efficiencies():
    receiver = rc.make_receiver("interferometric-2mode")
    src = receiver.source.states
    comp0 = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL,
                                     src[(rc.COMPUTATIONAL, 0)])
    assert abs(comp0["d0"] - 0.25) < 1e-12
    assert comp0["s2"] < 1e-12
    had0 = rc.outcome_probabilities(receiver, rc.HADAMARD,
                                    src[(rc.HADAMARD, 0)])
    assert abs(had0["d1"] - 0.5) < 1e-12
    assert had0["s1"] < 1e-12


def test_defended_guard_bins_are_invalid_and_reachable():
    receiver = rc.make_receiver("interferometric-defended-10mode")
    for setting in receiver.settings.values():
        assert setting.interpretation["s-1"] == rc.INVALID
        assert setting.interpretation["d3"] == rc.INVALID
    # a photon in the earliest channel bin feeds the guard outcomes
    early = PhotonicState.photon(receiver.channel_registry(), t_in(-2))
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, early)
    assert probs["s-1"] > 0.2 and probs["d-1"] > 0.2


def test_error_outcomes_matched_versus_mismatched():
    receiver = rc.make_receiver("interferometric-defended-10mode")
    comp = receiver.settings[rc.COMPUTATIONAL]
    matched = set(rc.error_outcome_ids(comp, alice_bit=0))
    assert matched == {"s2", "d2", "s-1", "d-1", "s3", "d3"}
    mismatched = set(rc.error_outcome_ids(comp, alice_bit=None))
    assert mismatched == {"s-1", "d-1", "s3", "d3"}
    simple = rc.make_receiver("interferometric-6mode")
    assert rc.error_outcome_ids(simple.settings[rc.COMPUTATIONAL], None) == []


def test_unregistered_mass_is_interpreted_as_loss():
    from qkdlab import protocol

    receiver = rc.make_receiver("interferometric-2mode")
    assert rc.UNREGISTERED not in \
        receiver.settings[rc.COMPUTATIONAL].interpretation
    codes = protocol._interpretation_codes(
        receiver, {rc.COMPUTATIONAL: [rc.UNREGISTERED]}, 1)
    assert codes[0, 0] == protocol._CLASS_CODE[rc.LOSS]
    src = receiver.source.states[(rc.COMPUTATIONAL, 0)]
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, src)
    assert abs(probs[rc.UNREGISTERED] - 0.75) < 1e-12


def test_polarization_threshold_double_clicks_are_invalid():
    receiver = rc.make_receiver("polarization-threshold")
    both = PhotonicState.basis(receiver.channel_registry(),
                               occ((pol_h(), 1), (pol_v(), 1)))
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, both)
    assert abs(probs["double"] - 1.0) < 1e-12
    assert receiver.settings[rc.COMPUTATIONAL].interpretation["double"] \
        == rc.INVALID
    # under the rotated setting the photon pair bunches and never
    # produces a double click
    rotated = rc.outcome_probabilities(receiver, rc.HADAMARD, both)
    assert rotated["double"] < 1e-12
    assert abs(rotated["D0"] - 0.5) < 1e-12
    assert abs(rotated["D1"] - 0.5) < 1e-12


def test_ideal_receiver_is_deterministic_on_matched_states():
    receiver = rc.make_receiver("ideal-bb84")
    for basis_name in receiver.source.bases:
        for bit in (0, 1):
            probs = rc.outcome_probabilities(
                receiver, basis_name, receiver.source.states[(basis_name, bit)])
            assert abs(probs[f"D{bit}"] - 1.0) < 1e-12


def test_bright_states_overlap_and_orthonormal_outcomes():
    k = 8
    receiver = rc.make_receiver("blinded-bright", bright_photons=k)
    named = rc.bright_states(receiver.registry, k)
    assert abs(inner_product(named["b+"], named["b0"]) - 2 ** (-k / 2)) < 1e-12
    assert abs(inner_product(named["b+"], named["b-"])) < 1e-12
    comp = receiver.settings[rc.COMPUTATIONAL]
    stored = [comp.outcomes[n][0] for n in ("b0", "b1", "b+", "b-")]
    for i, a in enumerate(stored):
        for j, b in enumerate(stored):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(a, b) - want) < 1e-9


def test_an_integral_float_bright_photon_count_builds_its_integer_receiver():
    as_int = rc.make_receiver("blinded-bright", bright_photons=6)
    as_float = rc.make_receiver("blinded-bright", bright_photons=6.0)
    assert as_float.registry == as_int.registry
    for key, state in as_int.source.states.items():
        assert as_float.source.states[key].amplitudes == state.amplitudes
    with pytest.raises(fs.FockError, match="must be an integer"):
        rc.make_receiver("blinded-bright", bright_photons=6.5)


@pytest.mark.parametrize("kind, key, value", [
    ("blinded-bright", "bright_photons", 6.5),
    ("interferometric-6mode", "max_photons", 2.5),
    ("interferometric-6mode", "max_photons", True),
    ("blinded-bright", "bright_photons", "6"),
])
def test_a_photon_count_that_is_not_an_integer_names_its_keyword(kind, key,
                                                                 value):
    with pytest.raises(fs.FockError) as raised:
        rc.make_receiver(kind, **{key: value})
    assert str(raised.value) == (
        f"{key} must be an integer >= 1 (the registry's "
        f"max_photons_per_mode), got {value!r}")


def test_an_integral_float_max_photon_count_builds_its_integer_receiver():
    as_int = rc.make_receiver("interferometric-6mode", max_photons=2)
    as_float = rc.make_receiver("interferometric-6mode", max_photons=2.0)
    assert as_float.registry == as_int.registry
    assert type(as_float.registry.max_photons_per_mode) is int


def test_blinded_receiver_is_passive_and_ignores_single_photons():
    receiver = rc.make_receiver("blinded-bright", bright_photons=8)
    comp = receiver.settings[rc.COMPUTATIONAL]
    assert comp.interpretation["b+"] == rc.FOREIGN
    assert receiver.settings[rc.HADAMARD].interpretation["b0"] == rc.FOREIGN
    # a single photon (the honest signal) never reaches any registered
    # outcome of the blinded device
    lone = PhotonicState.photon(receiver.channel_registry(), pol_h())
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, lone)
    assert abs(probs.get(rc.UNREGISTERED, 0.0) - 1.0) < 1e-12
    # its paired transmitter speaks the bright-pulse alphabet instead
    bright = receiver.source.states[(rc.COMPUTATIONAL, 0)]
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, bright)
    assert abs(probs["b0"] - 1.0) < 1e-12


def test_interpretation_sets_partition_every_setting():
    for kind, variant, _ in ALL_RECEIVERS:
        receiver = rc.make_receiver(kind, variant)
        for setting in receiver.settings.values():
            assert set(setting.interpretation) == set(setting.outcomes)


def test_source_span_lies_inside_reversed_space():
    for kind, variant, _ in ALL_RECEIVERS:
        receiver = rc.make_receiver(kind, variant)
        basis = rc.reversed_space(receiver)
        for state in receiver.source.states.values():
            kept = sum(abs(inner_product(b, state)) ** 2 for b in basis)
            assert abs(kept - 1.0) < 1e-9, (kind, variant)


def test_logical_coefficients_match_physical_states():
    receiver = rc.make_receiver("interferometric-6mode")
    src = receiver.source
    z0 = src.states[(rc.COMPUTATIONAL, 0)]
    z1 = src.states[(rc.COMPUTATIONAL, 1)]
    for label in src.labels():
        a0, a1 = src.logical_alpha(label)
        combo = z0.scaled(a0) + z1.scaled(a1)
        assert combo.close_to(src.states[label], atol=1e-12)


def test_a_kind_is_named_in_full():
    # receiver-config.schema.json declares only the full kind names
    with pytest.raises(ValueError, match="unknown receiver kind"):
        rc.make_receiver("defended-10mode")
    with pytest.raises(ValueError, match="unknown receiver kind"):
        rc.receiver_from_config({"kind": "defended-10mode"})


VALID_RECORDS = [
    {"polarization": "H", "forced_basis": rc.COMPUTATIONAL, "forced_bit": 0},
    {"polarization": "V", "forced_basis": rc.COMPUTATIONAL, "forced_bit": 1},
    {"polarization": "+", "forced_basis": rc.HADAMARD, "forced_bit": 0},
    {"polarization": "-", "forced_basis": rc.HADAMARD, "forced_bit": 1},
]


def test_receiver_derived_from_vulnerability_records_matches_direct_build():
    direct = rc.make_receiver("blinded-bright")
    derived = rc.make_receiver("blinded-bright",
                               from_vulnerabilities=VALID_RECORDS)
    assert (rc.interpretation_structure(direct)
            == rc.interpretation_structure(derived))


def test_vulnerability_records_are_validated():
    with pytest.raises(ValueError):
        rc.make_receiver("blinded-bright",
                         from_vulnerabilities=VALID_RECORDS[:3])
    bad = [dict(r) for r in VALID_RECORDS]
    bad[0]["forced_bit"] = 1
    with pytest.raises(ValueError):
        rc.make_receiver("blinded-bright", from_vulnerabilities=bad)
    with pytest.raises(ValueError, match="not a mapping"):
        rc.make_receiver("blinded-bright", from_vulnerabilities=[1, 2, 3, 4])


def test_single_window_variant_uses_two_phases():
    receiver = rc.make_receiver("interferometric-2mode", "single-window")
    assert set(receiver.settings) == {rc.HADAMARD, rc.Y_BASIS}
    src = receiver.source.states
    probs = rc.outcome_probabilities(receiver, rc.Y_BASIS,
                                     src[(rc.Y_BASIS, 0)])
    assert abs(probs["d1"] - 0.5) < 1e-12
    assert probs["s1"] < 1e-12
    # the phase-shifted setting cannot distinguish the other basis
    probs = rc.outcome_probabilities(receiver, rc.Y_BASIS,
                                     src[(rc.HADAMARD, 0)])
    assert abs(probs["d1"] - 0.25) < 1e-12
    assert abs(probs["s1"] - 0.25) < 1e-12


def test_receiver_from_config_and_bad_inputs():
    receiver = rc.receiver_from_config(
        {"kind": "blinded-bright", "bright_photons": 6})
    assert receiver.registry.max_photons_per_mode == 6
    with pytest.raises(ValueError):
        rc.receiver_from_config({"variant": "single-window"})
    with pytest.raises(ValueError):
        rc.make_receiver("unknown-device")
    with pytest.raises(ValueError):
        rc.make_receiver("interferometric-2mode", "triple-window")


def test_unknown_interpretation_tag_is_rejected():
    reg = fs.registry([pol_h(), pol_v()], max_photons=1)
    outcomes = {"D0": [PhotonicState.photon(reg, pol_h())],
                "D1": [PhotonicState.photon(reg, pol_v())]}
    with pytest.raises(ValueError, match="bit_1"):
        rc.Setting(rc.COMPUTATIONAL, (fs.Rotation((pol_h(), pol_v())),),
                   outcomes, {"D0": rc.BIT0, "D1": "bit_1"})


@pytest.mark.parametrize("element", [
    lambda st: fs.apply_rotation(st, (pol_h(), pol_v())), None])
def test_a_setting_takes_only_optical_elements(element):
    reg = fs.registry([pol_h(), pol_v()], max_photons=1)
    outcomes = {"D0": [PhotonicState.photon(reg, pol_h())],
                "D1": [PhotonicState.photon(reg, pol_v())]}
    with pytest.raises(ValueError, match="not an optical element"):
        rc.Setting(rc.COMPUTATIONAL, (element,), outcomes,
                   {"D0": rc.BIT0, "D1": rc.BIT1})


def test_receiver_schema_lists_every_interpretation_tag():
    import json
    from pathlib import Path

    schema = json.loads((Path(__file__).resolve().parents[1] / "docs"
                         / "schemas" / "receiver-config.schema.json")
                        .read_text())
    custom = next(branch for branch in schema["oneOf"]
                  if branch["properties"]["kind"].get("const") == "custom")
    setting = custom["properties"]["settings"]["additionalProperties"]
    tags = setting["properties"]["interpretation"]["additionalProperties"]
    assert sorted(tags["enum"]) == sorted(rc.INTERPRETATION_TAGS)


def test_receiver_schema_source_labels_are_the_logical_labels():
    import json
    import re
    from pathlib import Path

    schema = json.loads((Path(__file__).resolve().parents[1] / "docs"
                         / "schemas" / "receiver-config.schema.json")
                        .read_text())
    custom = next(branch for branch in schema["oneOf"]
                  if branch["properties"]["kind"].get("const") == "custom")
    pattern = custom["properties"]["source"]["propertyNames"]["pattern"]
    logical = {f"{basis}/{bit}" for basis, bit in rc.LOGICAL_COEFFICIENTS}
    candidates = logical | {"computational/2", "foo/0", "computational0",
                            "computational/01", "/0", "y/1/0"}
    assert {c for c in candidates if re.search(pattern, c)} == logical


def _polarization_config():
    return {
        "kind": "custom",
        "modes": ["polarization-H:0", "polarization-V:0"],
        "channel_modes": ["polarization-H:0", "polarization-V:0"],
        "max_photons": 2,
        "settings": {"computational": {
            "input_basis": ["polarization-H:0", "polarization-V:0"],
            "output_basis": ["polarization-H:0", "polarization-V:0"],
            "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "outcomes": {"D0": ["polarization-H:0"],
                         "D1": ["polarization-V:0"]},
            "interpretation": {"D0": "bit0", "D1": "bit1"}}},
        "source": {"computational/0": {"polarization-H:0": [1, 0]},
                   "computational/1": {"polarization-V:0": [1, 0]}},
    }


def _with(path, value):
    """The polarization config with the entry at ``path`` replaced."""
    cfg = _polarization_config()
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


@pytest.mark.parametrize("path,value", [
    (("modes",), 5),
    (("modes",), [1, 2]),
    (("channel_modes",), "polarization-H:0"),
    (("settings",), ["computational"]),
    (("settings",), {}),
    (("settings", "computational"), 3),
    (("settings", "computational", "outcomes"), ["D0", "D1"]),
    (("settings", "computational", "outcomes", "D0"), "polarization-H:0"),
    (("settings", "computational", "interpretation"), "bit0"),
    (("settings", "computational", "interpretation", "D0"), ["bit0"]),
    (("settings", "computational", "matrix"), [1, 0]),
    (("settings", "computational", "matrix"), [[["1", 0], [0, 0]],
                                               [[0, 0], [1, 0]]]),
    (("source",), 1),
    (("source",), {}),
    (("source", "computational/0"), [1, 0]),
    (("source", "computational/0", "polarization-H:0"), [True, 0]),
    (("settings", "computational", "matrix"), [[[math.nan, 0], [0, 0]],
                                               [[0, 0], [1, 0]]]),
    (("settings", "computational", "matrix"), [[[1, 0], [0, 0]],
                                               [[0, 0], [1, math.inf]]]),
    (("source", "computational/0", "polarization-H:0"), [math.nan, 0]),
    (("source", "computational/0", "polarization-H:0"), [1, -math.inf]),
    (("source", "computational/0", "polarization-H:0"), [10 ** 400, 0]),
    (("max_photons",), "3"),
    (("max_photons",), 2.9),
    (("max_photons",), True),
    (("max_photons",), 0),
    (("name",), 5),
])
def test_custom_config_with_a_wrong_json_type_raises_value_error(path, value):
    with pytest.raises(ValueError, match=repr(path[-1])):
        rc.receiver_from_config(_with(path, value))


@pytest.mark.parametrize("labels,named", [
    (("computational/0", "computational/2"), "'computational/2'"),
    (("foo/0", "foo/1"), "'foo/0'"),
    (("computational0", "computational/1"), "'computational0'"),
    (("computational/0", "computational/01"), "'computational/01'"),
    (("computational/0",), "'computational/1'"),
    (("computational/0", "computational/1", "hadamard/1"), "'hadamard/0'"),
])
def test_custom_source_labels_must_be_basis_bit_pairs(labels, named):
    states = ({"polarization-H:0": [1, 0]}, {"polarization-V:0": [1, 0]})
    cfg = _with(("source",), {label: states[i % 2]
                              for i, label in enumerate(labels)})
    with pytest.raises(ValueError, match="source") as info:
        rc.receiver_from_config(cfg)
    assert named in str(info.value)


@pytest.mark.parametrize("key,value", [
    ("max_photons", "3"), ("max_photons", 2.9), ("max_photons", 0),
    ("bright_photons", "6"), ("bright_photons", 6.0),
    ("bright_photons", False),
])
def test_bundled_config_photon_counts_must_be_integers(key, value):
    with pytest.raises(ValueError, match=key):
        rc.receiver_from_config({"kind": "blinded-bright", key: value})


@pytest.mark.parametrize("outcomes,named", [
    ({"D0": ["polarization-H:0"], "D1": ["polarization-H:0"]}, "'D1'"),
    ({"D0": ["polarization-H:0", "polarization-H:0"],
      "D1": ["polarization-V:0"]}, "'D0'"),
])
def test_custom_outcome_states_must_be_orthonormal(outcomes, named):
    cfg = _with(("settings", "computational", "outcomes"), outcomes)
    with pytest.raises(ValueError, match="'computational'") as info:
        rc.receiver_from_config(cfg)
    assert named in str(info.value)


@pytest.mark.parametrize("value", [["polarization-H:0+polarization-V:0"],
                                   ["vacuum"]])
def test_custom_outcomes_must_lie_in_the_output_basis(value):
    # an outcome outside the output basis would fail only later, when the
    # adjoint optics run on it
    cfg = _with(("settings", "computational", "outcomes", "D1"), value)
    with pytest.raises(ValueError, match="'computational'") as info:
        rc.receiver_from_config(cfg)
    assert "'D1'" in str(info.value)


@pytest.mark.parametrize("key,value", [
    ("input_basis", ["polarization-H:0", "custom:0"]),
    ("output_basis", ["custom:0", "polarization-V:0"]),
])
def test_custom_bases_must_name_registered_modes(key, value):
    with pytest.raises(ValueError, match="custom:0"):
        rc.receiver_from_config(_with(("settings", "computational", key),
                                      value))


def test_orthonormal_custom_config_builds():
    receiver = rc.receiver_from_config(_polarization_config())
    probs = rc.outcome_probabilities(
        receiver, rc.COMPUTATIONAL,
        receiver.source.states[(rc.COMPUTATIONAL, 1)])
    assert probs == pytest.approx({"D1": 1.0, "D0": 0.0})


@pytest.mark.parametrize("cfg,key", [
    ({"kind": ["x"]}, "kind"),
    ({"kind": 7}, "kind"),
    ({"kind": "ideal-bb84", "variant": 5}, "variant"),
    ({"kind": "interferometric-2mode", "variant": ["single-window"]},
     "variant"),
    ({"kind": "ideal-bb84", "foo": 1}, "foo"),
    ({"kind": "ideal-bb84", "max_photons": 3}, "max_photons"),
    ({"kind": "ideal-bb84", "variant": "single-window"}, "variant"),
    ({"kind": "interferometric-6mode", "bright_photons": 6},
     "bright_photons"),
    ({"kind": "blinded-bright", "passive": True}, "passive"),
])
def test_bundled_config_rejects_keys_the_kind_does_not_read(cfg, key):
    with pytest.raises(ValueError, match=repr(key)):
        rc.receiver_from_config(cfg)


@pytest.mark.parametrize("path,value", [
    (("bogus",), 1),
    (("passive",), "no"),
    (("variant",), "single-window"),
    (("settings", "computational", "extra"), 1),
])
def test_custom_config_rejects_unknown_keys(path, value):
    with pytest.raises(ValueError, match=repr(path[-1])):
        rc.receiver_from_config(_with(path, value))


# ---------------------------------------------------------------------------
# the bundled-receiver table
# ---------------------------------------------------------------------------

# The keywords each bundled kind reads; every other one is rejected.
READS = {
    "interferometric-6mode": {"max_photons"},
    "interferometric-2mode": {"variant", "max_photons"},
    "interferometric-defended-10mode": {"max_photons"},
    "polarization-threshold": set(),
    "blinded-bright": {"bright_photons", "from_vulnerabilities"},
    "ideal-bb84": set(),
}
KEYWORD_VALUES = {"variant": "single-window", "max_photons": 2,
                  "bright_photons": 6, "from_vulnerabilities": VALID_RECORDS}
UNREAD = [(kind, key) for kind in READS for key in KEYWORD_VALUES
          if key not in READS[kind]]


def test_receiver_kinds_come_from_the_table():
    assert rc.RECEIVER_KINDS == tuple(READS)


@pytest.mark.parametrize("kind,key", UNREAD)
def test_a_keyword_the_kind_does_not_read_raises(kind, key):
    with pytest.raises(ValueError, match=f"{kind!r} does not read") as info:
        rc.make_receiver(kind, **{key: KEYWORD_VALUES[key]})
    assert repr(key) in str(info.value)


@pytest.mark.parametrize("kind", list(READS))
def test_every_keyword_the_kind_reads_is_accepted(kind):
    receiver = rc.make_receiver(
        kind, **{key: KEYWORD_VALUES[key] for key in READS[kind]})
    assert receiver.name == kind


def test_config_keys_match_the_receiver_schema():
    import json
    from pathlib import Path

    bundled, custom = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "schemas"
         / "receiver-config.schema.json").read_text())["oneOf"]
    assert sorted(bundled["properties"]["kind"]["enum"]) == sorted(
        rc.RECEIVER_KINDS)
    assert set(bundled["properties"]) == set(rc._BUNDLED_KEYS)
    assert set(custom["properties"]) == set(rc._CUSTOM_KEYS)
    setting = custom["properties"]["settings"]["additionalProperties"]
    assert set(setting["properties"]) == set(rc._SETTING_KEYS)


def test_every_document_lists_the_bundled_kinds():
    import json
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    scenario = json.loads((root / "docs" / "schemas"
                           / "scenario-config.schema.json").read_text())
    described = scenario["definitions"]["receiverSpec"]["description"]
    listed = re.match(r"bundled receiver kind \(([^)]*)\)", described)
    assert sorted(listed.group(1).split(", ")) == sorted(rc.RECEIVER_KINDS)
    readme = (root / "README.md").read_text()
    table = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", readme, re.M)
    assert sorted(kind for kind, _ in table) == sorted(rc.RECEIVER_KINDS)
    for kind, cell in table:
        assert set(re.findall(r"`([a-z_]+)`", cell)) == READS[kind], kind


# ---------------------------------------------------------------------------
# pinned bytes of every bundled receiver
# ---------------------------------------------------------------------------

def state_to_json(state: PhotonicState) -> str:
    return json.dumps(fs.state_to_dict(state), sort_keys=True)


# SHA-256 of the reversed-space basis (its ``state_to_json`` lines), the
# constraint matrix bytes and the canonical attack JSON, per kind, variant
# and photon cap (None: the kind does not read ``max_photons``).
PINNED_DIGESTS = {
    ("interferometric-6mode", None, 1): (
        "3445e925f6c0257d833dee1b45858a3698a34e43eaf65e434423df328d39e1f3",
        "92dfe7bc3d9c581889d9b779dd77a0b157b92ffdd8f57ec0f6af2376efb222b4",
        "b1cba23ec3033b65c139cbaf92fddb26df1ee3a5534732e8a4971a516da21ef6"),
    ("interferometric-6mode", None, 2): (
        "40c12cd593a1fad2912499131ba9fa0a64dd81cb221d759be2098e62e6ce12fd",
        "92dfe7bc3d9c581889d9b779dd77a0b157b92ffdd8f57ec0f6af2376efb222b4",
        "79dd252c00d4078d44e4318325e9a21a8b98fafdc33cb087fea69877d22c8c16"),
    ("interferometric-6mode", None, 3): (
        "55aa350c5d2ffc13cec18e8a93e326ce2d063d18090f94c54cf03ca29f0bb6dd",
        "92dfe7bc3d9c581889d9b779dd77a0b157b92ffdd8f57ec0f6af2376efb222b4",
        "ccbf73fed8fe0061da22080c8c0c72a4980bc8e6a01077f8f1d8bfc6f7dd7f89"),
    ("interferometric-defended-10mode", None, 1): (
        "bb51afed0ea7c8df2e9decdeefebf1eb345630acb3234ef603662871d05f443f",
        "cc6de9ca46d9abb3845c907e9c23007056308b1dbc690ed264e5d0abb84c022d",
        "911572c35dbc2a4c3e2af1a5b9671a435ec1ccbe2fa11f54b9d5c0f1ea098a40"),
    ("interferometric-defended-10mode", None, 2): (
        "b65a6274257a40fbc89debff79004c79c43706608d26a140cbdea5c4bb093c09",
        "cc6de9ca46d9abb3845c907e9c23007056308b1dbc690ed264e5d0abb84c022d",
        "ba2247bef6e87a2736bb10c1cbcfaa973f9c89df9a7fb1833cbe925192d137c2"),
    ("interferometric-defended-10mode", None, 3): (
        "c9c74f415abf9d4ea8f61e4c54cb48704f75e890b67dad5aeb0af82dad6abd3d",
        "cc6de9ca46d9abb3845c907e9c23007056308b1dbc690ed264e5d0abb84c022d",
        "86833c088ec561b33c638ad69389a298ba318a025b2e7e6deee28857aae573b1"),
    ("interferometric-2mode", "two-window", 1): (
        "3445e925f6c0257d833dee1b45858a3698a34e43eaf65e434423df328d39e1f3",
        "9cbf2a2a73bd1849c4c4125eab84376ae8b6d8033328d870fb13700ad7e535a0",
        "64ccdfc28b2dc44ec079db01aa67d564955092fa01dc0e8a443143a25525bf4e"),
    ("interferometric-2mode", "two-window", 2): (
        "40c12cd593a1fad2912499131ba9fa0a64dd81cb221d759be2098e62e6ce12fd",
        "9cbf2a2a73bd1849c4c4125eab84376ae8b6d8033328d870fb13700ad7e535a0",
        "11609d7b5e89dd3064417df5491d375aaca86c81994490999bf684a330b0ba3e"),
    ("interferometric-2mode", "two-window", 3): (
        "55aa350c5d2ffc13cec18e8a93e326ce2d063d18090f94c54cf03ca29f0bb6dd",
        "9cbf2a2a73bd1849c4c4125eab84376ae8b6d8033328d870fb13700ad7e535a0",
        "1e26029ae6ab3e53bc6d0210e8ff26704ea88b7064a69548efa82f4b6fc6b270"),
    ("interferometric-2mode", "single-window", 1): (
        "5a57516a8ebd2af31f1f302d2efdd42f72588c25c305b4d16db1cda4ceeb23c0",
        "57de3cf57e6324e69fd6cfcbfbca99b60ed4489725b6088cd75a7710f4bb342a",
        "bd8eb7b7e899cb9db5ab570fae76888e059490c1aacf37d1d4724c4bfbebbc11"),
    ("interferometric-2mode", "single-window", 2): (
        "20141fccc1aafacb1710014bf48ec9aa79c815f886d201fa5629418a8a98d13b",
        "57de3cf57e6324e69fd6cfcbfbca99b60ed4489725b6088cd75a7710f4bb342a",
        "6ccfcbaa634cb7a8a153b3db75aa83129737cb55db3659525c47b7190167add3"),
    ("interferometric-2mode", "single-window", 3): (
        "c117366aafebb4f2f26b1fab91f8c0ebacbc04b53deec96bd4010199b5e4a630",
        "57de3cf57e6324e69fd6cfcbfbca99b60ed4489725b6088cd75a7710f4bb342a",
        "f7e3f94cc829b0c228261b68ced119a270235f1c8dd53e024dd33a0eac106855"),
    ("polarization-threshold", None, None): (
        "389a422e4154c1124094efe1a2b5666b15187d82ac371c0a035f3acfb4f460b2",
        "a4998782a845b42d7243b84aaad40ba8d4a02f314a92c1d37106abf0080088f6",
        "01c10395974846514b4f235464e400cb74ddfdd16a35bd3682b3f747d230d16f"),
    ("blinded-bright", None, None): (
        "b6db5b5c6a131630950b9f9cc902d6a934f46fb0a416937eeaef265e528d597a",
        "c5f7b7759f891f54f739576993c62bdb094fe39529653bc812a6397b66c67804",
        "fe844f2ef0568577b57abd5a99b376d12c9b6fa95b8df9e03b6b086d6c87b463"),
    ("ideal-bb84", None, None): (
        "9c13308cebbe4f1d081212e73bbe09eb64972d6ee027265dd6d373ffb2796294",
        "f4df67d041211099bdbcba17f44d848613aaccbcbc81a5c1cc387c8c744357ef",
        "90460a90d9ccf47d411b6020e970c34f6dfd9438eb669ffb299b7e048fe6f42b"),
}


@pytest.mark.parametrize("kind,variant,cap", list(PINNED_DIGESTS))
def test_receiver_artifacts_keep_their_pinned_bytes(kind, variant, cap):
    import hashlib
    import json

    from qkdlab import attacks as atk

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    options = {} if cap is None else {"max_photons": cap}
    receiver = rc.make_receiver(kind, variant, **options)
    system = atk.build_constraint_system(receiver)
    canonical = atk.synthesize_attacks(system).canonical.to_json_dict()
    assert (
        digest("\n".join(state_to_json(b)
                         for b in rc.reversed_space(receiver)).encode()),
        digest(system.matrix.tobytes()),
        digest(json.dumps(canonical, sort_keys=True).encode()),
    ) == PINNED_DIGESTS[(kind, variant, cap)]


# SHA-256 of what the canonical attack does to each receiver: its outcome
# distribution for every (setting, Alice label), in outcome order, and its
# probe components for every (Alice label, sifted bit), each as the outcome
# id, the index of the spanning state and the probe vector bytes.
PINNED_ANALYSIS_DIGESTS = {
    ("interferometric-6mode", None): (
        "836e11e2a181e1994950aec02442300e406a84822eeabeee5361f27b7c13f64c",
        "90cce97ca3cd9275b0058e7372aa83a6a695e0e4a2c68556400a9948f1fea1a7"),
    ("interferometric-defended-10mode", None): (
        "9fbeb0bb3775a58878c0c7c57604f0db04e8e9ce92990f651c2ea69d6366a62e",
        "42a6218a516f980fb69ebf5c0ff80f0f1953eea77ac98568ac1701f88f03ec0c"),
    ("interferometric-2mode", None): (
        "1e15c23cdcfae9de56ae4f3157f2bd6834be264a4824dff8918eb114f7aae904",
        "8f4b57e19e7e3e5322b428f529f884c56a1571426f764566aea2fce934c7c1ba"),
    ("interferometric-2mode", "single-window"): (
        "b95226c26b7dbe3c480dea2ded7ee80dc6aaa0f57d843bde1f6ed8ae731f8f7d",
        "74b6873a85f3da766470c9043b2d94db15d7e5eb51a1638a356aa5a256c659b1"),
    ("polarization-threshold", None): (
        "10ed872d429880351cdcff0d8775e05548c4ec382d8a6c227233af8615e6babb",
        "8f45017d265fd24f567280b583ebae9ef60ec91069215a989bde79b9dcb155a1"),
    ("blinded-bright", None): (
        "6225aea0cdf473093ab120f4e0b183419fe41128ea5006e5de10809d46eb9e8a",
        "c4cd53b384c1bd79f31b2d289a39ce3cf1ed30e979044e6b05524e67bf4a281e"),
    ("ideal-bb84", None): (
        "d32a0d820278031705230fdd1438d034430a55a395443e0fd376a1e33a6c92c4",
        "855d7d9da39dfcff9c85c6f41d36ef5fcbfcb3faca8c3a5177392cdcb5feb502"),
}


def _analysis_digests(receiver):
    import hashlib
    import json

    from qkdlab import attacks as atk

    system = atk.build_constraint_system(receiver)
    attack = atk.synthesize_attacks(system).canonical
    distributions = [
        [setting, list(label), list(atk.attacked_outcome_distribution(
            attack, system, setting, label).items())]
        for setting in receiver.settings for label in system.alice_labels]
    components = hashlib.sha256()
    conditional = atk.eve_conditional_states(attack, system=system)
    for (label, bit), comps in conditional.components.items():
        for c in comps:
            components.update(json.dumps(
                [list(label), bit, c.outcome_id, c.support_index]).encode())
            components.update(c.vector.tobytes())
    return (hashlib.sha256(json.dumps(distributions).encode()).hexdigest(),
            components.hexdigest())


@pytest.mark.parametrize("kind,variant", list(PINNED_ANALYSIS_DIGESTS))
def test_canonical_attack_analyses_keep_their_pinned_bytes(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    assert (_analysis_digests(receiver)
            == PINNED_ANALYSIS_DIGESTS[(kind, variant)])


# ---------------------------------------------------------------------------
# every reverse is the adjoint of its forward optics
# ---------------------------------------------------------------------------

_S = [0.7071067811865476, 0]
_IS = [0, 0.7071067811865476]

# A custom receiver whose one setting is a complex splitter between two
# pairs of modes, written out as an occupation-basis linear map.
_SPLITTER_CONFIG = {
    "kind": "custom",
    "modes": ["custom:0", "custom:1", "custom:2", "custom:3"],
    "channel_modes": ["custom:0", "custom:1"],
    "max_photons": 2,
    "settings": {"computational": {
        "input_basis": ["vacuum", "custom:0", "custom:1"],
        "output_basis": ["vacuum", "custom:2", "custom:3"],
        "matrix": [[[1, 0], [0, 0], [0, 0]],
                   [[0, 0], _S, _IS],
                   [[0, 0], _IS, _S]],
        "outcomes": {"D0": ["custom:2"], "D1": ["custom:3"],
                     "none": ["vacuum"]},
        "interpretation": {"D0": "bit0", "D1": "bit1", "none": "loss"}}},
    "source": {"computational/0": {"custom:0": [1, 0]},
               "computational/1": {"custom:1": [1, 0]}},
}


def _occupations(modes, photons):
    """Every occupation of at most ``photons`` photons over ``modes``."""
    found = {fs.VACUUM}
    for _ in range(photons):
        found |= {occ(*(dict(o) | {m: dict(o).get(m, 0) + 1}).items())
                  for o in found for m in modes}
    return sorted(found)


def _sides(receiver, setting):
    """Input- and output-side occupations of at most two photons (of at
    most the photon cap, which the optics may bunch into one mode)."""
    if setting.optics and isinstance(setting.optics[0], fs.LinearMap):
        (lmap,) = setting.optics
        return lmap.input_basis, lmap.output_basis
    photons = min(2, receiver.registry.max_photons_per_mode)
    outputs = sorted({m for states in setting.outcomes.values()
                      for st in states for o in st.components() for m, _ in o})
    inputs = [m for m in receiver.registry.modes
              if m.kind not in (fs.OUT_S, fs.OUT_D)]
    return _occupations(inputs, photons), _occupations(outputs, photons)


def _random_state(reg, occupations, rng):
    return PhotonicState(reg, {o: complex(*rng.normal(size=2))
                               for o in occupations}).normalized()


@pytest.mark.parametrize("receiver", [
    pytest.param(rc.make_receiver(kind, variant), id=f"{kind}-{variant}")
    for kind, variant, _ in ALL_RECEIVERS
] + [pytest.param(rc.receiver_from_config(_SPLITTER_CONFIG),
                  id="custom-linear-map")])
def test_every_setting_reverse_is_the_adjoint_of_its_forward(receiver):
    # <F a, b> = <a, R b> for a on the input side and b on the output side
    rng = np.random.default_rng(17)
    reg = receiver.registry
    for setting in receiver.settings.values():
        inputs, outputs = _sides(receiver, setting)
        for _ in range(3):
            a = _random_state(reg, inputs, rng)
            b = _random_state(reg, outputs, rng)
            lhs = inner_product(fs.apply_optics(a, setting.optics), b)
            rhs = inner_product(
                a, fs.apply_optics(b, setting.optics, adjoint=True))
            assert abs(lhs - rhs) < 1e-9, setting.name


# ---------------------------------------------------------------------------
# the reversed space is derived once per receiver
# ---------------------------------------------------------------------------

@pytest.fixture
def reversals(monkeypatch):
    """Count the adjoint optics runs: one per outcome state reversed."""
    runs = []
    apply_optics = fs.apply_optics

    def counting(state, optics, adjoint=False):
        if adjoint:
            runs.append(optics)
        return apply_optics(state, optics, adjoint)

    monkeypatch.setattr(fs, "apply_optics", counting)
    return runs


def test_reversed_space_and_constraint_system_reverse_each_state_once(
        reversals):
    from qkdlab import attacks as atk
    receiver = rc.make_receiver("interferometric-6mode")
    # the two settings share one optics object and their outcome states
    pairs = {(id(setting.optics), id(o))
             for setting in receiver.settings.values()
             for sts in setting.outcomes.values() for o in sts}
    assert len(pairs) == 7
    basis = rc.reversed_space(receiver)
    system = atk.build_constraint_system(receiver)
    assert len(reversals) == len(pairs)
    assert [fs.state_to_dict(b) for b in system.p_basis] == \
        [fs.state_to_dict(b) for b in basis]


def test_each_receiver_derives_its_own_reversed_space(reversals):
    first = rc.make_receiver("interferometric-6mode")
    second = rc.make_receiver("interferometric-6mode")
    for a, b in zip(rc.reversed_space(first), rc.reversed_space(second)):
        assert fs.state_to_dict(a) == fs.state_to_dict(b)
    assert len(reversals) == 14


@pytest.mark.parametrize("kind,pullbacks,forward", [
    ("interferometric-6mode", 7, 5),
    ("interferometric-defended-10mode", 11, 7),
    ("blinded-bright", 5, 5),
    ("interferometric-2mode", 6, 5),
    ("polarization-threshold", 12, 12),
    ("ideal-bb84", 6, 6),
])
def test_each_distinct_optics_and_state_is_evolved_once(monkeypatch, kind,
                                                        pullbacks, forward):
    # one adjoint run per distinct (optics, outcome state) pair and one
    # forward run per distinct optics and basis state; settings that share
    # optics objects share the runs
    from qkdlab import attacks as atk
    runs = {True: 0, False: 0}
    apply_optics = fs.apply_optics

    def counting(state, optics, adjoint=False):
        runs[adjoint] += 1
        return apply_optics(state, optics, adjoint)

    monkeypatch.setattr(fs, "apply_optics", counting)
    receiver = rc.make_receiver(kind)
    basis = rc.reversed_space(receiver)
    assert runs == {True: pullbacks, False: 0}
    atk.build_constraint_system(receiver)
    optics = {id(setting.optics) for setting in receiver.settings.values()}
    assert runs[False] == forward == len(optics) * len(basis)


@pytest.mark.parametrize("kind,products", [
    ("interferometric-6mode", 59),
    ("interferometric-defended-10mode", 109),
    ("blinded-bright", 59),
])
def test_each_distinct_optics_and_state_has_one_beta_row(monkeypatch, kind,
                                                         products):
    # settings that share optics and outcome states share their beta rows,
    # so each pair's inner products with the basis are taken once
    from qkdlab import attacks as atk
    receiver = rc.make_receiver(kind)
    rc.reversed_space(receiver)
    calls = []
    inner_product = fs.inner_product

    def counting(a, b):
        calls.append(1)
        return inner_product(a, b)

    monkeypatch.setattr(fs, "inner_product", counting)
    atk.build_constraint_system(receiver)
    assert len(calls) == products


def test_reversed_space_returns_a_new_list_each_call():
    receiver = rc.make_receiver("ideal-bb84")
    basis = rc.reversed_space(receiver)
    basis.reverse()
    basis.pop()
    again = rc.reversed_space(receiver)
    assert again is not basis and len(again) == 3
    assert set(again[0].components()) == {fs.VACUUM}


@pytest.mark.parametrize("field", [
    f.name for f in dataclasses.fields(rc.ReceiverModel)])
def test_receiver_fields_cannot_be_reassigned(field):
    receiver = rc.make_receiver("ideal-bb84")
    rc.reversed_space(receiver)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(receiver, field, getattr(receiver, field))


def test_replaced_receiver_derives_its_reversed_space_anew():
    receiver = rc.make_receiver("ideal-bb84")
    assert len(rc.reversed_space(receiver)) == 3
    kept = ("D0", rc.NO_CLICK)
    computational = receiver.settings[rc.COMPUTATIONAL]
    blind_to_v = rc.Setting(
        rc.COMPUTATIONAL, computational.optics,
        {oid: computational.outcomes[oid] for oid in kept},
        {oid: computational.interpretation[oid] for oid in kept})
    narrowed = dataclasses.replace(
        receiver, settings={rc.COMPUTATIONAL: blind_to_v})
    assert len(rc.reversed_space(narrowed)) == 2
    assert len(rc.reversed_space(receiver)) == 3


@pytest.mark.parametrize("text", [
    "polarization-H:0+polarization-H:0",
    "polarization-H:0x2+polarization-V:0+polarization-H:0x0",
])
def test_parse_occ_rejects_a_mode_named_twice(text):
    with pytest.raises(fs.FockError,
                       match="mode polarization-H:0 is named twice"):
        rc.parse_occ(text)


def test_custom_receiver_with_one_occupation_under_two_labels_is_rejected():
    cfg = _polarization_config()
    setting = cfg["settings"]["computational"]
    twice = ["polarization-H:0x2", "polarization-H:0+polarization-H:0"]
    setting["input_basis"] += twice
    setting["output_basis"] += twice
    setting["matrix"] = [[[float(r == c), 0] for c in range(4)]
                         for r in range(4)]
    setting["outcomes"].update(D2=twice[:1], D3=twice[1:])
    setting["interpretation"].update(D2="invalid", D3="invalid")
    with pytest.raises(fs.FockError, match="polarization-H:0 is named twice"):
        rc.receiver_from_config(cfg)
