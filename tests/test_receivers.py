"""Unit tests for receiver models, outcome partitions and reversed spaces."""

import math

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
    assert set(basis[0].amplitudes) == {fs.VACUUM}


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
    for name in receiver.settings:
        assert rc.interpret(receiver, name, "s-1") == rc.INVALID
        assert rc.interpret(receiver, name, "d3") == rc.INVALID
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
    receiver = rc.make_receiver("interferometric-2mode")
    assert rc.interpret(receiver, rc.COMPUTATIONAL, rc.UNREGISTERED) == rc.LOSS
    src = receiver.source.states[(rc.COMPUTATIONAL, 0)]
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, src)
    assert abs(probs[rc.UNREGISTERED] - 0.75) < 1e-12


def test_polarization_threshold_double_clicks_are_invalid():
    receiver = rc.make_receiver("polarization-threshold")
    both = PhotonicState.basis(receiver.channel_registry(),
                               occ((pol_h(), 1), (pol_v(), 1)))
    probs = rc.outcome_probabilities(receiver, rc.COMPUTATIONAL, both)
    assert abs(probs["double"] - 1.0) < 1e-12
    assert rc.interpret(receiver, rc.COMPUTATIONAL, "double") == rc.INVALID
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
            sets = setting.interpretation_sets()
            assert sets.all_ids() == set(setting.outcomes)


def test_source_span_lies_inside_reversed_space():
    for kind, variant, _ in ALL_RECEIVERS:
        receiver = rc.make_receiver(kind, variant)
        basis = rc.reversed_space(receiver)
        for state in receiver.source.states.values():
            kept = sum(abs(inner_product(b, state)) ** 2 for b in basis)
            assert abs(kept - 1.0) < 1e-9, (kind, variant)


def test_error_outcomes_wrapper_requires_matched_basis():
    receiver = rc.make_receiver("interferometric-6mode")
    got = rc.error_outcomes(receiver, rc.COMPUTATIONAL, (rc.COMPUTATIONAL, 0))
    assert got == {"s2", "d2"}
    got = rc.error_outcomes(receiver, rc.HADAMARD, (rc.HADAMARD, 0))
    assert got == {"s1"}
    with pytest.raises(ValueError):
        rc.error_outcomes(receiver, rc.COMPUTATIONAL, (rc.HADAMARD, 0))


def test_logical_coefficients_match_physical_states():
    receiver = rc.make_receiver("interferometric-6mode")
    src = receiver.source
    z0 = src.states[(rc.COMPUTATIONAL, 0)]
    z1 = src.states[(rc.COMPUTATIONAL, 1)]
    for label in src.labels():
        a0, a1 = src.logical_alpha(label)
        combo = z0.scaled(a0) + z1.scaled(a1)
        assert combo.close_to(src.states[label], atol=1e-12)


def test_defended_kind_alias_is_accepted():
    receiver = rc.make_receiver("defended-10mode")
    assert receiver.name == "interferometric-defended-10mode"


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
        rc.Setting(rc.COMPUTATIONAL, rc.polarization_rotation,
                   rc.polarization_rotation, outcomes,
                   {"D0": rc.BIT0, "D1": "bit_1"})


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
