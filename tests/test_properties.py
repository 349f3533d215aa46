"""Randomized invariant suites over the whole toolkit.

Six suites, each driven by at least 1000 generated instances: evolution
unitarity, photon-number conservation, completeness of the reachable
channel space, isometry Gram conditions of synthesized attacks, bit-for-bit
determinism of every seeded artifact, and the Occupation boundary of the
packed state keys.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

import qkdlab.attacks as atk
import qkdlab.fuzz as fz
import qkdlab.protocol as proto
import qkdlab.receivers as rc
from qkdlab import fockspace as fs
from qkdlab.fockspace import PhotonicState, blocked, occ, single, t_in

RANDOMIZED = settings(max_examples=1000, deadline=None, derandomize=True,
                      database=None,
                      suppress_health_check=[HealthCheck.filter_too_much])

finite_amp = hst.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                 allow_infinity=False)


# ---------------------------------------------------------------------------
# suite 1: unitarity
# ---------------------------------------------------------------------------

@RANDOMIZED
@given(phi=hst.floats(0, 2 * math.pi, allow_nan=False),
       amps=hst.lists(finite_amp, min_size=6, max_size=6))
def test_interferometer_is_unitary_on_random_states(phi, amps):
    reg = fs.interferometer_registry(-1, 3)
    components = {}
    for t, pair in enumerate(zip(amps[:3], amps[3:])):
        components[single(t_in(t))] = pair[0]
        components[single(blocked(t))] = pair[1]
    state = PhotonicState(reg, components)
    assume(state.norm() > 1e-3)
    state = state.normalized()

    cfg = fs.InterferometerConfig(phi=phi)
    out = fs.mz_transform(state, cfg)
    assert abs(out.norm() - 1.0) < 1e-9
    assert fs.mz_reverse(out, cfg).close_to(state, atol=1e-9)


def test_beam_splitter_and_phase_preserve_norm_on_random_states():
    a, b = fs.Mode(fs.CUSTOM, 0), fs.Mode(fs.CUSTOM, 1)
    reg = fs.registry([a, b], max_photons=6)
    sector = [occ((a, na), (b, nb))
              for na in range(4) for nb in range(4)]
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        picks = rng.choice(len(sector), size=5, replace=False)
        amps = {sector[i]: complex(*rng.normal(size=2)) for i in picks}
        state = PhotonicState(reg, amps).normalized()
        split = fs.apply_beam_splitter(state, (a, b), (a, b))
        assert abs(split.norm() - 1.0) < 1e-9
        shifted = fs.apply_phase_shift(split, a, rng.uniform(0, 2 * math.pi))
        assert abs(shifted.norm() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# suite 2: photon-number conservation
# ---------------------------------------------------------------------------

@RANDOMIZED
@given(counts=hst.lists(hst.integers(0, 2), min_size=4, max_size=4),
       phi=hst.floats(0, 2 * math.pi, allow_nan=False))
def test_passive_elements_conserve_photon_number_exactly(counts, phi):
    assume(any(counts))
    reg = fs.interferometer_registry(-1, 3, max_photons=8)
    pairs = [(t_in(0), counts[0]), (t_in(1), counts[1]),
             (blocked(0), counts[2]), (blocked(1), counts[3])]
    occupation = occ(*[(m, n) for m, n in pairs if n])
    total = sum(counts)

    out = fs.mz_transform(PhotonicState.basis(reg, occupation),
                          fs.InterferometerConfig(phi=phi))
    assert out.amplitudes  # a photon-carrying input never vanishes
    for component in out.components():
        assert sum(n for _, n in component) == total


# ---------------------------------------------------------------------------
# suite 3: the reachable channel space is the whole attack surface
# ---------------------------------------------------------------------------

SECTOR_RECEIVERS = [
    ("interferometric-6mode", None),
    ("interferometric-defended-10mode", None),
    ("interferometric-2mode", None),
    ("interferometric-2mode", "single-window"),
]


def sector_occupations(channel_reg, max_total=2):
    """All occupations of the channel modes with at most two photons."""
    modes = list(channel_reg.modes)
    occs = []
    for total in range(max_total + 1):
        for combo in itertools.combinations_with_replacement(modes, total):
            pairs = [(m, combo.count(m)) for m in set(combo)]
            occs.append(occ(*pairs))
    return occs


@pytest.mark.parametrize("kind,variant", SECTOR_RECEIVERS)
def test_states_outside_reachable_space_never_register(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    space = rc.reversed_space(receiver)

    gram = np.array([[fs.inner_product(x, y) for y in space] for x in space])
    assert np.max(np.abs(gram - np.eye(len(space)))) < 1e-9

    channel_reg = receiver.channel_registry()
    occs = sector_occupations(channel_reg)
    index = {o: i for i, o in enumerate(occs)}
    basis_rows = []
    for state in space:
        assert set(state.components()) <= set(occs)
        basis_rows.append([state.amplitude(o) for o in occs])
    basis = np.array(basis_rows, dtype=complex)
    assert len(space) < len(occs)  # the sector must leave room outside

    loss_ids = {name: frozenset(s.outcomes_tagged(rc.LOSS))
                for name, s in receiver.settings.items()}
    rng = np.random.default_rng(SECTOR_RECEIVERS.index((kind, variant)))
    for _ in range(250):
        v = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
        v -= basis.conj().T @ (basis @ v)
        norm = np.linalg.norm(v)
        assert norm > 1e-6  # a random vector never lands inside the span
        v /= norm
        state = PhotonicState(
            channel_reg, {o: v[index[o]] for o in occs})
        for name in receiver.settings:
            probs = rc.outcome_probabilities(receiver, name, state)
            for oid, p in probs.items():
                if oid == rc.UNREGISTERED or oid in loss_ids[name]:
                    continue
                assert math.sqrt(p) < 1e-9, (kind, name, oid, p)


def test_threshold_receiver_reaches_its_whole_truncated_space():
    # every representable channel state is measurable here, so there is no
    # orthogonal complement to probe: the span rank equals the sector size
    receiver = rc.make_receiver("polarization-threshold")
    space = rc.reversed_space(receiver)
    occs = sector_occupations(receiver.channel_registry())
    assert len(space) == len(occs) == 6
    gram = np.array([[fs.inner_product(x, y) for y in space] for x in space])
    assert np.max(np.abs(gram - np.eye(len(space)))) < 1e-9


def test_source_states_live_inside_the_reachable_space():
    for kind, variant in SECTOR_RECEIVERS + [("polarization-threshold", None),
                                             ("ideal-bb84", None),
                                             ("blinded-bright", None)]:
        receiver = rc.make_receiver(kind, variant)
        space = rc.reversed_space(receiver)
        for label, state in receiver.source.states.items():
            coords = np.array([fs.inner_product(b, state) for b in space])
            assert abs(np.linalg.norm(coords) - 1.0) < 1e-9, (kind, label)


# ---------------------------------------------------------------------------
# suite 4: isometry Gram conditions of synthesized attacks
# ---------------------------------------------------------------------------

def assert_valid_member(attack, system, family=None):
    assert attack.isometry_residual() < 1e-9
    gram = attack.gram()
    assert abs(gram[0, 0] - 1.0) < 1e-9
    assert abs(gram[1, 1] - 1.0) < 1e-9
    report = atk.verify_oblivious(attack, system=system)
    assert report.oblivious
    assert report.max_error_amplitude < 1e-9
    if family is not None:
        assert family.contains(attack)


def test_sampled_family_members_satisfy_the_gram_conditions():
    rng = np.random.default_rng(42)
    for kind, count in [("interferometric-6mode", 300),
                        ("blinded-bright", 200)]:
        receiver = rc.make_receiver(kind)
        system = atk.build_constraint_system(receiver)
        family = atk.synthesize_attacks(system)
        for _ in range(count):
            assert_valid_member(family.sample(rng), system, family)


def test_two_window_family_instances_are_isometries():
    receiver = rc.make_receiver("interferometric-2mode")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    rng = np.random.default_rng(7)
    for i in range(250):
        w, s = rng.uniform(0, 1, size=2)
        s *= math.sqrt(max(0.0, (1 - w * w) / 2))
        e = math.sqrt(max(0.0, 1 - w * w - 2 * s * s))
        attack = atk.two_mode_attack(
            receiver, e, w, s, e if i % 2 else -e,
            shared_probe_axis=bool(i % 3), system=system)
        assert_valid_member(attack, system, family)


def test_bright_pointer_family_instances_are_isometries():
    receiver = rc.make_receiver("blinded-bright")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    rng = np.random.default_rng(11)
    for _ in range(250):
        p = rng.uniform(0, 1)
        attack = atk.bright_pulse_attack(receiver, computational_amp=p,
                                         system=system)
        q = math.sqrt((1 - p * p) / 2)
        assert abs(p * p + 2 * q * q - 1) < 1e-9
        assert_valid_member(attack, system, family)


# ---------------------------------------------------------------------------
# suite 5: determinism of every seeded artifact
# ---------------------------------------------------------------------------

def report_fingerprint(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_simulation_reports_are_deterministic_per_seed():
    six = rc.make_receiver("interferometric-6mode")
    ideal = rc.make_receiver("ideal-bb84")
    channels = [
        (ideal, proto.make_channel(proto.IDENTITY)),
        (ideal, proto.make_channel(proto.LOSSY, 0.2)),
        (ideal, proto.make_channel(proto.PNS, 0.1)),
        (ideal, proto.make_channel(proto.ATTACK, atk.cnot_attack(ideal))),
        (six, proto.make_channel(proto.ATTACK, atk.faked_states_attack(six))),
    ]
    rng = np.random.default_rng(3)
    for i in range(350):
        receiver, channel = channels[i % len(channels)]
        rounds = int(rng.integers(10, 60))
        seed = int(rng.integers(0, 2 ** 31))
        first = proto.run_bb84(None, channel, receiver, rounds, seed=seed)
        second = proto.run_bb84(None, channel, receiver, rounds, seed=seed)
        assert report_fingerprint(first) == report_fingerprint(second)


def test_fuzz_reports_are_deterministic_per_seed():
    params = fz.APDParams()
    config = fz.default_config(params, max_cases=40)
    rng = np.random.default_rng(5)
    for _ in range(250):
        seed = int(rng.integers(0, 2 ** 31))
        first = fz.run_fuzz_campaign(fz.make_apd_receiver_device(params),
                                     config, seed=seed)
        second = fz.run_fuzz_campaign(fz.make_apd_receiver_device(params),
                                      config, seed=seed)
        assert report_fingerprint(first) == report_fingerprint(second)


def test_attack_serialization_round_trips_byte_stable():
    receiver = rc.make_receiver("interferometric-6mode")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    two_mode = rc.make_receiver("interferometric-2mode")
    two_mode_system = atk.build_constraint_system(two_mode)
    rng = np.random.default_rng(13)
    for i in range(200):
        if i % 2:
            attack = family.sample(rng)
        else:
            w = rng.uniform(0, 1)
            e = math.sqrt(1 - w * w)
            attack = atk.two_mode_attack(two_mode, e, w, 0.0, e,
                                         system=two_mode_system)
        blob = json.dumps(attack.to_json_dict(), sort_keys=True)
        rebuilt = atk.AttackIsometry.from_json_dict(json.loads(blob))
        assert json.dumps(rebuilt.to_json_dict(), sort_keys=True) == blob


def test_receiver_construction_is_structurally_deterministic():
    kinds = [("interferometric-6mode", None),
             ("interferometric-defended-10mode", None),
             ("interferometric-2mode", None),
             ("interferometric-2mode", "single-window"),
             ("polarization-threshold", None),
             ("blinded-bright", None),
             ("ideal-bb84", None)]
    for i in range(200):
        kind, variant = kinds[i % len(kinds)]
        first = rc.make_receiver(kind, variant)
        second = rc.make_receiver(kind, variant)
        assert (rc.interpretation_structure(first)
                == rc.interpretation_structure(second))
        for a, b in zip(rc.reversed_space(first), rc.reversed_space(second)):
            assert fs.state_to_dict(a) == fs.state_to_dict(b)


# ---------------------------------------------------------------------------
# suite 6: the Occupation boundary of the packed state keys
# ---------------------------------------------------------------------------

MODE_POOL = [fs.Mode(kind, index) for kind in fs.MODE_KINDS
             for index in range(-1, 3)]


def registry_and_occupations(seed, cap):
    """A registry of up to 10 modes, in a random order, with the cap, and
    1 to 6 distinct occupations of it."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 11))
    picks = rng.choice(len(MODE_POOL), size=size, replace=False)
    modes = [MODE_POOL[i] for i in picks]
    occupations = []
    for _ in range(int(rng.integers(1, 7))):
        counts = rng.integers(0, cap + 1, size=size) \
            * (rng.random(size) < 0.4)
        o = occ(*zip(modes, counts.tolist()))
        if o not in occupations:
            occupations.append(o)
    return fs.registry(modes, cap), occupations


@RANDOMIZED
@given(seed=hst.integers(0, 2 ** 32 - 1), cap=hst.integers(1, 8),
       extra=hst.integers(1, 3))
def test_occupations_round_trip_through_stored_keys(seed, cap, extra):
    reg, occupations = registry_and_occupations(seed, cap)
    for o in occupations:
        assert reg.occupation_of(reg.key_of(o)) == o
    state = PhotonicState(reg, {o: 1.0 for o in occupations})
    assert list(state.components()) == occupations
    assert all(state.amplitude(o) == 1.0 for o in occupations)
    # one count past the cap is named with the text the cap check has
    # always had
    mode = reg.modes[-1]
    count = reg.max_photons_per_mode + extra
    over = occ(*[(m, n) for m, n in occupations[0] if m != mode],
               (mode, count))
    with pytest.raises(fs.PhotonCapError) as err:
        PhotonicState(reg, {over: 1.0})
    assert str(err.value) == (f"{count} photons in mode {mode} exceeds the "
                              f"per-mode cap of {reg.max_photons_per_mode}")


def ket(occupation):
    return "|vac>" if not occupation else "|" + ",".join(
        f"{m}^{n}" if n > 1 else str(m) for m, n in occupation) + ">"


@RANDOMIZED
@given(seed=hst.integers(0, 2 ** 32 - 1), cap=hst.integers(1, 8),
       kept=hst.integers(0, 10))
def test_the_sort_points_list_components_in_occupation_order(seed, cap,
                                                            kept):
    reg, occupations = registry_and_occupations(seed, cap)
    state = PhotonicState(reg, {o: complex(i + 1, i % 3 - 1)
                                for i, o in enumerate(occupations)})
    ordered = sorted(occupations)
    assert [c["occupation"] for c in fs.state_to_dict(state)["components"]] \
        == [{str(m): n for m, n in o} for o in ordered]
    assert [term[term.index("|"):] for term in repr(state).split(" + ")] \
        == [ket(o) for o in ordered]
    occs, matrix = rc._occ_matrix([state])
    assert occs == ordered
    assert matrix.tolist() == [[state.amplitude(o) for o in ordered]]
    for vector in fs.support_after_trace(state, reg.modes[:kept]):
        listed = list(vector.components())
        assert listed == sorted(listed)
