"""Unit tests for zero-error attack synthesis, verification and probe analysis."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qkdlab import attacks as atk
from qkdlab import fockspace as fs
from qkdlab import receivers as rc
from qkdlab.fockspace import PhotonicState

RT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def six():
    r = rc.make_receiver("interferometric-6mode")
    s = atk.build_constraint_system(r)
    return r, s, atk.synthesize_attacks(s)


@pytest.fixture(scope="module")
def two():
    r = rc.make_receiver("interferometric-2mode")
    s = atk.build_constraint_system(r)
    return r, s, atk.synthesize_attacks(s)


@pytest.fixture(scope="module")
def defended():
    r = rc.make_receiver("interferometric-defended-10mode")
    s = atk.build_constraint_system(r)
    return r, s, atk.synthesize_attacks(s)


@pytest.fixture(scope="module")
def bright():
    r = rc.make_receiver("blinded-bright")
    s = atk.build_constraint_system(r)
    return r, s, atk.synthesize_attacks(s)


@pytest.fixture(scope="module")
def ideal():
    r = rc.make_receiver("ideal-bb84")
    s = atk.build_constraint_system(r)
    return r, s, atk.synthesize_attacks(s)


# ---------------------------------------------------------------------------
# constraint systems and null spaces
# ---------------------------------------------------------------------------

def test_null_space_edge_cases():
    basis = atk.null_space(np.zeros((3, 4)))
    assert basis.shape == (4, 4)
    assert np.allclose(basis.conj().T @ basis, np.eye(4))
    assert atk.null_space(np.eye(4)).shape == (4, 0)


_DIMENSIONS = [
    ("interferometric-6mode", None, 5, 3, False, 1),
    ("interferometric-2mode", None, 6, 4, False, 2),
    ("interferometric-2mode", "single-window", 3, 1, True, 1),
    ("interferometric-defended-10mode", None, 3, 1, True, 1),
    ("blinded-bright", None, 6, 4, False, 2),
    ("ideal-bb84", None, 3, 1, True, 1),
    ("polarization-threshold", None, 3, 1, True, 1),
]


# the ids name the cases by their first five columns only
@pytest.mark.parametrize(
    "kind,variant,total,nonvac,trivial_only,eve_dim", _DIMENSIONS,
    ids=["-".join(map(str, case[:5])) for case in _DIMENSIONS])
def test_family_dimensions(kind, variant, total, nonvac, trivial_only,
                           eve_dim):
    receiver = rc.make_receiver(kind, variant)
    family = atk.synthesize_attacks(atk.build_constraint_system(receiver))
    assert family.dimension == total
    assert family.non_vacuum_dimension == nonvac
    assert family.only_trivial == trivial_only
    assert family.canonical.eve_dim == eve_dim
    basis = family.null_basis
    assert np.allclose(basis.conj().T @ basis, np.eye(total), atol=1e-12)
    assert family.canonical.isometry_residual() < 1e-12
    rep = atk.verify_oblivious(family.canonical, system=family.system)
    assert rep.oblivious and rep.max_error_amplitude < 1e-12


_TIME_BIN_PARAMETERS = ("early_amp", "inwindow_amp", "straddle_amp",
                        "late_amp")


@pytest.mark.parametrize("kind,variant,names", [
    ("interferometric-6mode", None, _TIME_BIN_PARAMETERS),
    ("interferometric-2mode", None, _TIME_BIN_PARAMETERS),
    ("interferometric-2mode", "single-window", ()),
    ("interferometric-defended-10mode", None, ()),
    ("polarization-threshold", None, ()),
    ("blinded-bright", None, ("computational_amp", "hadamard_amp")),
    ("ideal-bb84", None, ()),
])
def test_parameter_names_follow_the_family_structure(kind, variant, names):
    receiver = rc.make_receiver(kind, variant)
    family = atk.synthesize_attacks(atk.build_constraint_system(receiver))
    assert family.parameter_names == names
    assert tuple(family.parameter_values(family.canonical)) == names


def test_constraint_row_entries_for_superposed_input(six):
    _, system, _ = six
    target = None
    for idx, row in enumerate(system.rows):
        if row.alice_label == (rc.HADAMARD, 0) and row.outcome_id == "s1":
            target = idx
    assert target is not None
    ent = system.matrix[target]
    reg = system.p_basis[0].registry
    k0 = int(np.argmax([abs(fs.inner_product(
        b, PhotonicState.photon(reg, fs.t_in(0)))) for b in system.p_basis]))
    k1 = int(np.argmax([abs(fs.inner_product(
        b, PhotonicState.photon(reg, fs.t_in(1)))) for b in system.p_basis]))
    expected = {
        system.column_index((0, k0)): -1 / (2 * RT2),
        system.column_index((1, k0)): -1 / (2 * RT2),
        system.column_index((0, k1)): 1 / (2 * RT2),
        system.column_index((1, k1)): 1 / (2 * RT2),
    }
    for col, value in enumerate(ent):
        assert abs(value - expected.get(col, 0.0)) < 1e-12


def test_row_counts(six, defended):
    assert six[1].n_rows == 6
    assert defended[1].n_rows == 38


def test_source_outside_reachable_space_is_rejected():
    import dataclasses
    receiver = rc.make_receiver("blinded-bright", bright_photons=6)
    reg = receiver.channel_registry()
    lone = {lab: PhotonicState.photon(reg, fs.pol_h())
            for lab in receiver.source.labels()}
    bad = dataclasses.replace(
        receiver, source=rc.AliceSourceModel(receiver.source.bases, lone))
    with pytest.raises(atk.AttackError, match="lost norm"):
        atk.build_constraint_system(bad)


def test_synthesis_is_deterministic():
    fams = [atk.synthesize_attacks(atk.build_constraint_system(
        rc.make_receiver("interferometric-6mode"))) for _ in range(2)]
    assert np.array_equal(fams[0].null_basis, fams[1].null_basis)
    assert np.array_equal(fams[0].canonical.coefficients,
                          fams[1].canonical.coefficients)


# ---------------------------------------------------------------------------
# pass-through and monitored-bin strategies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,variant", [
    ("interferometric-6mode", None),
    ("interferometric-2mode", None),
    ("interferometric-2mode", "single-window"),
    ("interferometric-defended-10mode", None),
    ("polarization-threshold", None),
    ("blinded-bright", None),
    ("ideal-bb84", None),
])
def test_pass_through_is_always_oblivious(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    system = atk.build_constraint_system(receiver)
    rep = atk.verify_oblivious(atk.trivial_attack(receiver, system),
                               system=system)
    assert rep.oblivious
    assert rep.max_error_amplitude < 1e-12


def test_faked_states_attack_against_sparse_receiver(six):
    receiver, system, family = six
    attack = atk.faked_states_attack(receiver, system)
    assert family.contains(attack)
    assert family.projection_residual(attack) < 1e-12
    rep = atk.verify_oblivious(attack, system=system)
    assert rep.oblivious and rep.max_error_amplitude == 0.0

    cond = atk.eve_conditional_states(attack, system=system)
    # early-bin resends reach the bit-0 windows half the time, never the
    # wrong-bit ones, and never the conjugate-basis windows
    assert abs(cond.weight((rc.COMPUTATIONAL, 0), 0) - 0.5) < 1e-12
    assert cond.weight((rc.COMPUTATIONAL, 0), 1) == 0.0
    assert abs(cond.weight((rc.COMPUTATIONAL, 1), 1) - 0.5) < 1e-12
    assert cond.detection_probability((rc.HADAMARD, 0)) == 0.0
    assert atk.eve_guess_probability(cond, rc.COMPUTATIONAL) == pytest.approx(1.0)

    probs = atk.attacked_outcome_distribution(
        attack, receiver, rc.COMPUTATIONAL, (rc.COMPUTATIONAL, 0), system)
    assert probs["s0"] == pytest.approx(0.25, abs=1e-12)
    assert probs["d0"] == pytest.approx(0.25, abs=1e-12)
    assert probs[rc.UNREGISTERED] == pytest.approx(0.5, abs=1e-12)


def test_guard_bins_catch_the_faked_states_attack(six, defended):
    attack = atk.faked_states_attack(six[0], six[1])
    rep = atk.verify_oblivious(attack, system=defended[1])
    assert not rep.oblivious
    assert rep.max_error_amplitude == pytest.approx(0.5, abs=1e-12)
    assert {row.outcome_id for row, _ in rep.failing_rows()} == {
        "s-1", "d-1", "s3", "d3"}


def test_relaxing_invalid_monitoring_reopens_the_defended_receiver(defended):
    receiver = defended[0]
    relaxed = atk.build_constraint_system(receiver, include_invalid=False)
    family = atk.synthesize_attacks(relaxed)
    assert family.dimension == 9
    assert family.non_vacuum_dimension == 7
    assert not family.only_trivial


def test_defended_family_is_pass_through_only(defended):
    receiver, system, family = defended
    assert family.only_trivial
    member = family.canonical
    emb = system.logical_embeddings()
    probe0 = emb[0].conj() @ member.coefficients[0]
    probe1 = emb[1].conj() @ member.coefficients[1]
    assert np.allclose(probe0, probe1, atol=1e-12)
    cond = atk.eve_conditional_states(member, system=system)
    for basis in (rc.COMPUTATIONAL, rc.HADAMARD):
        assert atk.eve_guess_probability(cond, basis) == pytest.approx(
            0.5, abs=1e-9)
    rng = np.random.default_rng(3)
    for _ in range(5):
        sampled = family.sample(rng)
        c = atk.eve_conditional_states(sampled, system=system)
        assert atk.eve_guess_probability(c, rc.COMPUTATIONAL) == pytest.approx(
            0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# the sparse two-window family
# ---------------------------------------------------------------------------

def test_two_window_published_member_lies_in_the_family(two):
    receiver, system, family = two
    attack = atk.full_information_attack(receiver, system)
    assert attack.eve_dim == 3
    assert family.projection_residual(attack) < 1e-12
    assert atk.verify_oblivious(attack, system=system).oblivious
    # separate probe axes for the early and late components also qualify
    general = atk.two_mode_attack(receiver, 0.5, 0.5, 0.5, 0.5,
                                  shared_probe_axis=False, system=system)
    assert family.contains(general)


def test_two_window_probe_statistics(two):
    receiver, system, _ = two
    attack = atk.full_information_attack(receiver, system)
    cond = atk.eve_conditional_states(attack, system=system)
    assert cond.weight((rc.COMPUTATIONAL, 0), 0) == pytest.approx(0.125)
    assert cond.weight((rc.COMPUTATIONAL, 1), 1) == pytest.approx(0.125)
    assert cond.weight((rc.HADAMARD, 0), 0) == pytest.approx(0.25)
    assert cond.weight((rc.HADAMARD, 1), 1) == pytest.approx(0.25)
    # zero-error: the wrong-bit conditionals carry no weight
    assert cond.weight((rc.COMPUTATIONAL, 0), 1) == 0.0
    assert cond.weight((rc.HADAMARD, 0), 1) == 0.0
    for basis in (rc.COMPUTATIONAL, rc.HADAMARD):
        assert atk.eve_guess_probability(cond, basis) == pytest.approx(1.0)


def test_two_window_normalization_is_enforced(two):
    with pytest.raises(atk.AttackError, match="normalizations"):
        atk.two_mode_attack(two[0], 0.9, 0.5, 0.5, 0.5, system=two[1])


def test_two_window_parameter_extraction(two):
    _, system, family = two
    attack = atk.two_mode_attack(two[0], 0.6, 0.4, math.sqrt(0.24), 0.6,
                                 system=system)
    values = family.parameter_values(attack)
    assert values["early_amp"] == pytest.approx(0.6, abs=1e-12)
    assert values["inwindow_amp"] == pytest.approx(0.4, abs=1e-12)
    assert values["straddle_amp"] == pytest.approx(math.sqrt(0.24), abs=1e-12)
    assert values["late_amp"] == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# copy-the-bit strategy against the ideal receiver
# ---------------------------------------------------------------------------

def test_copy_bit_attack_breaks_conjugate_basis_rows(ideal):
    receiver, system, family = ideal
    attack = atk.cnot_attack(receiver, system)
    rep = atk.verify_oblivious(attack, system=system)
    assert not rep.oblivious
    assert rep.max_error_amplitude == pytest.approx(1 / RT2, abs=1e-12)
    failing = rep.failing_rows()
    assert {(row.setting, row.outcome_id) for row, _ in failing} == {
        (rc.HADAMARD, "D0"), (rc.HADAMARD, "D1")}
    for row, res in rep.per_row_residuals:
        if row.setting == rc.COMPUTATIONAL:
            assert res < 1e-12
        else:
            assert res == pytest.approx(1 / RT2, abs=1e-12)
    assert not family.contains(attack)
    with pytest.raises(atk.AttackError, match="not a zero-error member"):
        family.member_from_coefficients(attack.coefficients)


def test_copy_bit_attack_outcome_distribution(ideal):
    receiver, system, _ = ideal
    attack = atk.cnot_attack(receiver, system)
    # matched computational rounds look perfect
    probs = atk.attacked_outcome_distribution(
        attack, receiver, rc.COMPUTATIONAL, (rc.COMPUTATIONAL, 0), system)
    assert probs["D0"] == pytest.approx(1.0)
    # conjugate rounds collapse to a coin flip
    probs = atk.attacked_outcome_distribution(
        attack, receiver, rc.HADAMARD, (rc.HADAMARD, 0), system)
    assert probs["D0"] == pytest.approx(0.5)
    assert probs["D1"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# bright-pulse family
# ---------------------------------------------------------------------------

def test_bright_family_weight_conservation(bright):
    _, system, family = bright
    rng = np.random.default_rng(11)
    for _ in range(30):
        member = family.sample(rng)
        rep = atk.verify_oblivious(member, system=system)
        assert rep.oblivious
        values = family.parameter_values(member)
        total = (values["computational_amp"] ** 2
                 + 2 * values["hadamard_amp"] ** 2)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_bright_family_endpoints_copy_one_basis(bright):
    receiver, system, family = bright
    comp_copy = atk.bright_pulse_attack(receiver, computational_amp=1.0,
                                        system=system)
    had_copy = atk.bright_pulse_attack(receiver, computational_amp=0.0,
                                       system=system)
    assert family.contains(comp_copy) and family.contains(had_copy)
    values = family.parameter_values(had_copy)
    assert values["computational_amp"] == pytest.approx(0.0, abs=1e-12)
    assert values["hadamard_amp"] == pytest.approx(1 / RT2, abs=1e-12)

    cond = atk.eve_conditional_states(comp_copy, system=system)
    assert atk.eve_guess_probability(cond, rc.COMPUTATIONAL) == pytest.approx(1.0)
    # the computational copier sends no diagonal pointers at all
    assert cond.detection_probability((rc.HADAMARD, 0)) == pytest.approx(0.0)
    with pytest.raises(atk.AttackError, match="no sifted detections"):
        atk.eve_guess_probability(cond, rc.HADAMARD)

    cond = atk.eve_conditional_states(had_copy, system=system)
    assert atk.eve_guess_probability(cond, rc.HADAMARD) == pytest.approx(1.0)


def test_bright_interior_member_reveals_both_bases(bright):
    receiver, system, family = bright
    member = atk.bright_pulse_attack(receiver, computational_amp=0.6,
                                     system=system)
    assert family.contains(member)
    cond = atk.eve_conditional_states(member, system=system)
    assert cond.weight((rc.COMPUTATIONAL, 0), 0) == pytest.approx(0.36)
    assert cond.weight((rc.HADAMARD, 0), 0) == pytest.approx(0.64)
    for basis in (rc.COMPUTATIONAL, rc.HADAMARD):
        assert atk.eve_guess_probability(cond, basis) == pytest.approx(1.0)


def test_tight_probe_dimension_falls_back_to_pass_through(bright):
    family = atk.synthesize_attacks(bright[1], eve_dim=1)
    assert family.canonical.eve_dim == 1
    rep = atk.verify_oblivious(family.canonical, system=family.system)
    assert rep.oblivious


def test_truly_infeasible_probe_dimension_reports_minimum(ideal):
    import dataclasses
    _, system, _ = ideal
    # forbid the untouched-signal direction as well; only blocking remains,
    # and blocking the two logical states needs two orthogonal probe axes
    emb = system.logical_embeddings()
    extra = np.concatenate([emb[0], emb[1]])[None, :]
    doctored = dataclasses.replace(
        system,
        matrix=np.vstack([system.matrix, extra]),
        rows=system.rows + (atk.ConstraintRow(
            (rc.COMPUTATIONAL, 0), rc.COMPUTATIONAL, "synthetic", 0),),
    )
    with pytest.raises(atk.InfeasibleAttackError) as err:
        atk.synthesize_attacks(doctored, eve_dim=1)
    assert err.value.minimal_feasible == 2
    family = atk.synthesize_attacks(doctored, eve_dim=2)
    member = family.canonical
    assert member.eve_dim == 2
    assert atk.verify_oblivious(member, system=doctored).oblivious
    # every surviving member routes all amplitude into the blocking state
    nonzero = np.abs(member.coefficients) > 1e-12
    for i in (0, 1):
        rows = {k for k in range(system.n_basis) if nonzero[i, k].any()}
        assert rows == {system.vacuum_index}


def test_instantiate_validates_weights(bright):
    _, _, family = bright
    with pytest.raises(atk.AttackError, match="isometry conditions"):
        family.instantiate(np.ones(family.dimension))
    a, b = family.weight_system()
    pool = family.direction_pool(allow_vacuum=False)
    t, rnorm = None, None
    from scipy.optimize import nnls
    t0, rnorm = nnls(a[:, pool], b)
    weights = np.zeros(family.dimension)
    weights[pool] = t0
    member = family.instantiate(weights)
    assert atk.verify_oblivious(member, system=family.system).oblivious


# ---------------------------------------------------------------------------
# the vertex enumeration against scipy's nnls, the reference solver
# ---------------------------------------------------------------------------

def _nnls_feasible(a, pool):
    """Whether nnls finds nonnegative weights over ``pool``."""
    from scipy.optimize import nnls
    if not pool:
        return False
    _, rnorm = nnls(a[:, list(pool)], atk._WEIGHT_TARGET)
    return rnorm <= 1e-9


def _nnls_minimal_support(a, pool):
    """The fewest directions of ``pool`` that nnls finds feasible."""
    for size in range(1, min(len(pool), 4) + 1):
        if any(_nnls_feasible(a, s) for s in combinations(pool, size)):
            return size
    return None


def assert_vertices_match_nnls(a, pool):
    vertices = list(atk._vertices(a, pool))
    assert bool(vertices) == _nnls_feasible(a, pool)
    for t in vertices:
        assert np.max(np.abs(a @ t - atk._WEIGHT_TARGET)) <= 1e-9
        assert np.min(t) >= 0
        support = np.flatnonzero(t)
        assert len(support) <= 4 and set(support) <= set(pool)
        # a vertex: its active columns are linearly independent
        assert np.linalg.matrix_rank(a[:, support]) == len(support)
    supports = [tuple(np.flatnonzero(t)) for t in vertices]
    assert len(set(supports)) == len(supports)
    if vertices:
        sizes = [np.count_nonzero(t) for t in vertices]
        assert sizes[0] == min(sizes) == _nnls_minimal_support(a, pool)


@pytest.mark.parametrize("kind,variant", [case[:2] for case in _DIMENSIONS])
def test_vertices_match_nnls_on_bundled_receivers(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    family = atk.synthesize_attacks(atk.build_constraint_system(receiver))
    a, _ = family.weight_system()
    for allow_vacuum in (False, True):
        assert_vertices_match_nnls(a, family.direction_pool(allow_vacuum))


@pytest.mark.parametrize("offset,feasible", [(1e-6, False), (1e-11, True)])
def test_vertices_hold_the_residual_to_1e_9(offset, feasible):
    a = np.array([[1.0], [1.0], [offset], [0.0]])
    assert_vertices_match_nnls(a, [0])
    assert bool(list(atk._vertices(a, [0]))) == feasible


def test_sample_enumerates_each_pool_once(monkeypatch):
    receiver = rc.make_receiver("interferometric-2mode")
    family = atk.synthesize_attacks(atk.build_constraint_system(receiver))
    calls = []

    def counting(a, pool):
        calls.append(tuple(pool))
        return real(a, pool)

    real = atk._vertices
    monkeypatch.setattr(atk, "_vertices", counting)
    rng = np.random.default_rng(11)
    cached = [family.sample(rng) for _ in range(2)]
    assert len(calls) == 1
    cached.append(family.sample(rng, allow_vacuum=True))
    cached.append(family.sample(rng, allow_vacuum=True))
    assert len(calls) == 2
    with pytest.raises(ValueError):
        family._pool_vertices()[0, 0] = 0.5
    # the same draws with the cache emptied before each one
    rng = np.random.default_rng(11)
    uncached = []
    for allow_vacuum in (False, False, True, True):
        family._vertex_cache.clear()
        uncached.append(family.sample(rng, allow_vacuum=allow_vacuum))
    assert len(calls) == 6
    for x, y in zip(cached, uncached):
        assert x.coefficients.tobytes() == y.coefficients.tobytes()


@hst.composite
def weight_systems(draw):
    """(A, pool): Gram rows of random probe directions or a random A,
    optionally with planted nonnegative weights and a repeated column."""
    n = draw(hst.integers(1, 7))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    if draw(hst.booleans()):
        n_basis = draw(hst.integers(1, 3))
        dirs = (rng.standard_normal((2 * n_basis, n))
                + 1j * rng.standard_normal((2 * n_basis, n)))
        a = atk._weight_rows(dirs / np.linalg.norm(dirs, axis=0), n_basis)
    else:
        a = rng.standard_normal((4, n))
    pool = {d for d in range(n) if draw(hst.booleans())}
    if draw(hst.booleans()):
        t0 = rng.exponential(size=n) * (rng.random(n) < 0.5)
        j = int(rng.integers(n))
        t0[j] += 0.5
        a[:, j] += (atk._WEIGHT_TARGET - a @ t0) / t0[j]
        pool |= set(np.flatnonzero(t0))
    if draw(hst.booleans()):
        a = np.hstack([a, a[:, :1]])
        pool.add(n)
    return a, sorted(pool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=weight_systems())
def test_vertices_match_nnls_on_random_weight_systems(case):
    assert_vertices_match_nnls(*case)


# ---------------------------------------------------------------------------
# probe-state discrimination
# ---------------------------------------------------------------------------

def test_helstrom_matches_closed_form():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([1.0, 1.0]) / RT2
    got = atk.helstrom_probability(v0, v1)
    assert got == pytest.approx((1 + math.sqrt(1 - 0.5)) / 2, abs=1e-12)
    assert got == pytest.approx(0.8535533905932737, abs=1e-12)


def test_helstrom_matches_numeric_measurement_search():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        best = 0.0
        for theta in np.linspace(0, math.pi, 4001):
            m0 = np.array([math.cos(theta), math.sin(theta)])
            m1 = np.array([-math.sin(theta), math.cos(theta)])
            best = max(best, 0.5 * ((m0 @ a) ** 2 + (m1 @ b) ** 2))
        assert atk.helstrom_probability(a, b) == pytest.approx(best, abs=1e-6)


def test_helstrom_measurement_statistics_are_consistent():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([1.0, 1.0]) / RT2
    meas = atk.helstrom_measurement(v0, v1)
    assert meas.success_probability == pytest.approx(
        0.5 * meas.guess0_given_0 + 0.5 * (1 - meas.guess0_given_1))
    assert meas.success_probability == pytest.approx(
        atk.helstrom_probability(v0, v1))


def test_three_hypotheses_refused_with_overlap_report():
    states = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / RT2]
    with pytest.raises(atk.MultipleHypothesesError) as err:
        atk.guess_probability_for_hypotheses(states)
    assert err.value.overlaps[(0, 1)] == pytest.approx(0.0)
    assert err.value.overlaps[(0, 2)] == pytest.approx(1 / RT2)
    assert err.value.overlaps[(1, 2)] == pytest.approx(1 / RT2)


# ---------------------------------------------------------------------------
# receiver / system resolution
# ---------------------------------------------------------------------------

UNRESOLVED_CALLS = {
    "verify_oblivious": lambda a: atk.verify_oblivious(a, None, None),
    "attacked_outcome_distribution": lambda a: (
        atk.attacked_outcome_distribution(a, None, rc.COMPUTATIONAL,
                                          (rc.COMPUTATIONAL, 0), system=None)),
    "eve_conditional_states": lambda a: atk.eve_conditional_states(
        a, None, None),
    "trivial_attack": lambda a: atk.trivial_attack(None, None),
    "cnot_attack": lambda a: atk.cnot_attack(None, None),
    "faked_states_attack": lambda a: atk.faked_states_attack(None, None),
    "two_mode_attack": lambda a: atk.two_mode_attack(
        None, 0.5, 0.5, 0.5, 0.5, system=None),
    "bright_pulse_attack": lambda a: atk.bright_pulse_attack(
        None, computational_amp=1.0, system=None),
}


@pytest.mark.parametrize("entry", sorted(UNRESOLVED_CALLS))
def test_missing_receiver_and_system_is_an_attack_error(ideal, entry):
    attack = atk.trivial_attack(None, ideal[1])
    with pytest.raises(atk.AttackError, match="receiver or a prebuilt system"):
        UNRESOLVED_CALLS[entry](attack)


@pytest.mark.parametrize("build", [
    atk.faked_states_attack, atk.full_information_attack])
def test_time_bin_attacks_need_channel_time_bins(ideal, build):
    receiver, system, _ = ideal
    with pytest.raises(atk.AttackError, match="channel time bins"):
        build(receiver, system=system)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_attack_json_round_trip(six):
    receiver, system, _ = six
    attack = atk.faked_states_attack(receiver, system)
    blob = json.dumps(attack.to_json_dict(), sort_keys=True)
    back = atk.AttackIsometry.from_json_dict(json.loads(blob))
    assert back.receiver_name == attack.receiver_name
    assert back.label == attack.label
    assert np.array_equal(back.coefficients, attack.coefficients)
    assert atk.verify_oblivious(back, system=system).oblivious


def test_attack_json_rejects_unknown_format():
    with pytest.raises(atk.AttackError, match="format"):
        atk.AttackIsometry.from_json_dict({"format": "attack-isometry/9"})


def test_non_isometric_coefficients_are_rejected(six):
    _, system, _ = six
    coeff = np.zeros((2, system.n_basis, 1), dtype=complex)
    coeff[0, 0, 0] = 1.0  # second logical branch maps to nothing
    with pytest.raises(atk.AttackError, match="isometry"):
        atk.AttackIsometry(system.receiver_name, system.alice_labels,
                           system.p_basis, coeff)


def _faked_states_document(six):
    receiver, system, _ = six
    return atk.faked_states_attack(receiver, system).to_json_dict()


@pytest.mark.parametrize("missing", ["receiver", "alice_labels", "basis",
                                     "coefficients"])
def test_attack_json_missing_key_is_an_attack_error(six, missing):
    data = _faked_states_document(six)
    del data[missing]
    with pytest.raises(atk.AttackError, match=missing):
        atk.AttackIsometry.from_json_dict(data)
    with pytest.raises(atk.AttackError):
        atk.AttackIsometry.from_json_dict({"format": "attack-isometry/1"})


@pytest.mark.parametrize("damage", [
    lambda c: c[0].pop(),
    lambda c: c[1][0].append([0.0, 0.0]),
    lambda c: c[0][0].__setitem__(0, [1.0]),
    lambda c: c[0].__setitem__(0, "x"),
], ids=["branch-lacks-a-row", "row-has-an-extra-entry",
        "complex-with-one-part", "row-is-not-a-list"])
def test_attack_json_ragged_coefficients_are_an_attack_error(six, damage):
    data = _faked_states_document(six)
    damage(data["coefficients"])
    with pytest.raises(atk.AttackError):
        atk.AttackIsometry.from_json_dict(data)
