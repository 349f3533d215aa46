"""Unit tests for sparse Fock states and linear-optics evolutions.

Multi-photon beam-splitter values are cross-checked against an independent
first-quantized oracle (symmetric tensor evolution), phase-shifter values
against the diagonal matrix exponential, and reduced supports against a dense
eigendecomposition done inline.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from qkdlab import fockspace as fs
from qkdlab import receivers as rc
from qkdlab.fockspace import (
    PhotonicState, blocked, d_out, inner_product, occ, pol_h, pol_v,
    s_out, single, t_in,
)


def two_mode_registry(max_photons=10):
    a, b = fs.Mode(fs.CUSTOM, 0), fs.Mode(fs.CUSTOM, 1)
    return fs.registry([a, b], max_photons), a, b


def amp(state, occupation):
    return state.amplitude(occupation)


def photon_numbers(state):
    """Probability weight per total photon number."""
    weights = {}
    for occupation, a in state.components().items():
        n = sum(count for _, count in occupation)
        weights[n] = weights.get(n, 0.0) + abs(a) ** 2
    return weights


# ---------------------------------------------------------------------------
# states, inner products, registries
# ---------------------------------------------------------------------------

def test_vacuum_is_normalized():
    reg, _, _ = two_mode_registry()
    v = PhotonicState.vacuum(reg)
    assert abs(v.norm() - 1.0) < 1e-12
    assert abs(inner_product(v, v) - 1.0) < 1e-12


def test_orthogonality_of_distinct_occupations():
    reg = fs.interferometer_registry(0, 2)
    s0 = PhotonicState.photon(reg, s_out(0))
    d0 = PhotonicState.photon(reg, d_out(0))
    assert abs(inner_product(s0, d0)) < 1e-12


def test_polarization_overlap_between_diagonal_and_horizontal():
    reg = fs.registry([pol_h(), pol_v()])
    h = PhotonicState.photon(reg, pol_h())
    v = PhotonicState.photon(reg, pol_v())
    diag = (h + v).scaled(1 / math.sqrt(2))
    assert abs(inner_product(diag, h) - 1 / math.sqrt(2)) < 1e-12


def test_bright_superposition_overlap_is_two_to_minus_half_k():
    # |all-H with k photons> versus the balanced binomial superposition:
    # overlap must be exactly 2^(-k/2).
    k = 6
    reg = fs.registry([pol_h(), pol_v()])
    all_h = PhotonicState.basis(reg, occ((pol_h(), k)))
    amps = {}
    for l in range(k + 1):
        amps[occ((pol_h(), l), (pol_v(), k - l))] = \
            math.sqrt(math.comb(k, l)) / 2 ** (k / 2)
    bright_plus = PhotonicState(reg, amps)
    assert abs(bright_plus.norm() - 1.0) < 1e-12
    assert abs(inner_product(bright_plus, all_h) - 2 ** (-k / 2)) < 1e-12


def test_registry_mismatch_is_an_error():
    reg_a = fs.registry([pol_h(), pol_v()])
    reg_b = fs.registry([pol_h()])
    a = PhotonicState.photon(reg_a, pol_h())
    b = PhotonicState.photon(reg_b, pol_h())
    with pytest.raises(fs.RegistryMismatchError):
        inner_product(a, b)
    with pytest.raises(fs.RegistryMismatchError):
        _ = a + b


def test_photon_cap_is_enforced():
    reg, a, b = two_mode_registry(max_photons=2)
    with pytest.raises(fs.PhotonCapError):
        PhotonicState.basis(reg, occ((a, 3)))
    # evolutions are also capped: |2,1> through a beam splitter can put
    # three photons in one output mode
    state = PhotonicState.basis(reg, occ((a, 2), (b, 1)))
    with pytest.raises(fs.PhotonCapError):
        fs.apply_beam_splitter(state, (a, b))


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), True, 2.5,
                                 "2", None, 0, -1])
def test_a_registry_cap_is_an_integer_of_at_least_1(cap):
    with pytest.raises(fs.FockError, match="max_photons_per_mode"):
        fs.registry([pol_h(), pol_v()], max_photons=cap)
    with pytest.raises(fs.FockError, match="max_photons_per_mode"):
        rc.make_receiver("interferometric-6mode", max_photons=cap)


def test_an_integral_registry_cap_is_kept_as_an_int():
    for cap in (2.0, np.int64(2)):
        reg = fs.registry([pol_h()], max_photons=cap)
        assert type(reg.max_photons_per_mode) is int
        assert reg == fs.registry([pol_h()], max_photons=2)


def test_unknown_mode_is_an_error():
    reg = fs.registry([pol_h()])
    with pytest.raises(fs.FockError):
        PhotonicState.photon(reg, pol_v())


def test_pruning_drops_tiny_amplitudes():
    reg, a, _ = two_mode_registry()
    st = PhotonicState(reg, {single(a): 1.0, fs.VACUUM: 1e-15})
    assert fs.VACUUM not in st.components()


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------

def first_quantized_two_photon_oracle(n_a, n_b):
    """Independent oracle: evolve a 2-photon, 2-mode state in first
    quantization (symmetric tensor) and convert back to occupations."""
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
    psi = np.zeros((2, 2), complex)
    if n_a == 2:
        psi[0, 0] = 1.0
    elif n_b == 2:
        psi[1, 1] = 1.0
    else:
        psi[0, 1] = psi[1, 0] = 1 / math.sqrt(2)
    out = u @ psi @ u.T
    return {(2, 0): out[0, 0], (1, 1): math.sqrt(2) * out[0, 1],
            (0, 2): out[1, 1]}


def test_beam_splitter_on_single_photon():
    reg, a, b = two_mode_registry()
    out = fs.apply_beam_splitter(PhotonicState.photon(reg, a), (a, b))
    r = 1 / math.sqrt(2)
    assert abs(amp(out, single(a)) - r) < 1e-12
    assert abs(amp(out, single(b)) - 1j * r) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


def test_beam_splitter_fixes_vacuum():
    reg, a, b = two_mode_registry()
    out = fs.apply_beam_splitter(PhotonicState.vacuum(reg), (a, b))
    assert abs(amp(out, fs.VACUUM) - 1.0) < 1e-12
    assert len(out.amplitudes) == 1


@pytest.mark.parametrize("n_a,n_b", [(2, 0), (1, 1), (0, 2)])
def test_beam_splitter_two_photons_matches_first_quantized_oracle(n_a, n_b):
    reg, a, b = two_mode_registry()
    state = PhotonicState.basis(reg, occ((a, n_a), (b, n_b)))
    out = fs.apply_beam_splitter(state, (a, b))
    oracle = first_quantized_two_photon_oracle(n_a, n_b)
    for (m_a, m_b), expected in oracle.items():
        assert abs(amp(out, occ((a, m_a), (b, m_b))) - expected) < 1e-12


def test_beam_splitter_hong_ou_mandel_dip():
    # |1,1> must have no |1,1> component after a balanced splitter
    reg, a, b = two_mode_registry()
    out = fs.apply_beam_splitter(
        PhotonicState.basis(reg, occ((a, 1), (b, 1))), (a, b))
    assert abs(amp(out, occ((a, 1), (b, 1)))) < 1e-12
    assert abs(amp(out, occ((a, 2))) - 1j / math.sqrt(2)) < 1e-12
    assert abs(amp(out, occ((b, 2))) - 1j / math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------------------
# 45-degree rotation
# ---------------------------------------------------------------------------

ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rotation_amplitudes_match_permanents(n):
    # <T| U |S> = per(U_{T,S}) / sqrt(prod s! prod t!), rows and columns
    # repeated by occupation; the rotation matrix is symmetric
    reg, a, b = two_mode_registry()
    for k in range(n + 1):
        s = occ((a, n - k), (b, k))
        out = fs.apply_rotation(PhotonicState.basis(reg, s), (a, b))
        cols = [0] * (n - k) + [1] * k
        for j in range(n + 1):
            rows = [0] * (n - j) + [1] * j
            sub = ROTATION[np.ix_(rows, cols)]
            fact = math.prod(math.factorial(x) for x in (n - k, k, n - j, j))
            expected = ryser_permanent(sub) / math.sqrt(fact)
            t = occ((a, n - j), (b, j))
            assert abs(out.amplitude(t) - expected) < 1e-12


def test_rotating_twice_returns_the_input():
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(5)], 8)
    a, b, c, d, e = reg.modes
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        state = random_state(reg, [a, b, e], n, rng)
        twice = fs.apply_rotation(fs.apply_rotation(state, (a, b)), (a, b))
        assert twice.close_to(state, atol=1e-12)
        moved = fs.apply_rotation(state, (a, b), (c, d))
        back = fs.apply_rotation(moved, (c, d), (a, b))
        assert back.close_to(state, atol=1e-12)


def test_rotation_entries_are_exact():
    # the integer rotation is scaled once per component, so the entries
    # are the correctly rounded ones
    reg = fs.registry([pol_h(), pol_v()])
    h, v = pol_h(), pol_v()

    def entries(occupation):
        out = fs.apply_rotation(PhotonicState.basis(reg, occupation), (h, v))
        return {o: repr(x) for o, x in out.components().items()}

    r = 0.7071067811865475
    assert entries(single(h)) == {single(h): exact(r), single(v): exact(r)}
    assert entries(single(v)) == {single(h): exact(r), single(v): exact(-r)}
    assert entries(occ((h, 2))) == {occ((h, 2)): exact(0.5),
                                    occ((h, 1), (v, 1)):
                                        exact(0.7071067811865476),
                                    occ((v, 2)): exact(0.5)}


# ---------------------------------------------------------------------------
# phase shifter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,phi", [(1, math.pi / 2), (1, 0.0), (2, math.pi),
                                   (3, 0.7)])
def test_phase_shift_matches_matrix_exponential(n, phi):
    reg, a, _ = two_mode_registry()
    state = PhotonicState.basis(reg, occ((a, n)))
    out = fs.apply_phase_shift(state, a, phi)
    assert abs(amp(out, occ((a, n))) - np.exp(1j * n * phi)) < 1e-12


def test_phase_shift_only_touches_its_mode():
    reg, a, b = two_mode_registry()
    state = PhotonicState.basis(reg, occ((a, 1), (b, 2)))
    out = fs.apply_phase_shift(state, a, 1.1)
    assert abs(amp(out, occ((a, 1), (b, 2))) - np.exp(1.1j)) < 1e-12


# ---------------------------------------------------------------------------
# Mach-Zehnder forward / reverse
# ---------------------------------------------------------------------------

def test_mz_forward_single_time_bin_zero_phase():
    reg = fs.interferometer_registry(0, 1)
    out = fs.mz_transform(PhotonicState.photon(reg, t_in(0)))
    expected = {
        single(s_out(0)): 0.5, single(d_out(0)): 0.5j,
        single(s_out(1)): -0.5, single(d_out(1)): 0.5j,
    }
    for k, v in expected.items():
        assert abs(amp(out, k) - v) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


def test_mz_forward_fixes_vacuum():
    reg = fs.interferometer_registry(0, 1)
    out = fs.mz_transform(PhotonicState.vacuum(reg))
    assert abs(amp(out, fs.VACUUM) - 1.0) < 1e-12


def test_mz_forward_superposition_interferes():
    reg = fs.interferometer_registry(0, 1)
    st = (PhotonicState.photon(reg, t_in(0))
          + PhotonicState.photon(reg, t_in(1))).scaled(1 / math.sqrt(2))
    out = fs.mz_transform(st)
    r = 1 / math.sqrt(8)
    expected = {
        single(s_out(0)): r, single(s_out(2)): -r,
        single(d_out(0)): 1j * r, single(d_out(1)): 2j * r,
        single(d_out(2)): 1j * r,
    }
    assert set(out.components()) == set(expected)
    for k, v in expected.items():
        assert abs(amp(out, k) - v) < 1e-12


def test_mz_forward_phase_dependence():
    reg = fs.interferometer_registry(0, 1)
    out = fs.mz_transform(PhotonicState.photon(reg, t_in(0)),
                          fs.InterferometerConfig(phi=math.pi / 2))
    e = np.exp(1j * math.pi / 2)
    assert abs(amp(out, single(s_out(1))) - (-0.5 * e)) < 1e-12
    assert abs(amp(out, single(d_out(1))) - 0.5j * e) < 1e-12


def test_mz_reverse_single_outputs_zero_phase():
    reg = fs.interferometer_registry(-1, 1)
    out = fs.mz_reverse(PhotonicState.photon(reg, s_out(1)))
    expected = {
        single(t_in(0)): -0.5, single(blocked(0)): -0.5j,
        single(t_in(1)): 0.5, single(blocked(1)): -0.5j,
    }
    for k, v in expected.items():
        assert abs(amp(out, k) - v) < 1e-12

    out = fs.mz_reverse(PhotonicState.photon(reg, d_out(0)))
    expected = {
        single(t_in(-1)): -0.5j, single(blocked(-1)): 0.5,
        single(t_in(0)): -0.5j, single(blocked(0)): -0.5,
    }
    for k, v in expected.items():
        assert abs(amp(out, k) - v) < 1e-12


@pytest.mark.parametrize("phi", [0.0, math.pi / 2, 1.3])
def test_mz_round_trip_is_identity(phi):
    reg = fs.interferometer_registry(-1, 2)
    cfg = fs.InterferometerConfig(phi=phi)
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = {}
        for t in range(0, 2):
            amps[single(t_in(t))] = complex(rng.normal(), rng.normal())
            amps[single(blocked(t))] = complex(rng.normal(), rng.normal())
        st = PhotonicState(reg, amps).normalized()
        back = fs.mz_reverse(fs.mz_transform(st, cfg), cfg)
        assert back.close_to(st, atol=1e-9)


def test_mz_forward_rejects_output_modes():
    reg = fs.interferometer_registry(0, 1)
    with pytest.raises(fs.FockError):
        fs.mz_transform(PhotonicState.photon(reg, s_out(0)))


def test_mz_reverse_rejects_input_modes():
    reg = fs.interferometer_registry(0, 1)
    with pytest.raises(fs.FockError):
        fs.mz_reverse(PhotonicState.photon(reg, t_in(0)))


def forward_matrix(reg, bins, phi):
    """Single-photon transfer matrix of the forward interferometer."""
    in_modes = [t_in(t) for t in bins] + [blocked(t) for t in bins]
    out_bins = range(bins[0], bins[-1] + 2)
    out_modes = [s_out(t) for t in out_bins] + [d_out(t) for t in out_bins]
    m = np.zeros((len(out_modes), len(in_modes)), complex)
    cfg = fs.InterferometerConfig(phi=phi)
    for c, mode in enumerate(in_modes):
        img = fs.mz_transform(PhotonicState.photon(reg, mode), cfg)
        for r, om in enumerate(out_modes):
            m[r, c] = img.amplitude(single(om))
    return m, in_modes, out_modes


@pytest.mark.parametrize("phi", [0.0, 0.9])
def test_mz_matrix_is_an_isometry_and_reverse_is_its_adjoint(phi):
    bins = list(range(-2, 4))
    reg = fs.interferometer_registry(-3, 4)
    m, in_modes, out_modes = forward_matrix(reg, bins, phi)
    gram = m.conj().T @ m
    assert np.max(np.abs(gram - np.eye(len(in_modes)))) < 1e-9
    cfg = fs.InterferometerConfig(phi=phi)
    for r, om in enumerate(out_modes):
        rev = fs.mz_reverse(PhotonicState.photon(reg, om), cfg)
        for c, im in enumerate(in_modes):
            assert abs(rev.amplitude(single(im)) - np.conj(m[r, c])) < 1e-12


def ryser_permanent(m):
    """Permanent by Ryser's inclusion-exclusion formula."""
    n = m.shape[0]
    total = 0.0
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        total += (-1) ** len(cols) * np.prod(m[:, cols].sum(axis=1))
    return (-1) ** n * total


def documented_mz_matrix(in_modes, out_modes, phi, delay=1):
    """Single-photon transfer matrix written out from the mz_transform docs."""
    e = np.exp(1j * phi)
    u = np.zeros((len(out_modes), len(in_modes)), complex)
    row = {m: r for r, m in enumerate(out_modes)}
    for c, m in enumerate(in_modes):
        t, late = m.index, m.index + delay
        if m.kind == fs.CHANNEL:
            image = {s_out(t): 0.5, d_out(t): 0.5j,
                     s_out(late): -0.5 * e, d_out(late): 0.5j * e}
        else:
            image = {s_out(t): 0.5j, d_out(t): -0.5,
                     s_out(late): 0.5j * e, d_out(late): 0.5 * e}
        for om, v in image.items():
            u[row[om], c] = v
    return u


def multisets(modes, n):
    if n == 0:
        yield ()
        return
    if not modes:
        return
    first, rest = modes[0], modes[1:]
    for k in range(n, -1, -1):
        for tail in multisets(rest, n - k):
            yield (first,) * k + tail


def exact(z):
    """repr of an amplitude as the kernel reports it: adding 0.0 clears a
    negative zero, and the kernel leaves none."""
    return repr(0.0 + complex(z))


@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                                 0.9])
def test_mz_single_photon_images_are_the_documented_entries_exactly(phi, delay):
    # the splitters are exact and each photon is scaled by 0.5 once, so the
    # amplitudes are the documented ones to the last bit; 1/sqrt(2) per
    # splitter would give 0.4999999999999999
    reg = fs.interferometer_registry(-2, 6)
    in_bins, out_bins = range(-2, 5), range(-2, 5 + delay)
    in_modes = [m(t) for t in in_bins for m in (t_in, blocked)]
    out_modes = [m(t) for t in out_bins for m in (s_out, d_out)]
    u = documented_mz_matrix(in_modes, out_modes, phi, delay)
    cfg = fs.InterferometerConfig(phi=phi, delay=delay)
    for c, mode in enumerate(in_modes):
        image = fs.mz_transform(PhotonicState.photon(reg, mode), cfg)
        want = {single(out_modes[r]): exact(u[r, c])
                for r in np.flatnonzero(u[:, c])}
        assert {o: repr(a) for o, a in image.components().items()} == want
    for r, mode in enumerate(out_modes):
        if not 0 <= mode.index <= 4:
            continue  # a source bin would lie outside in_bins
        image = fs.mz_reverse(PhotonicState.photon(reg, mode), cfg)
        want = {single(in_modes[c]): exact(np.conj(u[r, c]))
                for c in np.flatnonzero(u[r])}
        assert {o: repr(a) for o, a in image.components().items()} == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mz_multiphoton_amplitudes_match_permanents(n):
    # <T| U |S> = per(U_{T,S}) / sqrt(prod s! prod t!)  (Scheel,
    # quant-ph/0406127), with rows/columns repeated by occupation
    phi = 0.7
    reg = fs.interferometer_registry(0, 1, max_photons=n)
    in_modes = [t_in(0), t_in(1), blocked(0), blocked(1)]
    out_modes = [m(t) for m in (s_out, d_out) for t in range(3)]
    u = documented_mz_matrix(in_modes, out_modes, phi)
    rng = np.random.default_rng(n)
    for _ in range(3):
        picks = sorted(rng.choice(len(in_modes), size=n).tolist())
        s = occ(*((in_modes[i], picks.count(i)) for i in set(picks)))
        out = fs.mz_transform(PhotonicState.basis(reg, s), phi)
        s_fact = math.prod(math.factorial(k) for _, k in s)
        for t_modes in multisets(out_modes, n):
            t = occ(*((m, t_modes.count(m)) for m in set(t_modes)))
            t_fact = math.prod(math.factorial(k) for _, k in t)
            sub = u[np.ix_([out_modes.index(m) for m in t_modes], picks)]
            expected = ryser_permanent(sub) / math.sqrt(s_fact * t_fact)
            assert abs(out.amplitude(t) - expected) < 1e-12


def random_state(reg, modes, n, rng, terms=4):
    amps = {}
    for _ in range(terms):
        picks = rng.choice(len(modes), size=n).tolist()
        o = occ(*((modes[i], picks.count(i)) for i in set(picks)))
        amps[o] = complex(rng.normal(), rng.normal())
    return PhotonicState(reg, amps).normalized()


@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mz_reverse_is_the_adjoint_on_multiphoton_states(delay, n):
    # <T a, b> = <a, R b> for input-side a and output-side b
    bins = range(-2, 4)
    reg = fs.registry([m(t) for t in bins for m in (t_in, blocked)]
                      + [m(t) for t in range(-2, 6) for m in (s_out, d_out)])
    cfg = fs.InterferometerConfig(phi=1.1, delay=delay)
    rng = np.random.default_rng(10 * delay + n)
    inputs = [m(t) for t in (0, 1) for m in (t_in, blocked)]
    outputs = [m(t) for t in range(0, 4) for m in (s_out, d_out)]
    for _ in range(3):
        a = random_state(reg, inputs, n, rng)
        b = random_state(reg, outputs, n, rng)
        lhs = inner_product(fs.mz_transform(a, cfg), b)
        rhs = inner_product(a, fs.mz_reverse(b, cfg))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("kwargs", [{"phi": float("nan")},
                                    {"phi": float("inf")},
                                    {"delay": 0},
                                    {"phi": True}, {"phi": "1"},
                                    {"phi": None}, {"phi": 1j}])
def test_interferometer_config_rejects_malformed_parameters(kwargs):
    with pytest.raises(fs.FockError):
        fs.InterferometerConfig(**kwargs)


@pytest.mark.parametrize("phi", [True, False, "0.5", None, 0.5j])
def test_a_bare_phase_must_be_a_real_number(phi):
    reg = fs.interferometer_registry(0, 1)
    photon = PhotonicState.photon(reg, t_in(0))
    # an integral phase is a real number too
    assert fs.mz_transform(photon, 1).amplitudes \
        == fs.mz_transform(photon, 1.0).amplitudes
    with pytest.raises(fs.FockError, match="^" + re.escape(
            f"interferometer phase must be a real number, got {phi!r}")):
        fs.mz_transform(photon, phi)
    with pytest.raises(fs.FockError, match="must be a real number"):
        fs.mz_reverse(PhotonicState.photon(reg, s_out(1)), phi)
    reg, a, _ = two_mode_registry()
    with pytest.raises(fs.FockError,
                       match="^phase shift must be a real number"):
        fs.apply_phase_shift(PhotonicState.photon(reg, a), a, phi)


def test_a_bare_nan_phase_through_the_interferometer_raises():
    reg = fs.interferometer_registry(0, 1)
    with pytest.raises(fs.FockError, match=r"^interferometer phase must be "
                                           r"finite, got nan$"):
        fs.mz_transform(PhotonicState.photon(reg, t_in(0)), float("nan"))


def test_a_bare_nan_phase_through_the_reverse_interferometer_raises():
    reg = fs.interferometer_registry(0, 1)
    with pytest.raises(fs.FockError, match=r"^interferometer phase must be "
                                           r"finite, got nan$"):
        fs.mz_reverse(PhotonicState.photon(reg, s_out(1)), float("nan"))


def test_an_infinite_phase_shift_raises():
    reg, a, _ = two_mode_registry()
    with pytest.raises(fs.FockError,
                       match=r"^phase shift must be finite, got inf$"):
        fs.apply_phase_shift(PhotonicState.photon(reg, a), a, math.inf)


def test_a_fractional_interferometer_delay_raises():
    with pytest.raises(fs.FockError, match=r"^interferometer delay must be "
                                           r"an integer, got 1\.5$"):
        fs.InterferometerConfig(delay=1.5)


def test_a_boolean_interferometer_delay_raises():
    with pytest.raises(fs.FockError, match=r"^interferometer delay must be "
                                           r"an integer, got True$"):
        fs.InterferometerConfig(delay=True)


def mixed_photon_number_state(reg, rng):
    """Vacuum plus one- to three-photon components over bins 0..2."""
    modes = [m(t) for t in range(3) for m in (t_in, blocked)]
    amps = {fs.VACUUM: complex(rng.normal(), rng.normal())}
    for n in (1, 1, 2, 2, 3, 3):
        picks = rng.choice(len(modes), size=n).tolist()
        o = occ(*((modes[i], picks.count(i)) for i in set(picks)))
        amps[o] = complex(rng.normal(), rng.normal())
    return PhotonicState(reg, amps).normalized()


def test_mz_round_trip_of_a_mixed_photon_number_state_with_delay_2():
    reg = fs.interferometer_registry(-2, 4, max_photons=3)
    cfg = fs.InterferometerConfig(phi=2.3, delay=2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        st = mixed_photon_number_state(reg, rng)
        out = fs.mz_transform(st, cfg)
        weights = photon_numbers(out)
        for n, w in photon_numbers(st).items():
            assert abs(weights[n] - w) < 1e-12
        assert fs.mz_reverse(out, cfg).close_to(st, atol=1e-12)


def test_mz_outputs_carry_only_registry_modes():
    # the interferometer's arm modes are private: no occupation of either
    # direction names one, and every mode an occupation names is a Mode of
    # the registry
    reg = fs.interferometer_registry(-2, 4, max_photons=3)
    rng = np.random.default_rng(5)
    for delay in (1, 2):
        cfg = fs.InterferometerConfig(phi=0.4, delay=delay)
        st = mixed_photon_number_state(reg, rng)
        out = fs.mz_transform(st, cfg)
        for state in (out, fs.mz_reverse(out, cfg)):
            for occupation in state.components():
                for mode, _ in occupation:
                    assert isinstance(mode, fs.Mode) and mode in reg
    # a registry without the exit bins names the missing registry mode
    narrow = fs.registry([t_in(0), blocked(0), s_out(0), d_out(0)])
    with pytest.raises(fs.FockError, match="not in registry") as err:
        fs.mz_transform(PhotonicState.photon(narrow, t_in(0)))
    assert "output-" in str(err.value)
    assert "short" not in str(err.value) and "long" not in str(err.value)


def test_an_occupied_output_is_named_in_the_order_components_name_it():
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)])
    a, b, c, d = reg.modes
    state = PhotonicState(reg, {occ((a, 1), (d, 1)): 0.6,
                                occ((a, 1), (c, 1)): 0.8})
    with pytest.raises(fs.FockError, match=f"output mode {d} already"):
        fs.apply_beam_splitter(state, (a, b), (c, d))
    reg = fs.interferometer_registry(0, 1)
    state = PhotonicState(reg, {occ((t_in(0), 1), (d_out(1), 1)): 0.6,
                                occ((s_out(0), 1), (t_in(0), 1)): 0.8})
    with pytest.raises(fs.FockError, match=f"uses mode {d_out(1)} from"):
        fs.mz_transform(state)
    with pytest.raises(fs.FockError, match=f"uses mode {t_in(0)} from"):
        fs.mz_reverse(state)


def test_beam_splitter_rejects_occupied_or_repeated_modes():
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)])
    a, b, c, d = reg.modes
    state = PhotonicState.basis(reg, occ((a, 1), (c, 1)))
    for apply_pair in (fs.apply_beam_splitter, fs.apply_rotation):
        with pytest.raises(fs.FockError, match="already holds photons"):
            apply_pair(state, (a, b), (c, d))
        with pytest.raises(fs.FockError, match="distinct"):
            apply_pair(state, (a, a))
        with pytest.raises(fs.FockError, match="distinct"):
            apply_pair(state, (a, b), (d, d))
        # an output that is also an input may hold photons: it is emptied
        # first
        swapped = apply_pair(state, (a, c), (c, a))
        assert abs(swapped.norm() - 1.0) < 1e-12
    # a photon in a mode the splitter does not act on passes unscaled
    out = fs.apply_beam_splitter(state, (a, b))
    r = 1 / math.sqrt(2)
    assert out.components() == {occ((a, 1), (c, 1)): r,
                              occ((b, 1), (c, 1)): 1j * r}


def test_mz_passes_modes_it_does_not_act_on():
    reg = fs.registry(list(fs.interferometer_registry(0, 1).modes)
                      + [pol_h()])
    state = PhotonicState.basis(reg, occ((t_in(0), 1), (pol_h(), 2)))
    out = fs.mz_transform(state)
    assert out.components() == {occ((m, 1), (pol_h(), 2)): a
                              for m, a in [(s_out(0), 0.5), (d_out(0), 0.5j),
                                           (s_out(1), -0.5), (d_out(1), 0.5j)]}
    assert fs.mz_reverse(out).close_to(state, atol=1e-12)


def test_mz_conserves_photon_number_exactly():
    reg = fs.interferometer_registry(0, 1, max_photons=4)
    st = PhotonicState.basis(reg, occ((t_in(0), 2), (t_in(1), 1)))
    out = fs.mz_transform(st)
    assert photon_numbers(out).keys() == {3}
    assert abs(out.norm() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# reduced support after discarding modes
# ---------------------------------------------------------------------------

def kept_channel(reg):
    return [m for m in reg.modes if m.kind == fs.CHANNEL]


def test_support_of_product_state_is_its_channel_factor():
    reg = fs.interferometer_registry(0, 1)
    st = PhotonicState.basis(reg, occ((t_in(0), 1), (blocked(0), 1)))
    support = fs.support_after_trace(st, kept_channel(reg))
    assert len(support) == 1
    assert abs(abs(support[0].amplitude(single(t_in(0)))) - 1.0) < 1e-9


def test_support_of_reversed_output_arm_state():
    # the reverse image of a single straight-arm photon leaves a rank-2
    # reduced state on the channel bins: vacuum and (|t0> - |t1>)/sqrt(2)
    reg = fs.interferometer_registry(-1, 1)
    st = fs.mz_reverse(PhotonicState.photon(reg, s_out(1)))
    support = fs.support_after_trace(st, kept_channel(reg))
    assert len(support) == 2
    for i, a in enumerate(support):
        for j, b in enumerate(support):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(a, b) - want) < 1e-9
    # compare against a dense inline eigendecomposition of the same state
    weights = sorted(
        abs(inner_product(v, v.normalized())) for v in support)
    assert all(w > fs.PRUNE_EPS for w in weights)
    span = [fs.VACUUM, single(t_in(0)), single(t_in(1))]
    for v in support:
        assert set(v.components()) <= set(span)


def test_support_of_entangled_state_is_two_dimensional():
    reg = fs.interferometer_registry(0, 1)
    st = PhotonicState(reg, {
        occ((t_in(0), 1), (blocked(0), 1)): 1 / math.sqrt(2),
        occ((blocked(1), 1)): 1 / math.sqrt(2),
    })
    support = fs.support_after_trace(st, kept_channel(reg))
    assert len(support) == 2
    occupations = {o for v in support for o in v.components()}
    assert occupations == {fs.VACUUM, single(t_in(0))}


def test_support_takes_a_set_of_registered_modes_only():
    reg = fs.interferometer_registry(0, 1)
    st = PhotonicState.photon(reg, t_in(0))
    assert len(fs.support_after_trace(st, set(kept_channel(reg)))) == 1
    with pytest.raises(fs.FockError):
        fs.support_after_trace(st, [pol_h()])
    with pytest.raises(TypeError):
        fs.support_after_trace(st, lambda m: m.kind == fs.CHANNEL)


# ---------------------------------------------------------------------------
# Gram-Schmidt and serialization
# ---------------------------------------------------------------------------

def test_gram_schmidt_drops_dependent_vectors():
    reg = fs.interferometer_registry(0, 1)
    a = PhotonicState.photon(reg, t_in(0))
    b = PhotonicState.photon(reg, t_in(1))
    combo = (a + b).scaled(0.5)
    basis = fs.gram_schmidt([a, combo, b, a.scaled(2.0)])
    assert len(basis) == 2
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(x, y) - want) < 1e-9


def test_json_round_trip_preserves_amplitudes():
    reg = fs.interferometer_registry(0, 1)
    st = PhotonicState(reg, {
        single(t_in(0)): 0.6,
        single(s_out(1)): 0.8j,
    })
    text = json.dumps(fs.state_to_dict(st), sort_keys=True)
    parsed = json.loads(text)
    assert "components" in parsed
    back = fs.state_from_dict(parsed)
    assert back.close_to(st, atol=1e-12)
    assert back.registry == st.registry


def test_mode_labels_round_trip():
    m = fs.Mode(fs.OUT_D, -2)
    assert fs.Mode.parse(str(m)) == m


@pytest.mark.parametrize("index", [1.5, True, False, "1", float("nan"),
                                   None])
def test_mode_index_must_be_an_integer(index):
    with pytest.raises(fs.FockError, match="index"):
        fs.Mode(fs.CUSTOM, index)


@pytest.mark.parametrize("kind", fs.MODE_KINDS)
@pytest.mark.parametrize("index", [0, -3, 7, 2.0, np.int64(5), np.int8(-1),
                                   2 ** 70])
def test_every_accepted_mode_round_trips_through_its_label(kind, index):
    mode = fs.Mode(kind, index)
    assert type(mode.index) is int
    back = fs.Mode.parse(str(mode))
    assert back == mode and str(back) == str(mode)


@pytest.mark.parametrize("label", ["custom:x", "custom:1.5", "custom:"])
def test_mode_label_without_an_integer_index_names_the_label(label):
    with pytest.raises(fs.FockError, match=repr(label)):
        fs.Mode.parse(label)


@pytest.mark.parametrize("count", [1.5, 0.5, True, False, "1", float("nan")])
def test_occupation_counts_must_be_integers(count):
    with pytest.raises(fs.FockError, match="photon count"):
        occ((pol_h(), count))


def test_integral_counts_of_other_types_are_ints():
    assert occ((pol_h(), 2.0), (pol_v(), np.int64(1))) == occ(
        (pol_h(), 2), (pol_v(), 1))
    assert all(type(n) is int for _, n in occ((pol_h(), np.int8(3))))


@pytest.mark.parametrize("cap", [1.5, True, "2"])
def test_state_from_dict_rejects_a_non_integer_cap(cap):
    reg = fs.registry([pol_h()])
    data = fs.state_to_dict(PhotonicState.photon(reg, pol_h()))
    data["max_photons_per_mode"] = cap
    with pytest.raises(fs.FockError, match="max_photons_per_mode"):
        fs.state_from_dict(data)


# ---------------------------------------------------------------------------
# the Mode contract: a (kind, index) tuple with its own label and repr
# ---------------------------------------------------------------------------

_MODES = [fs.Mode(kind, index) for kind in fs.MODE_KINDS
          for index in (-2, 0, 3)]


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_mode_survives_pickle_and_deepcopy(mode):
    import copy
    import pickle
    for back in (pickle.loads(pickle.dumps(mode)), copy.deepcopy(mode),
                 copy.copy(mode)):
        assert type(back) is fs.Mode
        assert back == mode and back.kind == mode.kind
        assert type(back.index) is int and back.index == mode.index


def test_mode_hashes_and_orders_as_its_kind_index_pair():
    for mode in _MODES:
        assert hash(mode) == hash((mode.kind, mode.index))
    shuffled = _MODES[::-1][1::2] + _MODES[::-1][0::2]
    assert sorted(shuffled) == sorted(
        shuffled, key=lambda m: (m.kind, m.index))
    assert [(m.kind, m.index) for m in sorted(shuffled)] == sorted(
        (m.kind, m.index) for m in shuffled)


def test_mode_never_equals_an_interferometer_arm_key():
    arms = {k for f in fs._mz_factors(range(-2, 4), 1)
            for k in (f.modes if isinstance(f, fs._Phase)
                      else f.sources + f.targets)
            if not isinstance(k, fs.Mode)}
    assert {kind for kind, _ in arms} == {"short", "long"}
    assert not set(fs.MODE_KINDS) & {kind for kind, _ in arms}
    modes = set(fs.interferometer_registry(-2, 3).modes)
    assert not modes & arms
    for kind, index in arms:
        with pytest.raises(fs.FockError, match="unknown mode kind"):
            fs.Mode(kind, index)


def test_mode_repr_str_and_parse_are_unchanged():
    mode = fs.Mode(fs.OUT_S, -1)
    assert repr(mode) == "Mode(kind='output-straight', index=-1)"
    assert str(mode) == "output-straight:-1"
    assert fs.Mode.parse("output-straight:-1") == mode
    assert fs.Mode(kind=fs.CUSTOM, index=2) == fs.Mode(fs.CUSTOM, 2)


@pytest.mark.parametrize("kind", ["long", "short", "", None, "CUSTOM"])
def test_mode_of_an_unknown_kind_raises(kind):
    with pytest.raises(fs.FockError, match="unknown mode kind"):
        fs.Mode(kind, 0)


# ---------------------------------------------------------------------------
# an occupation names each mode once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pairs", [
    ((pol_h(), 1), (pol_h(), 1)),
    ((pol_h(), 2), (pol_v(), 1), (pol_h(), 0)),
    ((t_in(0), 0), (t_in(0), 3)),
], ids=["twice", "twice-with-zero", "zero-first"])
def test_occupation_naming_a_mode_twice_raises(pairs):
    repeated = str(pairs[0][0])
    with pytest.raises(fs.FockError, match=f"mode {repeated} is named twice"):
        occ(*pairs)


def test_occupation_pairs_must_name_modes():
    # a Mode is a (kind, index) tuple, but not a (mode, count) pair
    with pytest.raises(fs.FockError, match="got 'polarization-H'"):
        occ(pol_h())
    with pytest.raises(fs.FockError, match="pairs a Mode"):
        occ(((fs.CUSTOM, 0), 1))


def test_state_from_dict_rejects_a_mode_named_twice():
    reg = fs.registry([fs.Mode(fs.CUSTOM, 1)], 4)
    data = fs.state_to_dict(PhotonicState.basis(
        reg, occ((fs.Mode(fs.CUSTOM, 1), 2))))
    data["components"][0]["occupation"] = {"custom:1": 1, "custom:01": 1}
    with pytest.raises(fs.FockError, match="mode custom:1 is named twice"):
        fs.state_from_dict(data)


def test_a_state_keyed_by_a_plain_kind_index_tuple_is_rejected():
    # the tuple equals the registered Mode, but only a Mode is a mode
    reg = fs.interferometer_registry(0, 2)
    with pytest.raises(fs.FockError, match="not in registry"):
        PhotonicState(reg, {(((fs.CHANNEL, 0), 1),): 1.0})


@pytest.mark.parametrize("occupation,message", [
    (((t_in(0), -1),), "negative photon count -1 in mode channel-time-bin:0"),
    (((t_in(0), 1), (t_in(0), 1)),
     "mode channel-time-bin:0 is named twice in one occupation"),
], ids=["negative", "twice"])
def test_a_state_keyed_by_a_malformed_occupation_is_rejected(occupation,
                                                             message):
    reg = fs.interferometer_registry(0, 2)
    with pytest.raises(fs.FockError, match=f"^{message}$"):
        PhotonicState(reg, {occupation: 1.0})


def test_two_spellings_of_one_occupation_are_one_component():
    reg = fs.interferometer_registry(0, 2)
    pair = occ((t_in(0), 1), (t_in(1), 1))
    state = PhotonicState(reg, {pair[::-1]: 0.6, pair: 0.8j})
    assert state.components() == {pair: 0.6 + 0.8j}


# ---------------------------------------------------------------------------
# packed keys: field widths and photon-number mixtures
# ---------------------------------------------------------------------------

# Photon numbers on either side of a bit-length boundary: 1, 2-3, 4-7 and 8
# photons need 1, 2, 3 and 4 bits.  A stored field is as wide as the bit
# length of the registry's cap, and a state is widened only while a splitter
# bunches more photons into one field than that.
FIELD_WIDTH_PHOTONS = (1, 2, 3, 4, 7, 8)


def two_mode_superposition(reg, a, b, n, rng):
    """A random superposition of every |k, n - k> on modes a, b."""
    return PhotonicState(reg, {
        occ((a, k), (b, n - k)): complex(rng.normal(), rng.normal())
        for k in range(n + 1)}).normalized()


def vacuum_one_three(reg, modes, rng):
    """Vacuum plus one- and three-photon components over `modes`."""
    a, b = modes[0], modes[1]
    return PhotonicState(reg, {
        fs.VACUUM: complex(rng.normal(), rng.normal()),
        single(a): complex(rng.normal(), rng.normal()),
        single(b): complex(rng.normal(), rng.normal()),
        occ((a, 2), (b, 1)): complex(rng.normal(), rng.normal()),
        occ((b, 3)): complex(rng.normal(), rng.normal()),
    }).normalized()


@pytest.mark.parametrize("n", FIELD_WIDTH_PHOTONS)
def test_splitter_and_rotation_of_n_photons_in_one_mode_are_binomial(n):
    # |n, 0> -> sum_m sqrt(C(n, m)) 2**(-n/2) x^m y^(n-m) |m, n - m>, with
    # (x, y) = (1, i) for the splitter and (1, 1) for the rotation
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)], 8)
    a, b, c, d = reg.modes
    state = PhotonicState.basis(reg, occ((a, n)))
    for apply_pair, y in ((fs.apply_beam_splitter, 1j),
                          (fs.apply_rotation, 1.0)):
        for outs in ((a, b), (c, d)):
            out = apply_pair(state, (a, b), outs)
            want = {occ((outs[0], m), (outs[1], n - m)):
                    math.sqrt(math.comb(n, m)) * 2 ** (-n / 2) * y ** (n - m)
                    for m in range(n + 1)}
            assert set(out.components()) == set(want)
            for o, w in want.items():
                assert abs(out.amplitude(o) - w) < 1e-12


@pytest.mark.parametrize("n", FIELD_WIDTH_PHOTONS)
def test_n_photon_evolutions_invert_at_every_field_width(n):
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)], 8)
    a, b, c, d = reg.modes
    rng = np.random.default_rng(100 + n)
    state = two_mode_superposition(reg, a, b, n, rng)
    twice = fs.apply_rotation(fs.apply_rotation(state, (a, b)), (a, b))
    assert twice.close_to(state, atol=1e-12)
    moved = fs.apply_beam_splitter(state, (a, b), (c, d))
    assert photon_numbers(moved).keys() == {n}
    # the splitter twice is i times the swap
    swapped = fs.apply_beam_splitter(fs.apply_beam_splitter(state, (a, b)),
                                     (a, b))
    for k in range(n + 1):
        assert abs(swapped.amplitude(occ((a, n - k), (b, k)))
                   - 1j ** n * state.amplitude(occ((a, k), (b, n - k)))) \
            < 1e-12
    phi = float(rng.uniform(0.0, 2 * math.pi))
    shifted = fs.apply_phase_shift(state, a, phi)
    for k in range(n + 1):
        o = occ((a, k), (b, n - k))
        assert abs(shifted.amplitude(o)
                   - np.exp(1j * k * phi) * state.amplitude(o)) < 1e-12
    mz_reg = fs.interferometer_registry(-1, 3, 8)
    for delay in (1, 2):
        cfg = fs.InterferometerConfig(phi=phi, delay=delay)
        pulse = two_mode_superposition(mz_reg, t_in(0), t_in(1), n, rng)
        out = fs.mz_transform(pulse, cfg)
        assert photon_numbers(out).keys() == {n}
        assert abs(out.norm() - 1.0) < 1e-9
        assert fs.mz_reverse(out, cfg).close_to(pulse, atol=1e-12)


def test_a_vacuum_one_and_three_photon_superposition_keeps_its_weights():
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)], 3)
    a, b, c, d = reg.modes
    rng = np.random.default_rng(13)
    state = vacuum_one_three(reg, (a, b), rng)
    weights = photon_numbers(state)
    assert weights.keys() == {0, 1, 3}
    outputs = [fs.apply_beam_splitter(state, (a, b)),
               fs.apply_beam_splitter(state, (a, b), (c, d)),
               fs.apply_rotation(state, (a, b)),
               fs.apply_phase_shift(state, b, 0.3)]
    for out in outputs:
        for n, w in photon_numbers(out).items():
            assert abs(w - weights[n]) < 1e-12
    assert fs.apply_rotation(outputs[2], (a, b)).close_to(state, atol=1e-12)
    assert abs(outputs[0].amplitude(fs.VACUUM)
               - state.amplitude(fs.VACUUM)) < 1e-15
    mz_reg = fs.interferometer_registry(-1, 3, 3)
    pulse = vacuum_one_three(mz_reg, (t_in(0), blocked(1)), rng)
    for delay in (1, 2):
        cfg = fs.InterferometerConfig(phi=1.9, delay=delay)
        out = fs.mz_transform(pulse, cfg)
        for n, w in photon_numbers(out).items():
            assert abs(w - photon_numbers(pulse)[n]) < 1e-12
        assert fs.mz_reverse(out, cfg).close_to(pulse, atol=1e-12)


def test_kernel_error_messages_are_unchanged():
    reg, a, b = two_mode_registry(max_photons=2)
    # the vacuum component comes first and is under any cap
    for amplitudes in ({occ((a, 2), (b, 1)): 1.0},
                       {fs.VACUUM: 0.6, occ((a, 2), (b, 1)): 0.8}):
        with pytest.raises(fs.PhotonCapError) as err:
            fs.apply_beam_splitter(PhotonicState(reg, amplitudes), (a, b))
        assert str(err.value) == ("3 photons in mode custom:1 exceeds the "
                                  "per-mode cap of 2")
    narrow = fs.registry([t_in(0), blocked(0), s_out(0), d_out(0)])
    with pytest.raises(fs.FockError) as err:
        fs.mz_transform(PhotonicState.photon(narrow, t_in(0)))
    assert str(err.value) == "mode output-down:1 not in registry"
    with pytest.raises(fs.FockError) as err:
        fs.mz_reverse(PhotonicState.photon(narrow, s_out(0)))
    assert str(err.value) == "mode blocked-time-bin:-1 not in registry"


def seeded_evolutions():
    """(name, output state) for a fixed set of evolutions at every field
    width, in a fixed order."""
    rng = np.random.default_rng(2024)
    reg = fs.registry([fs.Mode(fs.CUSTOM, i) for i in range(4)], 8)
    a, b, c, d = reg.modes
    mz_reg = fs.interferometer_registry(-1, 3, 8)
    for n in FIELD_WIDTH_PHOTONS:
        state = two_mode_superposition(reg, a, b, n, rng)
        yield f"bs{n}", fs.apply_beam_splitter(state, (a, b))
        yield f"bs-fresh{n}", fs.apply_beam_splitter(state, (a, b), (c, d))
        yield f"rot{n}", fs.apply_rotation(state, (a, b))
        yield f"phase{n}", fs.apply_phase_shift(
            state, a, float(rng.uniform(0.0, 2 * math.pi)))
        start = int(rng.integers(0, 2))
        pulse = two_mode_superposition(mz_reg, t_in(start), t_in(start + 1),
                                       n, rng)
        cfg = fs.InterferometerConfig(float(rng.uniform(0.0, 2 * math.pi)),
                                      1 + n % 2)
        out = fs.mz_transform(pulse, cfg)
        yield f"mz{n}", out
        yield f"mz-back{n}", fs.mz_reverse(out, cfg)
    mixed = vacuum_one_three(reg, (a, b), rng)
    yield "bs-mixed", fs.apply_beam_splitter(mixed, (a, b))
    yield "rot-mixed", fs.apply_rotation(mixed, (b, a), (c, d))
    pulse = vacuum_one_three(mz_reg, (t_in(0), blocked(1)), rng)
    out = fs.mz_transform(pulse, 0.8)
    yield "mz-mixed", out
    yield "mz-back-mixed", fs.mz_reverse(out, 0.8)


def test_seeded_evolutions_keep_their_key_order_and_amplitude_bits():
    # pins every output occupation, in stored order, and the repr of every
    # amplitude
    digest = hashlib.sha256()
    for name, state in seeded_evolutions():
        components = state.components()
        digest.update(f"{name}|{list(components)!r}|"
                      f"{list(components.values())!r}\n".encode())
    assert digest.hexdigest() == KERNEL_DIGEST


KERNEL_DIGEST = \
    "c75d3cff15a41c0af1bbf105055a7de89b6579ee082117fce60b5dcc19c5f7f5"


# ---------------------------------------------------------------------------
# the Occupation boundary: stored keys carry the same states
# ---------------------------------------------------------------------------

BUNDLED_CONFIGURATIONS = [(kind, None) for kind in rc.RECEIVER_KINDS] + [
    ("interferometric-2mode", "single-window")]


def boundary_evolutions():
    """(name, output state) for interferometer round trips at n = 1..5 and
    delays 1 and 2, and for every bundled setting's optics, forward and
    adjoint, on each vector of its receiver's reversed-space basis."""
    rng = np.random.default_rng(2028)
    reg = fs.interferometer_registry(-1, 3, 5)
    for n in range(1, 6):
        for delay in (1, 2):
            start = int(rng.integers(0, 2))
            pulse = two_mode_superposition(reg, t_in(start), t_in(start + 1),
                                           n, rng)
            cfg = fs.InterferometerConfig(
                float(rng.uniform(0.0, 2 * math.pi)), delay)
            out = fs.mz_transform(pulse, cfg)
            yield f"mz{n}/{delay}", out
            yield f"mz-back{n}/{delay}", fs.mz_reverse(out, cfg)
    for kind, variant in BUNDLED_CONFIGURATIONS:
        receiver = rc.make_receiver(kind, variant)
        for k, vector in enumerate(rc.reversed_space(receiver)):
            state = fs.embedded(vector, receiver.registry)
            for name, setting in receiver.settings.items():
                out = fs.apply_optics(state, setting.optics)
                yield f"{kind}/{variant}/{k}/{name}", out
                yield f"{kind}/{variant}/{k}/{name}/adjoint", fs.apply_optics(
                    out, setting.optics, adjoint=True)


def test_boundary_evolutions_keep_their_occupations_order_and_bits():
    # pins every output occupation, in stored order, with the repr of its
    # amplitude; the digest was recorded from Occupation-keyed states
    digest = hashlib.sha256()
    count = 0
    for name, state in boundary_evolutions():
        digest.update(f"{name}|{list(state.components().items())!r}\n"
                      .encode())
        count += 1
    assert (count, digest.hexdigest()) == (156, BOUNDARY_DIGEST)


BOUNDARY_DIGEST = \
    "7d2fd02ada011019c2b826a8a9ad194a9cd16c38edebf645f6ebd122ee6a95eb"


def test_a_splitter_that_bunches_past_the_field_width_widens_the_state():
    # four photons through a splitter at cap 3 need a 3-bit field, one more
    # than the cap's 2 bits.  The combination of |3,1>, |2,2> and |1,3>
    # whose image has no |4,0> or |0,4> stays within the cap, and its bits
    # match a run at cap 4, whose stored fields already hold 4 photons.
    a, b = fs.Mode(fs.CUSTOM, 0), fs.Mode(fs.CUSTOM, 1)
    wide = fs.registry([a, b], 4)
    inputs = [occ((a, 3), (b, 1)), occ((a, 2), (b, 2)), occ((a, 1), (b, 3))]
    images = [fs.apply_beam_splitter(PhotonicState.basis(wide, o), (a, b))
              for o in inputs]
    edges = np.array([[image.amplitude(occ((m, 4))) for image in images]
                      for m in (a, b)])
    weights = np.linalg.svd(edges)[2][-1].conj()
    assert np.allclose(edges @ weights, 0.0, atol=1e-12)
    amplitudes = {o: complex(w) for o, w in zip(inputs, weights)}
    narrow = fs.registry([a, b], 3)
    assert (narrow.width, wide.width) == (2, 3)
    out = fs.apply_beam_splitter(PhotonicState(narrow, amplitudes), (a, b))
    want = fs.apply_beam_splitter(PhotonicState(wide, amplitudes), (a, b))
    assert out.registry is narrow
    assert out.components() == want.components()
    assert max(n for o in out.components() for _, n in o) == 3
    # the widened key is narrowed back to the registry's layout
    assert all(key == narrow.key_of(o)
               for key, o in zip(out.amplitudes, out.components()))
