"""End-to-end acceptance battery for the packaged toolkit.

Every test covers one numbered acceptance criterion and prints a single
``criterion NN PASS/FAIL`` line (bypassing capture) so the whole battery can
be skimmed from the terminal.  Runtime budgets are asserted inside the tests
themselves; statistical checks pin their tolerances to binomial sigmas at the
stated round counts.
"""

import functools
import math
import time

import numpy as np

import qkdlab.attacks as atk
import qkdlab.classify as cl
import qkdlab.fockspace as fs
import qkdlab.fuzz as fz
import qkdlab.protocol as proto
import qkdlab.receivers as rc

HALF = 0.5
ROOT_HALF = 2 ** -0.5
QUARTER_ROOT = 0.5 * ROOT_HALF  # 1 / (2 * sqrt(2))

# One "criterion NN PASS/FAIL label (time)" entry per test; the conftest hook
# echoes these after the run so they survive output capturing.
CRITERION_LINES = []


def criterion(number, label, budget=None):
    """Wrap a test so it reports one pass/fail line and its own runtime."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
                    )
                status = "PASS"
            finally:
                elapsed = time.perf_counter() - start
                line = f"criterion {number:02d} {status} {label} ({elapsed:.2f}s)"
                CRITERION_LINES.append(line)
                print(line, flush=True)

        return wrapper

    return decorate


def assert_amplitudes(state, expected, tol=1e-12):
    """Entrywise comparison against a frozen {occupation: amplitude} table."""
    seen = dict(state.components())
    for occ, amp in expected.items():
        got = seen.pop(occ, 0.0)
        assert abs(got - amp) <= tol, f"{occ}: got {got}, expected {amp}"
    leftovers = {occ: amp for occ, amp in seen.items() if abs(amp) > tol}
    assert not leftovers, f"unexpected support: {leftovers}"


@criterion(1, "optics amplitude tables", budget=1.0)
def test_beam_splitter_and_interferometer_amplitude_tables():
    # Single photon on a balanced splitter: a -> (a' + i b') / sqrt(2).
    modes = [fs.Mode(fs.CUSTOM, i) for i in range(4)]
    reg = fs.registry(modes, 2)
    split = fs.apply_beam_splitter(
        fs.PhotonicState.photon(reg, modes[0]), (modes[0], modes[1]), (modes[2], modes[3])
    )
    assert_amplitudes(
        split,
        {fs.single(modes[2]): ROOT_HALF, fs.single(modes[3]): 1j * ROOT_HALF},
    )

    reg = fs.interferometer_registry(-1, 3)
    cfg = fs.InterferometerConfig(phi=0.0)

    def photon(mode):
        return fs.PhotonicState.photon(reg, mode)

    # Early and late time-bin photons through the interferometer at phi = 0.
    assert_amplitudes(
        fs.mz_transform(photon(fs.t_in(0)), cfg),
        {
            fs.single(fs.s_out(0)): HALF,
            fs.single(fs.s_out(1)): -HALF,
            fs.single(fs.d_out(0)): 0.5j,
            fs.single(fs.d_out(1)): 0.5j,
        },
    )
    assert_amplitudes(
        fs.mz_transform(photon(fs.t_in(1)), cfg),
        {
            fs.single(fs.s_out(1)): HALF,
            fs.single(fs.s_out(2)): -HALF,
            fs.single(fs.d_out(1)): 0.5j,
            fs.single(fs.d_out(2)): 0.5j,
        },
    )

    # Superposition inputs: each kills one middle-bin output arm entirely.
    plus = (photon(fs.t_in(0)) + photon(fs.t_in(1))).scaled(ROOT_HALF)
    minus = (photon(fs.t_in(0)) - photon(fs.t_in(1))).scaled(ROOT_HALF)
    assert_amplitudes(
        fs.mz_transform(plus, cfg),
        {
            fs.single(fs.s_out(0)): QUARTER_ROOT,
            fs.single(fs.s_out(2)): -QUARTER_ROOT,
            fs.single(fs.d_out(0)): 1j * QUARTER_ROOT,
            fs.single(fs.d_out(1)): 1j * ROOT_HALF,
            fs.single(fs.d_out(2)): 1j * QUARTER_ROOT,
        },
    )
    assert_amplitudes(
        fs.mz_transform(minus, cfg),
        {
            fs.single(fs.s_out(0)): QUARTER_ROOT,
            fs.single(fs.s_out(1)): -ROOT_HALF,
            fs.single(fs.s_out(2)): QUARTER_ROOT,
            fs.single(fs.d_out(0)): 1j * QUARTER_ROOT,
            fs.single(fs.d_out(2)): -1j * QUARTER_ROOT,
        },
    )

    # Reversed propagation of each single-detector click, both output bins.
    for t in (0, 1):
        assert_amplitudes(
            fs.mz_reverse(photon(fs.s_out(t)), cfg),
            {
                fs.single(fs.t_in(t)): HALF,
                fs.single(fs.t_in(t - 1)): -HALF,
                fs.single(fs.blocked(t)): -0.5j,
                fs.single(fs.blocked(t - 1)): -0.5j,
            },
        )
        assert_amplitudes(
            fs.mz_reverse(photon(fs.d_out(t)), cfg),
            {
                fs.single(fs.t_in(t)): -0.5j,
                fs.single(fs.t_in(t - 1)): -0.5j,
                fs.single(fs.blocked(t)): -HALF,
                fs.single(fs.blocked(t - 1)): HALF,
            },
        )


@criterion(2, "reversed-space dimensions", budget=1.0)
def test_reversed_space_dimensions_are_exact():
    expected = {
        ("interferometric-6mode", None): 5,
        ("interferometric-defended-10mode", None): 7,
        ("interferometric-2mode", "single-window"): 3,
        ("interferometric-2mode", None): 5,
    }
    for (kind, variant), dim in expected.items():
        receiver = rc.make_receiver(kind, variant)
        space = rc.reversed_space(receiver)
        assert len(space) == dim, f"{kind}/{variant}: got {len(space)}"
        gram = np.array(
            [[fs.inner_product(a, b) for b in space] for a in space]
        )
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-9
        vacuum_weights = [abs(state.amplitude(fs.occ())) for state in space]
        assert max(vacuum_weights) > 1 - 1e-9  # the no-photon direction is in the span


@criterion(3, "six-mode faked-states reproduction", budget=30.0)
def test_six_mode_synthesis_contains_the_faked_states_attack():
    receiver = rc.make_receiver("interferometric-6mode")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    attack = atk.faked_states_attack(receiver, system=system)
    assert family.contains(attack)

    report = atk.verify_oblivious(attack, system=system)
    assert report.oblivious
    assert report.max_error_amplitude < 1e-9

    sim = proto.run_bb84(
        None, proto.make_channel(proto.ATTACK, attack), receiver, rounds=100_000, seed=0
    )
    stats = sim.to_json_dict()
    assert stats["qber_pooled"] == 0.0
    per_basis = stats["per_basis"]
    assert per_basis[rc.HADAMARD]["detection_efficiency"] == 0.0
    comp = per_basis[rc.COMPUTATIONAL]
    sigma = math.sqrt(0.5 * 0.5 / comp["rounds"])
    assert abs(comp["detection_efficiency"] - 0.5) <= 4 * sigma
    assert stats["eve_guess_accuracy"] == 1.0


@criterion(4, "defended receiver admits only the trivial family", budget=10.0)
def test_defended_receiver_admits_only_trivial_attacks():
    receiver = rc.make_receiver("interferometric-defended-10mode")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    assert family.only_trivial

    embeddings = system.logical_embeddings()
    rng = np.random.default_rng(4)
    members = [family.canonical] + [family.sample(rng) for _ in range(40)]
    for member in members:
        conditional = atk.eve_conditional_states(member, system=system)
        for basis in (rc.COMPUTATIONAL, rc.HADAMARD):
            guess = atk.eve_guess_probability(conditional, basis)
            assert abs(guess - 0.5) <= 1e-9

        # Identity action up to a global probe factor: each logical input maps
        # onto its own embedding times one shared probe vector.
        coeffs = member.coefficients
        probe_vectors = []
        for logical in range(2):
            probe = embeddings[logical].conj() @ coeffs[logical]
            residual = np.linalg.norm(
                coeffs[logical] - np.outer(embeddings[logical], probe)
            )
            assert residual < 1e-9
            probe_vectors.append(probe)
        assert np.linalg.norm(probe_vectors[0] - probe_vectors[1]) < 1e-9


@criterion(5, "half-weight two-window attack statistics", budget=60.0)
def test_half_weight_two_window_attack_statistics():
    receiver = rc.make_receiver("interferometric-2mode")
    system = atk.build_constraint_system(receiver)
    attack = atk.full_information_attack(receiver, system=system)

    sim = proto.run_bb84(
        None,
        proto.make_channel(proto.ATTACK, attack),
        receiver,
        rounds=1_000_000,
        seed=0,
    )
    stats = sim.to_json_dict()
    assert stats["qber_pooled"] == 0.0
    assert stats["eve_guess_accuracy"] == 1.0
    targets = {rc.COMPUTATIONAL: 0.125, rc.HADAMARD: 0.25}
    for basis, efficiency in targets.items():
        per_basis = stats["per_basis"][basis]
        sigma = math.sqrt(efficiency * (1 - efficiency) / per_basis["rounds"])
        assert abs(per_basis["detection_efficiency"] - efficiency) <= 4 * sigma

    # Normalization of the construction parameters and of the family members:
    # each logical column of a member isometry must have unit weight.
    assert abs(0.5**2 + 0.5**2 + 2 * 0.5**2 - 1.0) < 1e-12
    assert attack.isometry_residual() < 1e-9

    rng = np.random.default_rng(5)
    family = atk.synthesize_attacks(system)
    for index in range(50):
        if index % 2:
            member = family.sample(rng)
        else:
            inwindow = math.sin(rng.uniform(0.1, 1.4)) ** 2
            straddle = rng.uniform(0.0, 1.0) * math.sqrt((1 - inwindow**2) / 2)
            early = math.sqrt(1 - inwindow**2 - 2 * straddle**2)
            member = atk.two_mode_attack(
                receiver,
                early,
                inwindow,
                straddle,
                -early if index % 4 else early,
                shared_probe_axis=bool(index % 3),
                system=system,
            )
        gram = member.gram()
        assert np.max(np.abs(np.diag(gram).real - 1.0)) <= 1e-9
        assert member.isometry_residual() < 1e-9


@criterion(6, "bright-pointer family normalization and limits", budget=10.0)
def test_bright_pointer_family_normalization_and_limits():
    receiver = rc.make_receiver("blinded-bright")
    system = atk.build_constraint_system(receiver)
    family = atk.synthesize_attacks(system)
    assert set(family.parameter_names) == {"computational_amp", "hadamard_amp"}

    rng = np.random.default_rng(6)
    for _ in range(200):
        member = family.sample(rng)
        values = family.parameter_values(member)
        comp, had = values["computational_amp"], values["hadamard_amp"]
        assert abs(comp**2 + 2 * had**2 - 1.0) <= 1e-9
        assert atk.verify_oblivious(member, system=system).oblivious

    # Endpoint members behave like basis-copy attacks: Eve reads the pointer
    # basis perfectly and the receiver never registers the other basis.
    for pointer, silent, amp in (
        (rc.COMPUTATIONAL, rc.HADAMARD, 1.0),
        (rc.HADAMARD, rc.COMPUTATIONAL, 0.0),
    ):
        endpoint = atk.bright_pulse_attack(
            receiver, computational_amp=amp, system=system
        )
        conditional = atk.eve_conditional_states(endpoint, system=system)
        assert abs(atk.eve_guess_probability(conditional, pointer) - 1.0) <= 1e-9
        try:
            atk.eve_guess_probability(conditional, silent)
        except atk.AttackError:
            pass  # no sifted detections left in the silent basis
        else:
            raise AssertionError(f"{silent} basis should have no detections")


@criterion(7, "fuzz campaign rediscovers the blinded receiver", budget=30.0)
def test_fuzz_campaign_rediscovers_the_blinded_receiver():
    device = fz.make_apd_receiver_device(fz.APDParams())
    wanted = {"Blinding", "WeakUnderBlinding", "StrongUnderBlinding"}
    reports = {}
    for seed in range(10):
        report = fz.run_fuzz_campaign(device, fz.default_config(device.params), seed=seed)
        assert report.test_cases_run <= 10_000
        assert wanted <= set(report.properties_found), f"seed {seed}"
        reports[seed] = report

    hand_built = rc.make_receiver("blinded-bright")
    for report in reports.values():
        rebuilt = rc.make_receiver(
            "blinded-bright", from_vulnerabilities=report.derived_vulnerabilities
        )
        assert rc.interpretation_structure(rebuilt) == rc.interpretation_structure(
            hand_built
        )


@criterion(8, "copy attack is detected and raises the diagonal-basis error rate")
def test_copy_attack_is_detected_and_raises_hadamard_qber():
    receiver = rc.make_receiver("ideal-bb84")
    system = atk.build_constraint_system(receiver)
    attack = atk.cnot_attack(receiver, system)
    report = atk.verify_oblivious(attack, system)
    assert not report.oblivious
    assert report.max_error_amplitude > 1e-9

    hadamard = receiver.settings[rc.HADAMARD]
    wrong_bit = {
        0: set(hadamard.outcomes_tagged(rc.BIT1)),
        1: set(hadamard.outcomes_tagged(rc.BIT0)),
    }
    rows = report.failing_rows()
    assert rows
    for row, residual in rows:
        basis, bit = row.alice_label
        assert basis == rc.HADAMARD
        assert row.outcome_id in wrong_bit[bit]
        assert abs(residual - ROOT_HALF) < 1e-9
    # The flagged leakage includes the wrong-bit outcome for the +45 input.
    assert any(row.alice_label == (rc.HADAMARD, 0) for row, _ in rows)

    # Monte Carlo: the copy attack is error-free in the computational basis and
    # flips half the diagonal-basis rounds, i.e. a quarter of the sifted key.
    sim = proto.run_bb84(
        None, proto.make_channel(proto.ATTACK, attack), receiver, rounds=100_000, seed=0
    )
    stats = sim.to_json_dict()
    assert stats["per_basis"][rc.COMPUTATIONAL]["qber"] == 0.0
    hadamard_stats = stats["per_basis"][rc.HADAMARD]
    sigma = math.sqrt(0.5 * 0.5 / hadamard_stats["sifted"])
    assert abs(hadamard_stats["qber"] - 0.5) <= 3 * sigma
    sigma_pooled = math.sqrt(0.25 * 0.75 / stats["sifted_total"])
    assert abs(stats["qber_pooled"] - 0.25) <= 3 * sigma_pooled


@criterion(9, "attack registry classification")
def test_attack_registry_classification():
    expected = {
        "photon-number-splitting": cl.STATE_CHANNEL,
        "time-shift": cl.STATE_CHANNEL,
        "trojan-pony": cl.STATE_CHANNEL,
        "imperfect-faraday-mirror": cl.STATE_CHANNEL,
        "large-pulse-alice": cl.SIDE_CHANNEL,
        "large-pulse-bob": cl.SIDE_CHANNEL,
        "injection-locking": cl.SIDE_CHANNEL,
        "bright-illumination": cl.SIDE_CHANNEL,
        "camera-in-lab": cl.NEITHER,
    }
    assert len(expected) >= 8
    records = {record.name: record for record in cl.registry()}
    for name, klass in expected.items():
        assert cl.classify(records[name].footprint) == klass, name

    # Family subsumption: every faked-states record is a reversed-space record.
    assert ("faked-states", "reversed-space") in cl.FAMILY_EDGES
    for record in records.values():
        if "faked-states" in record.tags:
            assert "reversed-space" in record.tags, record.name


@criterion(10, "randomized property suites configured at scale")
def test_property_suites_are_configured_at_scale():
    # tests/test_properties.py runs in the same pytest run; this checks that
    # each of its hypothesis suites draws >= 1000 derandomized examples
    import test_properties as props

    randomized = [fn for name, fn in vars(props).items()
                  if name.startswith("test_")
                  and getattr(fn, "is_hypothesis_test", False)]
    assert randomized
    for fn in randomized:
        used = fn._hypothesis_internal_use_settings
        assert used.max_examples >= 1000 and used.derandomize, fn.__name__
