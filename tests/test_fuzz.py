"""Black-box device model and blinding-discovery campaign tests."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qkdlab.fockspace as fs
from qkdlab import fuzz, output
from qkdlab import receivers as rc


def binom_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


_STOCK = fuzz.APDParams()

_FUZZ_SCHEMA = (Path(__file__).resolve().parents[1] / "docs" / "schemas"
                / "fuzz-report.schema.json")


def _stock_device():
    return fuzz.make_apd_receiver_device(_STOCK)


# ---------------------------------------------------------------------------
# inputs, parameters, validation
# ---------------------------------------------------------------------------

def test_pulse_and_input_validation():
    p = fuzz.pulse(0, "H", 1.0)
    assert p.theta == 0.0
    assert fuzz.pulse(0, "+45", 1.0).theta == pytest.approx(math.pi / 4)
    assert fuzz.polarization_label(fuzz.pulse(0, "-45", 1).theta) == "-45"
    # raw angles are accepted and unnamed ones have no label
    assert fuzz.polarization_label(fuzz.pulse(0, 0.3, 1).theta) is None

    with pytest.raises(fuzz.FuzzError):
        fuzz.pulse(0, "D", 1.0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.pulse(0, math.pi, 1.0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.pulse(0, "H", -1.0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.pulse(0, "H", float("inf"))
    with pytest.raises(fuzz.FuzzError):
        fuzz.FuzzInput(())
    with pytest.raises(fuzz.FuzzError):
        fuzz.FuzzInput((fuzz.pulse(2, "H", 1.0), fuzz.pulse(0, "H", 1.0)))


def test_apd_params_validation():
    with pytest.raises(fuzz.FuzzError):
        fuzz.APDParams(p_th=0.0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.APDParams(p_th=20.0, blind_threshold=20.0)
    for slots in (-1, 2.5, True):
        with pytest.raises(fuzz.FuzzError, match="recovery_slots"):
            fuzz.APDParams(recovery_slots=slots)
    with pytest.raises(fuzz.FuzzError):
        fuzz.APDParams(geiger_efficiency=0.0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.make_apd_receiver_device(_STOCK, double_click_rule="coin-flip")


@pytest.mark.parametrize("key", ["p_th", "blind_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_apd_thresholds_must_be_finite(key, value):
    with pytest.raises(fuzz.FuzzError, match=f"{key} must be finite"):
        fuzz.APDParams(**{key: value})


@pytest.mark.parametrize("key", ["p_th", "blind_threshold",
                                 "geiger_efficiency"])
@pytest.mark.parametrize("value", [True, False, "x", None, [1.0]])
def test_apd_parameters_must_be_numbers(key, value):
    with pytest.raises(fuzz.FuzzError, match=f"{key} must be a number"):
        fuzz.APDParams(**{key: value})


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_pnr_efficiency_must_be_a_number(value):
    with pytest.raises(fuzz.FuzzError,
                       match="geiger_efficiency must be a number"):
        fuzz.IdealPNRDevice(value)


@pytest.mark.parametrize("value", [0.0, -0.5, 1.5, float("nan")])
def test_pnr_efficiency_must_lie_in_the_unit_interval(value):
    with pytest.raises(fuzz.FuzzError, match="geiger_efficiency"):
        fuzz.IdealPNRDevice(value)


def test_an_integral_recovery_slots_is_kept_as_an_int():
    for slots in (2.0, np.int64(2)):
        params = fuzz.APDParams(recovery_slots=slots)
        assert type(params.recovery_slots) is int
        assert params == fuzz.APDParams(recovery_slots=2)


@pytest.mark.parametrize("slot", [1.9, True, "1", float("inf")])
def test_pulse_time_slot_must_be_an_integer(slot):
    with pytest.raises(fuzz.FuzzError, match="time slot"):
        fuzz.pulse(slot, "H", 1.0)


@pytest.mark.parametrize("angle", [True, False, None, [0.3]])
def test_pulse_angle_must_be_a_number(angle):
    with pytest.raises(fuzz.FuzzError, match="polarization"):
        fuzz.pulse(0, angle, 1.0)


@pytest.mark.parametrize("mu", [True, "5", None])
def test_pulse_mean_photons_must_be_a_number(mu):
    with pytest.raises(fuzz.FuzzError, match="mean_photons"):
        fuzz.pulse(0, "H", mu)


@pytest.mark.parametrize("key,value", [("polarization", True),
                                       ("mean_photons", "7")])
def test_report_with_a_wrong_typed_pulse_field_is_a_fuzz_error(
        campaign, key, value):
    data = json.loads(json.dumps(campaign.to_json_dict()))
    data["anomalies"][0]["input"]["pulses"][0][key] = value
    with pytest.raises(fuzz.FuzzError, match=key):
        fuzz.report_from_json_dict(data)
    with pytest.raises(fuzz.FuzzError, match=key):
        fuzz.input_from_json_dict(data["anomalies"][0]["input"])


def test_input_json_round_trip():
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),
                           fuzz.pulse(1, 0.3, 1.0)))
    data = json.loads(json.dumps(case.to_json_dict()))
    assert fuzz.input_from_json_dict(data) == case
    assert data["pulses"][0]["polarization"] == "H"
    assert data["pulses"][1]["polarization"] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# splitter tree and the single-photon oracle
# ---------------------------------------------------------------------------

def test_arm_intensities_split_the_pulse():
    arms = fuzz.arm_intensities(0.0, 8.0)  # horizontal
    assert arms == pytest.approx(
        {"d_h": 4.0, "d_v": 0.0, "d_plus": 2.0, "d_minus": 2.0})
    arms = fuzz.arm_intensities(math.pi / 4, 8.0)  # diagonal
    assert arms == pytest.approx(
        {"d_h": 2.0, "d_v": 2.0, "d_plus": 4.0, "d_minus": 0.0})
    for theta in np.linspace(0, math.pi, 13, endpoint=False):
        assert sum(fuzz.arm_intensities(theta, 3.0).values()) == \
            pytest.approx(3.0)


def fock_click_distribution(theta):
    """Single-photon detector distribution from the amplitude model.

    The tree is a 50/50 splitter into two spatial arms followed by a
    45-degree polarization rotation in the second arm; each arm ends in
    a polarizing splitter whose ports are the four detectors.
    """
    C = fs.CUSTOM
    in_h, in_v = fs.Mode(C, 0), fs.Mode(C, 1)
    aux_h, aux_v = fs.Mode(C, 2), fs.Mode(C, 3)
    arm1_h, arm1_v = fs.Mode(C, 4), fs.Mode(C, 5)
    arm2_h, arm2_v = fs.Mode(C, 6), fs.Mode(C, 7)
    rot_h, rot_v = fs.Mode(C, 8), fs.Mode(C, 9)
    reg = fs.registry([in_h, in_v, aux_h, aux_v, arm1_h, arm1_v,
                       arm2_h, arm2_v, rot_h, rot_v], max_photons=2)

    state = fs.PhotonicState(reg, {
        fs.single(in_h): math.cos(theta),
        fs.single(in_v): math.sin(theta),
    })
    state = fs.apply_beam_splitter(state, (in_h, aux_h), (arm1_h, arm2_h))
    state = fs.apply_beam_splitter(state, (in_v, aux_v), (arm1_v, arm2_v))
    # diagonal analyzer: the rotated-H port collects the +45 component
    state = fs.apply_rotation(state, (arm2_h, arm2_v), (rot_h, rot_v))
    ports = {"d_h": arm1_h, "d_v": arm1_v, "d_plus": rot_h, "d_minus": rot_v}
    return {det: abs(state.amplitude(fs.single(m))) ** 2
            for det, m in ports.items()}


def test_single_photon_statistics_match_the_amplitude_model():
    # the classical intensity shares used by the device equal the
    # quantum single-photon click distribution for every polarization
    for theta in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4, 0.3, 1.2):
        fock = fock_click_distribution(theta)
        shares = fuzz.arm_intensities(theta, 1.0)
        for det in fuzz.DETECTORS:
            assert abs(fock[det] - shares[det]) < 1e-12, (theta, det)

    # empirical Geiger-mode frequencies for a horizontal photon
    device = _stock_device()
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", 1.0),))
    n = 20000
    counts = {det: 0 for det in fuzz.DETECTORS}
    for obs in device.replays(case, range(n)):
        assert len(obs.clicks) == 1  # unit efficiency, one photon
        counts[next(iter(obs.clicks))] += 1
    assert counts["d_v"] == 0
    assert abs(counts["d_h"] / n - 0.5) < 4 * binom_sigma(0.5, n)
    assert abs(counts["d_plus"] / n - 0.25) < 4 * binom_sigma(0.25, n)
    assert abs(counts["d_minus"] / n - 0.25) < 4 * binom_sigma(0.25, n)


def _subset_probability(case, subset, efficiency):
    """P(every click falls inside ``subset``), one subset at a time."""
    total = 1.0
    for pl in case.pulses:
        n = round(pl.mean_photons)
        if n == 0:
            continue
        share = sum(pl.arms[d] for d in subset) / pl.norm
        total *= (share * efficiency + (1.0 - efficiency)) ** n
    return total


@pytest.mark.parametrize("efficiency", [1.0, 0.999, 0.7, 0.13, 1e-6])
def test_baseline_matches_the_per_subset_products_bit_for_bit(efficiency):
    cases = [fuzz.FuzzInput((fuzz.pulse(0, pol, mu),))
             for pol in ("H", "-45", 0.3, 1.2) for mu in (0.4, 1, 2, 7, 500)]
    cases.append(fuzz.FuzzInput((fuzz.pulse(0, 0.7, 3.0),
                                 fuzz.pulse(1, "V", 0.2),
                                 fuzz.pulse(5, "+45", 40.0))))
    for case in cases:
        probs = fuzz.baseline_class_probabilities(case, efficiency)
        p_none = _subset_probability(case, (), efficiency)
        assert probs[(rc.LOSS, None)] == p_none
        singles = 0.0
        for det in fuzz.DETECTORS:
            basis, bit = fuzz.DETECTOR_MEANING[det]
            p_det = max(_subset_probability(case, (det,), efficiency)
                        - p_none, 0.0)
            assert probs[(rc.BIT0 if bit == 0 else rc.BIT1, basis)] == p_det
            singles += p_det
        assert probs[(rc.INVALID, None)] == max(1.0 - singles - p_none, 0.0)


def test_tally_lists_classes_in_order_of_first_appearance():
    table = fuzz._OBSERVATIONS["invalid"]
    dark, h, double, plus = table[0], table[1], table[3], table[4]
    histogram = fuzz._tally([plus, h, plus, dark, h, double, dark, plus])
    assert list(histogram.items()) == [
        ((rc.BIT0, rc.HADAMARD), [0, 2, 7]),
        ((rc.BIT0, rc.COMPUTATIONAL), [1, 4]),
        ((rc.LOSS, None), [3, 6]),
        ((rc.INVALID, None), [5]),
    ]

    # a counting device returns equal observations as distinct objects,
    # and unequal observations of one class
    def counted(det, photons):
        basis, bit = fuzz.DETECTOR_MEANING[det]
        return fuzz.FuzzObservation(frozenset({det}),
                                    rc.BIT0 if bit == 0 else rc.BIT1,
                                    basis, ((det, photons),))

    one, twin, two = counted("d_h", 1), counted("d_h", 1), counted("d_h", 2)
    assert one == twin and one is not twin and one != two
    histogram = fuzz._tally([one, fuzz._PNR_DARK, twin, two,
                             counted("d_v", 1), one, fuzz._PNR_DARK])
    assert list(histogram.items()) == [
        ((rc.BIT0, rc.COMPUTATIONAL), [0, 2, 3, 5]),
        ((rc.LOSS, None), [1, 6]),
        ((rc.BIT1, rc.COMPUTATIONAL), [4]),
    ]

    # a counting device's replays, class by class, as each replay gives it
    case = fuzz.FuzzInput((fuzz.pulse(0, 0.3, 2.0), fuzz.pulse(1, "V", 1.0)))
    observations = fuzz.IdealPNRDevice(0.6).replays(case, range(64))
    histogram = fuzz._tally(observations)
    classes = [(obs.interpretation, obs.basis_registered)
               for obs in observations]
    assert len(histogram) == 6
    assert list(histogram) == list(dict.fromkeys(classes))
    for cls, hits in histogram.items():
        assert hits == [i for i, seen in enumerate(classes) if seen == cls]


def test_case_seeds_are_the_replays_sub_seeds():
    for master, case_index in ((0, 0), (7, 5), (2 ** 88 - 1, 2 ** 32 - 1)):
        assert list(fuzz._case_seeds(master, case_index, 256)) == [
            fuzz._case_seed(master, case_index, r) for r in range(256)]


def test_baseline_class_probabilities():
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", 1.0),))
    probs = fuzz.baseline_class_probabilities(case, 1.0)
    assert probs[(rc.LOSS, None)] == 0.0
    assert probs[(rc.BIT0, rc.COMPUTATIONAL)] == pytest.approx(0.5)
    assert probs[(rc.BIT0, rc.HADAMARD)] == pytest.approx(0.25)
    assert probs[(rc.BIT1, rc.HADAMARD)] == pytest.approx(0.25)
    assert probs[(rc.INVALID, None)] == pytest.approx(0.0, abs=1e-12)

    lossy = fuzz.baseline_class_probabilities(case, 0.8)
    assert lossy[(rc.LOSS, None)] == pytest.approx(0.2)
    assert sum(lossy.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# device behaviour
# ---------------------------------------------------------------------------

def test_bright_pulse_is_swallowed_and_blinds_the_device():
    device = _stock_device()
    bright = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),))
    obs, = device.replays(bright, [0])
    assert obs.clicks == frozenset()
    assert obs.interpretation == rc.LOSS

    # blinding lasts within one case: the next case starts un-blinded,
    # so a pulse inside the earlier case's recovery window clicks
    dim = fuzz.FuzzInput((fuzz.pulse(2, "V", 1.0),))
    obs, = device.replays(dim, [1])
    assert obs.interpretation in (rc.BIT0, rc.BIT1)

    # within one case: blind, stay dark, then recover after the window
    seq = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),
                          fuzz.pulse(4, "V", 1.0)))
    assert device.replays(seq, [2])[0].interpretation == rc.LOSS
    recovered = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),
                                fuzz.pulse(5, "V", 1.0)))
    obs, = device.replays(recovered, [3])
    assert obs.clicks  # a V photon lands in d_v, d_plus, or d_minus
    assert obs.interpretation in (rc.BIT0, rc.BIT1)


def test_linear_mode_clicks_exactly_at_threshold():
    params = fuzz.APDParams()
    device = fuzz.make_apd_receiver_device(params)
    blind = fuzz.pulse(0, "H", params.blind_threshold)

    # an arm intensity exactly at p_th clicks; epsilon below stays dark
    at = fuzz.FuzzInput((blind, fuzz.pulse(1, "H", 2.0 * params.p_th)))
    obs, = device.replays(at, [0])
    assert obs.clicks == frozenset({"d_h"})
    assert (obs.interpretation, obs.basis_registered) == \
        (rc.BIT0, rc.COMPUTATIONAL)

    below = fuzz.FuzzInput((blind,
                            fuzz.pulse(1, "H", 2.0 * params.p_th - 1e-9)))
    assert device.replays(below, [0])[0].interpretation == rc.LOSS


def test_blinded_forcing_covers_all_four_outcomes():
    params = fuzz.APDParams()
    expected = {
        "H": (rc.BIT0, rc.COMPUTATIONAL),
        "V": (rc.BIT1, rc.COMPUTATIONAL),
        "+45": (rc.BIT0, rc.HADAMARD),
        "-45": (rc.BIT1, rc.HADAMARD),
    }
    device = fuzz.make_apd_receiver_device(params)
    for name, (bit, basis) in expected.items():
        case = fuzz.FuzzInput((
            fuzz.pulse(0, "V", params.blind_threshold),
            fuzz.pulse(1, name, 2.0 * params.p_th)))
        # linear mode is deterministic
        for obs in device.replays(case, range(3)):
            assert (obs.interpretation, obs.basis_registered) == (bit, basis)


def test_double_click_rule_is_configurable():
    params = fuzz.APDParams()
    # a blinded diagonal-ish pulse pushes two arms over threshold
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", params.blind_threshold),
                           fuzz.pulse(1, math.pi / 8, 4.0 * params.p_th)))
    strict = fuzz.make_apd_receiver_device(params)
    obs, = strict.replays(case, [0])
    assert len(obs.clicks) == 2
    assert obs.interpretation == rc.INVALID

    lenient = fuzz.make_apd_receiver_device(params, double_click_rule="loss")
    assert lenient.replays(case, [0])[0].interpretation == rc.LOSS


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_draw_free_probe_still_checks_its_seed(seed):
    # a lone blinding pulse draws nothing, yet its seed is checked
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),))
    with pytest.raises(fuzz.FuzzError) as err:
        _stock_device().replays(case, [seed])
    assert str(err.value) == \
        f"probe seed must be an integer in [0, 2**128), got {seed!r}"
    with pytest.raises(fuzz.FuzzError, match="seed"):
        fuzz.IdealPNRDevice().replays(
            fuzz.FuzzInput((fuzz.pulse(0, "H", 0.0),)), [seed])


def test_draw_free_probe_leaves_the_next_probe_unchanged():
    params = fuzz.APDParams(geiger_efficiency=0.7)
    drawing = fuzz.FuzzInput((fuzz.pulse(0, "+45", 5.0),))
    draw_free = [
        fuzz.FuzzInput((fuzz.pulse(0, "H", params.blind_threshold),)),
        fuzz.FuzzInput((fuzz.pulse(0, "H", params.blind_threshold),
                        fuzz.pulse(1, "V", 2.0 * params.p_th))),
    ]
    for seed in range(8):
        fresh = fuzz.make_apd_receiver_device(params)
        expected = fresh.replays(drawing, [seed])
        for case in draw_free:
            device = fuzz.make_apd_receiver_device(params)
            device.replays(drawing, [seed + 100])  # a used stream
            device.replays(case, [seed + 200])
            assert device.replays(drawing, [seed]) == expected

    pnr = fuzz.IdealPNRDevice(0.8)
    expected = fuzz.IdealPNRDevice(0.8).replays(drawing, [3])
    pnr.replays(drawing, [4])
    pnr.replays(fuzz.FuzzInput((fuzz.pulse(0, "H", 0.2),)), [5])
    assert pnr.replays(drawing, [3]) == expected


def _stream(device):
    """The device's bit-generator state, comparable with ``==``."""
    return repr(device._bits.state)


_DRAWING = fuzz.FuzzInput((fuzz.pulse(0, "+45", 5.0),))


@pytest.mark.parametrize("make,case", [
    (_stock_device, fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),))),
    (_stock_device,
     fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0), fuzz.pulse(1, "V", 40.0)))),
    (lambda: fuzz.IdealPNRDevice(0.8),
     fuzz.FuzzInput((fuzz.pulse(0, "H", 0.2), fuzz.pulse(3, "V", 0.4)))),
])
def test_draw_free_replays_leave_the_generator_untouched(make, case):
    device = make()
    device.replays(_DRAWING, [5])  # a used stream
    before = _stream(device)
    observations = device.replays(case, range(12))
    assert observations == device.replays(case, [99]) * 12
    assert _stream(device) == before
    # a bad seed anywhere fails the call before any draw
    for tried in (case, _DRAWING):
        for position in range(3):
            for bad in (-1, 1.5, 2 ** 128, True):
                seeds = [1, 2, 3]
                seeds[position] = bad
                with pytest.raises(fuzz.FuzzError, match="seed"):
                    device.replays(tried, seeds)
    assert _stream(device) == before


def test_a_bad_seed_leaves_the_device_where_it_was():
    device = _stock_device()
    device.replays(fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),)), [0])
    dark = fuzz.FuzzInput((fuzz.pulse(2, "V", 1.0),))
    with pytest.raises(fuzz.FuzzError, match="seed"):
        device.replays(dark, [0, -1])
    # the failed call changed nothing a later call can see
    assert device.replays(dark, [0, 1]) == \
        _stock_device().replays(dark, [0, 1])

    # a bad first, middle or last seed, in a list, a generator or a
    # range, fails the call before any draw
    before = _stream(device)
    top = 2 ** 128
    for bad in (-1, top, True):
        for position in (0, 5, 11):
            seeds = list(range(12))
            seeds[position] = bad
            for form in (list, lambda s: (seed for seed in s)):
                with pytest.raises(fuzz.FuzzError) as err:
                    device.replays(dark, form(seeds))
                assert str(err.value) == ("probe seed must be an integer "
                                          f"in [0, 2**128), got {bad!r}")
    for seeds, bad in ((range(-1, 11), -1), (range(top - 11, top + 1), top),
                       (range(5, -7, -1), -1), (range(top, top - 12, -1), top)):
        with pytest.raises(fuzz.FuzzError) as err:
            device.replays(dark, seeds)
        assert str(err.value) == ("probe seed must be an integer "
                                  f"in [0, 2**128), got {bad!r}")
    assert _stream(device) == before
    # a range in bounds at both ends is every seed in bounds
    edge = range(top - 12, top)
    assert device.replays(dark, edge) == \
        [device.replays(dark, [seed])[0] for seed in edge]


def test_pulse_split_is_derived_once_and_stays_out_of_identity():
    pl = fuzz.pulse(3, 0.3, 7.0)
    assert pl.arms == fuzz.arm_intensities(0.3, 7.0)
    assert pl.norm == sum(pl.arms.values())
    assert pl.pvals.tolist() == [pl.arms[d] / pl.norm
                                 for d in fuzz.DETECTORS]
    assert fuzz.pulse(0, "H", 0.4).pvals is None  # rounds to no photons
    twin = fuzz.Pulse(3, 0.3, 7.0)
    assert twin == pl and hash(twin) == hash(pl)
    assert repr(pl) == "Pulse(time_slot=3, theta=0.3, mean_photons=7.0)"


def test_pnr_device_resolves_photon_pairs():
    device = fuzz.IdealPNRDevice()
    case = fuzz.FuzzInput((fuzz.pulse(0, "H", 2.0),))
    seen_pair = False
    for obs in device.replays(case, range(64)):
        assert obs.click_counts is not None
        counts = dict(obs.click_counts)
        assert sum(counts.values()) == 2
        seen_pair = seen_pair or max(counts.values()) == 2
    assert seen_pair  # P(miss 64 times) ~ 0.625^64, negligible

    # bright pulses never blind it
    bright = fuzz.FuzzInput((fuzz.pulse(0, "H", 400.0),
                             fuzz.pulse(1, "V", 1.0)))
    obs, = device.replays(bright, [0])
    assert obs.interpretation == rc.INVALID  # many detectors fire


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign():
    return fuzz.run_fuzz_campaign(_stock_device(),
                                  fuzz.default_config(_STOCK), seed=0)


def test_campaign_discovers_all_three_behaviours(campaign):
    assert campaign.properties_found == (
        fuzz.PROPERTY_BLINDING, fuzz.PROPERTY_STRONG, fuzz.PROPERTY_WEAK)
    assert campaign.test_cases_run <= 10000
    tags = {a.tag for a in campaign.anomalies}
    assert {"blinding", "weak-under-blinding",
            "strong-under-blinding"} <= tags
    # the threshold detectors cannot count photons; recorded as an
    # anomaly but not as one of the protocol-level properties
    assert "no-photon-counting" in tags
    campaign.validate()


def test_campaign_is_deterministic(campaign):
    config = fuzz.default_config(_STOCK)
    again = fuzz.run_fuzz_campaign(_stock_device(), config, seed=0)
    assert json.dumps(again.to_json_dict(), sort_keys=True) == \
        json.dumps(campaign.to_json_dict(), sort_keys=True)

    other = fuzz.run_fuzz_campaign(_stock_device(), config, seed=7)
    assert other.properties_found == campaign.properties_found


# SHA-256 of the campaign report's NDJSON line, pinned so that a faster
# device or baseline cannot move a single byte of a report
_CAMPAIGN_DIGESTS = {
    "default-seed0":
        "323be246b0b19365f40e38b0317826a9ca28ea4f4e5c97b506551a86782b62a3",
    "default-seed7":
        "38dc059818c515cae26c7c68689fee405f0d1a3feccfed70b4aca38405bfdd78",
    "geiger-efficiency-0.7":
        "5ba291f54024e3a8e58009cd47cbde5a3c14cb7f60ff24e387660df9f7ff9e7d",
    "recovery-slots-0":
        "6667ed899d22b347fc8a5a68579a9682e5aedddfb6e656b8d20807855143dfb7",
    "ideal-pnr-0.8":
        "34b897ae4355aef4971c482bdb2f994919cf7945225e5fb88389426f77ab1e69",
    "double-click-loss":
        "8569c4e3f0d8eb52e191a0aa61849bceed2c6495656ecdf16c7506a9c98e77ae",
    "underflow-0.999":
        "e6cf2308e7d2a810ebc0917f155f59e6ee893d047934df761016962cf5d618a7",
    "underflow-0.999-loss":
        "7693db6b83a112eab8bad786e454f5a84d6a34eae5871ea21a228d2685091356",
    "budget-2000-seed4":
        "027def190322cbe301308d7e89b099e782a517b1b6cb4532e15f23a501021d91",
    "depth-3":
        "08de84baf37a6aaa6e38f4e10ed3550d94b767e28ddcd2f9b63f79961a820705",
}


# a miss probability (1 - 0.999) ** n underflows to 0.0 from n = 108
# photons on, so 200- and 500-photon Geiger pulses take draws that cannot
# change a click; under the "loss" rule bright Geiger pulses are
# anomalous seeds, so two-pulse Geiger cases follow them
_UNDERFLOW_PARAMS = fuzz.APDParams(p_th=100.0, blind_threshold=1000.0,
                                   geiger_efficiency=0.999)


def _pinned_setup(name):
    """(device, config, seed) of one pinned campaign."""
    def apd(params=_STOCK, double_click_rule="invalid", seed=0):
        """The device of ``params`` under its stock schedule."""
        return (fuzz.make_apd_receiver_device(params, double_click_rule),
                fuzz.default_config(params), seed)

    return {
        "default-seed0": lambda: apd(),
        "default-seed7": lambda: apd(seed=7),
        "geiger-efficiency-0.7":
            lambda: apd(fuzz.APDParams(geiger_efficiency=0.7)),
        "recovery-slots-0": lambda: apd(fuzz.APDParams(recovery_slots=0)),
        "ideal-pnr-0.8": lambda: (fuzz.IdealPNRDevice(0.8),
                                  fuzz.default_config(_STOCK), 0),
        "double-click-loss": lambda: apd(double_click_rule="loss"),
        "underflow-0.999": lambda: apd(_UNDERFLOW_PARAMS),
        "underflow-0.999-loss":
            lambda: apd(_UNDERFLOW_PARAMS, double_click_rule="loss"),
        # the default campaigns end at depth 2 within budget; these two
        # run out of budget inside depth 2 and inside depth 3
        "budget-2000-seed4":
            lambda: (_stock_device(),
                     fuzz.default_config(_STOCK, max_cases=2000), 4),
        "depth-3": lambda: (_stock_device(), dataclasses.replace(
            fuzz.default_config(_STOCK), combination_depth=3), 0),
    }[name]()


def _pinned_campaign(name, trace_path=None):
    device, config, seed = _pinned_setup(name)
    return fuzz.run_fuzz_campaign(device, config, seed, trace_path)


@pytest.mark.parametrize("name", sorted(_CAMPAIGN_DIGESTS))
def test_campaign_report_bytes_are_pinned(name):
    line = output.ndjson(_pinned_campaign(name).to_json_dict())
    assert hashlib.sha256(line.encode()).hexdigest() == \
        _CAMPAIGN_DIGESTS[name]


# the trace records every case's outcome classes, so it also pins the
# draws of probes whose observations the report does not keep
_TRACE_DIGESTS = {
    "default-seed0":
        "6cc9d1fbf7918c3894eb12aa377593d301c85f32c9d1129e077e36d4b0d6ecf9",
    "geiger-efficiency-0.7":
        "a7b3f13864ab9631bb48214349a549279a462b6cc5a0aab303289fbc416cbcd4",
    "double-click-loss":
        "b6a3350cfbcb8e8297e0b3889b854267bab59f8d704409cc40a25b1b23394c9e",
    "underflow-0.999":
        "d68fdcd0872c5087dae750050acbfbf3f5d5ad616ea58b57353e583502e4264e",
    "underflow-0.999-loss":
        "c4eb5fe28bc6071d887722ea94902a2472015dd0c7898e010818f75473890cb4",
    "budget-2000-seed4":
        "fdcbcedc2195292c3bf9997b3955f2cd3efefc11cad1089fdbe98430acf07e8e",
    "depth-3":
        "47c630c79bcf2cebb5e556bc5ab3729f99cff937225f895f174cc54f42d4bdac",
}


@pytest.mark.parametrize("name", sorted(_TRACE_DIGESTS))
def test_campaign_trace_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "trace.ndjson"
    _pinned_campaign(name, trace_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        _TRACE_DIGESTS[name]


def _probed_cases(name):
    """(case, seeds) of every ``replays`` call of one pinned campaign."""
    device, config, seed = _pinned_setup(name)
    calls = []
    replays = device.replays

    def recording(case, seeds):
        calls.append((case, list(seeds)))
        return replays(case, seeds)

    device.replays = recording
    fuzz.run_fuzz_campaign(device, config, seed)
    return calls


@pytest.mark.parametrize("name", sorted(_CAMPAIGN_DIGESTS))
def test_one_call_over_all_seeds_equals_one_call_per_seed(name):
    calls = _probed_cases(name)
    assert len(calls) >= 64  # the depth-1 schedule at least
    replaying, single = _pinned_setup(name)[0], _pinned_setup(name)[0]
    observed = [replaying.replays(case, seeds) for case, seeds in calls]
    # the single-seed calls run the cases backwards: no call depends on
    # the calls before it
    for (case, seeds), observations in reversed(list(zip(calls, observed))):
        assert observations == [single.replays(case, [seed])[0]
                                for seed in seeds], case


@pytest.mark.parametrize("name", ["default-seed0", "depth-3",
                                  "ideal-pnr-0.8"])
def test_a_campaign_walks_each_case_once(tmp_path, name):
    device, config, seed = _pinned_setup(name)
    walked = []
    walk = device._walk

    def counting(case):
        walked.append(case)
        return walk(case)

    device._walk = counting
    path = tmp_path / "trace.ndjson"
    report = fuzz.run_fuzz_campaign(device, config, seed, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert len(walked) == report.distinct_inputs == len(rows)
    assert [case.to_json_dict() for case in walked] == \
        [row["input"] for row in rows]

    # a replayed anomaly walks its case once more
    walked.clear()
    anomaly = report.anomalies[0] if report.anomalies else None
    if anomaly is not None:
        _, reproduced = fuzz.replay_anomaly(device, report,
                                            anomaly.anomaly_id)
        assert reproduced and walked == [anomaly.input]


@pytest.mark.parametrize("name", ["double-click-loss", "underflow-0.999",
                                  "underflow-0.999-loss"])
def test_every_anomaly_replays(name):
    device, config, seed = _pinned_setup(name)
    report = fuzz.run_fuzz_campaign(device, config, seed)
    assert report.anomalies
    for anomaly in report.anomalies:
        _, reproduced = fuzz.replay_anomaly(device, report,
                                            anomaly.anomaly_id)
        assert reproduced, anomaly.anomaly_id


def test_derived_records_rebuild_the_bright_receiver(campaign):
    records = campaign.derived_vulnerabilities
    assert {r["polarization"] for r in records} == {"H", "V", "+", "-"}
    for r in records:
        assert r["intensity"] < r["blinding_intensity"]
    derived = rc.make_receiver("blinded-bright", from_vulnerabilities=records)
    stock = rc.make_receiver("blinded-bright")
    assert rc.interpretation_structure(derived) == \
        rc.interpretation_structure(stock)


def test_anomalies_replay_on_a_fresh_device(campaign):
    ids = [r["anomaly_id"] for r in campaign.derived_vulnerabilities]
    ids += [a.anomaly_id for a in campaign.anomalies[:8]]
    for anomaly_id in ids:
        device = _stock_device()
        obs, reproduced = fuzz.replay_anomaly(device, campaign, anomaly_id)
        assert reproduced, anomaly_id
    with pytest.raises(fuzz.FuzzError):
        fuzz.replay_anomaly(_stock_device(), campaign, "a9999")


_REPORT_KEYS = ("anomalies", "test_cases_run", "distinct_inputs",
                "properties_found", "derived_vulnerabilities", "rng_seed")


@pytest.mark.parametrize("key", _REPORT_KEYS)
def test_report_json_missing_key_is_a_fuzz_error(campaign, key):
    data = campaign.to_json_dict()
    del data[key]
    with pytest.raises(fuzz.FuzzError, match=f"lacks the key '{key}'"):
        fuzz.report_from_json_dict(data)


# a dotted key names a field inside the first anomaly
@pytest.mark.parametrize("key,value", [
    ("anomalies", 5),
    ("anomalies", [{"anomaly_id": "a0001"}]),
    ("test_cases_run", None),
    ("rng_seed", "zero"),
    ("test_cases_run", True),
    ("test_cases_run", 2.5),
    ("distinct_inputs", -1),
    ("distinct_inputs", False),
    ("rng_seed", 0.5),
    ("rng_seed", -3),
    ("anomalies.stage", -1),
    ("anomalies.stage", 1.5),
    ("anomalies.case_index", True),
    ("anomalies.case_index", -2),
    ("anomalies.replay_index", 2.9),
    ("anomalies.replay_index", False),
    ("anomalies.anomaly_id", 7),
    ("anomalies.anomaly_id", "zz"),
    ("anomalies.anomaly_id", "a001"),
    ("anomalies.anomaly_id", "b0001"),
    ("anomalies.anomaly_id", "a0001\n"),
    ("anomalies.tag", None),
    ("anomalies.observation.clicks", "d_h"),
    ("anomalies.observation.clicks", ["d_h", 3]),
    ("anomalies.observation.interpretation", 5),
    ("anomalies.observation.interpretation", "bit2"),
    ("anomalies.observation.interpretation", None),
    ("anomalies.observation.basis_registered", 7),
    ("anomalies.observation.click_counts", {"d_h": -1}),
    ("anomalies.observation.click_counts", {"d_h": 1.5}),
    ("anomalies.observation.click_counts", {"d_h": True}),
    ("anomalies.observation.click_counts", [1]),
    ("anomalies.observation.clicks", ["d_x"]),
    ("anomalies.observation.click_counts", {"d_h": 0}),
    ("anomalies.tag", "nonsense"),
])
def test_report_json_malformed_field_is_a_fuzz_error(campaign, key, value):
    data = json.loads(json.dumps(campaign.to_json_dict()))
    top, *inner = key.split(".")
    if inner:
        row = data[top][0]
        for part in inner[:-1]:
            row = row[part]
        row[inner[-1]] = value
    else:
        data[top] = value
    with pytest.raises(fuzz.FuzzError, match=f"malformed '{top}'") as err:
        fuzz.report_from_json_dict(data)
    assert key.split(".")[-1] in str(err.value)


# a report's anomalies, inputs, pulses and observations are closed records
@pytest.mark.parametrize("record", [
    "anomalies", "anomalies.input", "anomalies.input.pulses",
    "anomalies.observation"])
def test_report_json_unknown_key_is_a_fuzz_error(campaign, record):
    data = json.loads(json.dumps(campaign.to_json_dict()))
    row = data
    for part in record.split("."):
        row = row[part]
        row = row[0] if isinstance(row, list) else row
    row["extra"] = 1
    with pytest.raises(fuzz.FuzzError, match="malformed 'anomalies'") as err:
        fuzz.report_from_json_dict(data)
    assert "unknown keys ['extra']" in str(err.value)


@pytest.mark.parametrize("mean_photons", [0, 0.0, -0.0])
def test_a_recorded_pulse_of_no_photons_is_a_fuzz_error(mean_photons):
    # a report's pulses carry photons, as its schema says; the library's
    # pulse still builds a vacuum pulse
    data = fuzz.FuzzInput((fuzz.pulse(0, "H", 1.0),)).to_json_dict()
    data["pulses"][0]["mean_photons"] = mean_photons
    with pytest.raises(fuzz.FuzzError, match="mean_photons must be positive"):
        fuzz.input_from_json_dict(data)
    assert fuzz.pulse(0, "H", mean_photons).mean_photons == 0.0


def test_input_json_unknown_key_is_a_fuzz_error():
    data = fuzz.FuzzInput((fuzz.pulse(0, "H", 1.0),)).to_json_dict()
    data["pulses"][0]["width"] = 2
    with pytest.raises(fuzz.FuzzError, match=r"pulse record .*'width'"):
        fuzz.input_from_json_dict(data)
    data = fuzz.FuzzInput((fuzz.pulse(0, "H", 1.0),)).to_json_dict()
    data["label"] = "x"
    with pytest.raises(fuzz.FuzzError, match=r"input record .*'label'"):
        fuzz.input_from_json_dict(data)


def test_report_json_observation_without_clicks_names_them(campaign):
    data = json.loads(json.dumps(campaign.to_json_dict()))
    del data["anomalies"][0]["observation"]["clicks"]
    with pytest.raises(fuzz.FuzzError,
                       match="observation document lacks the key 'clicks'"):
        fuzz.report_from_json_dict(data)


def test_anomaly_tags_are_the_schema_enum():
    schema = json.loads(_FUZZ_SCHEMA.read_text())
    anomaly = schema["properties"]["anomalies"]["items"]
    assert sorted(anomaly["properties"]["tag"]["enum"]) == \
        sorted(fuzz._ANOMALY_TAGS)
    assert set(anomaly["properties"]) == set(fuzz._ANOMALY_KEYS)
    definitions = schema["definitions"]
    assert set(definitions["observation"]["properties"]) == \
        set(fuzz._OBSERVATION_KEYS)
    assert set(definitions["fuzzInput"]["properties"]) == \
        set(fuzz._INPUT_KEYS)
    pulse = definitions["fuzzInput"]["properties"]["pulses"]["items"]
    assert set(pulse["properties"]) == set(fuzz._PULSE_KEYS)
    assert definitions["observation"]["properties"]["clicks"]["items"] == \
        {"enum": list(fuzz.DETECTORS)}


def test_report_json_round_trip(campaign):
    data = campaign.to_json_dict()
    assert fuzz.report_from_json_dict(data).to_json_dict() == data


def test_coverage_grows_monotonically_with_budget(campaign):
    previous_inputs = 0
    previous_ids = []
    for budget in (120, 800, 3000):
        report = fuzz.run_fuzz_campaign(
            _stock_device(),
            config=fuzz.default_config(fuzz.APDParams(), max_cases=budget),
            seed=0)
        assert report.test_cases_run <= budget
        assert report.distinct_inputs >= previous_inputs
        ids = [a.anomaly_id for a in report.anomalies]
        assert ids[:len(previous_ids)] == previous_ids
        assert set(report.properties_found) <= set(campaign.properties_found)
        previous_inputs = report.distinct_inputs
        previous_ids = ids


def test_pnr_device_raises_no_anomalies():
    report = fuzz.run_fuzz_campaign(
        fuzz.IdealPNRDevice(),
        config=fuzz.default_config(fuzz.APDParams()), seed=0)
    assert report.anomalies == []
    assert report.properties_found == ()


def test_unblindable_threshold_device_shows_only_counting_anomaly():
    # same threshold detectors, but bright pulses never reach the
    # blinding regime: no protocol-level properties should appear
    params = fuzz.APDParams(blind_threshold=1e9)
    report = fuzz.run_fuzz_campaign(
        fuzz.make_apd_receiver_device(params),
        config=fuzz.default_config(params), seed=0)
    assert report.properties_found == ()
    assert {a.tag for a in report.anomalies} <= {"no-photon-counting"}


def test_campaign_writes_a_trace(tmp_path, campaign):
    path = tmp_path / "trace.ndjson"
    report = fuzz.run_fuzz_campaign(_stock_device(),
                                    fuzz.default_config(_STOCK), seed=0,
                                    trace_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["schema"] == fuzz.TRACE_SCHEMA
    assert lines[0]["rng_seed"] == 0
    assert len(lines) - 1 == report.distinct_inputs
    tagged = [row for row in lines[1:] if row["tags"]]
    assert len(tagged) > 0
    assert all({"case_index", "stage", "input", "classes"} <= set(row)
               for row in lines[1:])
    # trace does not perturb the campaign itself
    assert report.to_json_dict() == campaign.to_json_dict()


@pytest.mark.parametrize("key,value", [
    ("max_cases", True), ("max_cases", 100.5), ("combination_depth", 1.5)])
def test_config_counts_must_be_integers(key, value):
    with pytest.raises(fuzz.FuzzError, match=key):
        fuzz.CampaignConfig(_STOCK, **{key: value})


@pytest.mark.parametrize("params", [
    None, {"p_th": 20.0}, fuzz.IdealPNRDevice(), (20.0, 400.0, 4, 1.0)])
def test_config_params_must_be_apd_params(params):
    with pytest.raises(fuzz.FuzzError, match="params must be an APDParams"):
        fuzz.CampaignConfig(params)


def test_sweeps_are_scaled_to_the_declared_thresholds():
    # the offset 1 repeats when the device recovers at once
    params = fuzz.APDParams(p_th=10.0, blind_threshold=100.0,
                            recovery_slots=0)
    stage1 = [case.pulses[0].mean_photons
              for stage, case in fuzz._schedule_stage01(params)
              if stage == 1 and case.pulses[0].time_slot == 0
              and case.pulses[0].theta == 0.0]
    assert stage1[:10] == [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0,
                           1000.0, 1e4, 1e5]
    prefix = fuzz.FuzzInput((fuzz.pulse(3, "H", 100.0),))
    follow = [(case.pulses[-1].time_slot, case.pulses[-1].mean_photons)
              for case in fuzz._followups(prefix, params, {})
              if case.pulses[-1].theta == 0.0]
    assert follow == [(4, 1.0), (4, 20.0), (4, 1.0), (4, 20.0)]


def test_integral_float_config_counts_run_as_integers():
    params = fuzz.APDParams()
    config = dataclasses.replace(fuzz.default_config(params, max_cases=200),
                                 max_cases=200.0, combination_depth=2.0)
    assert (config.max_cases, config.combination_depth) == (200, 2)
    report = fuzz.run_fuzz_campaign(fuzz.make_apd_receiver_device(params),
                                    config, seed=0)
    assert report.to_json_dict() == fuzz.run_fuzz_campaign(
        fuzz.make_apd_receiver_device(params),
        fuzz.default_config(params, max_cases=200), seed=0).to_json_dict()


def test_a_campaign_config_is_params_budget_and_depth():
    assert [f.name for f in dataclasses.fields(fuzz.CampaignConfig)] \
        == ["params", "max_cases", "combination_depth"]
    params = fuzz.APDParams(p_th=10.0, recovery_slots=0)
    assert fuzz.default_config(params, max_cases=500) \
        == fuzz.CampaignConfig(params, 500, 2)
    assert fuzz.default_config(params) == fuzz.CampaignConfig(params)


def test_the_fuzz_report_schema_is_a_class_constant(campaign):
    assert "schema" not in {f.name for f in dataclasses.fields(campaign)}
    with pytest.raises(TypeError):
        dataclasses.replace(campaign, schema="fuzz-report/0")
    data = campaign.to_json_dict()
    assert data["schema"] == fuzz.REPORT_SCHEMA == output.FUZZ_REPORT_SCHEMA
    assert fuzz.report_from_json_dict(data).to_json_dict() == data


def test_config_and_argument_validation():
    with pytest.raises(fuzz.FuzzError):
        fuzz.CampaignConfig(_STOCK, max_cases=0)
    with pytest.raises(fuzz.FuzzError):
        fuzz.CampaignConfig(_STOCK, combination_depth=0)


def test_case_seed_bit_fields_are_bounded():
    # past 256 replays the replay field runs into the case field
    assert fuzz._case_seed(0, 0, 256) == fuzz._case_seed(0, 1, 0)
    assert 1 <= fuzz._REPLAYS <= 256
    with pytest.raises(fuzz.FuzzError):
        fuzz.CampaignConfig(_STOCK, max_cases=2 ** 32)
    assert fuzz.CampaignConfig(_STOCK, max_cases=2 ** 32 - 1).max_cases \
        == 2 ** 32 - 1
    config = fuzz.default_config(_STOCK)
    for seed in (-1, 1.5, 2 ** 88, True):
        with pytest.raises(fuzz.FuzzError) as err:
            fuzz.run_fuzz_campaign(_stock_device(), config, seed=seed)
        assert str(err.value) == \
            f"seed must be an integer in [0, 2**88), got {seed!r}"


def test_failed_trace_write_keeps_the_previous_trace(tmp_path, monkeypatch):
    path = tmp_path / "trace.ndjson"
    device = _stock_device()
    config = fuzz.default_config(device.params, max_cases=200)
    fuzz.run_fuzz_campaign(device, config, seed=0, trace_path=path)
    before = path.read_bytes()

    def failing(*args, **kwargs):
        raise RuntimeError("interrupted")

    # every trace line goes through json.dumps once the file is open
    monkeypatch.setattr(json, "dumps", failing)
    with pytest.raises(RuntimeError):
        fuzz.run_fuzz_campaign(device, config, seed=1, trace_path=path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.ndjson"]


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, 2 ** 88 - 1,
                                  np.int64(2 ** 40 + 7)])
def test_rekeyed_generator_matches_a_fresh_philox(seed):
    device = fuzz.IdealPNRDevice()
    used = device._gen
    # leave a half-used 32-bit word and a partly read counter block behind
    used.integers(0, 10, size=3, dtype=np.uint32)
    used.random(3)
    for _ in range(2):  # a generator reused for a second probe
        device._rekey(fuzz._checked_seed(seed, 128, "probe seed"))
        gen = np.random.Generator(device._bits)
        fresh = np.random.Generator(np.random.Philox(key=seed))
        assert gen.random(5).tolist() == fresh.random(5).tolist()
        assert gen.multinomial(40, [0.1, 0.2, 0.3, 0.4]).tolist() == \
            fresh.multinomial(40, [0.1, 0.2, 0.3, 0.4]).tolist()
        assert gen.binomial(1000, 0.3) == fresh.binomial(1000, 0.3)
        assert gen.binomial(7, 0.9) == fresh.binomial(7, 0.9)
        assert gen.random() == fresh.random()


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, True, "3"])
def test_probe_seed_outside_the_philox_key_is_rejected(seed):
    with pytest.raises(fuzz.FuzzError, match="seed"):
        fuzz._checked_seed(seed, 128, "probe seed")
