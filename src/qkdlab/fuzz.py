"""Black-box probing of receiver devices and the blinding-discovery campaign.

The device under test is a four-detector passive polarization receiver:
a polarization-independent 50/50 splitter feeds two polarizing splitters,
one straight (computational) and one behind a 45-degree rotator
(Hadamard).  Avalanche photodiodes behind each port run in Geiger mode
until bright illumination drives them into linear (intensity-threshold)
mode for a recovery window.

The campaign treats the device strictly as a black box: it schedules
pulse sequences, watches only the returned observations, compares the
observed outcome classes against an analytically computed ideal-receiver
baseline, and tags systematic deviations.  A device answers one call,
``replays(case, seeds)``: it observes one case under each seed, walking
the case's pulses once from an un-blinded start and drawing per seed, so
blinding lasts across the pulses of a case and never from one case to
the next.  Three behaviours matter downstream: bright pulses are
swallowed (blinding), single photons stay dark while blinded, and
moderately bright pulses force chosen outcomes while blinded.  The
forced-outcome records are exactly the vulnerability records the
receiver factory accepts to rebuild the equivalent bright-pulse receiver
model.

Cost model: a campaign's floor is its draws, one Philox rekey per probe
of a case with a Geiger-mode pulse and one ``multinomial`` per such
pulse and probe; the default campaign takes 2880 rekeys and 3648
multinomials over 4608 probes and 384 cases.  Everything else is
bookkeeping, kept per case where it can be: the seed check of a case's
range of sub-seeds reads its ends, the draw loop binds its names once
per case and reuses one Philox state dict, each pulse carries its
photon number and detector shares, and the ideal baseline is read at
most twice per case.  The stage-0/1 cases and the follow-up pulses are
built once per ``APDParams`` and shared by every campaign under them.
In-process on a 2-vCPU VM the rekeys and multinomials take about 6 ms of
a ~14 ms default campaign.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, ClassVar, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from .output import FUZZ_REPORT_SCHEMA as REPORT_SCHEMA
from .output import (
    BIT0, BIT1, COMPUTATIONAL, HADAMARD, INVALID, LOSS, atomic_open, ndjson,
    read_field,
)

TRACE_SCHEMA = "fuzz-trace/1"

DETECTORS = ("d_h", "d_v", "d_plus", "d_minus")
DETECTOR_MEANING = {
    "d_h": (COMPUTATIONAL, 0),
    "d_v": (COMPUTATIONAL, 1),
    "d_plus": (HADAMARD, 0),
    "d_minus": (HADAMARD, 1),
}

POLARIZATION_ANGLES = {
    "H": 0.0,
    "V": math.pi / 2,
    "+45": math.pi / 4,
    "-45": 3 * math.pi / 4,
}
# short labels used by the receiver factory's vulnerability records
_RECORD_POLARIZATION = {"H": "H", "V": "V", "+45": "+", "-45": "-"}

PROPERTY_BLINDING = "Blinding"
PROPERTY_WEAK = "WeakUnderBlinding"
PROPERTY_STRONG = "StrongUnderBlinding"
_TAG_PROPERTY = {
    "blinding": PROPERTY_BLINDING,
    "weak-under-blinding": PROPERTY_WEAK,
    "strong-under-blinding": PROPERTY_STRONG,
}

_OUTCOME_TAGS = (BIT0, BIT1, INVALID, LOSS)

# every tag a campaign gives an anomaly
_ANOMALY_TAGS = ("blinding", "weak-under-blinding", "strong-under-blinding",
                 "prefix-swallowed", "forced-outcome", "unexpected-loss",
                 "unexpected-invalid", "no-photon-counting")

# the keys of each closed record of a fuzz report
_PULSE_KEYS = ("time_slot", "polarization", "mean_photons")
_INPUT_KEYS = ("pulses",)
_OBSERVATION_KEYS = ("clicks", "interpretation", "basis_registered",
                     "click_counts")
_ANOMALY_KEYS = ("anomaly_id", "stage", "case_index", "replay_index",
                 "input", "observation", "tag")

# observed-class probability below which a systematic observation is
# incompatible with the calibrated ideal baseline
_BASELINE_FLOOR = 1e-6


class FuzzError(ValueError):
    """Malformed inputs, parameters, or campaign configuration."""


# ---------------------------------------------------------------------------
# inputs and observations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pulse:
    """One optical pulse: arrival slot, linear polarization, intensity.

    The split over the detectors is derived once, when the pulse is
    built: ``arms`` (``arm_intensities``), their sum ``norm``, the
    photon number ``photons`` (``round(mean_photons)``), each detector's
    share ``arms[d] / norm`` in ``DETECTORS`` order (``shares``), and
    the multinomial routing probabilities ``pvals``; ``shares`` and
    ``pvals`` are None for a pulse that rounds to no photons.  None of
    them takes part in equality, hashing or the JSON form.
    """

    time_slot: int
    theta: float
    mean_photons: float
    arms: Dict[str, float] = dataclasses.field(
        init=False, compare=False, repr=False)
    norm: float = dataclasses.field(init=False, compare=False, repr=False)
    photons: int = dataclasses.field(init=False, compare=False, repr=False)
    shares: Optional[Tuple[float, ...]] = dataclasses.field(
        init=False, compare=False, repr=False)
    pvals: Optional[np.ndarray] = dataclasses.field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        arms = arm_intensities(self.theta, self.mean_photons)
        norm = sum(arms.values())
        photons = round(self.mean_photons)
        shares = pvals = None
        if photons != 0:
            shares = tuple(arms[d] / norm for d in DETECTORS)
            pvals = np.array(shares)
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "photons", photons)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "pvals", pvals)


def _is_integer(value) -> bool:
    """An int or an integral float; a bool is not an integer here."""
    return not isinstance(value, bool) and (
        isinstance(value, (int, np.integer))
        or isinstance(value, float) and value.is_integer())


def _is_real(value) -> bool:
    """A real number; a bool is not a number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def pulse(time_slot: int, polarization, mean_photons: float) -> Pulse:
    """Build a pulse; ``polarization`` is an angle in [0, pi) or a name."""
    if not _is_integer(time_slot):
        raise FuzzError(
            f"pulse time slot must be an integer, got {time_slot!r}")
    if isinstance(polarization, str):
        try:
            theta = POLARIZATION_ANGLES[polarization]
        except KeyError:
            raise FuzzError(
                f"unknown polarization {polarization!r}; named options are "
                f"{sorted(POLARIZATION_ANGLES)}")
    elif not _is_real(polarization):
        raise FuzzError(f"pulse polarization must be a name or an angle, "
                        f"got {polarization!r}")
    else:
        theta = float(polarization)
        if not 0.0 <= theta < math.pi:
            raise FuzzError(f"polarization angle {theta} outside [0, pi)")
    if not _is_real(mean_photons):
        raise FuzzError(f"pulse mean_photons must be a number, "
                        f"got {mean_photons!r}")
    mean_photons = float(mean_photons)
    if not math.isfinite(mean_photons) or mean_photons < 0:
        raise FuzzError(f"mean photon number {mean_photons} must be "
                        f"finite and non-negative")
    return Pulse(int(time_slot), theta, mean_photons)


def polarization_label(theta: float) -> Optional[str]:
    for name, angle in POLARIZATION_ANGLES.items():
        if abs(theta - angle) < 1e-9:
            return name
    return None


@dataclass(frozen=True)
class FuzzInput:
    """An ordered pulse sequence presented to the device as one test case."""

    pulses: Tuple[Pulse, ...]

    def __post_init__(self):
        if not self.pulses:
            raise FuzzError("a test case needs at least one pulse")
        slots = [p.time_slot for p in self.pulses]
        if slots != sorted(slots):
            raise FuzzError(f"pulse slots must be non-decreasing, got {slots}")

    def to_json_dict(self) -> dict:
        out = []
        for p in self.pulses:
            label = polarization_label(p.theta)
            out.append({
                "time_slot": p.time_slot,
                "polarization": label if label is not None else p.theta,
                "mean_photons": p.mean_photons,
            })
        return {"pulses": out}


def _closed(data: Mapping, keys: Tuple[str, ...], record: str,
            error: type) -> None:
    """Raise ``error`` naming any key of ``data`` outside ``keys``."""
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise error(f"{record} record has unknown keys {unknown}; "
                    f"expected {list(keys)}")


def input_from_json_dict(data: Mapping) -> FuzzInput:
    """An input as ``FuzzInput.to_json_dict`` writes it; a malformed
    pulse, a pulse of no photons or an unknown key raises FuzzError
    naming it.  (``pulse`` itself accepts a vacuum pulse; a campaign
    never records one.)"""
    _closed(data, _INPUT_KEYS, "input", FuzzError)

    def record(p: Mapping) -> Pulse:
        _closed(p, _PULSE_KEYS, "pulse", FuzzError)
        built = pulse(p["time_slot"], p["polarization"], p["mean_photons"])
        if not built.mean_photons > 0:
            raise FuzzError(f"a recorded pulse's mean_photons must be "
                            f"positive, got {p['mean_photons']!r}")
        return built

    return FuzzInput(tuple(record(p) for p in data["pulses"]))


@dataclass(frozen=True)
class FuzzObservation:
    """What the black box reported for one test case.

    ``clicks`` holds detector ids; ``click_counts`` is populated only by
    devices that can resolve photon number.  ``interpretation`` follows
    the device's declared click-to-outcome rule and ``basis_registered``
    names the basis of a single-detector click.
    """

    clicks: frozenset
    interpretation: str
    basis_registered: Optional[str]
    click_counts: Optional[Tuple[Tuple[str, int], ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "clicks": sorted(self.clicks),
            "interpretation": self.interpretation,
            "basis_registered": self.basis_registered,
            "click_counts": (dict(self.click_counts)
                             if self.click_counts is not None else None),
        }


def _interpret_clicks(clicks, double_click_rule: str
                      ) -> Tuple[str, Optional[str]]:
    if not clicks:
        return LOSS, None
    if len(clicks) == 1:
        basis, bit = DETECTOR_MEANING[next(iter(clicks))]
        return (BIT0 if bit == 0 else BIT1), basis
    return (LOSS, None) if double_click_rule == "loss" \
        else (INVALID, None)


# bit i of a click mask is set when DETECTORS[i] clicked
_DETECTOR_BITS = tuple(1 << i for i in range(len(DETECTORS)))


def _observation_table(double_click_rule: str
                       ) -> Tuple[FuzzObservation, ...]:
    """The observation of every click mask under one double-click rule."""
    table = []
    for mask in range(1 << len(DETECTORS)):
        clicks = frozenset(det for det, bit in zip(DETECTORS, _DETECTOR_BITS)
                           if mask & bit)
        table.append(FuzzObservation(
            clicks, *_interpret_clicks(clicks, double_click_rule)))
    return tuple(table)


# the 16 observations a threshold device can report, per rule
_OBSERVATIONS = {rule: _observation_table(rule)
                 for rule in ("invalid", "loss")}


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class APDParams:
    """Avalanche-photodiode thresholds of the device under test.

    ``p_th`` is the minimal intensity a linear-mode APD registers (a
    pulse at exactly ``p_th`` clicks); ``blind_threshold`` is the input
    intensity that drives the APDs into linear mode for
    ``recovery_slots`` further time slots; ``geiger_efficiency`` is the
    per-photon click probability in Geiger mode.
    """

    p_th: float = 20.0
    blind_threshold: float = 400.0
    recovery_slots: int = 4
    geiger_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("p_th", "blind_threshold", "geiger_efficiency"):
            if not _is_real(getattr(self, name)):
                raise FuzzError(f"{name} must be a number, "
                                f"got {getattr(self, name)!r}")
        for name in ("p_th", "blind_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise FuzzError(f"{name} must be finite, "
                                f"got {getattr(self, name)!r}")
        if self.p_th <= 0:
            raise FuzzError("p_th must be positive")
        if self.blind_threshold <= self.p_th:
            raise FuzzError("blind_threshold must exceed p_th")
        if not _is_integer(self.recovery_slots) or self.recovery_slots < 0:
            raise FuzzError("recovery_slots must be a non-negative integer")
        object.__setattr__(self, "recovery_slots", int(self.recovery_slots))
        if not 0.0 < self.geiger_efficiency <= 1.0:
            raise FuzzError("geiger_efficiency must lie in (0, 1]")


def _checked_seed(seed, bits: int, name: str) -> int:
    """``seed`` as an integer in [0, 2**bits); a bool is not one, and
    FuzzError names ``name`` otherwise."""
    if type(seed) is int and 0 <= seed < 1 << bits:
        return seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= seed < 1 << bits:
        raise FuzzError(
            f"{name} must be an integer in [0, 2**{bits}), got {seed!r}")
    return int(seed)


def _checked_seeds(seeds: Iterable, bits: int, name: str) -> Sequence[int]:
    """``seeds`` as a sequence of ``_checked_seed``s.  A range, such as
    a case's consecutive sub-seeds, holds only integers and runs between
    its ends, so its ends alone are checked and it is kept as it is; any
    other iterable is checked seed by seed."""
    if type(seeds) is range and (not seeds or 0 <= seeds[0] < 1 << bits
                                 and 0 <= seeds[-1] < 1 << bits):
        return seeds
    return [_checked_seed(seed, bits, name) for seed in seeds]


_ZERO_WORDS = (0, 0, 0, 0)
_LOW_WORD = (1 << 64) - 1


def arm_intensities(theta: float, mean_photons: float) -> Dict[str, float]:
    """Classical intensity reaching each detector for one pulse.

    Half the light goes to each basis arm; the polarizing splitters
    project on (H, V) straight and on (H, V) rotated by 45 degrees.
    """
    half = mean_photons / 2.0
    rot = theta - math.pi / 4
    return {
        "d_h": half * math.cos(theta) ** 2,
        "d_v": half * math.sin(theta) ** 2,
        "d_plus": half * math.cos(rot) ** 2,
        "d_minus": half * math.sin(rot) ** 2,
    }


# a Geiger-mode pulse as the draws see it: its photon number and its
# multinomial routing probabilities (``Pulse.pvals``)
_GeigerPulse = Tuple[int, np.ndarray]


class _SeededDevice:
    """The probe protocol both devices share.

    A device defines ``_observe(case, keys)``, which walks ``case`` once
    from an un-blinded start and then draws its Geiger-mode pulses from
    ``Philox(key=key)`` for each key.  A case with no Geiger-mode pulse
    has one observation for every key and never touches the generator.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        # the state of a Philox stream at its start; _rekey sets its key
        self._start = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": (0, 0)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _rekey(self, key: int) -> None:
        """Rewind the bit generator to the start of ``Philox(key=key)``.

        Building a Philox draws OS entropy for a seed sequence that an
        explicit key leaves unused; resetting the key, counter and
        buffers of one reused bit generator gives the same stream
        without that cost.  The state setter copies the counter, key and
        buffer word by word, so one state dict of tuples of 64-bit words
        serves every rekey, with only its key replaced.
        """
        self._start["state"]["key"] = (key & _LOW_WORD, key >> 64)
        self._bits.state = self._start

    def replays(self, case: FuzzInput, seeds: Iterable[int]
                ) -> List[FuzzObservation]:
        """The observation of ``case`` under each of ``seeds``, integers
        in [0, 2**128), in order, from one walk of ``case``; every seed
        is checked before the walk."""
        return self._observe(case, _checked_seeds(seeds, 128, "probe seed"))


class APDReceiverDevice(_SeededDevice):
    """Threshold-APD receiver in the passive two-basis layout.

    Its blinding state, within one case, is one integer: the first slot
    at which the detectors are back in Geiger mode.  Every case starts
    in Geiger mode.  A pulse at or above ``blind_threshold`` produces no
    click itself (the avalanche saturates) and holds the whole device in
    linear mode for the following ``recovery_slots`` slots; re-blinding
    refreshes the window.  Linear-mode detectors click deterministically
    when their arm intensity reaches ``p_th``; Geiger-mode detectors see
    ``round(mean_photons)`` photons routed multinomially down the
    splitter tree, each clicking with ``geiger_efficiency``.

    Each Geiger-mode pulse draws its photon routing (one multinomial)
    and then one uniform per lit detector, clicking when the uniform
    reaches the miss probability ``(1 - geiger_efficiency) ** n``.
    Where that probability is 0.0 (every draw at unit efficiency, or
    when the power underflows) the uniform cannot keep the detector
    dark: the draw is counted, skipped as raw words in one block before
    the seed's next draw, and dropped at its last.  The stream and the
    observations are the same as drawing each one.
    """

    def __init__(self, params: APDParams,
                 double_click_rule: str = "invalid"):
        if double_click_rule not in ("invalid", "loss"):
            raise FuzzError("double_click_rule must be 'invalid' or 'loss'")
        super().__init__()
        self.params = params
        self.double_click_rule = double_click_rule

    def _walk(self, case: FuzzInput) -> Tuple[int, List[_GeigerPulse]]:
        """Move the blinding horizon through ``case`` from an un-blinded
        start; return the click mask of its linear-mode pulses and its
        Geiger-mode pulses."""
        p = self.params
        horizon = None  # the first Geiger-mode slot; None: never blinded
        mask = 0
        geiger = []
        for pl in case.pulses:
            if pl.mean_photons >= p.blind_threshold:
                # saturation: no click, detectors fall into linear mode
                end = pl.time_slot + p.recovery_slots + 1
                horizon = end if horizon is None else max(horizon, end)
            elif horizon is not None and pl.time_slot < horizon:
                for bit, det in zip(_DETECTOR_BITS, DETECTORS):
                    if pl.arms[det] >= p.p_th:
                        mask |= bit
            elif pl.photons:
                geiger.append((pl.photons, pl.pvals))
        return mask, geiger

    def _observe(self, case: FuzzInput, keys) -> List[FuzzObservation]:
        """The observation of ``case`` under ``Philox(key=key)`` for
        each of ``keys``: the linear-mode clicks of the walk, joined by
        the clicks each key draws for the Geiger-mode pulses."""
        linear, geiger = self._walk(case)
        table = _OBSERVATIONS[self.double_click_rule]
        if not geiger:
            return [table[linear]] * len(keys)
        # the draw loop's names, bound once per case
        bits, start, keyed = self._bits, self._start, self._start["state"]
        low, detector_bits = _LOW_WORD, _DETECTOR_BITS
        multinomial, uniform = self._gen.multinomial, self._gen.random
        skip = bits.random_raw
        q = 1.0 - self.params.geiger_efficiency
        observations = []
        for key in keys:
            keyed["key"] = (key & low, key >> 64)  # self._rekey(key)
            bits.state = start
            deferred = 0  # draws owed to the stream that cannot change a click
            mask = linear
            for n, pvals in geiger:
                if deferred:
                    skip(deferred)
                    deferred = 0
                for bit, arrived in zip(detector_bits,
                                        multinomial(n, pvals).tolist()):
                    if not arrived:
                        continue
                    miss = q ** arrived
                    if miss == 0.0:
                        deferred += 1
                        mask |= bit
                        continue
                    if deferred:
                        skip(deferred)
                        deferred = 0
                    if uniform() >= miss:
                        mask |= bit
            observations.append(table[mask])
        return observations


# what the counting device reports when no photon arrives
_PNR_DARK = FuzzObservation(frozenset(), LOSS, None, ())


class IdealPNRDevice(_SeededDevice):
    """Photon-number-resolving reference: never blinds, reports counts.

    Every pulse of a nonzero photon number is a Geiger-mode pulse: one
    multinomial routing, then one binomial per detector for the photons
    it registers.
    """

    def __init__(self, geiger_efficiency: float = 1.0):
        if not _is_real(geiger_efficiency):
            raise FuzzError(f"geiger_efficiency must be a number, "
                            f"got {geiger_efficiency!r}")
        if not 0.0 < geiger_efficiency <= 1.0:
            raise FuzzError("geiger_efficiency must lie in (0, 1]")
        super().__init__()
        self.efficiency = geiger_efficiency

    def _walk(self, case: FuzzInput) -> List[_GeigerPulse]:
        """The Geiger-mode pulses of ``case``: each that holds a photon."""
        return [(pl.photons, pl.pvals) for pl in case.pulses if pl.photons]

    def _draw(self, key: int, geiger: List[_GeigerPulse]
              ) -> FuzzObservation:
        """The observation of ``geiger`` under ``Philox(key=key)``."""
        self._rekey(key)
        gen = self._gen
        registered: Dict[str, int] = {}
        for n, pvals in geiger:
            counts = gen.multinomial(n, pvals)
            for det, arrived in zip(DETECTORS, counts):
                seen = int(gen.binomial(int(arrived), self.efficiency))
                if seen:
                    registered[det] = registered.get(det, 0) + seen
        clicks = frozenset(registered)
        interpretation, basis = _interpret_clicks(clicks, "invalid")
        return FuzzObservation(clicks, interpretation, basis,
                               tuple(sorted(registered.items())))

    def _observe(self, case: FuzzInput, keys) -> List[FuzzObservation]:
        geiger = self._walk(case)
        if not geiger:
            return [_PNR_DARK] * len(keys)
        return [self._draw(key, geiger) for key in keys]


def make_apd_receiver_device(params: APDParams,
                             double_click_rule: str = "invalid"
                             ) -> APDReceiverDevice:
    return APDReceiverDevice(params, double_click_rule)


# ---------------------------------------------------------------------------
# the ideal baseline
# ---------------------------------------------------------------------------

# the outcome class of a click on each detector alone, in DETECTORS order
_DETECTOR_CLASSES = tuple(
    (BIT0 if bit == 0 else BIT1, basis)
    for basis, bit in (DETECTOR_MEANING[det] for det in DETECTORS))


def baseline_class_probabilities(case: FuzzInput, efficiency: float
                                 ) -> Dict[Tuple[str, Optional[str]], float]:
    """Outcome-class distribution of an ideal (never-blinded) receiver.

    Photons are routed independently, so P(clicks within a subset S) is
    a product over pulses of ((share of S)*eta + 1 - eta)^n; exact
    single-detector probabilities follow by subtracting the no-click
    term, and the invalid class absorbs the remainder.
    """
    return _class_probabilities(case.pulses, efficiency)


def _class_probabilities(pulses: Iterable[Pulse], efficiency: float
                         ) -> Dict[Tuple[str, Optional[str]], float]:
    """``baseline_class_probabilities`` of a case of ``pulses``."""
    dark = 1.0 - efficiency
    # P(every click falls inside S) for S empty and for each of the four
    # detectors, one name per product: this runs once or twice per case
    p_none = h = v = plus = minus = 1.0
    for pl in pulses:
        n = pl.photons
        if n:
            p_none *= dark ** n
            s_h, s_v, s_plus, s_minus = pl.shares
            h *= (s_h * efficiency + dark) ** n
            v *= (s_v * efficiency + dark) ** n
            plus *= (s_plus * efficiency + dark) ** n
            minus *= (s_minus * efficiency + dark) ** n
    h = max(h - p_none, 0.0)
    v = max(v - p_none, 0.0)
    plus = max(plus - p_none, 0.0)
    minus = max(minus - p_none, 0.0)
    # each detector is the only one of its class
    cls_h, cls_v, cls_plus, cls_minus = _DETECTOR_CLASSES
    return {(LOSS, None): p_none,
            cls_h: h, cls_v: v, cls_plus: plus, cls_minus: minus,
            (INVALID, None): max(1.0 - (h + v + plus + minus) - p_none, 0.0)}


def _pair_in_one_detector_probability(case: FuzzInput) -> float:
    """P(both photons of a two-photon pulse land in one detector)."""
    if len(case.pulses) != 1 or case.pulses[0].photons != 2:
        return 0.0
    return sum(share ** 2 for share in case.pulses[0].shares)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

# Slot shifts of the valid single-photon probe in the stage-1 sweep.
_TIME_GRID = (-2, -1, 0, 1, 2)

# Each case is probed this many times, under derived sub-seeds; at most
# 256 keep every sub-seed distinct (see _case_seed).
_REPLAYS = 12


# Stage-1 intensities in units of p_th, swept after a two-photon pulse.
_GRID_FACTORS = (0.5, 1, 2, 5, 10, 50, 100, 1e3, 1e4)


@dataclass(frozen=True)
class CampaignConfig:
    """Schedule parameters: the declared device, budget, and depth.

    Every sweep is scaled to ``params``, the device's declared
    thresholds.  ``max_cases`` caps the number of device probes (every
    replay counts); ``max_cases < 2**32`` keeps every probe's derived
    sub-seed distinct.  A malformed field raises FuzzError naming it
    when the config is built.
    """

    params: APDParams
    max_cases: int = 10000
    combination_depth: int = 2

    def __post_init__(self):
        if not isinstance(self.params, APDParams):
            raise FuzzError(
                f"params must be an APDParams, got {self.params!r}")
        for name in ("max_cases", "combination_depth"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise FuzzError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.max_cases < 2 ** 32:
            raise FuzzError("max_cases must lie in [1, 2**32)")
        if self.combination_depth < 1:
            raise FuzzError("combination_depth must be >= 1")


def default_config(params: APDParams, max_cases: int = 10000
                   ) -> CampaignConfig:
    """The stock schedule, scaled to the device's declared thresholds."""
    return CampaignConfig(params, max_cases)


@dataclass(frozen=True)
class FuzzAnomaly:
    anomaly_id: str
    stage: int
    case_index: int
    replay_index: int
    input: FuzzInput
    observation: FuzzObservation
    tag: str

    def to_json_dict(self) -> dict:
        return {
            "anomaly_id": self.anomaly_id,
            "stage": self.stage,
            "case_index": self.case_index,
            "replay_index": self.replay_index,
            "input": self.input.to_json_dict(),
            "observation": self.observation.to_json_dict(),
            "tag": self.tag,
        }


@dataclass
class FuzzReport:
    test_cases_run: int
    distinct_inputs: int
    anomalies: List[FuzzAnomaly]
    properties_found: Tuple[str, ...]
    derived_vulnerabilities: List[dict]
    rng_seed: int
    schema: ClassVar[str] = REPORT_SCHEMA

    def validate(self) -> None:
        tags = {a.tag for a in self.anomalies}
        mapped = {_TAG_PROPERTY[t] for t in tags if t in _TAG_PROPERTY}
        if not set(self.properties_found) <= mapped:
            raise FuzzError("properties_found not backed by anomaly tags")

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "test_cases_run": self.test_cases_run,
            "distinct_inputs": self.distinct_inputs,
            "anomalies": [a.to_json_dict() for a in self.anomalies],
            "properties_found": list(self.properties_found),
            "derived_vulnerabilities": self.derived_vulnerabilities,
            "rng_seed": self.rng_seed,
        }


def _count(value) -> int:
    """``value`` as a count: a non-negative integer, not a bool."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return int(value)


def _name(value) -> str:
    """``value`` as an id or tag: a string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _anomaly_id(value) -> str:
    """``value`` as an anomaly id: ``a`` and at least four digits."""
    if not re.fullmatch(r"a[0-9]{4,}", _name(value)):
        raise ValueError(f"expected 'a' and four or more digits, "
                         f"got {value!r}")
    return value


def _click_count(value) -> int:
    """``value`` as the photons one detector registered: a positive
    integer, since a detector that registers none is not listed."""
    if _count(value) == 0:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return int(value)


def _outcome_tag(value) -> str:
    """``value`` as an observation's interpretation: an outcome tag."""
    if _name(value) not in _OUTCOME_TAGS:
        raise ValueError(f"expected an outcome tag, got {value!r}")
    return value


def _anomaly_tag(value) -> str:
    """``value`` as an anomaly's tag: one a campaign gives."""
    if _name(value) not in _ANOMALY_TAGS:
        raise ValueError(f"expected one of {list(_ANOMALY_TAGS)}, "
                         f"got {value!r}")
    return value


def _clicks(value) -> frozenset:
    """``value`` as an observation's clicks: a list of detector ids."""
    if not isinstance(value, list) or not all(
            click in DETECTORS for click in value):
        raise ValueError(f"expected a list of detector ids from "
                         f"{list(DETECTORS)}, got {value!r}")
    return frozenset(value)


def observation_from_json_dict(data: Mapping) -> FuzzObservation:
    """An observation as ``FuzzObservation.to_json_dict`` writes it; a
    missing, malformed or unknown field raises naming it."""
    def part(key: str, parse: Callable):
        return read_field(data, key, parse, "observation", ValueError)

    _closed(data, _OBSERVATION_KEYS, "observation", ValueError)
    basis, counts = data.get("basis_registered"), data.get("click_counts")
    return FuzzObservation(
        clicks=part("clicks", _clicks),
        interpretation=part("interpretation", _outcome_tag),
        basis_registered=(None if basis is None
                          else part("basis_registered", _name)),
        click_counts=None if counts is None else part(
            "click_counts", lambda c: tuple(sorted(
                (str(k), _click_count(v)) for k, v in c.items()))),
    )


def report_from_json_dict(data: Mapping) -> FuzzReport:
    """Rebuild a campaign report (e.g. for replaying logged anomalies).

    A missing key or a malformed field, at the top or in an anomaly,
    raises FuzzError naming it: counts, stages, indices and the seed are
    non-negative integers (a bool is not one), anomaly ids are ``a`` and
    four or more digits, any basis is a string, pulses carry a positive
    mean photon number, clicks are detector ids, registered photon counts
    are positive, interpretations are outcome tags and anomaly tags the
    ones a campaign gives.  An anomaly, its input, each pulse and its
    observation are closed records: an unknown key raises FuzzError
    naming it.
    """
    if data.get("schema") != REPORT_SCHEMA:
        raise FuzzError(f"expected schema {REPORT_SCHEMA!r}, "
                        f"got {data.get('schema')!r}")

    def field(key: str, parse: Callable):
        return read_field(data, key, parse, REPORT_SCHEMA, FuzzError)

    def anomaly(row: Mapping) -> FuzzAnomaly:
        def part(key: str, parse: Callable):
            return read_field(row, key, parse, "anomaly", FuzzError)
        _closed(row, _ANOMALY_KEYS, "anomaly", FuzzError)
        return FuzzAnomaly(
            anomaly_id=part("anomaly_id", _anomaly_id),
            stage=part("stage", _count),
            case_index=part("case_index", _count),
            replay_index=part("replay_index", _count),
            input=part("input", input_from_json_dict),
            observation=part("observation", observation_from_json_dict),
            tag=part("tag", _anomaly_tag))

    report = FuzzReport(
        test_cases_run=field("test_cases_run", _count),
        distinct_inputs=field("distinct_inputs", _count),
        anomalies=field("anomalies", lambda rows: [anomaly(a) for a in rows]),
        properties_found=field("properties_found", tuple),
        derived_vulnerabilities=field("derived_vulnerabilities", list),
        rng_seed=field("rng_seed", _count),
    )
    report.validate()
    return report


def _case_seed(master_seed: int, case_index: int, replay: int) -> int:
    # distinct non-overlapping key per (campaign, case, replay), given
    # case_index < 2**32 (CampaignConfig's bound) and replay < 256
    return (int(master_seed) << 40) ^ (case_index << 8) ^ replay


def _case_seeds(master_seed: int, case_index: int, replays: int) -> range:
    """``_case_seed`` of replays 0 .. replays - 1: the replay is the
    key's low 8 bits, so the keys are consecutive."""
    first = _case_seed(master_seed, case_index, 0)
    return range(first, first + replays)


@functools.lru_cache(maxsize=16)
def _schedule_stage01(params: APDParams) -> Tuple[Tuple[int, FuzzInput], ...]:
    """Depth 1: stage 0 sends each valid state once; stage 1 sweeps each
    state's intensity, then its arrival slot.  Built once per ``params``."""
    grid = (2.0,) + tuple(f * params.p_th for f in _GRID_FACTORS)
    cases = [(0, FuzzInput((pulse(0, name, 1.0),)))
             for name in POLARIZATION_ANGLES]
    for name in POLARIZATION_ANGLES:
        cases += [(1, FuzzInput((pulse(0, name, mu),))) for mu in grid]
        cases += [(1, FuzzInput((pulse(shift, name, 1.0),)))
                  for shift in _TIME_GRID]
    return tuple(cases)


@functools.lru_cache(maxsize=16)
def _followup_pulses(params: APDParams) -> Dict[tuple, Pulse]:
    """The follow-up pulses built so far under ``params``, by (slot,
    polarization, intensity), shared by every campaign under them."""
    return {}


def _followups(seed_input: FuzzInput, params: APDParams,
               built: Dict[tuple, Pulse]) -> List[FuzzInput]:
    """The follow-up cases of ``seed_input``: one photon and twice
    ``p_th``, one slot after its last pulse and just past the recovery
    window; ``built`` holds the follow-up pulses by (slot, polarization,
    intensity) and gains any it lacks."""
    last = seed_input.pulses[-1].time_slot
    probes = []
    for offset in (1, params.recovery_slots + 1):
        for name in POLARIZATION_ANGLES:
            for mu in (1.0, 2.0 * params.p_th):
                spec = (last + offset, name, mu)
                follow = built.get(spec)
                if follow is None:
                    follow = built[spec] = pulse(*spec)
                probes.append(FuzzInput(seed_input.pulses + (follow,)))
    return probes


def _tally(observations: List[FuzzObservation]
           ) -> Dict[Tuple[str, Optional[str]], List[int]]:
    """The replay indices of each outcome class, classes in order of
    first appearance."""
    histogram: Dict[Tuple[str, Optional[str]], List[int]] = {}
    for idx, obs in enumerate(observations):
        histogram.setdefault((obs.interpretation, obs.basis_registered),
                             []).append(idx)
    return histogram


def _classify_case(case: FuzzInput,
                   observations: List[FuzzObservation],
                   histogram: Dict[Tuple[str, Optional[str]], List[int]],
                   efficiency: float
                   ) -> List[Tuple[str, FuzzObservation, int]]:
    """Tags for one case: (tag, representative observation, replay index);
    ``histogram`` is ``_tally(observations)``."""
    replays = len(observations)
    final = case.pulses[-1]
    bright_final = final.mean_photons >= 2.0
    has_prefix = len(case.pulses) > 1

    found: List[Tuple[str, FuzzObservation, int]] = []
    for cls, hits in histogram.items():
        if 2 * len(hits) <= replays:
            continue  # not systematic; at most one class is
        if baseline_class_probabilities(case, efficiency).get(cls, 0.0) \
                >= _BASELINE_FLOOR:
            continue  # reachable on the ideal receiver
        rep_idx = hits[0]
        rep = observations[rep_idx]
        kind, _basis = cls
        if kind == LOSS:
            tag = "blinding" if bright_final else "weak-under-blinding"
            if not bright_final and not has_prefix:
                tag = "unexpected-loss"
        elif kind in (BIT0, BIT1):
            deterministic = len(hits) == replays
            # a class the final pulse could reach on its own means the
            # earlier pulses left no trace, not that it was steered
            swallowed = has_prefix and _class_probabilities(
                (final,), efficiency).get(cls, 0.0) >= _BASELINE_FLOOR
            if swallowed:
                tag = "prefix-swallowed"
            elif deterministic and has_prefix:
                tag = "strong-under-blinding"
            else:
                tag = "forced-outcome"
        else:
            tag = "unexpected-invalid"
        found.append((tag, rep, rep_idx))

    pair_p = _pair_in_one_detector_probability(case)
    if pair_p >= 0.05:
        counted = any(obs.click_counts is not None for obs in observations)
        if not counted:
            found.append(("no-photon-counting", observations[0], 0))
    return found


def _derived_vulnerabilities(anomalies: List[FuzzAnomaly]) -> List[dict]:
    """Vulnerability records for the receiver factory: the first
    strong-under-blinding anomaly per (polarization, basis, bit)."""
    records: Dict[tuple, dict] = {}
    for anomaly in anomalies:
        if anomaly.tag != "strong-under-blinding":
            continue
        final = anomaly.input.pulses[-1]
        polarization = _RECORD_POLARIZATION.get(
            polarization_label(final.theta))
        if polarization is None:
            continue
        basis = anomaly.observation.basis_registered
        bit = 0 if anomaly.observation.interpretation == BIT0 else 1
        if (polarization, basis, bit) not in records:
            records[polarization, basis, bit] = {
                "polarization": polarization,
                "forced_basis": basis,
                "forced_bit": bit,
                "intensity": final.mean_photons,
                "blinding_intensity": max(
                    p.mean_photons for p in anomaly.input.pulses[:-1]),
                "anomaly_id": anomaly.anomaly_id,
            }
    return list(records.values())


def run_fuzz_campaign(device, config: CampaignConfig, seed: int = 0,
                      trace_path: Union[str, Path, None] = None) -> FuzzReport:
    """Probe a device through the staged schedule and tag what deviates.

    One ordered schedule runs case by case until it ends or its next
    case would take the probe count past ``config.max_cases``.  It
    starts as depth 1: stage 0 sends the four valid protocol states and
    calibrates the baseline loss rate, and stage 1 sweeps intensity and
    timing one degree of freedom at a time.  Once the last case of a
    depth d < ``combination_depth`` has run, the schedule grows by stage
    d + 1: the follow-ups of the inputs first found anomalous during
    depth d, in the order found, each prefixed to fresh probes.  Each
    case is replayed ``_REPLAYS`` times under derived sub-seeds through
    one ``device.replays`` call, which walks the case once from an
    un-blinded start, so a report is a pure function of (device model,
    config, seed).  The replays are tallied by outcome class once.
    ``seed`` is an integer in [0, 2**88), the range the sub-seed keys
    can hold.
    """
    _checked_seed(seed, 88, "seed")

    replays = _REPLAYS
    # the campaign extends its schedule in place, so it takes a copy
    schedule = list(_schedule_stage01(config.params))
    depth, depth_end = 1, len(schedule)
    # the current depth's anomalous inputs in the order first found; a
    # depth-d case has d pulses, so no input is found at two depths
    found: Dict[FuzzInput, None] = {}
    followup_pulses = _followup_pulses(config.params)
    anomalies: List[FuzzAnomaly] = []
    trace_rows: List[dict] = []
    efficiency = 1.0  # calibrated by stage 0
    stage0_losses = 0
    case_index = 0  # also the number of cases run
    while case_index < len(schedule) \
            and (case_index + 1) * replays <= config.max_cases:
        stage, case = schedule[case_index]
        observations = device.replays(
            case, _case_seeds(seed, case_index, replays))
        histogram = _tally(observations)
        if stage == 0:
            # stage 0 runs first, so every probe so far is one of its own
            stage0_losses += len(histogram.get((LOSS, None), ()))
            efficiency = max(
                1.0 - stage0_losses / ((case_index + 1) * replays), 1e-6)
        tags = _classify_case(case, observations, histogram, efficiency)
        if tags:
            found[case] = None
        for tag, rep, rep_idx in tags:
            anomalies.append(FuzzAnomaly(
                anomaly_id=f"a{len(anomalies):04d}",
                stage=stage, case_index=case_index, replay_index=rep_idx,
                input=case, observation=rep, tag=tag))
        if trace_path is not None:
            trace_rows.append({
                "case_index": case_index, "stage": stage,
                "input": case.to_json_dict(),
                "classes": {f"{interpretation}/{basis or '-'}": len(hits)
                            for (interpretation, basis), hits
                            in histogram.items()},
                "tags": [t for t, _, _ in tags],
            })
        case_index += 1
        if case_index == depth_end and depth < config.combination_depth:
            schedule += [
                (depth + 1, follow) for seed_input in found
                for follow in _followups(seed_input, config.params,
                                        followup_pulses)]
            depth, depth_end, found = depth + 1, len(schedule), {}

    report = FuzzReport(
        test_cases_run=case_index * replays,
        distinct_inputs=case_index,
        anomalies=anomalies,
        properties_found=tuple(sorted(
            {_TAG_PROPERTY[a.tag] for a in anomalies
             if a.tag in _TAG_PROPERTY})),
        derived_vulnerabilities=_derived_vulnerabilities(anomalies),
        rng_seed=seed,
    )
    report.validate()

    with atomic_open(trace_path) as fh:
        if fh is not None:
            fh.write(ndjson({"schema": TRACE_SCHEMA, "rng_seed": seed,
                             "max_cases": config.max_cases}) + "\n")
            fh.writelines(ndjson(row) + "\n" for row in trace_rows)
    return report


def replay_anomaly(device, report: FuzzReport,
                   anomaly_id: str) -> Tuple[FuzzObservation, bool]:
    """Re-execute a logged anomaly: one ``device.replays`` call under
    the anomaly's sub-seed.

    Returns the new observation and whether it reproduces the logged
    one exactly.
    """
    for anomaly in report.anomalies:
        if anomaly.anomaly_id == anomaly_id:
            obs, = device.replays(anomaly.input, [_case_seed(
                report.rng_seed, anomaly.case_index, anomaly.replay_index)])
            return obs, obs == anomaly.observation
    raise FuzzError(f"no anomaly with id {anomaly_id!r}")
