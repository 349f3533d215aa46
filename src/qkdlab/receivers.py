"""Receiver-side measurement models for BB84 links.

A receiver couples a mode registry, one evolution per measurement setting,
and a partition of detection outcomes into bit values, invalid events and
losses.  The *reversed space* of a receiver is the span of the adjoint
images of all registered outcome states restricted to the channel modes an
adversary can drive: any useful intercept-resend state lives inside it.

Provided device models:
  * ``interferometric-6mode``   time-bin receiver reading all six output bins
  * ``defended-10mode``         same optics plus guard bins flagged as invalid
  * ``interferometric-2mode``   two-detector time-gated receiver (optional
                                ``single-window`` variant with a phase-shifted
                                second setting)
  * ``polarization-threshold``  two threshold detectors on polarization modes
  * ``blinded-bright``          classical-pulse receiver induced by detector
                                blinding, with passive basis registration
  * ``ideal-bb84``              textbook single-photon polarization receiver
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import fockspace as fs
from .fockspace import (
    VACUUM, Mode, ModeRegistry, PhotonicState, blocked, d_out, occ, pol_h,
    pol_v, s_out, single, t_in,
)
from .output import COMPUTATIONAL, HADAMARD, Y_BASIS

# Outcome interpretations.
BIT0 = "bit0"
BIT1 = "bit1"
INVALID = "invalid"
LOSS = "loss"
# Passive receivers register some outcomes as belonging to the other
# measurement basis; those rounds are discarded at sifting time.
FOREIGN = "foreign-basis"

INTERPRETATION_TAGS = (BIT0, BIT1, INVALID, LOSS, FOREIGN)

NO_CLICK = "no-click"
UNREGISTERED = "unregistered"

RECEIVER_KINDS = (
    "interferometric-6mode",
    "interferometric-2mode",
    "interferometric-defended-10mode",
    "polarization-threshold",
    "blinded-bright",
    "ideal-bb84",
)

_KIND_ALIASES = {"defended-10mode": "interferometric-defended-10mode"}

StateMap = Callable[[PhotonicState], PhotonicState]


@dataclass(frozen=True)
class InterpretationSets:
    """The four-way outcome partition of one measurement setting.

    The sets are pairwise disjoint and jointly cover every outcome id.
    Passive receivers file outcomes registered to the other basis under
    ``j_loss`` here (the round is discarded at sifting either way).
    """

    j0: frozenset
    j1: frozenset
    j_loss: frozenset
    j_invalid: frozenset

    def __post_init__(self):
        sets = [self.j0, self.j1, self.j_loss, self.j_invalid]
        total = sum(len(s) for s in sets)
        union = frozenset().union(*sets)
        if total != len(union):
            raise ValueError("interpretation sets overlap")

    def all_ids(self) -> frozenset:
        return self.j0 | self.j1 | self.j_loss | self.j_invalid


@dataclass
class Setting:
    """One measurement configuration: an evolution plus an outcome partition.

    ``outcomes`` maps an outcome id to the orthonormal states spanning its
    detection projector (in the post-evolution space).  Every outcome id
    must carry an interpretation tag.
    """

    name: str
    forward: StateMap
    reverse: StateMap
    outcomes: Dict[str, List[PhotonicState]]
    interpretation: Dict[str, str]

    def __post_init__(self):
        mismatch = set(self.outcomes) ^ set(self.interpretation)
        if mismatch:
            raise ValueError(
                f"outcomes and interpretations disagree on {sorted(mismatch)}")
        unknown = sorted(set(self.interpretation.values())
                         - set(INTERPRETATION_TAGS))
        if unknown:
            raise ValueError(
                f"setting {self.name!r} uses unknown interpretation tags "
                f"{unknown}; choose from {INTERPRETATION_TAGS}")

    def outcomes_tagged(self, tag: str) -> List[str]:
        return [oid for oid, t in self.interpretation.items() if t == tag]

    def bit_outcomes(self, bit: int) -> List[str]:
        return self.outcomes_tagged(BIT0 if bit == 0 else BIT1)

    def interpretation_sets(self) -> InterpretationSets:
        return InterpretationSets(
            j0=frozenset(self.outcomes_tagged(BIT0)),
            j1=frozenset(self.outcomes_tagged(BIT1)),
            j_loss=frozenset(self.outcomes_tagged(LOSS)
                             + self.outcomes_tagged(FOREIGN)),
            j_invalid=frozenset(self.outcomes_tagged(INVALID)),
        )


# Logical qubit coefficients of the BB84 states: (basis, bit) -> (a0, a1).
_R = 1 / math.sqrt(2)
LOGICAL_COEFFICIENTS: Dict[Tuple[str, int], Tuple[complex, complex]] = {
    (COMPUTATIONAL, 0): (1.0, 0.0),
    (COMPUTATIONAL, 1): (0.0, 1.0),
    (HADAMARD, 0): (_R, _R),
    (HADAMARD, 1): (_R, -_R),
    (Y_BASIS, 0): (_R, 1j * _R),
    (Y_BASIS, 1): (_R, -1j * _R),
}


@dataclass
class AliceSourceModel:
    """The nominal transmitter: one pure channel state per (basis, bit)."""

    registry: ModeRegistry
    bases: Tuple[str, ...]
    states: Dict[Tuple[str, int], PhotonicState]

    def labels(self) -> List[Tuple[str, int]]:
        return [(basis, bit) for basis in self.bases for bit in (0, 1)]

    def logical_alpha(self, label: Tuple[str, int]) -> Tuple[complex, complex]:
        """Coefficients of the label's state over the logical {0, 1} basis."""
        basis, bit = label
        try:
            return LOGICAL_COEFFICIENTS[(basis, bit)]
        except KeyError:
            raise ValueError(f"no logical coefficients for basis {basis!r}")


@dataclass
class ReceiverModel:
    name: str
    registry: ModeRegistry
    channel_modes: Tuple[Mode, ...]
    settings: Dict[str, Setting]
    source: AliceSourceModel
    passive: bool = False

    def channel_registry(self) -> ModeRegistry:
        return ModeRegistry(self.channel_modes,
                            self.registry.max_photons_per_mode)

    def setting_names(self) -> Tuple[str, ...]:
        return tuple(self.settings)


def interpret(receiver: ReceiverModel, setting_name: str, outcome_id: str) -> str:
    """Interpretation tag for an outcome under a setting.

    The synthetic ``unregistered`` outcome (probability mass outside every
    registered projector) is treated as a loss.
    """
    if outcome_id == UNREGISTERED:
        return LOSS
    return receiver.settings[setting_name].interpretation[outcome_id]


def error_outcome_ids(setting: Setting, alice_bit: int | None) -> List[str]:
    """Outcomes that must have zero probability for a stealthy adversary.

    With matched bases (``alice_bit`` given) these are the wrong-bit
    outcomes plus everything flagged invalid; with mismatched bases
    (``alice_bit`` is None) only invalid outcomes betray the adversary,
    since mismatched rounds are discarded at sifting.
    """
    ids = setting.outcomes_tagged(INVALID)
    if alice_bit is not None:
        ids = setting.bit_outcomes(1 - alice_bit) + ids
    return ids


def error_outcomes(receiver: ReceiverModel, setting_name: str,
                   alice_label: Tuple[str, int]) -> frozenset:
    """Outcome ids the receiver counts as errors for a matched-basis round."""
    basis, bit = alice_label
    if basis != setting_name:
        raise ValueError(
            f"errors are defined for matched bases; Alice sent {basis!r} "
            f"but the setting is {setting_name!r}")
    return frozenset(error_outcome_ids(receiver.settings[setting_name], bit))


def outcome_probabilities(receiver: ReceiverModel, setting_name: str,
                          channel_state: PhotonicState) -> Dict[str, float]:
    """Born probabilities of every registered outcome for a channel state.

    Residual probability mass (components outside all registered detection
    projectors) is reported under ``unregistered``.
    """
    setting = receiver.settings[setting_name]
    st = fs.embedded(channel_state, receiver.registry)
    out = setting.forward(st)
    probs: Dict[str, float] = {}
    total = 0.0
    for oid, states in setting.outcomes.items():
        p = sum(abs(fs.inner_product(o, out)) ** 2 for o in states)
        probs[oid] = p
        total += p
    residual = abs(fs.inner_product(out, out)).real - total
    if residual > 1e-12:
        probs[UNREGISTERED] = residual
    return probs


# ---------------------------------------------------------------------------
# reversed space
# ---------------------------------------------------------------------------

def _occ_matrix(vectors: Sequence[PhotonicState]):
    occs = sorted({o for v in vectors for o in v.amplitudes})
    mat = np.array([[v.amplitude(o) for o in occs] for v in vectors],
                   dtype=complex)
    return occs, mat


def reversed_space(receiver: ReceiverModel,
                   rank_tol: float = fs.ATOL) -> List[PhotonicState]:
    """Orthonormal basis of the channel-mode span of all reversed outcomes.

    Every registered outcome state of every setting is pulled back through
    the setting's adjoint evolution; non-channel modes are traced out and
    the supports are collected.  The returned basis is deterministic:
    occupation basis states (vacuum first, then mode order) whenever the
    span is a full coordinate span, otherwise a vacuum-first Gram-Schmidt
    of the collected supports.
    """
    channel_reg = receiver.channel_registry()
    keep = set(channel_reg.modes)
    raw: List[PhotonicState] = []
    for setting in receiver.settings.values():
        for states in setting.outcomes.values():
            for outcome_state in states:
                back = setting.reverse(outcome_state)
                for supp in fs.support_after_trace(back, lambda m: m in keep):
                    raw.append(fs.embedded(supp, channel_reg))
    occs, mat = _occ_matrix(raw)
    rank = int(np.sum(np.linalg.svd(mat, compute_uv=False) > rank_tol))
    if rank == len(occs):
        return [PhotonicState.basis(channel_reg, o) for o in occs]
    ordered = ([v for v in raw if set(v.amplitudes) == {VACUUM}]
               + [v for v in raw if set(v.amplitudes) != {VACUUM}])
    return fs.gram_schmidt(ordered, drop_tol=rank_tol)


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------

def _identity(state: PhotonicState) -> PhotonicState:
    return state


def polarization_rotation(state: PhotonicState) -> PhotonicState:
    """Self-inverse 45-degree polarization rotation (diagonal <-> rectilinear)."""
    r = 1 / math.sqrt(2)
    mapping = {
        pol_h(): [(pol_h(), r), (pol_v(), r)],
        pol_v(): [(pol_h(), r), (pol_v(), -r)],
    }
    return fs.apply_mode_map(state, mapping)


def _bin_outcomes(reg: ModeRegistry, s_bins: Iterable[int],
                  d_bins: Iterable[int]) -> Dict[str, List[PhotonicState]]:
    out: Dict[str, List[PhotonicState]] = {}
    for t in s_bins:
        out[f"s{t}"] = [PhotonicState.photon(reg, s_out(t))]
    for t in d_bins:
        out[f"d{t}"] = [PhotonicState.photon(reg, d_out(t))]
    out[NO_CLICK] = [PhotonicState.vacuum(reg)]
    return out


def _mz_setting(name: str, phi: float, outcomes, interpretation) -> Setting:
    cfg = fs.InterferometerConfig(phi=phi)
    return Setting(
        name,
        forward=lambda st, c=cfg: fs.mz_transform(st, c),
        reverse=lambda st, c=cfg: fs.mz_reverse(st, c),
        outcomes=outcomes,
        interpretation=interpretation,
    )


def _channel_bins(reg: ModeRegistry) -> Tuple[Mode, ...]:
    return tuple(m for m in reg.modes if m.kind == fs.CHANNEL)


def _time_bin_source(channel_reg: ModeRegistry,
                     bases: Tuple[str, str] = (COMPUTATIONAL, HADAMARD)
                     ) -> AliceSourceModel:
    t0 = PhotonicState.photon(channel_reg, t_in(0))
    t1 = PhotonicState.photon(channel_reg, t_in(1))
    r = 1 / math.sqrt(2)
    states = {}
    for basis in bases:
        if basis == COMPUTATIONAL:
            states[(basis, 0)], states[(basis, 1)] = t0, t1
        elif basis == HADAMARD:
            states[(basis, 0)] = (t0 + t1).scaled(r)
            states[(basis, 1)] = (t0 - t1).scaled(r)
        elif basis == Y_BASIS:
            states[(basis, 0)] = (t0 + t1.scaled(1j)).scaled(r)
            states[(basis, 1)] = (t0 - t1.scaled(1j)).scaled(r)
        else:
            raise ValueError(f"unknown time-bin basis {basis!r}")
    return AliceSourceModel(channel_reg, bases, states)


def _polarization_source(channel_reg: ModeRegistry) -> AliceSourceModel:
    h = PhotonicState.photon(channel_reg, pol_h())
    v = PhotonicState.photon(channel_reg, pol_v())
    r = 1 / math.sqrt(2)
    states = {
        (COMPUTATIONAL, 0): h,
        (COMPUTATIONAL, 1): v,
        (HADAMARD, 0): (h + v).scaled(r),
        (HADAMARD, 1): (h - v).scaled(r),
    }
    return AliceSourceModel(channel_reg, (COMPUTATIONAL, HADAMARD), states)


# ---------------------------------------------------------------------------
# concrete receivers
# ---------------------------------------------------------------------------

def _make_interferometric_6mode(max_photons: int) -> ReceiverModel:
    reg = fs.interferometer_registry(-1, 2, max_photons)
    channel = _channel_bins(reg)
    outcomes = _bin_outcomes(reg, range(0, 3), range(0, 3))
    comp = {
        "s0": BIT0, "d0": BIT0, "s2": BIT1, "d2": BIT1,
        "s1": LOSS, "d1": LOSS, NO_CLICK: LOSS,
    }
    had = {
        "d1": BIT0, "s1": BIT1,
        "s0": LOSS, "d0": LOSS, "s2": LOSS, "d2": LOSS, NO_CLICK: LOSS,
    }
    settings = {
        COMPUTATIONAL: _mz_setting(COMPUTATIONAL, 0.0, outcomes, comp),
        HADAMARD: _mz_setting(HADAMARD, 0.0, dict(outcomes), had),
    }
    source = _time_bin_source(ModeRegistry(channel, max_photons))
    return ReceiverModel("interferometric-6mode", reg, channel, settings,
                         source)


def _make_defended_10mode(max_photons: int) -> ReceiverModel:
    reg = fs.interferometer_registry(-2, 3, max_photons)
    channel = _channel_bins(reg)
    outcomes = _bin_outcomes(reg, range(-1, 4), range(-1, 4))
    guards = {"s-1": INVALID, "d-1": INVALID, "s3": INVALID, "d3": INVALID}
    comp = {
        "s0": BIT0, "d0": BIT0, "s2": BIT1, "d2": BIT1,
        "s1": LOSS, "d1": LOSS, NO_CLICK: LOSS, **guards,
    }
    had = {
        "d1": BIT0, "s1": BIT1,
        "s0": LOSS, "d0": LOSS, "s2": LOSS, "d2": LOSS,
        NO_CLICK: LOSS, **guards,
    }
    settings = {
        COMPUTATIONAL: _mz_setting(COMPUTATIONAL, 0.0, outcomes, comp),
        HADAMARD: _mz_setting(HADAMARD, 0.0, dict(outcomes), had),
    }
    source = _time_bin_source(ModeRegistry(channel, max_photons))
    return ReceiverModel("interferometric-defended-10mode", reg, channel,
                         settings, source)


def _make_interferometric_2mode(max_photons: int,
                                variant: str | None) -> ReceiverModel:
    if variant == "single-window":
        reg = fs.interferometer_registry(0, 1, max_photons)
        channel = _channel_bins(reg)
        outcomes = {
            "s1": [PhotonicState.photon(reg, s_out(1))],
            "d1": [PhotonicState.photon(reg, d_out(1))],
            NO_CLICK: [PhotonicState.vacuum(reg)],
        }
        interp = {"d1": BIT0, "s1": BIT1, NO_CLICK: LOSS}
        settings = {
            HADAMARD: _mz_setting(HADAMARD, 0.0, outcomes, interp),
            Y_BASIS: _mz_setting(Y_BASIS, math.pi / 2, dict(outcomes),
                                 dict(interp)),
        }
        source = _time_bin_source(ModeRegistry(channel, max_photons),
                                  bases=(HADAMARD, Y_BASIS))
        return ReceiverModel("interferometric-2mode", reg, channel, settings,
                             source)
    if variant not in (None, "two-window"):
        raise ValueError(f"unknown interferometric-2mode variant {variant!r}")
    reg = fs.interferometer_registry(-1, 2, max_photons)
    channel = _channel_bins(reg)
    comp_outcomes = {
        "d0": [PhotonicState.photon(reg, d_out(0))],
        "s2": [PhotonicState.photon(reg, s_out(2))],
        NO_CLICK: [PhotonicState.vacuum(reg)],
    }
    had_outcomes = {
        "d1": [PhotonicState.photon(reg, d_out(1))],
        "s1": [PhotonicState.photon(reg, s_out(1))],
        NO_CLICK: [PhotonicState.vacuum(reg)],
    }
    settings = {
        COMPUTATIONAL: _mz_setting(
            COMPUTATIONAL, 0.0, comp_outcomes,
            {"d0": BIT0, "s2": BIT1, NO_CLICK: LOSS}),
        HADAMARD: _mz_setting(
            HADAMARD, 0.0, had_outcomes,
            {"d1": BIT0, "s1": BIT1, NO_CLICK: LOSS}),
    }
    source = _time_bin_source(ModeRegistry(channel, max_photons))
    return ReceiverModel("interferometric-2mode", reg, channel, settings,
                         source)


def _make_polarization_threshold() -> ReceiverModel:
    # Threshold detectors saturate: the model is truncated at two photons
    # in total, which is enough to expose the double-click structure.
    reg = fs.registry([pol_h(), pol_v()], max_photons=2)
    channel = (pol_h(), pol_v())
    h, v = pol_h(), pol_v()
    outcomes = {
        "D0": [PhotonicState.basis(reg, occ((h, 1))),
               PhotonicState.basis(reg, occ((h, 2)))],
        "D1": [PhotonicState.basis(reg, occ((v, 1))),
               PhotonicState.basis(reg, occ((v, 2)))],
        "double": [PhotonicState.basis(reg, occ((h, 1), (v, 1)))],
        NO_CLICK: [PhotonicState.vacuum(reg)],
    }
    interp = {"D0": BIT0, "D1": BIT1, "double": INVALID, NO_CLICK: LOSS}
    settings = {
        COMPUTATIONAL: Setting(COMPUTATIONAL, _identity, _identity,
                               outcomes, interp),
        HADAMARD: Setting(HADAMARD, polarization_rotation,
                          polarization_rotation, dict(outcomes), dict(interp)),
    }
    source = _polarization_source(ModeRegistry(channel, 2))
    return ReceiverModel("polarization-threshold", reg, channel, settings,
                         source)


def bright_states(reg: ModeRegistry, photons: int) -> Dict[str, PhotonicState]:
    """The four classical bright pulses a blinded receiver responds to.

    ``b0``/``b1`` are all photons in one polarization mode; ``b+``/``b-``
    are the corresponding balanced binomial superpositions.  The diagonal
    pair is only exponentially close to orthogonal to the rectilinear pair,
    so callers that need projectors should orthonormalize.
    """
    h, v = pol_h(), pol_v()
    k = photons
    states = {
        "b0": PhotonicState.basis(reg, occ((h, k))),
        "b1": PhotonicState.basis(reg, occ((v, k))),
    }
    for name, sign in (("b+", 1.0), ("b-", -1.0)):
        amps = {}
        for l in range(k + 1):
            amps[occ((h, l), (v, k - l))] = (
                math.sqrt(math.comb(k, l)) * sign ** (k - l) / 2 ** (k / 2))
        states[name] = PhotonicState(reg, amps)
    return states


_FORCED_POLARIZATIONS = {
    "H": (COMPUTATIONAL, 0),
    "V": (COMPUTATIONAL, 1),
    "+": (HADAMARD, 0),
    "-": (HADAMARD, 1),
}


def _check_vulnerability_records(records) -> None:
    seen = {}
    for rec in records:
        if isinstance(rec, dict):
            pol = rec.get("polarization")
            basis, bit = rec.get("forced_basis"), rec.get("forced_bit")
        else:
            pol = getattr(rec, "polarization")
            basis, bit = getattr(rec, "forced_basis"), getattr(rec, "forced_bit")
        if pol not in _FORCED_POLARIZATIONS:
            raise ValueError(f"unknown forcing polarization {pol!r}")
        if _FORCED_POLARIZATIONS[pol] != (basis, bit):
            raise ValueError(
                f"record for {pol!r} forces ({basis!r}, {bit!r}); expected "
                f"{_FORCED_POLARIZATIONS[pol]}")
        seen[pol] = (basis, bit)
    missing = set(_FORCED_POLARIZATIONS) - set(seen)
    if missing:
        raise ValueError(
            f"forced-interpretation records missing polarizations "
            f"{sorted(missing)}; cannot derive a bright-pulse receiver")


def _make_blinded_bright(photons: int, from_vulnerabilities=None) -> ReceiverModel:
    if from_vulnerabilities is not None:
        _check_vulnerability_records(from_vulnerabilities)
    reg = fs.registry([pol_h(), pol_v()], max_photons=photons)
    channel = (pol_h(), pol_v())
    named = bright_states(reg, photons)
    ordered = ["b0", "b1", "b+", "b-"]
    ortho = fs.gram_schmidt([named[n] for n in ordered])
    outcomes = {name: [state] for name, state in zip(ordered, ortho)}
    outcomes[NO_CLICK] = [PhotonicState.vacuum(reg)]
    comp = {"b0": BIT0, "b1": BIT1, "b+": FOREIGN, "b-": FOREIGN,
            NO_CLICK: LOSS}
    had = {"b+": BIT0, "b-": BIT1, "b0": FOREIGN, "b1": FOREIGN,
           NO_CLICK: LOSS}
    settings = {
        COMPUTATIONAL: Setting(COMPUTATIONAL, _identity, _identity,
                               outcomes, comp),
        HADAMARD: Setting(HADAMARD, _identity, _identity,
                          dict(outcomes), had),
    }
    # The paired transmitter speaks the receiver's bright-pulse alphabet:
    # single-photon signals are invisible to a blinded device, so the only
    # states worth modelling as inputs are the classical pulses themselves.
    channel_reg = ModeRegistry(channel, photons)
    source = AliceSourceModel(channel_reg, (COMPUTATIONAL, HADAMARD), {
        (COMPUTATIONAL, 0): fs.embedded(ortho[0], channel_reg),
        (COMPUTATIONAL, 1): fs.embedded(ortho[1], channel_reg),
        (HADAMARD, 0): fs.embedded(ortho[2], channel_reg),
        (HADAMARD, 1): fs.embedded(ortho[3], channel_reg),
    })
    return ReceiverModel("blinded-bright", reg, channel, settings, source,
                         passive=True)


def _make_ideal_bb84() -> ReceiverModel:
    reg = fs.registry([pol_h(), pol_v()], max_photons=1)
    channel = (pol_h(), pol_v())
    outcomes = {
        "D0": [PhotonicState.photon(reg, pol_h())],
        "D1": [PhotonicState.photon(reg, pol_v())],
        NO_CLICK: [PhotonicState.vacuum(reg)],
    }
    interp = {"D0": BIT0, "D1": BIT1, NO_CLICK: LOSS}
    settings = {
        COMPUTATIONAL: Setting(COMPUTATIONAL, _identity, _identity,
                               outcomes, interp),
        HADAMARD: Setting(HADAMARD, polarization_rotation,
                          polarization_rotation, dict(outcomes), dict(interp)),
    }
    source = _polarization_source(ModeRegistry(channel, 1))
    return ReceiverModel("ideal-bb84", reg, channel, settings, source)


def make_receiver(kind: str, variant: str | None = None, *,
                  bright_photons: int = 20,
                  max_photons: int = fs.DEFAULT_MAX_PHOTONS,
                  from_vulnerabilities=None) -> ReceiverModel:
    """Build one of the bundled receiver models by kind name.

    ``from_vulnerabilities`` accepts forced-interpretation records from a
    detector fuzzing campaign and is only meaningful for ``blinded-bright``:
    the records are validated for coverage/consistency and the equivalent
    bright-pulse receiver is constructed.
    """
    kind = _KIND_ALIASES.get(kind, kind)
    if kind == "interferometric-6mode":
        return _make_interferometric_6mode(max_photons)
    if kind == "interferometric-defended-10mode":
        return _make_defended_10mode(max_photons)
    if kind == "interferometric-2mode":
        return _make_interferometric_2mode(max_photons, variant)
    if kind == "polarization-threshold":
        return _make_polarization_threshold()
    if kind == "blinded-bright":
        return _make_blinded_bright(bright_photons, from_vulnerabilities)
    if kind == "ideal-bb84":
        return _make_ideal_bb84()
    raise ValueError(f"unknown receiver kind {kind!r}; "
                     f"choose one of {RECEIVER_KINDS}")


def parse_occ(text: str) -> fs.Occupation:
    """Occupation from a config label such as ``custom:0x2+custom:1``."""
    if not text or text == "vacuum":
        return fs.VACUUM
    pairs = []
    for part in text.split("+"):
        label, _, count = part.partition("x")
        pairs.append((Mode.parse(label), int(count or 1)))
    return fs.occ(*pairs)


_JSON_NAMES = {list: "array", dict: "object"}


def _entry(cfg: Mapping, key: str, kind: type, where: str,
           nonempty: bool = False):
    """``cfg[key]``, which must be a JSON value of type ``kind``."""
    if key not in cfg:
        raise ValueError(f"{where} needs a {key!r} entry")
    value = cfg[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be a JSON "
                         f"{_JSON_NAMES[kind]}, got {type(value).__name__}")
    if nonempty and not value:
        raise ValueError(f"{where}: {key!r} must not be empty")
    return value


def _strings(cfg: Mapping, key: str, where: str) -> List[str]:
    """``cfg[key]``, which must be a JSON array of strings."""
    values = _entry(cfg, key, list, where)
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{where}: {key!r} must be an array of strings")
    return values


def _photons(key: str, value) -> int:
    """A photon count from config entry ``key``: an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"receiver config: {key!r} must be an integer "
                         f">= 1, got {value!r}")
    return value


def _complex(pair, where: str) -> complex:
    """A ``[real, imaginary]`` pair of JSON numbers as a complex number."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in pair)):
        raise ValueError(f"{where} {pair!r} is not a [real, imaginary] "
                         f"pair of numbers")
    return complex(*pair)


def _check_orthonormal(name: str, outcomes: Mapping[str, List[PhotonicState]]
                       ) -> None:
    """The detection states of all of a setting's outcomes are orthonormal.

    Overlapping states would count a detection twice, which otherwise
    surfaces only as outcome probabilities that do not sum to one.
    """
    states = [(oid, st) for oid, sts in outcomes.items() for st in sts]
    for i, (oid, a) in enumerate(states):
        for j, (other, b) in enumerate(states[i:], start=i):
            expected = 1.0 if j == i else 0.0
            if abs(fs.inner_product(a, b) - expected) > fs.ATOL:
                which = (f"outcome {oid!r} has a state that is not "
                         f"normalised" if j == i else
                         f"outcomes {oid!r} and {other!r} have states "
                         f"that are not orthogonal")
                raise ValueError(f"setting {name!r}: {which}")


def _custom_setting_from_config(name: str, scfg, reg: ModeRegistry
                                ) -> Setting:
    where = f"setting {name!r}"
    if not isinstance(scfg, dict):
        raise ValueError(f"{where} must be a JSON object")
    input_basis = [parse_occ(t) for t in _strings(scfg, "input_basis", where)]
    output_basis = [parse_occ(t)
                    for t in _strings(scfg, "output_basis", where)]
    rows = _entry(scfg, "matrix", list, where)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{where}: 'matrix' must be an array of rows")
    matrix = np.array([[_complex(v, f"{where}: 'matrix' entry") for v in row]
                       for row in rows])
    lmap = fs.LinearMap(input_basis, output_basis, matrix, isometry=True)
    adj = lmap.adjoint()
    outcome_cfg = _entry(scfg, "outcomes", dict, where)
    outcomes = {oid: [PhotonicState.basis(reg, parse_occ(c))
                      for c in _strings(outcome_cfg, oid, where)]
                for oid in outcome_cfg}
    _check_orthonormal(name, outcomes)
    interpretation = _entry(scfg, "interpretation", dict, where)
    for oid, tag in interpretation.items():
        if not isinstance(tag, str):
            raise ValueError(f"{where}: the interpretation of {oid!r} "
                             f"must be a string")
    return Setting(
        name,
        forward=lambda st, m=lmap: fs.apply_linear_map(st, m),
        reverse=lambda st, m=adj: fs.apply_linear_map(st, m),
        outcomes=outcomes,
        interpretation=dict(interpretation),
    )


def _custom_receiver_from_config(cfg: Mapping) -> ReceiverModel:
    where = "receiver config"
    modes = tuple(Mode.parse(m) for m in _strings(cfg, "modes", where))
    reg = ModeRegistry(modes, _photons(
        "max_photons", cfg.get("max_photons", fs.DEFAULT_MAX_PHOTONS)))
    channel = tuple(Mode.parse(m)
                    for m in _strings(cfg, "channel_modes", where))
    settings = {name: _custom_setting_from_config(name, scfg, reg)
                for name, scfg in _entry(cfg, "settings", dict, where,
                                         nonempty=True).items()}
    source_cfg = _entry(cfg, "source", dict, where, nonempty=True)
    source_states = {}
    bases = []
    for label in source_cfg:
        comps = _entry(source_cfg, label, dict, "source")
        basis, _, bit = label.rpartition("/")
        if basis not in bases:
            bases.append(basis)
        channel_reg = ModeRegistry(channel, reg.max_photons_per_mode)
        amps = {parse_occ(text): _complex(
                    pair, f"source {label!r}: amplitude of {text!r}")
                for text, pair in comps.items()}
        source_states[(basis, int(bit))] = PhotonicState(channel_reg, amps)
    source = AliceSourceModel(ModeRegistry(channel, reg.max_photons_per_mode),
                              tuple(bases), source_states)
    return ReceiverModel(cfg.get("name", "custom"), reg, channel, settings,
                         source, passive=bool(cfg.get("passive", False)))


def receiver_from_config(cfg: Mapping) -> ReceiverModel:
    """Build a receiver from a plain configuration mapping.

    Bundled kinds take keys ``kind`` (required), ``variant``,
    ``bright_photons`` and ``max_photons``.  ``kind: custom`` instead
    expects explicit ``modes``, ``channel_modes``, per-setting isometry
    matrices over labelled occupation bases, ``outcomes`` (whose states
    must be orthonormal), ``interpretation`` tags and ``source`` states.
    Every entry must have the JSON type ``receiver-config.schema.json``
    declares; a wrong one raises ValueError naming the key.
    """
    if "kind" not in cfg:
        raise ValueError("receiver config needs a 'kind' entry")
    if cfg["kind"] == "custom":
        return _custom_receiver_from_config(cfg)
    kwargs = {key: _photons(key, cfg[key])
              for key in ("bright_photons", "max_photons") if key in cfg}
    return make_receiver(cfg["kind"], cfg.get("variant"), **kwargs)


def interpretation_structure(receiver: ReceiverModel) -> Dict[str, Dict[str, frozenset]]:
    """Structural summary: per setting, the outcome ids under each tag.

    Two receivers with equal structures register and interpret detection
    events identically, whatever internal state objects they carry.
    """
    structure: Dict[str, Dict[str, frozenset]] = {}
    for name, setting in receiver.settings.items():
        tags: Dict[str, set] = {}
        for oid, tag in setting.interpretation.items():
            tags.setdefault(tag, set()).add(oid)
        structure[name] = {tag: frozenset(ids) for tag, ids in tags.items()}
    return structure
