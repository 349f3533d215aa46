"""Receiver-side measurement models for BB84 links.

A receiver couples a mode registry, one evolution per measurement setting,
and a partition of detection outcomes into bit values, invalid events and
losses.  The *reversed space* of a receiver is the span of the adjoint
images of all registered outcome states restricted to the channel modes an
adversary can drive: any useful intercept-resend state lives inside it.

Provided device models:
  * ``interferometric-6mode``   time-bin receiver reading all six output bins
  * ``interferometric-defended-10mode`` same optics, guard bins read invalid
  * ``interferometric-2mode``   two-detector time-gated receiver (optional
                                ``single-window`` variant with a phase-shifted
                                second setting)
  * ``polarization-threshold``  two threshold detectors on polarization modes
  * ``blinded-bright``          classical-pulse receiver induced by detector
                                blinding, with passive basis registration
  * ``ideal-bb84``              textbook single-photon polarization receiver
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import fockspace as fs
from .fockspace import (
    Mode, ModeRegistry, PhotonicState, d_out, occ, pol_h, pol_v,
    s_out, t_in,
)
from .output import BIT0, BIT1, COMPUTATIONAL, HADAMARD, INVALID, LOSS, Y_BASIS

# Passive receivers register some outcomes as belonging to the other
# measurement basis; those rounds are discarded at sifting time.
FOREIGN = "foreign-basis"

INTERPRETATION_TAGS = (BIT0, BIT1, INVALID, LOSS, FOREIGN)

NO_CLICK = "no-click"
UNREGISTERED = "unregistered"


@dataclass
class Setting:
    """One measurement configuration: its optics plus an outcome partition.

    ``optics`` is a tuple of interferometers, rotations and linear maps run
    by ``fs.apply_optics``, which also derives the reverse as their adjoint.
    ``outcomes`` maps an outcome id to the orthonormal states spanning its
    detection projector (in the post-evolution space).  Every outcome id
    must carry an interpretation tag.
    """

    name: str
    optics: Tuple
    outcomes: Dict[str, List[PhotonicState]]
    interpretation: Dict[str, str]

    def __post_init__(self):
        self.optics = tuple(self.optics)
        for element in self.optics:
            if not isinstance(element, (fs.InterferometerConfig,
                                        fs.Rotation, fs.LinearMap)):
                raise ValueError(f"setting {self.name!r}: {element!r} is "
                                 f"not an optical element")
        mismatch = set(self.outcomes) ^ set(self.interpretation)
        if mismatch:
            raise ValueError(f"outcomes and interpretation tags disagree on "
                             f"{sorted(mismatch)}")
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


@dataclass(frozen=True)
class ReceiverModel:
    """A receiver: its mode registry, channel modes, settings and source.

    It is frozen because it keeps its reversed-space basis, derived from
    its fields on first use: a receiver whose fields could be reassigned
    would keep a basis that no longer fits them.  ``dataclasses.replace``
    builds a new receiver, which derives its own.  Its settings are not
    edited in place either.
    """

    name: str
    registry: ModeRegistry
    channel_modes: Tuple[Mode, ...]
    settings: Dict[str, Setting]
    source: AliceSourceModel

    def channel_registry(self) -> ModeRegistry:
        return ModeRegistry(self.channel_modes,
                            self.registry.max_photons_per_mode)

    @cached_property
    def _reversed_basis(self) -> Tuple[PhotonicState, ...]:
        """The basis ``reversed_space`` returns, derived on first use."""
        return tuple(_derive_reversed_space(self))


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


def outcome_probabilities(receiver: ReceiverModel, setting_name: str,
                          channel_state: PhotonicState) -> Dict[str, float]:
    """Born probabilities of every registered outcome for a channel state.

    Residual probability mass (components outside all registered detection
    projectors) is reported under ``unregistered``.
    """
    setting = receiver.settings[setting_name]
    st = fs.embedded(channel_state, receiver.registry)
    out = fs.apply_optics(st, setting.optics)
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
    """The occupations the vectors use, in Occupation order, and each
    vector's amplitudes over them; the vectors share one registry."""
    keys = {k for v in vectors for k in v.amplitudes}
    ordered = sorted((vectors[0].registry.occupation_of(k), k) for k in keys)
    mat = np.array([[v.amplitudes.get(k, 0.0) for _, k in ordered]
                    for v in vectors], dtype=complex)
    return [o for o, _ in ordered], mat


def reversed_space(receiver: ReceiverModel) -> List[PhotonicState]:
    """Orthonormal basis of the channel-mode span of all reversed outcomes.

    Every registered outcome state of every setting is pulled back through
    the setting's adjoint evolution; non-channel modes are traced out and
    the supports are collected.  The returned basis is deterministic:
    occupation basis states (vacuum first, then mode order) whenever the
    span is a full coordinate span, otherwise a vacuum-first Gram-Schmidt
    of the collected supports.  It is computed once per receiver, on first
    use, and kept by the receiver; each call returns a new list of it.
    """
    return list(receiver._reversed_basis)


def _derive_reversed_space(receiver: ReceiverModel) -> List[PhotonicState]:
    channel_reg = receiver.channel_registry()
    keep = set(channel_reg.modes)
    raw: List[PhotonicState] = []
    # settings may share optics and outcome states: each pair is pulled
    # back once, keyed by identity while the receiver holds both
    pulled: Dict[Tuple[int, int], List[PhotonicState]] = {}
    for setting in receiver.settings.values():
        for states in setting.outcomes.values():
            for o in states:
                key = (id(setting.optics), id(o))
                if key not in pulled:
                    back = fs.apply_optics(o, setting.optics, adjoint=True)
                    pulled[key] = [fs.embedded(supp, channel_reg) for supp
                                   in fs.support_after_trace(back, keep)]
                raw.extend(pulled[key])
    occs, mat = _occ_matrix(raw)
    rank = int(np.sum(np.linalg.svd(mat, compute_uv=False) > fs.ATOL))
    if rank == len(occs):
        return [PhotonicState.basis(channel_reg, o) for o in occs]
    # 0 is the key of the vacuum in every registry
    ordered = ([v for v in raw if v.amplitudes.keys() == {0}]
               + [v for v in raw if v.amplitudes.keys() != {0}])
    return fs.gram_schmidt(ordered)


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------

def _bin_outcomes(reg: ModeRegistry, clicks: Iterable[str]
                  ) -> Dict[str, List[PhotonicState]]:
    """One outcome per click label (``s2``: straight arm, bin 2), then
    ``no-click``."""
    arms = {"s": s_out, "d": d_out}
    out = {label: [PhotonicState.photon(reg, arms[label[0]](int(label[1:])))]
           for label in clicks}
    out[NO_CLICK] = [PhotonicState.vacuum(reg)]
    return out


_MZ = (fs.InterferometerConfig(),)  # the time-bin receivers' optics


def _channel_bins(reg: ModeRegistry) -> Tuple[Mode, ...]:
    return tuple(m for m in reg.modes if m.kind == fs.CHANNEL)


def _logical_source(channel_reg: ModeRegistry, zero: Mode, one: Mode,
                    bases: Tuple[str, str] = (COMPUTATIONAL, HADAMARD)
                    ) -> AliceSourceModel:
    """Alice's states of ``bases`` on a single photon in ``zero``/``one``."""
    z0 = PhotonicState.photon(channel_reg, zero)
    z1 = PhotonicState.photon(channel_reg, one)
    states = {}
    for basis in bases:
        for bit in (0, 1):
            a0, a1 = LOGICAL_COEFFICIENTS[(basis, bit)]
            states[(basis, bit)] = z0.scaled(a0) + z1.scaled(a1)
    return AliceSourceModel(bases, states)


# ---------------------------------------------------------------------------
# bundled receivers
# ---------------------------------------------------------------------------

def _time_bin_receiver(name: str, first_bin: int, last_bin: int,
                       max_photons: int = fs.DEFAULT_MAX_PHOTONS
                       ) -> ReceiverModel:
    """Both output arms read in bins first..last; bins outside 0..2 are
    guard bins, flagged invalid."""
    reg = fs.interferometer_registry(first_bin - 1, last_bin, max_photons)
    channel = _channel_bins(reg)
    bins = range(first_bin, last_bin + 1)
    outcomes = _bin_outcomes(reg, [f"{arm}{t}" for arm in "sd" for t in bins])
    guards = {f"{arm}{t}": INVALID for t in bins if not 0 <= t <= 2
              for arm in "sd"}
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
        COMPUTATIONAL: Setting(COMPUTATIONAL, _MZ, outcomes, comp),
        HADAMARD: Setting(HADAMARD, _MZ, dict(outcomes), had),
    }
    source = _logical_source(ModeRegistry(channel, max_photons), t_in(0),
                             t_in(1))
    return ReceiverModel(name, reg, channel, settings, source)


def _interferometric_2mode(variant: str = "two-window",
                           max_photons: int = fs.DEFAULT_MAX_PHOTONS
                           ) -> ReceiverModel:
    """Two time-gated detectors: ``two-window`` reads bins 0 and 2, then
    bin 1; ``single-window`` reads bin 1 under two phases."""
    if variant == "single-window":
        reg = fs.interferometer_registry(0, 1, max_photons)
        outcomes = _bin_outcomes(reg, ("s1", "d1"))
        interp = {"d1": BIT0, "s1": BIT1, NO_CLICK: LOSS}
        settings = {
            HADAMARD: Setting(HADAMARD, _MZ, outcomes, interp),
            Y_BASIS: Setting(Y_BASIS, (fs.InterferometerConfig(math.pi / 2),),
                             dict(outcomes), dict(interp)),
        }
        bases = (HADAMARD, Y_BASIS)
    elif variant == "two-window":
        reg = fs.interferometer_registry(-1, 2, max_photons)
        settings = {
            COMPUTATIONAL: Setting(
                COMPUTATIONAL, _MZ, _bin_outcomes(reg, ("d0", "s2")),
                {"d0": BIT0, "s2": BIT1, NO_CLICK: LOSS}),
            HADAMARD: Setting(
                HADAMARD, _MZ, _bin_outcomes(reg, ("d1", "s1")),
                {"d1": BIT0, "s1": BIT1, NO_CLICK: LOSS}),
        }
        bases = (COMPUTATIONAL, HADAMARD)
    else:
        raise ValueError(f"unknown interferometric-2mode variant {variant!r}; "
                         f"choose two-window or single-window")
    channel = _channel_bins(reg)
    source = _logical_source(ModeRegistry(channel, max_photons), t_in(0),
                             t_in(1), bases)
    return ReceiverModel("interferometric-2mode", reg, channel, settings,
                         source)


def _polarization_receiver(name: str, photons: int) -> ReceiverModel:
    """Detectors on H and V behind identity optics, then a 45-degree
    rotation.  Above one photon per mode they are saturating threshold
    detectors; a cap of two exposes their invalid double clicks."""
    reg = fs.registry([pol_h(), pol_v()], max_photons=photons)
    channel = (pol_h(), pol_v())
    h, v = channel
    outcomes = {
        "D0": [PhotonicState.basis(reg, occ((h, n)))
               for n in range(1, photons + 1)],
        "D1": [PhotonicState.basis(reg, occ((v, n)))
               for n in range(1, photons + 1)],
    }
    interp = {"D0": BIT0, "D1": BIT1}
    if photons > 1:
        outcomes["double"] = [PhotonicState.basis(reg, occ((h, 1), (v, 1)))]
        interp["double"] = INVALID
    outcomes[NO_CLICK] = [PhotonicState.vacuum(reg)]
    interp[NO_CLICK] = LOSS
    settings = {
        COMPUTATIONAL: Setting(COMPUTATIONAL, (), outcomes, interp),
        HADAMARD: Setting(HADAMARD, (fs.Rotation((h, v)),), dict(outcomes),
                          dict(interp)),
    }
    source = _logical_source(ModeRegistry(channel, photons), h, v)
    return ReceiverModel(name, reg, channel, settings, source)


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
    """Each record is a mapping that forces its polarization's (basis,
    bit), and every polarization has a record."""
    seen = {}
    for rec in records:
        if not isinstance(rec, Mapping):
            raise ValueError(f"vulnerability record {rec!r} is not a mapping")
        pol = rec.get("polarization")
        basis, bit = rec.get("forced_basis"), rec.get("forced_bit")
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


def _blinded_bright(bright_photons: int = 20,
                    from_vulnerabilities=None) -> ReceiverModel:
    if from_vulnerabilities is not None:
        _check_vulnerability_records(from_vulnerabilities)
    reg = fs.registry([pol_h(), pol_v()], max_photons=bright_photons)
    channel = (pol_h(), pol_v())
    named = bright_states(reg, bright_photons)
    ordered = ["b0", "b1", "b+", "b-"]
    ortho = fs.gram_schmidt([named[n] for n in ordered])
    outcomes = {name: [state] for name, state in zip(ordered, ortho)}
    outcomes[NO_CLICK] = [PhotonicState.vacuum(reg)]
    comp = {"b0": BIT0, "b1": BIT1, "b+": FOREIGN, "b-": FOREIGN,
            NO_CLICK: LOSS}
    had = {"b+": BIT0, "b-": BIT1, "b0": FOREIGN, "b1": FOREIGN,
           NO_CLICK: LOSS}
    settings = {
        COMPUTATIONAL: Setting(COMPUTATIONAL, (), outcomes, comp),
        HADAMARD: Setting(HADAMARD, (), dict(outcomes), had),
    }
    # The paired transmitter speaks the receiver's bright-pulse alphabet:
    # single-photon signals are invisible to a blinded device, so the only
    # states worth modelling as inputs are the classical pulses themselves.
    channel_reg = ModeRegistry(channel, bright_photons)
    bases = (COMPUTATIONAL, HADAMARD)
    source = AliceSourceModel(bases, {
        (basis, bit): fs.embedded(ortho[2 * i + bit], channel_reg)
        for i, basis in enumerate(bases) for bit in (0, 1)})
    return ReceiverModel("blinded-bright", reg, channel, settings, source)


# Every bundled receiver kind and its builder.  The keywords a kind reads
# are its builder's parameters; the builder's defaults are the kind's.
_BUNDLED: Dict[str, Callable[..., ReceiverModel]] = {
    "interferometric-6mode": partial(
        _time_bin_receiver, "interferometric-6mode", 0, 2),
    "interferometric-2mode": _interferometric_2mode,
    "interferometric-defended-10mode": partial(
        _time_bin_receiver, "interferometric-defended-10mode", -1, 3),
    "polarization-threshold": partial(
        _polarization_receiver, "polarization-threshold", 2),
    "blinded-bright": _blinded_bright,
    "ideal-bb84": partial(_polarization_receiver, "ideal-bb84", 1),
}

RECEIVER_KINDS = tuple(_BUNDLED)


def make_receiver(kind: str, variant: str | None = None,
                  **options) -> ReceiverModel:
    """Build one of the bundled receiver models by kind name.

    ``kind`` is one of ``RECEIVER_KINDS``, spelled in full.  A kind reads
    the parameters of its builder in ``_BUNDLED`` (tabled in README.md);
    ``variant=None`` means none was given.  Any other kind name, or a
    keyword the kind does not read, raises ValueError.  ``bright_photons``
    and ``max_photons`` cap the registry's photons per mode: an integer
    >= 1 (an integral float is taken as its integer), or FockError names
    the keyword.
    ``from_vulnerabilities`` (``blinded-bright``) takes forced-interpretation
    records from a fuzz campaign, checked for coverage and consistency.
    """
    builder = _BUNDLED.get(kind)
    if builder is None:
        raise ValueError(f"unknown receiver kind {kind!r}; "
                         f"choose one of {RECEIVER_KINDS}")
    if variant is not None:
        options["variant"] = variant
    unread = sorted(set(options) - set(inspect.signature(builder).parameters))
    if unread:
        raise ValueError(f"receiver kind {kind!r} does not read {unread}")
    for key in ("bright_photons", "max_photons"):
        if key in options:
            options[key] = _photon_cap(key, options[key])
    return builder(**options)


def _photon_cap(key: str, value) -> int:
    """``value``, given as keyword ``key``, as a registry's photon cap."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()) \
            or value < 1:
        raise fs.FockError(f"{key} must be an integer >= 1 (the registry's "
                           f"max_photons_per_mode), got {value!r}")
    return int(value)


def parse_occ(text: str) -> fs.Occupation:
    """Occupation from a config label such as ``custom:0x2+custom:1``."""
    if not text or text == "vacuum":
        return fs.VACUUM
    pairs = []
    for part in text.split("+"):
        label, _, count = part.partition("x")
        pairs.append((Mode.parse(label), int(count or 1)))
    return fs.occ(*pairs)


_JSON_NAMES = {list: "array", dict: "object", str: "string"}

# The keys receiver-config.schema.json declares for each shape of config.
_BUNDLED_KEYS = ("kind", "variant", "bright_photons", "max_photons")
_CUSTOM_KEYS = ("kind", "name", "modes", "channel_modes", "max_photons",
                "settings", "source")
_SETTING_KEYS = ("input_basis", "output_basis", "matrix", "outcomes",
                 "interpretation")


def _known_keys(cfg: Mapping, keys: Sequence[str], where: str) -> None:
    """``cfg`` holds no key outside ``keys``."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; "
                         f"expected some of {list(keys)}")


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
    """A ``[real, imaginary]`` pair of JSON numbers, each finite as a
    float, as a complex number."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max for x in pair)):
        raise ValueError(f"{where} {pair!r} is not a [real, imaginary] "
                         f"pair of finite numbers")
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
    _known_keys(scfg, _SETTING_KEYS, where)
    input_basis = [parse_occ(t) for t in _strings(scfg, "input_basis", where)]
    output_basis = [parse_occ(t)
                    for t in _strings(scfg, "output_basis", where)]
    rows = _entry(scfg, "matrix", list, where)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{where}: 'matrix' must be an array of rows")
    matrix = np.array([[_complex(v, f"{where}: 'matrix' entry") for v in row]
                       for row in rows])
    lmap = fs.LinearMap(input_basis, output_basis, matrix, isometry=True)
    for occupation in input_basis + output_basis:
        reg.check_occupation(occupation)
    outcome_cfg = _entry(scfg, "outcomes", dict, where)
    outcomes = {}
    for oid in outcome_cfg:
        texts = _strings(outcome_cfg, oid, where)
        stray = [t for t in texts if parse_occ(t) not in output_basis]
        if stray:
            raise ValueError(f"{where}: outcome {oid!r} detects {stray}, "
                             f"which its 'output_basis' does not hold")
        outcomes[oid] = [PhotonicState.basis(reg, parse_occ(t))
                         for t in texts]
    _check_orthonormal(name, outcomes)
    interpretation = _entry(scfg, "interpretation", dict, where)
    for oid, tag in interpretation.items():
        if not isinstance(tag, str):
            raise ValueError(f"{where}: the interpretation of {oid!r} "
                             f"must be a string")
    return Setting(name, (lmap,), outcomes, dict(interpretation))


def _source_label(label: str) -> Tuple[str, int]:
    """(basis, bit) of a source label ``<basis>/<bit>``."""
    basis, _, bit = label.rpartition("/")
    if bit not in ("0", "1") or (basis, int(bit)) not in LOGICAL_COEFFICIENTS:
        bases = sorted({b for b, _ in LOGICAL_COEFFICIENTS})
        raise ValueError(f"source label {label!r} is not <basis>/<bit> with "
                         f"a basis in {bases} and a bit 0 or 1")
    return basis, int(bit)


def _custom_receiver_from_config(cfg: Mapping) -> ReceiverModel:
    where = "receiver config"
    _known_keys(cfg, _CUSTOM_KEYS, where)
    name = _entry(cfg, "name", str, where) if "name" in cfg else "custom"
    modes = tuple(Mode.parse(m) for m in _strings(cfg, "modes", where))
    reg = ModeRegistry(modes, _photons(
        "max_photons", cfg.get("max_photons", fs.DEFAULT_MAX_PHOTONS)))
    channel = tuple(Mode.parse(m)
                    for m in _strings(cfg, "channel_modes", where))
    stray = [str(m) for m in channel if m not in modes]
    if stray:
        raise ValueError(f"{where}: 'channel_modes' names {stray}, which "
                         f"'modes' does not hold")
    settings = {name: _custom_setting_from_config(name, scfg, reg)
                for name, scfg in _entry(cfg, "settings", dict, where,
                                         nonempty=True).items()}
    source_cfg = _entry(cfg, "source", dict, where, nonempty=True)
    channel_reg = ModeRegistry(channel, reg.max_photons_per_mode)
    source_states = {}
    bases = []
    for label in source_cfg:
        comps = _entry(source_cfg, label, dict, "source")
        basis, bit = _source_label(label)
        if basis not in bases:
            bases.append(basis)
        amps = {parse_occ(text): _complex(
                    pair, f"source {label!r}: amplitude of {text!r}")
                for text, pair in comps.items()}
        source_states[(basis, bit)] = PhotonicState(channel_reg, amps)
        for sname, setting in settings.items():
            (lmap,) = setting.optics
            stray = [text for text in comps
                     if parse_occ(text) not in lmap.input_basis]
            if stray:
                raise ValueError(
                    f"source {label!r} holds {stray}, which the "
                    f"'input_basis' of setting {sname!r} does not hold")
    missing = [f"{basis}/{bit}" for basis in bases for bit in (0, 1)
               if (basis, bit) not in source_states]
    if missing:
        raise ValueError(f"source: every basis needs both bits; the labels "
                         f"{missing} are missing")
    source = AliceSourceModel(tuple(bases), source_states)
    return ReceiverModel(name, reg, channel, settings, source)


def receiver_from_config(cfg: Mapping) -> ReceiverModel:
    """Build a receiver from a plain configuration mapping.

    A bundled kind takes ``kind``, one of ``RECEIVER_KINDS``, plus those
    of ``variant``, ``bright_photons`` and ``max_photons`` that
    ``make_receiver`` reads for it.  ``kind: custom`` instead expects
    explicit ``modes``, ``channel_modes``, per-setting isometry matrices
    over labelled occupation bases, ``outcomes`` (whose states must be
    orthonormal), ``interpretation`` tags and ``source`` states, and
    optionally ``name`` and ``max_photons``.  A key ``receiver-config.schema.json`` does not
    declare, a key the kind does not read, or an entry of the wrong JSON
    type raises ValueError naming the key.
    """
    kind = _entry(cfg, "kind", str, "receiver config")
    if kind == "custom":
        return _custom_receiver_from_config(cfg)
    _known_keys(cfg, _BUNDLED_KEYS, f"receiver config of kind {kind!r}")
    options = {key: _photons(key, cfg[key])
               for key in ("bright_photons", "max_photons") if key in cfg}
    variant = cfg.get("variant")
    if not isinstance(variant, (str, type(None))):
        raise ValueError(f"receiver config: 'variant' must be a JSON string "
                         f"or null, got {type(variant).__name__}")
    return make_receiver(kind, variant, **options)


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
