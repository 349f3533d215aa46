"""Sparse multimode Fock-space states and linear-optics evolutions.

States are finite complex combinations of photon-occupation basis states over
a declared registry of optical modes.  Modes are labelled by (kind, index)
pairs, e.g. channel time bins, blocked-arm time bins, interferometer output
arms, or polarization modes.  All evolutions are substitution homomorphisms on
creation operators, so multi-photon inputs are handled exactly.

Every mode evolution runs on one two-mode kernel: the beam splitter, the
45-degree rotation, the phase shifter and the Mach-Zehnder interferometer.
Only `apply_linear_map` works otherwise, on the explicit occupation-basis
matrices of custom receivers.  The interferometer is applied as the product
of its physical factors (Reck et al., PRL 73, 58 (1994)): the first splitter
sends each (channel, blocked) bin pair into a short and a long arm, the long
arm is delayed and phase-shifted, and the second splitter recombines the arms
of each exit bin.  Each factor is a two-mode substitution applied to the
whole state, and equal occupations are merged after every factor, so the
intermediate state never outgrows the answer.  The arm modes are private keys
of this module: they are never a `Mode`, never in a registry, and never reach
a caller.  The reverse interferometer is not tabulated separately: it is the
reversed product of the adjoint factors.  `apply_optics` runs a receiver
setting's interferometers, rotations and linear maps in the same way: in
order, or their adjoints in reverse order.

Inside the kernel a component is keyed by one int rather than by an
occupation.  Each plan position (a mode or a private arm key) is a field of w
bits holding its photon count, where w is the bit length of the largest
photon number among the state's components; splitters conserve each
component's photon number, so no field overflows.  A splitter reads its two
source fields by shift and mask and writes its targets from a cached table of
offsets.  Keys are packed once on the way in and only the fields that can
hold photons are unpacked on the way out, so callers still see `Occupation`
keys.

Conventions:
  * symmetric 50/50 beam splitter: transmission amplitude 1/sqrt(2),
    reflection amplitude i/sqrt(2).  The kernel applies the exact Gaussian-
    integer splitter ((1, i), (i, 1)) and scales each output component once,
    by 2**(-n/2) per splitter crossed by its n photons, so a photon through
    the interferometer gets exactly 0.5 rather than (1/sqrt(2))**2.
  * 45-degree rotation: the exact integer ((1, 1), (1, -1)), scaled the
    same way, so a single photon gets exactly 1/sqrt(2) on each output.
  * phase shifter on a mode: |n> -> exp(i*n*phi) |n>
  * amplitudes below PRUNE_EPS are dropped; state comparisons use ATOL
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

# Amplitude pruning threshold: components smaller than this are discarded.
PRUNE_EPS = 1e-12
# Numeric comparison tolerance for norms, overlaps and orthogonality checks.
ATOL = 1e-9
# Default per-mode photon cap; exceeding it is an explicit error.
DEFAULT_MAX_PHOTONS = 10

# Mode kinds.
CHANNEL = "channel-time-bin"      # input time bins travelling to the receiver
BLOCKED = "blocked-time-bin"      # interferometer blocked-arm time bins
OUT_S = "output-straight"         # straight output arm time bins
OUT_D = "output-down"             # down output arm time bins
POL_H = "polarization-H"
POL_V = "polarization-V"
CUSTOM = "custom"

MODE_KINDS = (CHANNEL, BLOCKED, OUT_S, OUT_D, POL_H, POL_V, CUSTOM)


class FockError(ValueError):
    """Base class for Fock-space usage errors."""


class RegistryMismatchError(FockError):
    """Two states from different mode registries were combined."""


class PhotonCapError(FockError):
    """An operation tried to exceed the registry's per-mode photon cap."""


class Mode(tuple):
    """A single optical mode, identified by (kind, index).

    A mode is the tuple ``(kind, index)``, so it hashes, compares and sorts
    as that tuple does, in C.  The interferometer's private arm keys are
    plain tuples whose kinds are not in MODE_KINDS, so no mode equals one.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Mode":
        if kind not in MODE_KINDS:
            raise FockError(f"unknown mode kind {kind!r}")
        if type(index) is not int:
            # an integral index of another type is stored as an int, so
            # every mode's label parses back to the same mode
            index = _integer(index, f"index of a {kind!r} mode")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0), doc="The mode kind, one of MODE_KINDS.")
    index = property(itemgetter(1), doc="The integer index within the kind.")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Mode(kind={self[0]!r}, index={self[1]!r})"

    def __str__(self):
        return f"{self[0]}:{self[1]}"

    @staticmethod
    def parse(text: str) -> "Mode":
        kind, _, idx = text.rpartition(":")
        if not kind:
            raise FockError(f"mode label {text!r} is not of the form kind:index")
        try:
            index = int(idx)
        except ValueError:
            raise FockError(
                f"mode label {text!r} has no integer index") from None
        return Mode(kind, index)


def t_in(i: int) -> Mode:
    return Mode(CHANNEL, i)


def blocked(i: int) -> Mode:
    return Mode(BLOCKED, i)


def s_out(i: int) -> Mode:
    return Mode(OUT_S, i)


def d_out(i: int) -> Mode:
    return Mode(OUT_D, i)


def pol_h() -> Mode:
    return Mode(POL_H, 0)


def pol_v() -> Mode:
    return Mode(POL_V, 0)


# An occupation is a sorted tuple of (Mode, count>0) pairs; () is the vacuum.
Occupation = Tuple[Tuple[Mode, int], ...]

VACUUM: Occupation = ()


def _integer(value, what: str) -> int:
    """`value` as an int; a bool or a non-integral number is an error."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise FockError(f"{what} must be an integer, got {value!r}")
    return int(value)


def occ(*pairs) -> Occupation:
    """Build an occupation from (mode, count) pairs, dropping zero counts.

    Each mode may be named once: naming it twice would make a second key
    for one occupation, with the mode's photons split across two entries
    that are each checked against the cap alone.
    """
    items = []
    named = set()
    for m, n in pairs:
        if not isinstance(m, Mode):
            raise FockError(f"an occupation pairs a Mode with a count; "
                            f"got {m!r} for the mode")
        if m in named:
            raise FockError(f"mode {m} is named twice in one occupation")
        named.add(m)
        if type(n) is not int:
            n = _integer(n, f"photon count in mode {m}")
        if n < 0:
            raise FockError(f"negative photon count {n} in mode {m}")
        if n:
            items.append((m, n))
    return tuple(sorted(items))


def single(mode: Mode) -> Occupation:
    """One photon in `mode`."""
    return ((mode, 1),)


@dataclass(frozen=True)
class ModeRegistry:
    """The declared mode universe a state lives in, plus the photon cap."""

    modes: Tuple[Mode, ...]
    max_photons_per_mode: int = DEFAULT_MAX_PHOTONS

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise FockError("duplicate modes in registry")
        cap = _integer(self.max_photons_per_mode, "max_photons_per_mode")
        if cap < 1:
            raise FockError(f"max_photons_per_mode must be >= 1, got {cap}")
        object.__setattr__(self, "max_photons_per_mode", cap)

    @cached_property
    def _index(self) -> Dict[Mode, int]:
        return {mode: i for i, mode in enumerate(self.modes)}

    def __contains__(self, mode: Mode) -> bool:
        return mode in self._index

    def check_occupation(self, occupation: Occupation):
        for mode, count in occupation:
            # a plain (kind, index) tuple equals its Mode but is not one
            if mode not in self._index or type(mode) is not Mode:
                raise FockError(f"mode {mode} not in registry")
            if count > self.max_photons_per_mode:
                raise PhotonCapError(
                    f"{count} photons in mode {mode} exceeds the per-mode cap "
                    f"of {self.max_photons_per_mode}"
                )


def registry(modes: Iterable[Mode], max_photons: int = DEFAULT_MAX_PHOTONS) -> ModeRegistry:
    return ModeRegistry(tuple(modes), max_photons)


def interferometer_registry(t_min: int, t_max: int,
                            max_photons: int = DEFAULT_MAX_PHOTONS) -> ModeRegistry:
    """Registry for Mach-Zehnder workflows over input bins t_min..t_max.

    Contains channel and blocked-arm bins t_min..t_max and output-arm bins
    t_min..t_max+1 (an interferometer with one bin of delay can emit one bin
    later than its latest input).
    """
    modes: List[Mode] = []
    for t in range(t_min, t_max + 1):
        modes.append(t_in(t))
        modes.append(blocked(t))
    for t in range(t_min, t_max + 2):
        modes.append(s_out(t))
        modes.append(d_out(t))
    return ModeRegistry(tuple(modes), max_photons)


def _pruned(amplitudes: Dict[Occupation, complex]) -> Dict[Occupation, complex]:
    """The amplitudes above PRUNE_EPS in magnitude (and NaN), as complex."""
    return {occupation: complex(amp) for occupation, amp in amplitudes.items()
            if not abs(amp) <= PRUNE_EPS}


class PhotonicState:
    """A sparse complex amplitude map over occupation basis states."""

    __slots__ = ("registry", "amplitudes")

    def __init__(self, reg: ModeRegistry, amplitudes: Dict[Occupation, complex] | None = None):
        self.registry = reg
        self.amplitudes = _pruned(amplitudes or {})
        for occupation in self.amplitudes:
            reg.check_occupation(occupation)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, reg: ModeRegistry,
                 amplitudes: Dict[Occupation, complex]) -> "PhotonicState":
        """Wrap complex amplitudes already pruned and checked against `reg`."""
        state = cls.__new__(cls)
        state.registry = reg
        state.amplitudes = amplitudes
        return state

    @staticmethod
    def vacuum(reg: ModeRegistry) -> "PhotonicState":
        return PhotonicState(reg, {VACUUM: 1.0})

    @staticmethod
    def basis(reg: ModeRegistry, occupation: Occupation) -> "PhotonicState":
        return PhotonicState(reg, {occupation: 1.0})

    @staticmethod
    def photon(reg: ModeRegistry, mode: Mode) -> "PhotonicState":
        return PhotonicState(reg, {single(mode): 1.0})

    # -- algebra -----------------------------------------------------------

    def _require_same_registry(self, other: "PhotonicState"):
        if self.registry != other.registry:
            raise RegistryMismatchError("states live in different mode registries")

    def __add__(self, other: "PhotonicState") -> "PhotonicState":
        self._require_same_registry(other)
        amps = dict(self.amplitudes)
        for occupation, amp in other.amplitudes.items():
            amps[occupation] = amps.get(occupation, 0.0) + amp
        return PhotonicState._trusted(self.registry, _pruned(amps))

    def __sub__(self, other: "PhotonicState") -> "PhotonicState":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState._trusted(self.registry, _pruned(
            {occupation: amp * factor for occupation, amp in self.amplitudes.items()}))

    def __mul__(self, factor: complex) -> "PhotonicState":
        return self.scaled(factor)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "PhotonicState":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise FockError("cannot normalize a (numerically) zero state")
        return self.scaled(1.0 / n)

    def amplitude(self, occupation: Occupation) -> complex:
        return self.amplitudes.get(occupation, 0.0)

    def close_to(self, other: "PhotonicState", atol: float = ATOL) -> bool:
        self._require_same_registry(other)
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(abs(self.amplitude(k) - other.amplitude(k)) <= atol for k in keys)

    def __repr__(self):
        terms = []
        for occupation, amp in sorted(self.amplitudes.items()):
            ket = "|vac>" if not occupation else "|" + ",".join(
                f"{m}^{n}" if n > 1 else str(m) for m, n in occupation) + ">"
            terms.append(f"({amp:.4g}){ket}")
        return " + ".join(terms) if terms else "0"


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b> with the occupation basis orthonormal.

    Raises RegistryMismatchError when the two states were built over
    different mode registries.
    """
    a._require_same_registry(b)
    if len(b.amplitudes) < len(a.amplitudes):
        return complex(inner_product(b, a).conjugate())
    other = b.amplitudes.get
    # a plain left-to-right loop: sum() may compensate complex terms
    total = 0
    for occupation, amp in a.amplitudes.items():
        total += amp.conjugate() * other(occupation, 0j)
    return total


# ---------------------------------------------------------------------------
# The two-mode kernel: splitters, rotations, phases and the interferometer
# ---------------------------------------------------------------------------

# Exact 50/50 splitter, unnormalized: row i is the image of input i on the
# two outputs, a^dag -> a'^dag + i b'^dag and b^dag -> i a'^dag + b'^dag.
_SPLITTER = ((1 + 0j, 1j), (1j, 1 + 0j))
# Exact 45-degree rotation, unnormalized: a^dag -> a'^dag + b'^dag and
# b^dag -> a'^dag - b'^dag.
_ROTATION = ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j))
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _dagger(u):
    return tuple(tuple(u[j][i].conjugate() for j in range(2)) for i in range(2))


@lru_cache(maxsize=None)
def _pair_table(k1: int, k2: int, u) -> Tuple[Tuple[int, complex], ...]:
    """|k1, k2> through the unnormalized splitter u, as (m1, coeff) pairs.

    coeff is the amplitude of |m1, k1 + k2 - m1>: the Gaussian-integer
    coefficient of x^m1 y^m2 in (u00 x + u01 y)^k1 (u10 x + u11 y)^k2 times
    the bosonic factor sqrt(m1! m2! / (k1! k2!)).  Vanishing terms (the
    Hong-Ou-Mandel cancellations) are left out.
    """
    poly = [1 + 0j]  # poly[j]: coefficient of x^j y^(degree - j)
    for row, count in ((u[0], k1), (u[1], k2)):
        for _ in range(count):
            shifted = [0j] + [c * row[0] for c in poly]
            poly = [s + c * row[1] for s, c in zip(shifted, poly + [0j])]
    total = k1 + k2
    norm = math.factorial(k1) * math.factorial(k2)
    return tuple(
        (m1, g * math.sqrt(math.factorial(m1) * math.factorial(total - m1) / norm))
        for m1, g in enumerate(poly) if g)


class _Split(NamedTuple):
    """Splitter u from the `sources` mode pair into the `targets` pair."""

    sources: tuple
    targets: tuple
    u: tuple

    def adjoint(self) -> "_Split":
        return _Split(self.targets, self.sources, _dagger(self.u))


class _Phase(NamedTuple):
    """|n> -> e**n |n>, n the photons in `modes`, for the phase factor e
    given when the plan runs; its conjugate when `conjugate` is set."""

    modes: tuple
    conjugate: bool = False

    def adjoint(self) -> "_Phase":
        return _Phase(self.modes, not self.conjugate)


@lru_cache(maxsize=None)
def _offsets(k1: int, k2: int, u, c: int,
             d: int) -> Tuple[Tuple[int, complex], ...]:
    """`_pair_table(k1, k2, u)` with each m1 replaced by the bits of
    |m1, k1 + k2 - m1> in the fields at shifts c and d."""
    total = k1 + k2
    return tuple((m1 << c | (total - m1) << d, coeff)
                 for m1, coeff in _pair_table(k1, k2, u))


def _split(amps: dict, a: int, b: int, c: int, d: int, field: int,
           u) -> dict:
    """Send the fields at shifts a, b through splitter u into the fields at
    shifts c, d and merge; `field` is the mask of one field.

    Targets must be empty or be sources, so they are overwritten.  Merged
    components that cancel are dropped.
    """
    clear = ~(field << a | field << b)
    out: dict = {}
    get = out.get
    merged = False
    for key, v in amps.items():
        k1 = key >> a & field
        k2 = key >> b & field
        if not (k1 or k2):
            out[key] = v  # no produced component has a and b both empty
            continue
        rest = key & clear
        for offset, coeff in _offsets(k1, k2, u, c, d):
            new = rest | offset
            old = get(new)
            if old is None:
                out[new] = v * coeff
            else:
                out[new] = old + v * coeff
                merged = True
    if merged:
        return {key: v for key, v in out.items() if abs(v) > PRUNE_EPS}
    return out


def _phase(amps: dict, shifts: List[int], field: int, e: complex) -> dict:
    powers = [1.0, e]
    out = {}
    for key, v in amps.items():
        n = 0
        for s in shifts:
            n += key >> s & field
        if n:
            while len(powers) <= n:
                powers.append(powers[-1] * e)
            v = v * powers[n]
        out[key] = v
    return out


class _Plan(NamedTuple):
    """Factors compiled to plan positions.

    `modes` (every mode named, in mode order) take the first positions,
    then the private arm keys.  `ops` are the factors with each mode or arm
    key replaced by its position.
    """

    factors: tuple
    modes: Tuple[Mode, ...]
    pos: Dict[object, int]
    ops: tuple
    crossings: int  # splitters in a row that each photon crosses


def _compile(factors, passing: Iterable[Mode] = ()) -> _Plan:
    """Lay out the modes the factors name, plus `passing` modes that the
    factors leave alone."""
    named = set(passing)
    for f in factors:
        named.update(f.modes if isinstance(f, _Phase) else f.sources + f.targets)
    modes = sorted(k for k in named if isinstance(k, Mode))
    arms = sorted(k for k in named if not isinstance(k, Mode))
    pos = {k: p for p, k in enumerate(modes + arms)}
    depth: Dict[object, int] = {}
    for f in factors:
        if isinstance(f, _Split):
            depth.update(dict.fromkeys(
                f.targets, 1 + max(depth.get(k, 0) for k in f.sources)))
    ops = tuple(
        _Phase(tuple(pos[k] for k in f.modes), f.conjugate)
        if isinstance(f, _Phase)
        else _Split(tuple(pos[k] for k in f.sources),
                    tuple(pos[k] for k in f.targets), f.u)
        for f in factors)
    return _Plan(tuple(factors), tuple(modes), pos, ops,
                 max(depth.values(), default=0))


_count = itemgetter(1)  # the count of a (mode, count) pair


def _census(state: PhotonicState) -> Tuple[Dict[Mode, int], int]:
    """The modes the components use, as dict keys in the order the
    components first name them, and the largest photon number of a
    component."""
    used: Dict[Mode, int] = {}
    top = 0
    for occupation in state.amplitudes:
        used.update(occupation)
        n = sum(map(_count, occupation))
        if n > top:
            top = n
    return used, top


def _evolve(state: PhotonicState, census, plan: _Plan,
            e: complex = 1.0) -> PhotonicState:
    """Apply the plan's factors in order to the whole state, merging after
    each; `census` is `_census(state)` and `e` the phase factor of its
    phase shifts.

    Each component is keyed by one int: plan position p is the field of
    `w` bits at shift p*w, its photon count, with `w` the bit length of the
    largest photon number among the components.  Splitters conserve each
    component's photon number, so no field overflows.

    Splitters whose sources are still empty are skipped.  Each photon a
    splitter has touched has crossed `plan.crossings` splitters, so each
    output component is scaled once by 2**(-crossings*n/2), n its photons
    that a splitter touched.
    """
    pos = plan.pos
    used, top = census
    if not used.keys() <= pos.keys():  # modes the factors pass through
        return _evolve(state, census, _compile(plan.factors, used), e)
    w = top.bit_length() or 1
    shifts = {m: pos[m] * w for m in used}
    amps = {}
    for occupation, amp in state.amplitudes.items():
        key = 0
        for m, n in occupation:
            key |= n << shifts[m]
        amps[key] = amp
    live = {pos[m] for m in used}
    field = (1 << w) - 1
    untouched = set(live)
    for op in plan.ops:
        if isinstance(op, _Phase):
            lit = [p * w for p in op.modes if p in live]
            if lit:
                amps = _phase(amps, lit, field,
                              e.conjugate() if op.conjugate else e)
            continue
        (a, b), (c, d) = op.sources, op.targets
        if a in live or b in live:
            amps = _split(amps, a * w, b * w, c * w, d * w, field, op.u)
            live -= {a, b}
            live |= {c, d}
            untouched -= {a, b}
    return _to_state(state.registry, amps, plan, w, top, live, untouched)


def _to_state(reg: ModeRegistry, amps: dict, plan: _Plan, w: int, top: int,
              live: set, untouched: set) -> PhotonicState:
    """Scale, prune and check packed keys, then key them by Occupation.

    Only `live` positions can hold photons, so only their fields are read;
    positions past `plan.modes` are arm keys, which are empty by now.  No
    count exceeds `top`, the largest photon number among the components.
    """
    modes, field = plan.modes, (1 << w) - 1
    fields = [(p * w, modes[p]) for p in sorted(live) if p < len(modes)]
    outside = [(s, m) for s, m in fields if m not in reg]
    touched = [p * w for p in live - untouched]
    cap = reg.max_photons_per_mode
    scales: Dict[int, float] = {}
    result: Dict[Occupation, complex] = {}
    for key, v in amps.items():
        n = 0
        for s in touched:
            n += key >> s & field
        if n not in scales:
            h = plan.crossings * n
            scales[n] = 0.5 ** (h >> 1) * (_INV_SQRT2 if h & 1 else 1.0)
        x = v * scales[n]
        if abs(x) <= PRUNE_EPS:
            continue
        for s, m in outside:
            if key >> s & field:
                raise FockError(f"mode {m} not in registry")
        occupation = tuple([(m, count) for s, m in fields
                            if (count := key >> s & field)])
        if top > cap and max((count for _, count in occupation),
                             default=0) > cap:
            reg.check_occupation(occupation)
        # adding 0.0 clears the negative zeros left by the +-i products
        result[occupation] = 0.0 + x
    return PhotonicState._trusted(reg, result)


def _apply_pair(state: PhotonicState, in_modes, out_modes, u,
                name: str) -> PhotonicState:
    """Send the `in_modes` pair through the unnormalized two-mode u into
    `out_modes` (default: in place).  u / sqrt(2) must be unitary: the
    kernel scales each photon u touches by 1/sqrt(2).  An output mode that
    is not an input mode must be empty: a photon already there would not
    pass through."""
    in_modes = tuple(in_modes)
    out_modes = in_modes if out_modes is None else tuple(out_modes)
    if len(set(in_modes)) != 2 or len(set(out_modes)) != 2:
        raise FockError(
            f"a {name} needs two distinct input and two distinct "
            f"output modes, got {in_modes} -> {out_modes}")
    fresh = set(out_modes) - set(in_modes)
    census = _census(state)
    for m in census[0]:
        if m in fresh:
            raise FockError(f"{name} output mode {m} already holds photons")
    return _evolve(state, census, _compile([_Split(in_modes, out_modes, u)]))


def apply_beam_splitter(state: PhotonicState, in_modes: Tuple[Mode, Mode],
                        out_modes: Tuple[Mode, Mode] | None = None) -> PhotonicState:
    """Symmetric 50/50 beam splitter on a pair of modes.

    a^dag -> (a'^dag + i b'^dag)/sqrt(2); b^dag -> (i a'^dag + b'^dag)/sqrt(2).
    Output modes default to the input modes (in-place convention); an
    output mode that is not an input mode must be empty.
    """
    return _apply_pair(state, in_modes, out_modes, _SPLITTER, "beam splitter")


def apply_rotation(state: PhotonicState, in_modes: Tuple[Mode, Mode],
                   out_modes: Tuple[Mode, Mode] | None = None) -> PhotonicState:
    """Self-inverse 45-degree rotation on a pair of modes.

    a^dag -> (a'^dag + b'^dag)/sqrt(2); b^dag -> (a'^dag - b'^dag)/sqrt(2).
    Output modes default to the input modes (in-place convention); an
    output mode that is not an input mode must be empty.
    """
    return _apply_pair(state, in_modes, out_modes, _ROTATION, "rotation")


class Rotation(NamedTuple):
    """`apply_rotation` on a mode pair, in place; ((1, 1), (1, -1)) is its
    own adjoint."""

    modes: Tuple[Mode, Mode]


def apply_phase_shift(state: PhotonicState, mode: Mode, phi: float) -> PhotonicState:
    """Phase shifter: |n> on `mode` gains exp(i*n*phi)."""
    return _evolve(state, _census(state), _compile([_Phase((mode,))]),
                   complex(np.exp(1j * phi)))


def _mz_factors(times: Sequence[int], delay: int) -> list:
    """The interferometer over input bins `times` as BS1, delay.phase, BS2.

    BS1 sends bin t's (channel, blocked) pair into its short arm and into
    the long arm that exits at t + delay, so the delay itself is a relabel;
    the phase factor gives the long arms e**n.  BS2 recombines the short
    and long arms of every exit bin into its output arms.
    """
    long_arms = tuple(("long", t + delay) for t in times)
    factors = [_Split((t_in(t), blocked(t)), (("short", t), arm), _SPLITTER)
               for t, arm in zip(times, long_arms)]
    factors.append(_Phase(long_arms))
    for t in sorted(set(times) | {t + delay for t in times}):
        factors.append(_Split((("short", t), ("long", t)),
                              (s_out(t), d_out(t)), _SPLITTER))
    return factors


@lru_cache(maxsize=256)
def _mz_plan(times: Tuple[int, ...], delay: int, reverse: bool) -> _Plan:
    """The compiled interferometer over input bins `times`; the reverse is
    the reversed product of the adjoint factors."""
    factors = _mz_factors(times, delay)
    if reverse:
        factors = [f.adjoint() for f in reversed(factors)]
    return _compile(factors)


def _config_args(config) -> Tuple[float, int]:
    if isinstance(config, InterferometerConfig):
        return config.phi, config.delay
    return float(config), 1


def _mz_times(used, reads: Tuple[str, ...],
              rejects: Tuple[str, ...]) -> set:
    """Time bins of the `reads` modes among the census's `used` modes; the
    first `rejects` mode the components name is an error."""
    times = set()
    for m in used:
        if m.kind in rejects:
            raise FockError(
                f"interferometer input already uses mode {m} from its "
                f"output side")
        if m.kind in reads:
            times.add(m.index)
    return times


def mz_transform(state: PhotonicState, config: "InterferometerConfig | float" = 0.0) -> PhotonicState:
    """Mach-Zehnder interferometer, channel/blocked bins to output arms.

    A photon entering channel bin t exits as
    (|s_t> + i|d_t> - e^{i phi}|s_{t+delay}> + i e^{i phi}|d_{t+delay}>)/2,
    and a photon in the blocked arm bin t exits as
    (i|s_t> - |d_t> + i e^{i phi}|s_{t+delay}> + e^{i phi}|d_{t+delay}>)/2.
    It runs as its factors over the whole state: BS1 on every (channel,
    blocked) pair into private short and long arms, the long-arm delay and
    phase e**n, then BS2 on every (short, long) pair into (s_t, d_t).  The
    splitters are exact, and each output component is scaled once by 0.5**n
    for its n photons, so single-photon amplitudes are exactly the ones
    above.  `config` is an InterferometerConfig or a bare phase (delay 1).
    """
    phi, delay = _config_args(config)
    census = _census(state)
    times = _mz_times(census[0], (CHANNEL, BLOCKED), (OUT_S, OUT_D))
    return _evolve(state, census,
                   _mz_plan(tuple(sorted(times)), delay, False),
                   complex(np.exp(1j * phi)))


def mz_reverse(state: PhotonicState, config: "InterferometerConfig | float" = 0.0) -> PhotonicState:
    """Inverse interferometer, derived as the adjoint of mz_transform.

    The forward factors over the source bins t and t - delay of every
    output bin t in use are reversed and each is replaced by its adjoint:
    BS2 dagger into the arms, the phase conjugated (e.conjugate()) with the
    delay undone, then BS1 dagger back into the channel and blocked bins.
    Nothing about the reverse is kept apart from the forward factors.
    """
    phi, delay = _config_args(config)
    census = _census(state)
    times = _mz_times(census[0], (OUT_S, OUT_D), (CHANNEL, BLOCKED))
    sources = tuple(sorted(times | {t - delay for t in times}))
    return _evolve(state, census, _mz_plan(sources, delay, True),
                   complex(np.exp(1j * phi)))


def support_after_trace(state: PhotonicState,
                        keep: Iterable[Mode]) -> List[PhotonicState]:
    """Orthonormal basis of the support of the reduced state on kept modes.

    The state is split per basis component into (kept-part, discarded-part)
    occupations; the reduced density operator on the kept part is
    eigendecomposed and eigenvectors above PRUNE_EPS weight are returned.
    `keep` is a collection of modes of the state's registry.
    """
    kept_set = frozenset(keep)
    unknown = kept_set - set(state.registry.modes)
    if unknown:
        raise FockError(f"kept modes not in registry: {sorted(unknown)}")
    groups: Dict[Occupation, Dict[Occupation, complex]] = {}
    for occupation, amp in state.amplitudes.items():
        kept = occ(*((m, n) for m, n in occupation if m in kept_set))
        dropped = occ(*((m, n) for m, n in occupation if m not in kept_set))
        groups.setdefault(dropped, {})[kept] = amp
    kept_basis = sorted({k for row in groups.values() for k in row})
    index = {k: i for i, k in enumerate(kept_basis)}
    a = np.zeros((len(groups), len(kept_basis)), dtype=complex)
    for r, row in enumerate(groups.values()):
        for kept, amp in row.items():
            a[r, index[kept]] = amp
    rho = a.conj().T @ a  # reduced density operator in the kept basis
    vals, vecs = np.linalg.eigh(rho)
    kept_modes = tuple(m for m in state.registry.modes if m in kept_set)
    reg = ModeRegistry(kept_modes, state.registry.max_photons_per_mode)
    support = []
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] <= PRUNE_EPS:
            break
        amps = {kept_basis[j]: vecs[j, i] for j in range(len(kept_basis))}
        support.append(PhotonicState(reg, amps))
    return support


@dataclass(frozen=True)
class InterferometerConfig:
    """Mach-Zehnder parameters: long-arm phase and delay in time-bin units."""

    phi: float = 0.0
    delay: int = 1

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise FockError(
                f"interferometer phase must be finite, got {self.phi!r}")
        if self.delay < 1:
            raise FockError(
                f"interferometer delay must be at least 1 bin, got {self.delay!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


@dataclass
class LinearMap:
    """A linear map between two explicit occupation bases.

    matrix[r, c] is the amplitude of output_basis[r] in the image of
    input_basis[c].  When `isometry` is set, columns must be orthonormal
    within ATOL.
    """

    input_basis: List[Occupation]
    output_basis: List[Occupation]
    matrix: np.ndarray
    isometry: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        rows, cols = self.matrix.shape
        if rows != len(self.output_basis) or cols != len(self.input_basis):
            raise FockError("linear map matrix shape does not match its bases")
        if self.isometry:
            gram = self.matrix.conj().T @ self.matrix
            if not np.max(np.abs(gram - np.eye(cols))) <= ATOL:
                raise FockError("columns are not orthonormal; not an isometry")

    def adjoint(self) -> "LinearMap":
        return LinearMap(self.output_basis, self.input_basis,
                         self.matrix.conj().T, isometry=False)


def apply_linear_map(state: PhotonicState, lmap: LinearMap) -> PhotonicState:
    """Apply an explicit occupation-basis LinearMap to a state.

    Every component of the state must lie in the map's input basis.
    """
    index = {o: c for c, o in enumerate(lmap.input_basis)}
    vec = np.zeros(len(lmap.input_basis), dtype=complex)
    for occupation, amp in state.amplitudes.items():
        if occupation not in index:
            raise FockError(
                f"state component {occupation} outside the map's input basis")
        vec[index[occupation]] = amp
    out_vec = lmap.matrix @ vec
    amps: Dict[Occupation, complex] = {}
    for r, occupation in enumerate(lmap.output_basis):
        amps[occupation] = amps.get(occupation, 0.0) + out_vec[r]
    return PhotonicState(state.registry, amps)


def apply_optics(state: PhotonicState, optics: Sequence,
                 adjoint: bool = False) -> PhotonicState:
    """Run InterferometerConfig, Rotation and LinearMap elements over a
    state in order; with `adjoint` set, run their adjoints in reverse order:
    `mz_reverse`, the same rotation and `LinearMap.adjoint()`."""
    for element in (reversed(optics) if adjoint else optics):
        if isinstance(element, InterferometerConfig):
            state = (mz_reverse if adjoint else mz_transform)(state, element)
        elif isinstance(element, Rotation):
            state = apply_rotation(state, element.modes)
        else:
            state = apply_linear_map(
                state, element.adjoint() if adjoint else element)
    return state


def embedded(state: PhotonicState, reg: ModeRegistry) -> PhotonicState:
    """Re-home a state onto a registry containing (at least) its used modes."""
    return PhotonicState(reg, dict(state.amplitudes))


def gram_schmidt(states: Sequence[PhotonicState]) -> List[PhotonicState]:
    """Orthonormalize, dropping vectors whose residual norm is below ATOL."""
    basis: List[PhotonicState] = []
    for state in states:
        residual = state
        for b in basis:
            residual = residual - b.scaled(inner_product(b, residual))
        if residual.norm() > ATOL:
            basis.append(residual.normalized())
    return basis


# ---------------------------------------------------------------------------
# JSON serialization (mode labels as "kind:index", amplitudes as [re, im])
# ---------------------------------------------------------------------------

def state_to_dict(state: PhotonicState) -> dict:
    components = []
    for occupation, amp in sorted(state.amplitudes.items()):
        components.append({
            "occupation": {str(m): n for m, n in occupation},
            "amplitude": [amp.real, amp.imag],
        })
    return {
        "modes": [str(m) for m in state.registry.modes],
        "max_photons_per_mode": state.registry.max_photons_per_mode,
        "components": components,
    }


def state_from_dict(data: dict) -> PhotonicState:
    reg = ModeRegistry(tuple(Mode.parse(m) for m in data["modes"]),
                       _integer(data.get("max_photons_per_mode",
                                         DEFAULT_MAX_PHOTONS),
                                "max_photons_per_mode"))
    amps: Dict[Occupation, complex] = {}
    for comp in data["components"]:
        occupation = occ(*((Mode.parse(m), n) for m, n in comp["occupation"].items()))
        re, im = comp["amplitude"]
        amps[occupation] = complex(re, im)
    return PhotonicState(reg, amps)
