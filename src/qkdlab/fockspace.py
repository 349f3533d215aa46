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

A state keys each component by one int rather than by an occupation: the
mode at position p of the registry holds its photon count in the field of w
bits at shift p*w, w the bit length of the registry's cap, so equal
registries share one layout.  The kernel reads and writes these keys
directly: a plan gives each registry mode its position, then any mode it
names outside the registry and its private arm keys the positions after.  A
splitter reads its two source fields by shift and mask and writes its targets
from a cached table of offsets.  Only when a splitter would bunch more photons
into one field than w bits hold is the state widened, and its result
narrowed again.  Occupations appear only at the boundary: the constructor,
`amplitude`, `components`, `repr`, the JSON form and error messages.

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
from functools import cached_property, lru_cache, reduce
from operator import itemgetter, or_
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

    Each mode may be named once: naming it twice would split the mode's
    photons across two pairs, each checked against the cap alone.
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

    @cached_property
    def width(self) -> int:
        """Bits per mode field of a stored key: enough for the cap."""
        return self.max_photons_per_mode.bit_length()

    @cached_property
    def _occupation_order(self) -> Tuple[Tuple[int, Mode], ...]:
        """(position, mode) of every mode, in the order of an Occupation."""
        return tuple(sorted(enumerate(self.modes), key=itemgetter(1)))

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

    def key_of(self, occupation: Occupation) -> int:
        """The stored key of `occupation`: the count of the mode at
        position p is the field of `width` bits at shift p * width."""
        self.check_occupation(occupation)
        w = self.width
        key = 0
        for mode, count in occupation:
            if type(count) is not int:
                count = _integer(count, f"photon count in mode {mode}")
            if count < 0:
                raise FockError(f"negative photon count {count} in mode {mode}")
            shift = self._index[mode] * w
            if key >> shift & ((1 << w) - 1):
                raise FockError(f"mode {mode} is named twice in one occupation")
            key |= count << shift
        return key

    def occupation_of(self, key: int, width: int = 0) -> Occupation:
        """The Occupation a key with fields of `width` bits (default: the
        stored width) stands for."""
        w = width or self.width
        field = (1 << w) - 1
        return tuple([(mode, count) for p, mode in self._occupation_order
                      if (count := key >> p * w & field)])


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


def _pruned(amplitudes: dict) -> dict:
    """The amplitudes above PRUNE_EPS in magnitude (and NaN), as complex."""
    return {key: complex(amp) for key, amp in amplitudes.items()
            if not abs(amp) <= PRUNE_EPS}


class PhotonicState:
    """A sparse complex amplitude map over occupation basis states.

    `amplitudes` is keyed by the registry's stored keys (`key_of`), one
    int per occupation; equal registries share one layout.  Occupations
    appear only at the boundary: the constructor, `amplitude`,
    `components`, `repr` and the JSON form.
    """

    __slots__ = ("registry", "amplitudes")

    def __init__(self, reg: ModeRegistry, amplitudes: Dict[Occupation, complex] | None = None):
        self.registry = reg
        amps: Dict[int, complex] = {}
        merged = False
        for occupation, amp in _pruned(amplitudes or {}).items():
            key = reg.key_of(occupation)
            if key in amps:  # another spelling of an occupation already seen
                amps[key] += amp
                merged = True
            else:
                amps[key] = amp
        self.amplitudes = _pruned(amps) if merged else amps

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, reg: ModeRegistry,
                 amplitudes: Dict[int, complex]) -> "PhotonicState":
        """Wrap complex amplitudes already pruned and keyed in `reg`."""
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
        for key, amp in other.amplitudes.items():
            amps[key] = amps.get(key, 0.0) + amp
        return PhotonicState._trusted(self.registry, _pruned(amps))

    def __sub__(self, other: "PhotonicState") -> "PhotonicState":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState._trusted(self.registry, _pruned(
            {key: amp * factor for key, amp in self.amplitudes.items()}))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "PhotonicState":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise FockError("cannot normalize a (numerically) zero state")
        return self.scaled(1.0 / n)

    def amplitude(self, occupation: Occupation) -> complex:
        try:
            key = self.registry.key_of(occupation)
        except FockError:  # not an occupation of this registry
            return 0.0
        return self.amplitudes.get(key, 0.0)

    def components(self) -> Dict[Occupation, complex]:
        """The amplitudes keyed by Occupation, in stored order."""
        occupation_of = self.registry.occupation_of
        return {occupation_of(key): amp
                for key, amp in self.amplitudes.items()}

    def close_to(self, other: "PhotonicState", atol: float = ATOL) -> bool:
        self._require_same_registry(other)
        mine, theirs = self.amplitudes.get, other.amplitudes.get
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(abs(mine(k, 0.0) - theirs(k, 0.0)) <= atol for k in keys)

    def __repr__(self):
        terms = []
        for occupation, amp in sorted(self.components().items()):
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
    for key, amp in a.amplitudes.items():
        total += amp.conjugate() * other(key, 0j)
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


class _Overflow(Exception):
    """A splitter would put more photons into one field than it holds."""


@lru_cache(maxsize=None)
def _offsets(k1: int, k2: int, u, c: int, d: int,
             field: int) -> Tuple[Tuple[int, complex], ...]:
    """`_pair_table(k1, k2, u)` with each m1 replaced by the bits of
    |m1, k1 + k2 - m1> in the fields at shifts c and d.  Raises _Overflow,
    and caches nothing, when k1 + k2 exceeds the mask `field`."""
    total = k1 + k2
    if total > field:
        raise _Overflow
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
        for offset, coeff in _offsets(k1, k2, u, c, d, field):
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


def _moved(key: int, moves, field: int) -> int:
    """`key` with the field at each source shift of `moves` moved to its
    target shift; `field` is the mask of one source field."""
    out = 0
    for s, t in moves:
        out |= (key >> s & field) << t
    return out


class _Plan(NamedTuple):
    """Factors compiled to positions of a registry's stored keys.

    Every registry mode keeps its position.  The modes that the factors
    name outside the registry (`outside`, in mode order) take the next
    positions, then the private arm keys.  `ops` are the factors with each
    mode or arm key replaced by its position.
    """

    ops: tuple
    outside: Tuple[Mode, ...]
    crossings: int  # splitters in a row that each photon crosses


def _compile(factors, reg: ModeRegistry) -> _Plan:
    named = set()
    for f in factors:
        named.update(f.modes if isinstance(f, _Phase) else f.sources + f.targets)
    pos: Dict[object, int] = dict(reg._index)
    outside = sorted(k for k in named if isinstance(k, Mode) and k not in pos)
    arms = sorted(k for k in named if not isinstance(k, Mode) and k not in pos)
    for p, k in enumerate(outside + arms, len(reg.modes)):
        pos[k] = p
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
    return _Plan(ops, tuple(outside), max(depth.values(), default=0))


def _census(state: PhotonicState) -> List[int]:
    """The positions of the modes the components use, ascending: the
    nonzero fields of the OR over the keys."""
    w = state.registry.width
    field = (1 << w) - 1
    mask = reduce(or_, state.amplitudes, 0)
    used = []
    while mask:
        p = ((mask & -mask).bit_length() - 1) // w
        used.append(p)
        mask &= ~(field << p * w)
    return used


def _first_named(state: PhotonicState, modes) -> Mode:
    """The first of `modes` that the components name, in component order."""
    for occupation in state.components():
        for m, _ in occupation:
            if m in modes:
                return m


def _evolve(state: PhotonicState, used: List[int], plan: _Plan,
            e: complex = 1.0) -> PhotonicState:
    """Apply the plan's factors in order to the whole state, merging after
    each; `used` is `_census(state)` and `e` the phase factor of its phase
    shifts.

    The factors run on the stored keys.  A splitter conserves each
    component's photon number, but it can bunch more photons into one
    field than the registry's width holds.  Only then is the state
    widened, to the bit length of its largest photon number, and its
    result narrowed again by `_to_state`.  The splitter's table lookup
    detects that case for free, where counting every component's photons
    on entry would walk every key once more.
    """
    reg, amps, w = state.registry, state.amplitudes, state.registry.width
    try:
        return _run(amps, reg, used, plan, w, e)
    except _Overflow:
        pass
    field = (1 << w) - 1
    wide = max(sum(key >> p * w & field for p in used)
               for key in amps).bit_length()
    moves = [(p * w, p * wide) for p in used]
    return _run({_moved(key, moves, field): v for key, v in amps.items()},
                reg, used, plan, wide, e)


def _run(amps: dict, reg: ModeRegistry, used: List[int], plan: _Plan,
         w: int, e: complex) -> PhotonicState:
    """`_evolve` on keys with fields of `w` bits.

    Splitters whose sources are still empty are skipped.  Each photon a
    splitter has touched has crossed `plan.crossings` splitters, so each
    output component is scaled once by 2**(-crossings*n/2), n its photons
    that a splitter touched.
    """
    field = (1 << w) - 1
    live = set(used)
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
    return _to_state(reg, amps, plan, w, live, untouched)


def _to_state(reg: ModeRegistry, amps: dict, plan: _Plan, w: int,
              live: set, untouched: set) -> PhotonicState:
    """Scale, prune and check the kernel's keys, stored at the registry's
    width.

    Positions past the registry's are the plan's outside modes, then its
    arm keys, which are empty by now.  Only a component with more touched
    photons than the cap can break it.
    """
    size, field = len(reg.modes), (1 << w) - 1
    past = size * w  # the shift of the first field past the registry's
    touched = [p * w for p in live - untouched]
    cap = reg.max_photons_per_mode
    scales: Dict[int, float] = {}
    result: Dict[int, complex] = {}
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
        if key >> past:
            for p, m in enumerate(plan.outside, size):
                if key >> p * w & field:
                    raise FockError(f"mode {m} not in registry")
        if n > cap:
            reg.check_occupation(reg.occupation_of(key, w))
        # adding 0.0 clears the negative zeros left by the +-i products
        result[key] = 0.0 + x
    if w != reg.width:
        moves = [(p * w, p * reg.width) for p in live if p < size]
        result = {_moved(key, moves, field): v for key, v in result.items()}
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
    used = _census(state)
    modes = state.registry.modes
    if any(modes[p] in fresh for p in used):
        raise FockError(f"{name} output mode {_first_named(state, fresh)} "
                        f"already holds photons")
    return _evolve(state, used, _compile([_Split(in_modes, out_modes, u)],
                                         state.registry))


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


def _checked_phase(phi, what: str):
    """`phi` if it is a finite real number; a bool or anything else is an
    error naming `what`."""
    if type(phi) is not float and (
            isinstance(phi, bool) or not isinstance(phi, numbers.Real)):
        raise FockError(f"{what} must be a real number, got {phi!r}")
    if not math.isfinite(phi):
        raise FockError(f"{what} must be finite, got {phi!r}")
    return phi


def _phase_factor(phi, what: str) -> complex:
    """exp(i*phi); a phase that is not a finite real number is an error
    naming `what`."""
    return complex(np.exp(1j * float(_checked_phase(phi, what))))


def apply_phase_shift(state: PhotonicState, mode: Mode, phi: float) -> PhotonicState:
    """Phase shifter: |n> on `mode` gains exp(i*n*phi)."""
    return _evolve(state, _census(state),
                   _compile([_Phase((mode,))], state.registry),
                   _phase_factor(phi, "phase shift"))


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
def _mz_plan(times: Tuple[int, ...], delay: int, reverse: bool,
             reg: ModeRegistry) -> _Plan:
    """The interferometer over input bins `times`, compiled to `reg`'s
    keys; the reverse is the reversed product of the adjoint factors."""
    factors = _mz_factors(times, delay)
    if reverse:
        factors = [f.adjoint() for f in reversed(factors)]
    return _compile(factors, reg)


def _config_args(config) -> Tuple[complex, int]:
    """The phase factor and delay of an InterferometerConfig or of a bare
    phase (delay 1)."""
    if isinstance(config, InterferometerConfig):
        return _phase_factor(config.phi, "interferometer phase"), config.delay
    return _phase_factor(config, "interferometer phase"), 1


def _mz_times(state: PhotonicState, used: List[int], reads: Tuple[str, ...],
              rejects: Tuple[str, ...]) -> set:
    """Time bins of the `reads` modes among the `used` positions; a
    `rejects` mode is an error naming the first one the components name."""
    modes = [state.registry.modes[p] for p in used]
    rejected = {m for m in modes if m.kind in rejects}
    if rejected:
        raise FockError(
            f"interferometer input already uses mode "
            f"{_first_named(state, rejected)} from its output side")
    return {m.index for m in modes if m.kind in reads}


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
    e, delay = _config_args(config)
    used = _census(state)
    times = _mz_times(state, used, (CHANNEL, BLOCKED), (OUT_S, OUT_D))
    return _evolve(state, used, _mz_plan(tuple(sorted(times)), delay, False,
                                         state.registry), e)


def mz_reverse(state: PhotonicState, config: "InterferometerConfig | float" = 0.0) -> PhotonicState:
    """Inverse interferometer, derived as the adjoint of mz_transform.

    The forward factors over the source bins t and t - delay of every
    output bin t in use are reversed and each is replaced by its adjoint:
    BS2 dagger into the arms, the phase conjugated (e.conjugate()) with the
    delay undone, then BS1 dagger back into the channel and blocked bins.
    Nothing about the reverse is kept apart from the forward factors.
    """
    e, delay = _config_args(config)
    used = _census(state)
    times = _mz_times(state, used, (OUT_S, OUT_D), (CHANNEL, BLOCKED))
    sources = tuple(sorted(times | {t - delay for t in times}))
    return _evolve(state, used, _mz_plan(sources, delay, True,
                                         state.registry), e)


def support_after_trace(state: PhotonicState,
                        keep: Iterable[Mode]) -> List[PhotonicState]:
    """Orthonormal basis of the support of the reduced state on kept modes.

    The state is split per basis component into (kept-part, discarded-part)
    occupations; the reduced density operator on the kept part is
    eigendecomposed and eigenvectors above PRUNE_EPS weight are returned.
    `keep` is a collection of modes of the state's registry.
    """
    kept_set = frozenset(keep)
    src = state.registry
    unknown = kept_set - set(src.modes)
    if unknown:
        raise FockError(f"kept modes not in registry: {sorted(unknown)}")
    w = src.width
    field = (1 << w) - 1
    kept_at = [p for p, m in enumerate(src.modes) if m in kept_set]
    kept_mask = 0
    for p in kept_at:
        kept_mask |= field << p * w
    groups: Dict[int, Dict[int, complex]] = {}
    for key, amp in state.amplitudes.items():
        groups.setdefault(key & ~kept_mask, {})[key & kept_mask] = amp
    kept_basis = sorted({k for row in groups.values() for k in row},
                        key=src.occupation_of)
    index = {k: i for i, k in enumerate(kept_basis)}
    a = np.zeros((len(groups), len(kept_basis)), dtype=complex)
    for r, row in enumerate(groups.values()):
        for kept, amp in row.items():
            a[r, index[kept]] = amp
    rho = a.conj().T @ a  # reduced density operator in the kept basis
    vals, vecs = np.linalg.eigh(rho)
    reg = ModeRegistry(tuple(src.modes[p] for p in kept_at),
                       src.max_photons_per_mode)
    moves = [(p * w, q * w) for q, p in enumerate(kept_at)]
    keys = [_moved(k, moves, field) for k in kept_basis]
    support = []
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] <= PRUNE_EPS:
            break
        support.append(PhotonicState._trusted(reg, _pruned(
            {keys[j]: vecs[j, i] for j in range(len(keys))})))
    return support


@dataclass(frozen=True)
class InterferometerConfig:
    """Mach-Zehnder parameters: long-arm phase and delay in time-bin units."""

    phi: float = 0.0
    delay: int = 1

    def __post_init__(self):
        _checked_phase(self.phi, "interferometer phase")
        object.__setattr__(self, "delay",
                           _integer(self.delay, "interferometer delay"))
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
    for occupation, amp in state.components().items():
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
    """Re-home a state onto a registry containing (at least) its used modes.

    Equal registries share one layout, so the keys carry over; otherwise
    each used field moves to the position of its mode in `reg`.
    """
    src = state.registry
    if reg == src:
        return PhotonicState._trusted(reg, dict(state.amplitudes))
    used = _census(state)
    if (any(src.modes[p] not in reg for p in used)
            or reg.max_photons_per_mode < src.max_photons_per_mode):
        for key in state.amplitudes:  # raises as the constructor would
            reg.check_occupation(src.occupation_of(key))
    moves = [(p * src.width, reg._index[src.modes[p]] * reg.width)
             for p in used]
    field = (1 << src.width) - 1
    return PhotonicState._trusted(reg, {
        _moved(key, moves, field): amp
        for key, amp in state.amplitudes.items()})


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
    for occupation, amp in sorted(state.components().items()):
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
