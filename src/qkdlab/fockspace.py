"""Sparse multimode Fock-space states and linear-optics evolutions.

States are finite complex combinations of photon-occupation basis states over
a declared registry of optical modes.  Modes are labelled by (kind, index)
pairs, e.g. channel time bins, blocked-arm time bins, interferometer output
arms, or polarization modes.  All evolutions (beam splitter, phase shifter,
Mach-Zehnder interferometer) are implemented as substitution homomorphisms on
creation operators, so multi-photon inputs are handled exactly.  The reverse
interferometer is not tabulated separately: it is derived as the adjoint
(conjugate transpose) of the forward mode map.

Conventions:
  * symmetric 50/50 beam splitter: transmission amplitude 1/sqrt(2),
    reflection amplitude i/sqrt(2)
  * phase shifter on a mode: |n> -> exp(i*n*phi) |n>
  * amplitudes below PRUNE_EPS are dropped; state comparisons use ATOL
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

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


@dataclass(frozen=True, order=True)
class Mode:
    """A single optical mode, identified by (kind, index)."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise FockError(f"unknown mode kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}:{self.index}"

    @staticmethod
    def parse(text: str) -> "Mode":
        kind, _, idx = text.rpartition(":")
        if not kind:
            raise FockError(f"mode label {text!r} is not of the form kind:index")
        return Mode(kind, int(idx))


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


def occ(*pairs) -> Occupation:
    """Build an occupation from (mode, count) pairs, dropping zero counts."""
    items = [(m, int(n)) for m, n in pairs if n]
    for m, n in items:
        if n < 0:
            raise FockError(f"negative photon count {n} in mode {m}")
    return tuple(sorted(items))


def single(mode: Mode) -> Occupation:
    """One photon in `mode`."""
    return ((mode, 1),)


def total_photons(occupation: Occupation) -> int:
    return sum(n for _, n in occupation)


@dataclass(frozen=True)
class ModeRegistry:
    """The declared mode universe a state lives in, plus the photon cap."""

    modes: Tuple[Mode, ...]
    max_photons_per_mode: int = DEFAULT_MAX_PHOTONS

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise FockError("duplicate modes in registry")

    def __contains__(self, mode: Mode) -> bool:
        return mode in self.modes

    def check_occupation(self, occupation: Occupation):
        for mode, count in occupation:
            if mode not in self.modes:
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


class PhotonicState:
    """A sparse complex amplitude map over occupation basis states."""

    __slots__ = ("registry", "amplitudes")

    def __init__(self, reg: ModeRegistry, amplitudes: Dict[Occupation, complex] | None = None):
        self.registry = reg
        amps: Dict[Occupation, complex] = {}
        if amplitudes:
            for occupation, amp in amplitudes.items():
                if abs(amp) <= PRUNE_EPS:
                    continue
                reg.check_occupation(occupation)
                amps[occupation] = complex(amp)
        self.amplitudes = amps

    # -- constructors ------------------------------------------------------

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
        return PhotonicState(self.registry, amps)

    def __sub__(self, other: "PhotonicState") -> "PhotonicState":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState(
            self.registry,
            {occupation: amp * factor for occupation, amp in self.amplitudes.items()},
        )

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

    def is_zero(self) -> bool:
        return not self.amplitudes

    def amplitude(self, occupation: Occupation) -> complex:
        return self.amplitudes.get(occupation, 0.0)

    def photon_numbers(self) -> Dict[int, float]:
        """Probability weight per total photon number."""
        weights: Dict[int, float] = {}
        for occupation, amp in self.amplitudes.items():
            n = total_photons(occupation)
            weights[n] = weights.get(n, 0.0) + abs(amp) ** 2
        return weights

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
        return complex(np.conj(inner_product(b, a)))
    return sum(np.conj(amp) * b.amplitude(occupation)
               for occupation, amp in a.amplitudes.items())


# ---------------------------------------------------------------------------
# Evolutions as creation-operator substitutions
# ---------------------------------------------------------------------------

# A mode map sends each input mode's creation operator to a linear combination
# of target-mode creation operators: {mode: [(target_mode, coeff), ...]}.
ModeMap = Dict[Mode, List[Tuple[Mode, complex]]]


def _compositions(n: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def apply_mode_map(state: PhotonicState, mapping: ModeMap,
                   out_registry: ModeRegistry | None = None) -> PhotonicState:
    """Apply a linear-optics mode substitution to every basis component.

    Each occupation |n_1 .. n_m> = prod_i (a_i^dag)^{n_i}/sqrt(n_i!) |vac| is
    expanded by substituting a_i^dag -> sum_j c_{ij} b_j^dag and collecting the
    resulting occupation amplitudes (with the exact sqrt(k!) bosonic factors).
    Modes absent from `mapping` are passed through unchanged.
    """
    reg = out_registry or state.registry
    result: Dict[Occupation, complex] = {}
    for occupation, amp in state.amplitudes.items():
        # expansion: dict monomial-counts -> coefficient (operator polynomial)
        expansion: Dict[Occupation, complex] = {VACUUM: amp}
        for mode, count in occupation:
            targets = mapping.get(mode, [(mode, 1.0)])
            coeffs = [c for _, c in targets]
            tmodes = [m for m, _ in targets]
            # (sum_j c_j b_j^dag)^count via the multinomial theorem
            term: Dict[Occupation, complex] = {}
            for ks in _compositions(count, len(targets)):
                c = math.factorial(count)
                w = 1.0 + 0.0j
                for k, cj in zip(ks, coeffs):
                    c //= math.factorial(k)
                    w *= cj ** k
                add = occ(*zip(tmodes, ks)) if any(ks) else VACUUM
                term[add] = term.get(add, 0.0) + c * w
            # multiply the running expansion by this factor, merging counts
            merged: Dict[Occupation, complex] = {}
            norm_in = math.sqrt(math.factorial(count))
            for prev, pc in expansion.items():
                prev_d = dict(prev)
                for add, ac in term.items():
                    counts = dict(prev_d)
                    for m, k in add:
                        counts[m] = counts.get(m, 0) + k
                    key = occ(*counts.items())
                    merged[key] = merged.get(key, 0.0) + pc * ac / norm_in
            expansion = merged
        for out_occ, coeff in expansion.items():
            w = coeff * math.sqrt(
                math.prod(math.factorial(n) for _, n in out_occ))
            if abs(w) <= PRUNE_EPS:
                continue
            reg.check_occupation(out_occ)
            result[out_occ] = result.get(out_occ, 0.0) + w
    return PhotonicState(reg, result)


def apply_beam_splitter(state: PhotonicState, in_modes: Tuple[Mode, Mode],
                        out_modes: Tuple[Mode, Mode] | None = None) -> PhotonicState:
    """Symmetric 50/50 beam splitter on a pair of modes.

    a^dag -> (a'^dag + i b'^dag)/sqrt(2); b^dag -> (i a'^dag + b'^dag)/sqrt(2).
    Output modes default to the input modes (in-place convention).
    """
    in_a, in_b = in_modes
    out_a, out_b = out_modes if out_modes is not None else in_modes
    r = 1.0 / math.sqrt(2.0)
    mapping: ModeMap = {
        in_a: [(out_a, r), (out_b, 1j * r)],
        in_b: [(out_a, 1j * r), (out_b, r)],
    }
    return apply_mode_map(state, mapping)


def apply_phase_shift(state: PhotonicState, mode: Mode, phi: float) -> PhotonicState:
    """Phase shifter: |n> on `mode` gains exp(i*n*phi)."""
    amps = {}
    for occupation, amp in state.amplitudes.items():
        n = dict(occupation).get(mode, 0)
        amps[occupation] = amp * np.exp(1j * n * phi)
    return PhotonicState(state.registry, amps)


def _mz_forward_map(phi: float, times: Iterable[int], delay: int = 1) -> ModeMap:
    e = np.exp(1j * phi)
    mapping: ModeMap = {}
    for t in times:
        mapping[t_in(t)] = [
            (s_out(t), 0.5), (d_out(t), 0.5j),
            (s_out(t + delay), -0.5 * e), (d_out(t + delay), 0.5j * e),
        ]
        mapping[blocked(t)] = [
            (s_out(t), 0.5j), (d_out(t), -0.5),
            (s_out(t + delay), 0.5j * e), (d_out(t + delay), 0.5 * e),
        ]
    return mapping


def _adjoint(mapping: ModeMap) -> ModeMap:
    """Conjugate transpose: b_j^dag -> sum_i conj(c_ij) a_i^dag."""
    adjoint: ModeMap = {}
    for source, targets in mapping.items():
        for target, coeff in targets:
            adjoint.setdefault(target, []).append((source, coeff.conjugate()))
    return adjoint


def _config_args(config) -> Tuple[float, int]:
    if isinstance(config, InterferometerConfig):
        return config.phi, config.delay
    return float(config), 1


def _mz_times(state: PhotonicState, reads: Tuple[str, ...],
              rejects: Tuple[str, ...]) -> set:
    """Time bins of the `reads` modes in use; any `rejects` mode is an error."""
    times = set()
    for occupation in state.amplitudes:
        for m, _ in occupation:
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
    `config` is an InterferometerConfig or a bare phase (delay 1).
    """
    phi, delay = _config_args(config)
    times = _mz_times(state, (CHANNEL, BLOCKED), (OUT_S, OUT_D))
    return apply_mode_map(state, _mz_forward_map(phi, times, delay))


def mz_reverse(state: PhotonicState, config: "InterferometerConfig | float" = 0.0) -> PhotonicState:
    """Inverse interferometer, derived as the adjoint of mz_transform.

    Output bins s_t and d_t are fed by the channel (a) and blocked-arm (b)
    bins t - delay and t, so the forward map over those input bins is
    conjugate-transposed: each output creation operator maps to the
    conjugated forward amplitudes of a_{t-delay}, b_{t-delay}, a_t and b_t,
    in that order.
    """
    phi, delay = _config_args(config)
    times = _mz_times(state, (OUT_S, OUT_D), (CHANNEL, BLOCKED))
    sources = sorted(times | {t - delay for t in times})
    return apply_mode_map(state, _adjoint(_mz_forward_map(phi, sources, delay)))


def support_after_trace(state: PhotonicState,
                        keep: "Iterable[Mode] | Callable[[Mode], bool]") -> List[PhotonicState]:
    """Orthonormal basis of the support of the reduced state on kept modes.

    The state is split per basis component into (kept-part, discarded-part)
    occupations; the reduced density operator on the kept part is
    eigendecomposed and eigenvectors above PRUNE_EPS weight are returned.
    `keep` is a collection of modes (or a predicate over modes).
    """
    if not callable(keep):
        kept_set = frozenset(keep)
        unknown = kept_set - set(state.registry.modes)
        if unknown:
            raise FockError(f"kept modes not in registry: {sorted(unknown)}")
        keep = kept_set.__contains__
    groups: Dict[Occupation, Dict[Occupation, complex]] = {}
    for occupation, amp in state.amplitudes.items():
        kept = occ(*((m, n) for m, n in occupation if keep(m)))
        dropped = occ(*((m, n) for m, n in occupation if not keep(m)))
        groups.setdefault(dropped, {})[kept] = amp
    kept_basis = sorted({k for row in groups.values() for k in row})
    index = {k: i for i, k in enumerate(kept_basis)}
    a = np.zeros((len(groups), len(kept_basis)), dtype=complex)
    for r, row in enumerate(groups.values()):
        for kept, amp in row.items():
            a[r, index[kept]] = amp
    rho = a.conj().T @ a  # reduced density operator in the kept basis
    vals, vecs = np.linalg.eigh(rho)
    kept_modes = tuple(m for m in state.registry.modes if keep(m))
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
            if np.max(np.abs(gram - np.eye(cols))) > ATOL:
                raise FockError("columns are not orthonormal; not an isometry")

    def adjoint(self) -> "LinearMap":
        return LinearMap(self.output_basis, self.input_basis,
                         self.matrix.conj().T, isometry=False)


def apply_linear_map(state: PhotonicState, lmap: LinearMap,
                     out_registry: ModeRegistry | None = None) -> PhotonicState:
    """Apply an explicit occupation-basis LinearMap to a state.

    Every component of the state must lie in the map's input basis.
    """
    reg = out_registry or state.registry
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
    return PhotonicState(reg, amps)


def embedded(state: PhotonicState, reg: ModeRegistry) -> PhotonicState:
    """Re-home a state onto a registry containing (at least) its used modes."""
    return PhotonicState(reg, dict(state.amplitudes))


def gram_schmidt(states: Sequence[PhotonicState], drop_tol: float = ATOL) -> List[PhotonicState]:
    """Orthonormalize, dropping vectors whose residual norm is below drop_tol."""
    basis: List[PhotonicState] = []
    for state in states:
        residual = state
        for b in basis:
            residual = residual - b.scaled(inner_product(b, residual))
        if residual.norm() > drop_tol:
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
                       int(data.get("max_photons_per_mode", DEFAULT_MAX_PHOTONS)))
    amps: Dict[Occupation, complex] = {}
    for comp in data["components"]:
        occupation = occ(*((Mode.parse(m), n) for m, n in comp["occupation"].items()))
        re, im = comp["amplitude"]
        amps[occupation] = complex(re, im)
    return PhotonicState(reg, amps)


def state_to_json(state: PhotonicState) -> str:
    return json.dumps(state_to_dict(state), sort_keys=True)


def state_from_json(text: str) -> PhotonicState:
    return state_from_dict(json.loads(text))
