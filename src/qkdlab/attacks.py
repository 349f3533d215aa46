"""Zero-error attack synthesis against imperfect single-photon receivers.

An eavesdropping strategy is an isometry from the logical qubit into
(receiver-reachable channel space) x (probe space).  The constraint system
collects every amplitude such a strategy must cancel to stay invisible:
wrong-bit outcomes under matched bases, plus anything the receiver flags as
invalid under any basis.  Solutions form linear families; this module
enumerates them, builds canonical and randomly sampled members, verifies
candidate strategies row by row, and analyzes what the probe learns.

Members are built from the vertices of a 4-row weight system, which a
support enumeration finds with numpy alone; the module needs no solver
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from . import fockspace as fs
from . import receivers as rc
from .fockspace import PhotonicState

NULL_TOL = 1e-9        # singular values below this count as zero
MEMBER_TOL = 1e-10     # projection residual for family membership
GRAM_TOL = 1e-9        # allowed deviation of the probe Gram matrix from identity
_ALIGN_TOL = 1e-9      # norm an attack's basis may lose in the system's basis
WEIGHT_TOL = 1e-12


class AttackError(ValueError):
    """Raised for ill-posed attack constructions or analysis requests."""


class InfeasibleAttackError(AttackError):
    """No zero-error isometry exists within the requested probe dimension."""

    def __init__(self, message: str, minimal_feasible: Optional[int] = None):
        super().__init__(message)
        self.minimal_feasible = minimal_feasible


# ---------------------------------------------------------------------------
# constraint system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintRow:
    """One amplitude that must vanish: who sent what, what would betray it."""

    alice_label: Tuple[str, int]
    setting: str
    outcome_id: str
    support_index: int


@dataclass
class ConstraintSystem:
    """Linear zero-error conditions over probe vectors indexed by (i, k).

    ``i`` runs over the logical qubit basis (the computational pair), ``k``
    over the orthonormal basis of the receiver's reachable channel space.
    Row entries are ``alpha_i * beta_{k,(j,m)}`` where ``alpha`` are the
    logical coefficients of Alice's state and ``beta`` the transition
    amplitude from basis element ``k`` to outcome support state ``(j, m)``
    under the setting's evolution.

    ``beta[setting][j]`` holds one row over ``k`` per state spanning
    outcome ``j``, with outcomes in the setting's order; ``m`` indexes the
    tuple.  ``interpretation[setting]`` is the setting's map from outcome
    id to interpretation tag.

    ``p_basis`` must be neither edited nor reassigned once the system is
    built: its overlap with itself is cached on first use, and members
    built by :meth:`attack` share the list.
    """

    receiver_name: str
    alice_labels: Tuple[Tuple[str, int], ...]
    p_basis: List[PhotonicState]
    vacuum_index: Optional[int]
    rows: Tuple[ConstraintRow, ...]
    matrix: np.ndarray
    alpha: Dict[Tuple[str, int], Tuple[complex, complex]]
    beta: Dict[str, Dict[str, Tuple[np.ndarray, ...]]]
    interpretation: Dict[str, Dict[str, str]]
    source_embeddings: Dict[Tuple[str, int], np.ndarray]

    @property
    def n_columns(self) -> int:
        return 2 * self.n_basis

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_basis(self) -> int:
        return len(self.p_basis)

    @cached_property
    def _self_overlap(self) -> np.ndarray:
        """The basis's overlap with itself, computed once: it aligns every
        member built by :meth:`attack`.  The array is read-only."""
        overlap = _overlap(self.p_basis, self.p_basis)
        overlap.flags.writeable = False
        return overlap

    def column_index(self, column: Tuple[int, int]) -> int:
        i, k = column
        return i * self.n_basis + k

    def basis_coefficients(self, state: PhotonicState) -> np.ndarray:
        """Coordinates of a channel state over the reachable-space basis."""
        st = fs.embedded(state, self.p_basis[0].registry)
        return np.array([fs.inner_product(b, st) for b in self.p_basis])

    def attack(self, coefficients: np.ndarray, label: str) -> "AttackIsometry":
        """Wrap a (2, n_basis, eve_dim) probe table over this system's basis."""
        return AttackIsometry(
            receiver_name=self.receiver_name,
            alice_labels=self.alice_labels,
            p_basis=self.p_basis,
            coefficients=coefficients,
            label=label,
        )

    def edge_bin_coefficients(self, minimum_bins: int = 1
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinates of one photon in the earliest and the latest channel bin."""
        reg = self.p_basis[0].registry
        bins = sorted(m.index for m in reg.modes if m.kind == fs.CHANNEL)
        if len(bins) < minimum_bins:
            raise AttackError(
                f"receiver {self.receiver_name!r} exposes {len(bins)} channel "
                f"time bins; the attack needs {minimum_bins}")
        return tuple(
            self.basis_coefficients(PhotonicState.photon(reg, fs.t_in(t)))
            for t in (bins[0], bins[-1]))

    def logical_embeddings(self) -> np.ndarray:
        """(2, n_basis) coordinates of the logical qubit basis states."""
        if (rc.COMPUTATIONAL, 0) in self.source_embeddings:
            return np.array([self.source_embeddings[(rc.COMPUTATIONAL, 0)],
                             self.source_embeddings[(rc.COMPUTATIONAL, 1)]])
        # sources that skip the computational pair still determine the
        # logical basis through their expansion coefficients
        basis = self.alice_labels[0][0]
        a = np.array([self.alpha[(basis, 0)], self.alpha[(basis, 1)]])
        s = np.array([self.source_embeddings[(basis, 0)],
                      self.source_embeddings[(basis, 1)]])
        return np.linalg.solve(a, s)


def build_constraint_system(receiver: rc.ReceiverModel) -> ConstraintSystem:
    """Assemble the zero-error conditions for a receiver.

    Matched-basis rounds contribute the wrong-bit outcomes; every round
    contributes the invalid outcomes.  Raises if a paired source state does
    not embed in the reachable space, reporting the lost norm.
    """
    basis = rc.reversed_space(receiver)
    n_k = len(basis)
    channel_reg = receiver.channel_registry()
    vacuum_index = None
    for k, st in enumerate(basis):
        if st.amplitudes.keys() == {0}:  # the vacuum's key
            vacuum_index = k
            break

    labels = tuple(receiver.source.labels())
    alpha = {lab: receiver.source.logical_alpha(lab) for lab in labels}
    source_embeddings: Dict[Tuple[str, int], np.ndarray] = {}
    for lab in labels:
        st = fs.embedded(receiver.source.states[lab], channel_reg)
        coeff = np.array([fs.inner_product(b, st) for b in basis])
        lost = abs(fs.inner_product(st, st)).real - float(
            np.sum(np.abs(coeff) ** 2))
        if lost > 1e-9:
            raise AttackError(
                f"source state {lab} of {receiver.name!r} does not lie in "
                f"the receiver's reachable space (lost norm {lost:.3e}); "
                f"no zero-error strategy can reproduce it")
        source_embeddings[lab] = coeff

    beta: Dict[str, Dict[str, Tuple[np.ndarray, ...]]] = {}
    # settings may share optics and outcome states: the basis runs through
    # each optics once, and each (optics, state) row is computed once,
    # keyed by identity while the receiver holds them
    evolved: Dict[int, List[PhotonicState]] = {}
    beta_rows: Dict[Tuple[int, int], np.ndarray] = {}
    for sname, setting in receiver.settings.items():
        optics = id(setting.optics)
        if optics not in evolved:
            evolved[optics] = [
                fs.apply_optics(fs.embedded(b, receiver.registry),
                                setting.optics) for b in basis]
        for ostates in setting.outcomes.values():
            for o in ostates:
                if (optics, id(o)) not in beta_rows:
                    beta_rows[optics, id(o)] = np.array(
                        [fs.inner_product(o, t) for t in evolved[optics]])
        beta[sname] = {
            oid: tuple(beta_rows[optics, id(o)] for o in ostates)
            for oid, ostates in setting.outcomes.items()}

    rows: List[ConstraintRow] = []
    data: List[np.ndarray] = []
    for lab in labels:
        a0, a1 = alpha[lab]
        for sname, setting in receiver.settings.items():
            bit = lab[1] if sname == lab[0] else None
            for oid in rc.error_outcome_ids(setting, bit):
                for m, b in enumerate(beta[sname][oid]):
                    rows.append(ConstraintRow(lab, sname, oid, m))
                    data.append(np.concatenate([a0 * b, a1 * b]))
    matrix = (np.array(data, dtype=complex) if data
              else np.zeros((0, 2 * n_k), dtype=complex))
    return ConstraintSystem(
        receiver_name=receiver.name,
        alice_labels=labels,
        p_basis=basis,
        vacuum_index=vacuum_index,
        rows=tuple(rows),
        matrix=matrix,
        alpha=alpha,
        beta=beta,
        interpretation={name: setting.interpretation
                        for name, setting in receiver.settings.items()},
        source_embeddings=source_embeddings,
    )


def _resolve_system(receiver: Optional[rc.ReceiverModel],
                    system: Optional[ConstraintSystem]) -> ConstraintSystem:
    """The prebuilt ``system``, else the one built from ``receiver``."""
    if system is None:
        if receiver is None:
            raise AttackError("pass a receiver or a prebuilt system")
        system = build_constraint_system(receiver)
    return system


def null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the kernel of ``matrix``.

    A zero (or empty) matrix with n columns yields the n coordinate
    vectors; a full-rank square matrix yields an (n, 0) array.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    n_cols = m.shape[1]
    if m.shape[0] == 0 or not np.any(np.abs(m) > 0):
        return np.eye(n_cols, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > NULL_TOL))
    return vh[rank:].conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive."""
    out = vectors.copy()
    for d in range(out.shape[1]):
        col = out[:, d]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, d] = col * (abs(pivot) / pivot)
    return out


# ---------------------------------------------------------------------------
# attack isometries
# ---------------------------------------------------------------------------

@dataclass
class AttackIsometry:
    """A concrete strategy: probe vectors v[i][k] attached to each (i, k).

    The induced map ``|i> -> sum_k |basis_k> |v_{i,k}>`` must be an
    isometry, i.e. the Gram matrix ``sum_k <v_{i,k}|v_{i',k}>`` equals the
    identity on the logical qubit.
    """

    receiver_name: str
    alice_labels: Tuple[Tuple[str, int], ...]
    p_basis: List[PhotonicState]
    coefficients: np.ndarray  # complex, shape (2, n_basis, eve_dim)
    label: str = ""

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 3 or self.coefficients.shape[0] != 2:
            raise AttackError(
                f"coefficients must have shape (2, n_basis, eve_dim); got "
                f"{self.coefficients.shape}")
        if self.coefficients.shape[1] != len(self.p_basis):
            raise AttackError(
                f"coefficient table covers {self.coefficients.shape[1]} basis "
                f"elements but the basis has {len(self.p_basis)}")
        res = self.isometry_residual()
        if not res <= GRAM_TOL:
            raise AttackError(
                f"probe vectors do not form an isometry "
                f"(Gram deviation {res:.3e})")

    @property
    def eve_dim(self) -> int:
        return self.coefficients.shape[2]

    @property
    def n_basis(self) -> int:
        return self.coefficients.shape[1]

    def gram(self) -> np.ndarray:
        return np.einsum("ika,jka->ij", self.coefficients.conj(),
                         self.coefficients)

    def isometry_residual(self) -> float:
        return float(np.max(np.abs(self.gram() - np.eye(2))))

    def to_json_dict(self) -> dict:
        coeff = [[[[c.real, c.imag] for c in self.coefficients[i, k]]
                  for k in range(self.n_basis)] for i in (0, 1)]
        return {
            "format": "attack-isometry/1",
            "receiver": self.receiver_name,
            "label": self.label,
            "alice_labels": [[basis, bit] for basis, bit in self.alice_labels],
            "basis": [fs.state_to_dict(s) for s in self.p_basis],
            "eve_dim": self.eve_dim,
            "coefficients": coeff,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "AttackIsometry":
        if data.get("format") != "attack-isometry/1":
            raise AttackError(
                f"unsupported attack format {data.get('format')!r}")
        try:
            receiver_name, label = data["receiver"], data.get("label", "")
            pairs, eve_dim = data["alice_labels"], data["eve_dim"]
            basis = [fs.state_from_dict(s) for s in data["basis"]]
            coeff = np.array(
                [[[complex(re, im) for re, im in row]
                  for row in block] for block in data["coefficients"]],
                dtype=complex)
        except KeyError as err:
            raise AttackError(f"attack-isometry/1 document lacks the key "
                              f"{err}") from err
        except (TypeError, ValueError) as err:
            raise AttackError(f"malformed attack-isometry/1 document: "
                              f"{err}") from err
        for key, value in (("receiver", receiver_name), ("label", label)):
            if not isinstance(value, str):
                raise AttackError(f"attack-isometry/1 document: {key!r} "
                                  f"must be a string, got {value!r}")
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                and type(p[1]) is int and p[1] in (0, 1) for p in pairs):
            raise AttackError("attack-isometry/1 document: 'alice_labels' "
                              "must be [basis, bit] pairs with a string "
                              "basis and a bit 0 or 1")
        attack = AttackIsometry(
            receiver_name=receiver_name,
            alice_labels=tuple((b, t) for b, t in pairs),
            p_basis=basis,
            coefficients=coeff,
            label=label,
        )
        if type(eve_dim) is not int or eve_dim != attack.eve_dim:
            raise AttackError(f"attack-isometry/1 document: 'eve_dim' is "
                              f"{eve_dim!r} but the coefficient table is "
                              f"{attack.eve_dim} wide")
        return attack


def _overlap(sys_basis: Sequence[PhotonicState],
             att_basis: Sequence[PhotonicState]) -> np.ndarray:
    """``<sys_basis[s]|att_basis[a]>`` as an (s, a) array."""
    reg_s = sys_basis[0].registry
    reg_a = att_basis[0].registry
    if reg_s != reg_a:
        # cross-receiver audits: home both bases on a shared registry
        union = fs.ModeRegistry(
            tuple(sorted(set(reg_s.modes) | set(reg_a.modes))),
            max(reg_s.max_photons_per_mode, reg_a.max_photons_per_mode))
        sys_basis = [fs.embedded(s, union) for s in sys_basis]
        att_basis = [fs.embedded(s, union) for s in att_basis]
    return np.array(
        [[fs.inner_product(bs, ba) for ba in att_basis]
         for bs in sys_basis])


def _aligned_coefficients(attack: AttackIsometry,
                          system: ConstraintSystem) -> np.ndarray:
    """Re-express an attack's probe table over the system's basis."""
    if attack.p_basis is system.p_basis:
        overlap = system._self_overlap
    else:
        overlap = _overlap(system.p_basis, attack.p_basis)
    col_norms = np.sum(np.abs(overlap) ** 2, axis=0)
    worst = float(np.max(np.abs(col_norms - 1.0))) if col_norms.size else 0.0
    if not worst <= _ALIGN_TOL:
        raise AttackError(
            f"attack basis is not contained in the receiver's reachable "
            f"space (worst lost norm {worst:.3e})")
    return np.einsum("sa,iae->ise", overlap, attack.coefficients)


# ---------------------------------------------------------------------------
# families and synthesis
# ---------------------------------------------------------------------------

def _weight_rows(dirs: np.ndarray, n_basis: int) -> np.ndarray:
    """The 4 real isometry conditions on per-direction weights.

    For diagonal members (one orthogonal probe axis per direction with
    weight t_d) the Gram conditions reduce to ``A @ t = [1, 1, 0, 0]``.
    """
    n0 = dirs[:n_basis, :]
    n1 = dirs[n_basis:, :]
    g00 = np.einsum("kd,kd->d", n0.conj(), n0).real
    g11 = np.einsum("kd,kd->d", n1.conj(), n1).real
    g01 = np.einsum("kd,kd->d", n0.conj(), n1)
    return np.vstack([g00, g11, g01.real, g01.imag])


_WEIGHT_TARGET = np.array([1.0, 1.0, 0.0, 0.0])


def _vertices(a: np.ndarray, pool: Sequence[int]) -> Iterator[np.ndarray]:
    """Every vertex of ``{t >= 0 : a t = [1, 1, 0, 0]}`` supported on ``pool``.

    A vertex of 4 equality rows has at most 4 nonzero weights (fundamental
    theorem of linear programming), so the supports of size 1..4 are tried,
    smallest first and then in ``pool`` order; the first vertex yielded
    therefore has the smallest support of any nonnegative solution.  Each
    support is solved exactly and kept when its columns are independent,
    its weights positive and its residual at most 1e-9.
    """
    for size in range(1, min(len(pool), 4) + 1):
        for support in combinations(pool, size):
            cols = a[:, support]
            t, _, rank, _ = np.linalg.lstsq(cols, _WEIGHT_TARGET, rcond=None)
            if (rank == size and np.all(t > 0)
                    and np.linalg.norm(cols @ t - _WEIGHT_TARGET) <= 1e-9):
                full = np.zeros(a.shape[1])
                full[list(support)] = t
                yield full


@dataclass
class AttackFamily:
    """All zero-error strategies for one constraint system.

    ``null_basis`` columns span the admissible probe-coefficient
    directions; ``vacuum_directions`` are those supported purely on the
    blocking (send-nothing) coordinates.
    """

    system: ConstraintSystem
    null_basis: np.ndarray
    vacuum_directions: Tuple[int, ...]
    canonical: AttackIsometry
    only_trivial: bool
    parameter_names: Tuple[str, ...] = ()
    _extractors: Dict[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict, repr=False)

    @property
    def dimension(self) -> int:
        return self.null_basis.shape[1]

    @property
    def non_vacuum_dimension(self) -> int:
        return self.dimension - len(self.vacuum_directions)

    def weight_system(self) -> Tuple[np.ndarray, np.ndarray]:
        """(A, b) such that diagonal members are exactly ``A t = b, t >= 0``."""
        return (_weight_rows(self.null_basis, self.system.n_basis),
                _WEIGHT_TARGET.copy())

    @cached_property
    def _photon_vertices(self) -> np.ndarray:
        """The vertices of the weight system over the photon-carrying
        directions, one per row, enumerated on first use.  The array is
        read-only."""
        a, _ = self.weight_system()
        pool = [d for d in range(self.dimension)
                if d not in self.vacuum_directions]
        vertices = np.array(list(_vertices(a, pool)))
        vertices.flags.writeable = False
        return vertices

    def sample(self, rng: np.random.Generator) -> AttackIsometry:
        """Random member: a Dirichlet mixture of up to 4 distinct extreme
        diagonal members, drawn from the vertices of the weight system over
        the photon-carrying directions."""
        vertices = self._photon_vertices
        if not len(vertices):
            raise InfeasibleAttackError(
                "the family admits no isometry members over the "
                "photon-carrying directions")
        picks = rng.choice(len(vertices), size=min(4, len(vertices)),
                           replace=False)
        mix = rng.dirichlet(np.ones(len(picks)))
        t = np.einsum("v,vd->d", mix, vertices[picks])
        return _diagonal_member(self.system, self.null_basis, t, "sampled")

    def projection_residual(self, attack: AttackIsometry) -> float:
        """Distance of the attack's probe columns from the solution span."""
        v = _aligned_coefficients(attack, self.system)
        flat = v.reshape(2 * self.system.n_basis, attack.eve_dim)
        n = self.null_basis
        resid = flat - n @ (n.conj().T @ flat)
        if resid.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(resid, axis=0)))

    def contains(self, attack: AttackIsometry) -> bool:
        return self.projection_residual(attack) < MEMBER_TOL

    def parameter_values(self, attack: AttackIsometry) -> Dict[str, float]:
        """Named family parameters of a member, when the family has them."""
        v = _aligned_coefficients(attack, self.system)
        return {name: fn(v) for name, fn in self._extractors.items()}


def _diagonal_member(system: ConstraintSystem, dirs: np.ndarray,
                     weights: np.ndarray, label: str) -> AttackIsometry:
    active = [d for d in range(dirs.shape[1]) if weights[d] > WEIGHT_TOL]
    eve_dim = max(len(active), 1)
    v = np.zeros((2 * system.n_basis, eve_dim), dtype=complex)
    for axis, d in enumerate(active):
        v[:, axis] = math.sqrt(weights[d]) * dirs[:, d]
    return system.attack(v.reshape(2, system.n_basis, eve_dim), label)


def _trivial_direction(system: ConstraintSystem) -> np.ndarray:
    emb = system.logical_embeddings()
    vec = np.concatenate([emb[0], emb[1]])
    return vec / np.linalg.norm(vec)


def _passthrough_member(system: ConstraintSystem,
                        dirs: np.ndarray) -> Optional[AttackIsometry]:
    """The untouched-signal member, if it solves the constraints."""
    vec = np.concatenate(list(system.logical_embeddings()))
    resid = vec - dirs @ (dirs.conj().T @ vec)
    if np.linalg.norm(resid) > 1e-9:
        return None
    try:
        return system.attack(system.logical_embeddings()[:, :, None],
                             "synthesized-canonical")
    except AttackError:
        return None


def _parameter_extractors(system: ConstraintSystem, only_trivial: bool
                          ) -> Dict[str, Callable[[np.ndarray], float]]:
    """Physically named coordinates, chosen by the family's structure.

    A pass-through-only family has none.  Otherwise a channel with time
    bins gets the time-bin amplitudes, one without the bright-pulse
    amplitudes, if the source labels they read are embedded.
    """

    def probe_weight(i: int, direction: np.ndarray):
        d = direction.conj()

        def fn(v: np.ndarray) -> float:
            return float(np.linalg.norm(d @ v[i]))
        return fn

    if only_trivial:
        return {}
    emb = system.source_embeddings
    comp0, comp1 = (rc.COMPUTATIONAL, 0), (rc.COMPUTATIONAL, 1)
    time_bins = any(m.kind == fs.CHANNEL
                    for m in system.p_basis[0].registry.modes)
    if time_bins and {comp0, comp1} <= emb.keys():
        early, late = system.edge_bin_coefficients()
        return {"early_amp": probe_weight(0, early),
                "inwindow_amp": probe_weight(0, emb[comp0]),
                "straddle_amp": probe_weight(0, emb[comp1]),
                "late_amp": probe_weight(1, late)}
    if not time_bins and {comp0, (rc.HADAMARD, 0)} <= emb.keys():
        return {"computational_amp": probe_weight(0, emb[comp0]),
                "hadamard_amp": probe_weight(0, emb[(rc.HADAMARD, 0)])}
    return {}


def synthesize_attacks(system: ConstraintSystem,
                       eve_dim: Optional[int] = None) -> AttackFamily:
    """Solve the constraint system into a family with a canonical member.

    The default probe dimension is the number of (i, k) pairs, a safe
    upper bound; the canonical member uses one orthogonal probe axis per
    active direction, preferring photon-carrying over blocking directions.
    Requesting a smaller ``eve_dim`` than any member needs raises with the
    minimal feasible dimension; an ``eve_dim`` that is not None or an
    integer >= 1 (a bool is not one) raises AttackError.
    """
    n_cols = system.n_columns
    if eve_dim is None:
        eve_dim = n_cols
    elif isinstance(eve_dim, bool) \
            or not isinstance(eve_dim, (int, np.integer)) or eve_dim < 1:
        raise AttackError(f"the probe dimension eve_dim must be an integer "
                          f">= 1, got {eve_dim!r}")
    eve_dim = int(eve_dim)

    m = system.matrix
    col_norms = (np.linalg.norm(m, axis=0) if m.size
                 else np.zeros(n_cols))
    bound = [c for c in range(n_cols) if col_norms[c] >= 1e-14]
    free = [c for c in range(n_cols) if col_norms[c] < 1e-14]
    blocks: List[np.ndarray] = []
    if bound:
        reduced = null_space(m[:, bound])
        embedded = np.zeros((n_cols, reduced.shape[1]), dtype=complex)
        embedded[bound, :] = reduced
        blocks.append(embedded)
    if free:
        coords = np.zeros((n_cols, len(free)), dtype=complex)
        for a, c in enumerate(free):
            coords[c, a] = 1.0
        blocks.append(coords)
    dirs = (_fix_phases(np.hstack(blocks)) if blocks
            else np.zeros((n_cols, 0), dtype=complex))
    if dirs.shape[1] == 0:
        raise InfeasibleAttackError(
            f"receiver {system.receiver_name!r} admits no zero-error "
            f"directions at all")

    vac_cols = set()
    if system.vacuum_index is not None:
        vac_cols = {system.column_index((i, system.vacuum_index))
                    for i in (0, 1)}
    vacuum_directions = tuple(
        d for d in range(dirs.shape[1])
        if set(np.nonzero(np.abs(dirs[:, d]) > 1e-12)[0]) <= vac_cols)

    a = _weight_rows(dirs, system.n_basis)
    nonvac = [d for d in range(dirs.shape[1]) if d not in vacuum_directions]
    # the first vertex of a pool has its smallest support, so when it needs
    # more than eve_dim axes no other vertex of that pool fits either
    firsts = [next(_vertices(a, pool), None)
              for pool in (nonvac, list(range(dirs.shape[1])))]
    weights = next((t for t in firsts if t is not None
                    and np.sum(t > WEIGHT_TOL) <= eve_dim), None)
    if weights is not None:
        canonical = _diagonal_member(system, dirs, weights,
                                     "synthesized-canonical")
    else:
        # one orthogonal axis per direction was too many; the pass-through
        # member shares a single axis across directions and may still fit
        canonical = _passthrough_member(system, dirs)
    if canonical is None:
        minimal = (None if firsts[-1] is None
                   else int(np.count_nonzero(firsts[-1])))
        detail = (f"; the smallest feasible probe dimension is {minimal}"
                  if minimal is not None else "")
        raise InfeasibleAttackError(
            f"no zero-error isometry for {system.receiver_name!r} with "
            f"probe dimension {eve_dim}{detail}", minimal_feasible=minimal)

    only_trivial = False
    if len(nonvac) == 1:
        triv = _trivial_direction(system)
        only_trivial = bool(abs(np.vdot(triv, dirs[:, nonvac[0]])) > 1 - 1e-9)

    extractors = _parameter_extractors(system, only_trivial)
    return AttackFamily(
        system=system,
        null_basis=dirs,
        vacuum_directions=vacuum_directions,
        canonical=canonical,
        only_trivial=only_trivial,
        parameter_names=tuple(extractors),
        _extractors=extractors,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class ObliviousnessReport:
    """Row-by-row audit of a strategy against the zero-error conditions."""

    oblivious: bool
    max_error_amplitude: float
    per_row_residuals: Tuple[Tuple[ConstraintRow, float], ...]
    isometry_residual: float

    def failing_rows(self) -> List[Tuple[ConstraintRow, float]]:
        return [(row, res) for row, res in self.per_row_residuals
                if res > NULL_TOL]


def verify_oblivious(attack: AttackIsometry,
                     system: ConstraintSystem) -> ObliviousnessReport:
    """Check every betraying amplitude of ``system`` (as built by
    :func:`build_constraint_system`) and the probe Gram matrix."""
    v = _aligned_coefficients(attack, system)
    flat = v.reshape(2 * system.n_basis, attack.eve_dim)
    residual_vectors = system.matrix @ flat
    per_row = tuple(
        (row, float(np.linalg.norm(residual_vectors[r])))
        for r, row in enumerate(system.rows))
    max_amp = max((res for _, res in per_row), default=0.0)
    logical_gram = np.einsum("ike,jke->ij", v.conj(), v)
    iso = float(np.max(np.abs(logical_gram - np.eye(2))))
    return ObliviousnessReport(
        oblivious=bool(max_amp < NULL_TOL and iso < NULL_TOL),
        max_error_amplitude=float(max_amp),
        per_row_residuals=per_row,
        isometry_residual=iso,
    )


def _probe_amplitudes(system: ConstraintSystem, v: np.ndarray,
                      alice_label: Tuple[str, int], setting_name: str,
                      outcome_ids: Iterable[str]
                      ) -> Iterator[Tuple[str, int, np.ndarray]]:
    """(outcome id, m, probe amplitude) for each state m spanning each of
    ``outcome_ids`` when Alice sends ``alice_label`` through the aligned
    probe table ``v``."""
    a0, a1 = system.alpha[alice_label]
    for oid in outcome_ids:
        for m, b in enumerate(system.beta[setting_name][oid]):
            yield oid, m, a0 * (b @ v[0]) + a1 * (b @ v[1])


def attacked_outcome_distribution(attack: AttackIsometry,
                                  system: ConstraintSystem,
                                  setting_name: str,
                                  alice_label: Tuple[str, int]
                                  ) -> Dict[str, float]:
    """Born probabilities of every outcome of ``system``'s receiver when
    the strategy is in line."""
    v = _aligned_coefficients(attack, system)
    outcome_ids = system.beta[setting_name]
    probs = dict.fromkeys(outcome_ids, 0.0)
    for oid, _, w in _probe_amplitudes(system, v, alice_label, setting_name,
                                       outcome_ids):
        probs[oid] += float(np.sum(np.abs(w) ** 2))
    total = 0.0
    for p in probs.values():
        total += p
    residual = 1.0 - total
    if residual > 1e-12:
        probs[rc.UNREGISTERED] = residual
    return probs


# ---------------------------------------------------------------------------
# what the probe learns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EveComponent:
    outcome_id: str
    support_index: int
    vector: np.ndarray  # unnormalized probe amplitude vector


@dataclass
class EveConditionalStates:
    """Unnormalized probe states conditioned on (Alice label, sifted bit).

    Their weights (the traces :meth:`density` returns) are joint
    probabilities of the conditioning event, so they sum (over sifted bits
    and labels at fixed basis, with uniform Alice) to at most one.
    """

    eve_dim: int
    components: Dict[Tuple[Tuple[str, int], int], Tuple[EveComponent, ...]]

    def density(self, label: Tuple[str, int], sifted_bit: int
                ) -> Tuple[np.ndarray, float]:
        """(unnormalized density matrix, its trace) for one condition."""
        rho = np.zeros((self.eve_dim, self.eve_dim), dtype=complex)
        for c in self.components.get((label, sifted_bit), ()):
            rho += np.outer(c.vector, c.vector.conj())
        return rho, float(rho.trace().real)

    def basis_density(self, label: Tuple[str, int]
                      ) -> Tuple[np.ndarray, float]:
        """Probe state given only that the round was detected and sifted."""
        rho0, w0 = self.density(label, 0)
        rho1, w1 = self.density(label, 1)
        return rho0 + rho1, w0 + w1


def eve_conditional_states(attack: AttackIsometry,
                           system: ConstraintSystem) -> EveConditionalStates:
    """Probe amplitudes for every matched-basis detection class of
    ``system``'s receiver."""
    v = _aligned_coefficients(attack, system)
    components: Dict[Tuple[Tuple[str, int], int],
                     Tuple[EveComponent, ...]] = {}
    for lab in system.alice_labels:
        basis = lab[0]
        tags = system.interpretation[basis]
        for sifted_bit, tag in ((0, rc.BIT0), (1, rc.BIT1)):
            components[(lab, sifted_bit)] = tuple(
                EveComponent(*c) for c in _probe_amplitudes(
                    system, v, lab, basis,
                    sorted(oid for oid, t in tags.items() if t == tag)))
    return EveConditionalStates(
        eve_dim=attack.eve_dim,
        components=components,
    )


def _unit_trace(rho) -> np.ndarray:
    """A density matrix scaled to unit trace."""
    arr = np.asarray(rho, dtype=complex)
    tr = float(arr.trace().real)
    if tr < WEIGHT_TOL:
        raise AttackError("cannot normalize a zero density matrix")
    return arr / tr


@dataclass(frozen=True)
class HelstromMeasurement:
    """The optimal two-outcome measurement and its per-truth statistics."""

    success_probability: float
    guess0_given_0: float
    guess0_given_1: float


def helstrom_measurement(state0, state1, prior0: float,
                         prior1: float) -> HelstromMeasurement:
    """The optimal measurement telling ``state0`` from ``state1`` at the
    given priors.  Both are density matrices, each scaled to unit trace
    here.  It succeeds with ``(1 + ||prior0*rho0 - prior1*rho1||_tr) / 2``,
    for pure states at equal priors ``(1 + sqrt(1 - |<a|b>|^2)) / 2``.
    """
    rho0 = _unit_trace(state0)
    rho1 = _unit_trace(state1)
    delta = prior0 * rho0 - prior1 * rho1
    vals, vecs = np.linalg.eigh(delta)
    plus = vecs[:, vals >= 0]
    proj = plus @ plus.conj().T
    g00 = float(np.real(np.trace(proj @ rho0)))
    g01 = float(np.real(np.trace(proj @ rho1)))
    return HelstromMeasurement(
        success_probability=prior0 * g00 + prior1 * (1.0 - g01),
        guess0_given_0=g00,
        guess0_given_1=g01,
    )


def eve_guess(conditional: EveConditionalStates,
              basis: str) -> Optional[HelstromMeasurement]:
    """Eve's optimal guess of Alice's bit in one announced basis.

    The one guess rule: analyses report it and sessions score it.  It
    conditions on the round being detected and sifted, with priors the
    (equal Alice input) detection-weighted probabilities.  If only one
    bit ever sifts, guessing that bit is always right; if neither does,
    there is nothing to guess and the result is ``None``.
    """
    bases = sorted({label[0] for label, _ in conditional.components})
    if basis not in bases:
        raise AttackError(f"Alice never sends in basis {basis!r}; "
                          f"her bases are {bases}")
    rho0, w0 = conditional.basis_density((basis, 0))
    rho1, w1 = conditional.basis_density((basis, 1))
    if w0 < WEIGHT_TOL and w1 < WEIGHT_TOL:
        return None
    if w1 < WEIGHT_TOL:
        return HelstromMeasurement(1.0, 1.0, 1.0)
    if w0 < WEIGHT_TOL:
        return HelstromMeasurement(1.0, 0.0, 0.0)
    total = w0 + w1
    return helstrom_measurement(rho0, rho1, w0 / total, w1 / total)


def eve_guess_probability(conditional: EveConditionalStates,
                          basis: str) -> float:
    """How well the probe reveals Alice's bit in one announced basis:
    the success probability of ``eve_guess``."""
    guess = eve_guess(conditional, basis)
    if guess is None:
        raise AttackError(
            f"no sifted detections in basis {basis!r} to condition on")
    return guess.success_probability


# ---------------------------------------------------------------------------
# named strategies
# ---------------------------------------------------------------------------

def trivial_attack(receiver: rc.ReceiverModel,
                   system: Optional[ConstraintSystem] = None
                   ) -> AttackIsometry:
    """Pass Alice's state through untouched; the probe stays in one state."""
    system = _resolve_system(receiver, system)
    return system.attack(system.logical_embeddings()[:, :, None],
                         "pass-through")


def cnot_attack(receiver: rc.ReceiverModel,
                system: Optional[ConstraintSystem] = None) -> AttackIsometry:
    """Copy the computational bit into the probe, disturbing nothing else.

    Perfectly stealthy against a receiver that only checks computational
    rounds, but the copied bit destroys conjugate-basis interference.
    """
    system = _resolve_system(receiver, system)
    emb = system.logical_embeddings()
    n_k = system.n_basis
    coeff = np.zeros((2, n_k, 2), dtype=complex)
    coeff[0, :, 0] = emb[0]
    coeff[1, :, 1] = emb[1]
    return system.attack(coeff, "copy-computational-bit")


def faked_states_attack(receiver: rc.ReceiverModel,
                        system: Optional[ConstraintSystem] = None
                        ) -> AttackIsometry:
    """Resend into the unmonitored earliest/latest time bins.

    Bit 0 goes to the earliest channel bin, bit 1 to the latest; for the
    plain interferometric receivers those bins can only ever reach
    correct-window or unmonitored detections.
    """
    system = _resolve_system(receiver, system)
    early, late = system.edge_bin_coefficients(minimum_bins=3)
    n_k = system.n_basis
    coeff = np.zeros((2, n_k, 2), dtype=complex)
    coeff[0, :, 0] = early
    coeff[1, :, 1] = late
    return system.attack(coeff, "faked-states-early-late")


def two_mode_attack(receiver: rc.ReceiverModel,
                    early_amp: float, inwindow_amp: float,
                    straddle_amp: float, late_amp: float,
                    shared_probe_axis: bool = True,
                    system: Optional[ConstraintSystem] = None
                    ) -> AttackIsometry:
    """The zero-error family against the sparse two-window receiver.

    ``early_amp`` weights the early-bin probe for bit 0, ``late_amp`` the
    late-bin probe for bit 1, ``inwindow_amp`` the undisturbed in-window
    component and ``straddle_amp`` the component smeared across the
    monitored windows.  Both branch normalizations
    ``early^2 + inwindow^2 + 2*straddle^2`` and
    ``late^2 + inwindow^2 + 2*straddle^2`` must equal one.  With
    ``shared_probe_axis`` the early and late probes reuse one axis (the
    full-information configuration); otherwise they get separate axes.
    """
    system = _resolve_system(receiver, system)
    n0 = abs(early_amp) ** 2 + abs(inwindow_amp) ** 2 + 2 * abs(straddle_amp) ** 2
    n1 = abs(late_amp) ** 2 + abs(inwindow_amp) ** 2 + 2 * abs(straddle_amp) ** 2
    if abs(n0 - 1) > 1e-9 or abs(n1 - 1) > 1e-9:
        raise AttackError(
            f"branch normalizations must be 1; got {n0:.12f} and {n1:.12f}")
    c_early, c_late = system.edge_bin_coefficients()
    emb = system.logical_embeddings()
    eve_dim = 3 if shared_probe_axis else 4
    e = np.eye(eve_dim, dtype=complex)
    axis_early, axis_window, axis_straddle = e[0], e[1], e[2]
    axis_late = e[0] if shared_probe_axis else e[3]
    n_k = system.n_basis
    coeff = np.zeros((2, n_k, eve_dim), dtype=complex)
    coeff[0] += early_amp * np.outer(c_early, axis_early)
    coeff[0] += inwindow_amp * np.outer(emb[0], axis_window)
    coeff[0] += straddle_amp * np.outer(emb[1], axis_straddle)
    coeff[0] += straddle_amp * np.outer(c_late, axis_straddle)
    coeff[1] += -straddle_amp * np.outer(c_early, axis_straddle)
    coeff[1] += straddle_amp * np.outer(emb[0], axis_straddle)
    coeff[1] += inwindow_amp * np.outer(emb[1], axis_window)
    coeff[1] += late_amp * np.outer(c_late, axis_late)
    return system.attack(coeff, "two-window-family")


def full_information_attack(receiver: rc.ReceiverModel,
                            system: Optional[ConstraintSystem] = None
                            ) -> AttackIsometry:
    """The equal-amplitude two-window member whose probe states for the
    two bits are orthogonal in both bases."""
    attack = two_mode_attack(receiver, 0.5, 0.5, 0.5, 0.5, system=system)
    attack.label = "full-information"
    return attack


def bright_pulse_attack(receiver: rc.ReceiverModel,
                        computational_amp: float,
                        system: Optional[ConstraintSystem] = None
                        ) -> AttackIsometry:
    """Substitute classical bright pulses for the logical qubit.

    ``computational_amp`` weights the pointer that records the bit in the
    rectilinear bright pair; each pointer onto the diagonal pair gets
    ``hadamard_amp = sqrt((1 - computational_amp^2) / 2)``, so that
    ``computational_amp^2 + 2*hadamard_amp^2 = 1``.  An amplitude outside
    [-1, 1] gives no isometry and raises AttackError.
    """
    hadamard_amp = math.sqrt(max(0.0, (1 - computational_amp ** 2) / 2))
    system = _resolve_system(receiver, system)
    cb0 = system.source_embeddings[(rc.COMPUTATIONAL, 0)]
    cb1 = system.source_embeddings[(rc.COMPUTATIONAL, 1)]
    cbp = system.source_embeddings[(rc.HADAMARD, 0)]
    cbm = system.source_embeddings[(rc.HADAMARD, 1)]
    e = np.eye(4, dtype=complex)
    n_k = system.n_basis
    coeff = np.zeros((2, n_k, 4), dtype=complex)
    coeff[0] += computational_amp * np.outer(cb0, e[0])
    coeff[0] += hadamard_amp * np.outer(cbp, e[2])
    coeff[0] += hadamard_amp * np.outer(cbm, e[3])
    coeff[1] += computational_amp * np.outer(cb1, e[1])
    coeff[1] += hadamard_amp * np.outer(cbp, e[2])
    coeff[1] += -hadamard_amp * np.outer(cbm, e[3])
    return system.attack(coeff, "bright-pulse-family")
