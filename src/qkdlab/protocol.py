"""Monte-Carlo BB84 sessions against configurable channel adversaries.

The engine samples complete protocol rounds (preparation, channel,
measurement choice, detection, sifting) from exact Born-rule tables, so
empirical rates converge to the closed-form predictions of the attack
layer.  Channels cover the benign identity, an eavesdropping isometry,
logical photon-number splitting, and plain loss.

Round logs persist as newline-delimited JSON (one header record, then
one record per round); reports are a single versioned JSON document.
``sift_and_estimate`` re-aggregates a persisted log offline, with
configurable test-bit subsampling for the error estimate.

Both stream: rounds are drawn, logged and read back in fixed chunks and
tallied as integer counts per cell (label, setting, outcome, guess), so
memory is bounded by the chunk size whatever the session length.

The random stream is counter-based (Philox; Salmon, Moraes, Dror & Shaw,
SC'11), so each chunk keys its own generator at the counter offset of
its first round and needs nothing from the chunk before it.  A session
of several chunks draws and counts them on up to ``_WORKERS`` threads,
one per CPU this process may use, while the calling thread adds their
tallies and writes their log lines in chunk order; a one-chunk session
runs inline and starts no thread.  The chunks together draw the stream
of one whole-session draw, so the reports and log bytes are those of an
unchunked run and depend neither on the number of threads nor on the
chunk size.

A log file is read back in batches of whole lines: one regex split
strips every line's round number and one dict lookup per line body maps
the batch to cells, so no Python step runs per line.  A batch holding
any line of another shape is read line by line, which keeps every error
and its line number.

Outcomes are drawn by inverse transform through a guide table (Chen &
Asau, AIIE Trans. 6, 163 (1974); Devroye, *Non-Uniform Random Variate
Generation*, III.2.4 (1986)).  Each (label, setting) row of the stacked
CDF gets 2**12 equal bins of [0, 1); a bin that no CDF entry splits
stores its outcome, so one lookup settles the round.  The few rounds in
a split bin count their row's entries in full.  Both give the outcome
of the full count exactly, never an approximation, so the guide table
changes no report or log byte.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import attacks as atk
from . import receivers as rc
from .fockspace import PhotonicState
from .output import SIMULATION_REPORT_SCHEMA as REPORT_SCHEMA
from .output import atomic_open, ndjson as _dump, read_field

ROUND_LOG_SCHEMA = "round-log/1"

IDENTITY = "identity"
ATTACK = "attack-isometry"
PNS = "pns"
LOSSY = "lossy"
CHANNEL_KINDS = (IDENTITY, ATTACK, PNS, LOSSY)

# interpretation classes as stored in round logs, indexed by internal code
_CLASSES = (rc.BIT0, rc.BIT1, rc.LOSS, rc.INVALID)
_CLASS_CODE = {name: code for code, name in enumerate(_CLASSES)}


class ProtocolError(ValueError):
    """Bad channel payload, malformed log, or invalid session parameters."""


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """What happens to Alice's state between the labs.

    Exactly one payload field is meaningful, selected by ``kind``:
    ``attack`` for an eavesdropping isometry, ``p_multi`` for the
    two-photon emission probability, ``loss`` for the erasure
    probability.  Construct through :func:`make_channel`, which
    validates the pairing.
    """

    kind: str
    attack: Optional[atk.AttackIsometry] = None
    p_multi: float = 0.0
    loss: float = 0.0


def _probability(value, name: str) -> float:
    """``value`` as a float; ProtocolError unless it is a real in [0, 1].

    A bool, a string or bytes is not taken for a number, though
    ``float()`` reads each.
    """
    if isinstance(value, (bool, np.bool_, str, bytes, bytearray)):
        raise ProtocolError(f"{name} must be a real number, got {value!r}")
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= p <= 1.0:
        raise ProtocolError(f"{name} must lie in [0, 1], got {p}")
    return p


def make_channel(kind: str, payload=None) -> ChannelModel:
    """Build a channel model, rejecting mismatched payloads.

    identity takes no payload; attack-isometry takes an
    :class:`~qkdlab.attacks.AttackIsometry`; pns takes a two-photon
    probability (bare number or ``{"p_multi": x}``); lossy takes an
    erasure probability (bare number or ``{"loss": x}``).
    """
    if kind == IDENTITY:
        if payload is not None:
            raise ProtocolError("identity channel takes no payload")
        return ChannelModel(kind=IDENTITY)
    if kind == ATTACK:
        if not isinstance(payload, atk.AttackIsometry):
            raise ProtocolError(
                "attack-isometry channel needs an AttackIsometry payload")
        return ChannelModel(kind=ATTACK, attack=payload)
    if kind == PNS:
        if isinstance(payload, Mapping):
            extra = set(payload) - {"p_multi"}
            if extra:
                raise ProtocolError(f"unknown pns keys {sorted(extra)}")
            payload = payload.get("p_multi")
        return ChannelModel(kind=PNS, p_multi=_probability(payload, "p_multi"))
    if kind == LOSSY:
        if isinstance(payload, Mapping):
            extra = set(payload) - {"loss"}
            if extra:
                raise ProtocolError(f"unknown lossy keys {sorted(extra)}")
            payload = payload.get("loss")
        return ChannelModel(kind=LOSSY, loss=_probability(payload, "loss"))
    raise ProtocolError(f"unknown channel kind {kind!r}; "
                        f"expected one of {CHANNEL_KINDS}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class BasisStats:
    """Counting statistics over the matched-basis rounds of one basis.

    ``rounds`` counts rounds where Alice's basis equals Bob's setting;
    ``sifted`` counts of those the valid bit detections.  The three
    rates are ratios of ``sifted``/``lost``/``invalid`` to ``rounds``
    and always account for every matched round:
    sifted + lost + invalid == rounds, exactly, as integers.
    Undefined ratios (zero denominator) are stored as None.
    """

    rounds: int
    sifted: int
    errors: int
    lost: int
    invalid: int
    qber: Optional[float]
    detection_efficiency: Optional[float]
    loss_rate: Optional[float]
    invalid_rate: Optional[float]
    eve_accuracy: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "sifted": self.sifted,
            "errors": self.errors,
            "lost": self.lost,
            "invalid": self.invalid,
            "qber": self.qber,
            "detection_efficiency": self.detection_efficiency,
            "loss_rate": self.loss_rate,
            "invalid_rate": self.invalid_rate,
            "eve_accuracy": self.eve_accuracy,
        }


@dataclass
class SimulationReport:
    """Aggregate of one simulated session (or one re-estimated log).

    ``qber_pooled`` and the per-basis ``qber`` come from the test-bit
    subset (``test_fraction`` of the sifted rounds; inline aggregation
    uses 1.0, i.e. every sifted bit).  ``eve_guess_accuracy`` is the
    fraction of sifted bits the adversary's recorded guess matches.
    ``invalid_rate`` pools invalid outcomes over all rounds, matched or
    not, since invalid events are observable alarms either way.
    """

    receiver: str
    channel: str
    rounds: int
    rng_seed: Optional[int]
    per_basis: Dict[str, BasisStats]
    sifted_total: int
    qber_pooled: Optional[float]
    invalid_rate: float
    eve_guess_accuracy: Optional[float]
    test_fraction: float = 1.0
    attack_label: Optional[str] = None
    schema: str = REPORT_SCHEMA

    def validate(self) -> None:
        if self.rounds < 1:
            raise ProtocolError("report must cover at least one round")
        if self.sifted_total > self.rounds:
            raise ProtocolError("sifted count exceeds round count")
        rates = [self.qber_pooled, self.invalid_rate, self.eve_guess_accuracy,
                 self.test_fraction]
        for st in self.per_basis.values():
            if st.sifted + st.lost + st.invalid != st.rounds:
                raise ProtocolError(
                    "matched rounds are not fully accounted for")
            if st.errors > st.sifted:
                raise ProtocolError("more errors than sifted bits")
            rates += [st.qber, st.detection_efficiency, st.loss_rate,
                      st.invalid_rate, st.eve_accuracy]
        for r in rates:
            if r is not None and not 0.0 <= r <= 1.0:
                raise ProtocolError(f"rate {r} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "receiver": self.receiver,
            "channel": self.channel,
            "attack_label": self.attack_label,
            "rounds": self.rounds,
            "rng_seed": self.rng_seed,
            "test_fraction": self.test_fraction,
            "per_basis": {b: st.to_json_dict()
                          for b, st in self.per_basis.items()},
            "sifted_total": self.sifted_total,
            "qber_pooled": self.qber_pooled,
            "invalid_rate": self.invalid_rate,
            "eve_guess_accuracy": self.eve_guess_accuracy,
        }


def report_from_json_dict(data: Mapping) -> SimulationReport:
    """Rebuild a simulation report from its JSON form.

    A missing key or a malformed field raises ProtocolError naming it.
    """
    if data.get("schema") != REPORT_SCHEMA:
        raise ProtocolError(
            f"expected schema {REPORT_SCHEMA!r}, got {data.get('schema')!r}")

    def field(key: str, parse=lambda value: value):
        return read_field(data, key, parse, REPORT_SCHEMA, ProtocolError)

    report = SimulationReport(
        receiver=field("receiver"),
        channel=field("channel"),
        rounds=field("rounds"),
        rng_seed=field("rng_seed"),
        per_basis=field("per_basis", lambda rows: {
            b: BasisStats(**st) for b, st in rows.items()}),
        sifted_total=field("sifted_total"),
        qber_pooled=field("qber_pooled"),
        invalid_rate=field("invalid_rate"),
        eve_guess_accuracy=field("eve_guess_accuracy"),
        test_fraction=data.get("test_fraction", 1.0),
        attack_label=data.get("attack_label"),
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# the session engine
# ---------------------------------------------------------------------------

# Rounds are drawn, counted and logged this many at a time, and round
# records given as an iterable are read back this many at a time, which
# bounds a session's memory whatever its length.  Each chunk keys its own
# generator at its counter offset, so the chunk size changes no byte of a
# report or a log.  Up to _WORKERS chunks are in flight at once, each
# holding about 3 MB of arrays at this size, so two hold about what one
# chunk of twice the size held when chunks were drawn one by one.  Smaller
# chunks hand the interpreter lock between threads so often that two
# threads draw no faster than one.
_CHUNK = 1 << 15

# A session's chunks are drawn on one thread per CPU this process may use,
# up to _MAX_WORKERS, which bounds the chunks in flight and their memory.
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# A chunk's round lines are joined and written this many at a time, so the
# log write holds a slice of text rather than a whole chunk's.  A round-log
# file is read back in batches of 32 characters per slice row (256 KiB,
# about 1800 round lines) and the rest of the line the batch ends in.
_LOG_SLICE = 1 << 13

# Guide bins per CDF row of the outcome sampler: a power of two, so a
# uniform's bin is exact, and enough bins that almost no round lands in
# a bin one of its row's entries splits.
_GUIDE = 1 << 12


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int; ProtocolError unless it is an integer >= least.

    A bool is not taken for an integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ProtocolError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _outcome_tables(alice: rc.AliceSourceModel, channel: ChannelModel,
                    receiver: rc.ReceiverModel,
                    system: Optional[atk.ConstraintSystem]):
    """Outcome ids per setting, the stacked inverse-CDF table and its guide.

    Row ``l * n_settings + s`` holds the cumulative outcome distribution
    of label l under setting s, padded with +inf to the widest setting.
    Its last real entry is +inf as well, so the number of entries <= u
    is the sampled outcome index, with rounding overflow folded into the
    last (unregistered) outcome.  The guide table is
    :func:`_guide_table` of that CDF.
    """
    settings = list(receiver.settings)
    labels = alice.labels()
    ids = {s: list(receiver.settings[s].outcomes) + [rc.UNREGISTERED]
           for s in settings}
    vacuum_probs = {}
    if channel.kind == LOSSY:
        vac = PhotonicState.vacuum(receiver.channel_registry())
        vacuum_probs = {s: rc.outcome_probabilities(receiver, s, vac)
                        for s in settings}
    width = max(len(outcome_ids) for outcome_ids in ids.values())
    cdf = np.full((len(labels) * len(settings), width), np.inf)
    for si, s in enumerate(settings):
        for li, lab in enumerate(labels):
            if channel.kind == ATTACK:
                probs = atk.attacked_outcome_distribution(
                    channel.attack, receiver, s, lab, system)
            else:
                probs = rc.outcome_probabilities(
                    receiver, s, alice.states[lab])
                if channel.kind == LOSSY:
                    vac = vacuum_probs[s]
                    keep = 1.0 - channel.loss
                    probs = {oid: keep * probs.get(oid, 0.0)
                             + channel.loss * vac.get(oid, 0.0)
                             for oid in set(probs) | set(vac)}
            vec = np.array([max(probs.get(oid, 0.0), 0.0) for oid in ids[s]])
            total = vec.sum()
            if not 0.999999999 < total < 1.000000001:
                raise ProtocolError(
                    f"outcome probabilities for {lab}/{s} sum to {total}")
            cdf[li * len(settings) + si, :len(vec) - 1] = \
                (np.cumsum(vec) / total)[:-1]
    return ids, cdf, _guide_table(cdf)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """The settled outcome of each guide bin, flattened row by row.

    Entry ``p * K + k``, K = ``_GUIDE``, covers u in [k/K, (k+1)/K) for
    CDF row p.  Every entry <= k/K is <= u and every entry >= (k+1)/K is
    > u, so the outcome lies between lo = #{c <= k/K} and
    hi = #{c < (k+1)/K}; the bin stores it when they agree and -1 when
    an entry splits the bin.  Outcome indices are small, so the table is
    int32, which halves it and the per-chunk outcome arrays it fills.
    """
    edges = np.arange(_GUIDE + 1) / _GUIDE
    guide = np.empty((len(cdf), _GUIDE), dtype=np.int32)
    for row, cumulative in zip(guide, cdf):
        lo = np.searchsorted(cumulative, edges[:-1], side="right")
        hi = np.searchsorted(cumulative, edges[1:], side="left")
        row[:] = np.where(lo == hi, lo, -1)
    return guide.ravel()


def _sample_outcomes(cdf: np.ndarray, guide: np.ndarray, pair: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """#{c <= u} over CDF row ``pair`` per round, read off the guide table.

    ``u * _GUIDE`` is exact in binary64, so truncating it names the bin
    u lies in.  Only rounds in a split bin count their row's entries.
    """
    outcome = guide[pair * _GUIDE + (u * _GUIDE).astype(np.int64)]
    split = np.flatnonzero(outcome < 0)
    if len(split):
        outcome[split] = np.count_nonzero(
            cdf[pair[split]] <= u[split, None], axis=1)
    return outcome


def _interpretation_codes(receiver: rc.ReceiverModel,
                          ids: Dict[str, List[str]],
                          width: int) -> np.ndarray:
    """(setting, outcome) -> interpretation code, padded to ``width``.

    Loss, foreign-basis fold-ins, the unregistered remainder and the
    padding all read as loss.
    """
    loss = _CLASS_CODE[rc.LOSS]
    codes = np.full((len(ids), width), loss, dtype=np.int64)
    for si, (s, outcome_ids) in enumerate(ids.items()):
        tags = receiver.settings[s].interpretation
        codes[si, :len(outcome_ids)] = [
            _CLASS_CODE.get(tags.get(oid), loss) for oid in outcome_ids]
    return codes


def _guess_probabilities(conditional: atk.EveConditionalStates,
                         bases: Iterable[str]) -> Dict[Tuple[str, int], float]:
    """P(adversary guesses bit 0 | Alice label), given the round sifts.

    The guess is the optimal two-state measurement on the probe,
    applied per announced basis with detection-weighted priors.  A basis
    in which one bit never produces a sifted detection degenerates to a
    constant guess; a basis with no detections at all is never scored,
    so the guess is left uniform.
    """
    out: Dict[Tuple[str, int], float] = {}
    for basis in bases:
        rho0, w0 = conditional.basis_density((basis, 0))
        rho1, w1 = conditional.basis_density((basis, 1))
        if w0 < atk.WEIGHT_TOL and w1 < atk.WEIGHT_TOL:
            p0 = p1 = 0.5
        elif w1 < atk.WEIGHT_TOL:
            p0 = p1 = 1.0
        elif w0 < atk.WEIGHT_TOL:
            p0 = p1 = 0.0
        else:
            total = w0 + w1
            meas = atk.helstrom_measurement(rho0, rho1,
                                            w0 / total, w1 / total)
            p0 = min(max(meas.guess0_given_0, 0.0), 1.0)
            p1 = min(max(meas.guess0_given_1, 0.0), 1.0)
        out[(basis, 0)] = p0
        out[(basis, 1)] = p1
    return out


def _guess_rule(channel: ChannelModel, labels, guess_p0):
    """Per-round adversary guess from label indices and the round uniforms."""
    if channel.kind == ATTACK:
        p0 = np.array([guess_p0[lab] for lab in labels])
        return lambda lab, u: np.where(u[:, 3] < p0[lab], 0, 1)
    if channel.kind == PNS:
        bit_of = np.array([lab[1] for lab in labels], dtype=np.int64)
        return lambda lab, u: np.where(u[:, 3] < channel.p_multi, bit_of[lab],
                                       (u[:, 4] >= 0.5).astype(np.int64))
    return lambda lab, u: (u[:, 3] >= 0.5).astype(np.int64)


def _report(cells, counts: np.ndarray, tested: np.ndarray,
            bases: Iterable[str], **fields) -> SimulationReport:
    """Aggregate per-cell round counts into a validated report.

    ``cells[i]`` is an (alice_basis, alice_bit, bob_setting, code,
    eve_guess) tuple; ``counts[i]`` rounds fell in that cell and
    ``tested[i]`` of them in the error-test subsample.  Every figure is a
    ratio of integer counts, so it does not depend on how the rounds
    were split into chunks.  If the subsample of some basis (or of all
    of them) is empty while sifted bits exist, the error estimate falls
    back to all of its sifted bits.
    """
    alice, bit, setting, code, guess = (np.array(col) for col in zip(*cells))
    matched = alice == setting
    sifted = matched & (code <= 1)
    error = sifted & (code != bit)
    correct = sifted & (guess == bit)
    invalid = code == 3

    def total(mask, of=counts) -> int:
        return int(of[mask].sum())

    def error_estimate(m) -> Optional[float]:
        n_test, n_sift = total(m & sifted, tested), total(m & sifted)
        if n_test == 0 and n_sift > 0:
            return _ratio(total(m & error), n_sift)
        return _ratio(total(m & error, tested), n_test)

    per_basis = {}
    for s in bases:
        m = matched & (setting == s)
        n, n_sift, n_inv = total(m), total(m & sifted), total(m & invalid)
        n_lost = n - n_sift - n_inv
        per_basis[s] = BasisStats(
            rounds=n, sifted=n_sift, errors=total(m & error), lost=n_lost,
            invalid=n_inv,
            qber=error_estimate(m),
            detection_efficiency=_ratio(n_sift, n),
            loss_rate=_ratio(n_lost, n),
            invalid_rate=_ratio(n_inv, n),
            eve_accuracy=_ratio(total(m & correct), n_sift),
        )

    rounds = int(counts.sum())
    sifted_total = total(sifted)
    report = SimulationReport(
        rounds=rounds,
        per_basis=per_basis,
        sifted_total=sifted_total,
        qber_pooled=error_estimate(matched),
        invalid_rate=total(invalid) / rounds,
        eve_guess_accuracy=_ratio(total(correct), sifted_total),
        **fields,
    )
    report.validate()
    return report


def run_bb84(alice: Optional[rc.AliceSourceModel],
             channel: Optional[ChannelModel],
             receiver: rc.ReceiverModel,
             rounds: int,
             seed: int = 0,
             log_path: Union[str, Path, None] = None) -> SimulationReport:
    """Simulate a BB84 session and aggregate it into a report.

    Alice draws a uniform (basis, bit) label each round; Bob's setting
    is uniform over the receiver's settings (for passive receivers the
    optics make that draw, with identical statistics).  Outcomes are
    sampled from exact Born probabilities, so zero-amplitude events
    never occur, at any round count.  ``alice`` defaults to the
    receiver's paired source and ``channel`` to the identity.

    The adversary's per-round guess is logged for every round but only
    scored on sifted ones.  With ``log_path`` the full round log is
    written as newline-delimited JSON behind a header record, through a
    temporary file in the same directory that replaces ``log_path`` only
    once the session completes.

    All randomness derives from one counter-based generator keyed by
    ``seed`` (a non-negative integer): round r consumes a fixed slice of
    the stream, so reports and logs are reproducible bit-for-bit.
    Rounds are drawn, counted and logged in fixed chunks, so memory
    stays bounded by the chunk, not the session.  Each chunk starts its
    own generator at its counter offset, so up to ``_WORKERS`` chunks
    are drawn and counted at once on worker threads, and this thread
    takes their counts and writes their log lines in chunk order.  A
    session of one chunk runs inline and starts no thread.  Neither the
    number of threads nor the chunk size changes a byte of the report
    or the log.  An exception in a chunk is raised here, after the
    threads stop, and leaves any earlier file at ``log_path`` as it was.
    """
    if alice is None:
        alice = receiver.source
    if channel is None:
        channel = make_channel(IDENTITY)
    if channel.kind not in CHANNEL_KINDS:
        raise ProtocolError(f"unknown channel kind {channel.kind!r}")
    rounds = _integer(rounds, "rounds", 1)
    seed = _integer(seed, "seed", 0)

    labels = alice.labels()
    settings = list(receiver.settings)
    system = None
    guess_p0 = None
    if channel.kind == ATTACK:
        system = atk.build_constraint_system(receiver)
        missing = set(labels) - set(system.alice_labels)
        if missing:
            raise ProtocolError(
                f"attack channels use the receiver's paired source; labels "
                f"{sorted(missing)} have no logical embedding")
        conditional = atk.eve_conditional_states(channel.attack, system=system)
        guess_p0 = _guess_probabilities(conditional, alice.bases)

    ids, cdf, guide = _outcome_tables(alice, channel, receiver, system)
    width = cdf.shape[1]
    codes = _interpretation_codes(receiver, ids, width)
    guess = _guess_rule(channel, labels, guess_p0)
    n_lab, n_set = len(labels), len(settings)
    # cell ((label * n_set + setting) * width + outcome) * 2 + guess
    cells = [(lab[0], int(lab[1]), s, int(codes[si, oi]), g)
             for lab in labels for si, s in enumerate(settings)
             for oi in range(width) for g in (0, 1)]
    counts = np.zeros(len(cells), dtype=np.int64)
    attack_label = channel.attack.label if channel.kind == ATTACK else None

    key = np.random.Philox(seed).state["state"]["key"]

    def draw(start: int) -> Tuple[np.ndarray, np.ndarray]:
        """The cell index of each round of the chunk at ``start``, and
        their tally per cell.

        Round r takes doubles 5r .. 5r + 4 of the stream, and Philox
        makes four per counter step, so the chunk starts its own
        generator ``5 * start // 4`` steps in and drops the
        ``5 * start % 4`` doubles of that step that earlier rounds took.
        """
        bits = np.random.Philox(key=key)
        bits.advance(5 * start // 4)
        gen = np.random.Generator(bits)
        gen.random(5 * start % 4)
        # Column layout of the per-round uniforms: label, setting,
        # outcome, adversary primary, adversary secondary draw.
        u = gen.random((min(_CHUNK, rounds - start), 5))
        lab = np.minimum((u[:, 0] * n_lab).astype(np.int64), n_lab - 1)
        pair = lab * n_set + np.minimum(
            (u[:, 1] * n_set).astype(np.int64), n_set - 1)
        outcome = _sample_outcomes(cdf, guide, pair, u[:, 2])
        cell = (pair * width + outcome) * 2 + guess(lab, u)
        return cell, np.bincount(cell, minlength=len(cells))

    starts = range(0, rounds, _CHUNK)
    with atomic_open(log_path) as fh, \
            contextlib.closing(_in_order(draw, starts)) as drawn:
        if fh is not None:
            prefixes = _line_prefixes(cells, ids, width)
            fh.write(_dump({
                "schema": ROUND_LOG_SCHEMA,
                "receiver": receiver.name,
                "channel": channel.kind,
                "attack_label": attack_label,
                "rounds": rounds,
                "rng_seed": seed,
            }) + "\n")
        for start, (cell, tally) in zip(starts, drawn):
            counts += tally
            if fh is not None:
                for lo in range(0, len(cell), _LOG_SLICE):
                    fh.write(_log_lines(prefixes, start + lo,
                                        cell[lo:lo + _LOG_SLICE]))

    bases = [s for s in settings if s in {lab[0] for lab in labels}]
    return _report(cells, counts, counts, bases,
                   receiver=receiver.name, channel=channel.kind,
                   rng_seed=seed, test_fraction=1.0,
                   attack_label=attack_label)


def _in_order(draw, starts: range):
    """Yield ``draw(start)`` for each of ``starts``, in order.

    The calls run on ``_WORKERS`` threads, and at most that many are
    submitted and not yet yielded, so a slow consumer holds at most that
    many results.  With one start or one worker every call runs inline
    and no thread starts.  Closing the generator cancels the calls not
    yet begun and waits for those running; a call's exception is raised
    when its turn comes.
    """
    workers = min(_WORKERS, len(starts))
    if workers < 2:
        yield from map(draw, starts)
        return
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers)
    ahead = collections.deque()
    try:
        for start in starts:
            ahead.append(pool.submit(draw, start))
            if len(ahead) == workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _line_prefixes(cells, ids: Dict[str, List[str]],
                   width: int) -> List[Optional[str]]:
    """Each cell's round line up to its round number.

    Under sorted keys ``"round"`` comes last, so a line is its cell's
    prefix, the round number and ``}``.  Cell i holds outcome
    ``(i // 2) % width`` (the layout :func:`run_bb84` indexes by); cells
    past a setting's outcome list never occur and get None.
    """
    prefixes: List[Optional[str]] = []
    for i, (basis, bit, setting, code, guess) in enumerate(cells):
        outcome = (i // 2) % width
        if outcome >= len(ids[setting]):
            prefixes.append(None)
            continue
        line = _dump({
            "round": 0,
            "alice_basis": basis,
            "alice_bit": bit,
            "bob_setting": setting,
            "outcome_id": ids[setting][outcome],
            "interpretation": _CLASSES[code],
            "eve_guess": guess,
        })
        prefixes.append(line[:-len("0}")])
    return prefixes


def _log_lines(prefixes: List[Optional[str]], start: int,
               cells: np.ndarray) -> str:
    """Round lines ``start, start + 1, ...`` for a chunk of cell indices."""
    n = len(cells)
    rows = zip(map(prefixes.__getitem__, cells.tolist()),
               range(start, start + n))
    return ("%s%d}\n" * n) % tuple(itertools.chain.from_iterable(rows))


# ---------------------------------------------------------------------------
# offline re-aggregation
# ---------------------------------------------------------------------------

# a round line as run_bb84 writes it: the body, then the round number last
_ROUND_LINE = re.compile(r'(\{.*),"round":(?:0|[1-9][0-9]*)\}\n?')
# the round-number tail of such a line, with its line end
_ROUND_TAIL = re.compile(r',"round":(?:0|[1-9][0-9]*)\}$\n?', re.M)
# a byte the file's UTF-8 does not decode, as surrogateescape reads it
_UNDECODED = re.compile("[\udc80-\udcff]")
_ROW_FIELDS = ("alice_basis", "alice_bit", "bob_setting", "interpretation",
               "eve_guess")


class _LogCells:
    """The distinct cells of a round log and the header it carries.

    A cell is an (alice_basis, alice_bit, bob_setting, code, eve_guess)
    tuple, as in :func:`_report`; rows are kept only as cell indices.
    """

    def __init__(self):
        self.cells: List[tuple] = []
        self.header: dict = {}
        self._index: Dict[tuple, int] = {}

    def record(self, record, where: str) -> Optional[int]:
        """The cell index of a round record; None for a header record."""
        if not isinstance(record, Mapping):
            raise ProtocolError(f"{where}: round record is not a JSON object")
        if "schema" in record:
            if record["schema"] != ROUND_LOG_SCHEMA:
                raise ProtocolError(
                    f"{where}: expected log schema {ROUND_LOG_SCHEMA!r}, "
                    f"got {record['schema']!r}")
            self.header = dict(record)
            return None
        try:
            basis, bit, setting, interpretation, guess = \
                (record[name] for name in _ROW_FIELDS)
        except KeyError as missing:
            raise ProtocolError(
                f"{where}: round record lacks field {missing}")
        if not (isinstance(basis, str) and isinstance(setting, str)):
            raise ProtocolError(f"{where}: alice_basis and bob_setting "
                                f"must be strings")
        if interpretation not in _CLASSES:
            raise ProtocolError(
                f"{where}: unknown interpretation class {interpretation!r}")
        if bit not in (0, 1) or guess not in (0, 1):
            raise ProtocolError(f"{where}: alice_bit and eve_guess must be "
                                f"0 or 1")
        key = (basis, int(bit), setting, _CLASS_CODE[interpretation],
               int(guess))
        if key not in self._index:
            self._index[key] = len(self.cells)
            self.cells.append(key)
        return self._index[key]


def _body_record(body: str) -> Optional[dict]:
    """The round record of a line cut before its round number, or None.

    None sends the line through ``json.loads`` whole, which rejects it
    if it is not valid JSON: '{' alone parses as {} here, for one.
    """
    try:
        record = json.loads(body + "}")
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and record and "schema" not in record:
        return record
    return None


def _check_decoded(text: str, where: str) -> None:
    """ProtocolError naming ``where`` if ``text`` holds an undecoded byte."""
    undecoded = _UNDECODED.search(text)
    if undecoded:
        byte = ord(undecoded.group()) - 0xdc00
        raise ProtocolError(f"{where}: byte 0x{byte:02x} is not UTF-8")


def _line_cells(lines, number: int, by_body: Dict[str, int],
                cells: _LogCells):
    """Yield the cell index of every round record of ``lines``, in order.

    ``lines`` are file lines, the first numbered ``number``.  A line in
    the shape :func:`run_bb84` writes is keyed by its body, its text
    before the round number, so each distinct body is parsed once.  Any
    other non-blank line goes through ``json.loads`` whole.  A line not
    keyed yet that holds a byte that is not UTF-8 is rejected first.
    """
    for number, line in enumerate(lines, number):
        match = _ROUND_LINE.fullmatch(line)
        cell = by_body.get(match.group(1)) if match else None
        if cell is None:
            where = f"line {number}"
            _check_decoded(line, where)
            record = _body_record(match.group(1)) if match else None
            if record is not None:
                cell = by_body[match.group(1)] = cells.record(record, where)
            elif line.strip():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ProtocolError(f"{where}: not valid JSON ({err})")
                cell = cells.record(record, where)
        if cell is not None:
            yield cell


def _batch_cells(text: str, number: int, by_body: Dict[str, int],
                 cells: _LogCells) -> Optional[np.ndarray]:
    """The cell indices of a batch of whole lines, or None to decline it.

    The first line of ``text`` is numbered ``number``.  One regex split
    at every round-number tail cuts the batch into line bodies.  A line
    without the tail joins a neighbouring piece, which then holds a
    newline, or is left over after the last tail; no known body holds a
    newline.  Each body not seen before is checked once, in the order
    bodies first occur, as :func:`_line_cells` checks its line (leading
    JSON whitespace, which that regex rejects, parses to the same
    record).  A piece that does not parse, or holds a byte that is not
    UTF-8, declines the batch: the header, a blank line, another
    serialization or bad JSON.
    """
    bodies = _ROUND_TAIL.split(text)
    if bodies.pop():
        return None  # the last line has no round-number tail
    try:
        return np.fromiter(map(by_body.get, bodies), np.int64, len(bodies))
    except TypeError:  # a body not seen before maps to None
        pass
    for body in dict.fromkeys(bodies):
        if body in by_body:
            continue
        record = None if "\n" in body or _UNDECODED.search(body) \
            else _body_record(body)
        if record is None:
            return None
        by_body[body] = cells.record(
            record, f"line {number + bodies.index(body)}")
    return np.fromiter(map(by_body.get, bodies), np.int64, len(bodies))


def _file_batches(path, cells: _LogCells):
    """Yield the cell indices of a round-log file, one array per batch.

    A batch is ``32 * _LOG_SLICE`` characters and the rest of the line
    they end in, read in text mode, so newlines are those of file
    iteration.  A byte that is not UTF-8 is read as a lone surrogate, so
    the line it is in can be named.  A batch :func:`_batch_cells`
    declines is read by :func:`_line_cells`, one step per line.
    """
    by_body: Dict[str, int] = {}
    number = 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while True:
            text = fh.read(32 * _LOG_SLICE) + fh.readline()
            if not text:
                return
            batch = _batch_cells(text, number, by_body, cells)
            if batch is not None:
                number += len(batch)
            else:
                batch = np.fromiter(
                    _line_cells(io.StringIO(text), number, by_body, cells),
                    dtype=np.int64)
                number += text.count("\n") + (not text.endswith("\n"))
            yield batch


def _log_batches(log, cells: _LogCells):
    """Yield the cell index of every round record of ``log``, in batches.

    A path is read by :func:`_file_batches`; any other iterable of
    records is taken ``_CHUNK`` records at a time.
    """
    if isinstance(log, (str, Path)):
        yield from _file_batches(log, cells)
        return
    records = (cells.record(record, f"record {number}")
               for number, record in enumerate(log, 1))
    rows = (cell for cell in records if cell is not None)
    while True:
        batch = np.fromiter(itertools.islice(rows, _CHUNK), dtype=np.int64)
        if not len(batch):
            return
        yield batch


def _add_counts(total: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    grown = np.bincount(cells, minlength=n)
    grown[:len(total)] += total
    return grown


def sift_and_estimate(log, test_fraction: float = 0.5,
                      seed: int = 0) -> SimulationReport:
    """Recompute a report from a persisted round log.

    ``log`` is a path to a newline-delimited JSON file or any iterable
    of round records.  Counting statistics (efficiencies, loss and
    invalid rates, adversary accuracy) use every round; the error rate
    is estimated from a random ``test_fraction`` subsample of the
    sifted bits, drawn deterministically from ``seed`` (a non-negative
    integer) — the sample mean of mismatches, as if those bits were
    publicly compared.  With ``test_fraction=1.0`` the estimate
    coincides with the inline aggregation of :func:`run_bb84`, through
    the same counting code.  If the subsample of some basis comes up
    empty while sifted bits exist, the estimate for that basis falls
    back to all of its sifted bits rather than reporting nothing.

    A file is read in batches of about 256 KiB of whole lines, an
    iterable ``_CHUNK`` records at a time, and each round is kept only
    as a small integer, so memory stays bounded by the batch and the
    number of distinct records.  A batch is cut into line bodies by one
    regex split and mapped to cells by one dict lookup per body; only a
    body not seen before is parsed.  Each batch draws its own test
    uniforms, which together equal one whole draw, so the batch size
    changes no report.  A batch holding a line of another shape (the
    header, a blank line, another serialization) is read line by line,
    and such a line goes through ``json.loads`` whole.  A line that is
    not valid JSON or holds a byte that is not UTF-8, or a record that
    is not an object or lacks a field, raises :class:`ProtocolError`
    naming its 1-based line (or record) number.
    """
    test_fraction = _probability(test_fraction, "test_fraction")
    gen = np.random.Generator(np.random.Philox(_integer(seed, "seed", 0)))
    cells = _LogCells()
    counts = tested = np.zeros(0, dtype=np.int64)
    for chunk in _log_batches(log, cells):
        in_test = gen.random(len(chunk)) < test_fraction
        counts = _add_counts(counts, chunk, len(cells.cells))
        tested = _add_counts(tested, chunk[in_test], len(cells.cells))

    n = int(counts.sum())
    if n == 0:
        raise ProtocolError("empty round log")
    header = cells.header
    if header.get("rounds") is not None and header["rounds"] != n:
        raise ProtocolError(
            f"header promises {header['rounds']} rounds, log has {n}")
    bases = sorted({s for (a, _, s, _, _), c in zip(cells.cells, counts)
                    if a == s and c})
    return _report(cells.cells, counts, tested, bases,
                   receiver=header.get("receiver", "unknown"),
                   channel=header.get("channel", "unknown"),
                   rng_seed=header.get("rng_seed"),
                   test_fraction=test_fraction,
                   attack_label=header.get("attack_label"))
