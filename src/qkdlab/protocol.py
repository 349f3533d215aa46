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
tallies and writes their log lines in chunk order.  Twice as many
chunks as threads are kept submitted, so a thread that finishes one
starts the next without waiting for the calling thread; a one-chunk
session runs inline and starts no thread.  The chunks together draw
the stream of one whole-session draw, so the reports and log bytes are
those of an unchunked run and depend neither on the number of threads
nor on the chunk size.

A round reads five raw 64-bit words of the stream (label, setting,
outcome and two adversary draws) and builds no uniform double.  Each
word w stands for the uniform u = (w >> 11) * 2**-53 that
``Generator.random`` would make of it, and every rule is read off the
word exactly: an index floor(u * n) over a power-of-two count n is the
word's top log2(n) bits, a guide bin its top 12 bits, and u >= p an
integer comparison of its top 53 bits with ceil(p * 2**53).  Only an
index over another count, and a round in a split guide bin, build u.

A log file is read back as bytes: its header line, then batches of
whole lines, each ended by LF, CRLF or a lone CR as text mode reads
them.  One regex split strips every line's round number with its line
end, and one lookup per line body in a dict keyed by the body's bytes
maps the batch to cells, so no Python step runs per line and no byte is
decoded.  Only a batch holding a body not seen before is cut into lines
and walked line by line, still as bytes; each line whose body is not
known is read whole, and only such a line is decoded, which keeps every
error and its line number.

Outcomes are drawn by inverse transform through a guide table (Chen &
Asau, AIIE Trans. 6, 163 (1974); Devroye, *Non-Uniform Random Variate
Generation*, III.2.4 (1986)).  Each (label, setting) row of the stacked
CDF gets 2**12 equal bins of [0, 1); a bin that no CDF entry splits
stores the cell base of its outcome, the round's cell index less its
guess, so one lookup settles the round and only the guess, a boolean,
is added to it.  The few rounds in a split bin count their row's entries
in full.  Both give the cell of the full count exactly, never an
approximation, so the guide table changes no report or log byte.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from . import attacks as atk
from . import receivers as rc
from .fockspace import PhotonicState
from .output import SIMULATION_REPORT_SCHEMA as REPORT_SCHEMA
from .output import atomic_open, ndjson as _dump

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
    :class:`~qkdlab.attacks.AttackIsometry`; pns takes the two-photon
    probability and lossy the erasure probability, each a bare number.
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
        return ChannelModel(kind=PNS, p_multi=_probability(payload, "p_multi"))
    if kind == LOSSY:
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
    rng_seed: int
    per_basis: Dict[str, BasisStats]
    sifted_total: int
    qber_pooled: Optional[float]
    invalid_rate: float
    eve_guess_accuracy: Optional[float]
    test_fraction: float = 1.0
    attack_label: Optional[str] = None
    schema: ClassVar[str] = REPORT_SCHEMA

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
        """The report as its JSON document: every field, under its own
        name, and the schema id.  Writers sort the keys."""
        return {**asdict(self), "schema": self.schema}


# ---------------------------------------------------------------------------
# the session engine
# ---------------------------------------------------------------------------

# Rounds are drawn, counted and logged this many at a time, which bounds
# a session's memory whatever its length.  Each chunk keys its own
# generator at its counter offset, so the chunk size changes no byte of a
# report or a log.  Up to 2 * _WORKERS chunks are in flight at once:
# at most _WORKERS of them are being drawn, each holding at most about
# 2.4 MB of arrays at this size (the tracemalloc peak of a one-chunk
# session), 1.3 MB of them its raw words, and the rest wait drawn, each
# keeping only its 128 KiB of cell indices and its tally until the
# calling thread takes them.  Smaller chunks hand the interpreter lock
# between threads so often that two threads draw no faster than one.
_CHUNK = 1 << 15

# A session's chunks are drawn on one thread per CPU this process may use,
# up to _MAX_WORKERS, which bounds the chunks being drawn and their memory.
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# A chunk's round lines are joined and written this many at a time, so the
# log write holds a slice of text rather than a whole chunk's.  A round-log
# file is read back in batches of 32 bytes per slice row (256 KiB, about
# 1800 round lines) and the rest of the line the batch ends in.
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
                    channel.attack, system, s, lab)
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
    """The cell base of each guide bin's settled outcome, flattened row by
    row.

    Entry ``p * K + k``, K = ``_GUIDE``, covers u in [k/K, (k+1)/K) for
    CDF row p.  Every entry <= k/K is <= u and every entry >= (k+1)/K is
    > u, so the outcome lies between lo = #{c <= k/K} and
    hi = #{c < (k+1)/K}.  When they agree the bin stores the cell base
    ``(p * width + lo) * 2`` of that outcome, width the row length, which
    leaves only the guess to add; when an entry splits the bin it stores
    -1.  Cell bases are small, so the table is int32 and so are the cell
    indices a chunk reads off it: against int64, the chunk arithmetic of
    the four session-stream channels ran 2-6 % faster on one thread of a
    2-vCPU VM, and a chunk's tracemalloc peak was 0.04 MiB lower.
    """
    width = cdf.shape[1]
    edges = np.arange(_GUIDE + 1) / _GUIDE
    guide = np.empty((len(cdf), _GUIDE), dtype=np.int32)
    for p, (row, cumulative) in enumerate(zip(guide, cdf)):
        lo = np.searchsorted(cumulative, edges[:-1], side="right")
        hi = np.searchsorted(cumulative, edges[1:], side="left")
        row[:] = np.where(lo == hi, (p * width + lo) * 2, -1)
    return guide.ravel()


def _uniform(words: np.ndarray) -> np.ndarray:
    """The uniform ``(w >> 11) * 2**-53`` of each raw Philox word w, the
    double ``Generator.random`` makes of it."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _index(words: np.ndarray, n: int) -> np.ndarray:
    """``floor(u * n)``, clamped to ``n - 1``, of each word's uniform u,
    as int64.

    When n is a power of two, ``u * n`` is exact and the index is the
    word's top log2(n) bits.  Otherwise it is taken in floating point as
    written: the integer form ``(m * n) >> 53`` of u = m * 2**-53 misses
    the rounding of ``u * n``, which can carry to the next integer.
    """
    shift = n.bit_length() - 1
    if n == 1:
        return np.zeros(len(words), dtype=np.int64)
    if n == 1 << shift:
        return (words >> np.uint64(64 - shift)).view(np.int64)
    index = (_uniform(words) * n).astype(np.int64)
    return np.minimum(index, n - 1, out=index)


def _sample_outcomes(cdf: np.ndarray, guide: np.ndarray, pair: np.ndarray,
                     words: np.ndarray) -> np.ndarray:
    """The cell base ``(pair * width + #{c <= u}) * 2`` per round, where u
    is the uniform of the round's outcome word and #{c <= u} counts CDF
    row ``pair``, read off the guide table.

    The bin of u, ``floor(u * _GUIDE)``, is the word's top 12 bits.  Only
    rounds in a split bin build their uniform and count their row's
    entries.
    """
    at = _index(words, _GUIDE)
    at += pair * _GUIDE
    cell = guide[at]
    split = np.flatnonzero(cell < 0)
    if len(split):
        rows = pair[split]
        cell[split] = (rows * cdf.shape[1] + np.count_nonzero(
            cdf[rows] <= _uniform(words[split])[:, None], axis=1)) * 2
    return cell


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


def _at_least(p) -> np.ndarray:
    """``ceil(p * 2**53)`` per entry of p, as uint64: the least m with
    ``m * 2**-53 >= p``, since ``p * 2**53`` is exact.  A word's uniform
    is >= p exactly when its top 53 bits are at least this."""
    return np.ceil(np.multiply(p, 2.0 ** 53)).astype(np.uint64)


def _guess_rule(channel: ChannelModel, labels, n_set: int,
                conditional: Optional[atk.EveConditionalStates]):
    """Per-round adversary guess, as a boolean, from pair indices
    ``label * n_set + setting`` and the rounds' raw words.

    Each rule compares the uniform u of word 3 or 4 (see :func:`_uniform`)
    with a probability, on the word itself: ``u >= 0.5`` is its top bit,
    and ``u >= p`` holds exactly when its top 53 bits are at least
    :func:`_at_least` of p.  Under an attack channel Eve guesses bit 0
    with the probability p0 that ``attacks.eve_guess`` gives for Alice's
    label, clamped to [0, 1], so the guess is ``u3 >= p0``; a probability
    that is not finite raises ProtocolError.  A basis in which nothing
    sifts is never scored, so there the guess is uniform.  Under PNS Eve
    knows the bit when ``u3 < p_multi`` and guesses ``u4 >= 0.5``
    otherwise.  The tables are indexed by pair, each label's entry
    repeated over the settings.
    """
    lab_of_pair = np.repeat(np.arange(len(labels)), n_set)
    half = np.uint64(1 << 63)
    if channel.kind == ATTACK:
        given = {}
        for basis in {basis for basis, _ in labels}:
            meas = atk.eve_guess(conditional, basis)
            given[basis] = (0.5, 0.5) if meas is None else (
                meas.guess0_given_0, meas.guess0_given_1)
        p0 = [given[basis][bit] for basis, bit in labels]
        for label, p in zip(labels, p0):
            if not np.isfinite(p):
                raise ProtocolError(
                    f"Eve's probability of guessing 0 for label {label} is "
                    f"{p}, not a finite number")
        least = _at_least(np.clip(p0, 0.0, 1.0))[lab_of_pair]
        return lambda pair, w: (w[:, 3] >> np.uint64(11)) >= least[pair]
    if channel.kind == PNS:
        bit_of = np.array([lab[1] for lab in labels], dtype=bool)[lab_of_pair]
        multi = _at_least(channel.p_multi)
        return lambda pair, w: np.where(
            (w[:, 3] >> np.uint64(11)) < multi, bit_of[pair], w[:, 4] >= half)
    return lambda pair, w: w[:, 3] >= half


def _report(cells, counts: np.ndarray, tested: np.ndarray,
            **fields) -> SimulationReport:
    """Aggregate per-cell round counts into a validated report.

    ``cells[i]`` is an (alice_basis, alice_bit, bob_setting, code,
    eve_guess) tuple; ``counts[i]`` rounds fell in that cell and
    ``tested[i]`` of them in the error-test subsample.  The report lists
    each basis that some cell shares between Alice and Bob.  Every figure
    is a ratio of integer counts, so it does not depend on how the rounds
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
    for s in sorted({s for a, _, s, _, _ in cells if a == s}):
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


def _check_system(system: atk.ConstraintSystem,
                  receiver: rc.ReceiverModel):
    """ProtocolError unless ``system`` was built on the reversed space of
    ``receiver``."""
    basis = rc.reversed_space(receiver)
    if system.receiver_name != receiver.name \
            or len(system.p_basis) != len(basis) \
            or not all(a is b or (a.registry == b.registry
                                  and a.amplitudes == b.amplitudes)
                       for a, b in zip(system.p_basis, basis)):
        raise ProtocolError(
            f"the constraint system of {system.receiver_name!r} is not "
            f"built on the reversed space of {receiver.name!r}")


def run_bb84(alice: Optional[rc.AliceSourceModel],
             channel: Optional[ChannelModel],
             receiver: rc.ReceiverModel,
             rounds: int,
             seed: int = 0,
             log_path: Union[str, Path, None] = None,
             system: Optional[atk.ConstraintSystem] = None
             ) -> SimulationReport:
    """Simulate a BB84 session and aggregate it into a report.

    Alice draws a uniform (basis, bit) label each round; Bob's setting
    is uniform over the receiver's settings (for passive receivers the
    optics make that draw, with identical statistics).  Outcomes are
    sampled from exact Born probabilities, so zero-amplitude events
    never occur, at any round count.  ``alice`` defaults to the
    receiver's paired source and ``channel`` to the identity.

    The adversary's per-round guess is logged for every round but only
    scored on sifted ones.  Under an attack channel it follows
    ``attacks.eve_guess`` in Alice's basis, so a session scores the
    guess that the analyses report.  An attack channel reads the
    receiver's constraint system: ``system``, the prebuilt one its attack
    was built on, or else one built here.  A ``system`` must be built on
    the receiver's reversed space, and only an attack channel takes one.
    With ``log_path`` the full round log is written as newline-delimited
    JSON behind a header record, through a temporary file in the same
    directory that replaces ``log_path`` only once the session completes.

    All randomness derives from one counter-based generator keyed by
    ``seed`` (a non-negative integer): round r reads raw words
    5r .. 5r + 4 of ``Philox(seed)``, so reports and logs are
    reproducible bit-for-bit.
    Rounds are drawn, counted and logged in fixed chunks, so memory
    stays bounded by the chunk, not the session.  Each chunk starts its
    own generator at its counter offset, so up to ``_WORKERS`` chunks
    are drawn and counted at once on worker threads, as many more wait
    drawn, and this thread takes their counts and writes their log lines
    in chunk order.  A session of one chunk runs inline and starts no
    thread.  Neither the number of threads nor the chunk size changes a
    byte of the report or the log.  An exception in a chunk is raised here, after the
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
    conditional = None
    if channel.kind == ATTACK:
        if system is None:
            system = atk.build_constraint_system(receiver)
        else:
            _check_system(system, receiver)
        missing = set(labels) - set(system.alice_labels)
        if missing:
            raise ProtocolError(
                f"attack channels use the receiver's paired source; labels "
                f"{sorted(missing)} have no logical embedding")
        conditional = atk.eve_conditional_states(channel.attack, system)
    elif system is not None:
        raise ProtocolError(
            f"a constraint system goes with an attack channel only, not "
            f"with {channel.kind!r}")

    ids, cdf, guide = _outcome_tables(alice, channel, receiver, system)
    width = cdf.shape[1]
    codes = _interpretation_codes(receiver, ids, width)
    n_lab, n_set = len(labels), len(settings)
    guess = _guess_rule(channel, labels, n_set, conditional)
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

        Round r takes raw words 5r .. 5r + 4 of the stream, and Philox
        makes four per counter step, so the chunk starts its own
        generator ``5 * start // 4`` steps in and drops the
        ``5 * start % 4`` words of that step that earlier rounds took.
        """
        bits = np.random.Philox(key=key)
        bits.advance(5 * start // 4)
        bits.random_raw(5 * start % 4)
        # Column layout of the per-round words: label, setting, outcome,
        # adversary primary, adversary secondary draw.
        w = bits.random_raw(5 * min(_CHUNK, rounds - start)).reshape(-1, 5)
        pair = _index(w[:, 0], n_lab)
        pair *= n_set
        pair += _index(w[:, 1], n_set)
        cell = _sample_outcomes(cdf, guide, pair, w[:, 2])
        cell += guess(pair, w)
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

    return _report(cells, counts, counts,
                   receiver=receiver.name, channel=channel.kind,
                   rng_seed=seed, test_fraction=1.0,
                   attack_label=attack_label)


def _in_order(draw, starts: range):
    """Yield ``draw(start)`` for each of ``starts``, in order.

    The calls run on ``_WORKERS`` threads, and twice that many are kept
    submitted and not yet yielded.  So while the consumer takes one
    result, a thread that finishes a call starts its next one at once,
    and a slow consumer holds at most twice as many results as there are
    threads, at most one per thread still being drawn.  With one start
    or one worker every call runs inline and no thread starts.  Closing
    the generator cancels the calls not yet begun and waits for those
    running; a call's exception is raised when its turn comes.
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
            if len(ahead) == 2 * workers:
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

# the round-number tail of a line as run_bb84 writes it, with its line end
# (LF, CRLF or a lone CR, as text mode reads them) or the end of the bytes
_ROUND_TAIL = re.compile(rb',"round":(?:0|[1-9][0-9]*)\}(?:\n|\r\n?|\Z)')
_ROW_FIELDS = ("alice_basis", "alice_bit", "bob_setting", "interpretation",
               "eve_guess", "outcome_id")
# the keys round-log.schema.json declares for a round record
_ROUND_KEYS = frozenset(_ROW_FIELDS + ("round",))
# the keys it declares for a header record; all but attack_label are required
_HEADER_KEYS = frozenset(("schema", "rng_seed", "receiver", "channel",
                          "attack_label", "rounds"))


def _check_header(record, where: str):
    """ProtocolError unless ``record`` matches the schema's header record."""
    if not isinstance(record, dict) or "schema" not in record:
        raise ProtocolError(f"{where}: a round log starts with its header "
                            f"record")
    if record["schema"] != ROUND_LOG_SCHEMA:
        raise ProtocolError(
            f"{where}: expected log schema {ROUND_LOG_SCHEMA!r}, "
            f"got {record['schema']!r}")
    missing = _HEADER_KEYS - {"attack_label"} - record.keys()
    if missing:
        raise ProtocolError(
            f"{where}: header lacks fields {sorted(missing)}")
    unknown = record.keys() - _HEADER_KEYS
    if unknown:
        raise ProtocolError(
            f"{where}: header has unknown keys {sorted(unknown)}")
    seed, rounds = record["rng_seed"], record["rounds"]
    # a JSON integer: True == 1 and 1.0 == 1, but neither is one
    if type(seed) is not int:
        raise ProtocolError(
            f"{where}: header rng_seed must be an integer, got {seed!r}")
    if type(rounds) is not int or rounds < 0:
        raise ProtocolError(f"{where}: header rounds must be an integer "
                            f">= 0, got {rounds!r}")
    if not isinstance(record["receiver"], str):
        raise ProtocolError(f"{where}: header receiver must be a string, "
                            f"got {record['receiver']!r}")
    if record["channel"] not in CHANNEL_KINDS:
        raise ProtocolError(f"{where}: header channel must be one of "
                            f"{CHANNEL_KINDS}, got {record['channel']!r}")
    label = record.get("attack_label")
    if not (label is None or isinstance(label, str)):
        raise ProtocolError(f"{where}: header attack_label must be a "
                            f"string or null, got {label!r}")


def _text(line: bytes, where: str) -> str:
    """A line read whole, decoded as UTF-8 with its line end made LF;
    ProtocolError naming the first byte that is not UTF-8.

    A line holds one line end, if any, at its end.  Made LF, it gives
    json's error positions as the line reads in text mode.
    """
    body = line.rstrip(b"\r\n")
    try:
        return body.decode("utf-8") + "\n" * (body != line)
    except UnicodeDecodeError as err:
        raise ProtocolError(
            f"{where}: byte 0x{body[err.start]:02x} is not UTF-8")


def _json_line(text: str, where: str):
    """``json.loads`` of a line; ProtocolError if it is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ProtocolError(f"{where}: not valid JSON ({err})")


def _line_record(line: bytes, number: int,
                 cells: Dict[tuple, int]) -> Optional[int]:
    """The cell index of file line ``number``, read whole by ``json.loads``.

    A blank line gives None.  Every other line must match the schema's
    round record, with an integer ``round`` >= 0.  A cell is an
    (alice_basis, alice_bit, bob_setting, code, eve_guess) tuple, as in
    :func:`_report`; ``cells`` maps each distinct cell to its index, in
    the order first read, and a new cell is added to it.
    """
    where = f"line {number}"
    text = _text(line, where)
    if not text.strip():
        return None
    record = _json_line(text, where)
    if not isinstance(record, dict):
        raise ProtocolError(f"{where}: round record is not a JSON object")
    unknown = record.keys() - _ROUND_KEYS
    if unknown:
        raise ProtocolError(
            f"{where}: round record has unknown keys {sorted(unknown)}")
    try:
        basis, bit, setting, interpretation, guess, outcome = \
            (record[name] for name in _ROW_FIELDS)
    except KeyError as missing:
        raise ProtocolError(f"{where}: round record lacks field {missing}")
    if not (isinstance(basis, str) and isinstance(setting, str)):
        raise ProtocolError(f"{where}: alice_basis and bob_setting "
                            f"must be strings")
    if not (outcome is None or isinstance(outcome, str)):
        raise ProtocolError(f"{where}: outcome_id must be a string or null")
    if interpretation not in _CLASSES:
        raise ProtocolError(
            f"{where}: unknown interpretation class {interpretation!r}")
    # a JSON integer: True == 1 and 0.0 == 0, but neither is a bit
    if not (type(bit) is int and bit in (0, 1)
            and type(guess) is int and guess in (0, 1)):
        raise ProtocolError(f"{where}: alice_bit and eve_guess must be "
                            f"0 or 1")
    if "round" not in record:
        raise ProtocolError(f"{where}: round record lacks field 'round'")
    _integer(record["round"], f"{where}: round", 0)
    key = (basis, bit, setting, _CLASS_CODE[interpretation], guess)
    return cells.setdefault(key, len(cells))


def _batch_cells(data: bytes, number: int, by_body: Dict[bytes, int],
                 cells: Dict[tuple, int]) -> Tuple[np.ndarray, int]:
    """The cell indices of a batch of whole lines, and its line count.

    The first line of ``data`` is numbered ``number``.  One regex split
    at every round-number tail cuts the batch into line bodies, and when
    every body is known one dict lookup per body maps the batch.  A line
    without the tail joins the piece after it, and no known body holds a
    line end, so such a batch is not mapped.  Otherwise the batch is cut
    into lines by ``bytes.splitlines``, which breaks at LF, CRLF and a
    lone CR only, and each line is looked up by its body; a line whose
    body is not known is read whole by :func:`_line_record`, and if it
    ends in the tail, its body is then known.
    """
    bodies = _ROUND_TAIL.split(data)
    if not bodies.pop():
        try:
            return np.fromiter(map(by_body.get, bodies), np.int64,
                               len(bodies)), len(bodies)
        except TypeError:  # a body not seen before maps to None
            pass
    del bodies  # freed, so the lines below reuse its memory
    found = []
    lines = data.splitlines(keepends=True)
    for at, line in enumerate(lines, number):
        tail = _ROUND_TAIL.search(line)
        body = line[:tail.start()] if tail else None
        cell = by_body.get(body)
        if cell is None:
            cell = _line_record(line, at, cells)
            if tail:
                by_body[body] = cell
        if cell is not None:
            found.append(cell)
    return np.array(found, np.int64), len(lines)


def _through_line_end(fh, data: bytes) -> bytes:
    """``data`` and the bytes of the open binary file ``fh`` through the
    end of the line ``data`` ends in.

    A line ends at LF, CRLF or a lone CR, as in text mode; a binary
    ``readline`` stops only at LF, so the end is sought in the file's
    buffer.  ``data`` that ends in LF takes nothing more, and a part that
    ends in CR takes only the LF that may pair with it, so no CRLF is
    split.
    """
    parts = [data]
    while not parts[-1].endswith((b"\n", b"\r")) and (buffered := fh.peek()):
        parts.append(fh.read(len(buffered.splitlines(keepends=True)[0])))
    if parts[-1].endswith(b"\r") and fh.peek(1)[:1] == b"\n":
        parts.append(fh.read(1))
    return b"".join(parts)


def _file_batches(fh, cells: Dict[tuple, int]):
    """Yield the cell indices of the round lines of an open binary
    round-log file, one array per batch, from line 2 on.

    A batch is ``32 * _LOG_SLICE`` bytes and the rest of the line they
    end in.
    """
    by_body: Dict[bytes, int] = {}
    number = 2
    while data := _through_line_end(fh, fh.read(32 * _LOG_SLICE)):
        batch, lines = _batch_cells(data, number, by_body, cells)
        number += lines
        yield batch


def _add_counts(total: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    grown = np.bincount(cells, minlength=n)
    grown[:len(total)] += total
    return grown


def sift_and_estimate(log, test_fraction: float = 0.5,
                      seed: int = 0) -> SimulationReport:
    """Recompute a report from a persisted round log.

    ``log`` is the path of a newline-delimited JSON round-log file.
    Counting statistics (efficiencies, loss and invalid rates, adversary
    accuracy) use every round; the error rate is estimated from a random
    ``test_fraction`` subsample of the sifted bits, drawn
    deterministically from ``seed`` (a non-negative integer) — the
    sample mean of mismatches, as if those bits were publicly compared.
    With ``test_fraction=1.0`` the estimate coincides with the inline
    aggregation of :func:`run_bb84`, through the same counting code,
    when every basis that Alice and Bob share has a matched round: a log
    does not name the bases, so a shared basis without one, which the
    inline report lists with zero rounds, is absent here.  If
    the subsample of some basis comes up empty while sifted bits exist,
    the estimate for that basis falls back to all of its sifted bits
    rather than reporting nothing.

    Line 1 is the header, which must match the schema's ``header``
    record.  Every later line is one round record in any JSON
    serialization, and a blank line is skipped.  Lines may end in LF,
    CRLF or a lone CR, as text mode reads them.  The file is read as
    bytes: the round lines in batches of about 256 KiB, each round kept
    only as a small integer, so memory stays bounded by the batch and
    the number of distinct records.  A batch is cut into line bodies by
    one regex split and mapped to cells by one lookup per body in a dict
    keyed by bytes; only a batch that holds a body not known (another
    serialization, or a body not seen before) is cut into lines and
    walked line by line, and only a line whose body is not known is
    decoded, read whole by ``json.loads`` and checked.  Each batch draws
    its own test uniforms, which together equal one whole draw, so the
    batch size changes no report.  A line that is not valid JSON or
    holds a byte that is not UTF-8, a first line that is not the header,
    or a later line that the schema's ``round`` record rejects (a field
    missing, malformed or not declared, a second header among them)
    raises :class:`ProtocolError` naming its 1-based line number.
    Duplicated or missing round numbers are not detected; only the
    header's ``rounds`` total is checked against the number of round
    lines.
    """
    test_fraction = _probability(test_fraction, "test_fraction")
    gen = np.random.Generator(np.random.Philox(_integer(seed, "seed", 0)))
    cells: Dict[tuple, int] = {}
    counts = tested = np.zeros(0, dtype=np.int64)
    with open(log, "rb") as fh:
        header = _json_line(_text(_through_line_end(fh, b""), "line 1"),
                            "line 1")
        _check_header(header, "line 1")
        for chunk in _file_batches(fh, cells):
            in_test = gen.random(len(chunk)) < test_fraction
            counts = _add_counts(counts, chunk, len(cells))
            tested = _add_counts(tested, chunk[in_test], len(cells))

    n = int(counts.sum())
    if n == 0:
        raise ProtocolError("empty round log")
    if header["rounds"] != n:
        raise ProtocolError(
            f"header promises {header['rounds']} rounds, log has {n}")
    return _report(list(cells), counts, tested,
                   receiver=header["receiver"], channel=header["channel"],
                   rng_seed=header["rng_seed"], test_fraction=test_fraction,
                   attack_label=header.get("attack_label"))
