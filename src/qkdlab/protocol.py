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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import attacks as atk
from . import receivers as rc
from .fockspace import PhotonicState

REPORT_SCHEMA = "simulation-report/1"
ROUND_LOG_SCHEMA = "round-log/1"

IDENTITY = "identity"
ATTACK = "attack-isometry"
PNS = "pns"
LOSSY = "lossy"
CHANNEL_KINDS = (IDENTITY, ATTACK, PNS, LOSSY)

# interpretation classes as stored in round logs, indexed by internal code
_CLASSES = ("bit0", "bit1", "loss", "invalid")
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
    if data.get("schema") != REPORT_SCHEMA:
        raise ProtocolError(
            f"expected schema {REPORT_SCHEMA!r}, got {data.get('schema')!r}")
    per_basis = {b: BasisStats(**st) for b, st in data["per_basis"].items()}
    report = SimulationReport(
        receiver=data["receiver"],
        channel=data["channel"],
        rounds=data["rounds"],
        rng_seed=data["rng_seed"],
        per_basis=per_basis,
        sifted_total=data["sifted_total"],
        qber_pooled=data["qber_pooled"],
        invalid_rate=data["invalid_rate"],
        eve_guess_accuracy=data["eve_guess_accuracy"],
        test_fraction=data.get("test_fraction", 1.0),
        attack_label=data.get("attack_label"),
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# the session engine
# ---------------------------------------------------------------------------

def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _outcome_tables(alice: rc.AliceSourceModel, channel: ChannelModel,
                    receiver: rc.ReceiverModel,
                    system: Optional[atk.ConstraintSystem]):
    """Outcome id lists per setting and exact probability vectors per cell."""
    settings = list(receiver.settings)
    ids = {s: list(receiver.settings[s].outcomes) + [rc.UNREGISTERED]
           for s in settings}
    vacuum_probs = {}
    if channel.kind == LOSSY:
        vac = PhotonicState.vacuum(receiver.channel_registry())
        vacuum_probs = {s: rc.outcome_probabilities(receiver, s, vac)
                        for s in settings}
    cdf = {}
    for s in settings:
        for lab in alice.labels():
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
            cdf[(lab, s)] = np.cumsum(vec) / total
    return ids, cdf


def _interpretation_codes(receiver: rc.ReceiverModel,
                          ids: Dict[str, List[str]]) -> Dict[str, np.ndarray]:
    codes = {}
    for s, outcome_ids in ids.items():
        sets = receiver.settings[s].interpretation_sets()
        row = []
        for oid in outcome_ids:
            if oid in sets.j0:
                row.append(0)
            elif oid in sets.j1:
                row.append(1)
            elif oid in sets.j_invalid:
                row.append(3)
            else:  # loss, foreign-basis fold-in, or unregistered remainder
                row.append(2)
        codes[s] = np.array(row, dtype=np.int64)
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
    written as newline-delimited JSON behind a header record.

    All randomness derives from one counter-based generator keyed by
    ``seed``: round r consumes a fixed slice of the stream, so reports
    and logs are reproducible bit-for-bit.
    """
    if alice is None:
        alice = receiver.source
    if channel is None:
        channel = make_channel(IDENTITY)
    if channel.kind not in CHANNEL_KINDS:
        raise ProtocolError(f"unknown channel kind {channel.kind!r}")
    if rounds < 1:
        raise ProtocolError("rounds must be >= 1")

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

    ids, cdf = _outcome_tables(alice, channel, receiver, system)
    codes = _interpretation_codes(receiver, ids)

    # Column layout of the per-round uniforms: label, setting, outcome,
    # adversary primary, adversary secondary draw.
    gen = np.random.Generator(np.random.Philox(seed))
    u = gen.random((rounds, 5))
    n_lab, n_set = len(labels), len(settings)
    lab_idx = np.minimum((u[:, 0] * n_lab).astype(np.int64), n_lab - 1)
    set_idx = np.minimum((u[:, 1] * n_set).astype(np.int64), n_set - 1)

    out_idx = np.zeros(rounds, dtype=np.int64)
    for li, lab in enumerate(labels):
        for si, s in enumerate(settings):
            mask = (lab_idx == li) & (set_idx == si)
            if mask.any():
                picked = np.searchsorted(cdf[(lab, s)], u[mask, 2],
                                         side="right")
                out_idx[mask] = np.minimum(picked, len(ids[s]) - 1)

    code = np.zeros(rounds, dtype=np.int64)
    for si, s in enumerate(settings):
        mask = set_idx == si
        code[mask] = codes[s][out_idx[mask]]

    basis_of = np.array([settings.index(lab[0]) if lab[0] in settings else -1
                         for lab in labels], dtype=np.int64)
    bit_of = np.array([lab[1] for lab in labels], dtype=np.int64)
    matched = basis_of[lab_idx] == set_idx
    detected = code <= 1
    sifted = matched & detected
    errors = sifted & (code != bit_of[lab_idx])

    if channel.kind == ATTACK:
        p0 = np.array([guess_p0[lab] for lab in labels])[lab_idx]
        guess = np.where(u[:, 3] < p0, 0, 1)
    elif channel.kind == PNS:
        multi = u[:, 3] < channel.p_multi
        coin = (u[:, 4] >= 0.5).astype(np.int64)
        guess = np.where(multi, bit_of[lab_idx], coin)
    else:
        guess = (u[:, 3] >= 0.5).astype(np.int64)
    correct = sifted & (guess == bit_of[lab_idx])

    if log_path is not None:
        _write_round_log(Path(log_path), receiver, channel, rounds, seed,
                         labels, settings, ids, lab_idx, set_idx, out_idx,
                         code, guess)

    per_basis = {}
    bases = [s for s in settings if s in {lab[0] for lab in labels}]
    for s in bases:
        si = settings.index(s)
        m = matched & (set_idx == si)
        n = int(m.sum())
        n_sift = int(sifted[m].sum())
        n_err = int(errors[m].sum())
        n_inv = int((code[m] == 3).sum())
        n_lost = n - n_sift - n_inv
        n_corr = int(correct[m].sum())
        per_basis[s] = BasisStats(
            rounds=n, sifted=n_sift, errors=n_err, lost=n_lost,
            invalid=n_inv,
            qber=_ratio(n_err, n_sift),
            detection_efficiency=_ratio(n_sift, n),
            loss_rate=_ratio(n_lost, n),
            invalid_rate=_ratio(n_inv, n),
            eve_accuracy=_ratio(n_corr, n_sift),
        )

    sifted_total = int(sifted.sum())
    report = SimulationReport(
        receiver=receiver.name,
        channel=channel.kind,
        rounds=rounds,
        rng_seed=seed,
        per_basis=per_basis,
        sifted_total=sifted_total,
        qber_pooled=_ratio(int(errors.sum()), sifted_total),
        invalid_rate=int((code == 3).sum()) / rounds,
        eve_guess_accuracy=_ratio(int(correct.sum()), sifted_total),
        test_fraction=1.0,
        attack_label=channel.attack.label if channel.kind == ATTACK else None,
    )
    report.validate()
    return report


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _write_round_log(path: Path, receiver, channel, rounds, seed,
                     labels, settings, ids, lab_idx, set_idx, out_idx,
                     code, guess) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({
            "schema": ROUND_LOG_SCHEMA,
            "receiver": receiver.name,
            "channel": channel.kind,
            "attack_label": (channel.attack.label
                             if channel.kind == ATTACK else None),
            "rounds": rounds,
            "rng_seed": seed,
        }) + "\n")
        for r in range(rounds):
            lab = labels[lab_idx[r]]
            s = settings[set_idx[r]]
            fh.write(_dump({
                "round": r,
                "alice_basis": lab[0],
                "alice_bit": int(lab[1]),
                "bob_setting": s,
                "outcome_id": ids[s][out_idx[r]],
                "interpretation": _CLASSES[code[r]],
                "eve_guess": int(guess[r]),
            }) + "\n")


# ---------------------------------------------------------------------------
# offline re-aggregation
# ---------------------------------------------------------------------------

def _load_rows(log) -> Tuple[dict, List[Mapping]]:
    if isinstance(log, (str, Path)):
        with open(log, "r", encoding="utf-8") as fh:
            parsed = (json.loads(line) for line in fh if line.strip())
            return _split_header(parsed)
    return _split_header(iter(log))


def _split_header(records) -> Tuple[dict, List[Mapping]]:
    header: dict = {}
    rows: List[Mapping] = []
    for rec in records:
        if "schema" in rec:
            if rec["schema"] != ROUND_LOG_SCHEMA:
                raise ProtocolError(
                    f"expected log schema {ROUND_LOG_SCHEMA!r}, "
                    f"got {rec['schema']!r}")
            header = dict(rec)
        else:
            rows.append(rec)
    return header, rows


def sift_and_estimate(log, test_fraction: float = 0.5,
                      seed: int = 0) -> SimulationReport:
    """Recompute a report from a persisted round log.

    ``log`` is a path to a newline-delimited JSON file or any iterable
    of round records.  Counting statistics (efficiencies, loss and
    invalid rates, adversary accuracy) use every round; the error rate
    is estimated from a random ``test_fraction`` subsample of the
    sifted bits, drawn deterministically from ``seed`` — the sample
    mean of mismatches, as if those bits were publicly compared.  With
    ``test_fraction=1.0`` the estimate coincides with the inline
    aggregation of :func:`run_bb84`.  If the subsample of some basis
    comes up empty while sifted bits exist, the estimate for that basis
    falls back to all of its sifted bits rather than reporting nothing.
    """
    test_fraction = _probability(test_fraction, "test_fraction")
    header, rows = _load_rows(log)
    if not rows:
        raise ProtocolError("empty round log")

    n = len(rows)
    try:
        alice_basis = np.array([r["alice_basis"] for r in rows])
        alice_bit = np.array([r["alice_bit"] for r in rows], dtype=np.int64)
        bob_setting = np.array([r["bob_setting"] for r in rows])
        interpretation = [r["interpretation"] for r in rows]
        eve_guess = np.array([r["eve_guess"] for r in rows], dtype=np.int64)
    except KeyError as missing:
        raise ProtocolError(f"round record lacks field {missing}")
    try:
        code = np.array([_CLASS_CODE[c] for c in interpretation],
                        dtype=np.int64)
    except KeyError as bad:
        raise ProtocolError(f"unknown interpretation class {bad}")

    matched = alice_basis == bob_setting
    sifted = matched & (code <= 1)
    errors = sifted & (code != alice_bit)
    correct = sifted & (eve_guess == alice_bit)

    gen = np.random.Generator(np.random.Philox(seed))
    in_test = sifted & (gen.random(n) < test_fraction)

    per_basis = {}
    for s in sorted(str(b) for b in set(bob_setting[matched])):
        m = matched & (bob_setting == s)
        nb = int(m.sum())
        n_sift = int(sifted[m].sum())
        n_inv = int((code[m] == 3).sum())
        n_lost = nb - n_sift - n_inv
        n_corr = int(correct[m].sum())
        test = in_test & m
        n_test = int(test.sum())
        if n_test == 0 and n_sift > 0:
            test = sifted & m
            n_test = n_sift
        n_err_test = int(errors[test].sum())
        per_basis[s] = BasisStats(
            rounds=nb, sifted=n_sift,
            errors=int(errors[m].sum()),
            lost=n_lost, invalid=n_inv,
            qber=_ratio(n_err_test, n_test),
            detection_efficiency=_ratio(n_sift, nb),
            loss_rate=_ratio(n_lost, nb),
            invalid_rate=_ratio(n_inv, nb),
            eve_accuracy=_ratio(n_corr, n_sift),
        )

    n_test_total = int(in_test.sum())
    if n_test_total == 0 and sifted.any():
        in_test = sifted
        n_test_total = int(sifted.sum())
    sifted_total = int(sifted.sum())
    if header.get("rounds") is not None and header["rounds"] != n:
        raise ProtocolError(
            f"header promises {header['rounds']} rounds, log has {n}")
    report = SimulationReport(
        receiver=header.get("receiver", "unknown"),
        channel=header.get("channel", "unknown"),
        rounds=n,
        rng_seed=header.get("rng_seed"),
        per_basis=per_basis,
        sifted_total=sifted_total,
        qber_pooled=_ratio(int(errors[in_test].sum()), n_test_total),
        invalid_rate=int((code == 3).sum()) / n,
        eve_guess_accuracy=_ratio(int(correct.sum()), sifted_total),
        test_fraction=test_fraction,
        attack_label=header.get("attack_label"),
    )
    report.validate()
    return report
