"""Chunked session engine against the whole-array reference.

``reference_run_bb84`` and ``reference_sift`` keep the earlier engine:
every round drawn in one array, outcomes sampled per (label, setting)
mask, one ``json.dumps`` per logged round and one ``json.loads`` per
line read back.  The chunked engine must reproduce its reports and its
log bytes exactly, at every chunk boundary, and stay within bounded
memory as sessions grow.  Pinned digests keep the bytes the engine gave
when it drew its chunks one by one, and any worker count and chunk size
must give the reference bytes.  The workers may draw only a bounded
window ahead, and a chunk that fails on a worker must stop every thread
and leave an earlier log in place.  The batch reader must give the per-line
reading's report, or its error and line number, whatever line shapes
fall in a batch or at its boundary.  The guide-table outcome sampler
must give the full count of CDF entries <= u for every u, at bin edges
and CDF entries alike.
"""

import hashlib
import itertools
import json
import os
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qkdlab import attacks as atk
from qkdlab import protocol as pt
from qkdlab import receivers as rc
from qkdlab.fockspace import PhotonicState

CHUNK = 1000


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(pt, "_CHUNK", CHUNK)


# ---------------------------------------------------------------------------
# the reference engine
# ---------------------------------------------------------------------------

def reference_tables(alice, channel, receiver, system):
    settings = list(receiver.settings)
    ids = {s: list(receiver.settings[s].outcomes) + [rc.UNREGISTERED]
           for s in settings}
    vacuum_probs = {}
    if channel.kind == pt.LOSSY:
        vac = PhotonicState.vacuum(receiver.channel_registry())
        vacuum_probs = {s: rc.outcome_probabilities(receiver, s, vac)
                        for s in settings}
    cdf = {}
    for s in settings:
        for lab in alice.labels():
            if channel.kind == pt.ATTACK:
                probs = atk.attacked_outcome_distribution(
                    channel.attack, receiver, s, lab, system)
            else:
                probs = rc.outcome_probabilities(
                    receiver, s, alice.states[lab])
                if channel.kind == pt.LOSSY:
                    vac = vacuum_probs[s]
                    keep = 1.0 - channel.loss
                    probs = {oid: keep * probs.get(oid, 0.0)
                             + channel.loss * vac.get(oid, 0.0)
                             for oid in set(probs) | set(vac)}
            vec = np.array([max(probs.get(oid, 0.0), 0.0) for oid in ids[s]])
            cdf[(lab, s)] = np.cumsum(vec) / vec.sum()
    code = {rc.BIT0: 0, rc.BIT1: 1, rc.INVALID: 3}
    codes = {}
    for s, outcome_ids in ids.items():
        tags = receiver.settings[s].interpretation
        codes[s] = np.array([code.get(tags.get(oid), 2)
                             for oid in outcome_ids], dtype=np.int64)
    return ids, cdf, codes


def reference_run_bb84(channel, receiver, rounds, seed, log_path):
    alice = receiver.source
    labels = alice.labels()
    settings = list(receiver.settings)
    system = None
    if channel.kind == pt.ATTACK:
        system = atk.build_constraint_system(receiver)
        conditional = atk.eve_conditional_states(channel.attack, system=system)
        guess_p0 = pt._guess_probabilities(conditional, alice.bases)
    ids, cdf, codes = reference_tables(alice, channel, receiver, system)

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
    sifted = matched & (code <= 1)
    errors = sifted & (code != bit_of[lab_idx])
    if channel.kind == pt.ATTACK:
        p0 = np.array([guess_p0[lab] for lab in labels])[lab_idx]
        guess = np.where(u[:, 3] < p0, 0, 1)
    elif channel.kind == pt.PNS:
        multi = u[:, 3] < channel.p_multi
        coin = (u[:, 4] >= 0.5).astype(np.int64)
        guess = np.where(multi, bit_of[lab_idx], coin)
    else:
        guess = (u[:, 3] >= 0.5).astype(np.int64)
    correct = sifted & (guess == bit_of[lab_idx])

    attack_label = channel.attack.label if channel.kind == pt.ATTACK else None
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(pt._dump({
            "schema": pt.ROUND_LOG_SCHEMA, "receiver": receiver.name,
            "channel": channel.kind, "attack_label": attack_label,
            "rounds": rounds, "rng_seed": seed}) + "\n")
        for r in range(rounds):
            lab = labels[lab_idx[r]]
            s = settings[set_idx[r]]
            fh.write(pt._dump({
                "round": r,
                "alice_basis": lab[0],
                "alice_bit": int(lab[1]),
                "bob_setting": s,
                "outcome_id": ids[s][out_idx[r]],
                "interpretation": pt._CLASSES[code[r]],
                "eve_guess": int(guess[r]),
            }) + "\n")

    per_basis = {}
    for s in [s for s in settings if s in {lab[0] for lab in labels}]:
        m = matched & (set_idx == settings.index(s))
        n = int(m.sum())
        n_sift = int(sifted[m].sum())
        n_err = int(errors[m].sum())
        n_inv = int((code[m] == 3).sum())
        n_lost = n - n_sift - n_inv
        per_basis[s] = pt.BasisStats(
            rounds=n, sifted=n_sift, errors=n_err, lost=n_lost,
            invalid=n_inv, qber=pt._ratio(n_err, n_sift),
            detection_efficiency=pt._ratio(n_sift, n),
            loss_rate=pt._ratio(n_lost, n), invalid_rate=pt._ratio(n_inv, n),
            eve_accuracy=pt._ratio(int(correct[m].sum()), n_sift))
    sifted_total = int(sifted.sum())
    return pt.SimulationReport(
        receiver=receiver.name, channel=channel.kind, rounds=rounds,
        rng_seed=seed, per_basis=per_basis, sifted_total=sifted_total,
        qber_pooled=pt._ratio(int(errors.sum()), sifted_total),
        invalid_rate=int((code == 3).sum()) / rounds,
        eve_guess_accuracy=pt._ratio(int(correct.sum()), sifted_total),
        test_fraction=1.0, attack_label=attack_label)


def reference_sift(path, test_fraction, seed):
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    header = [r for r in records if "schema" in r][-1]
    rows = [r for r in records if "schema" not in r]
    n = len(rows)
    alice_basis = np.array([r["alice_basis"] for r in rows])
    alice_bit = np.array([r["alice_bit"] for r in rows], dtype=np.int64)
    bob_setting = np.array([r["bob_setting"] for r in rows])
    code = np.array([pt._CLASS_CODE[r["interpretation"]] for r in rows],
                    dtype=np.int64)
    eve_guess = np.array([r["eve_guess"] for r in rows], dtype=np.int64)
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
        test = in_test & m
        n_test = int(test.sum())
        if n_test == 0 and n_sift > 0:
            test = sifted & m
            n_test = n_sift
        per_basis[s] = pt.BasisStats(
            rounds=nb, sifted=n_sift, errors=int(errors[m].sum()),
            lost=n_lost, invalid=n_inv,
            qber=pt._ratio(int(errors[test].sum()), n_test),
            detection_efficiency=pt._ratio(n_sift, nb),
            loss_rate=pt._ratio(n_lost, nb), invalid_rate=pt._ratio(n_inv, nb),
            eve_accuracy=pt._ratio(int(correct[m].sum()), n_sift))
    n_test_total = int(in_test.sum())
    if n_test_total == 0 and sifted.any():
        in_test = sifted
        n_test_total = int(sifted.sum())
    sifted_total = int(sifted.sum())
    return pt.SimulationReport(
        receiver=header["receiver"], channel=header["channel"], rounds=n,
        rng_seed=header["rng_seed"], per_basis=per_basis,
        sifted_total=sifted_total,
        qber_pooled=pt._ratio(int(errors[in_test].sum()), n_test_total),
        invalid_rate=int((code == 3).sum()) / n,
        eve_guess_accuracy=pt._ratio(int(correct.sum()), sifted_total),
        test_fraction=test_fraction, attack_label=header["attack_label"])


# ---------------------------------------------------------------------------
# chunk boundaries
# ---------------------------------------------------------------------------

def channel_cases():
    six = rc.make_receiver("interferometric-6mode")
    ideal = rc.make_receiver("ideal-bb84")
    return {
        "identity": (rc.make_receiver("interferometric-defended-10mode"),
                     pt.make_channel(pt.IDENTITY)),
        "attack-isometry": (six, pt.make_channel(
            pt.ATTACK, atk.faked_states_attack(six))),
        "pns": (ideal, pt.make_channel(pt.PNS, 0.1)),
        "lossy": (rc.make_receiver("polarization-threshold"),
                  pt.make_channel(pt.LOSSY, 0.3)),
    }


CASES = channel_cases()


def reserialize(path, out_path, seed):
    """The same log with shuffled keys and spaced separators."""
    shuffle = random.Random(seed).shuffle
    with open(path, encoding="utf-8") as src, \
            open(out_path, "w", encoding="utf-8") as dst:
        for line in src:
            items = list(json.loads(line).items())
            shuffle(items)
            dst.write(json.dumps(dict(items), separators=(", ", ": ")) + "\n")


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("rounds", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                    2 * CHUNK + 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_chunked_session_matches_the_whole_array_reference(
        tmp_path, small_chunks, kind, rounds, seed):
    receiver, channel = CASES[kind]
    log, ref_log = tmp_path / "chunked.ndjson", tmp_path / "reference.ndjson"
    report = pt.run_bb84(None, channel, receiver, rounds, seed=seed,
                         log_path=log)
    reference = reference_run_bb84(channel, receiver, rounds, seed, ref_log)
    assert report.to_json_dict() == reference.to_json_dict()
    assert log.read_bytes() == ref_log.read_bytes()

    shuffled = tmp_path / "shuffled.ndjson"
    reserialize(log, shuffled, seed)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    for test_fraction in (0.5, 1.0):
        want = reference_sift(log, test_fraction, seed=3).to_json_dict()
        for source in (log, rows, shuffled):
            got = pt.sift_and_estimate(source, test_fraction, seed=3)
            assert got.to_json_dict() == want


def test_chunk_size_changes_no_byte(tmp_path, monkeypatch):
    receiver, channel = CASES["attack-isometry"]
    outputs = []
    for chunk, log_slice in ((7, 1000), (1000, 7),
                             (pt._CHUNK, pt._LOG_SLICE)):
        monkeypatch.setattr(pt, "_CHUNK", chunk)
        monkeypatch.setattr(pt, "_LOG_SLICE", log_slice)
        log = tmp_path / f"log{chunk}.ndjson"
        report = pt.run_bb84(None, channel, receiver, 5000, seed=9,
                             log_path=log)
        sifted = pt.sift_and_estimate(log, 0.5, seed=2)
        outputs.append((report.to_json_dict(), log.read_bytes(),
                        sifted.to_json_dict()))
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# pinned bytes and threaded chunks
# ---------------------------------------------------------------------------

# SHA-256 digests of the bytes the single-threaded engine gave, drawing
# 2**16-round chunks: each channel's reports at these round counts, one
# report line each, and one logged session, its report and its sift.
PINNED_SEED = 17
PINNED_ROUNDS = (1, (1 << 15) - 1, (1 << 15) + 1, 3 * (1 << 16) + 5,
                 200_001)
PINNED_REPORTS = {
    "attack-isometry":
        "185686dc0b8e6f40a378e4e8ab502a98174cb89a4c9ca0588365947506f8d9ec",
    "identity":
        "3ed4880ef43c9f07b0f296a077c139f321f129133917bf9de17bd81e8b25f754",
    "lossy":
        "55575cf998f17afd0ba0a57ccd09ca7ec296ea9b38e85c09cfe7a1d4ca5709a2",
    "pns":
        "0d47dde62605c64630bad6667d331156c3539c7de31df8a3dbf448a09ac6e715",
}
PINNED_LOG_ROUNDS = 70_001
PINNED_LOG = \
    "e3709c4c27ff1b9065c08db32f490355802b730ab13d36b66f0529bc674c7c68"
PINNED_LOG_REPORTS = \
    "1e1e49255e899a15017924c3eb6a595621235abcddacae5c98c917f2616c17b3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_line(report) -> bytes:
    return (pt._dump(report.to_json_dict()) + "\n").encode("utf-8")


@pytest.mark.parametrize("kind", sorted(CASES))
def test_reports_keep_their_pinned_bytes(kind):
    receiver, channel = CASES[kind]
    reports = b"".join(
        report_line(pt.run_bb84(None, channel, receiver, rounds,
                                seed=PINNED_SEED))
        for rounds in PINNED_ROUNDS)
    assert sha256(reports) == PINNED_REPORTS[kind]


def test_a_logged_session_keeps_its_pinned_bytes(tmp_path):
    receiver, channel = CASES["attack-isometry"]
    log = tmp_path / "rounds.ndjson"
    report = pt.run_bb84(None, channel, receiver, PINNED_LOG_ROUNDS,
                         seed=PINNED_SEED, log_path=log)
    sifted = pt.sift_and_estimate(log, 0.5, seed=3)
    assert sha256(log.read_bytes()) == PINNED_LOG
    assert sha256(report_line(report) + report_line(sifted)) == \
        PINNED_LOG_REPORTS


@pytest.mark.parametrize("kind", ["attack-isometry", "pns"])
def test_worker_count_and_chunk_size_change_no_byte(tmp_path, monkeypatch,
                                                    kind):
    receiver, channel = CASES[kind]
    rounds = (1 << 15) + 1007
    ref_log = tmp_path / "reference.ndjson"
    want = reference_run_bb84(channel, receiver, rounds, 6, ref_log)
    for workers in (1, 2, 3):
        for chunk in (7, 1000, 1 << 15):
            monkeypatch.setattr(pt, "_WORKERS", workers)
            monkeypatch.setattr(pt, "_CHUNK", chunk)
            log = tmp_path / f"log-{workers}-{chunk}.ndjson"
            report = pt.run_bb84(None, channel, receiver, rounds, seed=6,
                                 log_path=log)
            assert report.to_json_dict() == want.to_json_dict(), \
                (workers, chunk)
            assert log.read_bytes() == ref_log.read_bytes(), (workers, chunk)
            log.unlink()


def test_workers_draw_a_bounded_window_ahead_of_the_log(tmp_path,
                                                         small_chunks,
                                                         monkeypatch):
    workers = 3
    monkeypatch.setattr(pt, "_WORKERS", workers)
    monkeypatch.setattr(pt, "_LOG_SLICE", CHUNK)  # one write per chunk
    sample, render = pt._sample_outcomes, pt._log_lines
    drawn, ahead = [], []

    def counted(*args):
        drawn.append(None)
        return sample(*args)

    def slow(prefixes, start, cells):
        time.sleep(0.002)
        ahead.append(len(drawn) - start // CHUNK - 1)
        return render(prefixes, start, cells)

    monkeypatch.setattr(pt, "_sample_outcomes", counted)
    monkeypatch.setattr(pt, "_log_lines", slow)
    receiver, channel = CASES["pns"]
    pt.run_bb84(None, channel, receiver, 30 * CHUNK, seed=1,
                log_path=tmp_path / "rounds.ndjson")
    assert len(ahead) == 30
    assert 1 <= max(ahead) <= workers - 1


def test_a_chunk_that_fails_on_a_worker(tmp_path, small_chunks,
                                        monkeypatch):
    monkeypatch.setattr(pt, "_WORKERS", 3)
    receiver, channel = CASES["pns"]
    log = tmp_path / "rounds.ndjson"
    pt.run_bb84(None, channel, receiver, 3 * CHUNK, seed=1, log_path=log)
    before = log.read_bytes()

    sample = pt._sample_outcomes
    calls = itertools.count(1)  # next() on it is atomic under the GIL
    failed_in = []

    def failing(*args):
        if next(calls) == 3:
            failed_in.append(threading.current_thread())
            raise RuntimeError("chunk 3")
        return sample(*args)

    monkeypatch.setattr(pt, "_sample_outcomes", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 3"):
        pt.run_bb84(None, channel, receiver, 20 * CHUNK, seed=2,
                    log_path=log)
    assert failed_in and failed_in[0] is not threading.main_thread()
    assert log.read_bytes() == before
    assert os.listdir(tmp_path) == ["rounds.ndjson"]
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_the_chunk(tmp_path, small_chunks):
    receiver, channel = CASES["pns"]
    log = tmp_path / "rounds.ndjson"

    def session(rounds):
        return lambda: pt.run_bb84(None, channel, receiver, rounds, seed=1,
                                   log_path=log)

    def read_back():
        pt.sift_and_estimate(log, 0.5)

    session(4 * CHUNK)()  # warm every lazy cache first
    small = traced_peak(session(4 * CHUNK))
    small_read = traced_peak(read_back)
    large = traced_peak(session(40 * CHUNK))
    large_read = traced_peak(read_back)
    assert large < 2 * small
    assert large_read < 2 * small_read


# ---------------------------------------------------------------------------
# atomic round log
# ---------------------------------------------------------------------------

def test_interrupted_session_keeps_the_previous_log(tmp_path, small_chunks,
                                                    monkeypatch):
    receiver, channel = CASES["pns"]
    log = tmp_path / "rounds.ndjson"
    pt.run_bb84(None, channel, receiver, 3 * CHUNK, seed=1, log_path=log)
    before = log.read_bytes()
    assert os.listdir(tmp_path) == ["rounds.ndjson"]

    render = pt._log_lines
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return render(*args)

    monkeypatch.setattr(pt, "_log_lines", failing)
    with pytest.raises(RuntimeError):
        pt.run_bb84(None, channel, receiver, 5 * CHUNK, seed=2, log_path=log)
    assert len(calls) == 2
    assert log.read_bytes() == before
    assert os.listdir(tmp_path) == ["rounds.ndjson"]


# ---------------------------------------------------------------------------
# malformed logs and seeds
# ---------------------------------------------------------------------------

@pytest.fixture
def good_log(tmp_path):
    receiver, channel = CASES["pns"]
    log = tmp_path / "good.ndjson"
    pt.run_bb84(None, channel, receiver, 10, seed=0, log_path=log)
    return log.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("bad_line", [
    '{"alice_basis":"computational" oops}\n',
    '{,"round":3}\n',
    '{"alice_basis":"computational","round":3\n',
])
def test_line_that_is_not_json_names_its_line(tmp_path, good_log, bad_line):
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(good_log[:3] + [bad_line] + good_log[4:]))
    with pytest.raises(pt.ProtocolError, match="line 4"):
        pt.sift_and_estimate(path)


@pytest.mark.parametrize("tail", ['"round":05}\n', '"round":3}}\n',
                                  '"round":3} x\n'])
def test_near_miss_round_lines_are_rejected(tmp_path, good_log, tail):
    line = good_log[3]
    assert line.endswith('"round":2}\n')
    path = tmp_path / "bad.ndjson"
    bad = line[:-len('"round":2}\n')] + tail
    path.write_text("".join(good_log[:3] + [bad] + good_log[4:]))
    with pytest.raises(pt.ProtocolError, match="line 4"):
        pt.sift_and_estimate(path)


def test_record_that_is_not_an_object_is_rejected(tmp_path, good_log):
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(good_log[:2] + ["[1,2]\n"] + good_log[2:]))
    with pytest.raises(pt.ProtocolError, match="line 3"):
        pt.sift_and_estimate(path)
    rows = [json.loads(line) for line in good_log]
    with pytest.raises(pt.ProtocolError, match="record 2"):
        pt.sift_and_estimate(rows[:1] + [[1, 2]] + rows[1:])


@pytest.mark.parametrize("field, value", [
    ("alice_bit", 2), ("eve_guess", None), ("alice_basis", 0),
    ("bob_setting", ["computational"]),
])
def test_round_fields_out_of_range_are_rejected(good_log, field, value):
    rows = [json.loads(line) for line in good_log]
    rows[3][field] = value
    with pytest.raises(pt.ProtocolError, match="record 4"):
        pt.sift_and_estimate(rows)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_seed_must_be_a_non_negative_integer(good_log, seed):
    receiver, channel = CASES["identity"]
    with pytest.raises(pt.ProtocolError, match="seed"):
        pt.run_bb84(None, channel, receiver, 10, seed=seed)
    rows = [json.loads(line) for line in good_log]
    with pytest.raises(pt.ProtocolError, match="seed"):
        pt.sift_and_estimate(rows, seed=seed)


@pytest.mark.parametrize("rounds", [0, -3, True, False, 2.5, 1.0, "10",
                                    None])
def test_rounds_must_be_a_positive_integer(rounds):
    receiver, channel = CASES["identity"]
    with pytest.raises(pt.ProtocolError, match="rounds"):
        pt.run_bb84(None, channel, receiver, rounds, seed=0)


def test_numpy_integer_rounds_are_accepted():
    receiver, channel = CASES["identity"]
    report = pt.run_bb84(None, channel, receiver, np.int64(3), seed=0)
    assert report.rounds == 3
    assert report.to_json_dict() == \
        pt.run_bb84(None, channel, receiver, 3, seed=0).to_json_dict()


# ---------------------------------------------------------------------------
# the batch reader
# ---------------------------------------------------------------------------

# A read batch is 32 characters per slice row; at 10 rows it is 320
# characters and the rest of the line: two or three round lines.
SMALL_SLICE = 10


@pytest.fixture
def batch_log(tmp_path, monkeypatch):
    """(lines, batch starts) of a 300-round log read in small batches.

    The batch starts are the line numbers each batch begins at; they
    depend only on the text before them, so a line may be replaced
    without moving the batch it starts.
    """
    monkeypatch.setattr(pt, "_LOG_SLICE", SMALL_SLICE)
    receiver, channel = CASES["attack-isometry"]
    log = tmp_path / "clean.ndjson"
    pt.run_bb84(None, channel, receiver, 300, seed=4, log_path=log)
    starts = []
    take = pt._batch_cells

    def spy(text, number, by_body, cells):
        starts.append(number)
        return take(text, number, by_body, cells)

    monkeypatch.setattr(pt, "_batch_cells", spy)
    pt.sift_and_estimate(log, 0.5, seed=1)
    monkeypatch.setattr(pt, "_batch_cells", take)
    assert len(starts) > 80
    return log.read_text(encoding="utf-8").splitlines(keepends=True), starts


def assert_same_report(tmp_path, text, test_fractions=(0.5, 1.0)):
    """The batch reader and the per-line reference agree on ``text``."""
    path = tmp_path / "edited.ndjson"
    path.write_bytes(text.encode("utf-8"))
    for test_fraction in test_fractions:
        got = pt.sift_and_estimate(path, test_fraction, seed=3)
        want = reference_sift(path, test_fraction, seed=3)
        assert got.to_json_dict() == want.to_json_dict()


def test_a_clean_log_is_read_line_by_line_only_in_its_header_batch(
        batch_log, monkeypatch, tmp_path):
    lines, starts = batch_log
    by_line = pt._line_cells
    calls = []

    def spy(lines, number, by_body, cells):
        calls.append(number)
        return by_line(lines, number, by_body, cells)

    monkeypatch.setattr(pt, "_line_cells", spy)
    assert_same_report(tmp_path, "".join(lines), (0.5,))
    assert calls == [1]


@pytest.mark.parametrize("bad, message", [
    ('{"alice_basis":"computational" oops}\n', "not valid JSON"),
    ('{"alice_basis":"hadamard","alice_bit":2,"bob_setting":"hadamard",'
     '"eve_guess":0,"interpretation":"loss","outcome_id":"d2",'
     '"round":7}\n', "alice_bit and eve_guess must be 0 or 1"),
])
@pytest.mark.parametrize("batch", [3, 50])
@pytest.mark.parametrize("place", ["first", "last"])
def test_bad_line_at_a_batch_boundary_names_its_line(
        tmp_path, batch_log, bad, message, batch, place):
    lines, starts = batch_log
    assert starts[batch] > starts[batch - 1] + 1  # 2+ lines in each batch
    number = starts[batch] - (place == "last")
    edited = lines[:number - 1] + [bad] + lines[number:]
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(edited), encoding="utf-8")
    if message == "not valid JSON":
        with pytest.raises(json.JSONDecodeError) as err:
            json.loads(bad)
        message = f"not valid JSON ({err.value})"
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == f"line {number}: {message}"


def test_a_record_broken_across_two_lines_names_its_first_line(
        tmp_path, batch_log):
    lines, starts = batch_log
    number = starts[20]
    head, tail = lines[number - 1].split('"bob_setting"')
    edited = lines[:number - 1] + [head + "\n", '"bob_setting"' + tail] \
        + lines[number:]
    path = tmp_path / "broken.ndjson"
    path.write_text("".join(edited), encoding="utf-8")
    with pytest.raises(pt.ProtocolError,
                       match=f"^line {number}: not valid JSON"):
        pt.sift_and_estimate(path)


def with_byte_ff(line: str) -> bytes:
    """``line`` with the first character of its outcome id made 0xff."""
    data = line.encode("utf-8")
    at = data.index(b'"outcome_id":"') + len(b'"outcome_id":"')
    return data[:at] + b"\xff" + data[at + 1:]


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    receiver, channel = CASES["pns"]
    path = tmp_path / "rounds.ndjson"
    pt.run_bb84(None, channel, receiver, 20, seed=0, log_path=path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    data = [line.encode("utf-8") for line in lines]
    data[5] = with_byte_ff(lines[5])
    path.write_bytes(b"".join(data))
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == "line 6: byte 0xff is not UTF-8"


@pytest.mark.parametrize("batch", [3, 50])
@pytest.mark.parametrize("place", ["first", "last"])
def test_a_byte_that_is_not_utf8_at_a_batch_boundary(tmp_path, batch_log,
                                                     batch, place):
    lines, starts = batch_log
    number = starts[batch] - (place == "last")
    data = [line.encode("utf-8") for line in lines]
    data[number - 1] = with_byte_ff(lines[number - 1])
    path = tmp_path / "bad.ndjson"
    path.write_bytes(b"".join(data))
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == f"line {number}: byte 0xff is not UTF-8"


def test_a_reserialized_line_in_one_batch_only(tmp_path, batch_log):
    lines, starts = batch_log
    number = starts[40]
    record = json.loads(lines[number - 1])
    spaced = json.dumps(dict(reversed(list(record.items()))),
                        separators=(", ", ": ")) + "\n"
    assert spaced != lines[number - 1]
    assert_same_report(
        tmp_path, "".join(lines[:number - 1] + [spaced] + lines[number:]))


def test_a_line_with_leading_whitespace(tmp_path, batch_log):
    lines, starts = batch_log
    edited = list(lines)
    for number in (starts[40], starts[41] + 1):
        edited[number - 1] = " \t" + edited[number - 1]
    assert_same_report(tmp_path, "".join(edited))


def test_crlf_line_ends(tmp_path, batch_log):
    lines, _ = batch_log
    assert_same_report(tmp_path, "".join(lines).replace("\n", "\r\n"))


def test_a_header_record_in_the_middle_of_the_log(tmp_path, batch_log):
    lines, starts = batch_log
    header = json.loads(lines[0])
    moved = pt._dump(dict(header, receiver="elsewhere")) + "\n"
    number = starts[60] + 1
    text = "".join(lines[:number - 1] + [moved] + lines[number - 1:])
    assert_same_report(tmp_path, text)
    path = tmp_path / "edited.ndjson"
    assert pt.sift_and_estimate(path).receiver == "elsewhere"


def test_blank_lines(tmp_path, batch_log):
    lines, starts = batch_log
    edited = list(lines)
    for number in sorted((starts[10], starts[10] + 1, starts[70] + 1,
                          len(lines)), reverse=True):
        edited.insert(number, "  \n" if number % 2 else "\n")
    edited.append("\n")
    assert_same_report(tmp_path, "".join(edited))


def test_a_final_line_with_no_trailing_newline(tmp_path, batch_log):
    lines, _ = batch_log
    text = "".join(lines)
    assert text.endswith("}\n")
    assert_same_report(tmp_path, text[:-1])


def test_a_body_holding_a_line_separator(tmp_path, batch_log):
    # str.splitlines would cut these lines in two; file iteration does not
    lines, starts = batch_log
    edited = [line.replace('"outcome_id":"', '"outcome_id":"\u2028')
              if number % 3 == 0 else line
              for number, line in enumerate(lines, 1)]
    assert sum("\u2028" in line for line in edited) >= 90
    assert_same_report(tmp_path, "".join(edited))
    number = starts[30]
    bad = edited[:number - 1] + ['{"alice_basis":\n'] + edited[number:]
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(bad), encoding="utf-8")
    with pytest.raises(pt.ProtocolError, match=f"^line {number}: "):
        pt.sift_and_estimate(path)


# ---------------------------------------------------------------------------
# guide-table outcome sampling
# ---------------------------------------------------------------------------

BIN = 1.0 / pt._GUIDE
LAST_UNIFORM = 1.0 - 2.0 ** -53  # the largest value Generator.random draws


def probe_uniforms(cdf):
    """Every bin edge, each CDF entry with its neighbours, random draws."""
    edges = np.arange(pt._GUIDE) * BIN
    entries = cdf[np.isfinite(cdf)]
    u = np.concatenate([
        edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
        entries, np.nextafter(entries, 0.0), np.nextafter(entries, 1.0),
        [0.0, LAST_UNIFORM], np.random.default_rng(1).random(4096)])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_guide_is_exact(cdf):
    guide = pt._guide_table(cdf)
    u = probe_uniforms(cdf)
    for row in range(len(cdf)):
        pair = np.full(len(u), row, dtype=np.int64)
        reference = np.count_nonzero(cdf[pair] <= u[:, None], axis=1)
        got = pt._sample_outcomes(cdf, guide, pair, u)
        assert np.array_equal(got, reference), f"row {row}"
    return guide.reshape(len(cdf), pt._GUIDE)


def test_guide_table_matches_the_full_count_on_synthetic_rows():
    inf = np.inf
    cdf = np.array([
        # several entries in one bin
        [0.1, 0.1 + BIN / 5, 0.1 + BIN / 3, inf, inf],
        # entries exactly on bin edges, and just off one
        [BIN, 2047 * BIN, 0.5, np.nextafter(0.75, 0.0), inf],
        # zero-probability outcomes: repeated entries, 0.0 and 1.0
        [0.0, 0.0, 0.3, 1.0, inf],
        # the +inf tail is the only real entry
        [inf, inf, inf, inf, inf],
        # the last bin, split just below 1
        [LAST_UNIFORM, inf, inf, inf, inf],
    ])
    guide = assert_guide_is_exact(cdf)
    # a bin is split only by an entry strictly inside it, so at most one
    # bin per entry in (0, 1) off the edges; the others are settled
    splits = (guide < 0).sum(axis=1)
    assert splits.tolist() == [1, 1, 1, 0, 1]
    assert (guide[3] == 0).all()
    assert guide[0, 0] == 0 and guide[0, -1] == 3


@pytest.mark.parametrize("kind,variant", [
    (kind, None) for kind in rc.RECEIVER_KINDS
] + [("interferometric-2mode", "single-window")])
def test_guide_table_is_exact_on_every_bundled_receiver(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    system = atk.build_constraint_system(receiver)
    for channel in (pt.make_channel(pt.IDENTITY),
                    pt.make_channel(pt.ATTACK,
                                    atk.cnot_attack(receiver, system)),
                    pt.make_channel(pt.PNS, 0.1),
                    pt.make_channel(pt.LOSSY, 0.3)):
        ids, cdf, guide = pt._outcome_tables(receiver.source, channel,
                                             receiver, system)
        assert np.array_equal(guide, pt._guide_table(cdf))
        assert_guide_is_exact(cdf)
