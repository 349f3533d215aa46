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
and leave an earlier log in place.  The batch reader must give the
per-line reading's report, or its error and line number, whatever line
shapes fall in a batch or at its boundary and whether lines end in LF,
CRLF or a lone CR.  A six-state source, whose label count is not a
power of two, must match the reference as well.  The engine reads raw
Philox words, each standing for the uniform ``Generator.random`` makes
of it.  The guide-table outcome sampler must give the cell base of the
full count of CDF entries <= u for the uniform u of every word, at bin
edges and CDF entries alike, and the chunk kernel must give each round's
cell by the documented rules on the words either side of each boundary
uniform, whatever their 11 low bits.
"""

import hashlib
import itertools
import json
import math
import os
import random
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qkdlab import attacks as atk
from qkdlab import protocol as pt
from qkdlab import receivers as rc
from qkdlab.fockspace import PhotonicState, t_in

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
                    channel.attack, system, s, lab)
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


def reference_run_bb84(channel, receiver, rounds, seed, log_path,
                       alice=None):
    alice = alice or receiver.source
    labels = alice.labels()
    settings = list(receiver.settings)
    system = None
    if channel.kind == pt.ATTACK:
        system = atk.build_constraint_system(receiver)
        conditional = atk.eve_conditional_states(channel.attack, system=system)
        guess_p0 = {}
        for basis in alice.bases:
            meas = atk.eve_guess(conditional, basis)
            for bit, p0 in enumerate((0.5, 0.5) if meas is None else (
                    meas.guess0_given_0, meas.guess0_given_1)):
                guess_p0[(basis, bit)] = min(max(p0, 0.0), 1.0)
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
    header, *rows = records
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
    for test_fraction in (0.5, 1.0):
        want = reference_sift(log, test_fraction, seed=3).to_json_dict()
        for source in (log, shuffled):
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


# a source of six states, whose label count is not a power of two, on a
# receiver whose two settings measure two of its three bases
SIX_STATE_CHANNELS = {"identity": None, "lossy": 0.3, "pns": 0.1}
SIX_STATE_ROUNDS = 3 * CHUNK + 7
# SHA-256 of each six-state session's report line and log bytes
SIX_STATE_DIGESTS = {
    "identity":
        "9c6fad3e5765283ea0612632185a83286d96b135c3ecb469968cd941a837ed01",
    "lossy":
        "2508081981a310a77542b54be9e7e43457cbc1e0b50282cf4e7b3bad5919ebaf",
    "pns":
        "7092cc6d9e5b3644af1c11a0d00544b029c7c365e96c3f8d6eeb007860e76639",
}


def six_state_source(receiver):
    return rc._logical_source(
        receiver.channel_registry(), t_in(0), t_in(1),
        bases=(rc.COMPUTATIONAL, rc.HADAMARD, rc.Y_BASIS))


@pytest.mark.parametrize("kind", sorted(SIX_STATE_CHANNELS))
def test_six_state_sessions_match_the_reference(tmp_path, small_chunks,
                                                monkeypatch, kind):
    receiver = rc.make_receiver("interferometric-2mode", "single-window")
    alice = six_state_source(receiver)
    assert len(alice.labels()) == 6
    channel = pt.make_channel(kind, SIX_STATE_CHANNELS[kind])
    ref_log = tmp_path / "reference.ndjson"
    want = reference_run_bb84(channel, receiver, SIX_STATE_ROUNDS, 4,
                              ref_log, alice)
    for workers in (1, 3):
        monkeypatch.setattr(pt, "_WORKERS", workers)
        log = tmp_path / f"log-{workers}.ndjson"
        report = pt.run_bb84(alice, channel, receiver, SIX_STATE_ROUNDS,
                             seed=4, log_path=log)
        assert report.to_json_dict() == want.to_json_dict(), workers
        assert log.read_bytes() == ref_log.read_bytes(), workers
    assert sha256(report_line(report) + log.read_bytes()) == \
        SIX_STATE_DIGESTS[kind]


def test_workers_draw_a_bounded_window_ahead_of_the_log(tmp_path,
                                                         small_chunks,
                                                         monkeypatch):
    workers = 3
    window = 2 * workers  # chunks kept submitted and not yet logged
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
    assert workers <= max(ahead) <= window - 1


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


@pytest.mark.parametrize("skip", range(4))
def test_a_uniform_is_the_top_53_bits_of_its_philox_word(skip):
    # the stream contract the session draws rest on: after the same
    # counter steps and skipped words, Generator.random gives each word's
    # top 53 bits times 2**-53
    key = np.random.Philox(PINNED_SEED).state["state"]["key"]
    for steps in (0, 1, 5 * 12345 // 4):
        doubles, words = np.random.Philox(key=key), np.random.Philox(key=key)
        doubles.advance(steps)
        words.advance(steps)
        gen = np.random.Generator(doubles)
        gen.random(skip)
        words.random_raw(skip)
        assert np.array_equal(gen.random(4099),
                              (words.random_raw(4099) >> 11) * 2.0 ** -53)


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

    def read_backs():
        """The traced peak of reading the log back with LF, CRLF and
        lone-CR line ends."""
        data = log.read_bytes()
        peaks = []
        for end in (b"\n", b"\r\n", b"\r"):
            copy = tmp_path / "copy.ndjson"
            copy.write_bytes(data.replace(b"\n", end))
            peaks.append(traced_peak(lambda: pt.sift_and_estimate(copy, 0.5)))
        return peaks

    session(4 * CHUNK)()  # warm every lazy cache first
    small = traced_peak(session(4 * CHUNK))
    small_reads = read_backs()
    large = traced_peak(session(40 * CHUNK))
    large_reads = read_backs()
    assert large < 2 * small
    for small_read, large_read in zip(small_reads, large_reads):
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


@pytest.mark.parametrize("bad_line", [
    '{"alice_basis":\n', '{"alice_basis":{"x":1,"round":3}\n',
    '{"alice_basis":', '{"alice_basis":{"x":1,"round":3}',
])
def test_a_json_error_at_the_line_end_is_placed_as_written(
        tmp_path, good_log, bad_line):
    # json places each of these errors by the line end, or its absence; a
    # line with no line end goes last, after every line of the log
    if bad_line.endswith("\n"):
        number, edited = 4, good_log[:3] + [bad_line] + good_log[4:]
    else:
        number, edited = len(good_log) + 1, good_log + [bad_line]
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(edited), encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(bad_line)
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == f"line {number}: not valid JSON ({err.value})"


def test_record_that_is_not_an_object_is_rejected(tmp_path, good_log):
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(good_log[:2] + ["[1,2]\n"] + good_log[2:]))
    with pytest.raises(pt.ProtocolError, match="line 3"):
        pt.sift_and_estimate(path)


@pytest.mark.parametrize("field, value", [
    ("alice_bit", 2), ("eve_guess", None), ("alice_basis", 0),
    ("bob_setting", ["computational"]),
    ("alice_bit", True), ("alice_bit", 1.0), ("eve_guess", False),
    ("eve_guess", 0.0),
])
def test_round_fields_out_of_range_are_rejected(tmp_path, good_log, field,
                                                value):
    record = json.loads(good_log[3])
    record[field] = value
    path = tmp_path / "bad.ndjson"
    path.write_text("".join(good_log[:3] + [pt._dump(record) + "\n"]
                            + good_log[4:]))
    with pytest.raises(pt.ProtocolError, match="^line 4: "):
        pt.sift_and_estimate(path)


def with_record(good_log, number, edit):
    """``good_log`` with line ``number`` replaced by ``edit`` of its
    record, written compact (its round number last, where the batch
    reader cuts it off) and spaced (read whole)."""
    record = json.loads(good_log[number - 1])
    edit(record)
    for line in (pt._dump(record),
                 json.dumps(record, separators=(", ", ": "))):
        yield "".join(good_log[:number - 1] + [line + "\n"]
                      + good_log[number:])


def drop(name):
    return lambda record: record.pop(name)


def put(name, value):
    return lambda record: record.update({name: value})


@pytest.mark.parametrize("edit, message", [
    (drop("round"), "round record lacks field 'round'"),
    (put("round", -1), "round must be an integer >= 0, got -1"),
    (put("round", 2.0), "round must be an integer >= 0, got 2.0"),
    (put("round", True), "round must be an integer >= 0, got True"),
    (put("round", "2"), "round must be an integer >= 0, got '2'"),
    (put("extra", 1), "round record has unknown keys ['extra']"),
    (put("Round", 2), "round record has unknown keys ['Round']"),
    (drop("outcome_id"), "round record lacks field 'outcome_id'"),
    (put("outcome_id", 5), "outcome_id must be a string or null"),
], ids=["no-round", "negative-round", "float-round", "bool-round",
        "string-round", "unknown-key", "capitalised-key", "no-outcome-id",
        "numeric-outcome-id"])
def test_a_round_line_must_match_the_schemas_round_record(
        tmp_path, good_log, edit, message):
    path = tmp_path / "bad.ndjson"
    for text in with_record(good_log, 4, edit):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(pt.ProtocolError) as raised:
            pt.sift_and_estimate(path)
        assert str(raised.value) == f"line 4: {message}"


def test_a_null_outcome_id_is_a_round_record(tmp_path, good_log):
    path = tmp_path / "null.ndjson"
    for text in with_record(good_log, 4, put("outcome_id", None)):
        path.write_text(text, encoding="utf-8")
        assert pt.sift_and_estimate(path, 1.0).to_json_dict() == \
            reference_sift(path, 1.0, seed=0).to_json_dict()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_seed_must_be_a_non_negative_integer(tmp_path, good_log, seed):
    receiver, channel = CASES["identity"]
    with pytest.raises(pt.ProtocolError, match="seed"):
        pt.run_bb84(None, channel, receiver, 10, seed=seed)
    with pytest.raises(pt.ProtocolError, match="seed"):
        pt.sift_and_estimate(tmp_path / "good.ndjson", seed=seed)


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


def read_whole(monkeypatch, path):
    """The numbers of the lines ``sift_and_estimate`` reads whole."""
    whole = pt._line_record
    numbers = []

    def spy(line, number, cells):
        numbers.append(number)
        return whole(line, number, cells)

    monkeypatch.setattr(pt, "_line_record", spy)
    pt.sift_and_estimate(path, 0.5, seed=3)
    monkeypatch.setattr(pt, "_line_record", whole)
    return numbers


def first_of_each_body(lines):
    """The numbers of the round lines whose body, the line up to its
    round number, no earlier round line has."""
    seen, numbers = set(), []
    for number, line in enumerate(lines[1:], 2):
        body = line[:line.rindex(',"round":')]
        if body not in seen:
            seen.add(body)
            numbers.append(number)
    return numbers


def test_a_clean_log_reads_each_distinct_body_whole_once(
        batch_log, monkeypatch, tmp_path):
    lines, _ = batch_log
    assert_same_report(tmp_path, "".join(lines), (0.5,))
    first = first_of_each_body(lines)
    assert 1 < len(first) < 60 and first[0] == 2
    assert read_whole(monkeypatch, tmp_path / "edited.ndjson") == first


def test_a_reserialized_line_is_read_whole_with_each_new_body(
        batch_log, monkeypatch, tmp_path):
    lines, starts = batch_log
    number = starts[40] + 1
    first = first_of_each_body(lines)
    assert number not in first  # its body is known by then
    record = json.loads(lines[number - 1])
    spaced = json.dumps(record, separators=(", ", ": ")) + "\n"
    assert spaced != lines[number - 1]
    assert_same_report(
        tmp_path, "".join(lines[:number - 1] + [spaced] + lines[number:]),
        (0.5,))
    assert read_whole(monkeypatch, tmp_path / "edited.ndjson") == \
        sorted(first + [number])


@pytest.mark.parametrize("bad, message", [
    ('{"alice_basis":"computational" oops}\n', "not valid JSON"),
    ('{"alice_basis":"hadamard","alice_bit":2,"bob_setting":"hadamard",'
     '"eve_guess":0,"interpretation":"loss","outcome_id":"d2",'
     '"round":7}\n', "alice_bit and eve_guess must be 0 or 1"),
    ('{"alice_basis":"hadamard","alice_bit":true,"bob_setting":"hadamard",'
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


def test_lone_cr_line_ends(tmp_path, batch_log):
    lines, _ = batch_log
    assert_same_report(tmp_path, "".join(lines).replace("\n", "\r"))


def test_a_crlf_pair_split_by_a_raw_read(tmp_path, monkeypatch):
    # a raw read of 32 * _LOG_SLICE bytes that ends between CR and LF must
    # take the LF into its batch, not read it as a blank line of its own
    receiver, channel = CASES["pns"]
    lf = tmp_path / "lf.ndjson"
    pt.run_bb84(None, channel, receiver, 400, seed=0, log_path=lf)
    crlf = tmp_path / "crlf.ndjson"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    take = pt._batch_cells
    split = []

    def spy(data, number, by_body, cells):
        end = 32 * pt._LOG_SLICE
        split.append(data[end - 1:end + 1] == b"\r\n")
        return take(data, number, by_body, cells)

    monkeypatch.setattr(pt, "_batch_cells", spy)
    for log_slice in range(1, 64):
        monkeypatch.setattr(pt, "_LOG_SLICE", log_slice)
        split.clear()
        got = pt.sift_and_estimate(crlf, 0.5, seed=3).to_json_dict()
        if any(split):
            break
    assert any(split)
    monkeypatch.setattr(pt, "_batch_cells", take)
    assert got == pt.sift_and_estimate(lf, 0.5, seed=3).to_json_dict()
    assert pt.sift_and_estimate(crlf, 1.0).to_json_dict() == \
        pt.sift_and_estimate(lf, 1.0).to_json_dict()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_every_line_end_reads_each_distinct_body_whole_once(
        batch_log, monkeypatch, tmp_path, end):
    lines, _ = batch_log
    assert_same_report(tmp_path, "".join(lines).replace("\n", end), (0.5,))
    assert read_whole(monkeypatch, tmp_path / "edited.ndjson") == \
        first_of_each_body(lines)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("batch", [3, 50])
@pytest.mark.parametrize("place", ["first", "last"])
def test_every_line_end_names_the_line_of_an_error(
        tmp_path, batch_log, end, batch, place):
    lines, starts = batch_log
    number = starts[batch] - (place == "last")
    bad = '{"alice_basis":"computational" oops}\n'
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(bad)
    undecoded = with_byte_ff(lines[number - 1]).decode("utf-8",
                                                       "surrogateescape")
    for line, message in ((bad, f"not valid JSON ({err.value})"),
                          (undecoded, "byte 0xff is not UTF-8")):
        text = "".join(lines[:number - 1] + [line] + lines[number:])
        path = tmp_path / "bad.ndjson"
        path.write_bytes(text.replace("\n", end).encode("utf-8",
                                                        "surrogateescape"))
        with pytest.raises(pt.ProtocolError) as raised:
            pt.sift_and_estimate(path)
        assert str(raised.value) == f"line {number}: {message}"


def test_a_header_record_in_the_middle_of_the_log(tmp_path, batch_log):
    lines, starts = batch_log
    header = json.loads(lines[0])
    moved = pt._dump(dict(header, receiver="elsewhere")) + "\n"
    number = starts[60] + 1
    path = tmp_path / "edited.ndjson"
    path.write_text("".join(lines[:number - 1] + [moved]
                            + lines[number - 1:]), encoding="utf-8")
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == (
        f"line {number}: round record has unknown keys ['attack_label', "
        f"'channel', 'receiver', 'rng_seed', 'rounds', 'schema']")


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
LOW_BITS = np.uint64(0x7ff)  # the 11 bits of a word its uniform drops


def uniforms(words):
    """The uniform ``Generator.random`` makes of each raw Philox word."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def words_of(u):
    """Raw words for doubles u, shape kept, on a new leading axis of two:
    the word of the largest drawable uniform <= u and of the least one
    >= u, which are one word when u is a multiple of 2**-53."""
    scaled = np.asarray(u) * 2.0 ** 53
    return np.stack([np.floor(scaled), np.ceil(scaled)]).astype(
        np.uint64) << np.uint64(11)


def probe_uniforms(cdf):
    """Every bin edge, each CDF entry with its neighbours, random draws."""
    edges = np.arange(pt._GUIDE) * BIN
    entries = cdf[np.isfinite(cdf)]
    u = np.concatenate([
        edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
        entries, np.nextafter(entries, 0.0), np.nextafter(entries, 1.0),
        [0.0, LAST_UNIFORM], np.random.default_rng(1).random(4096)])
    return u[(u >= 0.0) & (u < 1.0)]


def probe_words(cdf):
    """The drawable words either side of each of :func:`probe_uniforms`,
    each with its 11 low bits clear and again with them set."""
    words = np.unique(words_of(probe_uniforms(cdf)))
    return np.concatenate([words, words | LOW_BITS])


def assert_guide_is_exact(cdf):
    guide = pt._guide_table(cdf)
    words = probe_words(cdf)
    u = uniforms(words)
    width = cdf.shape[1]
    for row in range(len(cdf)):
        pair = np.full(len(u), row, dtype=np.int64)
        count = np.count_nonzero(cdf[pair] <= u[:, None], axis=1)
        reference = (row * width + count) * 2
        got = pt._sample_outcomes(cdf, guide, pair, words)
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
    # a settled bin holds the cell base (row * width + outcome) * 2
    assert (guide[3] == (3 * 5 + 0) * 2).all()
    assert guide[0, 0] == 0 and guide[0, -1] == (0 * 5 + 3) * 2


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


# ---------------------------------------------------------------------------
# the chunk kernel on boundary words
# ---------------------------------------------------------------------------

# m = 6004799503160661 lies just under 2/3 * 2**53: u * 3 rounds up to 2.0
# for u = m * 2**-53, so floor gives 2, though the integer (m * 3) >> 53
# is 1
CARRY = 6004799503160661


@pytest.mark.parametrize("n", range(1, 8))
def test_index_is_the_float_rule_on_boundary_words(n):
    tops = {0, CARRY, 2 ** 53 - 1}
    for k in range(n + 1):
        edge = k / n * 2.0 ** 53
        tops |= {math.floor(edge) + d for d in (-1, 0, 1)}
        tops |= {math.ceil(edge) + d for d in (-1, 0, 1)}
    words = np.array(sorted(m for m in tops if 0 <= m < 2 ** 53),
                     dtype=np.uint64) << np.uint64(11)
    words = np.concatenate([words, words | LOW_BITS])
    want = [min(int(u * n), n - 1) for u in uniforms(words).tolist()]
    got = pt._index(words, n)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert set(want) == set(range(n))
    if n == 3:
        assert want[words.tolist().index(CARRY << 11)] == 2


def after(x):
    return float(np.nextafter(x, 1.0))


def before(x):
    return float(np.nextafter(x, 0.0))


def boundary_uniforms(cdf, n_lab, n_set, guess_edges):
    """Round uniforms that put each column on its edges.

    Every CDF row gets u2 on each of :func:`probe_uniforms`, which holds
    every bin edge and each CDF entry and 1 ulp either side.  u0 and u1
    cycle over the lower edge, the middle and the last double below the
    upper edge of the row's label and setting, which for the last ones
    is 1 - 2**-53.  u3 cycles over ``guess_edges`` of the row's label and
    u4 over 0.5, each with its neighbours, 0 and 1 - 2**-53.
    """
    rows = []
    u2 = probe_uniforms(cdf).tolist()
    for pair in range(len(cdf)):
        lab, setting = divmod(pair, n_set)
        u0 = [lab / n_lab, (lab + 0.5) / n_lab, before((lab + 1) / n_lab)]
        u1 = [setting / n_set, (setting + 0.5) / n_set,
              before((setting + 1) / n_set)]
        u3 = [0.0, LAST_UNIFORM]
        for edge in guess_edges[lab]:
            u3 += [before(edge), edge, after(edge)]
        u3 = [u for u in u3 if 0.0 <= u < 1.0]
        u4 = [0.0, before(0.5), 0.5, after(0.5), LAST_UNIFORM]
        rows += [(u0[i % 3], u1[i // 3 % 3], u, u3[i % len(u3)],
                  u4[i % len(u4)]) for i, u in enumerate(u2)]
    return np.array(rows)


def reference_round(row, labels, n_set, cdf, channel, p0):
    """(label, setting, outcome, guess) of one round by the documented
    rules: each index a uniform's share of its range, the last one for
    a uniform that rounds up to the top, the outcome #{c <= u2} of the
    row, and the guess of the channel kind."""
    u0, u1, u2, u3, u4 = row
    n_lab = len(labels)
    lab = min(int(u0 * n_lab), n_lab - 1)
    setting = min(int(u1 * n_set), n_set - 1)
    outcome = sum(c <= u2 for c in cdf[lab * n_set + setting].tolist())
    if channel.kind == pt.ATTACK:
        guess = 0 if u3 < p0[lab] else 1
    elif channel.kind == pt.PNS:
        guess = labels[lab][1] if u3 < channel.p_multi else int(u4 >= 0.5)
    else:
        guess = 0 if u3 < 0.5 else 1
    return lab, setting, outcome, guess


def boundary_words(cdf, n_lab, n_set, guess_edges):
    """The rows of :func:`boundary_uniforms` as raw words: a row with a
    double that is not a multiple of 2**-53 gives one row of the drawable
    words below its doubles and one of those above.  The second half is
    the first with the 11 low bits of every word set."""
    below, above = words_of(boundary_uniforms(cdf, n_lab, n_set,
                                              guess_edges))
    words = np.concatenate([below, above[(above != below).any(axis=1)]])
    return np.concatenate([words, words | LOW_BITS])


class CraftedBits:
    """Stands in for numpy's Philox in a session and hands out ``words``
    as the raw words of its one chunk."""

    state = {"state": {"key": None}}

    def __init__(self, words):
        self.words = words

    def __call__(self, seed=None, key=None):
        return self

    def advance(self, steps):
        assert steps == 0  # the one chunk starts the stream

    def random_raw(self, size):
        if size == 0:  # the first chunk skips no words
            return np.empty(0, dtype=np.uint64)
        assert size == self.words.size
        return self.words.ravel()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_chunk_kernel_on_boundary_uniforms(tmp_path, monkeypatch, kind):
    receiver, channel = CASES[kind]
    labels, settings = receiver.source.labels(), list(receiver.settings)
    n_lab, n_set = len(labels), len(settings)
    system = conditional = None
    p0 = [0.5] * n_lab
    guess_edges = [[0.5]] * n_lab
    if kind == pt.ATTACK:
        # fractional and out-of-range guess probabilities, and a basis
        # where nothing sifts, in place of the attack's 0 and 1
        given = {"computational": SimpleNamespace(guess0_given_0=0.3,
                                                  guess0_given_1=1.25)}
        monkeypatch.setattr(atk, "eve_guess",
                            lambda cond, basis: given.get(basis))
        system = atk.build_constraint_system(receiver)
        conditional = atk.eve_conditional_states(channel.attack, system)
        p0 = [min((0.3, 1.25)[bit], 1.0) if basis == "computational"
              else 0.5 for basis, bit in labels]
        guess_edges = [[p] for p in p0]
        assert sorted(set(p0)) == [0.3, 0.5, 1.0]
    elif kind == pt.PNS:
        guess_edges = [[channel.p_multi, 0.5]] * n_lab
    ids, cdf, guide = pt._outcome_tables(receiver.source, channel, receiver,
                                         system)
    width = cdf.shape[1]
    words = boundary_words(cdf, n_lab, n_set, guess_edges)
    half = len(words) // 2
    want = [reference_round(row, labels, n_set, cdf, channel, p0)
            for row in uniforms(words[:half]).tolist()]
    assert {(lab, s) for lab, s, _, _ in want} == \
        set(itertools.product(range(n_lab), range(n_set)))
    assert {g for _, _, _, g in want} == {0, 1}
    want += want  # a word's low bits change no round

    # the sampler and the guess rule, called on the reference pairs
    pair = np.array([lab * n_set + s for lab, s, _, _ in want])
    cell = pt._sample_outcomes(cdf, guide, pair, words[:, 2])
    cell += pt._guess_rule(channel, labels, n_set, conditional)(pair, words)
    assert cell.tolist() == [((lab * n_set + s) * width + outcome) * 2 + g
                             for lab, s, outcome, g in want]

    # a whole session on these words, through its own index rules
    monkeypatch.setattr(pt, "_CHUNK", len(words))
    monkeypatch.setattr(np.random, "Philox", CraftedBits(words))
    log = tmp_path / "rounds.ndjson"
    pt.run_bb84(None, channel, receiver, len(words), log_path=log,
                system=system)
    with open(log, encoding="utf-8") as fh:
        next(fh)
        got = json.loads("[" + ",".join(fh) + "]")
    assert [(r["alice_basis"], r["alice_bit"], r["bob_setting"],
             r["outcome_id"], r["eve_guess"]) for r in got] == \
        [(*labels[lab], settings[s], ids[settings[s]][outcome], g)
         for lab, s, outcome, g in want]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_guess_probability_that_is_not_finite_fails(monkeypatch, bad):
    receiver, channel = CASES["attack-isometry"]
    given = {"computational": SimpleNamespace(guess0_given_0=0.3,
                                              guess0_given_1=bad)}
    monkeypatch.setattr(atk, "eve_guess", lambda cond, basis: given.get(basis))
    with pytest.raises(pt.ProtocolError,
                       match=r"label \('computational', 1\) is -?(nan|inf)"):
        pt.run_bb84(None, channel, receiver, 10)
