"""Monte-Carlo session tests: channels, reports, logs, re-aggregation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qkdlab import attacks as atk
from qkdlab import protocol as pt
from qkdlab import receivers as rc


def binom_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


# a round record as the round-log schema declares it
ROUND = {"round": 0, "alice_basis": "computational", "alice_bit": 0,
         "bob_setting": "computational", "outcome_id": "d0",
         "interpretation": "bit0", "eve_guess": 0}


def write_log(path, records):
    """A round-log file of ``records``, one compact JSON line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pt._dump(record) + "\n" for record in records)
    return path


@pytest.fixture(scope="module")
def six():
    return rc.make_receiver("interferometric-6mode")


@pytest.fixture(scope="module")
def two():
    return rc.make_receiver("interferometric-2mode")


@pytest.fixture(scope="module")
def ideal():
    return rc.make_receiver("ideal-bb84")


def test_make_channel_rejects_mismatched_payloads(six):
    with pytest.raises(pt.ProtocolError):
        pt.make_channel("identity", 0.5)
    with pytest.raises(pt.ProtocolError):
        pt.make_channel("attack-isometry", {"p_multi": 0.1})
    with pytest.raises(pt.ProtocolError):
        pt.make_channel("pns", 1.2)
    with pytest.raises(pt.ProtocolError):
        pt.make_channel("lossy", -0.01)
    with pytest.raises(pt.ProtocolError):
        pt.make_channel("teleport", None)
    assert pt.make_channel("pns", 0.25).p_multi == 0.25
    assert pt.make_channel("lossy", 0.5).loss == 0.5
    attack = atk.trivial_attack(six)
    assert pt.make_channel("attack-isometry", attack).attack is attack
    with pytest.raises(pt.ProtocolError):
        pt.run_bb84(None, None, six, rounds=0)


@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", b"0.2",
                                   bytearray(b"0.2")])
def test_probabilities_must_be_real_numbers(tmp_path, value):
    for kind in (pt.PNS, pt.LOSSY):
        with pytest.raises(pt.ProtocolError, match="must be a real number"):
            pt.make_channel(kind, value)
    log = write_log(tmp_path / "rounds.ndjson",
                    [{"alice_basis": "computational"}])
    with pytest.raises(pt.ProtocolError, match="test_fraction"):
        pt.sift_and_estimate(log, value)


@pytest.mark.parametrize("kind, payload", [(pt.PNS, {"p_multi": 0.1}),
                                           (pt.LOSSY, {"loss": 0.5})])
def test_a_probability_payload_is_a_bare_number(kind, payload):
    with pytest.raises(pt.ProtocolError, match="must be a real number"):
        pt.make_channel(kind, payload)


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float32(0.25),
                                   np.float64(0.75), np.int64(1)])
def test_python_and_numpy_reals_are_probabilities(value):
    assert pt.make_channel(pt.PNS, value).p_multi == float(value)
    assert pt.make_channel(pt.LOSSY, value).loss == float(value)


def test_identity_channel_has_zero_error_exactly(ideal):
    rep = pt.run_bb84(None, None, ideal, rounds=20000, seed=2)
    assert set(rep.per_basis) == {rc.COMPUTATIONAL, rc.HADAMARD}
    for st in rep.per_basis.values():
        assert st.errors == 0 and st.qber == 0.0
        assert st.detection_efficiency == 1.0
        assert st.lost == 0 and st.invalid == 0
        # accounting identity, exact in integers
        assert st.sifted + st.lost + st.invalid == st.rounds
    assert rep.qber_pooled == 0.0
    assert rep.invalid_rate == 0.0
    # an uninformed adversary hovers at a coin flip on sifted bits
    sig = binom_sigma(0.5, rep.sifted_total)
    assert abs(rep.eve_guess_accuracy - 0.5) < 4 * sig


def test_unattacked_two_window_efficiencies(two):
    rep = pt.run_bb84(None, None, two, rounds=200000, seed=4)
    comp = rep.per_basis[rc.COMPUTATIONAL]
    had = rep.per_basis[rc.HADAMARD]
    assert comp.qber == 0.0 and had.qber == 0.0
    assert abs(comp.detection_efficiency - 0.25) < \
        4 * binom_sigma(0.25, comp.rounds)
    assert abs(had.detection_efficiency - 0.5) < \
        4 * binom_sigma(0.5, had.rounds)


def test_faked_states_session_blinds_the_hadamard_basis(six):
    channel = pt.make_channel(pt.ATTACK, atk.faked_states_attack(six))
    rep = pt.run_bb84(None, channel, six, rounds=100000, seed=0)
    comp = rep.per_basis[rc.COMPUTATIONAL]
    had = rep.per_basis[rc.HADAMARD]
    # the conjugate basis is starved of detections, with no alarms raised
    assert had.sifted == 0 and had.detection_efficiency == 0.0
    assert had.invalid == 0 and comp.invalid == 0
    assert rep.qber_pooled == 0.0
    assert abs(comp.detection_efficiency - 0.5) < \
        4 * binom_sigma(0.5, comp.rounds)
    # every sifted bit is read off the probe without error
    assert rep.eve_guess_accuracy == 1.0
    assert comp.eve_accuracy == 1.0
    assert rep.attack_label == "faked-states-early-late"


def test_full_information_session_statistics(two):
    channel = pt.make_channel(pt.ATTACK, atk.full_information_attack(two))
    rep = pt.run_bb84(None, channel, two, rounds=200000, seed=8)
    comp = rep.per_basis[rc.COMPUTATIONAL]
    had = rep.per_basis[rc.HADAMARD]
    assert rep.qber_pooled == 0.0 and rep.invalid_rate == 0.0
    assert abs(comp.detection_efficiency - 0.125) < \
        4 * binom_sigma(0.125, comp.rounds)
    assert abs(had.detection_efficiency - 0.25) < \
        4 * binom_sigma(0.25, had.rounds)
    assert comp.eve_accuracy == 1.0
    assert had.eve_accuracy == 1.0


def test_copy_attack_monte_carlo_error_rates(ideal):
    channel = pt.make_channel(pt.ATTACK, atk.cnot_attack(ideal))
    rep = pt.run_bb84(None, channel, ideal, rounds=100000, seed=5)
    comp = rep.per_basis[rc.COMPUTATIONAL]
    had = rep.per_basis[rc.HADAMARD]
    assert comp.qber == 0.0
    assert abs(had.qber - 0.5) < 4 * binom_sigma(0.5, had.sifted)
    assert abs(rep.qber_pooled - 0.25) < \
        3 * binom_sigma(0.25, rep.sifted_total)
    # the copied bit is perfect in one basis, worthless in the other
    assert comp.eve_accuracy == 1.0
    assert abs(had.eve_accuracy - 0.5) < 4 * binom_sigma(0.5, had.sifted)


def test_one_sided_basis_guess_agrees_between_analysis_and_session(ideal):
    # |0> passes as H on probe axis 0; |1> is blocked to vacuum on axis 1,
    # so only bit 0 ever sifts in the computational basis
    system = atk.build_constraint_system(ideal)
    h_index = next(k for k, b in enumerate(system.p_basis)
                   if k != system.vacuum_index)
    coeff = np.zeros((2, system.n_basis, 2), dtype=complex)
    coeff[0, h_index, 0] = 1.0
    coeff[1, system.vacuum_index, 1] = 1.0
    attack = system.attack(coeff, "block-bit-1")
    cond = atk.eve_conditional_states(attack, system)
    assert atk.eve_guess_probability(cond, rc.COMPUTATIONAL) == 1.0
    assert atk.eve_guess_probability(cond, rc.HADAMARD) == pytest.approx(0.5)
    rep = pt.run_bb84(None, pt.make_channel(pt.ATTACK, attack), ideal,
                      rounds=20_000, seed=0)
    assert rep.per_basis[rc.COMPUTATIONAL].eve_accuracy == 1.0


@pytest.mark.parametrize("kind,variant", [
    (kind, None) for kind in rc.RECEIVER_KINDS
] + [("interferometric-2mode", "single-window")])
def test_session_scores_the_analysis_guess(kind, variant):
    receiver = rc.make_receiver(kind, variant)
    system = atk.build_constraint_system(receiver)
    attack = atk.synthesize_attacks(system).canonical
    cond = atk.eve_conditional_states(attack, system)
    rep = pt.run_bb84(None, pt.make_channel(pt.ATTACK, attack), receiver,
                      rounds=20_000, seed=1)
    for basis in receiver.source.bases:
        accuracy = rep.per_basis[basis].eve_accuracy
        if atk.eve_guess(cond, basis) is None:
            assert accuracy is None
            continue
        p = atk.eve_guess_probability(cond, basis)
        sifted = rep.per_basis[basis].sifted
        assert abs(accuracy - p) <= 4 * binom_sigma(p, sifted) + 1e-9


def test_pns_channel_reveals_multi_photon_rounds(ideal):
    rep = pt.run_bb84(None, pt.make_channel("pns", 0.1), ideal,
                      rounds=1000000, seed=0)
    # kept copies are read perfectly after the bases are announced:
    # accuracy = p_multi + (1 - p_multi)/2
    expected = 0.55
    sig = binom_sigma(expected, rep.sifted_total)
    assert abs(rep.eve_guess_accuracy - expected) < 4 * sig
    assert rep.qber_pooled == 0.0
    for st in rep.per_basis.values():
        assert st.detection_efficiency == 1.0


def test_lossy_channel_accounting(six):
    rep = pt.run_bb84(None, pt.make_channel("lossy", 0.3), six,
                      rounds=50000, seed=9)
    for st in rep.per_basis.values():
        assert st.sifted + st.lost + st.invalid == st.rounds
        # bare interferometer registers half; erasures thin that to 0.35
        assert abs(st.detection_efficiency - 0.35) < \
            4 * binom_sigma(0.35, st.rounds)
        assert st.qber == 0.0


def test_deterministic_replay(tmp_path, two):
    channel = pt.make_channel(pt.ATTACK, atk.full_information_attack(two))
    paths = [tmp_path / f"log{i}.ndjson" for i in range(3)]
    rep_a = pt.run_bb84(None, channel, two, rounds=4000, seed=17,
                        log_path=paths[0])
    rep_b = pt.run_bb84(None, channel, two, rounds=4000, seed=17,
                        log_path=paths[1])
    rep_c = pt.run_bb84(None, channel, two, rounds=4000, seed=18,
                        log_path=paths[2])
    assert rep_a.to_json_dict() == rep_b.to_json_dict()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_round_log_matches_inline_aggregation(tmp_path, two):
    channel = pt.make_channel(pt.ATTACK, atk.full_information_attack(two))
    path = tmp_path / "session.ndjson"
    inline = pt.run_bb84(None, channel, two, rounds=20000, seed=3,
                         log_path=path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == pt.ROUND_LOG_SCHEMA
    assert header["rounds"] == 20000 and len(lines) == 20001
    row = json.loads(lines[1])
    assert set(row) == {"round", "alice_basis", "alice_bit", "bob_setting",
                        "outcome_id", "interpretation", "eve_guess"}
    # the full-sample offline estimator reproduces the report verbatim
    offline = pt.sift_and_estimate(path, test_fraction=1.0)
    assert offline.to_json_dict() == inline.to_json_dict()


def test_a_shared_basis_without_a_matched_round_is_absent_offline(
        tmp_path, ideal):
    # one round matches only the computational basis; the inline report
    # lists hadamard with zero rounds, and the log cannot name it
    path = tmp_path / "one.ndjson"
    inline = pt.run_bb84(None, None, ideal, 1, seed=0,
                         log_path=path).to_json_dict()
    offline = pt.sift_and_estimate(path, 1.0).to_json_dict()
    empty = inline["per_basis"].pop("hadamard")
    assert empty["rounds"] == 0
    assert offline == inline


def test_an_empty_test_subsample_falls_back_to_every_sifted_bit(
        tmp_path, ideal):
    channel = pt.make_channel(pt.ATTACK, atk.cnot_attack(ideal))
    path = tmp_path / "session.ndjson"
    inline = pt.run_bb84(None, channel, ideal, rounds=3000, seed=0,
                         log_path=path)
    offline = pt.sift_and_estimate(path, test_fraction=0.0)
    assert offline.test_fraction == 0.0
    assert offline.qber_pooled == inline.qber_pooled
    for basis, stats in inline.per_basis.items():
        assert stats.sifted > 0
        assert offline.per_basis[basis].qber == stats.qber
    assert offline.to_json_dict() == dict(inline.to_json_dict(),
                                          test_fraction=0.0)


def test_a_log_of_no_rounds_is_empty(tmp_path):
    path = write_log(tmp_path / "rounds.ndjson", [dict(HEADER, rounds=0)])
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == "empty round log"


def test_sift_subsample_estimates_injected_error(tmp_path):
    n = 1000000
    rng = np.random.Generator(np.random.Philox(7))
    bits = rng.integers(0, 2, n)
    flip = rng.random(n) < 0.05
    seen = np.where(flip, 1 - bits, bits)
    # the line of (alice_bit, interpretation bit, round) as run_bb84
    # writes it
    line = ('{"alice_basis":"computational","alice_bit":%d,'
            '"bob_setting":"computational","eve_guess":0,'
            '"interpretation":"bit%d","outcome_id":"d0","round":%d}\n')
    log = tmp_path / "rounds.ndjson"
    try:
        with open(log, "w", encoding="utf-8") as fh:
            fh.write(pt._dump(dict(HEADER, rounds=n)) + "\n")
            for lo in range(0, n, 100_000):
                rows = zip(bits[lo:lo + 100_000].tolist(),
                           seen[lo:lo + 100_000].tolist(),
                           range(lo, lo + 100_000))
                fh.writelines(line % row for row in rows)
        rep = pt.sift_and_estimate(log, test_fraction=0.5, seed=11)
    finally:
        log.unlink()
    assert rep.test_fraction == 0.5
    # the test pool holds about half the sifted bits
    assert abs(rep.qber_pooled - 0.05) < 3 * binom_sigma(0.05, n // 2)
    assert rep.sifted_total == n
    assert rep.per_basis[rc.COMPUTATIONAL].errors == int(flip.sum())


def test_sift_rejects_bad_logs(tmp_path):
    def sift(records):
        return pt.sift_and_estimate(write_log(tmp_path / "rounds.ndjson",
                                              records))

    with pytest.raises(pt.ProtocolError):
        sift([])
    with pytest.raises(pt.ProtocolError):
        sift([{"schema": pt.ROUND_LOG_SCHEMA, "rounds": 1}])
    with pytest.raises(pt.ProtocolError):
        sift([dict(ROUND, interpretation="click")])
    with pytest.raises(pt.ProtocolError):
        sift([{k: v for k, v in ROUND.items() if k != "alice_bit"}])
    header = dict(HEADER, rounds=5)
    with pytest.raises(pt.ProtocolError, match="header promises 5 rounds"):
        sift([header, ROUND])
    with pytest.raises(pt.ProtocolError):
        sift([dict(header, schema="round-log/9"), ROUND])


HEADER = {"schema": pt.ROUND_LOG_SCHEMA, "receiver": "ideal-bb84",
          "channel": "identity", "attack_label": None, "rounds": 1,
          "rng_seed": 0}


def without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def put(key, value):
    return lambda header: dict(header, **{key: value})


@pytest.mark.parametrize("edit,message", [
    (without("receiver"), "header lacks fields ['receiver']"),
    (lambda h: {"schema": h["schema"], "rounds": 1},
     "header lacks fields ['channel', 'receiver', 'rng_seed']"),
    (put("extra", [1]), "header has unknown keys ['extra']"),
    (put("rng_seed", "x"), "header rng_seed must be an integer, got 'x'"),
    (put("rng_seed", True), "header rng_seed must be an integer, got True"),
    (put("rng_seed", 1.0), "header rng_seed must be an integer, got 1.0"),
    (put("rounds", -1), "header rounds must be an integer >= 0, got -1"),
    (put("rounds", False),
     "header rounds must be an integer >= 0, got False"),
    (put("rounds", None), "header rounds must be an integer >= 0, got None"),
    (put("receiver", 6), "header receiver must be a string, got 6"),
    (put("channel", "unknown"),
     "header channel must be one of ('identity', 'attack-isometry', 'pns', "
     "'lossy'), got 'unknown'"),
    (put("channel", ["pns"]),
     "header channel must be one of ('identity', 'attack-isometry', 'pns', "
     "'lossy'), got ['pns']"),
    (put("attack_label", 3),
     "header attack_label must be a string or null, got 3"),
])
def test_a_header_must_match_the_schemas_header_record(tmp_path, edit,
                                                       message):
    # line 1 is the header; a log that starts with a round line has none
    for records, error in (([edit(HEADER), ROUND], message),
                           ([ROUND, edit(HEADER)], NO_HEADER)):
        path = write_log(tmp_path / "rounds.ndjson", records)
        with pytest.raises(pt.ProtocolError) as raised:
            pt.sift_and_estimate(path)
        assert str(raised.value) == f"line 1: {error}"


NO_HEADER = "a round log starts with its header record"
# what a header record is, read where a round record must stand
HEADER_AS_ROUND = ("round record has unknown keys ['attack_label', "
                   "'channel', 'receiver', 'rng_seed', 'rounds', 'schema']")


@pytest.mark.parametrize("records,error", [
    ([ROUND], f"line 1: {NO_HEADER}"),
    ([dict(HEADER, rounds=2), ROUND, dict(HEADER, rng_seed=7), ROUND],
     f"line 3: {HEADER_AS_ROUND}"),
    ([dict(HEADER, rounds=2), dict(HEADER, rounds=2), ROUND, ROUND],
     f"line 2: {HEADER_AS_ROUND}"),
    ([ROUND, ROUND, dict(HEADER, rounds=2)], f"line 1: {NO_HEADER}"),
    ([[1, 2], ROUND], f"line 1: {NO_HEADER}"),
], ids=["headerless", "second-header", "header-on-line-2",
        "header-on-line-3", "array-on-line-1"])
def test_the_header_stands_on_line_1_only(tmp_path, records, error):
    path = write_log(tmp_path / "rounds.ndjson", records)
    with pytest.raises(pt.ProtocolError) as raised:
        pt.sift_and_estimate(path)
    assert str(raised.value) == error


@pytest.mark.parametrize("first", ["", "\n", "  \n"])
def test_line_1_is_not_skipped_when_blank(tmp_path, first):
    # "" is an empty file
    path = tmp_path / "rounds.ndjson"
    path.write_text(first and first + "".join(
        pt._dump(record) + "\n" for record in (HEADER, ROUND)))
    with pytest.raises(pt.ProtocolError,
                       match="^line 1: not valid JSON"):
        pt.sift_and_estimate(path)


def test_the_header_may_be_any_serialization(tmp_path):
    path = tmp_path / "rounds.ndjson"
    path.write_text(json.dumps(HEADER, indent=None, separators=(", ", ": "))
                    + "\n\n" + pt._dump(ROUND) + "\n")
    report = pt.sift_and_estimate(path)
    assert (report.receiver, report.rng_seed, report.rounds) == \
        ("ideal-bb84", 0, 1)


def test_a_header_that_matches_the_schema_is_read(tmp_path):
    for header in (HEADER, put("attack_label", "faked-states")(HEADER),
                   without("attack_label")(HEADER),
                   put("rng_seed", -4)(HEADER)):
        report = pt.sift_and_estimate(
            write_log(tmp_path / "rounds.ndjson", [header, ROUND]))
        assert (report.receiver, report.channel, report.rng_seed,
                report.attack_label) == (
            "ideal-bb84", "identity", header["rng_seed"],
            header.get("attack_label"))


def test_sift_takes_a_path_only():
    with pytest.raises(TypeError):
        pt.sift_and_estimate([ROUND], test_fraction=1.0)


def test_report_validate_rejects_a_bad_rate_and_unaccounted_rounds(six):
    rep = pt.run_bb84(None, pt.make_channel("lossy", 0.2), six,
                      rounds=2000, seed=1)
    rep.validate()
    stats = rep.per_basis[rc.COMPUTATIONAL]
    for bad, message in (
            (dataclasses.replace(stats, qber=1.5), r"rate 1\.5 outside"),
            (dataclasses.replace(stats, lost=stats.lost + 1),
             "not fully accounted")):
        tampered = dataclasses.replace(
            rep, per_basis=dict(rep.per_basis, **{rc.COMPUTATIONAL: bad}))
        with pytest.raises(pt.ProtocolError, match=message):
            tampered.validate()


def test_the_report_schema_is_a_class_constant(six):
    rep = pt.run_bb84(None, None, six, rounds=20, seed=1)
    assert "schema" not in {f.name for f in dataclasses.fields(rep)}
    with pytest.raises(TypeError):
        dataclasses.replace(rep, schema="simulation-report/0")
    data = rep.to_json_dict()
    assert data["schema"] == pt.REPORT_SCHEMA
    assert sorted(data) == sorted(
        [f.name for f in dataclasses.fields(rep)] + ["schema"])


def test_attack_channel_requires_compatible_receiver(six, ideal):
    polarization_attack = atk.cnot_attack(ideal)
    channel = pt.make_channel(pt.ATTACK, polarization_attack)
    with pytest.raises(atk.AttackError):
        pt.run_bb84(None, channel, six, rounds=10, seed=0)


def test_attack_channel_rejects_source_labels_the_system_lacks(six):
    # the single-window source also sends y-basis states, which the
    # six-mode receiver's paired source does not embed
    source = rc.make_receiver("interferometric-2mode", "single-window").source
    channel = pt.make_channel(pt.ATTACK, atk.faked_states_attack(six))
    with pytest.raises(pt.ProtocolError,
                       match=r"labels \[\('y', 0\), \('y', 1\)\] have no "
                             r"logical embedding"):
        pt.run_bb84(source, channel, six, rounds=10, seed=0)


def test_an_attack_session_reads_the_system_its_attack_was_built_on(
        six, ideal):
    system = atk.build_constraint_system(six)
    channel = pt.make_channel(pt.ATTACK,
                              atk.faked_states_attack(six, system=system))
    report = pt.run_bb84(None, channel, six, rounds=2000, seed=3,
                         system=system)
    assert report.to_json_dict() == pt.run_bb84(
        None, channel, six, rounds=2000, seed=3).to_json_dict()
    # a system of an equal receiver is built on an equal reversed space
    twin = rc.make_receiver("interferometric-6mode")
    assert pt.run_bb84(None, channel, twin, rounds=2000, seed=3,
                       system=system).to_json_dict() == report.to_json_dict()
    for other in (atk.build_constraint_system(ideal),
                  dataclasses.replace(system, p_basis=system.p_basis[:-1]),
                  dataclasses.replace(system, p_basis=system.p_basis[::-1])):
        with pytest.raises(pt.ProtocolError,
                           match="is not built on the reversed space of "
                                 "'interferometric-6mode'"):
            pt.run_bb84(None, channel, six, rounds=10, seed=0, system=other)
    with pytest.raises(pt.ProtocolError,
                       match="goes with an attack channel only"):
        pt.run_bb84(None, pt.make_channel(pt.IDENTITY), six, rounds=10,
                    seed=0, system=system)


def test_passive_receiver_session(six):
    blinded = rc.make_receiver("blinded-bright")
    channel = pt.make_channel(pt.ATTACK, atk.trivial_attack(blinded))
    rep = pt.run_bb84(None, channel, blinded, rounds=20000, seed=6)
    assert set(rep.per_basis) == {rc.COMPUTATIONAL, rc.HADAMARD}
    assert rep.qber_pooled == 0.0
    assert rep.invalid_rate == 0.0
    # a pass-through probe carries no signal correlation
    sig = binom_sigma(0.5, rep.sifted_total)
    assert abs(rep.eve_guess_accuracy - 0.5) < 4 * sig


def test_single_window_variant_session():
    receiver = rc.make_receiver("interferometric-2mode",
                                variant="single-window")
    rep = pt.run_bb84(None, None, receiver, rounds=40000, seed=12)
    assert set(rep.per_basis) == {rc.HADAMARD, rc.Y_BASIS}
    for st in rep.per_basis.values():
        assert st.qber == 0.0
        assert abs(st.detection_efficiency - 0.5) < \
            4 * binom_sigma(0.5, st.rounds)
