"""Attack-class assignment and registry taxonomy tests."""

import itertools
import json

import pytest

from qkdlab import attacks as atk
from qkdlab import classify as cl
from qkdlab import receivers as rc


def test_footprint_vocabulary_is_enforced():
    with pytest.raises(cl.ClassifyError):
        cl.footprint({"wiretap"}, ())
    with pytest.raises(cl.ClassifyError):
        cl.footprint((), {"protocol-input"})  # read token on write side
    fp = cl.footprint([cl.PROTOCOL_INPUT, cl.PROTOCOL_INPUT],
                      [cl.PROTOCOL_OUTPUT])
    assert fp.reads == {cl.PROTOCOL_INPUT}
    assert isinstance(fp.writes, frozenset)


def test_classify_core_cases():
    # consumes sent states, emits into the measured span + ancilla
    assert cl.classify(cl.footprint(
        {cl.PROTOCOL_INPUT},
        {cl.PROTOCOL_OUTPUT, cl.EVE_ANCILLA_OUT})) == cl.STATE_CHANNEL
    # reading the environment while using the channel: side channel
    assert cl.classify(cl.footprint(
        {cl.PROTOCOL_INPUT, cl.ENVIRONMENT},
        {cl.PROTOCOL_OUTPUT})) == cl.SIDE_CHANNEL
    # writing beyond the measured span: side channel
    assert cl.classify(cl.footprint(
        {cl.PROTOCOL_INPUT},
        {cl.EXTENDED_OUTPUT})) == cl.SIDE_CHANNEL
    # pure out-of-band spying: neither
    assert cl.classify(cl.footprint({cl.ENVIRONMENT}, ())) == cl.NEITHER
    assert cl.classify(cl.footprint((), ())) == cl.NEITHER


def test_unobservable_environment_write_is_the_trivial_case():
    base = dict(reads={cl.PROTOCOL_INPUT},
                writes={cl.PROTOCOL_OUTPUT, cl.ENVIRONMENT})
    leaky = cl.footprint(**base)
    assert cl.classify(leaky) == cl.SIDE_CHANNEL
    harmless = cl.footprint(**base, env_write_is_side_effect_only=True)
    assert cl.classify(harmless) == cl.TRIVIAL_SIDE_CHANNEL
    # the flag only matters when the environment write is the sole
    # side condition
    still_side = cl.footprint({cl.PROTOCOL_INPUT, cl.EXTENDED_INPUT},
                              {cl.ENVIRONMENT},
                              env_write_is_side_effect_only=True)
    assert cl.classify(still_side) == cl.SIDE_CHANNEL


def test_classification_is_total_and_dichotomous():
    # exhaust the whole footprint space: every footprint gets exactly
    # one class, and no quantum-interface footprint satisfies the side
    # and state conditions at once
    reads_pool = sorted(cl.READ_VOCABULARY)
    writes_pool = sorted(cl.WRITE_VOCABULARY)
    count = 0
    for r_bits in range(2 ** len(reads_pool)):
        reads = {s for i, s in enumerate(reads_pool) if r_bits >> i & 1}
        for w_bits in range(2 ** len(writes_pool)):
            writes = {s for i, s in enumerate(writes_pool) if w_bits >> i & 1}
            for flag in (False, True):
                fp = cl.footprint(reads, writes, flag)
                verdict = cl.classify(fp)
                assert verdict in cl.CLASSES
                is_side = bool(reads & {cl.EXTENDED_INPUT, cl.ENVIRONMENT}
                               or writes & {cl.EXTENDED_OUTPUT,
                                            cl.ENVIRONMENT})
                is_state = (reads <= {cl.PROTOCOL_INPUT, cl.EVE_ANCILLA_IN}
                            and writes <= {cl.PROTOCOL_OUTPUT,
                                           cl.EVE_ANCILLA_OUT})
                assert not (is_side and is_state)
                if verdict == cl.STATE_CHANNEL:
                    assert is_state and not is_side
                if verdict in (cl.SIDE_CHANNEL, cl.TRIVIAL_SIDE_CHANNEL):
                    assert is_side and fp.uses_quantum_interface()
                count += 1
    assert count == 512


def test_registry_is_complete_and_consistent():
    records = cl.registry()
    assert len(records) >= 8
    names = {r.name for r in records}
    assert {"photon-number-splitting", "large-pulse-alice",
            "large-pulse-bob", "injection-locking", "time-shift",
            "trojan-pony", "imperfect-faraday-mirror",
            "bright-illumination", "fixed-apparatus",
            "detector-efficiency-mismatch", "camera-in-lab"} <= names
    for record in records:
        assert cl.classify(record.footprint) == record.expected_class


def test_registry_expected_classes():
    by_name = {r.name: r for r in cl.registry()}
    for name in ("photon-number-splitting", "time-shift", "trojan-pony",
                 "imperfect-faraday-mirror", "fixed-apparatus",
                 "detector-efficiency-mismatch"):
        assert by_name[name].expected_class == cl.STATE_CHANNEL, name
    for name in ("large-pulse-alice", "large-pulse-bob",
                 "injection-locking", "bright-illumination"):
        assert by_name[name].expected_class == cl.SIDE_CHANNEL, name
    assert by_name["camera-in-lab"].expected_class == cl.NEITHER


def test_family_membership_structure():
    by_name = {r.name: r for r in cl.registry()}
    # forcing-based membership implies the broader measured-span family
    for record in cl.registry():
        if cl.FAKED_STATES in record.tags:
            assert cl.REVERSED_SPACE in record.tags, record.name
        if cl.DETECTOR_EFFICIENCY_MISMATCH in record.tags:
            assert cl.FAKED_STATES in record.tags, record.name
    ts = by_name["time-shift"]
    assert cl.REVERSED_SPACE in ts.tags and cl.FAKED_STATES not in ts.tags
    assert cl.REVERSED_SPACE not in by_name["large-pulse-bob"].tags
    bright = by_name["bright-illumination"]
    assert {cl.REVERSED_SPACE, cl.BRIGHT_ILLUMINATION} <= bright.tags
    assert bright.expected_class == cl.SIDE_CHANNEL
    assert (cl.DETECTOR_EFFICIENCY_MISMATCH, cl.FAKED_STATES) \
        in cl.FAMILY_EDGES
    assert (cl.FAKED_STATES, cl.REVERSED_SPACE) in cl.FAMILY_EDGES


def test_record_validation_rejects_inconsistencies():
    good = cl.footprint({cl.PROTOCOL_INPUT}, {cl.PROTOCOL_OUTPUT})
    with pytest.raises(cl.ClassifyError):
        cl.AttackRecord("x", good, frozenset({"novel-family"}),
                        cl.STATE_CHANNEL, "")
    with pytest.raises(cl.ClassifyError):
        cl.AttackRecord("x", good, frozenset(), cl.SIDE_CHANNEL, "")
    with pytest.raises(cl.ClassifyError):
        # forcing family without the broader membership
        cl.AttackRecord("x", good, frozenset({cl.FAKED_STATES}),
                        cl.STATE_CHANNEL, "")


def test_synthesized_attacks_classify_as_state_channels():
    receiver = rc.make_receiver("interferometric-6mode")
    attack = atk.faked_states_attack(receiver)
    assert attack.eve_dim > 1
    fp = cl.footprint_of_attack(attack)
    assert cl.classify(fp) == cl.STATE_CHANNEL
    assert fp.reads == {cl.PROTOCOL_INPUT, cl.EVE_ANCILLA_IN}
    assert fp.writes == {cl.PROTOCOL_OUTPUT, cl.EVE_ANCILLA_OUT}

    trivial = atk.trivial_attack(rc.make_receiver("ideal-bb84"))
    fp1 = cl.footprint_of_attack(trivial)
    assert cl.classify(fp1) == cl.STATE_CHANNEL
    assert fp1.reads == {cl.PROTOCOL_INPUT}
    assert fp1.writes == {cl.PROTOCOL_OUTPUT}


def test_registry_exports():
    data = cl.registry_to_json_dict()
    assert data["schema"] == "attack-registry/1"
    assert len(data["records"]) == len(cl.registry())
    assert ["faked-states", "reversed-space"] in data["family_edges"]
    # a JSON document that survives a round trip
    assert json.loads(json.dumps(data, sort_keys=True)) == data

    dot = cl.registry_to_dot()
    assert dot.startswith("digraph")
    assert '"detector-efficiency-mismatch" -> "faked-states";' in dot
    assert '"faked-states" -> "reversed-space";' in dot
    assert '"time-shift" -> "reversed-space";' in dot
    # memberships implied by family edges are not duplicated as edges
    assert '"detector-efficiency-mismatch" [shape=box];' in dot
    assert dot.count('"trojan-pony" ->') == 1
