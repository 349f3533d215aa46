"""session-stream: BB84 Monte-Carlo sessions, inline and through round logs.

Only ``protocol`` works here.  Inline sessions of 2e6 rounds exercise the
random draws, the outcome sampling and peak memory.  Logged sessions of
2e5 rounds write a round log and ``sift_and_estimate`` reads it back, so a
change that speeds up writing at the cost of reading shows on the same
workload.
"""

import os

import qkdlab.attacks as atk
import qkdlab.protocol as proto
import qkdlab.receivers as rc

INLINE_ROUNDS = 2_000_000
LOGGED_ROUNDS = 200_000
TINY_ROUNDS = 20_000
FIXED_COST_CALLS = 3


def channels():
    """(name, receiver, channel) for the four channels the workload cycles."""
    six = rc.make_receiver("interferometric-6mode")
    return [
        ("faked-states", six,
         proto.make_channel(proto.ATTACK, atk.faked_states_attack(six))),
        ("pns", rc.make_receiver("ideal-bb84"),
         proto.make_channel(proto.PNS, 0.1)),
        ("lossy", rc.make_receiver("polarization-threshold"),
         proto.make_channel(proto.LOSSY, 0.3)),
        ("identity", rc.make_receiver("interferometric-defended-10mode"),
         proto.make_channel(proto.IDENTITY)),
    ]


class Workload:
    def __init__(self, seed, expect, tiny, workdir, root):
        self.expect = expect
        self.seed = seed
        self.sessions = 0
        self.inline_rounds = TINY_ROUNDS if tiny else INLINE_ROUNDS
        self.logged_rounds = TINY_ROUNDS // 10 if tiny else LOGGED_ROUNDS
        self.channels = channels()
        self.log_path = os.path.join(workdir, "rounds.ndjson")
        for _, receiver, channel in self.channels:
            proto.run_bb84(None, channel, receiver, rounds=1000, seed=seed)

    def next_seed(self):
        self.sessions += 1
        return self.seed * 1_000_003 + self.sessions

    def check(self, name, rounds):
        def check_report(report):
            data = report.to_json_dict()
            if data["rounds"] != rounds:
                return f"{name}: report covers {data['rounds']} rounds"
            if name == "faked-states":
                want = self.expect["faked_states_qber"]
                if data["qber_pooled"] != want or \
                        data["eve_guess_accuracy"] != 1.0:
                    return (f"faked-states session: QBER "
                            f"{data['qber_pooled']}, Eve accuracy "
                            f"{data['eve_guess_accuracy']}")
            return None
        return check_report

    def run_pass(self, rec, tracer, pass_index):
        for name, receiver, channel in self.channels:
            seed = self.next_seed()

            def inline():
                with tracer.span("protocol.run_bb84"):
                    return proto.run_bb84(None, channel, receiver,
                                          rounds=self.inline_rounds, seed=seed)

            rec.attempt(f"inline/{name}", inline,
                        self.check(name, self.inline_rounds))
            tracer.count("protocol.run_bb84.rounds", self.inline_rounds)

        logged = self.channels[pass_index % len(self.channels)]
        name, receiver, channel = logged
        seed = self.next_seed()

        def write():
            with tracer.span("protocol.log_write"):
                return proto.run_bb84(None, channel, receiver,
                                      rounds=self.logged_rounds, seed=seed,
                                      log_path=self.log_path)

        written = rec.attempt("log-write", write,
                              self.check(name, self.logged_rounds))
        tracer.count("protocol.log_write.rounds", self.logged_rounds)
        if written is not None:
            tracer.count("protocol.log_bytes", os.path.getsize(self.log_path))

            def read():
                with tracer.span("protocol.sift_and_estimate"):
                    return proto.sift_and_estimate(self.log_path,
                                                   test_fraction=1.0)

            def same_as_inline(report):
                if report.to_json_dict() != written.to_json_dict():
                    return f"{name}: sift_and_estimate(test_fraction=1.0) " \
                           f"differs from the inline report"
                return None

            rec.attempt("log-read", read, same_as_inline)
            tracer.count("protocol.sift_and_estimate.rounds",
                         self.logged_rounds)
            os.remove(self.log_path)

        if tracer.enabled:
            for _ in range(FIXED_COST_CALLS):
                with tracer.span("protocol.run_bb84.fixed"):
                    proto.run_bb84(None, channel, receiver, rounds=1,
                                   seed=self.next_seed())

    def named(self, rec):
        inline = rec.pooled(f"inline/{name}" for name, _, _ in self.channels)
        return {
            "session_rounds_per_s":
                (self.inline_rounds / rec.median_of(inline), "rounds/s"),
            "log_write_rounds_per_s":
                (self.logged_rounds / rec.median("log-write"), "rounds/s"),
            "log_read_rounds_per_s":
                (self.logged_rounds / rec.median("log-read"), "rounds/s"),
        }

    def layers(self, tracer, passes):
        def per_round(span, rounds_counter):
            return tracer.busy(span) * 1e6 / max(tracer.counts[rounds_counter],
                                                 1)
        fixed = sorted(tracer.self_times("protocol.run_bb84.fixed"))
        written = tracer.counts["protocol.log_write.rounds"]
        return {
            "protocol.run_bb84.us_per_round":
                per_round("protocol.run_bb84", "protocol.run_bb84.rounds"),
            "protocol.run_bb84.fixed_ms":
                fixed[len(fixed) // 2] * 1e3 if fixed else 0.0,
            "protocol.log_write.us_per_round":
                per_round("protocol.log_write", "protocol.log_write.rounds"),
            "protocol.log_bytes_per_round":
                tracer.counts["protocol.log_bytes"] / max(written, 1),
            "protocol.sift_and_estimate.us_per_round":
                per_round("protocol.sift_and_estimate",
                          "protocol.sift_and_estimate.rounds"),
        }

    def close(self):
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
