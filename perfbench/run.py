#!/usr/bin/env python3
"""qkdlab benchmark: four closed-loop workloads with one caller each.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is fock-roundtrip, receiver-audit, session-stream, cli-scenarios,
or ``all``, which runs each of them in its own process, one after another.
A run repeats passes over the workload's operations for S seconds, checks
every output against perfbench/expected.py, prints its figures by name with
units, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, taken from spans around the
benchmark's calls into each qkdlab layer.  perfbench/README.md explains
the workloads and every metric.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = {
    "fock-roundtrip": "fock_roundtrip",
    "receiver-audit": "receiver_audit",
    "session-stream": "session_stream",
    "cli-scenarios": "cli_scenarios",
}
SETUP_REPEATS = 5

END_TO_END = (("pass_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("fockspace.mz_transform.busy_s", "s"),
    ("fockspace.mz_transform.calls", "count"),
    ("fockspace.mz_reverse.busy_s", "s"),
    ("fockspace.mz_reverse.calls", "count"),
    ("fockspace.components_out", "count"),
    ("receivers.make_receiver.busy_s", "s"),
    ("receivers.reversed_space.busy_s", "s"),
    ("receivers.reversed_space.dim_sum", "count"),
    ("attacks.build_constraint_system.busy_s", "s"),
    ("attacks.synthesize_attacks.busy_s", "s"),
    ("attacks.sample.busy_s", "s"),
    ("attacks.sample.calls", "count"),
    ("attacks.verify_oblivious.busy_s", "s"),
    ("attacks.eve_guess.busy_s", "s"),
    ("attacks.oblivious_ratio", "ratio"),
    ("fuzz.run_fuzz_campaign.busy_s", "s"),
    ("fuzz.probes", "count"),
    ("fuzz.us_per_probe", "us"),
    ("fuzz.anomaly_ratio", "ratio"),
    ("protocol.run_bb84.us_per_round", "us"),
    ("protocol.run_bb84.fixed_ms", "ms"),
    ("protocol.log_write.us_per_round", "us"),
    ("protocol.log_bytes_per_round", "B"),
    ("protocol.sift_and_estimate.us_per_round", "us"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.handler_ms.classify", "ms"),
    ("cli.handler_ms.fuzz", "ms"),
    ("cli.handler_ms.report", "ms"),
    ("cli.handler_ms.reverse-space", "ms"),
    ("cli.handler_ms.simulate", "ms"),
    ("cli.handler_ms.synth", "ms"),
    ("cli.handler_ms.verify", "ms"),
    ("trace.overhead_pct", "%"),
)


# The calibration loop's time on the reference machine: a 2-vCPU 2.1 GHz
# cloud VM running Python 3.11.7 and numpy 2.4.6.
CALIBRATION_REF_S = 0.0045


def calibration_seconds():
    """Time a fixed mix of dict/tuple work and numpy streaming.

    The machine's speed drifts by up to 1.7x over seconds and minutes, with
    CPU time equal to wall time.  Timing this loop on both sides of each
    operation and scaling the operation by ``CALIBRATION_REF_S`` over the
    mean of the two reports it at reference speed, which removes most of
    that drift; see README.md.
    """
    start = perf_counter()
    table = {}
    for i in range(8000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 0.5
    values = np.arange(200_000, dtype=float)
    float((values * values).sum())
    return perf_counter() - start


class Recorder:
    """Latencies per operation kind, plus attempted, failed and wrong counts.

    An operation that raises has failed.  One whose output fails its check
    has failed and is wrong, which makes the run incorrect; so does a raise
    that is not a known defect.  Failed operations add no latency.  Each
    latency is kept as measured (``raw``) and at reference speed (``times``).
    """

    def __init__(self):
        self.times = {}
        self.raw = {}
        self.speed = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = {}

    def attempt(self, kind, work, check, known=None):
        self.attempted += 1
        before = calibration_seconds()
        start = perf_counter()
        try:
            result = work()
        except Exception as err:  # counted and reported, the run goes on
            self._fail(kind, f"{type(err).__name__}: {err}", known)
            return None
        elapsed = perf_counter() - start
        # calibrating on both sides follows drift during long operations
        speed = 2 * CALIBRATION_REF_S / (before + calibration_seconds())
        problem = check(result)
        if problem:
            self._fail(kind, problem, None)
            return None
        self.times.setdefault(kind, []).append(elapsed * speed)
        self.raw.setdefault(kind, []).append(elapsed)
        self.speed.append(speed)
        return result

    def _fail(self, kind, message, known):
        self.failed += 1
        if known is None:
            self.incorrect += 1
        else:
            message = f"{message} [known defect: {known}]"
        count, first = self.failures.get(kind, (0, message))
        self.failures[kind] = (count + 1, first)

    def merge(self, other):
        for mine, theirs in ((self.times, other.times), (self.raw, other.raw)):
            for kind, values in theirs.items():
                mine.setdefault(kind, []).extend(values)
        self.speed += other.speed
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect
        for kind, (n, message) in other.failures.items():
            count, first = self.failures.get(kind, (0, message))
            self.failures[kind] = (count + n, first)

    def pooled(self, kinds):
        return [t for kind in kinds for t in self.times.get(kind, ())]

    def median(self, kind):
        return self.median_of(self.times.get(kind, ()))

    @staticmethod
    def median_of(values):
        return statistics.median(values) if values else float("nan")

    @staticmethod
    def tail(values, scale, unit):
        """The highest percentile with at least ten samples beyond it, as a
        printed figure (value, unit, which percentile of how many)."""
        rank = len(values) - 10
        if rank < 1:
            return None, unit, f"n={len(values)}: too few samples"
        return (sorted(values)[rank - 1] * scale, unit,
                f"p{100.0 * rank / len(values):.1f} of n={len(values)}")

    def pass_seconds(self, raw=False):
        """Sum over operation kinds of each kind's median: the typical time
        of one pass over the workload's operations."""
        times = self.raw if raw else self.times
        return sum(statistics.median(v) for v in times.values())


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_workload(name, seed, wrong_verdict, tiny, workdir):
    from expected import expectations
    module = importlib.import_module(WORKLOADS[name])
    return module.Workload(seed, expectations(wrong_verdict), tiny, workdir,
                           ROOT)


def own_argv(args, workload, trace, extra=()):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.wrong_verdict:
        argv.append("--wrong-verdict")
    return argv + list(extra)


def measure_setup(args):
    """Median time, at reference speed, of fresh processes that import the
    workload's layers and build its fixtures."""
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        before = calibration_seconds()
        start = perf_counter()
        subprocess.run(own_argv(args, args.workload, 0, ["--setup-only"]),
                       check=True, timeout=170)
        elapsed = perf_counter() - start
        speed = 2 * CALIBRATION_REF_S / (before + calibration_seconds())
        times.append(elapsed * speed)
    return statistics.median(times)


def run_one(args):
    from spans import NullTracer, Tracer

    setup_s = None if args.trace or args.setup_only else measure_setup(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, args.wrong_verdict,
                                 args.tiny, workdir)
        if args.setup_only:
            workload.close()
            return 0
        tracer = Tracer()
        untraced = NullTracer()
        recorders = {True: Recorder(), False: Recorder()}
        min_passes = 2 if args.trace else 1
        start = perf_counter()
        index = 0
        last = 0.0
        # a pass starts only if one as long as the last still fits
        while index < min_passes or \
                perf_counter() - start + last <= args.seconds:
            began = perf_counter()
            # traced runs alternate traced and untraced passes, so the
            # difference between the two is the tracing overhead
            traced = bool(args.trace) and index % 2 == 0
            active = tracer if traced else untraced
            tracer.current_pass = index
            workload.run_pass(recorders[traced], active, index)
            index += 1
            last = perf_counter() - began
        problem = workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec = Recorder()
    rec.merge(recorders[False])
    rec.merge(recorders[True])
    if problem:
        rec.incorrect += 1
        rec.failures["run"] = (1, problem)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {index}  measured {perf_counter() - start:.1f} s  "
          f"machine speed {statistics.median(rec.speed or [1.0]):.3f} x "
          f"reference (times below are at reference speed)")

    if args.trace:
        metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        metrics.update(workload.layers(tracer, (index + 1) // 2))
        speed = statistics.median(recorders[True].speed or [1.0])
        for name, unit in PER_LAYER:
            if unit in ("s", "ms", "us"):
                metrics[name] *= speed
        on = recorders[True].pass_seconds()
        off = recorders[False].pass_seconds()
        metrics["trace.overhead_pct"] = 100.0 * (on - off) / off
        units = dict(PER_LAYER)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.ndjson")
    else:
        metrics = {"pass_ms": rec.pass_seconds() * 1e3,
                   "peak_rss_mb": peak_rss_mb(),
                   "setup_s": setup_s}
        units = dict(END_TO_END)
        named = workload.named(rec)
        named["setup_s"] = (setup_s, "s")
        if args.workload == "session-stream":
            named["session_peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
        named["failed_ops_ratio"] = (
            rec.failed / rec.attempted, "ratio",
            f"{rec.failed} failed of {rec.attempted} attempted")
        for name, (value, unit, *note) in named.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:28s} {shown:>12s} {unit:9s} {' '.join(note)}")
        print("named-metrics " + json.dumps(
            {name: {"value": value, "unit": unit}
             for name, (value, unit, *_) in named.items()}))

    for kind, values in rec.times.items():
        measured = statistics.median(rec.raw[kind])
        print(f"  op {kind:40s} median {statistics.median(values) * 1e3:10.3f}"
              f" ms  as measured {measured * 1e3:10.3f} ms  n={len(values)}")
    if rec.raw:
        print(f"  pass_ms as measured {rec.pass_seconds(raw=True) * 1e3:.6g}")
    for kind, (n, message) in sorted(rec.failures.items()):
        print(f"  FAILED x{n} {kind}, first: {message}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": rec.incorrect == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; prints the named metrics."""
    named, layers = {}, {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        done = subprocess.run(own_argv(args, workload, args.trace),
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload} exited {done.returncode}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"  {workload}: {result['failed']} failed of "
              f"{result['attempted']} attempted")
        for line in lines:
            if line.startswith("named-metrics "):
                for name, value in json.loads(line.split(" ", 1)[1]).items():
                    if name == "setup_s":
                        name = f"setup_s.{workload}"
                    named.setdefault(name, value)
        for name, value in result["metrics"].items():
            if name not in layers or not layers[name]["value"]:
                layers[name] = value
    if args.trace:
        metrics = layers
    else:
        metrics = {k: v for k, v in named.items()
                   if not k.startswith(("setup_s.", "failed_ops_ratio"))}
        metrics["setup_s"] = {"value": sum(
            v["value"] for k, v in named.items() if k.startswith("setup_s.")),
            "unit": "s"}
        metrics["failed_ops_ratio"] = {"value": failed / attempted,
                                       "unit": "ratio"}
    print(f"all workloads: {failed} failed of {attempted} attempted "
          f"operations")
    for name, value in metrics.items():
        shown = "n/a" if value["value"] is None else f"{value['value']:.6g}"
        print(f"  {name:42s} {shown:>14s} {value['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up; for smoke checks")
    parser.add_argument("--wrong-verdict", action="store_true",
                        help="plant a false expectation (checks the checks)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qkdlab" / "__init__.py").is_file():
        print(f"no qkdlab sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
