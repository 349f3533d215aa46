#!/usr/bin/env python3
"""Smoke check of the benchmark itself, about a minute long:

    python3 perfbench/smoke.py

Runs every workload at tiny size with and without tracing and checks that
the metric names in the last line equal those in BENCHMARK.json, that a
planted wrong expectation is reported as a failure, that a directory holding
only the benchmark makes it exit non-zero without a result, and that nothing
outside the benchmark changed (``git status`` in a git checkout).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(command, cwd=ROOT):
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done, result


def git_status():
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def expect(condition, message, done=None):
    if not condition:
        detail = f"\n{done.stdout}\n{done.stderr}" if done else ""
        raise SystemExit(f"smoke check failed: {message}{detail}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    status = git_status()

    for workload in (w["name"] for w in spec["workloads"]):
        base = spec["command"] + ["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--tiny"]
        for trace in (0, 1):
            done, result = run(base + ["--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{where} exited "
                   f"{done.returncode}", done)
            expect(result is not None and set(result) ==
                   {"correct", "attempted", "failed", "metrics"},
                   f"{where}: last line is not the result", done)
            expect(set(result["metrics"]) == names[trace],
                   f"{where}: metric names differ from BENCHMARK.json")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{where}: incorrect or empty run", done)
            if trace == 0:
                expect(all(m["value"] > 0
                           for m in result["metrics"].values()),
                       f"{where}: an end-to-end metric is not positive")
        done, result = run(base + ["--trace", "0", "--wrong-verdict"])
        expect(done.returncode == 0 and result is not None,
               f"{workload} --wrong-verdict gave no result", done)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: a wrong expected verdict was not reported as "
               f"a failure", done)
        print(f"ok {workload}")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done, result = run(spec["command"] + [
        "--workload", spec["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and result is None,
           "without the sources the benchmark must fail without a result",
           done)
    print("ok benchmark alone exits non-zero")

    expect(git_status() == status, "the run changed files tracked by git")
    print("ok tree unchanged")


if __name__ == "__main__":
    sys.exit(main())
