"""cli-scenarios: every bundled scenario through ``python -m qkdlab.cli``.

Each invocation is a cold start (about 0.8 s) around at most 0.2 s of work,
so this workload measures the ``cli`` layer and the only caller of
``classify``.  Scenarios run one subprocess at a time in a throwaway
working directory that links ``docs/``, so the tracked ``artifacts/`` are
never overwritten; producers run before ``report``, which reads their
artifacts.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

TIMEOUT_S = 120
BENCH_DIR = Path(__file__).resolve().parent


def load_validator(schema_dir):
    """Draft-7 validation against ``docs/schemas`` with cross-file refs."""
    schemas = {}
    for path in sorted(schema_dir.glob("*.schema.json")):
        schemas[path.name] = json.loads(path.read_text())
    registry = Registry().with_resources(
        (name, Resource.from_contents(content, default_specification=DRAFT7))
        for name, content in schemas.items())

    def validate(instance):
        kind = str(instance.get("schema", "")).split("/")[0]
        name = f"{kind}.schema.json"
        if name not in schemas:
            raise jsonschema.ValidationError(f"no schema for {kind!r}")
        jsonschema.Draft7Validator(schemas[name], registry=registry) \
            .validate(instance)
    return validate


def scenario_plan(scenario_dir):
    """(file name, config) for every scenario, producers before reports."""
    configs = [(path.name, json.loads(path.read_text()))
               for path in sorted(scenario_dir.glob("*.json"))]
    return sorted(configs, key=lambda item: item[1]["subcommand"] == "report")


def tree_fingerprint(root, skip):
    """(size, mtime) of every file under root outside the skipped paths."""
    prints = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip and
                       os.path.join(dirpath, d) not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            prints[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return prints


class Workload:
    def __init__(self, seed, expect, tiny, workdir, root):
        self.expect = expect
        self.root = root
        self.workdir = workdir
        self.validate = load_validator(root / "docs" / "schemas")
        self.plan = scenario_plan(root / "docs" / "scenarios")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.skip = {".git", "__pycache__", ".bench_build", ".hypothesis",
                     ".pytest_cache", str(BENCH_DIR)}
        self.before = tree_fingerprint(str(root), self.skip)
        self.cli = None

    def fresh_dir(self, name):
        path = self.workdir / name
        path.mkdir()
        (path / "docs").symlink_to(self.root / "docs",
                                   target_is_directory=True)
        return path

    def run_pass(self, rec, tracer, pass_index):
        cwd = self.fresh_dir(f"pass{pass_index}")
        for name, config in self.plan:
            argv = [sys.executable, "-m", "qkdlab.cli", config["subcommand"],
                    "--config", f"docs/scenarios/{name}"]

            def invoke():
                with tracer.span("cli.invocation"):
                    return subprocess.run(argv, cwd=cwd, env=self.env,
                                          capture_output=True, text=True,
                                          timeout=TIMEOUT_S)

            rec.attempt(name, invoke,
                        lambda done: self.check(name, config, cwd, done))
        shutil.rmtree(cwd)
        if tracer.enabled:
            self.probe_layers(tracer, pass_index)

    def check(self, name, config, cwd, done):
        want = self.expect["cli_exit"].get(name, 0)
        if done.returncode != want:
            return f"{name}: exit {done.returncode}, expected {want}: " \
                   f"{done.stderr.strip()[-300:]}"
        if "Traceback" in done.stderr:
            return f"{name}: traceback on stderr"
        if config["subcommand"] == "report" and not done.stdout.strip():
            return f"{name}: report printed nothing"
        if config.get("dot"):
            dot = (cwd / config["dot"]).read_text()
            if not dot.lstrip().startswith("digraph"):
                return f"{name}: {config['dot']} is not a Graphviz digraph"
        if not config.get("out"):
            return None
        artifact = json.loads((cwd / config["out"]).read_text())
        try:
            self.validate(artifact)
        except jsonschema.ValidationError as err:
            return f"{name}: artifact violates its schema: {err.message}"
        return self.check_verdict(name, artifact)

    def check_verdict(self, name, artifact):
        kind = artifact["schema"].split("/")[0]
        receiver = artifact.get("receiver")
        if kind == "reverse-space":
            want = self.expect["reversed_dims"].get((receiver, None))
            if want is not None and artifact["dimension"] != want:
                return f"{name}: dimension {artifact['dimension']}, " \
                       f"expected {want}"
        elif kind == "attack-family":
            want = self.expect["only_trivial"].get(receiver)
            if want is not None and artifact["only_trivial"] != want:
                return f"{name}: only_trivial {artifact['only_trivial']}"
        elif kind == "verification":
            want = self.expect["cli_oblivious"].get(name)
            if want is not None and artifact["oblivious"] != want:
                return f"{name}: oblivious {artifact['oblivious']}"
        elif kind == "simulation-report":
            if artifact.get("attack_label") == "faked-states" and (
                    artifact["qber_pooled"] !=
                    self.expect["faked_states_qber"] or
                    artifact["eve_guess_accuracy"] != 1.0):
                return f"{name}: faked-states QBER " \
                       f"{artifact['qber_pooled']}, Eve accuracy " \
                       f"{artifact['eve_guess_accuracy']}"
        elif kind == "fuzz-report":
            missing = self.expect["fuzz_properties"] - \
                set(artifact["properties_found"])
            if missing:
                return f"{name}: fuzz campaign missed {sorted(missing)}"
        return None

    def probe_layers(self, tracer, pass_index):
        """Cold-start parts and in-process handler times, for the trace."""
        for span, code in (("cli.interpreter", "pass"),
                           ("cli.import", "import qkdlab.cli")):
            with tracer.span(span):
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               check=True, timeout=TIMEOUT_S)
        if self.cli is None:
            import qkdlab.cli
            self.cli = qkdlab.cli
        cwd = self.fresh_dir(f"handlers{pass_index}")
        here = os.getcwd()
        os.chdir(cwd)
        try:
            for name, config in self.plan:
                sink = io.StringIO()
                with tracer.span(f"cli.handler.{config['subcommand']}"), \
                        contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = self.cli.main([config["subcommand"], "--config",
                                          f"docs/scenarios/{name}"])
                if code != self.expect["cli_exit"].get(name, 0):
                    raise RuntimeError(f"in-process {name} exited {code}")
        finally:
            os.chdir(here)
            shutil.rmtree(cwd)

    def named(self, rec):
        calls = rec.pooled(name for name, _ in self.plan)
        return {"cli_p50_s": (rec.median_of(calls), "s"),
                "cli_tail_s": rec.tail(calls, 1.0, "s")}

    def layers(self, tracer, passes):
        def median(name):
            values = tracer.self_times(name)
            return statistics.median(values) if values else 0.0
        interpreter = median("cli.interpreter")
        out = {"cli.interpreter_s": interpreter,
               "cli.import_s": median("cli.import") - interpreter}
        for sub in sorted({config["subcommand"] for _, config in self.plan}):
            out[f"cli.handler_ms.{sub}"] = median(f"cli.handler.{sub}") * 1e3
        return out

    def close(self):
        after = tree_fingerprint(str(self.root), self.skip)
        if after != self.before:
            changed = sorted(set(after.items()) ^ set(self.before.items()))
            return f"files outside the benchmark changed: {changed[:5]}"
        return None
