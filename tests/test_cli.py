"""End-to-end tests of the command-line interface.

Every subcommand is exercised through ``cli.main(argv)`` the way the
console script invokes it, including each bundled scenario config, the
machine-readable error paths behind exit codes 2/3/4, artifact
byte-determinism for a fixed seed, and which modules a cold start of each
subcommand loads.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkdlab.attacks as atk
import qkdlab.cli as cli
import qkdlab.protocol as pt
import qkdlab.receivers as rc

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "docs" / "scenarios"
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"
EXAMPLE_DIR = REPO_ROOT / "docs" / "examples"

CNOT_FILE = str(EXAMPLE_DIR / "cnot-ideal-attack.json")
FAKED_FILE = str(EXAMPLE_DIR / "faked-states-6mode-attack.json")


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def last_error(stderr):
    return json.loads(stderr.strip().splitlines()[-1])


# a receiver that calls every click "bit0" admits no zero-error isometry:
# the bit-1 input may never produce a click, yet nothing else is reachable
UNSATISFIABLE_RECEIVER = {
    "kind": "custom",
    "name": "always-bit0",
    "modes": ["polarization-H:0", "polarization-V:0"],
    "channel_modes": ["polarization-H:0", "polarization-V:0"],
    "max_photons": 2,
    "settings": {
        "computational": {
            "input_basis": ["polarization-H:0", "polarization-V:0"],
            "output_basis": ["polarization-H:0", "polarization-V:0"],
            "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "outcomes": {"D0": ["polarization-H:0"],
                         "D1": ["polarization-V:0"]},
            "interpretation": {"D0": "bit0", "D1": "bit0"},
        }
    },
    "source": {
        "computational/0": {"polarization-H:0": [1.0, 0.0]},
        "computational/1": {"polarization-V:0": [1.0, 0.0]},
    },
}


# ideal-bb84 as a custom receiver: identity optics in the computational
# setting, a 45-degree polarization rotation in the Hadamard setting
_R = 2 ** -0.5
_POLARIZATION = ["polarization-H:0", "polarization-V:0"]
_DETECTORS = {"outcomes": {"D0": ["polarization-H:0"],
                           "D1": ["polarization-V:0"],
                           "no-click": ["vacuum"]},
              "interpretation": {"D0": "bit0", "D1": "bit1",
                                 "no-click": "loss"}}
IDEAL_RECEIVER = {
    "kind": "custom",
    "modes": _POLARIZATION,
    "channel_modes": _POLARIZATION,
    "max_photons": 1,
    "settings": {
        "computational": {
            "input_basis": ["vacuum", *_POLARIZATION],
            "output_basis": ["vacuum", *_POLARIZATION],
            "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                       [[0, 0], [0, 0], [1, 0]]],
            **_DETECTORS},
        "hadamard": {
            "input_basis": ["vacuum", *_POLARIZATION],
            "output_basis": ["vacuum", *_POLARIZATION],
            "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [_R, 0], [_R, 0]],
                       [[0, 0], [_R, 0], [-_R, 0]]],
            **_DETECTORS},
    },
    "source": {
        "computational/0": {"polarization-H:0": [1, 0]},
        "computational/1": {"polarization-V:0": [1, 0]},
        "hadamard/0": {"polarization-H:0": [_R, 0],
                       "polarization-V:0": [_R, 0]},
        "hadamard/1": {"polarization-H:0": [_R, 0],
                       "polarization-V:0": [-_R, 0]},
    },
}


# ---------------------------------------------------------------------------
# happy paths per subcommand
# ---------------------------------------------------------------------------

def test_reverse_space_row_and_artifact(tmp_path):
    out = tmp_path / "rs.json"
    code, stdout, _ = run_cli(["reverse-space", "--receiver",
                               "interferometric-6mode", "--out", out])
    assert code == cli.EXIT_OK
    assert ("reverse-space receiver=interferometric-6mode "
            "dimension=5 constraints=6") in stdout
    artifact = json.loads(out.read_text())
    assert artifact["schema"] == "reverse-space/1"
    assert artifact["dimension"] == 5
    assert artifact["has_vacuum_direction"] is True
    assert artifact["rng_seed"] == 0


def test_synth_artifact_is_deterministic_and_verifiable(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a, stdout, _ = run_cli(["synth", "--receiver",
                                 "interferometric-6mode", "--out", out_a])
    code_b, _, _ = run_cli(["synth", "--receiver",
                            "interferometric-6mode", "--out", out_b])
    assert code_a == code_b == cli.EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "family-dimension=5" in stdout

    artifact = json.loads(out_a.read_text())
    assert artifact["family_dimension"] == 5
    assert artifact["only_trivial"] is False
    attack = atk.AttackIsometry.from_json_dict(artifact["canonical"])
    receiver = rc.make_receiver("interferometric-6mode")
    assert atk.verify_oblivious(
        attack, atk.build_constraint_system(receiver)).oblivious


def test_synth_defended_reports_only_trivial(tmp_path):
    out = tmp_path / "fam.json"
    code, stdout, _ = run_cli(["synth", "--receiver",
                               "interferometric-defended-10mode",
                               "--out", out])
    assert code == cli.EXIT_OK
    assert "only-trivial" in stdout
    artifact = json.loads(out.read_text())
    assert artifact["only_trivial"] is True
    assert artifact["family_dimension"] == 3
    assert artifact["note"]


def test_synth_single_window_has_no_named_parameters(tmp_path, draft7):
    out = tmp_path / "fam.json"
    code, stdout, stderr = run_cli(["synth", "--receiver",
                                    "interferometric-2mode", "--variant",
                                    "single-window", "--out", out])
    assert code == cli.EXIT_OK, stderr
    assert "only-trivial" in stdout
    artifact = json.loads(out.read_text())
    draft7(artifact, "attack-family.schema.json")
    assert artifact["parameter_names"] == []
    assert artifact["family_dimension"] == 3
    assert artifact["non_vacuum_dimension"] == 1


def test_synth_does_not_depend_on_a_custom_receiver_name(tmp_path):
    artifacts = {}
    for name in ("plain", "interferometric-6mode"):
        receiver = tmp_path / f"{name}.json"
        receiver.write_text(json.dumps({**IDEAL_RECEIVER, "name": name}))
        out = tmp_path / f"{name}-fam.json"
        code, _, stderr = run_cli(["synth", "--receiver", receiver,
                                   "--out", out])
        assert code == cli.EXIT_OK, stderr
        artifacts[name] = json.loads(out.read_text())
        assert artifacts[name].pop("receiver") == name
        artifacts[name]["canonical"].pop("receiver")
    assert artifacts["plain"] == artifacts["interferometric-6mode"]


def test_verify_flags_detectable_attack(tmp_path):
    out = tmp_path / "ver.json"
    code, stdout, stderr = run_cli(["verify", "--receiver", "ideal-bb84",
                                    "--attack", CNOT_FILE, "--out", out])
    assert code == cli.EXIT_VERIFICATION
    assert "verdict=detectable" in stdout
    artifact = json.loads(out.read_text())
    assert artifact["oblivious"] is False
    assert artifact["max_error_amplitude"] == pytest.approx(2 ** -0.5)
    settings = {row["setting"] for row in artifact["failing_rows"]}
    assert settings == {rc.HADAMARD}
    assert last_error(stderr)["event"] == "verification-failed"


def test_verify_accepts_oblivious_attack(tmp_path):
    out = tmp_path / "ver.json"
    code, stdout, _ = run_cli(["verify", "--receiver",
                               "interferometric-6mode",
                               "--attack", FAKED_FILE, "--out", out])
    assert code == cli.EXIT_OK
    assert "verdict=oblivious" in stdout
    artifact = json.loads(out.read_text())
    assert artifact["oblivious"] is True
    assert artifact["failing_rows"] == []


def test_verify_accepts_named_attacks():
    code, stdout, _ = run_cli(["verify", "--receiver",
                               "interferometric-6mode",
                               "--attack", "faked-states"])
    assert code == cli.EXIT_OK
    assert "attack=faked-states-early-late" in stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--receiver", "interferometric-6mode",
     "--attack", "faked-states"],
    ["verify", "--receiver", "ideal-bb84", "--attack", CNOT_FILE],
    ["synth", "--receiver", "interferometric-6mode"],
    ["reverse-space", "--receiver", "interferometric-6mode"],
    ["simulate", "--receiver", "interferometric-6mode",
     "--attack", "faked-states", "--rounds", 1000],
    ["simulate", "--receiver", "ideal-bb84", "--attack", CNOT_FILE,
     "--rounds", 1000],
], ids=["verify-named", "verify-file", "synth", "reverse-space",
        "simulate-named", "simulate-file"])
def test_each_run_builds_the_constraint_system_once(tmp_path, monkeypatch,
                                                    argv):
    built = []
    build = atk.build_constraint_system

    def counting_build(*args, **kwargs):
        built.append(args[0].name)
        return build(*args, **kwargs)

    monkeypatch.setattr(atk, "build_constraint_system", counting_build)
    code, _, stderr = run_cli(argv + ["--out", tmp_path / "out.json"])
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION), stderr
    assert len(built) == 1, built


def test_simulate_with_a_named_attack_reverses_each_state_once(
        tmp_path, monkeypatch):
    # the named attack and run_bb84 read one constraint system, built on
    # the reversed space the receiver keeps: the six-mode receiver's two
    # settings share their optics and 7 outcome states, each reversed once
    import qkdlab.fockspace as fs
    reversed_runs = []
    apply_optics = fs.apply_optics

    def counting(state, optics, adjoint=False):
        if adjoint:
            reversed_runs.append(optics)
        return apply_optics(state, optics, adjoint)

    monkeypatch.setattr(fs, "apply_optics", counting)
    code, _, stderr = run_cli([
        "simulate", "--receiver", "interferometric-6mode", "--attack",
        "faked-states", "--rounds", 1000, "--out", tmp_path / "sim.json"])
    assert code == cli.EXIT_OK, stderr
    assert len(reversed_runs) == 7


def test_simulate_report_row_format(tmp_path):
    out = tmp_path / "sim.json"
    log = tmp_path / "rounds.ndjson"
    argv = ["simulate", "--receiver", "interferometric-6mode",
            "--attack", "faked-states", "--rounds", 20000,
            "--out", out, "--log", log]
    code, stdout, _ = run_cli(argv)
    assert code == cli.EXIT_OK
    lines = stdout.splitlines()
    assert re.fullmatch(r"efficiency comp=0\.\d{3} had=0\.000 qber=0",
                        lines[1])
    assert re.fullmatch(r"eve-accuracy 1\.000", lines[2])

    artifact = json.loads(out.read_text())
    assert artifact["schema"] == "simulation-report/1"
    assert artifact["qber_pooled"] == 0
    assert artifact["eve_guess_accuracy"] == 1.0

    header = json.loads(log.read_text().splitlines()[0])
    assert header["schema"] == "round-log/1"
    assert header["rounds"] == 20000

    out_b = tmp_path / "sim-b.json"
    code_b, _, _ = run_cli(argv[:-4] + ["--out", out_b])
    assert code_b == cli.EXIT_OK
    assert out.read_bytes() == out_b.read_bytes()


def test_simulate_seed_changes_report(tmp_path):
    rows = []
    for seed in (0, 1):
        out = tmp_path / f"sim-{seed}.json"
        code, _, _ = run_cli(["simulate", "--receiver", "ideal-bb84",
                              "--channel", "lossy", "--loss", "0.3",
                              "--rounds", 2000, "--seed", seed,
                              "--out", out])
        assert code == cli.EXIT_OK
        rows.append(json.loads(out.read_text())["sifted_total"])
    assert rows[0] != rows[1]


def test_a_logged_session_on_uneven_settings_reads_back_inline(tmp_path):
    # without its hadamard no-click, hadamard has one outcome fewer than
    # computational, so the log writer pads the cells past its outcomes
    config = json.loads(json.dumps(IDEAL_RECEIVER))
    hadamard = config["settings"]["hadamard"]
    del hadamard["outcomes"]["no-click"]
    del hadamard["interpretation"]["no-click"]
    receiver = tmp_path / "uneven.json"
    receiver.write_text(json.dumps(config))
    outcomes = rc.receiver_from_config(config).settings
    assert len(outcomes["computational"].outcomes) != \
        len(outcomes["hadamard"].outcomes)
    out, log = tmp_path / "sim.json", tmp_path / "rounds.ndjson"
    code, _, stderr = run_cli(["simulate", "--receiver", receiver,
                               "--rounds", 3000, "--out", out,
                               "--log", log])
    assert code == cli.EXIT_OK, stderr
    offline = pt.sift_and_estimate(log, test_fraction=1.0)
    assert offline.to_json_dict() == json.loads(out.read_text())


def test_fuzz_campaign_artifact_and_replay(tmp_path):
    out = tmp_path / "fuzz.json"
    trace = tmp_path / "trace.ndjson"
    code, stdout, _ = run_cli(["fuzz", "--out", out, "--trace", trace])
    assert code == cli.EXIT_OK
    assert "properties=Blinding,StrongUnderBlinding,WeakUnderBlinding" \
        in stdout

    artifact = json.loads(out.read_text())
    assert artifact["schema"] == "fuzz-report/1"
    assert artifact["test_cases_run"] <= 10000
    assert artifact["device"]["blind_threshold"] == 400.0
    assert artifact["derived_vulnerabilities"]

    header = json.loads(trace.read_text().splitlines()[0])
    assert header["schema"] == "fuzz-trace/1"

    anomaly_id = artifact["anomalies"][0]["anomaly_id"]
    code, stdout, _ = run_cli(["fuzz", "--replay", anomaly_id,
                               "--report", out])
    assert code == cli.EXIT_OK
    assert f"replay anomaly={anomaly_id}" in stdout
    assert "reproduced=true" in stdout

    code, _, stderr = run_cli(["fuzz", "--replay", "a9999",
                               "--report", out])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "invalid-config"


def test_classify_writes_registry_and_graph(tmp_path):
    out = tmp_path / "reg.json"
    dot = tmp_path / "reg.dot"
    code, stdout, _ = run_cli(["classify", "--out", out, "--dot", dot])
    assert code == cli.EXIT_OK
    assert len(stdout.splitlines()) == 11

    artifact = json.loads(out.read_text())
    assert artifact["schema"] == "attack-registry/1"
    assert len(artifact["records"]) == 11
    text = dot.read_text()
    assert '"faked-states" -> "reversed-space"' in text


def test_report_renders_every_artifact_schema(tmp_path):
    sim = tmp_path / "sim.json"
    rs = tmp_path / "rs.json"
    fam = tmp_path / "fam.json"
    ver = tmp_path / "ver.json"
    reg = tmp_path / "reg.json"
    run_cli(["simulate", "--receiver", "ideal-bb84", "--rounds", 2000,
             "--out", sim])
    run_cli(["reverse-space", "--receiver", "interferometric-2mode",
             "--out", rs])
    run_cli(["synth", "--receiver", "interferometric-defended-10mode",
             "--out", fam])
    run_cli(["verify", "--receiver", "ideal-bb84", "--attack", CNOT_FILE,
             "--out", ver])
    run_cli(["classify", "--out", reg])

    code, stdout, _ = run_cli(["report", sim, rs, fam, ver, reg])
    assert code == cli.EXIT_OK
    lines = stdout.splitlines()
    assert lines[0] == "simulate receiver=ideal-bb84 channel=identity " \
        "rounds=2000"
    assert lines[1].startswith("efficiency comp=")
    assert any(line.startswith("reverse-space receiver=interferometric-2mode")
               for line in lines)
    assert any(line.endswith("only-trivial") for line in lines)
    assert any(line.startswith("verify receiver=ideal-bb84 ")
               and "verdict=detectable" in line for line in lines)
    assert len([line for line in lines if line.startswith("classify ")]) \
        == 11


def test_report_with_no_artifacts_is_empty():
    code, stdout, stderr = run_cli(["report"])
    assert code == cli.EXIT_OK
    assert stdout == ""
    assert stderr == ""


def test_report_rejects_unknown_schema(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "telemetry/9"}))
    code, _, stderr = run_cli(["report", bogus])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "schema-mismatch"


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------

def test_unknown_receiver_exits_config_error():
    code, _, stderr = run_cli(["reverse-space", "--receiver", "no-such"])
    assert code == cli.EXIT_CONFIG
    payload = last_error(stderr)
    assert payload["code"] == "invalid-receiver"
    assert payload["context"]["receiver"] == "no-such"


def test_a_shortened_kind_name_exits_config_error():
    code, stdout, stderr = run_cli(["reverse-space", "--receiver",
                                    "defended-10mode"])
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert last_error(stderr)["code"] == "invalid-receiver"


def test_custom_receiver_with_unknown_interpretation_tag_exits_2(tmp_path):
    cfg = json.loads(json.dumps(UNSATISFIABLE_RECEIVER))
    cfg["settings"]["computational"]["interpretation"]["D1"] = "bit_1"
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    code, stdout, stderr = run_cli(["reverse-space", "--receiver", path])
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["code"] == "invalid-receiver"
    assert "bit_1" in payload["message"]


def test_missing_required_option_exits_config_error():
    code, _, stderr = run_cli(["verify", "--receiver", "ideal-bb84"])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "missing-option"


def test_unknown_named_attack_exits_config_error():
    code, _, stderr = run_cli(["simulate", "--receiver", "ideal-bb84",
                               "--attack", "quantum-hammer"])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "invalid-attack"


def test_attack_conflicts_with_channel_kind():
    code, _, stderr = run_cli(["simulate", "--receiver", "ideal-bb84",
                               "--attack", "cnot", "--channel", "pns"])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "invalid-config"


def test_an_attack_channel_without_an_attack_is_a_missing_option():
    code, _, stderr = run_cli(["simulate", "--receiver", "ideal-bb84",
                               "--channel", "attack-isometry"])
    assert code == cli.EXIT_CONFIG
    payload = last_error(stderr)
    assert payload["code"] == "missing-option"
    assert payload["context"] == {"option": "attack"}


def test_unknown_channel_kind_exits_config_error():
    code, _, stderr = run_cli(["simulate", "--receiver", "ideal-bb84",
                               "--channel", "foo"])
    assert code == cli.EXIT_CONFIG
    payload = last_error(stderr)
    assert payload["code"] == "invalid-config"
    assert payload["message"] == "unknown channel kind 'foo'"
    assert "attack-isometry" in payload["context"]["choices"]


def test_a_named_attack_the_receiver_cannot_take_exits_config_error():
    # faked-states needs channel time bins, which ideal-bb84 has none of
    code, _, stderr = run_cli(["simulate", "--attack", "faked-states",
                               "--receiver", "ideal-bb84"])
    assert code == cli.EXIT_CONFIG
    payload = last_error(stderr)
    assert payload["code"] == "invalid-attack"
    assert payload["context"] == {"attack": "faked-states",
                                  "receiver": "ideal-bb84"}


def test_a_blind_threshold_below_p_th_exits_config_error():
    code, _, stderr = run_cli(["fuzz", "--p-th", 10,
                               "--blind-threshold", 5])
    assert code == cli.EXIT_CONFIG
    payload = last_error(stderr)
    assert payload["code"] == "invalid-config"
    assert payload["context"] == {"blind_threshold": 5.0, "p_th": 10.0}


def test_replaying_an_edited_observation_is_a_mismatch(tmp_path):
    out = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--out", out, "--max-cases", 300])
    assert code == cli.EXIT_OK
    artifact = json.loads(out.read_text())
    anomaly = artifact["anomalies"][0]
    observation = anomaly["observation"]
    assert observation["interpretation"] != "invalid"
    observation["interpretation"] = "invalid"
    out.write_text(json.dumps(artifact))
    code, stdout, stderr = run_cli(["fuzz", "--replay",
                                    anomaly["anomaly_id"], "--report", out])
    assert code == cli.EXIT_VERIFICATION
    assert "reproduced=false" in stdout
    assert last_error(stderr) == {"level": "error",
                                  "event": "replay-mismatch",
                                  "anomaly": anomaly["anomaly_id"]}


@pytest.mark.parametrize("argv", [
    ["simulate", "--receiver", "ideal-bb84", "--rounds", 100],
    ["fuzz", "--max-cases", 100],
])
def test_negative_seed_exits_config_error(argv):
    code, _, stderr = run_cli(argv + ["--seed", -1])
    assert code == cli.EXIT_CONFIG
    assert len(stderr.strip().splitlines()) == 1
    payload = last_error(stderr)
    assert payload["code"] == "invalid-config"
    assert "seed" in payload["message"]


def test_infeasible_synthesis_exits_3(tmp_path):
    path = tmp_path / "always-bit0.json"
    path.write_text(json.dumps(UNSATISFIABLE_RECEIVER))
    code, _, stderr = run_cli(["synth", "--receiver", path])
    assert code == cli.EXIT_INFEASIBLE
    payload = last_error(stderr)
    assert payload["code"] == "infeasible-synthesis"
    assert payload["context"]["receiver"] == "always-bit0"


def test_synth_rejects_zero_probe_dimension():
    code, _, stderr = run_cli(["synth", "--receiver", "ideal-bb84",
                               "--eve-dim", 0])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "invalid-config"


# ---------------------------------------------------------------------------
# config files and flag precedence
# ---------------------------------------------------------------------------

def test_config_supplies_options_and_flags_override(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "subcommand": "simulate", "receiver": "ideal-bb84",
        "rounds": 500, "seed": 3,
    }))
    out = tmp_path / "sim-out.json"
    code, _, _ = run_cli(["simulate", "--config", cfg,
                          "--rounds", 800, "--out", out])
    assert code == cli.EXIT_OK
    artifact = json.loads(out.read_text())
    assert artifact["rounds"] == 800  # flag beats config
    assert artifact["rng_seed"] == 3  # config beats default


def test_config_with_unknown_keys_is_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"receiver": "ideal-bb84", "bogus": 1}))
    code, _, stderr = run_cli(["reverse-space", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "unknown-config-keys"


def test_config_subcommand_mismatch_is_rejected(tmp_path):
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps({"subcommand": "fuzz"}))
    code, _, stderr = run_cli(["classify", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "subcommand-mismatch"


def test_config_must_be_a_json_object(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code, _, stderr = run_cli(["classify", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "invalid-config"


def test_missing_files_are_config_errors(tmp_path):
    code, _, stderr = run_cli(["classify", "--config",
                               tmp_path / "nope.json"])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "file-not-found"

    code, _, stderr = run_cli(["verify", "--receiver", "ideal-bb84",
                               "--attack", tmp_path / "nope.json"])
    assert code == cli.EXIT_CONFIG
    assert last_error(stderr)["code"] == "file-not-found"


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------

def test_log_level_gates_stderr_events(tmp_path, monkeypatch):
    out = tmp_path / "rs.json"
    argv = ["reverse-space", "--receiver", "ideal-bb84", "--out", out]

    monkeypatch.delenv("QKDLAB_LOG_LEVEL", raising=False)
    _, _, stderr = run_cli(argv)
    assert stderr == ""  # default threshold hides info events

    monkeypatch.setenv("QKDLAB_LOG_LEVEL", "info")
    _, _, stderr = run_cli(argv)
    events = [json.loads(line) for line in stderr.splitlines()]
    assert any(e["event"] == "artifact-written" for e in events)

    monkeypatch.setenv("QKDLAB_LOG_LEVEL", "error")
    code, _, stderr = run_cli(["verify", "--receiver", "ideal-bb84",
                               "--attack", CNOT_FILE])
    assert code == cli.EXIT_VERIFICATION
    events = [json.loads(line) for line in stderr.splitlines()]
    assert [e["event"] for e in events] == ["verification-failed"]


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

# dependency order: the report scenario renders artifacts produced by the
# simulate and verify scenarios, so those must run first
SCENARIO_ORDER = [
    ("reverse-space-6mode.json", cli.EXIT_OK),
    ("synth-6mode.json", cli.EXIT_OK),
    ("synth-defended.json", cli.EXIT_OK),
    ("verify-copy-vs-ideal.json", cli.EXIT_VERIFICATION),
    ("verify-faked-states-6mode.json", cli.EXIT_OK),
    ("simulate-faked-states.json", cli.EXIT_OK),
    ("simulate-pns.json", cli.EXIT_OK),
    ("fuzz-blinding.json", cli.EXIT_OK),
    ("classify-registry.json", cli.EXIT_OK),
    ("report-simulation.json", cli.EXIT_OK),
]


def test_every_subcommand_has_a_bundled_scenario():
    names = {path.name for path in SCENARIO_DIR.glob("*.json")}
    assert names == {name for name, _ in SCENARIO_ORDER}
    covered = {json.loads((SCENARIO_DIR / name).read_text())["subcommand"]
               for name in names}
    assert covered == set(cli._HANDLERS)


def test_bundled_scenarios_run_with_expected_exit_codes(tmp_path,
                                                        monkeypatch):
    # scenarios reference docs/examples and write under artifacts/ using
    # paths relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "docs").symlink_to(REPO_ROOT / "docs",
                                   target_is_directory=True)
    for name, expected in SCENARIO_ORDER:
        config = SCENARIO_DIR / name
        subcommand = json.loads(config.read_text())["subcommand"]
        code, stdout, stderr = run_cli([subcommand, "--config", config])
        assert code == expected, (name, stderr)
        if expected == cli.EXIT_OK and subcommand != "report":
            assert stdout

    produced = sorted(p.name for p in (tmp_path / "artifacts").iterdir())
    assert produced == [
        "attack-family-6mode.json",
        "attack-family-defended.json",
        "attack-registry.json",
        "attack-taxonomy.dot",
        "fuzz-blinding.json",
        "reverse-space-6mode.json",
        "simulation-faked-states.json",
        "simulation-pns.json",
        "verification-copy-vs-ideal.json",
        "verification-faked-states-6mode.json",
    ]


def test_report_prints_what_each_scenario_run_printed(tmp_path,
                                                     monkeypatch):
    # one summary per artifact: the run and report on its file agree
    monkeypatch.chdir(tmp_path)
    (tmp_path / "docs").symlink_to(REPO_ROOT / "docs",
                                   target_is_directory=True)
    checked = []
    for name, _ in SCENARIO_ORDER:
        config = json.loads((SCENARIO_DIR / name).read_text())
        if "out" not in config:
            continue
        _, printed, _ = run_cli([config["subcommand"], "--config",
                                 SCENARIO_DIR / name])
        code, reported, stderr = run_cli(["report", config["out"]])
        assert code == cli.EXIT_OK, (name, stderr)
        assert reported == printed, name
        checked.append(name)
    assert len(checked) == 9


# ---------------------------------------------------------------------------
# seeded artifacts stay byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,build,kind", [
    ("faked-states-6mode-attack.json", atk.faked_states_attack,
     "interferometric-6mode"),
    ("cnot-ideal-attack.json", atk.cnot_attack, "ideal-bb84"),
])
def test_example_attacks_rebuild_byte_for_byte(name, build, kind):
    attack = build(rc.make_receiver(kind))
    expected = (EXAMPLE_DIR / name).read_text(encoding="utf-8")
    assert cli._dump(attack.to_json_dict()) == expected


def test_simulation_scenario_reproduces_the_tracked_artifact(tmp_path):
    out = tmp_path / "sim.json"
    code, _, stderr = run_cli(
        ["simulate", "--config", SCENARIO_DIR / "simulate-faked-states.json",
         "--out", out])
    assert code == cli.EXIT_OK, stderr
    tracked = REPO_ROOT / "artifacts" / "simulation-faked-states.json"
    assert out.read_bytes() == tracked.read_bytes()


# ---------------------------------------------------------------------------
# cold start: each run imports only what its subcommand executes
# ---------------------------------------------------------------------------

def fresh_python(code, cwd):
    """Run ``code`` in a new interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def loaded_after(statement, modules, cwd):
    """Which of ``modules`` are loaded after ``statement`` runs fresh."""
    return json.loads(fresh_python(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))",
        cwd))


@pytest.mark.parametrize("module", ["qkdlab.cli", "qkdlab.protocol"])
def test_importing_does_not_load_scipy(tmp_path, module):
    assert loaded_after(f"import {module}", ["scipy"], tmp_path) == []


def test_a_one_chunk_session_starts_no_thread(tmp_path):
    # a session of one chunk draws it inline: no worker pool is imported
    # and no thread starts
    statement = (
        "import contextlib, io, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "def spy(thread):\n"
        "    started.append(thread)\n"
        "    start(thread)\n"
        "threading.Thread.start = spy\n"
        "import qkdlab.protocol\n"
        "from qkdlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['simulate', '--receiver', 'ideal-bb84',\n"
        "                 '--rounds', '20000'])\n"
        "assert code == 0, code\n"
        "assert started == [] and threading.active_count() == 1, started")
    assert loaded_after(statement, ["concurrent.futures"], tmp_path) == []


FUZZ_SUMMARY = {"schema": "fuzz-report/1", "test_cases_run": 0,
                "properties_found": [], "anomalies": [],
                "derived_vulnerabilities": []}


@pytest.mark.parametrize("argv,absent", [
    (["classify", "--out", "reg.json", "--dot", "reg.dot"],
     ["numpy", "scipy"]),
    (["report", str(REPO_ROOT / "artifacts" /
                    "simulation-faked-states.json"), "fuzz.json"],
     ["numpy", "scipy"]),
    (["fuzz", "--max-cases", "200"],
     ["scipy", "qkdlab.attacks", "qkdlab.protocol", "qkdlab.receivers",
      "qkdlab.fockspace"]),
    (["reverse-space", "--receiver", "interferometric-6mode"], ["scipy"]),
    (["verify", "--receiver", "interferometric-6mode",
      "--attack", "faked-states"], ["scipy"]),
    (["simulate", "--receiver", "interferometric-6mode",
      "--attack", "faked-states", "--rounds", "200"], ["scipy"]),
    (["synth", "--receiver", "interferometric-6mode"], ["scipy"]),
], ids=["classify", "report", "fuzz", "reverse-space", "verify",
        "simulate", "synth"])
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, absent):
    (tmp_path / "fuzz.json").write_text(json.dumps(FUZZ_SUMMARY))
    statement = ("import contextlib, io\n"
                 "from qkdlab.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = main({argv!r})\n"
                 "assert code == 0, code")
    assert loaded_after(statement, absent, tmp_path) == []


def test_synthesis_and_sampling_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes any import of scipy fail
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import qkdlab.attacks as atk, qkdlab.receivers as rc\n"
        "configs = [(kind, None) for kind in rc.RECEIVER_KINDS]\n"
        "configs.append(('interferometric-2mode', 'single-window'))\n"
        "for kind, variant in configs:\n"
        "    system = atk.build_constraint_system(\n"
        "        rc.make_receiver(kind, variant))\n"
        "    family = atk.synthesize_attacks(system)\n"
        "    member = family.sample(np.random.default_rng(0))\n"
        "    assert atk.verify_oblivious(member, system=system).oblivious\n"
        "print(len(configs))")
    assert fresh_python(code, tmp_path) == "7"


def test_synth_in_a_fresh_interpreter_gives_the_golden_canonical(tmp_path):
    # the canonical member is the smallest-support vertex; its bytes must
    # not move
    fresh_python(
        "from qkdlab.cli import main\n"
        "raise SystemExit(main(['synth', '--config', "
        f"{str(SCENARIO_DIR / 'synth-6mode.json')!r}, "
        "'--out', 'fam.json']))", tmp_path)
    canonical = json.loads((tmp_path / "fam.json").read_text())["canonical"]
    golden = EXAMPLE_DIR / "synth-6mode-canonical-attack.json"
    assert cli._dump(canonical) == golden.read_text(encoding="utf-8")


def test_polarization_threshold_synth_gives_the_golden_canonical(tmp_path):
    # its settings run through the exact rotation kernel; the canonical
    # member's bytes must not move
    out = tmp_path / "fam.json"
    code, _, _ = run_cli(["synth", "--receiver", "polarization-threshold",
                          "--out", out])
    assert code == cli.EXIT_OK
    canonical = json.loads(out.read_text())["canonical"]
    golden = EXAMPLE_DIR / "polarization-threshold-canonical-attack.json"
    assert cli._dump(canonical) == golden.read_text(encoding="utf-8")



# ---------------------------------------------------------------------------
# schema documents match what the tools emit and accept
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def draft7():
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT7

    schemas = {}
    resources = []
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        content = json.loads(path.read_text())
        schemas[path.name] = content
        resources.append(
            (path.name,
             Resource.from_contents(content,
                                    default_specification=DRAFT7)))
    registry = Registry().with_resources(resources)

    def validate(instance, schema_name):
        jsonschema.Draft7Validator(
            schemas[schema_name], registry=registry).validate(instance)

    return validate


def test_schema_documents_are_valid_draft7(draft7):
    jsonschema = pytest.importorskip("jsonschema")
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        jsonschema.Draft7Validator.check_schema(
            json.loads(path.read_text()))


def test_bundled_configs_validate_against_schemas(draft7):
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        draft7(json.loads(path.read_text()), "scenario-config.schema.json")
    for path in sorted(EXAMPLE_DIR.glob("*-attack.json")):
        draft7(json.loads(path.read_text()), "attack-isometry.schema.json")
    draft7(UNSATISFIABLE_RECEIVER, "receiver-config.schema.json")
    draft7(IDEAL_RECEIVER, "receiver-config.schema.json")
    draft7({"kind": "blinded-bright", "bright_photons": 6},
           "receiver-config.schema.json")


def test_emitted_artifacts_validate_against_schemas(draft7, tmp_path):
    rs = tmp_path / "rs.json"
    fam = tmp_path / "fam.json"
    ver = tmp_path / "ver.json"
    sim = tmp_path / "sim.json"
    log = tmp_path / "log.ndjson"
    fuzz = tmp_path / "fuzz.json"
    trace = tmp_path / "trace.ndjson"
    reg = tmp_path / "reg.json"

    run_cli(["reverse-space", "--receiver", "interferometric-6mode",
             "--out", rs])
    run_cli(["synth", "--receiver", "interferometric-6mode", "--out", fam])
    run_cli(["verify", "--receiver", "ideal-bb84", "--attack", CNOT_FILE,
             "--out", ver])
    run_cli(["simulate", "--receiver", "interferometric-6mode",
             "--attack", "faked-states", "--rounds", 2000,
             "--out", sim, "--log", log])
    run_cli(["fuzz", "--out", fuzz, "--trace", trace])
    run_cli(["classify", "--out", reg])

    draft7(json.loads(rs.read_text()), "reverse-space.schema.json")
    draft7(json.loads(fam.read_text()), "attack-family.schema.json")
    draft7(json.loads(ver.read_text()), "verification.schema.json")
    draft7(json.loads(sim.read_text()), "simulation-report.schema.json")
    draft7(json.loads(fuzz.read_text()), "fuzz-report.schema.json")
    draft7(json.loads(reg.read_text()), "attack-registry.schema.json")
    for line in log.read_text().splitlines():
        draft7(json.loads(line), "round-log.schema.json")
    for line in trace.read_text().splitlines()[:200]:
        draft7(json.loads(line), "fuzz-trace.schema.json")
