"""The CLI boundary: every malformed input is one JSON line and exit 2.

Covers the option table (flags, config keys, their JSON types and
numeric ranges come from one declaration per option, and agree with
``docs/schemas/scenario-config.schema.json``), parser errors, malformed
receiver configs, unreadable input files, unwritable outputs, and atomic
artifact writes.
"""

import contextlib
import inspect
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import qkdlab.classify as cl
import qkdlab.cli as cli
import qkdlab.receivers as rc

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, stdout, stderr):
    """Exit 2, nothing on stdout, exactly one JSON error object on stderr."""
    assert code == cli.EXIT_CONFIG, stderr
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    payload = json.loads(lines[0])
    assert set(payload) == {"code", "message", "context"}
    return payload


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# the option table agrees with the scenario-config schema
# ---------------------------------------------------------------------------

def _schema_types(prop, definitions):
    """The set of JSON type names a schema property admits."""
    if "$ref" in prop:
        prop = definitions[prop["$ref"].rsplit("/", 1)[-1]]
    if "enum" in prop:  # the channel kinds: strings and null
        return {"null" if value is None else "string"
                for value in prop["enum"]}
    kinds = prop["type"]
    return {kinds} if isinstance(kinds, str) else set(kinds)


def test_option_table_matches_the_scenario_schema():
    schema = json.loads(
        (SCHEMA_DIR / "scenario-config.schema.json").read_text())
    branches = {branch["properties"]["subcommand"]["const"]: branch
                for branch in schema["oneOf"]}
    assert set(branches) == set(cli._OPTIONS) == set(cli._HANDLERS)
    for subcommand, table in cli._OPTIONS.items():
        props = dict(branches[subcommand]["properties"])
        del props["subcommand"]
        assert set(props) == set(table), subcommand
        for key, option in table.items():
            admitted = _schema_types(props[key], schema["definitions"])
            assert admitted - {"null"} == {cli._JSON_TYPES[option.type]}, \
                (subcommand, key)


def test_every_flag_of_a_subcommand_is_in_its_table():
    parser = cli._build_parser()
    for subcommand, table in cli._OPTIONS.items():
        parsed = vars(parser.parse_args([subcommand]))
        assert set(parsed) - {"subcommand", "config"} == set(table)


def _schema_bounds():
    """(subcommand, key, keyword, bound) for every numeric schema bound."""
    schema = json.loads(
        (SCHEMA_DIR / "scenario-config.schema.json").read_text())
    return [(branch["properties"]["subcommand"]["const"], key, keyword,
             prop[keyword])
            for branch in schema["oneOf"]
            for key, prop in branch["properties"].items()
            for keyword in ("minimum", "maximum", "exclusiveMinimum")
            if keyword in prop]


SCHEMA_BOUNDS = _schema_bounds()


def test_option_bounds_match_the_scenario_schema():
    declared = [(subcommand, key, keyword, bound)
                for subcommand, table in cli._OPTIONS.items()
                for key, option in table.items()
                for keyword, bound in option.bounds.items()]
    assert sorted(declared) == sorted(SCHEMA_BOUNDS)


def _bound_id(case):
    subcommand, key, keyword, _ = case
    return f"{subcommand}-{key}-{keyword}"


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("case", SCHEMA_BOUNDS, ids=_bound_id)
def test_out_of_range_value_exits_2(tmp_path, case, via):
    subcommand, key, keyword, bound = case
    step = 1 if cli._OPTIONS[subcommand][key].type is int else 0.5
    value = {"minimum": bound - step, "maximum": bound + step,
             "exclusiveMinimum": bound}[keyword]
    if via == "flag":
        argv = [subcommand, "--" + key.replace("_", "-"), value]
    else:
        argv = [subcommand, "--config",
                write_config(tmp_path / "cfg.json", {key: value})]
    payload = assert_one_error_line(*run_cli(argv))
    assert payload["code"] == "invalid-config"
    assert payload["context"] == {"option": key, keyword: bound}


@pytest.mark.parametrize("case", SCHEMA_BOUNDS, ids=_bound_id)
def test_value_on_or_just_inside_a_bound_is_accepted(case):
    subcommand, key, keyword, bound = case
    if keyword == "exclusiveMinimum":
        bound += 0.5
    args = cli._build_parser().parse_args(
        [subcommand, "--" + key.replace("_", "-"), str(bound)])
    assert cli._resolve_options(subcommand, args)[key] == bound


def test_nan_is_out_of_range():
    payload = assert_one_error_line(*run_cli(["fuzz", "--p-th", "nan"]))
    assert payload["context"] == {"option": "p_th", "exclusiveMinimum": 0}


@pytest.mark.parametrize("argv, flag, value, context", [
    (["simulate", "--receiver", "ideal-bb84", "--channel", "lossy",
      "--rounds", "10"], "--loss", "-1e5", {"option": "loss", "minimum": 0}),
    (["fuzz"], "--p-th", "-inf", {"option": "p_th", "exclusiveMinimum": 0}),
    (["fuzz"], "--blind-threshold", "-2.5E-3",
     {"option": "blind_threshold", "exclusiveMinimum": 0}),
    (["fuzz"], "--p-th", "-NaN", {"option": "p_th", "exclusiveMinimum": 0}),
])
def test_negative_exponent_or_non_finite_value_reaches_the_range_check(
        argv, flag, value, context):
    # argparse alone reads "-1e5" and "-inf" as flags: "expected one
    # argument" instead of the range error "--loss=-1e5" already gives
    spaced = assert_one_error_line(*run_cli(argv + [flag, value]))
    joined = assert_one_error_line(*run_cli(argv + [f"{flag}={value}"]))
    assert spaced == joined
    assert spaced["code"] == "invalid-config"
    assert spaced["context"] == context


# ---------------------------------------------------------------------------
# each documented malformed input: exit 2 and one JSON line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subcommand,config,option", [
    ("classify", {"seed": "abc"}, "seed"),
    ("classify", {"out": 7}, "out"),
    ("simulate", {"receiver": "ideal-bb84", "rounds": "many"}, "rounds"),
    ("fuzz", {"max_cases": "x"}, "max_cases"),
    ("report", {"artifacts": "x.json"}, "artifacts"),
    ("report", {"artifacts": ["a.json", 3]}, "artifacts"),
    ("simulate", {"receiver": "ideal-bb84", "rounds": None}, "rounds"),
    ("synth", {"receiver": "ideal-bb84", "eve_dim": 2.0}, "eve_dim"),
    ("fuzz", {"seed": True}, "seed"),
    ("fuzz", {"p_th": "1"}, "p_th"),
])
def test_wrong_typed_config_value_exits_2(tmp_path, subcommand, config,
                                          option):
    path = write_config(tmp_path / "cfg.json", config)
    payload = assert_one_error_line(
        *run_cli([subcommand, "--config", path]))
    assert payload["code"] == "invalid-config-type"
    assert payload["context"]["option"] == option


def test_integer_config_value_is_accepted_for_a_number_option(tmp_path):
    outs = []
    for loss in (0, 0.0):
        out = tmp_path / f"sim-{loss!r}.json"
        path = write_config(tmp_path / "cfg.json", {
            "receiver": "ideal-bb84", "channel": "lossy", "loss": loss,
            "rounds": 200, "out": str(out)})
        code, _, stderr = run_cli(["simulate", "--config", path])
        assert code == cli.EXIT_OK, stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--rounds", "abc"], "invalid-arguments"),
    (["bogus"], "invalid-arguments"),
    ([], "invalid-arguments"),
    (["report", "--out", "x.json"], "invalid-arguments"),
    (["classify", "--no-such-flag"], "invalid-arguments"),
    (["fuzz", "--p-th", "hot"], "invalid-arguments"),
])
def test_malformed_argv_exits_2(argv, code):
    payload = assert_one_error_line(*run_cli(argv))
    assert payload["code"] == code


def test_report_on_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"schema": "café"}'.encode("latin-1"))
    payload = assert_one_error_line(*run_cli(["report", path]))
    assert payload["code"] == "invalid-json"


def test_report_on_a_json_array_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1,2]")
    payload = assert_one_error_line(*run_cli(["report", path]))
    assert payload["code"] == "invalid-config"
    assert payload["context"]["path"] == str(path)


@pytest.mark.parametrize("what", ["receiver", "attack"])
def test_non_object_receiver_and_attack_files_exit_2(tmp_path, what):
    path = tmp_path / f"{what}.json"
    path.write_text('"ideal-bb84"')
    argv = ["verify", "--receiver", "ideal-bb84", "--attack", "cnot"]
    argv[argv.index(f"--{what}") + 1] = path
    payload = assert_one_error_line(*run_cli(argv))
    assert payload["code"] == "invalid-config"


def test_receiver_naming_a_directory_exits_2(tmp_path):
    payload = assert_one_error_line(
        *run_cli(["reverse-space", "--receiver", tmp_path]))
    assert payload["code"] == "io-error"


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_output_naming_a_directory_exits_2(tmp_path, flag):
    target = tmp_path / "adir"
    target.mkdir()
    payload = assert_one_error_line(*run_cli(["classify", flag, target]))
    assert payload["code"] == "io-error"
    assert payload["context"]["path"] == str(target)
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["verify", "simulate"])
def test_two_mode_is_not_a_named_attack(subcommand):
    payload = assert_one_error_line(
        *run_cli([subcommand, "--receiver", "interferometric-2mode",
                  "--attack", "two-mode"]))
    assert payload["code"] == "invalid-attack"


@pytest.mark.parametrize("receiver", ["blinded-bright", "ideal-bb84"])
def test_bright_pulse_is_not_a_named_attack(receiver):
    # the construction needs a pointer amplitude that no option carries
    payload = assert_one_error_line(
        *run_cli(["verify", "--receiver", receiver,
                  "--attack", "bright-pulse"]))
    assert payload["code"] == "invalid-attack"
    assert payload["message"] == (
        f"unknown attack 'bright-pulse'; use one of "
        f"{sorted(cli._NAMED_ATTACKS)} or a JSON file")


def test_attack_file_without_keys_exits_2(tmp_path):
    path = write_config(tmp_path / "keyless.json",
                        {"format": "attack-isometry/1"})
    payload = assert_one_error_line(
        *run_cli(["verify", "--receiver", "ideal-bb84", "--attack", path]))
    assert payload["code"] == "invalid-attack"


def _edit_counts(doc, value):
    for state in doc["basis"]:
        for comp in state["components"]:
            for label in comp["occupation"]:
                comp["occupation"][label] = value


def _edit_cap(doc, value):
    doc["basis"][0]["max_photons_per_mode"] = value


def _edit_label(doc, value):
    doc["basis"][0]["modes"][0] = value


@pytest.mark.parametrize("edit,value,named", [
    (_edit_counts, 1.5, "photon count"),
    (_edit_counts, True, "photon count"),
    (_edit_cap, 1.5, "max_photons_per_mode"),
    (_edit_cap, True, "max_photons_per_mode"),
    (_edit_label, "polarization-H:x", "'polarization-H:x'"),
    (_edit_label, "polarization-H:1.5", "'polarization-H:1.5'"),
])
def test_attack_file_with_non_integer_photon_numbers_exits_2(
        tmp_path, edit, value, named):
    # the schema declares integer counts, caps and mode indices; the
    # unedited file is a valid (detectable) attack
    doc = json.loads((REPO_ROOT / "docs" / "examples"
                      / "cnot-ideal-attack.json").read_text())
    edit(doc, value)
    path = write_config(tmp_path / "attack.json", doc)
    payload = assert_one_error_line(
        *run_cli(["verify", "--receiver", "ideal-bb84", "--attack", path]))
    assert payload["code"] == "invalid-attack"
    assert named in payload["message"]


def _edit_bit(doc, value):
    doc["alice_labels"][1][1] = value


def _edit_key(key):
    return lambda doc, value: doc.__setitem__(key, value)


def _edit_coefficient(doc, value):
    doc["coefficients"][0][0][0] = value


def _edit_amplitude(doc, value):
    doc["basis"][0]["components"][0]["amplitude"] = value


@pytest.mark.parametrize("edit,value,named", [
    (_edit_bit, 1.5, "'alice_labels'"),
    (_edit_bit, True, "'alice_labels'"),
    (_edit_bit, 3, "'alice_labels'"),
    (_edit_key("eve_dim"), 9, "'eve_dim'"),
    (_edit_key("receiver"), 5, "'receiver'"),
    (_edit_key("label"), 5, "'label'"),
    (_edit_coefficient, [math.nan, 0.0], "isometry"),
    (_edit_amplitude, [math.nan, 0.0], "reachable space"),
], ids=["bit-1.5", "bit-true", "bit-3", "eve-dim-9", "receiver-5", "label-5",
        "coefficient-nan", "basis-amplitude-nan"])
def test_attack_file_with_a_wrong_typed_field_exits_2(tmp_path, edit, value,
                                                      named):
    # the unedited file is a valid (detectable) attack, so without the
    # type checks each of these would end in a verdict
    doc = json.loads((REPO_ROOT / "docs" / "examples"
                      / "cnot-ideal-attack.json").read_text())
    edit(doc, value)
    path = write_config(tmp_path / "attack.json", doc)
    payload = assert_one_error_line(
        *run_cli(["verify", "--receiver", "ideal-bb84", "--attack", path]))
    assert payload["code"] == "invalid-attack"
    assert named in payload["message"]


def test_attack_file_for_another_receiver_exits_2():
    path = REPO_ROOT / "docs" / "examples" / "cnot-ideal-attack.json"
    payload = assert_one_error_line(
        *run_cli(["verify", "--receiver", "interferometric-6mode",
                  "--attack", path]))
    assert payload["code"] == "invalid-attack"
    assert "reachable space" in payload["message"]


@pytest.mark.parametrize("slot", [1.9, True])
def test_replay_of_a_non_integer_time_slot_exits_2(tmp_path, slot):
    report = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--max-cases", 100, "--out", report])
    assert code == cli.EXIT_OK
    doc = json.loads(report.read_text())
    anomaly = doc["anomalies"][0]
    anomaly["input"]["pulses"][0]["time_slot"] = slot
    write_config(report, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", anomaly["anomaly_id"],
                  "--report", report]))
    assert payload["code"] == "invalid-config"
    assert "time slot" in payload["message"]


@pytest.mark.parametrize("key,value", [("polarization", True),
                                       ("mean_photons", "7")])
def test_replay_of_a_wrong_typed_pulse_field_exits_2(tmp_path, key, value):
    report = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--max-cases", 100, "--out", report])
    assert code == cli.EXIT_OK
    doc = json.loads(report.read_text())
    anomaly = doc["anomalies"][0]
    anomaly["input"]["pulses"][0][key] = value
    write_config(report, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", anomaly["anomaly_id"],
                  "--report", report]))
    assert payload["code"] == "invalid-config"
    assert key in payload["message"]


# a dotted key names a field inside the replayed anomaly
@pytest.mark.parametrize("key,value", [
    ("rng_seed", 0.5), ("test_cases_run", True), ("distinct_inputs", -1),
    ("anomalies.case_index", True), ("anomalies.replay_index", 2.9),
    ("anomalies.stage", -1), ("anomalies.anomaly_id", 7),
    ("anomalies.tag", None), ("anomalies.observation.clicks", "d_h"),
    ("anomalies.observation.interpretation", 5),
    ("anomalies.observation.basis_registered", 7),
    ("anomalies.observation.click_counts", {"d_h": -1})])
def test_replay_from_a_malformed_fuzz_report_field_exits_2(tmp_path, key,
                                                            value):
    report = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--max-cases", 400, "--out", report])
    assert code == cli.EXIT_OK
    doc = json.loads(report.read_text())
    anomaly_id = doc["anomalies"][0]["anomaly_id"]
    top, *inner = key.split(".")
    if inner:
        row = doc[top][0]
        for part in inner[:-1]:
            row = row[part]
        row[inner[-1]] = value
    else:
        doc[top] = value
    write_config(report, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", anomaly_id, "--report", report]))
    assert payload["code"] == "invalid-config"
    assert key.split(".")[-1] in payload["message"]


# each edit breaks the fuzz-report schema; a reader that let it through
# replayed the report and exited 4, or 0 for the id "zz", which reproduced
@pytest.mark.parametrize("edit,named", [
    (lambda a: a["observation"].update(clicks=["d_x"]), "clicks"),
    (lambda a: a["observation"].update(click_counts={"d_h": 0}),
     "click_counts"),
    (lambda a: a.update(tag="nonsense"), "tag"),
    (lambda a: a["input"]["pulses"][0].update(extra=1), "extra"),
    (lambda a: a["observation"].pop("clicks"), "clicks"),
    (lambda a: a.update(anomaly_id="zz"), "anomaly_id"),
    (lambda a: a["input"]["pulses"][0].update(mean_photons=0),
     "mean_photons"),
], ids=["unknown-click", "zero-count", "unknown-tag", "extra-pulse-key",
        "no-clicks", "unpatterned-id", "no-photons"])
def test_replay_from_a_report_outside_its_schema_exits_2(tmp_path, edit,
                                                         named):
    report = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--max-cases", 400, "--out", report])
    assert code == cli.EXIT_OK
    doc = json.loads(report.read_text())
    anomaly = doc["anomalies"][0]
    edit(anomaly)
    write_config(report, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", anomaly["anomaly_id"],
                  "--report", report]))
    assert payload["code"] == "invalid-config"
    assert named in payload["message"]


_CUSTOM = {
    "kind": "custom",
    "modes": ["polarization-H:0", "polarization-V:0"],
    "channel_modes": ["polarization-H:0", "polarization-V:0"],
    "settings": {"computational": {
        "input_basis": ["polarization-H:0", "polarization-V:0"],
        "output_basis": ["polarization-H:0", "polarization-V:0"],
        "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "outcomes": {"D0": ["polarization-H:0"], "D1": ["polarization-V:0"]},
        "interpretation": {"D0": "bit0", "D1": "bit1"}}},
    "source": {"computational/0": {"polarization-H:0": [1, 0]},
               "computational/1": {"polarization-V:0": [1, 0]}},
}


@pytest.mark.parametrize("receiver,key", [
    ({"kind": "custom", "modes": 5}, "modes"),
    ({**_CUSTOM, "channel_modes": "polarization-H:0"}, "channel_modes"),
    ({**_CUSTOM, "settings": []}, "settings"),
    ({**_CUSTOM, "settings": {}}, "settings"),
    ({**_CUSTOM, "source": 1}, "source"),
    ({**_CUSTOM, "max_photons": "3"}, "max_photons"),
    ({"kind": "ideal-bb84", "max_photons": 2.9}, "max_photons"),
    ({"kind": "blinded-bright", "bright_photons": "6"}, "bright_photons"),
    ({"kind": ["x"]}, "kind"),
    ({"kind": "ideal-bb84", "variant": 5}, "variant"),
])
def test_wrong_typed_receiver_config_exits_2(tmp_path, receiver, key):
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli(["reverse-space", "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    assert repr(key) in payload["message"]


def test_receiver_with_overlapping_outcome_states_exits_2(tmp_path):
    receiver = json.loads(json.dumps(_CUSTOM))
    receiver["settings"]["computational"]["outcomes"]["D1"].append(
        "polarization-H:0")
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli(["simulate", "--receiver", path, "--rounds", 10]))
    assert payload["code"] == "invalid-receiver"
    assert "'computational'" in payload["message"]
    assert "'D1'" in payload["message"]


@pytest.mark.parametrize("subcommand", ["reverse-space", "simulate"])
def test_receiver_naming_a_mode_twice_in_one_state_exits_2(tmp_path,
                                                            subcommand):
    # H:0x2 and H:0+H:0 are one state; taken as two, they would be two
    # orthogonal copies of |2_H>
    receiver = json.loads(json.dumps(_CUSTOM))
    receiver["max_photons"] = 2
    setting = receiver["settings"]["computational"]
    twice = ["polarization-H:0x2", "polarization-H:0+polarization-H:0"]
    setting["input_basis"] += twice
    setting["output_basis"] += twice
    setting["matrix"] = [[[int(r == c), 0] for c in range(4)]
                         for r in range(4)]
    setting["outcomes"].update(D2=twice[:1], D3=twice[1:])
    setting["interpretation"].update(D2="invalid", D3="invalid")
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli([subcommand, "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    assert "polarization-H:0 is named twice" in payload["message"]


@pytest.mark.parametrize("subcommand", ["reverse-space", "synth"])
@pytest.mark.parametrize("key,value,named", [
    ("outcomes", {"D0": ["polarization-H:0"],
                  "D1": ["polarization-H:0+polarization-V:0"]}, "'D1'"),
    ("input_basis", ["polarization-H:0", "custom:0"], "custom:0"),
    ("output_basis", ["polarization-H:0", "custom:0"], "custom:0"),
], ids=["outcome-outside-output-basis", "input-basis-mode",
        "output-basis-mode"])
def test_receiver_setting_outside_its_bases_exits_2(tmp_path, subcommand,
                                                    key, value, named):
    receiver = json.loads(json.dumps(_CUSTOM))
    receiver["settings"]["computational"][key] = value
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli([subcommand, "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    assert named in payload["message"]


@pytest.mark.parametrize("subcommand", ["reverse-space", "synth", "simulate"])
@pytest.mark.parametrize("labels", [
    ("computational/0", "computational/2"),
    ("foo/0", "foo/1"),
    ("computational0", "computational/1"),
], ids=["bit-2", "unknown-basis", "no-slash"])
def test_receiver_with_a_malformed_source_label_exits_2(tmp_path, subcommand,
                                                        labels):
    receiver = dict(_CUSTOM, source={
        labels[0]: {"polarization-H:0": [1, 0]},
        labels[1]: {"polarization-V:0": [1, 0]}})
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli([subcommand, "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    bad = labels[1] if labels[0] == "computational/0" else labels[0]
    assert repr(bad) in payload["message"]


@pytest.mark.parametrize("subcommand", ["reverse-space", "synth"])
@pytest.mark.parametrize("path,named", [
    (("settings", "computational", "matrix", 0, 0), "'matrix'"),
    (("source", "computational/0", "polarization-H:0"),
     "'polarization-H:0'"),
], ids=["matrix-entry", "source-amplitude"])
def test_receiver_with_a_non_finite_number_exits_2(tmp_path, subcommand,
                                                   path, named):
    # json reads NaN, and NaN passes every check written ``x > tol``
    receiver = json.loads(json.dumps(_CUSTOM))
    target = receiver
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = [math.nan, 0]
    payload = assert_one_error_line(*run_cli(
        [subcommand, "--receiver", write_config(tmp_path / "r.json",
                                                receiver)]))
    assert payload["code"] == "invalid-receiver"
    assert named in payload["message"]


def _run_on_receiver(subcommand, path):
    argv = [subcommand, "--receiver", path]
    if subcommand == "verify":
        argv += ["--attack",
                 REPO_ROOT / "docs" / "examples" / "cnot-ideal-attack.json"]
    return run_cli(argv)


@pytest.mark.parametrize("subcommand",
                         ["reverse-space", "synth", "verify", "simulate"])
def test_receiver_source_outside_an_input_basis_exits_2(tmp_path,
                                                         subcommand):
    receiver = json.loads(json.dumps(_CUSTOM))
    receiver["max_photons"] = 2
    receiver["source"]["computational/1"] = {"polarization-V:0x2": [1, 0]}
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(*_run_on_receiver(subcommand, path))
    assert payload["code"] == "invalid-receiver"
    for named in ("'computational/1'", "'computational'",
                  "polarization-V:0x2"):
        assert named in payload["message"]


@pytest.mark.parametrize("subcommand",
                         ["reverse-space", "synth", "verify", "simulate"])
def test_receiver_channel_mode_outside_its_modes_exits_2(tmp_path,
                                                         subcommand):
    receiver = dict(_CUSTOM, channel_modes=["polarization-H:0", "custom:5"])
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(*_run_on_receiver(subcommand, path))
    assert payload["code"] == "invalid-receiver"
    assert "'channel_modes'" in payload["message"]
    assert "custom:5" in payload["message"]


@pytest.mark.parametrize("subcommand", ["reverse-space", "synth", "verify"])
def test_receiver_source_outside_its_reversed_space_exits_2(tmp_path,
                                                            subcommand):
    # nothing the receiver registers reaches V, so no zero-error
    # strategy can reproduce the computational/1 state
    receiver = json.loads(json.dumps(_CUSTOM))
    setting = receiver["settings"]["computational"]
    setting["outcomes"] = {"D0": ["polarization-H:0"]}
    setting["interpretation"] = {"D0": "bit0"}
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(*_run_on_receiver(subcommand, path))
    assert payload["code"] == "invalid-receiver"
    assert "reachable space" in payload["message"]


def test_replay_from_a_keyless_fuzz_report_exits_2(tmp_path):
    path = write_config(tmp_path / "fuzz.json", {"schema": "fuzz-report/1"})
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", "a0001", "--report", path]))
    assert payload["code"] == "invalid-config"
    assert "lacks the key" in payload["message"]


def _cli_fuzz_report(tmp_path):
    path = tmp_path / "fuzz.json"
    code, _, _ = run_cli(["fuzz", "--p-th", 10, "--blind-threshold", 100,
                          "--recovery-slots", 2, "--seed", 3,
                          "--max-cases", 3000, "--out", path])
    assert code == cli.EXIT_OK
    return path, json.loads(path.read_text())


def test_replay_from_a_fuzz_report_without_device_exits_2(tmp_path):
    # the device parameters are part of the report, never assumed
    path, doc = _cli_fuzz_report(tmp_path)
    assert run_cli(["fuzz", "--replay", "a0030", "--report", path])[0] \
        == cli.EXIT_OK
    del doc["device"]
    write_config(path, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", "a0030", "--report", path]))
    assert payload["code"] == "invalid-config"
    assert "lacks the key 'device'" in payload["message"]


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("flag", ["--p-th", "--blind-threshold"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_fuzz_threshold_flag_exits_2(tmp_path, flag, value):
    out = tmp_path / "fuzz.json"
    code, stdout, stderr = run_cli(["fuzz", flag, value, "--max-cases", 10,
                                    "--out", out])
    assert_one_error_line(code, stdout, stderr)
    assert _strict_json(stderr)["code"] == "invalid-config"
    assert not out.exists()


@pytest.mark.parametrize("key", ["p_th", "blind_threshold"])
def test_replay_with_a_non_finite_device_threshold_exits_2(tmp_path, key):
    path, doc = _cli_fuzz_report(tmp_path)
    doc["device"][key] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", "a0030", "--report", path]))
    assert payload["code"] == "invalid-config"
    assert f"{key} must be finite" in payload["message"]


@pytest.mark.parametrize("key,value", [
    ("p_th", True), ("p_th", None), ("blind_threshold", "400"),
    ("geiger_efficiency", True), ("recovery_slots", 2.5),
])
def test_replay_with_a_wrong_typed_device_parameter_exits_2(tmp_path, key,
                                                            value):
    path, doc = _cli_fuzz_report(tmp_path)
    doc["device"][key] = value
    write_config(path, doc)
    payload = assert_one_error_line(
        *run_cli(["fuzz", "--replay", "a0030", "--report", path]))
    assert payload["code"] == "invalid-config"
    assert "'device'" in payload["message"] and key in payload["message"]


@pytest.mark.parametrize("schema,key", [
    ("simulation-report/1", "per_basis"),
    ("fuzz-report/1", "properties_found"),
    ("reverse-space/1", "receiver"),
    ("attack-family/1", "receiver"),
    ("verification/1", "oblivious"),
    ("attack-registry/1", "records"),
])
def test_report_on_an_artifact_missing_a_key_exits_2(tmp_path, schema, key):
    path = write_config(tmp_path / "artifact.json", {"schema": schema})
    payload = assert_one_error_line(*run_cli(["report", path]))
    assert payload["code"] == "invalid-config"
    assert payload["context"]["key"] == key
    assert repr(key) in payload["message"]


def test_report_on_a_malformed_artifact_field_exits_2(tmp_path):
    path = write_config(tmp_path / "artifact.json", {
        "schema": "verification/1", "receiver": "r", "attack_label": "x",
        "oblivious": True, "max_error_amplitude": "large"})
    payload = assert_one_error_line(*run_cli(["report", path]))
    assert payload["code"] == "invalid-config"
    assert payload["context"]["schema"] == "verification/1"
    assert payload["context"]["field"] == "max_error_amplitude"


# ---------------------------------------------------------------------------
# report checks the JSON type of every field it renders
# ---------------------------------------------------------------------------

# a value of each JSON type
_JSON_SAMPLES = {"string": "x", "integer": 7, "number": 0.25,
                 "boolean": True, "array": [], "object": {}, "null": None}

# the fields each artifact's summary rows show, as paths into its document
_RENDERED = {
    "simulation-report": [
        ("per_basis",), ("per_basis", "computational"),
        ("per_basis", "computational", "detection_efficiency"),
        ("qber_pooled",), ("receiver",), ("channel",), ("rounds",),
        ("eve_guess_accuracy",)],
    "fuzz-report": [
        ("properties_found",), ("properties_found", 0), ("test_cases_run",),
        ("anomalies",), ("derived_vulnerabilities",)],
    "reverse-space": [("receiver",), ("dimension",), ("constraints",)],
    "attack-family": [
        ("receiver",), ("family_dimension",), ("canonical",),
        ("canonical", "eve_dim"), ("only_trivial",)],
    "verification": [
        ("oblivious",), ("receiver",), ("attack_label",),
        ("max_error_amplitude",)],
    "attack-registry": [
        ("records",), ("records", 1), ("records", 1, "name"),
        ("records", 1, "class"), ("records", 1, "tags"),
        ("records", 1, "tags", 0)],
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A well-formed artifact of each schema, as its run wrote it."""
    out = tmp_path_factory.mktemp("artifacts")
    runs = {
        "simulation-report": ["simulate", "--receiver", "ideal-bb84",
                              "--attack", "cnot", "--rounds", 2000],
        "fuzz-report": ["fuzz", "--max-cases", 1000],
        "reverse-space": ["reverse-space", "--receiver", "ideal-bb84"],
        "attack-family": ["synth", "--receiver", "interferometric-6mode"],
        "verification": ["verify", "--receiver", "interferometric-6mode",
                         "--attack", "faked-states"],
        "attack-registry": ["classify"],
    }
    docs = {}
    for name, argv in runs.items():
        path = out / f"{name}.json"
        assert run_cli(argv + ["--out", path])[0] == cli.EXIT_OK
        docs[name] = json.loads(path.read_text())
    return docs


def _json_type(value):
    return next(name for name, sample in _JSON_SAMPLES.items()
                if type(value) is type(sample))


def _declared_types(name, path):
    """The JSON types ``name``.schema.json declares at ``path``; an integer
    is a number too."""
    node = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    for key in path + (None,):
        if "$ref" in node:
            node = json.loads((SCHEMA_DIR / node["$ref"]).read_text())
        if key is None:
            break
        if isinstance(key, int):
            node = node["items"]
        else:
            node = node.get("properties", {}).get(
                key, node.get("additionalProperties"))
    if "type" in node:
        kinds = node["type"]
        kinds = {kinds} if isinstance(kinds, str) else set(kinds)
    else:
        kinds = {_json_type(value) for value in node["enum"]}
    return kinds | {"integer"} if "number" in kinds else kinds


def _field_name(path):
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}"
    return name.lstrip(".")


@pytest.mark.parametrize("name,path", [
    (name, path) for name, paths in _RENDERED.items() for path in paths
], ids=lambda value: _field_name(value) if isinstance(value, tuple)
    else value)
def test_report_checks_the_json_type_of_each_rendered_field(
        tmp_path, artifacts, name, path):
    declared = _declared_types(name, path)
    *outer, last = path
    original = artifacts[name]
    for key in path:
        original = original[key]
    for json_type, sample in _JSON_SAMPLES.items():
        doc = json.loads(json.dumps(artifacts[name]))
        parent = doc
        for key in outer:
            parent = parent[key]
        parent[last] = original if json_type == _json_type(original) \
            else sample
        artifact = write_config(tmp_path / "artifact.json", doc)
        result = run_cli(["report", artifact])
        if json_type in declared:
            assert result[0] == cli.EXIT_OK, (json_type, result[2])
            continue
        payload = assert_one_error_line(*result)
        assert payload["code"] == "invalid-config"
        assert payload["context"]["field"] == _field_name(path), json_type
        assert repr(_field_name(path)) in payload["message"]


def test_report_rejects_mistyped_fuzz_and_registry_fields(tmp_path,
                                                          artifacts):
    fuzz = dict(artifacts["fuzz-report"], test_cases_run="many",
                properties_found="AB", anomalies="abc")
    registry = json.loads(json.dumps(artifacts["attack-registry"]))
    registry["records"][0]["tags"] = "ab"
    for doc, field in [(fuzz, "properties_found"),
                       (registry, "records[0].tags")]:
        path = write_config(tmp_path / "artifact.json", doc)
        payload = assert_one_error_line(*run_cli(["report", path]))
        assert payload["context"]["field"] == field
        assert f"{field!r} must be array, got string" in payload["message"]


def test_report_on_a_number_too_large_for_a_float_exits_2(tmp_path,
                                                          artifacts):
    doc = dict(artifacts["verification"], max_error_amplitude=10 ** 400)
    path = write_config(tmp_path / "artifact.json", doc)
    payload = assert_one_error_line(*run_cli(["report", path]))
    assert payload["code"] == "invalid-config"
    assert payload["context"]["schema"] == "verification/1"


# ---------------------------------------------------------------------------
# a failed write keeps the previous artifact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag,producer", [
    ("--out", "_dump"),
    ("--dot", "registry_to_dot"),
])
def test_failed_artifact_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                                       flag, producer):
    path = tmp_path / "artifact"
    code, _, _ = run_cli(["classify", flag, path])
    assert code == cli.EXIT_OK
    before = path.read_bytes()

    # a lone surrogate cannot be encoded, so the write fails after the
    # output file has been opened
    module = cli if producer == "_dump" else cl
    monkeypatch.setattr(module, producer, lambda *args: "\ud800")
    with pytest.raises(UnicodeEncodeError):
        run_cli(["classify", flag, path, "--seed", 1])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


# ---------------------------------------------------------------------------
# property: malformed input never escapes as a traceback
# ---------------------------------------------------------------------------

_JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers()
    | hst.floats(allow_nan=False) | hst.text(max_size=5),
    lambda inner: hst.lists(inner, max_size=3)
    | hst.dictionaries(hst.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _admits(option, value):
    """Whether a config value has the JSON type the option declares."""
    if value is None:
        return option.default is None
    if isinstance(value, bool):
        return False
    if option.type is float:
        return isinstance(value, (int, float))
    if option.type is list:
        return isinstance(value, list) and all(isinstance(v, str)
                                               for v in value)
    return isinstance(value, option.type)


@hst.composite
def wrong_typed_configs(draw):
    subcommand = draw(hst.sampled_from(sorted(cli._OPTIONS)))
    table = cli._OPTIONS[subcommand]
    key = draw(hst.sampled_from(sorted(table)))
    value = draw(_JSON_VALUES.filter(lambda v: not _admits(table[key], v)))
    return subcommand, {key: value}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=wrong_typed_configs())
def test_any_wrong_typed_config_value_exits_2(tmp_path, case):
    subcommand, config = case
    path = write_config(tmp_path / "cfg.json", config)
    payload = assert_one_error_line(*run_cli([subcommand, "--config", path]))
    assert payload["code"] == "invalid-config-type"


def _unparsable(kind):
    def fails(text):
        try:
            kind(text)
        except ValueError:
            return True
        return False
    return fails


_FLAG_NAMES = hst.text(alphabet="abcdefghijklmnopqrstuvwxyz-_",
                       min_size=1, max_size=12)


@hst.composite
def malformed_argvs(draw):
    subcommand = draw(hst.sampled_from(sorted(cli._OPTIONS)))
    table = cli._OPTIONS[subcommand]
    numeric = sorted(k for k, o in table.items() if o.type in (int, float))
    shape = draw(hst.sampled_from(["subcommand", "flag", "value"]
                                  if numeric else ["subcommand", "flag"]))
    if shape == "subcommand":
        word = draw(hst.text(min_size=1, max_size=12).filter(
            lambda w: w not in cli._OPTIONS and not w.startswith("-")))
        return [word] + draw(hst.lists(hst.text(max_size=5), max_size=2))
    if shape == "flag":
        # "--h" .. "--help" would print the usage and exit 0
        name = draw(_FLAG_NAMES.filter(lambda n: not "help".startswith(n)
                                       and n != "-"))
        return [subcommand, "--" + name]
    key = draw(hst.sampled_from(numeric))
    text = draw(hst.text(max_size=8).filter(_unparsable(table[key].type)))
    return [subcommand, "--" + key.replace("_", "-"), text]


@settings(max_examples=80, deadline=None)
@given(argv=malformed_argvs())
def test_any_malformed_argv_exits_2(argv):
    assert_one_error_line(*run_cli(argv))


# ---------------------------------------------------------------------------
# receivers: only what the chosen kind reads
# ---------------------------------------------------------------------------

def _reads(kind):
    """The keywords a bundled kind reads: its builder's parameters."""
    return set(inspect.signature(rc._BUNDLED[kind]).parameters)


_FLAGS = {"variant": ["--variant", "single-window"],
          "max_photons": ["--max-photons", 2]}


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind in rc.RECEIVER_KINDS for key in _FLAGS
    if key not in _reads(kind)])
def test_a_flag_the_kind_does_not_read_exits_2(kind, key):
    payload = assert_one_error_line(
        *run_cli(["reverse-space", "--receiver", kind, *_FLAGS[key]]))
    assert payload["code"] == "invalid-receiver"
    assert repr(key) in payload["message"]


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind in rc.RECEIVER_KINDS
    for key in ("variant", "max_photons", "bright_photons")
    if key not in _reads(kind)])
def test_a_receiver_file_key_the_kind_does_not_read_exits_2(tmp_path, kind,
                                                            key):
    value = {"variant": "single-window", "max_photons": 2,
             "bright_photons": 6}[key]
    path = write_config(tmp_path / "receiver.json", {"kind": kind, key: value})
    payload = assert_one_error_line(
        *run_cli(["reverse-space", "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    assert repr(key) in payload["message"]


@pytest.mark.parametrize("receiver,key", [
    ({"kind": "ideal-bb84", "foo": 1}, "foo"),
    ({**_CUSTOM, "bogus": 1}, "bogus"),
    ({**_CUSTOM, "passive": "no"}, "passive"),
    ({**_CUSTOM, "settings": {"computational": {
        **_CUSTOM["settings"]["computational"], "extra": 1}}}, "extra"),
])
def test_receiver_file_with_an_unknown_key_exits_2(
        tmp_path, receiver, key):
    path = write_config(tmp_path / "receiver.json", receiver)
    payload = assert_one_error_line(
        *run_cli(["reverse-space", "--receiver", path]))
    assert payload["code"] == "invalid-receiver"
    assert repr(key) in payload["message"]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(_FLAGS))
def test_receiver_options_with_a_receiver_file_exit_2(tmp_path, via, key):
    receiver = write_config(tmp_path / "receiver.json",
                            {"kind": "interferometric-2mode"})
    argv = ["reverse-space", "--receiver", receiver]
    if via == "flag":
        argv += _FLAGS[key]
    else:
        argv += ["--config", write_config(
            tmp_path / "scenario.json",
            {"subcommand": "reverse-space", key: _FLAGS[key][1]})]
    payload = assert_one_error_line(*run_cli(argv))
    assert payload["code"] == "invalid-receiver"
    assert repr(key) in payload["message"]
