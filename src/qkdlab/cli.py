"""Command-line frontend tying the toolkit together.

Subcommands mirror the analysis workflow: ``reverse-space`` measures the
span a receiver's interpretation really responds to, ``synth`` solves it
for undetectable attack families, ``verify`` audits a stored strategy,
``simulate`` runs key-exchange sessions under a channel model, ``fuzz``
black-box-probes a detector device, ``classify`` exports the attack
taxonomy, and ``report`` renders stored artifacts as tables.

All artifacts are JSON with sorted keys, all randomness flows from the
``--seed`` flag (default 0, echoed into every artifact), and errors are
reported as one machine-readable JSON object on stderr.  Diagnostics go
to stderr as newline-delimited JSON, gated by ``QKDLAB_LOG_LEVEL``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import attacks as atk
from . import classify as cl
from . import fuzz as fz
from . import protocol as proto
from . import receivers as rc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4

_LOG_LEVELS = {"error": 0, "warn": 1, "info": 2, "debug": 3}

_NAMED_ATTACKS = {
    "trivial": atk.trivial_attack,
    "cnot": atk.cnot_attack,
    "faked-states": atk.faked_states_attack,
    "two-mode": atk.two_mode_attack,
    "full-information": atk.full_information_attack,
    "bright-pulse": atk.bright_pulse_attack,
}

_BASIS_SHORT = {rc.COMPUTATIONAL: "comp", rc.HADAMARD: "had", rc.Y_BASIS: "y"}


class CliError(Exception):
    """An error with a fixed exit code and machine-readable payload."""

    def __init__(self, exit_code: int, code: str, message: str,
                 context: Optional[dict] = None):
        super().__init__(message)
        self.exit_code = exit_code
        self.code = code
        self.context = context or {}

    def payload(self) -> dict:
        return {"code": self.code, "message": str(self), "context": self.context}


def _log(level: str, event: str, **fields) -> None:
    threshold = os.environ.get("QKDLAB_LOG_LEVEL", "warn").lower()
    if _LOG_LEVELS.get(threshold) is None:
        threshold = "warn"
    if _LOG_LEVELS[level] > _LOG_LEVELS[threshold]:
        return
    record = {"level": level, "event": event}
    record.update(fields)
    print(json.dumps(record, sort_keys=True, separators=(",", ":")),
          file=sys.stderr)


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _ensure_parent(path_text: Optional[str]) -> None:
    if path_text is None:
        return
    parent = Path(path_text).parent
    if parent != Path("."):
        parent.mkdir(parents=True, exist_ok=True)


def _write_artifact(out: Optional[str], data: dict) -> None:
    if out is None:
        return
    _ensure_parent(out)
    Path(out).write_text(_dump(data), encoding="utf-8")
    _log("info", "artifact-written", path=str(out), schema=data.get("schema"))


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(EXIT_CONFIG, "file-not-found",
                       f"{what} file {path!r} does not exist",
                       {"path": path})
    except json.JSONDecodeError as err:
        raise CliError(EXIT_CONFIG, "invalid-json",
                       f"{what} file {path!r} is not valid JSON: {err}",
                       {"path": path})


# ---------------------------------------------------------------------------
# option resolution: defaults < config file < explicit flags
# ---------------------------------------------------------------------------

_OPTION_DEFAULTS: Dict[str, Dict[str, object]] = {
    "reverse-space": {"receiver": None, "variant": None, "max_photons": None,
                      "seed": 0, "out": None},
    "synth": {"receiver": None, "variant": None, "max_photons": None,
              "eve_dim": None, "seed": 0, "out": None},
    "verify": {"receiver": None, "variant": None, "max_photons": None,
               "attack": None, "seed": 0, "out": None},
    "simulate": {"receiver": None, "variant": None, "max_photons": None,
                 "attack": None, "channel": None, "p_multi": None,
                 "loss": None, "rounds": 10000, "seed": 0, "out": None,
                 "log": None},
    "fuzz": {"seed": 0, "max_cases": 10000, "p_th": None,
             "blind_threshold": None, "recovery_slots": None, "out": None,
             "trace": None, "replay": None, "report": None},
    "classify": {"seed": 0, "out": None, "dot": None},
    "report": {"artifacts": [], "seed": 0},
}


def _resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    defaults = _OPTION_DEFAULTS[subcommand]
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        config = _load_json(config_path, "config")
        if not isinstance(config, dict):
            raise CliError(EXIT_CONFIG, "invalid-config",
                           "config must be a JSON object",
                           {"path": config_path})
        declared = config.pop("subcommand", subcommand)
        if declared != subcommand:
            raise CliError(EXIT_CONFIG, "subcommand-mismatch",
                           f"config declares subcommand {declared!r} but "
                           f"{subcommand!r} was invoked",
                           {"path": config_path})
        unknown = set(config) - set(defaults)
        if unknown:
            raise CliError(EXIT_CONFIG, "unknown-config-keys",
                           f"config keys {sorted(unknown)} are not options "
                           f"of {subcommand!r}",
                           {"allowed": sorted(defaults)})
        merged.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None and value != []:
            merged[key] = value
    return merged


def _require(opts: dict, key: str, subcommand: str):
    if opts.get(key) is None:
        raise CliError(EXIT_CONFIG, "missing-option",
                       f"{subcommand} needs --{key.replace('_', '-')} "
                       f"(or the config key {key!r})", {"option": key})
    return opts[key]


def _load_receiver(opts: dict, subcommand: str) -> rc.ReceiverModel:
    spec = _require(opts, "receiver", subcommand)
    try:
        if isinstance(spec, str) and (spec.endswith(".json")
                                      or os.path.sep in spec):
            return rc.receiver_from_config(_load_json(spec, "receiver"))
        kwargs = {}
        if opts.get("max_photons") is not None:
            kwargs["max_photons"] = int(opts["max_photons"])
        return rc.make_receiver(spec, opts.get("variant"), **kwargs)
    except (ValueError, KeyError) as err:
        raise CliError(EXIT_CONFIG, "invalid-receiver", str(err),
                       {"receiver": spec})


def _load_attack(spec: str, receiver: rc.ReceiverModel) -> atk.AttackIsometry:
    if spec in _NAMED_ATTACKS:
        try:
            return _NAMED_ATTACKS[spec](receiver)
        except atk.AttackError as err:
            raise CliError(EXIT_CONFIG, "invalid-attack",
                           f"cannot build attack {spec!r} against "
                           f"{receiver.name!r}: {err}",
                           {"attack": spec, "receiver": receiver.name})
    if spec.endswith(".json") or os.path.sep in spec:
        try:
            return atk.AttackIsometry.from_json_dict(
                _load_json(spec, "attack"))
        except atk.AttackError as err:
            raise CliError(EXIT_CONFIG, "invalid-attack", str(err),
                           {"path": spec})
    raise CliError(EXIT_CONFIG, "invalid-attack",
                   f"unknown attack {spec!r}; use one of "
                   f"{sorted(_NAMED_ATTACKS)} or a JSON file",
                   {"attack": spec})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_reverse_space(opts: dict) -> int:
    receiver = _load_receiver(opts, "reverse-space")
    system = atk.build_constraint_system(receiver)
    artifact = {
        "schema": "reverse-space/1",
        "rng_seed": int(opts["seed"]),
        "receiver": receiver.name,
        "dimension": system.n_basis,
        "constraints": system.n_rows,
        "has_vacuum_direction": system.vacuum_index is not None,
    }
    _write_artifact(opts["out"], artifact)
    print(f"reverse-space receiver={receiver.name} "
          f"dimension={system.n_basis} constraints={system.n_rows}")
    return EXIT_OK


def _cmd_synth(opts: dict) -> int:
    receiver = _load_receiver(opts, "synth")
    system = atk.build_constraint_system(receiver)
    eve_dim = opts.get("eve_dim")
    try:
        family = atk.synthesize_attacks(
            system, None if eve_dim is None else int(eve_dim))
    except atk.InfeasibleAttackError as err:
        raise CliError(EXIT_INFEASIBLE, "infeasible-synthesis", str(err),
                       {"receiver": receiver.name,
                        "minimal_feasible": err.minimal_feasible})
    except atk.AttackError as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err),
                       {"receiver": receiver.name})
    note = ("only the pass-through strategy satisfies the zero-error "
            "conditions" if family.only_trivial else "")
    artifact = {
        "schema": "attack-family/1",
        "rng_seed": int(opts["seed"]),
        "receiver": receiver.name,
        "family_dimension": family.dimension,
        "non_vacuum_dimension": family.non_vacuum_dimension,
        "only_trivial": family.only_trivial,
        "parameter_names": list(family.parameter_names),
        "canonical": family.canonical.to_json_dict(),
        "note": note,
    }
    _write_artifact(opts["out"], artifact)
    line = (f"synth receiver={receiver.name} "
            f"family-dimension={family.dimension} "
            f"eve-dim={family.canonical.eve_dim}")
    if family.only_trivial:
        line += " only-trivial"
    print(line)
    return EXIT_OK


def _cmd_verify(opts: dict) -> int:
    receiver = _load_receiver(opts, "verify")
    attack = _load_attack(_require(opts, "attack", "verify"), receiver)
    report = atk.verify_oblivious(attack, receiver=receiver)
    failing = [
        {"alice_basis": row.alice_label[0], "alice_bit": row.alice_label[1],
         "setting": row.setting, "outcome": row.outcome_id,
         "support_index": row.support_index, "residual": res}
        for row, res in report.failing_rows()[:20]
    ]
    artifact = {
        "schema": "verification/1",
        "rng_seed": int(opts["seed"]),
        "receiver": receiver.name,
        "attack_label": attack.label,
        "oblivious": report.oblivious,
        "max_error_amplitude": report.max_error_amplitude,
        "isometry_residual": report.isometry_residual,
        "failing_rows": failing,
    }
    _write_artifact(opts["out"], artifact)
    verdict = "oblivious" if report.oblivious else "detectable"
    print(f"verify receiver={receiver.name} attack={attack.label or '?'} "
          f"verdict={verdict} "
          f"max-residual={report.max_error_amplitude:.3e}")
    if not report.oblivious:
        _log("error", "verification-failed",
             attack=attack.label, receiver=receiver.name,
             max_error_amplitude=report.max_error_amplitude)
        return EXIT_VERIFICATION
    return EXIT_OK


def _channel_from_options(opts: dict,
                          receiver: rc.ReceiverModel) -> proto.ChannelModel:
    attack_spec = opts.get("attack")
    kind = opts.get("channel")
    if attack_spec is not None:
        if kind not in (None, proto.ATTACK):
            raise CliError(EXIT_CONFIG, "invalid-config",
                           "--attack conflicts with --channel "
                           f"{kind!r}", {"channel": kind})
        return proto.make_channel(proto.ATTACK,
                                  _load_attack(attack_spec, receiver))
    if kind in (None, proto.IDENTITY):
        return proto.make_channel(proto.IDENTITY)
    try:
        if kind == proto.PNS:
            return proto.make_channel(
                kind, float(_require(opts, "p_multi", "simulate")))
        if kind == proto.LOSSY:
            return proto.make_channel(
                kind, float(_require(opts, "loss", "simulate")))
    except proto.ProtocolError as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err),
                       {"channel": kind})
    raise CliError(EXIT_CONFIG, "invalid-config",
                   f"unknown channel kind {kind!r}",
                   {"choices": [proto.IDENTITY, proto.ATTACK, proto.PNS,
                                proto.LOSSY]})


def _simulation_rows(artifact: dict) -> List[str]:
    per_basis = artifact["per_basis"]
    parts = []
    for basis in sorted(per_basis, key=lambda b: (b != rc.COMPUTATIONAL, b)):
        eff = per_basis[basis]["detection_efficiency"]
        short = _BASIS_SHORT.get(basis, basis)
        parts.append(f"{short}=" + ("n/a" if eff is None else f"{eff:.3f}"))
    qber = artifact["qber_pooled"]
    qber_text = "n/a" if qber is None else f"{qber:g}"
    rows = ["efficiency " + " ".join(parts) + f" qber={qber_text}"]
    eve = artifact.get("eve_guess_accuracy")
    if eve is not None:
        rows.append(f"eve-accuracy {eve:.3f}")
    return rows


def _cmd_simulate(opts: dict) -> int:
    receiver = _load_receiver(opts, "simulate")
    channel = _channel_from_options(opts, receiver)
    rounds = int(opts["rounds"])
    _ensure_parent(opts.get("log"))
    try:
        report = proto.run_bb84(None, channel, receiver,
                                rounds, seed=int(opts["seed"]),
                                log_path=opts.get("log"))
    except (proto.ProtocolError, atk.AttackError) as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err),
                       {"receiver": receiver.name})
    artifact = report.to_json_dict()
    _write_artifact(opts["out"], artifact)
    print(f"simulate receiver={receiver.name} "
          f"channel={report.channel} rounds={rounds}")
    for row in _simulation_rows(artifact):
        print(row)
    return EXIT_OK


def _fuzz_device(opts: dict) -> fz.APDReceiverDevice:
    kwargs = {}
    if opts.get("p_th") is not None:
        kwargs["p_th"] = float(opts["p_th"])
    if opts.get("blind_threshold") is not None:
        kwargs["blind_threshold"] = float(opts["blind_threshold"])
    if opts.get("recovery_slots") is not None:
        kwargs["recovery_slots"] = int(opts["recovery_slots"])
    try:
        return fz.make_apd_receiver_device(fz.APDParams(**kwargs))
    except fz.FuzzError as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err), kwargs)


def _cmd_fuzz(opts: dict) -> int:
    if opts.get("replay"):
        source = _require(opts, "report", "fuzz --replay")
        stored = _load_json(source, "fuzz report")
        try:
            report = fz.report_from_json_dict(stored)
            device = fz.make_apd_receiver_device(
                fz.APDParams(**stored.get("device", {})))
            observation, reproduced = fz.replay_anomaly(
                device, report, opts["replay"])
        except (fz.FuzzError, TypeError) as err:
            raise CliError(EXIT_CONFIG, "invalid-config", str(err),
                           {"report": source, "anomaly": opts["replay"]})
        print(f"replay anomaly={opts['replay']} "
              f"interpretation={observation.interpretation} "
              f"reproduced={str(reproduced).lower()}")
        if not reproduced:
            _log("error", "replay-mismatch", anomaly=opts["replay"])
            return EXIT_VERIFICATION
        return EXIT_OK

    device = _fuzz_device(opts)
    _ensure_parent(opts.get("trace"))
    try:
        config = fz.default_config(device.params,
                                   max_cases=int(opts["max_cases"]))
        report = fz.run_fuzz_campaign(device, config, seed=int(opts["seed"]),
                                      trace_path=opts.get("trace"))
    except fz.FuzzError as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err),
                       {"seed": opts["seed"], "max_cases": opts["max_cases"]})
    artifact = report.to_json_dict()
    artifact["device"] = {
        "p_th": device.params.p_th,
        "blind_threshold": device.params.blind_threshold,
        "recovery_slots": device.params.recovery_slots,
        "geiger_efficiency": device.params.geiger_efficiency,
    }
    _write_artifact(opts["out"], artifact)
    names = ",".join(report.properties_found) or "none"
    print(f"fuzz cases={report.test_cases_run} properties={names} "
          f"anomalies={len(report.anomalies)} "
          f"derived={len(report.derived_vulnerabilities)}")
    return EXIT_OK


def _cmd_classify(opts: dict) -> int:
    artifact = cl.registry_to_json_dict()
    artifact["rng_seed"] = int(opts["seed"])
    _write_artifact(opts["out"], artifact)
    if opts.get("dot"):
        dot_path = Path(opts["dot"])
        if dot_path.parent != Path("."):
            dot_path.parent.mkdir(parents=True, exist_ok=True)
        dot_path.write_text(cl.registry_to_dot(), encoding="utf-8")
        _log("info", "artifact-written", path=str(opts["dot"]))
    for record in cl.registry():
        tags = ",".join(sorted(record.tags)) or "-"
        print(f"classify {record.name} class={record.expected_class} "
              f"families={tags}")
    return EXIT_OK


def _render_artifact(data: dict) -> List[str]:
    schema = data.get("schema")
    if schema == proto.REPORT_SCHEMA:
        return _simulation_rows(data)
    if schema == fz.REPORT_SCHEMA:
        names = ",".join(data["properties_found"]) or "none"
        return [f"fuzz properties={names} "
                f"anomalies={len(data['anomalies'])} "
                f"derived={len(data['derived_vulnerabilities'])}"]
    if schema == "reverse-space/1":
        return [f"reverse-space receiver={data['receiver']} "
                f"dimension={data['dimension']} "
                f"constraints={data['constraints']}"]
    if schema == "attack-family/1":
        row = (f"attack-family receiver={data['receiver']} "
               f"dimension={data['family_dimension']}")
        if data["only_trivial"]:
            row += " only-trivial"
        return [row]
    if schema == "verification/1":
        verdict = "oblivious" if data["oblivious"] else "detectable"
        return [f"verification attack={data['attack_label'] or '?'} "
                f"verdict={verdict} "
                f"max-residual={data['max_error_amplitude']:.3e}"]
    if schema == "attack-registry/1":
        return [f"registry records={len(data['records'])}"]
    raise CliError(EXIT_CONFIG, "schema-mismatch",
                   f"cannot render artifacts with schema {schema!r}",
                   {"schema": schema})


def _cmd_report(opts: dict) -> int:
    for path in opts["artifacts"]:
        for row in _render_artifact(_load_json(path, "artifact")):
            print(row)
    return EXIT_OK


_HANDLERS = {
    "reverse-space": _cmd_reverse_space,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "fuzz": _cmd_fuzz,
    "classify": _cmd_classify,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description="Receiver attack analysis toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def receiver_flags(p):
        p.add_argument("--receiver", help="receiver kind or JSON config")
        p.add_argument("--variant", help="receiver variant name")
        p.add_argument("--max-photons", type=int, dest="max_photons")

    def common_flags(p):
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--out", help="artifact output path")
        p.add_argument("--config", help="JSON config with option values")

    p = sub.add_parser("reverse-space",
                       help="span the receiver's interpretation acts on")
    receiver_flags(p)
    common_flags(p)

    p = sub.add_parser("synth", help="solve for undetectable attacks")
    receiver_flags(p)
    p.add_argument("--eve-dim", type=int, dest="eve_dim",
                   help="probe dimension for the canonical member")
    common_flags(p)

    p = sub.add_parser("verify", help="audit a stored attack strategy")
    receiver_flags(p)
    p.add_argument("--attack", help="attack JSON file or named attack")
    common_flags(p)

    p = sub.add_parser("simulate", help="run key-exchange sessions")
    receiver_flags(p)
    p.add_argument("--attack", help="named attack or attack JSON file")
    p.add_argument("--channel",
                   help="channel kind: identity, pns, lossy")
    p.add_argument("--p-multi", type=float, dest="p_multi",
                   help="multi-photon emission probability for pns")
    p.add_argument("--loss", type=float, help="loss probability for lossy")
    p.add_argument("--rounds", type=int, help="number of protocol rounds")
    p.add_argument("--log", help="write a per-round NDJSON log here")
    common_flags(p)

    p = sub.add_parser("fuzz", help="black-box probe a detector device")
    p.add_argument("--max-cases", type=int, dest="max_cases",
                   help="probe budget (every replay counts)")
    p.add_argument("--p-th", type=float, dest="p_th",
                   help="linear-mode click threshold of the device model")
    p.add_argument("--blind-threshold", type=float, dest="blind_threshold")
    p.add_argument("--recovery-slots", type=int, dest="recovery_slots")
    p.add_argument("--trace", help="write the per-case NDJSON trace here")
    p.add_argument("--replay", help="re-execute a logged anomaly by id")
    p.add_argument("--report", help="fuzz artifact to replay from")
    common_flags(p)

    p = sub.add_parser("classify", help="export the attack taxonomy")
    p.add_argument("--dot", help="write the family graph in DOT form here")
    common_flags(p)

    p = sub.add_parser("report", help="render stored artifacts as tables")
    p.add_argument("artifacts", nargs="*",
                   help="artifact JSON files to render")
    common_flags(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _resolve_options(args.subcommand, args)
        _log("debug", "start", subcommand=args.subcommand)
        return _HANDLERS[args.subcommand](opts)
    except CliError as err:
        print(json.dumps(err.payload(), sort_keys=True,
                         separators=(",", ":")), file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
