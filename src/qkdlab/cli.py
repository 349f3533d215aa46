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

Each handler imports the modules it runs, so a run loads only what its
subcommand needs: ``classify`` and ``report`` use the standard library
alone, and every other subcommand needs numpy alone.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from .output import (
    COMPUTATIONAL, FUZZ_REPORT_SCHEMA, HADAMARD, SIMULATION_REPORT_SCHEMA,
    Y_BASIS, atomic_open, ndjson, read_field,
)

if TYPE_CHECKING:
    from . import attacks as atk
    from . import fuzz as fz
    from . import protocol as proto
    from . import receivers as rc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4

_LOG_LEVELS = {"error": 0, "warn": 1, "info": 2, "debug": 3}

# attack name -> its constructor in qkdlab.attacks
_NAMED_ATTACKS = {
    "trivial": "trivial_attack",
    "cnot": "cnot_attack",
    "faked-states": "faked_states_attack",
    "full-information": "full_information_attack",
    "bright-pulse": "bright_pulse_attack",
}

_BASIS_SHORT = {COMPUTATIONAL: "comp", HADAMARD: "had", Y_BASIS: "y"}


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


class _NegativeNumber:
    """argparse's test for a value that looks like a negative number.

    argparse's own pattern takes only "-12" and "-1.5", so it reads
    "-1e5" or "-inf" as an unknown flag; this takes whatever float()
    reads.
    """

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`CliError` instead of exiting.

    A negative number in exponent or non-finite form is taken as an
    option's value, as ``-12`` and ``-1.5`` are, so it reaches the
    option's range check rather than failing as a missing value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message):
        raise CliError(EXIT_CONFIG, "invalid-arguments", message,
                       {"prog": self.prog})


def _log(level: str, event: str, **fields) -> None:
    threshold = os.environ.get("QKDLAB_LOG_LEVEL", "warn").lower()
    if _LOG_LEVELS.get(threshold) is None:
        threshold = "warn"
    if _LOG_LEVELS[level] > _LOG_LEVELS[threshold]:
        return
    print(ndjson({"level": level, "event": event, **fields}),
          file=sys.stderr)


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _ensure_parent(path_text: Optional[str]) -> None:
    if path_text is None:
        return
    parent = Path(path_text).parent
    if parent != Path("."):
        parent.mkdir(parents=True, exist_ok=True)


def _write_file(path: str, text: str, **fields) -> None:
    _ensure_parent(path)
    with atomic_open(path) as fh:
        fh.write(text)
    _log("info", "artifact-written", path=path, **fields)


def _write_artifact(out: Optional[str], data: dict) -> None:
    if out is not None:
        _write_file(out, _dump(data), schema=data.get("schema"))


def _load_json(path: str, what: str) -> dict:
    """The JSON object stored in ``path``; any failure exits 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(EXIT_CONFIG, "file-not-found",
                       f"{what} file {path!r} does not exist",
                       {"path": path})
    except OSError as err:
        raise CliError(EXIT_CONFIG, "io-error",
                       f"cannot read {what} file {path!r}: "
                       f"{err.strerror or err}", {"path": path})
    except (ValueError, RecursionError) as err:  # not UTF-8 or not JSON
        raise CliError(EXIT_CONFIG, "invalid-json",
                       f"{what} file {path!r} is not valid JSON: {err}",
                       {"path": path})
    if not isinstance(data, dict):
        raise CliError(EXIT_CONFIG, "invalid-config",
                       f"{what} file {path!r} must hold a JSON object",
                       {"path": path})
    return data


# ---------------------------------------------------------------------------
# options: one declaration each drives the flag, the config key and its type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Option:
    """One option's value type (int, float, str or list of str), default,
    help text and numeric bounds (JSON-schema keyword -> bound).  A None
    default also admits null in a config file."""

    type: type
    default: object
    help: str
    bounds: Mapping[str, float] = field(default_factory=dict)


_JSON_TYPES = {int: "integer", float: "number", str: "string",
               list: "array"}

# JSON-schema bound keyword -> (symbol, test a value must pass)
_BOUND_TESTS = {"minimum": (">=", operator.ge),
                "maximum": ("<=", operator.le),
                "exclusiveMinimum": (">", operator.gt)}

_AT_LEAST_1 = {"minimum": 1}
_PROBABILITY = {"minimum": 0, "maximum": 1}
_POSITIVE = {"exclusiveMinimum": 0}

_RECEIVER = {
    "receiver": _Option(str, None, "receiver kind or JSON config"),
    "variant": _Option(str, None, "receiver variant name"),
    "max_photons": _Option(int, None, "photon-number cutoff per mode",
                           _AT_LEAST_1),
}
_ATTACK = {"attack": _Option(str, None, "named attack or attack JSON file")}
_SEED = {"seed": _Option(int, 0, "RNG seed (default 0)")}
_OUT = {"out": _Option(str, None, "artifact output path")}

_OPTIONS: Dict[str, Dict[str, _Option]] = {
    "reverse-space": {**_RECEIVER, **_SEED, **_OUT},
    "synth": {**_RECEIVER, **_SEED, **_OUT, "eve_dim": _Option(
        int, None, "probe dimension for the canonical member", _AT_LEAST_1)},
    "verify": {**_RECEIVER, **_ATTACK, **_SEED, **_OUT},
    "simulate": {
        **_RECEIVER, **_ATTACK, **_SEED, **_OUT,
        "channel": _Option(str, None, "channel kind: identity, pns, lossy"),
        "p_multi": _Option(float, None, "two-photon probability for pns",
                           _PROBABILITY),
        "loss": _Option(float, None, "loss probability for lossy",
                        _PROBABILITY),
        "rounds": _Option(int, 10000, "number of protocol rounds",
                          _AT_LEAST_1),
        "log": _Option(str, None, "write a per-round NDJSON log here"),
    },
    "fuzz": {
        **_SEED, **_OUT,
        "max_cases": _Option(int, 10000, "probe budget (every replay counts)",
                             _AT_LEAST_1),
        "p_th": _Option(float, None, "linear-mode click threshold",
                        _POSITIVE),
        "blind_threshold": _Option(float, None, "intensity that blinds",
                                   _POSITIVE),
        "recovery_slots": _Option(int, None, "slots a blinding lasts",
                                  {"minimum": 0}),
        "trace": _Option(str, None, "write the per-case NDJSON trace here"),
        "replay": _Option(str, None, "re-execute a logged anomaly by id"),
        "report": _Option(str, None, "fuzz artifact to replay from"),
    },
    "classify": {**_SEED, **_OUT, "dot": _Option(
        str, None, "write the family graph in DOT form here")},
    "report": {**_SEED, "artifacts": _Option(
        list, (), "artifact JSON files to render")},
}


def _config_value(key: str, option: _Option, value):
    """A config file's ``value`` for ``key``, checked against its type."""
    if value is None:
        ok = option.default is None
    elif isinstance(value, bool):
        ok = False
    elif option.type is float and isinstance(value, int):
        # a JSON integer is a number too, where a float can hold it
        ok = abs(value) <= sys.float_info.max
        if ok:
            value = float(value)
    elif option.type is list:
        ok = isinstance(value, list) and all(isinstance(v, str)
                                             for v in value)
    else:
        ok = isinstance(value, option.type)
    if not ok:
        expected = _JSON_TYPES[option.type]
        if option.type is list:
            expected += " of strings"
        if option.default is None:
            expected += " or null"
        raise CliError(EXIT_CONFIG, "invalid-config-type",
                       f"config key {key!r} must be of JSON type {expected}",
                       {"option": key, "expected": expected})
    return value


def _check_bounds(key: str, option: _Option, value) -> None:
    """``value`` (None passes) lies within ``option``'s bounds and, as a
    JSON number must, is finite."""
    if value is None:
        return
    for keyword, bound in option.bounds.items():
        symbol, test = _BOUND_TESTS[keyword]
        if not test(value, bound):  # NaN fails every test
            raise CliError(EXIT_CONFIG, "invalid-config",
                           f"option {key!r} must be {symbol} {bound}, "
                           f"got {value!r}", {"option": key, keyword: bound})
    if isinstance(value, float) and not math.isfinite(value):
        raise CliError(EXIT_CONFIG, "invalid-config",
                       f"option {key!r} must be finite, got {value!r}",
                       {"option": key})


def _resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    table = _OPTIONS[subcommand]
    opts = {key: option.default for key, option in table.items()}
    if args.config:
        config = _load_json(args.config, "config")
        declared = config.pop("subcommand", subcommand)
        if declared != subcommand:
            raise CliError(EXIT_CONFIG, "subcommand-mismatch",
                           f"config declares subcommand {declared!r} but "
                           f"{subcommand!r} was invoked",
                           {"path": args.config})
        unknown = set(config) - set(table)
        if unknown:
            raise CliError(EXIT_CONFIG, "unknown-config-keys",
                           f"config keys {sorted(unknown)} are not options "
                           f"of {subcommand!r}",
                           {"allowed": sorted(table)})
        for key, value in config.items():
            opts[key] = _config_value(key, table[key], value)
    for key in table:
        value = getattr(args, key)
        if value is not None and value != []:
            opts[key] = value
    for key, option in table.items():
        _check_bounds(key, option, opts[key])
    return opts


def _require(opts: dict, key: str, subcommand: str):
    if opts[key] is None:
        raise CliError(EXIT_CONFIG, "missing-option",
                       f"{subcommand} needs --{key.replace('_', '-')} "
                       f"(or the config key {key!r})", {"option": key})
    return opts[key]


def _load_receiver(opts: dict, subcommand: str) -> rc.ReceiverModel:
    from . import receivers as rc
    spec = _require(opts, "receiver", subcommand)
    given = {key: opts[key] for key in ("variant", "max_photons")
             if opts[key] is not None}
    try:
        if spec.endswith(".json") or os.path.sep in spec:
            if given:
                raise ValueError(f"a receiver config file takes no "
                                 f"{sorted(given)} option; set it in the file")
            return rc.receiver_from_config(_load_json(spec, "receiver"))
        return rc.make_receiver(spec, **given)
    except (ValueError, KeyError) as err:
        raise CliError(EXIT_CONFIG, "invalid-receiver", str(err),
                       {"receiver": spec})


def _load_attack(spec: str, receiver: rc.ReceiverModel) -> atk.AttackIsometry:
    from . import attacks as atk
    if spec in _NAMED_ATTACKS:
        try:
            return getattr(atk, _NAMED_ATTACKS[spec])(receiver)
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


def _constraint_system(receiver: rc.ReceiverModel) -> atk.ConstraintSystem:
    """The receiver's zero-error conditions; a receiver they cannot be
    built for (its source leaves the reachable space) is invalid."""
    from . import attacks as atk
    try:
        return atk.build_constraint_system(receiver)
    except atk.AttackError as err:
        raise CliError(EXIT_CONFIG, "invalid-receiver", str(err),
                       {"receiver": receiver.name})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_reverse_space(opts: dict) -> int:
    """span the receiver's interpretation acts on"""
    receiver = _load_receiver(opts, "reverse-space")
    system = _constraint_system(receiver)
    artifact = {
        "schema": "reverse-space/1",
        "rng_seed": opts["seed"],
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
    """solve for undetectable attacks"""
    from . import attacks as atk
    receiver = _load_receiver(opts, "synth")
    system = _constraint_system(receiver)
    try:
        family = atk.synthesize_attacks(system, opts["eve_dim"])
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
        "rng_seed": opts["seed"],
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
    """audit a stored attack strategy"""
    from . import attacks as atk
    receiver = _load_receiver(opts, "verify")
    system = _constraint_system(receiver)
    attack = _load_attack(_require(opts, "attack", "verify"), receiver)
    try:
        report = atk.verify_oblivious(attack, system=system)
    except atk.AttackError as err:
        raise CliError(EXIT_CONFIG, "invalid-attack", str(err),
                       {"attack": opts["attack"], "receiver": receiver.name})
    failing = [
        {"alice_basis": row.alice_label[0], "alice_bit": row.alice_label[1],
         "setting": row.setting, "outcome": row.outcome_id,
         "support_index": row.support_index, "residual": res}
        for row, res in report.failing_rows()[:20]
    ]
    artifact = {
        "schema": "verification/1",
        "rng_seed": opts["seed"],
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
    from . import protocol as proto
    attack_spec = opts["attack"]
    kind = opts["channel"]
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
            return proto.make_channel(kind,
                                      _require(opts, "p_multi", "simulate"))
        if kind == proto.LOSSY:
            return proto.make_channel(kind,
                                      _require(opts, "loss", "simulate"))
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
    for basis in sorted(per_basis, key=lambda b: (b != COMPUTATIONAL, b)):
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
    """run key-exchange sessions"""
    from . import attacks as atk
    from . import protocol as proto
    receiver = _load_receiver(opts, "simulate")
    channel = _channel_from_options(opts, receiver)
    rounds = opts["rounds"]
    _ensure_parent(opts["log"])
    try:
        report = proto.run_bb84(None, channel, receiver,
                                rounds, seed=opts["seed"],
                                log_path=opts["log"])
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
    from . import fuzz as fz
    kwargs = {key: opts[key]
              for key in ("p_th", "blind_threshold", "recovery_slots")
              if opts[key] is not None}
    try:
        return fz.make_apd_receiver_device(fz.APDParams(**kwargs))
    except fz.FuzzError as err:
        raise CliError(EXIT_CONFIG, "invalid-config", str(err), kwargs)


def _cmd_fuzz(opts: dict) -> int:
    """black-box probe a detector device"""
    from . import fuzz as fz
    if opts["replay"]:
        source = _require(opts, "report", "fuzz --replay")
        stored = _load_json(source, "fuzz report")
        try:
            report = fz.report_from_json_dict(stored)
            device = fz.make_apd_receiver_device(read_field(
                stored, "device", lambda params: fz.APDParams(**params),
                FUZZ_REPORT_SCHEMA, fz.FuzzError))
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
    _ensure_parent(opts["trace"])
    try:
        config = fz.default_config(device.params,
                                   max_cases=opts["max_cases"])
        report = fz.run_fuzz_campaign(device, config, seed=opts["seed"],
                                      trace_path=opts["trace"])
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
    """export the attack taxonomy"""
    from . import classify as cl
    artifact = cl.registry_to_json_dict()
    artifact["rng_seed"] = opts["seed"]
    _write_artifact(opts["out"], artifact)
    if opts["dot"]:
        _write_file(opts["dot"], cl.registry_to_dot())
    for record in cl.registry():
        tags = ",".join(sorted(record.tags)) or "-"
        print(f"classify {record.name} class={record.expected_class} "
              f"families={tags}")
    return EXIT_OK


def _render_artifact(data: dict) -> List[str]:
    schema = data.get("schema")
    if schema == SIMULATION_REPORT_SCHEMA:
        return _simulation_rows(data)
    if schema == FUZZ_REPORT_SCHEMA:
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
    """render stored artifacts as tables"""
    for path in opts["artifacts"]:
        data = _load_json(path, "artifact")
        context = {"path": path, "schema": data.get("schema")}
        try:
            rows = _render_artifact(data)
        except KeyError as err:
            raise CliError(EXIT_CONFIG, "invalid-config",
                           f"artifact {path!r} lacks the key {err}",
                           {**context, "key": err.args[0]})
        except (TypeError, ValueError, AttributeError) as err:
            raise CliError(EXIT_CONFIG, "invalid-config",
                           f"artifact {path!r} is malformed: {err}", context)
        for row in rows:
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
    parser = _Parser(prog="qkdlab",
                     description="Receiver attack analysis toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, table in _OPTIONS.items():
        p = sub.add_parser(subcommand, help=_HANDLERS[subcommand].__doc__)
        for key, option in table.items():
            if option.type is list:
                p.add_argument(key, nargs="*", help=option.help)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=None if option.type is str
                               else option.type, help=option.help)
        p.add_argument("--config", help="JSON config with option values")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        opts = _resolve_options(args.subcommand, args)
        _log("debug", "start", subcommand=args.subcommand)
        return _HANDLERS[args.subcommand](opts)
    except CliError as err:
        error = err
    except OSError as err:
        # os.replace names the destination second
        path = err.filename2 or err.filename
        path = None if path is None else os.fsdecode(path)
        error = CliError(EXIT_CONFIG, "io-error",
                         f"cannot write {path!r}: {err.strerror or err}",
                         {"path": path})
    print(ndjson(error.payload()), file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
