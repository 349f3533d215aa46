"""The library's public surface is what its callers use.

Every public function, class and method defined in ``src/qkdlab`` (a
public method of a private class too) must be named somewhere besides its
own definition: elsewhere in ``src/`` (outside
docstrings), or in ``demos/``, ``perfbench/`` or ``README.md``.  Every
parameter with a default of such a function or method (a class's: of its
``__init__``, written or generated for a dataclass) must be set, by
keyword or by position, by some call in those callers' code.  Tests do
not count as callers.  A name or a parameter kept on purpose goes on
``KEEP`` with the reason it stays; a parameter is keyed
``function(parameter)``.  A public top-level name defined in more than
one module needs a caller for each: qualified by a name bound to that
module, or bare inside the module itself.
"""

import ast
import collections
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "qkdlab"

KEEP = {
    "AttackFamily.parameter_values":
        "reads a member's named parameters; the acceptance criteria check "
        "the bright-pulse family with it",
    "apply_phase_shift": "the phase shifter, one element of the Fock kernel",
    "IdealPNRDevice": "the photon-number-resolving negative control of the "
                      "fuzz campaign",
    "PhotonicState.close_to": "the state comparison four test modules share",
    "PhotonicState.close_to(atol)":
        "the tests compare states at tolerances other than ATOL",
    "IdealPNRDevice(geiger_efficiency)":
        "a lossy negative control, which the efficiency-mismatch stage of "
        "ROADMAP item 7 must not flag",
    "make_apd_receiver_device(double_click_rule)":
        "a receiver that discards double clicks, the multi-click rule of "
        "ROADMAP item 1",
    "two_mode_attack(shared_probe_axis)":
        "acceptance criterion 5 checks both probe-axis layouts",
    "SpaceFootprint(env_write_is_side_effect_only)":
        "the paper's trivial side-channel class; no registry record is in "
        "it yet",
    "apply_rotation(out_modes)":
        "routing into fresh modes; the Fock cross-check in tests/test_fuzz.py "
        "is a reference built on it",
    "trivial_attack(system)":
        "set through cli._NAMED_ATTACKS, whose constructors the CLI calls "
        "with system=",
    "full_information_attack(system)":
        "set through cli._NAMED_ATTACKS, whose constructors the CLI calls "
        "with system=",
    "sift_and_estimate(seed)":
        "keys the test-bit subsample; the pinned log digests and the "
        "reference reader comparisons set it",
    "InterferometerConfig(delay)":
        "the pinned kernel digest evolves an interferometer at delay 2",
    "APDParams(geiger_efficiency)":
        "the efficiency-mismatch stage of ROADMAP item 7 is measured on a "
        "device at efficiency 0.7",
    "APDParams(p_th)":
        "set from --p-th through APDParams(**kwargs) in the CLI, which the "
        "scan cannot follow",
    "APDParams(blind_threshold)":
        "set from --blind-threshold through APDParams(**kwargs) in the CLI, "
        "which the scan cannot follow",
    "APDParams(recovery_slots)":
        "set from --recovery-slots through APDParams(**kwargs) in the CLI, "
        "which the scan cannot follow",
    "CampaignConfig(combination_depth)":
        "the pinned depth-3 campaign sets it",
    "_NegativeNumber.match": "argparse calls it",
    "_Parser.error": "argparse calls it",
    "SimulationReport(test_fraction)":
        "set through protocol._report(**fields), which the scan cannot "
        "follow",
    "SimulationReport(attack_label)":
        "set through protocol._report(**fields), which the scan cannot "
        "follow",
}


def _docstring_lines(tree):
    """Line numbers (1-based) of every module, class and function
    docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _public_definitions(tree):
    """(qualified name, name) of each public top-level function and class
    and each public method of a top-level class, private ones included:
    a private base class still gives its subclasses public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def _surface():
    """The public definitions, and the text that may name them: the
    source without its docstrings, plus every file of the callers."""
    definitions = []
    code = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        docstrings = _docstring_lines(tree)
        code += [line for number, line in enumerate(text.splitlines(), 1)
                 if number not in docstrings]
        definitions += list(_public_definitions(tree))
    callers = [REPO_ROOT / "README.md"]
    for folder in ("demos", "perfbench"):
        callers += sorted(p for p in (REPO_ROOT / folder).rglob("*")
                          if p.suffix in (".py", ".md"))
    code += [p.read_text(encoding="utf-8") for p in callers]
    return definitions, code


def _defaulted(function, bound):
    """(parameter, position) of each parameter of ``function`` with a
    default.  The position is among the arguments a caller passes, after
    ``bound`` leading ones (self or cls), and None for a keyword-only
    parameter."""
    args = function.args
    positional = (args.posonlyargs + args.args)[bound:]
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], first):
        yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_dataclass(node):
    """Whether ``node`` is a class decorated with ``dataclass`` (called
    or bare, plain or as ``dataclasses.dataclass``)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if getattr(target, "id", None) == "dataclass" \
                or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _takes_no_init(value):
    """Whether a field's default is ``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant)
        and k.value.value is False for k in value.keywords)


def _is_class_var(annotation):
    """Whether a field annotation is ``ClassVar`` (bare, subscripted, or
    as ``typing.ClassVar``): a class attribute, not a field."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", None) == "ClassVar" \
        or getattr(annotation, "attr", None) == "ClassVar"


def _defaulted_fields(node):
    """(field, position) of each defaulted field of the generated
    ``__init__`` of the dataclass ``node``; its position counts the
    fields before it that ``__init__`` takes, which leaves out
    ``init=False`` fields and ``ClassVar`` attributes."""
    position = 0
    for member in node.body:
        if not isinstance(member, ast.AnnAssign) \
                or _takes_no_init(member.value) \
                or _is_class_var(member.annotation):
            continue
        if member.value is not None:
            yield member.target.id, position
        position += 1


def _public_parameters():
    """(qualified name, called name, parameter, position) of each defaulted
    parameter of a public function, a public method or the ``__init__``
    of a public class, hand-written or generated for a dataclass."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                for parameter, position in _defaulted(node, 0):
                    yield node.name, node.name, parameter, position
            if not isinstance(node, ast.ClassDef) \
                    or node.name.startswith("_"):
                continue
            written = any(isinstance(member, ast.FunctionDef)
                          and member.name == "__init__"
                          for member in node.body)
            if _is_dataclass(node) and not written:
                for parameter, position in _defaulted_fields(node):
                    yield node.name, node.name, parameter, position
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in member.decorator_list)
                if member.name == "__init__":
                    qualified, called = node.name, node.name
                elif not member.name.startswith("_"):
                    qualified = f"{node.name}.{member.name}"
                    called = member.name
                else:
                    continue
                for parameter, position in _defaulted(member, 1 - static):
                    yield qualified, called, parameter, position


def _caller_trees():
    """The syntax trees of ``src/``, ``demos/`` and ``perfbench/`` and of
    README.md's Python code blocks."""
    files = sorted(SRC.glob("*.py"))
    for folder in ("demos", "perfbench"):
        files += sorted((REPO_ROOT / folder).rglob("*.py"))
    for path in files:
        yield ast.parse(path.read_text(encoding="utf-8"))
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        yield ast.parse(block)


def _module_names(tree):
    """{local name: qkdlab module} for each ``import qkdlab.X as a`` and
    each ``from . import X as a`` or ``from qkdlab import X as a``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("qkdlab."):
                    bound[alias.asname] = alias.name[len("qkdlab."):]
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "qkdlab"
                or node.level == 1 and node.module is None):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound


def test_every_public_name_has_a_caller():
    definitions, code = _surface()
    unused = []
    for qualified, name in definitions:
        # a method is only ever reached as an attribute
        prefix = r"\." if "." in qualified else r"\b"
        used = re.compile(rf"{prefix}{re.escape(name)}\b")
        defined = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(used.search(line) and not defined.match(line)
                   for line in code):
            unused.append(qualified)
    kept = {key for key in KEEP if "(" not in key}
    assert sorted(set(unused) - kept) == []
    # a kept name that gained a caller leaves the list
    assert sorted(kept - set(unused)) == []


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a call is matched by the name it calls, as the name search above is
    calls = collections.defaultdict(list)
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) \
                    or getattr(node.func, "attr", None)
                calls[called].append(
                    (len(node.args), {k.arg for k in node.keywords}))
    unset = {f"{qualified}({parameter})"
             for qualified, called, parameter, position in _public_parameters()
             if not any(parameter in keywords
                        or position is not None and passed > position
                        for passed, keywords in calls[called])}
    kept = {key for key in KEEP if "(" in key}
    assert sorted(unset - kept) == []
    # a kept parameter that gained a caller leaves the list
    assert sorted(kept - unset) == []


def test_a_name_defined_in_two_modules_has_a_caller_for_each():
    # a bare-name search counts fuzz.report_from_json_dict as a caller of
    # any other module's report_from_json_dict
    modules = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                modules[node.name].append(path.stem)
    called = set()
    files = sorted(SRC.glob("*.py"))
    for folder in ("demos", "perfbench"):
        files += sorted((REPO_ROOT / folder).rglob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                called.add((bound[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and path.parent == SRC:
                called.add((path.stem, node.id))
    uncalled = [f"{module}.{name}" for name, defined in modules.items()
                if len(defined) > 1
                for module in defined if (module, name) not in called]
    assert uncalled == []


def test_class_vars_and_uninitialised_fields_take_no_init_position():
    node = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    rounds: int\n"
        "    tag: ClassVar[str] = 'a'\n"
        "    kind: typing.ClassVar[str] = 'b'\n"
        "    bare: ClassVar = 'c'\n"
        "    cache: dict = field(default_factory=dict, init=False)\n"
        "    label: str = 'x'\n"
        "    seed: int = 0\n").body[0]
    assert _is_dataclass(node)
    assert list(_defaulted_fields(node)) == [("label", 1), ("seed", 2)]
