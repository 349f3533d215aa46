"""The library's public surface is what its callers use.

Every public function, class and method defined in ``src/qkdlab`` must be
named somewhere besides its own definition: elsewhere in ``src/`` (outside
docstrings), or in ``demos/``, ``perfbench/`` or ``README.md``.  Tests do
not count as callers.  A name kept on purpose goes on ``KEEP`` with the
reason it stays.  A public top-level name defined in more than one module
needs a caller for each: qualified by a name bound to that module, or bare
inside the module itself.
"""

import ast
import collections
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "qkdlab"

KEEP = {
    "AttackFamily.instantiate":
        "builds a member from direction weights, the input of planned "
        "weight-level analyses",
    "AttackFamily.parameter_values":
        "reads a member's named parameters; the acceptance criteria check "
        "the bright-pulse family with it",
    "apply_phase_shift": "the phase shifter, one element of the Fock kernel",
    "IdealPNRDevice": "the photon-number-resolving negative control of the "
                      "fuzz campaign",
    "PhotonicState.close_to": "the state comparison four test modules share",
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
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
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
    assert sorted(set(unused) - set(KEEP)) == []
    # a kept name that gained a caller leaves the list
    assert sorted(set(KEEP) - set(unused)) == []


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
