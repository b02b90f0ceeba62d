"""The public API has program callers.

Every public top-level function, class and method under src/subnetpred/
must be referenced from src/ or perfbench/ outside its own definition.
Tests do not count as callers, and neither do the re-exports in
__init__.py files.  A reference is a name, an attribute or a dotted string
(perfbench/layers.py names the functions it wraps as strings); matching is
by bare name, so it errs on the side of "referenced".

Every defaulted parameter of a public function is both set by some
program call and left at its default by another: a default that every
program call overrides is a value only the tests rely on.  Calls match by
bare name, and a call with *args or **kwargs counts as setting and as
leaving every parameter, so both rules err on the side of "used".

A package re-exports only what the program imports through it: every name
an __init__.py imports must be imported through that package, relatively
(`from .split import …`) or absolutely (`from subnetpred.split import …`),
by a module in src/ or perfbench/.  Tests do not count, and importing a
submodule (`from subnetpred.model import network`) is not a re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subnetpred"

# public names kept without a program caller, one reason each
ALLOWED = {}


def _definitions():
    """(bare name, qualified name, path, first line, last line)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield node.name, node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not sub.name.startswith("_"):
                        yield (sub.name, f"{node.name}.{sub.name}", path,
                               sub.lineno, sub.end_lineno)


def _references():
    """bare name -> [(path, line)] over the program's modules."""
    refs = {}
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_program_caller():
    refs = _references()
    unused = sorted(
        f"{qual} ({path.relative_to(ROOT)}:{first})"
        for name, qual, path, first, last in _definitions()
        if qual not in ALLOWED
        and all(p == path and first <= line <= last
                for p, line in refs.get(name, [])))
    assert unused == [], "public names without a caller in src/ or perfbench/"


def test_allowlist_names_exist_and_carry_a_reason():
    defined = {qual for _, qual, *_ in _definitions()}
    assert set(ALLOWED) <= defined
    assert all(reason.strip() for reason in ALLOWED.values())


def _from_imports(path):
    """(absolute module, imported names) for each `from … import` in path;
    a relative one is resolved against the directory path sits in."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            package = path.relative_to(PACKAGE.parent).parts[:-1]
            base = package[:len(package) - node.level + 1]
            module = ".".join(base + ((node.module,) if node.module else ()))
        yield module, {alias.name for alias in node.names}


def test_every_package_reexport_is_imported_through_its_package():
    """A name an __init__.py imports is a second import path; it stays only
    if a module in src/ or perfbench/ imports it through the package."""
    exported = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(PACKAGE.parent).parts)
        for _, names in _from_imports(init):
            exported.setdefault(package, set()).update(names)
    used = {}
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        if path.name == "__init__.py":
            continue
        for module, names in _from_imports(path):
            used.setdefault(module, set()).update(names)
    unused = sorted(f"{package}.{name}" for package, names in exported.items()
                    for name in names - used.get(package, set()))
    assert unused == [], "re-exports no module in src/ or perfbench/ imports"


# parameters with a default that no program call sets, one reason each
ALLOWED_DEFAULTS = {
    "main(argv)": "the console script passes nothing; tests drive argv",
}


def _defaulted_parameters():
    """(callee name, parameter name, position or None, qualified name) for
    every parameter with a default on a public function, a public method or
    the __init__ of a public class.  A method's position omits self, and the
    callee of an __init__ is its class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                funcs = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                funcs = [(node.name if sub.name == "__init__" else sub.name,
                          f"{node.name}.{sub.name}", sub,
                          0 if any(getattr(d, "id", None) == "staticmethod"
                                   for d in sub.decorator_list) else 1)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and (sub.name == "__init__" or not sub.name.startswith("_"))]
            else:
                continue
            for callee, qual, fn, skip in funcs:
                a = fn.args
                positional = (a.posonlyargs + a.args)[skip:]
                first = len(positional) - len(a.defaults)
                for pos, arg in enumerate(positional[first:], start=first):
                    yield callee, arg.arg, pos, qual
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield callee, arg.arg, None, qual


def _program_calls():
    """callee bare name -> [(positional count, keywords)] over the program's
    calls; a call with *args or **kwargs is (None, None)."""
    calls = {}
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                call = (None, None)
            else:
                call = (len(node.args), {k.arg for k in node.keywords})
            calls.setdefault(name, []).append(call)
    return calls


def _sets(call, param, pos):
    """Whether a call passes param, by keyword or at position pos."""
    count, keywords = call
    return count is None or param in keywords or (pos is not None and pos < count)


def _leaves(call, param, pos):
    """Whether a call leaves param at its default."""
    return call[0] is None or not _sets(call, param, pos)


def test_every_defaulted_parameter_is_set_by_a_program_call():
    """A default no program call overrides is a constant in disguise; it
    goes, or becomes a named constant.  Calls match by bare name."""
    calls = _program_calls()
    unset = sorted(f"{callee}({param})"
                   for callee, param, pos, qual in _defaulted_parameters()
                   if f"{callee}({param})" not in ALLOWED_DEFAULTS and qual not in ALLOWED
                   and not any(_sets(c, param, pos) for c in calls.get(callee, [])))
    assert unset == [], "parameters with a default no program call sets"


def test_every_default_is_left_in_place_by_a_program_call():
    """A default every program call overrides serves the tests alone; it
    goes, and the tests pass the value.  Calls match by bare name."""
    calls = _program_calls()
    overridden = sorted(
        f"{callee}({param})" for callee, param, pos, qual in _defaulted_parameters()
        if qual not in ALLOWED
        and not any(_leaves(c, param, pos) for c in calls.get(callee, [])))
    assert overridden == [], "defaults every program call overrides"


def test_default_allowlist_entries_exist_and_carry_a_reason():
    defined = {f"{callee}({param})" for callee, param, *_ in _defaulted_parameters()}
    assert set(ALLOWED_DEFAULTS) <= defined
    assert all(reason.strip() for reason in ALLOWED_DEFAULTS.values())
