"""The public API has program callers.

Every public top-level function, class and method under src/subnetpred/
must be referenced from src/ or perfbench/ outside its own definition.
Tests do not count as callers, and neither do the re-exports in
__init__.py files.  A reference is a name, an attribute or a dotted string
(perfbench/layers.py names the functions it wraps as strings); matching is
by bare name, so it errs on the side of "referenced".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subnetpred"

# public names kept without a program caller, one reason each
ALLOWED = {
    "latency_model_for": "the paper's split latency model, to be wired into "
                         "run telemetry (ROADMAP item 7)",
    "estimate_latency": "the paper's split latency model, to be wired into "
                        "run telemetry (ROADMAP item 7)",
    "SplitMessage.to_bytes": "the split wire format, to be checked against the "
                             "latency model (ROADMAP item 7)",
    "SplitMessage.from_bytes": "the split wire format, to be checked against "
                               "the latency model (ROADMAP item 7)",
    "InProcessChannel.drop_next": "test hook: injects one lost split message",
    "count_params": "test hook: parameter count of a model",
    "partition_param_counts": "test hook: a split partition keeps every "
                              "parameter",
}


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


# parameters with a default that no program call sets, one reason each
ALLOWED_DEFAULTS = {
    "main(argv)": "the console script passes nothing; tests drive argv",
    "wiener_predict(history)": "two test_model.py tests probe the predictor "
                               "at long history",
    "train(log)": "per-epoch telemetry, to be wired into run telemetry "
                  "(ROADMAP item 7)",
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


def _set_parameters():
    """callee bare name -> (positions set, keywords set) over the program's
    calls; a call with *args or **kwargs sets everything (None)."""
    calls = {}
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            positions, keywords = calls.setdefault(name, (set(), set()))
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                calls[name] = (None, None)
            elif positions is not None:
                positions.update(range(len(node.args)))
                keywords.update(k.arg for k in node.keywords)
    return calls


def test_every_defaulted_parameter_is_set_by_a_program_call():
    """A default no program call overrides is a constant in disguise; it
    goes, or becomes a named constant.  Calls match by bare name."""
    calls = _set_parameters()
    unset = []
    for callee, param, pos, qual in _defaulted_parameters():
        label = f"{callee}({param})"
        if label in ALLOWED_DEFAULTS or qual in ALLOWED:
            continue
        positions, keywords = calls.get(callee, (set(), set()))
        if positions is None or param in keywords \
                or (pos is not None and pos in positions):
            continue
        unset.append(label)
    assert sorted(unset) == [], "parameters with a default no program call sets"


def test_default_allowlist_entries_exist_and_carry_a_reason():
    defined = {f"{callee}({param})" for callee, param, *_ in _defaulted_parameters()}
    assert set(ALLOWED_DEFAULTS) <= defined
    assert all(reason.strip() for reason in ALLOWED_DEFAULTS.values())
