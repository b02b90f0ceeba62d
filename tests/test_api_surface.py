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
                         "run telemetry (ROADMAP item 5)",
    "estimate_latency": "the paper's split latency model, to be wired into "
                        "run telemetry (ROADMAP item 5)",
    "SplitMessage.to_bytes": "the split wire format, to be checked against the "
                             "latency model (ROADMAP item 5)",
    "SplitMessage.from_bytes": "the split wire format, to be checked against "
                               "the latency model (ROADMAP item 5)",
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
