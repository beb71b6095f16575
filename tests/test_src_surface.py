"""Every public function or method in src/flowdit has a caller outside the
tests: code that only tests reach, and that duplicates a production path,
belongs in the tests as an oracle. The scan matches names, not bindings, so
it errs towards passing: it catches a name that nothing in src/ or
perfbench/ mentions at all. A package's re-export (`from .m import name`)
counts as a mention, because it publishes the name as the package's API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flowdit"

# the reproduced paper's API, kept on purpose although only tests call it
PAPER_API = {"cfg_velocity", "scaled_fourier_features", "pad_batch", "recognition_forward"}


def public_definitions(tree):
    """(name, line) of each public module-level function and class method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                yield member.name, member.lineno


def mentioned_names(tree):
    """Every bare name, attribute and imported name the code mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_src_function_has_a_non_test_caller():
    sources = sorted(SRC.rglob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}
    mentioned = {name for tree in trees.values() for name in mentioned_names(tree)}
    unmentioned = {
        f"{path.relative_to(SRC)}:{line} {name}": name
        for path in sources
        for name, line in public_definitions(trees[path])
        if name not in mentioned
    }
    assert [where for where, name in unmentioned.items() if name not in PAPER_API] == []
    # each kept paper name is still defined and still found, so the scan is not vacuous
    assert sorted(unmentioned.values()) == sorted(PAPER_API)
