"""Every public function or method in src/flowdit has a caller outside the
tests: code that only tests reach, and that duplicates a production path,
belongs in the tests as an oracle. The scan matches names, not bindings, so
it errs towards passing: it catches a name that nothing in src/ or
perfbench/ mentions at all. A package's re-export (`from .m import name` in
an `__init__`) does not count as a mention: it publishes a name without
calling it, and counting it let test-only code hide behind the package API.

In the same way, every defaulted parameter of a public function is passed by
some call outside the tests: one that no call passes is a fixed value, not a
setting, and belongs in a module constant."""

import ast
import dataclasses
from pathlib import Path

from flowdit import dit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flowdit"

# the reproduced paper's API, kept on purpose although only tests call it
PAPER_API = {"cfg_velocity", "scaled_fourier_features", "pad_batch", "recognition_forward"}
# ModelConfig fields that only tests set, kept because they select the paper API:
# mode picks recognition (recognition_forward), n_classes the class labels
# (forward_velocity's label=)
PAPER_API_CONFIG_FIELDS = {"n_classes", "mode"}
# (function, parameter) defaults that no src/ or perfbench/ call passes, kept on purpose
UNPASSED_DEFAULTS = {
    ("forward_velocity", "label"): "paper API: class-conditional generation",
    ("recognition_forward", "mask"): "paper API: padded recognition batches",
    ("main", "argv"): "the test seam; the console script reads sys.argv",
}


def public_definitions(tree):
    """(node, is_method) of each public module-level function and class method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                yield member, member is not node


def defaulted_parameters(function, is_method: bool):
    """(parameter, position) of each defaulted parameter of a function node.
    position is the index a positional argument takes at a call (after a
    method's self), or None for a keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    bound = is_method and "staticmethod" not in {getattr(d, "id", None) for d in function.decorator_list}
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def mentioned_names(tree, package_init: bool):
    """Every bare name, attribute and imported name the code mentions,
    leaving out a package `__init__`'s relative re-exports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not (package_init and node.level > 0):
            yield from (alias.name for alias in node.names)


def test_every_public_src_function_has_a_non_test_caller():
    sources = sorted(SRC.rglob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}
    mentioned = {name for path, tree in trees.items() for name in mentioned_names(tree, path.name == "__init__.py")}
    unmentioned = {
        f"{path.relative_to(SRC)}:{function.lineno} {function.name}": function.name
        for path in sources
        for function, _ in public_definitions(trees[path])
        if function.name not in mentioned
    }
    assert [where for where, name in unmentioned.items() if name not in PAPER_API] == []
    # each kept paper name is still defined and still found, so the scan is not vacuous
    assert sorted(unmentioned.values()) == sorted(PAPER_API)


def test_every_model_config_field_is_set_outside_the_tests():
    # a field that no src/ or perfbench/ ModelConfig(...) call sets is a fixed value, not a setting
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    keywords = {
        keyword.arg
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "ModelConfig" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for keyword in node.keywords
    }
    fields = {field.name for field in dataclasses.fields(dit.ModelConfig)}
    assert sorted(fields - keywords - PAPER_API_CONFIG_FIELDS) == []
    # each exception is still a field that nothing outside the tests sets, so the set does not go stale
    assert PAPER_API_CONFIG_FIELDS <= fields - keywords


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    sources = sorted(SRC.rglob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}
    # callee name -> [(positional count, keyword names)], or None for a call that unpacks *args or **kwargs
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                shape = None if unpacks else (len(node.args), {k.arg for k in node.keywords})
                calls.setdefault(name, []).append(shape)

    def passed(function, parameter, position):
        return any(
            shape is None or parameter in shape[1] or (position is not None and shape[0] > position)
            for shape in calls.get(function, [])
        )

    unpassed = {
        f"{path.relative_to(SRC)}:{function.lineno} {function.name}({parameter}=)": (function.name, parameter)
        for path in sources
        for function, is_method in public_definitions(trees[path])
        for parameter, position in defaulted_parameters(function, is_method)
        if not passed(function.name, parameter, position)
    }
    assert [where for where, key in unpassed.items() if key not in UNPASSED_DEFAULTS] == []
    # each exception is still a defaulted parameter that no call outside the tests passes
    assert sorted(unpassed.values()) == sorted(UNPASSED_DEFAULTS)
