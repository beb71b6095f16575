"""Every public function or method in src/flowdit has a caller outside the
tests: code that only tests reach, and that duplicates a production path,
belongs in the tests as an oracle. The scan matches names, not bindings, so
it errs towards passing: it catches a name that nothing in src/ or
perfbench/ mentions at all. A package's re-export (`from .m import name` in
an `__init__`) does not count as a mention: it publishes a name without
calling it, and counting it let test-only code hide behind the package API.

In the same way, every defaulted parameter of a public function is passed by
some call outside the tests: one that no call passes is a fixed value, not a
setting, and belongs in a module constant.

The maps of the settings each warp kind and each rope strategy reads name
every setting there is, and nothing else."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from flowdit import autodiff, dit, numkernel, rope, sampler

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


def test_numkernel_and_autodiff_share_no_function_but_the_matmul_the_tape_op_calls():
    # a public function name in both modules is one job implemented twice,
    # the untracked twin of a tape op, whose two copies must be kept equal by hand
    def public(module):
        return {name for name, fn in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__}

    assert sorted(public(numkernel) & public(autodiff)) == ["matmul"]
    assert "numkernel.matmul(" in inspect.getsource(autodiff.matmul)


def test_the_tape_has_one_gemm_entry_point_and_rope_one_rotation_kernel():
    # a VJP that spells a forward op apart from its kernel is a second
    # implementation, kept equal to the first by hand
    tree = ast.parse(inspect.getsource(autodiff))
    gemms = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "einsum", "tensordot", "inner")
             and not (isinstance(node.value, ast.Name) and node.value.id == "numkernel")]
    assert gemms == []
    rotate = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "rotate_pairs")
    vjps = [node for node in ast.walk(rotate) if isinstance(node, (ast.Lambda, ast.FunctionDef)) and node is not rotate]
    in_vjp = {id(node) for vjp in vjps for node in ast.walk(vjp)}

    def private_calls(nodes):
        return {node.func.id for node in nodes if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id.startswith("_")}

    forward = private_calls(node for node in ast.walk(rotate) if id(node) not in in_vjp)
    backward = private_calls(node for vjp in vjps for node in ast.walk(vjp))
    assert backward and backward <= forward


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(path, tree, modules):
    """`<line> <name>` of each `_`-prefixed name this module takes from another
    flowdit module: an attribute of a name bound to a flowdit module, or a
    name imported from one. Dunder names are public."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    bound = {}  # local name -> the flowdit module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            base += tuple(filter(None, (node.module or "").split(".")))
            for alias in node.names:
                if ".".join(base + (alias.name,)) in modules:
                    bound[alias.asname or alias.name] = ".".join(base + (alias.name,))
                elif ".".join(base) in modules and is_private(alias.name):
                    yield f"{node.lineno} {'.'.join(base)}.{alias.name}"
        elif isinstance(node, ast.Import):
            bound.update({alias.asname: alias.name for alias in node.names if alias.asname and alias.name in modules})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound and is_private(node.attr):
            yield f"{node.lineno} {bound[node.value.id]}.{node.attr}"


def test_no_src_module_reads_a_private_name_of_another():
    # a private name is its module's own business: a second module that reads
    # it splits one job over two homes, which the public surface does not show
    paths = sorted(SRC.rglob("*.py"))
    modules = {".".join(path.relative_to(SRC.parent).with_suffix("").parts).removesuffix(".__init__") for path in paths}
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = [f"{path.relative_to(SRC)}:{read}" for path, tree in trees.items() for read in private_reads(path, tree, modules)]
    assert reads == []
    # the scan catches both forms, so it is not vacuous
    probe = ast.parse("from . import numkernel as nk\nfrom .dit import _save_tensor\nnk._x(nk.__name__)\n")
    assert list(private_reads(SRC / "autodiff.py", probe, modules)) == ["2 flowdit.dit._save_tensor", "3 flowdit.numkernel._x"]


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


# numpy's floating-point state: entering it anywhere but around the CLI's commands
# would make two policies, one for the command that sets it and one for the rest
FP_STATE = {"errstate", "seterr", "seterrcall"}


def fp_state_mentions(node, function):
    """(name, innermost enclosing function) of every FP_STATE name under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    if name in FP_STATE:
        yield name, function
    for child in ast.iter_child_nodes(node):
        yield from fp_state_mentions(child, function)


def test_numpy_floating_point_state_is_entered_only_around_the_cli_commands():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    mentions = [
        (str(path.relative_to(SRC)), *mention) for path, tree in trees.items() for mention in fp_state_mentions(tree, None)
    ]
    assert mentions == [("cli.py", "errstate", "main")]
    main = next(node for node in ast.walk(trees[SRC / "cli.py"]) if getattr(node, "name", None) == "main")
    (block,) = [node for node in ast.walk(main) if isinstance(node, ast.With)]
    assert [ast.unparse(item.context_expr) for item in block.items] == ["np.errstate(all='ignore')"]
    assert [ast.unparse(statement) for statement in block.body] == ["args.func(args)"]


# the names that pick a warp or scaling, or size its grid, rather than shape it
PICKERS = {"kind", "n_steps", "strategy"}


@pytest.mark.parametrize(
    "reads,settable",
    [
        (sampler.SCHEDULE_FIELDS, {field.name for field in dataclasses.fields(sampler.ScheduleSpec)}
         | set(inspect.signature(sampler.schedule_points).parameters) - {"spec"}),
        (rope.STRATEGY_FIELDS, {field.name for field in dataclasses.fields(rope.ScaleSpec)}),
    ],
    ids=["schedule", "rope_scale"],
)
def test_each_unread_flag_map_names_every_setting_and_nothing_else(reads, settable):
    # cli._reject_unread trusts these maps: a name that is no spec field or schedule_points
    # parameter (after a rename, say) would let every flag through, and a setting that no
    # kind or strategy reads would be refused with all of them
    read = {name for names in reads.values() for name in names}
    assert sorted(read - settable) == []
    assert sorted(settable - PICKERS - read) == []


def test_no_src_module_sets_a_malloc_option():
    # a library sets no allocator option for its host process, and a caller
    # that imports flowdit without the CLI (perfbench, a notebook) would never
    # see one set in cli.main; arrays small enough for the allocator's own
    # thresholds are the fix that reaches every caller (dit._MLP_TILE_VALUES)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", None) or node.attr]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "ctypes" or name == "mallopt"]
    assert found == []
