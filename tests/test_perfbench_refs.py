"""The benchmark in perfbench/ calls the library by attribute; a rename,
deletion or signature change in the library must fail here, not only in
perfbench's own suite."""

import ast
import inspect
from pathlib import Path

from flowdit import autodiff, contextdrop, dit, flowlab, partitioner, sampler

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {m.__name__.rsplit(".", 1)[-1]: m for m in (autodiff, contextdrop, dit, flowlab, partitioner, sampler)}


def perfbench_references():
    """Sorted (module, attribute) pairs for every `<module>.<name>` in perfbench/*.py."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
                refs.add((node.value.id, node.attr))
    return sorted(refs)


def test_every_library_name_perfbench_uses_exists():
    refs = perfbench_references()
    assert len(refs) >= 20, refs  # the scan still finds the benchmark's calls
    assert [f"{m}.{name}" for m, name in refs if not hasattr(MODULES[m], name)] == []


def perfbench_calls():
    """(file:line, callee, call node) for every `<module>.<name>(...)` call in perfbench/*.py."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in MODULES:
                calls.append((f"{path.name}:{node.lineno}", getattr(MODULES[func.value.id], func.attr), node))
    return calls


def test_every_perfbench_call_binds_to_the_library_signature():
    calls = perfbench_calls()
    assert len(calls) >= 30, len(calls)  # the scan still finds the benchmark's calls
    unbound = []
    for where, callee, node in calls:
        try:
            inspect.signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            unbound.append(f"{where} {ast.unparse(node.func)}: {err}")
    assert unbound == []
