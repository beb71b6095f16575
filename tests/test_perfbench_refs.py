"""The benchmark in perfbench/ calls the library by attribute; a rename,
deletion or signature change in the library must fail here, not only in
perfbench's own suite."""

import ast
import importlib
import importlib.util
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


def load_tracing():
    """perfbench/tracing.py as a module; it imports flowdit only when a tracer runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# span names run.py still reads for functions that are gone; each reads 0 until
# the benchmark drops its row
STALE_SPANS = {"numkernel.softmax", "numkernel.rms_norm"}


def perfbench_span_names():
    """Every span name perfbench reads as a string literal: the first argument of
    run.py's incl/calls/self_time and tracer.calls/inclusive/self_time, and the
    keys of tracing.py's `hooks`."""
    readers = {"incl", "calls", "self_time", "inclusive"}
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        func = node.func if isinstance(node, ast.Call) else None
        reader = (isinstance(func, ast.Name) and func.id in readers) or (
            isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "tracer" and func.attr in readers)
        if reader and node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
            names.add(node.args[0].value)
    for node in ast.walk(ast.parse((PERFBENCH / "tracing.py").read_text())):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["hooks"]:
            names.update(key.value for key in node.value.keys)
    return names


def test_every_span_perfbench_reads_names_a_live_function():
    # the tracer wraps the public functions of LAYER_MODULES and names each span
    # <layer>.<function>; a span read for a function that is gone reads 0 silently
    tracing = load_tracing()
    live = {
        tracing.span_name(fn)
        for name in tracing.LAYER_MODULES
        for _, fn in tracing.public_functions(importlib.import_module(name))
    }
    read = perfbench_span_names()
    assert {"numkernel.matmul", "numkernel.pool_matrix", "dit.load_model", "dit.gqa_attention"} <= read & live
    assert sorted(read - live) == sorted(STALE_SPANS)
