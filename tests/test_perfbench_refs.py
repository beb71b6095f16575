"""The benchmark in perfbench/ calls the library by attribute; a rename or
deletion in the library must fail here, not only in perfbench's own suite."""

import ast
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
