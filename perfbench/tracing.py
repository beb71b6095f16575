"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces every public module-level function of the
flowdit layers with a timing wrapper and puts the originals back on exit,
so an untraced run executes the program exactly as shipped. Each wrapper
records one span: calls, inclusive seconds and self seconds (inclusive
minus the part its child spans cover). Autodiff ops also get their
backward closure wrapped, which gives per-primitive backward spans and an
exact count of tape nodes.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# modules whose public functions are wrapped; flowlab re-exports functions
# from its submodules, and every binding is patched so no call path escapes
LAYER_MODULES = (
    "flowdit.autodiff",
    "flowdit.numkernel",
    "flowdit.rope",
    "flowdit.dit",
    "flowdit.contextdrop",
    "flowdit.partitioner",
    "flowdit.sampler",
    "flowdit.flowlab",
    "flowdit.flowlab.training",
    "flowdit.flowlab.datasets",
    "flowdit.flowlab.gaussian",
    "flowdit.flowlab.metrics",
)


_MISSING = object()


def public_functions(module):
    """(attribute, function) for every public flowdit function bound in `module`."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("flowdit.")
    ]


def span_name(fn) -> str:
    """`<layer>.<function>`, where the layer is the top-level flowdit module."""
    return f"{fn.__module__.split('.')[1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive s, self s]
        self.nodes = 0  # tape nodes returned by autodiff ops
        self.matmul_flop = 0  # computed from numkernel.matmul operand shapes
        self.keys_kept = 0  # keys attended, summed over gqa_attention calls
        self.keys_available = 0  # keys there would be without context drop
        self.missing = set()  # metric groups that cannot be measured on this program
        self._stack = []
        self._patched = []
        self._wrappers = {}

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]  # in place: installed wrappers hold these lists
        self.nodes = self.matmul_flop = self.keys_kept = self.keys_available = 0

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def inclusive(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    @contextmanager
    def installed(self):
        for module_name in LAYER_MODULES:
            module = importlib.import_module(module_name)
            for attr, fn in public_functions(module):
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(self._patched):
                setattr(module, attr, fn)
            self._patched.clear()

    def _wrapper(self, fn):
        if fn not in self._wrappers:
            name = span_name(fn)
            hooks = {"numkernel.matmul": self._count_flop, "dit.gqa_attention": self._count_keys}
            after = self._tape_hook(fn.__name__) if name.startswith("autodiff.") else hooks.get(name)
            self._wrappers[fn] = self._timed(name, fn, after)
        return self._wrappers[fn]

    def _timed(self, name, fn, after=None):
        stats = self.spans[name]
        stack = self._stack

        def call(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if after is not None:
                after(args, kwargs, out)
            return out

        return call

    def _tape_hook(self, op: str):
        from flowdit import autodiff

        bwd_name = f"autodiff.bwd.{op}"

        def after(args, kwargs, out):
            if not isinstance(out, autodiff.Var):
                return
            vjp = getattr(out, "_vjp", _MISSING)
            if vjp is _MISSING:
                self.missing.add("autodiff.bwd")
                return
            if vjp is None or getattr(vjp, "traced", False):
                return  # a leaf, or a node an inner op already returned
            timed = self._timed(bwd_name, vjp)
            timed.traced = True
            out._vjp = timed
            self.nodes += 1

        return after

    def _count_flop(self, args, kwargs, out):
        self.matmul_flop += 2 * out.size * args[0].shape[-1]

    def _count_keys(self, args, kwargs, out):
        n = args[0].shape[-2]  # Var and ndarray both carry .shape
        kv_pool = kwargs.get("kv_pool", args[5] if len(args) > 5 else None)
        kept = n
        if kv_pool is not None:
            (h, w), (wh, ww) = kv_pool
            kept = math.ceil(h / wh) * math.ceil(w / ww)
        self.keys_kept += kept
        self.keys_available += n

