"""Per-layer tracing, installed from outside the program.

`Tracer.install` wraps every public function of the eight tropconv
modules, plus `TVec.join`, `TVec.scale` and `HemispaceSpec.build`, and
rebinds each wrapper in every tropconv namespace that holds the
original, since callers look functions up where they imported them
(`verify.conical_member`, `cli.complement_spec`, ...).  `uninstall` puts
every original back.

Two kinds of wrapper:

* a span records calls and self time (its duration minus the time of
  the spans it encloses).  Functions that share a layer name pool their
  self time, and a call counts only when no span of the same layer is
  already open, so `conical_member` calling `conical_member_trace` is
  one membership call;
* a counter records calls only.  Scalar and vector operations and the
  small boundary-set, support and token helpers are counted, not timed,
  because a timer on each of those calls would cost more than the call;
  their time stays in the enclosing span's self time.

While `paused`, wrappers pass straight through, so the benchmark's own
checks are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("semiring", "tlinalg", "sectors", "hemispace", "verify", "specio", "render2d", "cli")
METHODS = (("tlinalg", "TVec", "join"), ("tlinalg", "TVec", "scale"),
           ("hemispace", "HemispaceSpec", "build"))

# Counted, not timed: qualified name -> counter name.
COUNTED = {
    **{f"semiring.{f}": "semiring.scalar_ops" for f in ("t_add", "t_mul", "t_div", "t_inv", "t_max")},
    "tlinalg.TVec.join": "tlinalg.vec_ops",
    "tlinalg.TVec.scale": "tlinalg.vec_ops",
    **{f"hemispace.{f}": "hemispace.boundary_ops" for f in (
        "upset_of", "upset_product", "downset_product", "down_up_overlap",
        "pick_finite_in_interval", "overlap_finite_witness", "split_up_product",
        "split_down_product")},
    **{f"semiring.{f}": f"semiring.{f}" for f in ("parse_scalar", "format_scalar",
                                                   "format_scalar_compact")},
    **{f"tlinalg.{f}": f"tlinalg.{f}" for f in ("support", "unit_vector", "parse_vector")},
}

# Spans that share a layer: qualified name -> layer.  Other public
# functions are spans of their own, named "<module>.<function>", except
# in `cli`, whose functions all belong to the `cli.main` layer.
LAYERS = {
    "hemispace.HemispaceSpec.build": "hemispace.build",
    "hemispace.rank_one_check": "hemispace.rank_one",
    "hemispace.thin_structure": "hemispace.thin",
    "hemispace.complement_spec": "hemispace.complement",
    "hemispace.conical_member": "hemispace.member",
    "hemispace.conical_member_trace": "hemispace.member",
    "sectors.sector_contains": "sectors.predicate",
    "sectors.quasisector_contains": "sectors.predicate",
    "sectors.quasisector_gens": "sectors.gens",
    "sectors.sector_pr": "sectors.gens",
    "verify.partition_check": "verify.partition",
    "verify.affine_partition_check": "verify.partition",
    "verify.pair_partition_check": "verify.partition",
    "verify.closure_check": "verify.closure",
    "verify.segment_convexity_check": "verify.segment",
    "verify.sector_union_check": "verify.sector_union",
    "verify.quasisector_in_cone": "verify.sector_union",
    "verify.sector_in_affine_side": "verify.sector_union",
    "verify.multiorder_invariant_check": "verify.multiorder",
    "specio.parse_spec_text": "specio.parse",
    "specio.parse_spec_text_raw": "specio.parse",
    "specio.load_spec": "specio.parse",
    "specio.canonical_text": "specio.canonical",
    "specio.save_spec": "specio.canonical",
    "render2d.render_svg": "render2d.render_svg",
    "render2d.build_geometry": "render2d.render_svg",
}


def public_functions(module):
    """(name, function) for each public function defined in the module."""
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def layer_of(qualname: str) -> str:
    if qualname.startswith("cli."):
        return "cli.main"
    return LAYERS.get(qualname, qualname)


class Tracer:
    def __init__(self):
        self.active = True
        self.spans = defaultdict(lambda: [0, 0])  # layer -> [calls, self ns]
        self.counts = defaultdict(int)
        self._stack: list = []  # child-time accumulators of the open spans
        self._depth = defaultdict(int)
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, layer: str, fn):
        stat, stack, depth, clock = self.spans[layer], self._stack, self._depth, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if depth[layer] == 0:
                stat[0] += 1
            depth[layer] += 1
            child = [0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                stat[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, qualname: str, fn):
        if qualname in COUNTED or inspect.isgeneratorfunction(fn):
            return self._counter(COUNTED.get(qualname, qualname), fn)
        return self._span(layer_of(qualname), fn)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module(f"tropconv.{short}")
            for name, fn in public_functions(module):
                wrapped[fn] = self._wrap(f"{short}.{name}", fn)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"tropconv.{short}"), cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(f"{short}.{cls_name}.{meth}", raw.__func__))
            else:
                new = self._wrap(f"{short}.{cls_name}.{meth}", raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "tropconv" and not mod_name.startswith("tropconv."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapped[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- report ----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.spans[layer][0] if layer in self.spans else 0

    def self_ns_per_call(self, layer: str) -> float:
        calls, self_ns = self.spans[layer] if layer in self.spans else (0, 0)
        return self_ns / calls if calls else 0.0

    def table(self) -> str:
        lines = [f"{'layer':40s} {'calls':>10s} {'self ms':>12s}"]
        for layer, (calls, self_ns) in sorted(self.spans.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{layer:40s} {calls:10d} {self_ns / 1e6:12.3f}")
        for name, calls in sorted(self.counts.items()):
            lines.append(f"{name:40s} {calls:10d} {'(counted)':>12s}")
        return "\n".join(lines)
