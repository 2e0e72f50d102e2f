"""Per-layer tracing installed from outside the library.

``Tracer.install(lib)`` wraps the public functions and methods of the
``abhk`` modules listed in ``LAYERS`` (the library's own files are never
edited) and ``uninstall`` puts the originals back. Each wrapped call
records a span (layer, start, end, parent) in flat in-memory arrays; the
spans are written out only when the run ends (``write_spans``). Scalar
arithmetic is far too frequent for one span per call, so it is aggregated
per field kind instead; its time is still charged to the enclosing span,
so every layer's self time is its span duration minus the time covered by
child spans and by scalar ops.

``*.hit_ratio`` is 1 - distinct keys / calls, where the key is built from
the wrapper's arguments (the owning object is identified by the order in
which the tracer first saw it, so the key is the same in every run).
"""

from __future__ import annotations

import gzip
import itertools
from array import array
from pathlib import Path
from time import perf_counter

# layer name -> [(module, attribute path)]; "Class.method" wraps a method
LAYERS = {
    "basehopf.mul": [("basehopf", "BaseElement.__mul__")],
    "basehopf.sigma": [("basehopf", "BaseAutomorphism.apply")],
    "basehopf.coalgebra": [("basehopf", "base_delta"), ("basehopf", "base_counit"),
                           ("basehopf", "base_antipode")],
    "uqsl2.mul_monomials": [("uqsl2", "UqSl2Base.mul_monomials")],
    "ambicore.mul": [("ambicore", "AmbiElement.__mul__")],
    "ambicore.reduce_word": [("ambicore", "reduce_word")],
    "ambicore.tensor_mul": [("ambicore", "Tensor.__mul__")],
    "ambicore.leg_surgery": [("ambicore", f"Tensor.{name}") for name in
                             ("expand_leg", "map_leg", "contract_leg", "merge_legs")],
    "ambicore.leg_product": [("ambicore", "AmbiskewAlgebra.leg_product")],
    "hopfstruct.delta": [("hopfstruct", "HopfAmbiskewAlgebra.delta")],
    "hopfstruct.antipode": [("hopfstruct", "HopfAmbiskewAlgebra.antipode")],
    "hopfstruct.delta_leg": [("hopfstruct", "HopfAmbiskewAlgebra.delta_leg")],
    "hopfstruct.check_main_theorem": [("hopfstruct", "check_main_theorem")],
    "hopfstruct.verify_hopf_axioms": [("hopfstruct", "verify_hopf_axioms")],
    "hopfstruct.relabel": [("hopfstruct", "relabel")],
    "coradical.corad_degree": [("coradical", "corad_degree")],
    "coradical.closed_forms": [("coradical", name) for name in
                               ("delta_power_closed", "delta_mixed_closed", "sparse_support")],
    "properties.full_report": [("properties", "full_report")],
    "exprparse.parse": [("exprparse", "parse_spec"), ("exprparse", "parse_expr")],
    "exprparse.resolve": [("exprparse", "resolve_spec")],
    "exprparse.eval": [("exprparse", name) for name in
                       ("eval_expr", "eval_base_expr", "eval_scalar_expr")],
    "exprparse.format": [("exprparse", name) for name in
                         ("format_element", "format_tensor", "format_scalar")],
    "cli.main": [("cli", "main")],
}
# layers whose calls are keyed for a hit ratio: layer -> number of leading
# positional arguments (after the owner) that form the key
KEYED = {"ambicore.leg_product": 2, "hopfstruct.delta_leg": 1}
SCALAR_KINDS = {"rational-function": "scalar.qfunc", "cyclotomic": "scalar.cyclotomic",
                "rational": "scalar.rational"}
SCALAR_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__")
ROOT_SPAN = "bench.op"


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in list(SCALAR_KINDS.values()) + list(LAYERS):
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [f"{layer}.hit_ratio" for layer in KEYED]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    def __init__(self):
        self.layer_names = [ROOT_SPAN] + list(LAYERS)
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_scalar = array("d")   # scalar time charged directly to the span
        self.stack = [-1]
        self.scalar_calls = dict.fromkeys(SCALAR_KINDS.values(), 0)
        self.scalar_time = dict.fromkeys(SCALAR_KINDS.values(), 0.0)
        self.key_calls = dict.fromkeys(KEYED, 0)
        self.key_seen = {layer: set() for layer in KEYED}
        self._ordinals = itertools.count()
        self._scalar_depth = [0]   # shared by every Scalar wrapper: count outermost ops only
        self._patches = []

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, layer_id: int, fn):
        layers, parents = self.span_layer, self.span_parent
        starts, ends, scalar = self.span_start, self.span_end, self.span_scalar
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            scalar.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _keyed_wrapper(self, layer: str, nargs: int, fn):
        seen, calls, ordinals = self.key_seen[layer], self.key_calls, self._ordinals

        def wrapper(owner, *args, **kwargs):
            ordinal = owner.__dict__.get("_bench_trace_ordinal")
            if ordinal is None:
                ordinal = owner.__dict__["_bench_trace_ordinal"] = next(ordinals)
            seen.add((ordinal,) + args[:nargs])
            calls[layer] += 1
            return fn(owner, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_wrapper(self, fn):
        calls, times, kinds = self.scalar_calls, self.scalar_time, SCALAR_KINDS
        stack, scalar, depth = self.stack, self.span_scalar, self._scalar_depth

        def wrapper(x, *args):
            if depth[0]:
                return fn(x, *args)   # nested inside another scalar op
            depth[0] = 1
            t0 = perf_counter()
            try:
                return fn(x, *args)
            finally:
                dt = perf_counter() - t0
                depth[0] = 0
                layer = kinds[x.field.kind]
                calls[layer] += 1
                times[layer] += dt
                top = stack[-1]
                if top >= 0:
                    scalar[top] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, lib) -> None:
        """Wrap every layer of ``lib`` (a ``workloads.load_library`` namespace)."""
        modules = [getattr(lib, name) for name in vars(lib)]
        for layer_id, layer in enumerate(self.layer_names):
            for module_name, path in LAYERS.get(layer, ()):
                module = getattr(lib, module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapped = self._span_wrapper(layer_id, original)
                if layer in KEYED:
                    wrapped = self._keyed_wrapper(layer, KEYED[layer], wrapped)
                self._patch(owner, attr, wrapped)
                if not owner_name:
                    # other modules imported the function by name: rebind those too
                    for other in modules:
                        for name, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, name, wrapped)
        scalar_cls = lib.scalar.Scalar
        for method in SCALAR_METHODS:
            self._patch(scalar_cls, method, self._scalar_wrapper(scalar_cls.__dict__[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self, fn):
        """``fn`` wrapped in a root span (one benchmark op per call)."""
        return self._span_wrapper(0, fn)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = dict.fromkeys(self.layer_names, 0)
        self_s = dict.fromkeys(self.layer_names, 0.0)
        for i in range(n):
            name = self.layer_names[self.span_layer[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i] - self.span_scalar[i]
        out = {}
        for layer, count in self.scalar_calls.items():
            out[f"{layer}.calls"] = (count, "count")
            out[f"{layer}.self_s"] = (self.scalar_time[layer], "s")
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        for layer in KEYED:
            total = self.key_calls[layer]
            out[f"{layer}.hit_ratio"] = (1 - len(self.key_seen[layer]) / total if total else 0.0,
                                         "ratio")
        return out

    def write_spans(self, path: Path) -> int:
        """Write every span as ``layer<TAB>start<TAB>end<TAB>parent`` lines
        (times in seconds from the first span) to a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        names = self.layer_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_layer[i]]}\t{self.span_start[i] - t0:.9f}\t"
                         f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\n")
        return len(self.span_start)
