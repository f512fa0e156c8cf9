"""Outside-in layer trace: spans and counters installed around hopfprod.

The library is not edited.  :meth:`Tracer.install` replaces every module
attribute of the ``hopfprod`` package that binds a traced function with a
wrapper that records a span (name, start, end, parent, op id), because the
modules import each other's functions by name.  Field arithmetic gets a
counter only, since a span per scalar operation would cost more than the
operation.  The per-element helpers of ``linalg`` (``tensor_vec``,
``vec_add_into``, ``tensor_space``, ``LinMap.apply`` ...) are not wrapped
either, so their time counts toward the layer that calls them.  Spans stay
in memory and are written once, at the end of the run.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "linalg", "structures", "unified", "special",
          "factorization", "classification", "groups", "serialize", "cli")

# per-element helpers: called millions of times, cheaper than a span
UNWRAPPED = {"linalg": {"vec_add_into", "vec_scale", "vec_sub", "tensor_vec",
                        "basis_vec", "tensor_space"}}

# span names aggregated under one metric name
ALIASES = {"linalg.solve_system": "linalg.elim", "linalg.invert": "linalg.elim",
           "linalg.rank": "linalg.elim", "linalg.PreimageSolver": "linalg.elim",
           "linalg.PreimageSolver.preimage": "linalg.elim"}

FIELD_OPS = ("mul", "add", "is_zero", "inv")

# work counters recorded at the same boundaries as the spans
WORK = {
    "linalg.tensor_map": lambda args, out: {
        "linalg.tensor_map.cols_out": len(out.cols)},
    "unified.assemble_product": lambda args, out: {
        "unified.assemble_product.entries_out":
            sum(len(col) for col in out.mult.cols.values())},
    "structures.antipode_solve": lambda args, out: {
        "structures.antipode_solve.unknowns": args[0].dim ** 2},
    "serialize.serialize": lambda args, out: {"serialize.bytes": len(out)},
    "serialize.parse": lambda args, out: {"serialize.bytes": len(args[0])},
}


class Tracer:
    """Spans and counters for one run; ``op`` names the op being timed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            tracer.counts[name + ".calls"] += 1
            if work is not None:
                tracer.counts.update(work(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        if hasattr(fn, "cache_clear"):  # lru_cache: setup empties it
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every layer wherever they are bound."""
        modules = {layer: importlib.import_module(f"hopfprod.{layer}")
                   for layer in LAYERS}
        bindings = [importlib.import_module("hopfprod"),
                    importlib.import_module("hopfprod.corpus"), *modules.values()]
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in UNWRAPPED.get(layer, ()):
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = self._span(f"{layer}.{attr}", obj)
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

        linalg, fact = modules["linalg"], modules["factorization"]
        solver = linalg.PreimageSolver
        self._set(solver, "__init__", self._span("linalg.PreimageSolver",
                                                 solver.__dict__["__init__"]))
        self._set(solver, "preimage", self._span("linalg.PreimageSolver.preimage",
                                                 solver.__dict__["preimage"]))
        build = fact.FactorizationInput.__dict__["build"].__func__
        self._set(fact.FactorizationInput, "build", classmethod(
            self._span("factorization.FactorizationInput.build", build)))

        fields = modules["fields"]
        for cls in (fields.Rationals, fields.PrimeField):
            for op in FIELD_OPS:
                self._set(cls, op, self._counter(f"fields.{op}.calls",
                                                 cls.__dict__[op]))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name: duration minus children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[ALIASES.get(name, name)] += end - start - child[k]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure: ``<layer>.self_s``, ``<span>.self_s`` and
        the counters."""
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, secs in self.self_times().items():
            out[name + ".self_s"] = secs
            out[name.split(".")[0] + ".self_s"] += secs
        out.update(self.counts)
        return out

    def write(self, path):
        """Spans as one JSON list per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
