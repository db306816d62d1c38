"""Spans and counters recorded around the public functions of ``gq3``.

``Tracer.install`` replaces each listed function by a wrapper in every
``gq3`` module namespace that bound it (``from .zqlin import
canonicalize`` makes a second binding in ``trunc``, ``cohom``, ``milnor``
and ``acceptance``), and each listed method on its class.  A function
missed in one namespace would silently drop its calls, so ``install``
scans every ``gq3`` namespace for them.

A span is (name, start, end, parent span, query id).  A span's self time
is its duration minus the time its child spans cover; the wrapper's own
bookkeeping is charged to no span.  Spans are kept in flat arrays in
memory and written out by ``write_spans`` when the run ends.
``layer_metrics`` turns the tallies of one or more tracers into metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "presentations", "trunc", "zqlin", "freelie", "cohom", "milnor")

# Callables wrapped per module; "Class.method" entries are patched on the class.
# More are wrapped than the metrics name, so that time spent in a layer's
# helpers is charged to that layer and not to the module that called them.
WRAPPED = {
    "cli": ["main"],
    "presentations": ["parse_presentation", "parse_word", "make_presentation",
                      "letters", "reduce_syllables", "generator_indices"],
    "trunc": ["relator_subspace", "truncated_quotient", "group_invariants", "free_truncation",
              "TruncGroup.multiply", "TruncGroup.inverse", "TruncGroup.power",
              "TruncGroup.evaluate_word"],
    "zqlin": ["canonicalize", "kernel", "smith_normal_form", "annihilator", "subspace_sum",
              "subspace_intersect", "invariant_factors", "row_space", "full_subspace",
              "ZqSubspace.reduce_vector", "ZqSubspace.contains", "ZqSubspace.cardinality",
              "ZqMatrix.from_rows", "ZqMatrix.transpose", "ZqMatrix.apply_to_vector"],
    "freelie": ["word_nontriviality_certificate", "magnus_expansion", "tensor_to_hall",
                "hall_basis", "tensor_expansion", "graded_component"],
    "cohom": ["cohomology_data_from_presentation", "reconstruct_g3", "morphism_check",
              "obstruction_screen", "check_relator_independence", "lambda_matrix"],
    "milnor": ["milnor_mod_q", "galois_symbol_compare", "steinberg_relations_tame",
               "steinberg_relations_finite", "hilbert_symbol_two_adic", "hilbert_relation_span",
               "quadratic_hull", "preset_presentation", "presentation_zero_pairs",
               "parse_preset", "GradedAlgebra.degree_divisors"],
}


class Tracer:
    def __init__(self):
        self.query = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, fn, pre=None, post=None):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A recursive function calls itself through the rebound name;
            # only its outermost call is a span.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            enter = perf_counter()
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            sid = len(tracer.span_start)
            frame = [name, sid, 0.0]
            tracer.span_name.append(tracer._id(name))
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            tracer.span_query.append(tracer.query)
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end[sid] = end
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + (end - start - frame[2])
                if ok and post is not None:
                    post(tracer, args, kwargs, result)
                if stack:
                    stack[-1][2] += perf_counter() - enter
            return result

        return wrapper

    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed callable wherever ``gq3`` bound it."""
        for layer in LAYERS:
            importlib.import_module(f"gq3.{layer}")
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer, entries in WRAPPED.items():
            mod = sys.modules[f"gq3.{layer}"]
            for entry in entries:
                name = f"{layer}.{entry.rsplit('.', 1)[-1]}"
                pre, post = _HOOKS.get(name, (None, None))
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    self._undo.append((cls, meth, fn))
                    wrapper = self._wrap(name, fn, pre, post)
                    if isinstance(fn, staticmethod):
                        wrapper = staticmethod(wrapper)
                    setattr(cls, meth, wrapper)
                else:
                    fn = getattr(mod, entry)
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, pre, post))
        # One scan over every gq3 namespace rebinds each name bound to a
        # wrapped function, so no caller keeps the original.
        for key, m in list(sys.modules.items()):
            if key != "gq3" and not key.startswith("gq3."):
                continue
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((m, attr, value))
                    setattr(m, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tquery\tname\tstart_us\tend_us\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_query[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{(self.span_start[sid] - t0) * 1e6:.1f}\t"
                         f"{(self.span_end[sid] - t0) * 1e6:.1f}\n")


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-function calls and self time, counters, and per-layer totals.

    Counts come from the first tracer; a function's self time is its
    smallest over the tracers, each of which saw the same queries.
    """
    first = tracers[0]
    self_s = {name: min(t.self_s[name] for t in tracers) for name in first.self_s}
    out: dict[str, float] = {}
    for name, n in first.calls.items():
        out[f"{name}.calls"] = n
    for name, s in self_s.items():
        out[f"{name}.self_ms"] = s * 1e3
    out.update(first.counters)
    rows_in = first.counters.get("zqlin.canonicalize.rows_in", 0)
    out["zqlin.canonicalize.rows_distinct_per_in"] = (
        first.counters.get("zqlin.canonicalize.rows_distinct", 0) / rows_in if rows_in else 0.0)
    bound = first.counters.get("freelie.certificate.class_bound", 0)
    out["freelie.certificate.weight_per_class_bound"] = (
        first.counters.get("freelie.certificate.weight", 0) / bound if bound else 0.0)
    total = sum(self_s.values())
    for layer in LAYERS:
        s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_ms"] = s * 1e3
        out[f"{layer}.share"] = s / total if total else 0.0
    return out


# -- counters taken at the boundaries ---------------------------------------


def _canonicalize_pre(tracer, args, kwargs):
    q, ambient, rows = args
    rows = [tuple(x % q for x in row) for row in rows]
    tracer.count("zqlin.canonicalize.rows_in", len(rows))
    tracer.count("zqlin.canonicalize.rows_distinct", len(set(rows)))
    return (q, ambient, rows), kwargs


def _certificate_post(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("freelie.certificate.weight", result[0])
        tracer.count("freelie.certificate.class_bound", args[2] if len(args) > 2 else kwargs["c"])


_HOOKS = {
    "zqlin.canonicalize": (
        _canonicalize_pre,
        lambda t, a, k, r: t.count("zqlin.canonicalize.rows_out", r.nrows)),
    "presentations.letters": (
        None, lambda t, a, k, r: t.count("presentations.letters.syllables", len(r))),
    "trunc.relator_subspace": (
        None, lambda t, a, k, r: t.count("trunc.eliminated_generators", len(r[1].eliminated))),
    "freelie.magnus_expansion": (
        None, lambda t, a, k, r: t.count("freelie.magnus_expansion.monomials", len(r))),
    "freelie.word_nontriviality_certificate": (None, _certificate_post),
}
