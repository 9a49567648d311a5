"""Spans and counts around the calls into each ``cmc`` module.

The benchmark wraps functions of the program from outside: nothing in
``src/`` changes.  A wrapped function records a span (name, start, end,
parent) each time it is entered; a few hot methods are only counted.  The
spans of one round are folded into per-layer figures by :func:`layer_metrics`
and then dropped, so memory stays flat however long a run lasts.

Names imported with ``from .x import f`` live on in other modules' globals,
so every ``cmc`` module (and the package) that holds the same function object
gets the wrapper.
"""

from __future__ import annotations

import functools
import gc
import sys
import weakref
from collections import Counter
from time import perf_counter

# module -> functions that get a span: those the per-layer metrics read.
# Recursive helpers get a span on their outermost call only.
SPANS = {
    "measures": ["validate_additivity"],
    "productgap": ["mim_masses", "_build_half", "binomial_masses", "tv_upper_bound"],
    "orthogonality": [
        "_masses_above",
        "ortho_certificate",
        "continuity_modulus",
        "refute_abs_continuity",
        "_collect_cells",
        "_positive_cells",
    ],
    "codec": ["encode", "decode"],
    "dsl": ["parse", "print_measure"],
    "cli": ["main"],
}
RECURSIVE = {"orthogonality._collect_cells", "orthogonality._positive_cells", "dsl.print_measure"}
# the `out` argument the cell collectors fill
CELL_OUT_ARG = {"orthogonality._collect_cells": 4, "orthogonality._positive_cells": 3}

PER_LAYER = [
    "measures.mass_calls",
    "measures.mass_misses",
    "measures.memo_hit_ratio",
    "measures.memo_entries",
    "measures.validate_ms",
    "productgap.mim_ms",
    "productgap.mim_build_ms",
    "productgap.mim_sort_sweep_ms",
    "productgap.mim_cells",
    "productgap.binomial_ms",
    "productgap.tv_bound_ms",
    "orthogonality.walk_ms",
    "orthogonality.walk_calls",
    "orthogonality.mim_calls",
    "orthogonality.binomial_calls",
    "orthogonality.certify_ms",
    "orthogonality.modulus_ms",
    "orthogonality.refute_ms",
    "orthogonality.cells_materialized",
    "codec.spine_steps",
    "codec.spine_ms",
    "codec.encode_ms",
    "codec.decode_ms",
    "codec.coded_mass_misses",
    "dsl.parse_calls",
    "dsl.parse_ms",
    "dsl.print_ms",
    "cli.import_ms",
    "cli.main_ms",
    "schedules.alpha_calls",
    "dyadic.sqrt_calls",
]


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _replace(modules, fn, wrapped):
    """Put ``wrapped`` wherever a module global holds ``fn``."""
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is fn:
                setattr(m, attr, wrapped)


class Tracer:
    """Collects spans and counts while ``active``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._codes = weakref.WeakSet()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        outer_only = name in RECURSIVE
        out_arg = CELL_OUT_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (
                outer_only and tracer._stack and tracer.spans[tracer._stack[-1]][0] == name
            ):
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), None, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if out_arg is not None:
                tracer.counts["cells_materialized"] += len(args[out_arg])
            if name == "productgap._build_half":
                tracer.counts["mim_cells"] += len(result[0])
            return result

        return wrapper

    def install(self, package):
        """Wrap the functions in SPANS and count mass, alpha and sqrt calls."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for short, names in SPANS.items():
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:
                continue
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                _replace(modules, fn, self._span_wrapper(f"{short}.{fname}", fn))
        self._count_methods(package)
        sqrt_bounds = sys.modules[f"{package.__name__}.dyadic"].sqrt_bounds
        _replace(modules, sqrt_bounds, self._counter("sqrt_calls", sqrt_bounds))

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_methods(self, package):
        measures = sys.modules[f"{package.__name__}.measures"]
        codec = sys.modules[f"{package.__name__}.codec"]
        schedules = sys.modules[f"{package.__name__}.schedules"]
        tracer = self
        base = measures.MeasureCode
        mass, init = base.mass, base.__init__
        coded = codec.CodedMeasure

        def counted_mass(code, s):
            if tracer.active:
                tracer.counts["mass_calls"] += 1
                if s not in code._memo:
                    tracer.counts["mass_misses"] += 1
                    if isinstance(code, coded):
                        tracer.counts["coded_mass_misses"] += 1
            return mass(code, s)

        def registered_init(code, *args, **kwargs):
            init(code, *args, **kwargs)
            tracer._codes.add(code)

        base.mass = functools.wraps(mass)(counted_mass)
        base.__init__ = functools.wraps(init)(registered_init)
        for cls in vars(schedules).values():
            if isinstance(cls, type) and "alpha" in vars(cls):
                cls.alpha = self._counter("alpha_calls", cls.alpha)
        step = codec._SpineCache._step
        codec._SpineCache._step = self._span_wrapper("codec._step", step)

    # -- folding -----------------------------------------------------------

    def memo_entries(self):
        """Memo entries held by all live codes (after a collection, so codes
        kept only by reference cycles do not count)."""
        gc.collect()
        return sum(len(code._memo) for code in list(self._codes))

    def take(self):
        """Per-layer figures of the spans and counts since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return layer_metrics(spans, counts)


def layer_metrics(spans, counts):
    """Fold spans and counts into the PER_LAYER figures (times in ms).

    A span's self time is its duration minus the time its direct child spans
    cover.  ``*_ms`` figures are inclusive times of outermost spans, except
    ``mim_sort_sweep_ms`` and ``spine_ms``, which are self times, and
    ``walk_ms``, the time of level walks: `_masses_above` calls that handed
    no work to the binomial or MIM paths.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    incl = Counter()
    self_time = Counter()
    calls = Counter()
    walk_ms = 0.0
    walk_calls = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
        if name == "orthogonality._masses_above" and not has_child[i]:
            walk_ms += end - start
            walk_calls += 1
    ms = lambda seconds: seconds * 1000.0
    mass_calls = counts["mass_calls"]
    return {
        "measures.mass_calls": mass_calls,
        "measures.mass_misses": counts["mass_misses"],
        "measures.memo_hit_ratio": (mass_calls - counts["mass_misses"]) / mass_calls if mass_calls else 0.0,
        "measures.validate_ms": ms(incl["measures.validate_additivity"]),
        "productgap.mim_ms": ms(incl["productgap.mim_masses"]),
        "productgap.mim_build_ms": ms(incl["productgap._build_half"]),
        "productgap.mim_sort_sweep_ms": ms(self_time["productgap.mim_masses"]),
        "productgap.mim_cells": counts["mim_cells"],
        "productgap.binomial_ms": ms(incl["productgap.binomial_masses"]),
        "productgap.tv_bound_ms": ms(incl["productgap.tv_upper_bound"]),
        "orthogonality.walk_ms": ms(walk_ms),
        "orthogonality.walk_calls": walk_calls,
        "orthogonality.mim_calls": calls["productgap.mim_masses"],
        "orthogonality.binomial_calls": calls["productgap.binomial_masses"],
        "orthogonality.certify_ms": ms(incl["orthogonality.ortho_certificate"]),
        "orthogonality.modulus_ms": ms(incl["orthogonality.continuity_modulus"]),
        "orthogonality.refute_ms": ms(incl["orthogonality.refute_abs_continuity"]),
        "orthogonality.cells_materialized": counts["cells_materialized"],
        "codec.spine_steps": calls["codec._step"],
        "codec.spine_ms": ms(self_time["codec._step"]),
        "codec.encode_ms": ms(incl["codec.encode"]),
        "codec.decode_ms": ms(incl["codec.decode"]),
        "codec.coded_mass_misses": counts["coded_mass_misses"],
        "dsl.parse_calls": calls["dsl.parse"],
        "dsl.parse_ms": ms(incl["dsl.parse"]),
        "dsl.print_ms": ms(incl["dsl.print_measure"]),
        "cli.main_ms": ms(incl["cli.main"]),
        "schedules.alpha_calls": counts["alpha_calls"],
        "dyadic.sqrt_calls": counts["sqrt_calls"],
    }
