"""In-memory span tracer for the benchmark's traced run.

The tracer wraps diskmean's public functions from outside the package.
Modules bind each other's functions with ``from .x import y``, so a
function is wrapped at every module attribute that holds it, and
``ComplexSeries.eval`` is wrapped together with its ``__call__`` alias.
Each call records a span ``[name, start, end, parent, query]`` in a list
that stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Span name -> (module, attribute path).  The span name's first part is
#: the layer; self time subtracts only time spent in other layers.
TRACED = {
    "series.eval": ("series", "ComplexSeries.eval"),
    "series.reciprocal": ("series", "ComplexSeries.reciprocal"),
    "series.mul": ("series", "ComplexSeries.mul"),
    "functionals.sup_on_circle": ("functionals", "sup_on_circle"),
    "functionals.functional_series": ("functionals", "functional_series"),
    "functionals.functional_eval_direct": ("functionals", "functional_eval_direct"),
    "classes.check_membership": ("classes", "check_membership"),
    "classes.starlike_scan": ("classes", "starlike_scan"),
    "classes.class_radius": ("classes", "class_radius"),
    "classes.coefficient_criterion": ("classes", "coefficient_criterion"),
    "means.harmonic_mean": ("means", "harmonic_mean"),
    "means.verify_closure": ("means", "verify_closure"),
    "families.build": ("families", "build"),
    "families.boundary_image": ("families", "boundary_image"),
    "families.table1": ("families", "table1"),
    "families.extend_table1": ("families", "extend_table1"),
    "families.ex32_tail_by_integral": ("families", "ex32_tail_by_integral"),
    "cli.main": ("cli", "main"),
    "cli.parse_source": ("cli", "parse_source"),
}

#: Per-layer metrics of the traced run, in report order, with units.
#: ``NAME.calls`` counts spans, ``NAME.ms`` sums their wall time and
#: ``NAME.self_ms`` subtracts the time covered by spans of other layers.
LAYER_METRICS = (
    ("init.import_ms", "ms"),
    ("series.eval.calls", "count"),
    ("series.eval.ms", "ms"),
    ("series.eval.coef_points", "count"),
    ("series.reciprocal.calls", "count"),
    ("series.reciprocal.ms", "ms"),
    ("series.mul.calls", "count"),
    ("series.mul.ms", "ms"),
    ("functionals.sup_on_circle.calls", "count"),
    ("functionals.sup_on_circle.ms", "ms"),
    ("functionals.sup_on_circle.self_ms", "ms"),
    ("functionals.functional_series.ms", "ms"),
    ("functionals.functional_eval_direct.ms", "ms"),
    ("functionals.functional_eval_direct.self_ms", "ms"),
    ("classes.check_membership.ms", "ms"),
    ("classes.check_membership.self_ms", "ms"),
    ("classes.starlike_scan.ms", "ms"),
    ("classes.starlike_scan.self_ms", "ms"),
    ("classes.class_radius.ms", "ms"),
    ("classes.class_radius.scans_per_call", "count"),
    ("classes.coefficient_criterion.ms", "ms"),
    ("means.harmonic_mean.ms", "ms"),
    ("means.harmonic_mean.self_ms", "ms"),
    ("means.verify_closure.ms", "ms"),
    ("families.build.calls", "count"),
    ("families.build.ms", "ms"),
    ("families.build.hit_ratio", "ratio"),
    ("families.boundary_image.ms", "ms"),
    ("families.table1.ms", "ms"),
    ("families.extend_table1.ms", "ms"),
    ("families.ex32_tail_by_integral.ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.parse_source.ms", "ms"),
    ("trace.overhead_qps", "1/s"),
)

# span fields
NAME, START, END, PARENT, QUERY, SIZE = range(6)


def diskmean_modules() -> list:
    """The diskmean package and every submodule imported so far."""
    return [m for key, m in sys.modules.items()
            if key == "diskmean" or key.startswith("diskmean.")]


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


class Tracer:
    """Wraps diskmean's binding sites and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name == "series.eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # coefficient-points: stored coefficients times evaluation points
            size = (args[0].coeffs.size * getattr(args[1], "size", 1)
                    if sized else 0)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.query, size]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each attribute that binds it.

        The imported diskmean modules are searched, and so are the classes
        they define, which covers method aliases such as
        ``ComplexSeries.__call__``.
        """
        namespaces = diskmean_modules()
        by_module = {ns.__name__.rpartition(".")[2]: ns for ns in namespaces}
        holders = list(namespaces)
        for ns in namespaces:
            holders += [v for v in vars(ns).values()
                        if isinstance(v, type) and v.__module__ == ns.__name__]
        for name, (module, path) in TRACED.items():
            if module not in by_module:
                continue  # module not imported by this workload
            _, original = _resolve(by_module[module], path)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query",
                                  "size"], "spans": self.spans}, fh)


def layer_metrics(spans, import_ms: float, build_hits: int,
                  build_misses: int, overhead_qps: float) -> dict[str, float]:
    """Fold spans into the LAYER_METRICS values."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def layer(i):
        return spans[i][NAME].partition(".")[0]

    def foreign(i):
        # time inside span i covered by descendants from another layer
        total = 0.0
        for c in children.get(i, ()):
            if layer(c) != layer(i):
                total += spans[c][END] - spans[c][START]
            else:
                total += foreign(c)
        return total

    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    coef_points = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + 1e3 * dur
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (dur - foreign(i))
        coef_points += s[SIZE]

    radius_calls = calls.get("classes.class_radius", 0)
    scans = 0
    for s in spans:
        if s[NAME] == "functionals.sup_on_circle":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != "classes.class_radius":
                p = spans[p][PARENT]
            scans += p >= 0
    lookups = build_hits + build_misses

    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if metric == "init.import_ms":
            value = import_ms
        elif metric == "series.eval.coef_points":
            value = coef_points
        elif metric == "classes.class_radius.scans_per_call":
            value = scans / radius_calls if radius_calls else 0.0
        elif metric == "families.build.hit_ratio":
            value = build_hits / lookups if lookups else 0.0
        elif metric == "trace.overhead_qps":
            value = overhead_qps
        elif field == "calls":
            value = calls.get(base, 0)
        elif field == "ms":
            value = ms.get(base, 0.0)
        else:
            value = self_ms.get(base, 0.0)
        out[metric] = value
    return out
