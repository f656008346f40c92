"""Per-module spans around calls into gkmcalc, installed from outside.

The tracer wraps every public module-level function of the traced modules,
plus the methods in SPANNED_METHODS, and puts each wrapper into every
gkmcalc module namespace that holds the original object, so that imported
references such as gkm's ``integer_kernel`` are caught too.  A span records
its name, start, end and parent; the layer of a span is the module that
defines the function.  Series arithmetic, accessors and scalar helpers get no
span: their time counts toward the caller.

Install a tracer only in a process that is about to run one job and exit: it
patches the gkmcalc modules in place.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "graphio", "gkm", "classifying", "lattice", "fgl", "series", "localization")

# layer-boundary methods, by module, class and name
SPANNED_METHODS = (
    ("series", "TruncatedSeries", "substitute"),
    ("series", "TruncatedSeries", "invert"),
    ("series", "LaurentSeries", "divide"),
    ("fgl", "FormalGroupLaw", "sum"),
    ("fgl", "FormalGroupLaw", "inverse"),
    ("fgl", "FormalGroupLaw", "n_series"),
)

SPAN_DEPTH = 4  # deeper spans are kept only in the per-name totals

# module-level helpers too small and too hot to be worth a span
UNSPANNED = {"series.monomial_key"}

# functions that named per-layer metrics depend on; a missing one is
# reported as absent and its metrics as zero
NAMED = (
    "gkm.solve_equivariant_cohomology",
    "classifying.kernel_ideal",
    "classifying.transport",
    "classifying.ideal_residue",
    "lattice.smith_normal_form",
    "fgl.build_fgl",
    "fgl.FormalGroupLaw.n_series",
    "series.TruncatedSeries.substitute",
    "series.LaurentSeries.divide",
    "series.format_series",
    "localization.find_generic_slope",
    "localization.euler_classes",
    "scalars.GradedScalar.__post_init__",
)

# lattice functions whose first argument is a matrix (a list of rows)
_MATRIX_FUNCS = {
    "lattice.smith_normal_form",
    "lattice.integer_kernel",
    "lattice.hermite_row_basis",
    "lattice.invariant_factors",
}


def _modules():
    return {
        name[len("gkmcalc."):]: mod
        for name, mod in sys.modules.items()
        if name.startswith("gkmcalc.") and isinstance(mod, types.ModuleType)
    }


def _max_bits(obj) -> int:
    """Largest bit length of an int inside nested lists and tuples."""
    if isinstance(obj, int):
        return obj.bit_length() if obj >= 0 else (-obj).bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    """Spans and counters for one job."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        mods = _modules()
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = mods.get(layer)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and name not in UNSPANNED
                ):
                    originals[id(obj)] = self._wrap(obj, name)
        for mod in [sys.modules["gkmcalc"], *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in SPANNED_METHODS:
            cls = getattr(mods.get(layer), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}"))
        scalar_cls = getattr(mods.get("scalars"), "GradedScalar", None)
        post_init = getattr(scalar_cls, "__post_init__", None)
        if isinstance(post_init, types.FunctionType):
            setattr(scalar_cls, "__post_init__", self._counted(post_init))
        for name in NAMED:
            layer, _, rest = name.partition(".")
            obj = mods.get(layer)
            for part in rest.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                self.absent.append(name)

    def _counted(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["scalars.constructed"] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observe if name in _MATRIX_FUNCS or name.startswith("gkm.solve") else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(name, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _observe(self, name, args, result) -> None:
        if name == "gkm.solve_equivariant_cohomology":
            provenance = getattr(result, "provenance", None) or {}
            self.counts["gkm.matrix_cells"] += sum(c * r for c, r in provenance.values())
            return
        mat = args[0] if args else []
        cells = len(mat) * (len(mat[0]) if mat and len(mat[0]) else 0)
        self.maxima["lattice.max_cells"] = max(self.maxima["lattice.max_cells"], cells)
        self.maxima["lattice.max_bits"] = max(self.maxima["lattice.max_bits"], _max_bits(result))

    # ---- results ----------------------------------------------------------

    def collect(self, job_seconds: float) -> dict:
        """Per-layer metrics of the job; its spans down to SPAN_DEPTH as
        [index, name, start, end, parent index]; and for every span name,
        [name, calls, inclusive ms, self ms]."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = 0.0
            metrics[f"{layer}.calls"] = 0
        metrics["lattice.solver_calls"] = 0
        totals: dict[str, list] = {}
        depth: list[int] = []
        kept = []
        for idx, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_ms = 1000 * (end - start - child_time[idx])
            metrics[f"{layer}.self_ms"] += self_ms
            metrics[f"{layer}.calls"] += 1
            row = totals.setdefault(name, [name, 0, 0.0, 0.0])
            row[1] += 1
            row[2] += 1000 * (end - start)
            row[3] += self_ms
            if layer == "lattice" and parent >= 0 and spans[parent][0].startswith("gkm."):
                metrics["lattice.solver_calls"] += 1
            depth.append(depth[parent] + 1 if parent >= 0 else 0)
            if depth[idx] <= SPAN_DEPTH:
                kept.append([idx, name, start, end, parent])

        def calls(name):
            return totals[name][1] if name in totals else 0

        def inclusive_ms(name):
            return totals[name][2] if name in totals else 0.0

        metrics["gkm.solves"] = calls("gkm.solve_equivariant_cohomology")
        metrics["gkm.matrix_cells"] = self.counts["gkm.matrix_cells"]
        metrics["classifying.kernel_ideals"] = calls("classifying.kernel_ideal")
        metrics["classifying.transports"] = calls("classifying.transport")
        metrics["classifying.residues"] = calls("classifying.ideal_residue")
        metrics["lattice.snf_calls"] = calls("lattice.smith_normal_form")
        metrics["lattice.max_cells"] = self.maxima["lattice.max_cells"]
        metrics["lattice.max_bits"] = self.maxima["lattice.max_bits"]
        metrics["fgl.build_ms"] = inclusive_ms("fgl.build_fgl")
        metrics["fgl.n_series_calls"] = calls("fgl.FormalGroupLaw.n_series")
        metrics["series.substitute_calls"] = calls("series.TruncatedSeries.substitute")
        metrics["series.substitute_ms"] = inclusive_ms("series.TruncatedSeries.substitute")
        metrics["series.divide_ms"] = inclusive_ms("series.LaurentSeries.divide")
        metrics["series.format_ms"] = inclusive_ms("series.format_series")
        metrics["localization.slope_ms"] = inclusive_ms("localization.find_generic_slope")
        metrics["localization.euler_ms"] = inclusive_ms("localization.euler_classes")
        metrics["scalars.constructed"] = self.counts["scalars.constructed"]
        return {
            "seconds": job_seconds,
            "metrics": dict(metrics),
            "absent": list(self.absent),
            "spans": kept,
            "totals": sorted(totals.values()),
        }
