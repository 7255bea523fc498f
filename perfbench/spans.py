"""Layer spans for one traced `oscoal` CLI job.

Run as `python3 perfbench/spans.py SPANS_OUT ARGV...`.  It wraps each
layer's public functions in a timing span, installed in the namespace where
the caller looks the name up (the modules use `from .x import f`), runs
`oscoal.cli.main(ARGV)` and, when the job ends, writes every span as
[name, start, end, parent index, work count, ru_maxrss growth in KiB] to
SPANS_OUT.  `layer_metrics` turns the spans into the per-layer metrics.
"""

import functools
import json
import os
import resource
import sys
import time

# (module, attribute, span name, work count of one call, track RSS growth)
WRAPPED = (
    ("oscoal.cli", "main", "cli.main", None, False),
    ("oscoal.cli", "load_particles", "yields.load_particles", "rows", False),
    ("oscoal.cli", "pair_yields", "yields.pair_yields", None, True),
    ("oscoal.cli", "p_kl", "coalescence.p_kl", None, False),
    ("oscoal.cli", "v_and_t", "coalescence.v_and_t", None, False),
    ("oscoal.cli", "export_grid", "wigner3d.export_grid", "cells", False),
    ("oscoal.cli", "write_prob_table", "gridio.write_prob_table", "bytes", False),
    ("oscoal.cli", "write_wigner_grid", "gridio.write_wigner_grid", "bytes", False),
    ("oscoal.yields", "p_kl_batch", "coalescence.p_kl_batch", "pairs", True),
    ("oscoal.coalescence", "quasi_prob_table", "ho1d.quasi_prob_table", "points", False),
    ("oscoal.coalescence", "bilinear_table", "expansion.bilinear_table", None, False),
    ("oscoal.wigner3d", "bilinear_table", "expansion.bilinear_table", None, False),
    ("oscoal.wigner3d", "derive_invariant_poly", "wigner3d.derive_invariant_poly", None, False),
    ("oscoal.wigner3d", "level_crossings", "wigner3d.level_crossings", None, False),
    ("oscoal.wigner3d", "d_coeff_reduced", "expansion.d_coeff_reduced", None, False),
)

_COUNTS = {
    "rows": lambda args, out: len(out),
    "cells": lambda args, out: int(out.values.size),
    "pairs": lambda args, out: len(args[1]),
    "points": lambda args, out: int(getattr(args[0], "size", 1)),
    "bytes": lambda args, out: os.path.getsize(
        next(a for a in args if isinstance(a, (str, os.PathLike)))
    ),
}

# Per-layer metrics: name -> (unit, better).  Layers a workload does not
# touch report 0.
_S, _COUNT = ("s", "lower"), ("count", "lower")
LAYER_METRICS = {
    "ho1d.quasi_prob_table.calls": _COUNT,
    "ho1d.quasi_prob_table.points": _COUNT,
    "ho1d.quasi_prob_table.s": _S,
    "coalescence.p_kl.calls": _COUNT,
    "coalescence.p_kl.s": _S,
    "coalescence.p_kl.self_s": _S,
    "coalescence.p_kl.us_per_call": ("us", "lower"),
    "coalescence.v_and_t.calls": _COUNT,
    "coalescence.v_and_t.s": _S,
    "coalescence.p_kl_batch.s": _S,
    "coalescence.p_kl_batch.self_s": _S,
    "coalescence.p_kl_batch.pairs": _COUNT,
    "coalescence.p_kl_batch.pairs_per_s": ("1/s", "higher"),
    "coalescence.p_kl_batch.rss_growth_mb": ("MB", "lower"),
    "yields.load_particles.s": _S,
    "yields.load_particles.rows": _COUNT,
    "yields.load_particles.rows_per_s": ("1/s", "higher"),
    "yields.pair_yields.s": _S,
    "yields.pair_yields.self_s": _S,
    "yields.pair_yields.rss_growth_mb": ("MB", "lower"),
    "wigner3d.derive_invariant_poly.calls": _COUNT,
    "wigner3d.derive_invariant_poly.s": _S,
    "wigner3d.derive_invariant_poly.self_s": _S,
    "wigner3d.export_grid.s": _S,
    "wigner3d.export_grid.self_s": _S,
    "wigner3d.export_grid.cells": _COUNT,
    "wigner3d.level_crossings.calls": _COUNT,
    "wigner3d.level_crossings.s": _S,
    "gridio.write_wigner_grid.s": _S,
    "gridio.write_wigner_grid.bytes": ("B", "lower"),
    "gridio.write_wigner_grid.mb_per_s": ("MB/s", "higher"),
    "gridio.write_prob_table.s": _S,
    "gridio.write_prob_table.bytes": ("B", "lower"),
    "expansion.bilinear_table.calls": _COUNT,
    "expansion.bilinear_table.s": _S,
    "expansion.d_coeff_reduced.calls": _COUNT,
    "expansion.d_coeff_reduced.s": _S,
    "cli.main.s": _S,
    "cli.main.self_s": _S,
    "trace.span_coverage": ("%", "higher"),
    "trace.overhead_s": _S,
}


class Tracer:
    """Keeps the spans of one process in memory, nested by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count=None, rss=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, 0, 0])
            stack.append(idx)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = t0, t1
            if rss:
                spans[idx][5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            if count:
                spans[idx][4] = _COUNTS[count](args, out)
            return out

        return traced

    def install(self):
        import importlib

        for module, attr, name, count, rss in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, count, rss))


def layer_metrics(span_lists):
    """Per-layer metrics summed over the span lists of one or more jobs."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "rss_kb": 0}
    agg = {}
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for (name, t0, t1, _, count, rss_kb), kids in zip(spans, child_s):
            a = agg.setdefault(name, dict(empty))
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - kids
            a["count"] += count
            a["rss_kb"] += rss_kb
    out = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        if layer == "trace":
            continue
        a = agg.get(layer, empty)
        if stat in ("calls", "s", "self_s"):
            out[metric] = a[stat]
        elif stat == "rss_growth_mb":
            out[metric] = a["rss_kb"] / 1024.0
        elif stat == "us_per_call":
            out[metric] = 1e6 * a["s"] / a["calls"] if a["calls"] else 0.0
        elif stat.endswith("_per_s"):
            scale = 1e-6 if stat == "mb_per_s" else 1.0
            out[metric] = scale * a["count"] / a["s"] if a["s"] else 0.0
        else:
            out[metric] = a["count"]
    main = agg.get("cli.main", empty)
    out["trace.span_coverage"] = (
        100.0 * (1.0 - main["self_s"] / main["s"]) if main["s"] else 0.0
    )
    return out


def main(argv):
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import oscoal.cli

    try:
        rc = oscoal.cli.main(cli_argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
