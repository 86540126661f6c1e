"""Spans around the public functions of the deltoid layers.

The wrappers are installed from the benchmark's own files; the program is
not changed.  Each target is replaced on its class or module and, because
`spectral`, `cdcheck` and `su3` import by name, in every `deltoid` module
namespace that holds the same object.  A span records its metric, start,
end and parent span.  Spans stay in memory in flat arrays and are written
out once, at the end of the run.  A call of a metric from inside a span
of the same metric (`eval` calling `eval2`, `moments` extending its
table) is folded into the outer span.
"""

import gzip
import sys
import time
from array import array
from collections import namedtuple

PACKAGE = "deltoid"
Target = namedtuple("Target", "metric module attr count")

# metric, module, attribute on it, and an optional work count: (count
# name, function of the call's result)
TARGETS = (
    Target("exact.mul", "exact", "BivarPoly.__mul__", None),
    Target("exact.divexact", "exact", "BivarPoly.divexact", None),
    Target("exact.eval", "exact", "BivarPoly.eval", None),
    Target("exact.eval", "exact", "BivarPoly.eval2", None),
    Target("operator.gamma", "operator", "gamma", None),
    Target("operator.generator", "operator", "generator", None),
    Target("operator.gamma2", "operator", "gamma2", None),
    Target("operator.psd_margins", "operator", "HermitianTensorField.psd_margins", None),
    Target("eigen.solve_eigenpoly", "eigen", "solve_eigenpoly", None),
    Target("eigen.inner_product", "eigen", "inner_product", None),
    Target("eigen.moments", "eigen", "moments", None),
    Target("eigen.moments", "eigen", "MomentTable.extend_to", None),
    Target("geometry.triangle_to_deltoid", "geometry", "triangle_to_deltoid", None),
    Target("geometry.sample_interior", "geometry", "sample_interior", None),
    Target("cdcheck.psd_check", "cdcheck", "psd_check",
           ("points", lambda rep: rep.count)),
    Target("cdcheck.gamma2_sample_check", "cdcheck", "gamma2_sample_check",
           ("pairs", lambda rep: rep.pairs)),
    Target("cdcheck.factorization_check", "cdcheck", "factorization_check", None),
    Target("cdcheck.scan_inf_b", "cdcheck", "scan_inf_b", None),
    Target("cdcheck.divergence_probe", "cdcheck", "divergence_probe", None),
    Target("cdcheck.deltoid_grid", "cdcheck", "deltoid_grid", None),
    Target("su3.haar_sample", "su3", "haar_sample",
           ("draws", len)),
    Target("su3.pushforward_check", "su3", "pushforward_check", None),
    Target("su3.charpoly_identity_check", "su3", "charpoly_identity_check", None),
    Target("su3.curvature_dimension_check", "su3", "curvature_dimension_check", None),
    Target("spectral.HeatKernelTruncation", "spectral", "HeatKernelTruncation.__init__", None),
    Target("spectral.mode_weights", "spectral", "HeatKernelTruncation.mode_weights", None),
    Target("spectral.ultracontractivity_fit", "spectral", "ultracontractivity_fit", None),
    Target("spectral.supnorm_bound_check", "spectral", "supnorm_bound_check", None),
    Target("spectral.hk_bound_check", "spectral", "hk_bound_check", None),
    Target("spectral.kernel_bound_check", "spectral", "kernel_bound_check", None),
    Target("spectral.sobolev_series_check", "spectral", "sobolev_series_check", None),
)

METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))
COUNTS = tuple(f"{t.metric}.{t.count[0]}" for t in TARGETS if t.count)
# the layers that a workload's one-time construction calls, reported
# separately as setup.<metric> because they move setup_s, not run_s
SETUP_METRICS = ("exact.eval", "eigen.solve_eigenpoly", "eigen.moments",
                 "geometry.triangle_to_deltoid", "cdcheck.deltoid_grid",
                 "spectral.HeatKernelTruncation")


def _timed_names(metrics, prefix=""):
    return [f"{prefix}{m}.{kind}" for m in metrics for kind in ("calls", "self_s")]


def per_layer_names():
    """Every per-layer metric a traced run reports, in report order."""
    return (_timed_names(METRICS) + list(COUNTS) + _timed_names(SETUP_METRICS, "setup.")
            + ["trace.overhead"])


def per_layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.metric_ids = {m: i for i, m in enumerate(METRICS)}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._undo = []

    def _wrap(self, target, fn):
        mid = self.metric_ids[target.metric]
        count_key = f"{target.metric}.{target.count[0]}" if target.count else None
        count_fn = target.count[1] if target.count else None
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and name[stack[-1]] == mid:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(mid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_key is not None:
                self.counts[count_key] += count_fn(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{target.module}"]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            self._replace(owner, attr, original, wrapper)
            if not path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self):
        return len(self.start), dict(self.counts)

    def summary(self, mark):
        """Calls, self seconds and counts of the spans recorded since mark."""
        first, counts_before = mark
        last = len(self.start)
        child = [0.0] * (last - first)
        for k in range(first, last):
            p = self.parent[k]
            if p >= first:
                child[p - first] += self.end[k] - self.start[k]
        calls = [0] * len(METRICS)
        self_s = [0.0] * len(METRICS)
        for k in range(first, last):
            m = self.name[k]
            calls[m] += 1
            self_s[m] += self.end[k] - self.start[k] - child[k - first]
        out = {}
        for m, metric in enumerate(METRICS):
            out[f"{metric}.calls"] = calls[m]
            out[f"{metric}.self_s"] = self_s[m]
        for key in COUNTS:
            out[key] = self.counts[key] - counts_before[key]
        return out

    def write(self, path):
        """Write every span, gzipped, as tab-separated index, metric, start
        and end in microseconds from the first span, and parent index."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tmetric\tstart_us\tend_us\tparent\n")
            for k in range(len(self.start)):
                fh.write(f"{k}\t{METRICS[self.name[k]]}\t"
                         f"{(self.start[k] - t0) * 1e6:.1f}\t"
                         f"{(self.end[k] - t0) * 1e6:.1f}\t{self.parent[k]}\n")
