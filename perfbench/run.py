"""Benchmark of the deltoid workbench: time to a verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 0 --seconds 20 --trace 0

One caller runs the workload's passes back to back in a closed loop.  The
run compiles the package, times the set-up (import plus the workload's
construction) in fresh processes and once in this one, runs one untimed
warm-up pass, then times full passes until --seconds have gone by.  With
--trace 1 each timed pass is followed by one under the span wrappers of
spans.py, and the per-layer metrics are reported instead.  The last line
of standard output is the JSON result; the line before it is a report
with the environment, the exact-output digest and any missed checks, also
written to .perfbench/ in the checkout.
"""

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, per_layer_names, per_layer_unit
from workloads import WORKLOADS, Tally, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
MIN_PASSES = 3
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}  # name: unit


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print it and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def thread_cap():
    # numpy reads these when it is first imported, so set them before that
    cap = min(THREAD_CAP, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def set_up(workload, seed, tracer=None):
    """Import the package and build the workload.

    Returns (package, workload, seconds, span summary of the construction,
    or None when there is no tracer).
    """
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import deltoid

    if tracer is None:
        work = WORKLOADS[workload](deltoid, seed)
        return deltoid, work, time.perf_counter() - t0, None
    tracer.install()
    mark = tracer.mark()
    try:
        work = WORKLOADS[workload](deltoid, seed)
    finally:
        tracer.uninstall()
    return deltoid, work, time.perf_counter() - t0, tracer.summary(mark)


def setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def cache_state(dt):
    """The solver's moment-table cache: lambda key -> tabulated degree."""
    cache = getattr(dt.eigen, "_table_cache", None)
    if cache is None:
        return None
    return sorted([repr(k), getattr(t, "max_degree", None)] for k, t in cache.items())


class Passes:
    """Full passes of one workload, and what every pass must agree on.

    Construction runs the untimed warm-up pass, which sets the reference
    digest and the moment-table cache state that every later pass sees.
    """

    def __init__(self, dt, work):
        self.dt = dt
        self.work = work
        self.attempted = 0
        self.missed = []
        _, self.reference = self._run()
        self.cache = cache_state(dt)
        self.digests_agree = True
        self.cache_steady = True

    def _run(self):
        tally = Tally()
        t0 = time.perf_counter()
        outputs = self.work.run(tally)
        seconds = time.perf_counter() - t0
        self.attempted += tally.total
        self.missed += tally.missed
        self.checks_per_pass = tally.total
        return seconds, digest(self.dt, outputs)

    def timed(self):
        """One timed pass; returns its wall seconds."""
        self.cache_steady &= cache_state(self.dt) == self.cache
        seconds, dig = self._run()
        self.digests_agree &= dig == self.reference
        return seconds

    @property
    def correct(self):
        return not self.missed and self.digests_agree and self.cache_steady


def back_to_back(seconds, step):
    """Call step() in a closed loop until seconds have gone by, at least
    MIN_PASSES times; returns the results."""
    results = []
    t0 = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        results.append(step())
    return results


def traced_pair(tracer, passes):
    """An untraced pass, then a traced one right after it, so that their
    ratio sees the same machine load.  Returns (seconds, seconds, spans)."""
    plain = passes.timed()
    tracer.install()
    try:
        mark = tracer.mark()
        traced = passes.timed()
    finally:
        tracer.uninstall()
    return plain, traced, tracer.summary(mark)


def environment(dt, seed, cap):
    from importlib import metadata

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "gmpy2"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    gmpy2 = bool(dt.exact.HAVE_GMPY2)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        **versions,
        "rational_backend": "gmpy2.mpq" if gmpy2 else "fractions.Fraction",
        "gmpy2_path_timed": gmpy2,
        "blas_openmp_threads": cap,
        "seed": seed,
    }


def declaration_mismatch():
    """Why BENCHMARK.json and this script disagree on metric names, or None."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in declared["end_to_end"]] != list(END_TO_END):
        return "end_to_end metrics differ from run.py's"
    if [m["name"] for m in declared["per_layer"]] != per_layer_names():
        return "per_layer metrics differ from spans.py's"
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "deltoid" / "__init__.py").is_file():
        print(f"no deltoid package under {SRC}", file=sys.stderr)
        return 2
    mismatch = declaration_mismatch()
    if mismatch:
        print(f"BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 2
    cap = thread_cap()
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[2]}))
        return 0

    compileall.compile_dir(str(SRC / "deltoid"), quiet=1)
    setups = [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    tracer = Tracer() if args.trace else None
    dt, work, seconds, setup_spans = set_up(args.workload, args.seed, tracer)
    setups.append(seconds)
    if not Path(dt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported deltoid from {dt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    passes = Passes(dt, work)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "setup_s": setups}
    if args.trace:
        pairs = back_to_back(args.seconds, lambda: traced_pair(tracer, passes))
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
        report["pass_s"] = [plain for plain, _, _ in pairs]
        report["traced_pass_s"] = [traced for _, traced, _ in pairs]
        values = {}
        for k in per_layer_names():
            if k.startswith("setup."):
                values[k] = setup_spans[k[len("setup."):]]
            elif k != "trace.overhead":
                values[k] = statistics.median(spans[k] for _, _, spans in pairs)
        values["trace.overhead"] = statistics.median(
            traced / plain for plain, traced, _ in pairs)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        times = back_to_back(args.seconds, passes.timed)
        report["pass_s"] = times
        values = {"run_s": statistics.median(times), "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    report.update({
        "environment": environment(dt, args.seed, cap),
        "digest": passes.reference,
        "setup_digest": digest(dt, getattr(work, "setup_outputs", {})),
        "digests_agree": passes.digests_agree,
        "table_cache": passes.cache,
        "table_cache_steady": passes.cache_steady,
        "checks_per_pass": passes.checks_per_pass,
        "missed": passes.missed[:20],
    })
    line = json.dumps(report, sort_keys=True)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    print(json.dumps({"correct": passes.correct, "attempted": passes.attempted,
                      "failed": len(passes.missed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
