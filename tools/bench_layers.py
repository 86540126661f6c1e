"""Per-layer timings of the exact calculus, as min-of-N seconds per call.

Run from the root of a checkout:

    python3 tools/bench_layers.py --out BENCH_<n>.json --repeats 21

The inputs are the forms the `calculus` benchmark workload draws at seed
0: 100 random real forms of degree <= 3 from cdcheck._random_real_poly,
with lambda cycling through 4, 1 and 7/2.  One round calls a primitive once
per input (generator, gamma2 on each form; gamma and BivarPoly.__mul__
on each form and the next; divexact of each form times the boundary
polynomial by it; the ray sweep at b1 = 9/4 and 9/4 + 1/100, a1 = 1/6;
one factorization_sweep).  Each figure is the fastest of --repeats
rounds divided by the calls in a round.  The output records the
machine, Python, numpy and the rational backend beside the numbers.
"""

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMS = 100
LAMBDAS = ("4", "1", "7/2")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def layer_rounds(dt):
    """{layer name: (calls in a round, function running one round)}."""
    rng = random.Random(0)
    forms = [dt.cdcheck._random_real_poly(rng) for _ in range(FORMS)]
    pairs = list(zip(forms, forms[1:] + forms[:1]))
    lams = [dt.Lambda(dt.as_rat(LAMBDAS[k % len(LAMBDAS)])) for k in range(FORMS)]
    boundary = dt.boundary_poly()
    multiples = [f * boundary for f in forms]
    a1, b1 = dt.Rat(1, 6), dt.Rat(9, 4)
    return {
        "cdcheck.ray_nonneg_on_unit": (2, lambda: [
            dt.ray_nonneg_on_unit(a1, b1), dt.ray_nonneg_on_unit(a1, b1 + dt.Rat(1, 100))]),
        "cdcheck.factorization_sweep": (1, dt.factorization_sweep),
        "operator.generator": (FORMS, lambda: [dt.generator(f, lam)
                                               for f, lam in zip(forms, lams)]),
        "operator.gamma": (FORMS, lambda: [dt.gamma(f, g) for f, g in pairs]),
        "operator.gamma2": (FORMS, lambda: [dt.gamma2(f, f, lam)
                                            for f, lam in zip(forms, lams)]),
        "exact.mul": (FORMS, lambda: [f * g for f, g in pairs]),
        "exact.divexact": (FORMS, lambda: [m.divexact(boundary) for m in multiples]),
    }


def measure(dt, repeats):
    layers = {}
    for name, (calls, run) in layer_rounds(dt).items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        layers[name] = {"calls_per_round": calls, "min_s_per_call": best / calls}
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=21, help="rounds per layer (min of N)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import deltoid as dt

    record = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rational_backend": "gmpy2" if dt.exact.HAVE_GMPY2 else "fractions.Fraction",
        "repeats": args.repeats,
        "layers": measure(dt, args.repeats),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return record


if __name__ == "__main__":
    main()
