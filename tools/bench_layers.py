"""Per-layer timings of the exact calculus and the eigen solvers, as
min-of-N seconds per call.

Run from the root of a checkout:

    python3 tools/bench_layers.py --out BENCH_<n>.json --repeats 21

The inputs are the forms the `calculus` benchmark workload draws at seed
0: 100 random real forms of degree <= 3 from cdcheck._random_real_poly,
with lambda cycling through 4, 1 and 7/2.  One round calls a primitive once
per input (generator, gamma2 on each form; gamma and BivarPoly.__mul__
on each form and the next; divexact of each form times the boundary
polynomial by it; the ray sweep at b1 = 9/4 and 9/4 + 1/100, a1 = 1/6;
one factorization_sweep).  The eigen rows build the modes of the two
truncations the `measure` workload sets up, eigen._pieri_modes at
(lambda, degree) = (4, 40) and (1, 25), once per round, and solve every
(p, q) of degree <= 14 at lambda = 4 with solve_eigenpoly.  The spectral
rows run hk_bound_check at (lambda, max_k) = (4, 20) and (1, 40), each
while a truncation of its lambda at degree 40 is live, as the `measure`
workload holds one, and evaluate the float mode store of the (4, 40)
truncation, built once beforehand, on the closed barycentric lattice of
side 80 (3,321 points) with _ModeStore.values.  While that truncation is
live, they run kernel_bound_check(exp(-k), 4, 12) on the three cusps and
24 low-discrepancy interior points (seed 0), as the `measure` workload
does, which builds the degree-12 store each call, and heat_diag at
(lambda, degree) = (4, 40), t = 0.1 and Z = 0.3 + 0.2i.  The moment rows
build eigen.moments(4, 30) and run criterion 4's pairings at lambda = 4:
one eigen.pairings call per mode of degree <= 12 against it and every
later mode, on moments(4, 24) built beforehand (91 calls a round).  The
table rows evaluate the boundary polynomial P with BivarPoly.eval on
deltoid_grid(200) and run gamma2_sample_check(4, 9/4, 8) with 40 trials
and 60 points, seed 0.  The float rows run
route 2's scan_inf_b(1/3, 80), divergence_probe(0.4) on the quadratic
curve, triangle_b(1/3, 1.0, 0.5) (100 calls a round) and
triangle_surface(1/3, 200), README's `cd scan-b --a 1/3 --grid 200
--refine --csv` in process (the scan, the lattice surface and both files,
written to a temporary directory), psd_margins of the optimal tensor
tensor_residual(1/6, 9/4) on deltoid_grid(200), and
su3._haar_matrices(0, 6000).  The su3._frame_tables row builds the
Gamma table once a round, its cache cleared first and the frame built
beforehand.  The su3.ricci_constant and su3.commutator_table rows clear
the frame's cache (su3._std) each round, so each round builds the frame
and then the constant or the table.  Each figure is the fastest of
--repeats rounds divided by the calls in a round.

The calibration row is a fixed pure-Python dict loop that calls nothing
of the package.  It moves with the machine's speed only, so every layer
and startup row also reports its seconds as a ratio to it, beside the
raw seconds.

The startup rows time a bare `import deltoid` and three exact
subcommands (`eigen`, `moments`, `cd factor-check`), each in --repeats
fresh interpreters: the fastest run's seconds from the start of the
import to the end of the command, and whether numpy was loaded by then
(numpy.linalg in sys.modules).  Bytecode is written to and read from a
temporary PYTHONPYCACHEPREFIX, never the source tree, and one untimed
run of each row fills it first, so no timed run compiles.  The output
records the machine, Python, numpy and the rational backend beside the
numbers.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FORMS = 100
LAMBDAS = ("4", "1", "7/2")
EIGEN_DEGREE = 14
# side of the closed lattice the mode store row evaluates on
LATTICE_SIDE = 80
# Haar draws of the su3 row
HAAR_DRAWS = 6000
# interior points of the kernel row, beside the three cusps
KERNEL_POINTS = 24
# modes of degree <= 12, the block criterion 4 pairs
PAIRED_MODES = 91
# triangle_b calls in a round of its row
POINT_CALLS = 100
# iterations of the calibration loop, about 5 ms on a 2-vCPU Xeon VM
CALIBRATION_STEPS = 50_000
# startup row name: CLI arguments, or None for the import alone
STARTUP = {
    "import deltoid": None,
    "eigen --lambda 4 --pq 3,2": ["eigen", "--lambda", "4", "--pq", "3,2"],
    "moments --lambda 4": ["moments", "--lambda", "4"],
    "cd factor-check --a1 1/6 --b1 9/4": ["cd", "factor-check", "--a1", "1/6",
                                          "--b1", "9/4"],
}
# run in a fresh interpreter: prints [seconds, numpy loaded]
_STARTUP_CODE = """
import contextlib, io, json, sys, time
argv = json.loads(sys.argv[1])
t0 = time.perf_counter()
import deltoid
if argv is not None:
    from deltoid.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv} exited nonzero")
seconds = time.perf_counter() - t0
print(json.dumps([seconds, "numpy.linalg" in sys.modules]))
"""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration():
    """A fixed pure-Python dict loop, the in-run control of the timings."""
    counts = {}
    for k in range(CALIBRATION_STEPS):
        key = k % 1009
        counts[key] = counts.get(key, 0) + k
    return counts


def layer_rounds(dt, tmpdir):
    """{layer name: (calls in a round, function running one round)};
    the CLI row writes its files into the directory tmpdir."""
    from deltoid.cli import main as cli_main

    rng = random.Random(0)
    forms = [dt.cdcheck._random_real_poly(rng) for _ in range(FORMS)]
    pairs = list(zip(forms, forms[1:] + forms[:1]))
    lams = [dt.Lambda(dt.as_rat(LAMBDAS[k % len(LAMBDAS)])) for k in range(FORMS)]
    boundary = dt.boundary_poly()
    multiples = [f * boundary for f in forms]
    a1, b1 = dt.Rat(1, 6), dt.Rat(9, 4)
    lam4, lam1 = dt.Lambda(4), dt.Lambda(1)
    pqs = [(p, d - p) for d in range(EIGEN_DEGREE + 1) for p in range(d + 1)]
    live4, live1 = dt.HeatKernelTruncation(lam4, 40), dt.HeatKernelTruncation(lam1, 40)
    store = live4._store
    i, c = np.triu_indices(LATTICE_SIDE + 1)
    x, y = dt.geometry._bary_xy(i, c - i, LATTICE_SIDE - c)
    lattice = dt.geometry.plane_to_deltoid(x / LATTICE_SIDE, y / LATTICE_SIDE)
    optimal = dt.tensor_residual(a1, b1)
    dt.su3._std()

    def frame_tables():
        dt.su3._frame_tables.cache_clear()
        return dt.su3._frame_tables()

    def on_a_fresh_frame(check):
        dt.su3._std.cache_clear()
        return check()

    grid200 = dt.deltoid_grid(200)
    cusps = [complex(np.exp(2j * np.pi * k / 3)) for k in range(3)]
    kernel_grid = cusps + [dt.triangle_to_deltoid(p).Z for p in dt.sample_interior(
        KERNEL_POINTS, "low-discrepancy", 0)]
    table24 = dt.eigen.moments(lam4, 24)
    paired = [ep.poly for ep in live4.modes[:PAIRED_MODES]]
    scan_b = ["cd", "scan-b", "--a", "1/3", "--grid", "200", "--refine",
              "--csv", os.path.join(tmpdir, "surface.csv"),
              "--out", os.path.join(tmpdir, "scan.json")]
    return {
        "calibration": (1, calibration),
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
        "eigen._pieri_modes(4, 40)": (1, lambda: dt.eigen._pieri_modes(lam4, 40)),
        "eigen._pieri_modes(1, 25)": (1, lambda: dt.eigen._pieri_modes(lam1, 25)),
        "eigen.solve_eigenpoly": (len(pqs), lambda: [dt.solve_eigenpoly(p, q, lam4)
                                                    for p, q in pqs]),
        # each live truncation is held by its row, so it outlives the rounds
        "spectral.hk_bound_check(4, 20)": (1, lambda held=live4: dt.hk_bound_check(lam4, 20)),
        "spectral.hk_bound_check(1, 40)": (1, lambda held=live1: dt.hk_bound_check(lam1, 40)),
        "spectral._ModeStore.values(4, 40)": (1, lambda: store.values(lattice)),
        "spectral.kernel_bound_check(4, 12)": (1, lambda: dt.kernel_bound_check(
            lambda k: np.exp(-float(k)), lam4, 12, kernel_grid)),
        "spectral.heat_diag(4, 40)": (1, lambda: dt.heat_diag(0.3 + 0.2j, 0.1, live4)),
        "eigen.moments(4, 30)": (1, lambda: dt.eigen.moments(lam4, 30)),
        "eigen.pairings(4, degree 12)": (PAIRED_MODES, lambda: [
            dt.eigen.pairings(f, paired[a:], table24) for a, f in enumerate(paired)]),
        "exact.eval(P, deltoid_grid(200))": (1, lambda: boundary.eval(grid200)),
        "cdcheck.gamma2_sample_check(4, 9/4, 8)": (1, lambda: dt.gamma2_sample_check(
            4, 2.25, 8.0, trials=40, points=60, seed=0)),
        "cdcheck.scan_inf_b(1/3, 80)": (1, lambda: dt.scan_inf_b(1 / 3, 80)),
        "cdcheck.divergence_probe(0.4)": (1, lambda: dt.divergence_probe(0.4)),
        "cdcheck.triangle_b(1/3, 1.0, 0.5)": (POINT_CALLS, lambda: [
            dt.triangle_b(1 / 3, 1.0, 0.5) for _ in range(POINT_CALLS)]),
        "cdcheck.triangle_surface(1/3, 200)": (1, lambda: dt.cdcheck.triangle_surface(1 / 3, 200)),
        "cli.cd scan-b --grid 200 --refine --csv": (1, lambda: cli_main(scan_b)),
        "operator.psd_margins(deltoid_grid(200))": (1, lambda: optimal.psd_margins(grid200)),
        f"su3._haar_matrices(0, {HAAR_DRAWS})": (1, lambda: dt.su3._haar_matrices(0, HAAR_DRAWS)),
        "su3._frame_tables": (1, frame_tables),
        "su3.ricci_constant": (1, lambda: on_a_fresh_frame(dt.su3.ricci_constant)),
        "su3.commutator_table": (1, lambda: on_a_fresh_frame(dt.su3.commutator_table)),
    }


def measure(dt, repeats):
    layers = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for name, (calls, run) in layer_rounds(dt, tmpdir).items():
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - t0)
            layers[name] = {"calls_per_round": calls, "min_s_per_call": best / calls}
    return layers


def startup(repeats):
    """{row name: min seconds over fresh processes, numpy_loaded}."""
    rows = {}
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        # the prefix must fill, or every run would time the compiler
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for name, argv in STARTUP.items():
            runs = []
            # the first run compiles into the prefix and is not counted
            for _ in range(repeats + 1):
                done = subprocess.run([sys.executable, "-c", _STARTUP_CODE, json.dumps(argv)],
                                      env=env, capture_output=True, text=True, timeout=300,
                                      check=True)
                runs.append(json.loads(done.stdout))
            rows[name] = {"min_s": min(s for s, _ in runs[1:]),
                          "numpy_loaded": any(flag for _, flag in runs)}
    return rows


def with_ratios(rows, key, unit):
    """Each row of rows with ratio_to_calibration, its seconds over unit."""
    return {name: {**row, "ratio_to_calibration": row[key] / unit}
            for name, row in rows.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=21,
                    help="rounds per layer and processes per startup row (min of N)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import deltoid as dt

    record = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rational_backend": "gmpy2" if dt.exact.HAVE_GMPY2 else "fractions.Fraction",
        "repeats": args.repeats,
    }
    layers = measure(dt, args.repeats)
    unit = layers["calibration"]["min_s_per_call"]
    record["layers"] = with_ratios(layers, "min_s_per_call", unit)
    record["startup"] = with_ratios(startup(args.repeats), "min_s", unit)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return record


if __name__ == "__main__":
    main()
