"""The benchmark's definition must keep working against the package.

perfbench/spans.py wraps package functions by dotted name for its traced
run; a rename in the package would make that run fail.  The workloads in
perfbench/workloads.py hold the package's answers to the paper's values;
a program change that misses one of them should fail here, before any
benchmark runs.  Both files are loaded read-only, by path, and nothing
is wrapped.  tools/bench_layers.py, the per-layer harness, is run once
into a scratch file.  Fresh interpreters check that a bare import loads
every module the tracer wraps, and that the exact half (the import, the
spectrum and calculus passes, the exact subcommands) loads no numpy; the
import and the exact subcommands load neither dataclasses nor inspect.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deltoid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def _fresh_python(code):
    """Run code in a new interpreter that imports this deltoid and this
    directory's modules; returns its stdout."""
    src = os.path.dirname(os.path.dirname(deltoid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(TESTS), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("spans")


def test_every_span_target_resolves():
    spans = _spans()
    assert spans.TARGETS
    for target in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target


@pytest.mark.parametrize("workload", ["Spectrum", "Calculus", "Measure"])
def test_workloads_pass_once(workload):
    # one pass at seed 0 misses no check
    workloads = _load("workloads")
    tally = workloads.Tally()
    getattr(workloads, workload)(deltoid, 0).run(tally)
    assert tally.total > 0
    assert tally.missed == []


def test_bare_import_loads_every_span_target_module():
    # perfbench's tracer reads sys.modules["deltoid.<module>"] after a bare
    # import, so no submodule may be left to load on first use
    out = _fresh_python("import sys, deltoid, test_tooling; "
                        "print(sorted({t.module for t in test_tooling._spans().TARGETS "
                        "if 'deltoid.' + t.module not in sys.modules}))")
    assert out == "[]\n"


def test_exact_half_loads_no_numpy():
    # pytest has loaded numpy already, so this runs in a fresh process.
    # The lazy numpy module sits under "numpy" itself, so a real load is
    # seen by its submodules.  Neither the import nor an exact subcommand
    # loads dataclasses or inspect; they are read before test_tooling is
    # imported, since pytest loads both
    code = """
import contextlib, io, json, sys
import deltoid
from deltoid import cli
loaded = ["numpy.linalg" in sys.modules]
stdlib = [["dataclasses" in sys.modules, "inspect" in sys.modules]]
for argv in (["eigen", "--lambda", "4", "--pq", "3,2"], ["moments", "--lambda", "4"],
             ["cd", "factor-check", "--a1", "1/6", "--b1", "9/4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
stdlib.append(["dataclasses" in sys.modules, "inspect" in sys.modules])
from test_tooling import _load
workloads = _load("workloads")
for name in ("Calculus", "Spectrum"):
    tally = workloads.Tally()
    outputs = getattr(workloads, name)(deltoid, 0).run(tally)
    assert tally.missed == [], tally.missed
    workloads.digest(deltoid, outputs)
loaded.append("numpy.linalg" in sys.modules)
grid = deltoid.cdcheck.deltoid_grid(7)
loaded.append("numpy.linalg" in sys.modules)
print(json.dumps([loaded, stdlib, grid.tobytes().hex()]))
"""
    loaded, stdlib, grid = json.loads(_fresh_python(code))
    # not after the import nor the exact runs; then the first float read
    assert loaded == [False, False, True]
    assert bytes.fromhex(grid) == deltoid.cdcheck.deltoid_grid(7).tobytes()
    assert stdlib == [[False, False], [False, False]]
    # the package declares its records with exact.record, not dataclasses
    package = Path(deltoid.__file__).parent
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.M)]
    assert importers == []


def test_numpy_imported_first_is_the_package_binding():
    out = _fresh_python("import numpy, deltoid.exact; print(deltoid.exact.np is numpy)")
    assert out == "True\n"


def test_every_export_resolves_once():
    # a removal that leaves its name in __all__ fails here, not at import *
    names = deltoid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(deltoid, name)]
    assert missing == []


def test_layer_harness_writes_its_record(tmp_path):
    # one round per layer into a scratch file: every layer timed, and the
    # machine, versions and backend recorded beside the numbers; the eigen
    # rows solve each (p, q) of degree <= 14, 120 modes, the route-2 point
    # row calls triangle_b 100 times, and the spectral and float rows run
    # the H_k check, the mode store, route 2's scan, probe and surface, the
    # README scan-b command, the grid PSD margins, the Haar draws and the
    # su3 Gamma table (its cache cleared) once per round; every row also
    # reads as a ratio to the calibration loop
    spec = importlib.util.spec_from_file_location(
        "bench_layers", Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    out = tmp_path / "bench.json"
    harness.main(["--out", str(out), "--repeats", "1"])
    record = json.loads(out.read_text())
    assert {"machine", "python", "numpy", "rational_backend"} <= set(record)
    assert set(record["layers"]) == {
        "cdcheck.ray_nonneg_on_unit", "cdcheck.factorization_sweep", "operator.generator",
        "operator.gamma", "operator.gamma2", "exact.mul", "exact.divexact",
        "eigen._pieri_modes(4, 40)", "eigen._pieri_modes(1, 25)", "eigen.solve_eigenpoly",
        "spectral.hk_bound_check(4, 20)", "spectral.hk_bound_check(1, 40)",
        "spectral._ModeStore.values(4, 40)", "cdcheck.scan_inf_b(1/3, 80)",
        "cdcheck.divergence_probe(0.4)", "cli.cd scan-b --grid 200 --refine --csv",
        "operator.psd_margins(deltoid_grid(200))", "su3._haar_matrices(0, 6000)",
        "calibration", "cdcheck.triangle_b(1/3, 1.0, 0.5)",
        "cdcheck.triangle_surface(1/3, 200)", "su3._frame_tables"}
    assert record["layers"]["eigen.solve_eigenpoly"]["calls_per_round"] == 120
    assert record["layers"]["cdcheck.triangle_b(1/3, 1.0, 0.5)"]["calls_per_round"] == 100
    assert all(record["layers"][name]["calls_per_round"] == 1 for name in (
        "spectral.hk_bound_check(4, 20)", "spectral.hk_bound_check(1, 40)",
        "spectral._ModeStore.values(4, 40)", "cdcheck.scan_inf_b(1/3, 80)",
        "cdcheck.divergence_probe(0.4)", "cli.cd scan-b --grid 200 --refine --csv",
        "operator.psd_margins(deltoid_grid(200))", "su3._haar_matrices(0, 6000)",
        "calibration", "cdcheck.triangle_surface(1/3, 200)", "su3._frame_tables"))
    assert all(layer["min_s_per_call"] > 0 for layer in record["layers"].values())
    unit = record["layers"]["calibration"]["min_s_per_call"]
    assert record["layers"]["calibration"]["ratio_to_calibration"] == 1.0
    assert all(layer["ratio_to_calibration"] == layer["min_s_per_call"] / unit
               for layer in record["layers"].values())
    # the exact startups, timed in fresh processes, never load numpy
    assert set(record["startup"]) == set(harness.STARTUP)
    assert all(row["min_s"] > 0 and row["numpy_loaded"] is False
               and row["ratio_to_calibration"] == row["min_s"] / unit
               for row in record["startup"].values())
