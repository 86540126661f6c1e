"""The benchmark's definition must keep working against the package.

perfbench/spans.py wraps package functions by dotted name for its traced
run; a rename in the package would make that run fail.  The workloads in
perfbench/workloads.py hold the package's answers to the paper's values;
a program change that misses one of them should fail here, before any
benchmark runs.  Both files are loaded read-only, by path, and nothing
is wrapped.  tools/bench_layers.py, the per-layer harness, is run once
into a scratch file.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import deltoid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_every_export_resolves_once():
    # a removal that leaves its name in __all__ fails here, not at import *
    names = deltoid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(deltoid, name)]
    assert missing == []


def test_layer_harness_writes_its_record(tmp_path):
    # one round per layer into a scratch file: every layer timed, and the
    # machine, versions and backend recorded beside the numbers
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
        "operator.gamma", "operator.gamma2", "exact.mul", "exact.divexact"}
    assert all(layer["min_s_per_call"] > 0 for layer in record["layers"].values())
