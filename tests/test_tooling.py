"""The benchmark's definition must keep working against the package.

perfbench/spans.py wraps package functions by dotted name for its traced
run; a rename in the package would make that run fail.  The workloads in
perfbench/workloads.py hold the package's answers to the paper's values;
a program change that misses one of them should fail here, before any
benchmark runs.  Both files are loaded read-only, by path, and nothing
is wrapped.
"""

import importlib
import importlib.util
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
