"""The benchmark's span targets must name attributes the package has.

perfbench/spans.py wraps package functions by dotted name for its traced
run; a rename in the package would make that run fail.  The file is
loaded read-only, by path, and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _spans()
    assert spans.TARGETS
    for target in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target
