"""One test per headline criterion, each printing its own verdict line."""

import dataclasses
import weakref

import numpy as np
import pytest

from deltoid import eigen, spectral
from deltoid.acceptance import CRITERIA, run_criterion
from deltoid.exact import Rat
from deltoid.geometry import plane_to_deltoid, sample_interior, triangle_to_deltoid

_IDS = [name for _, name, _ in CRITERIA]


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA], ids=_IDS
)
def test_criterion(number, name, capsys):
    res = run_criterion(number)
    with capsys.disabled():
        print()
        print(res.line())
    assert res.passed, f"criterion {number} {name}: {res.summary}"


def test_eigen_system_summary_counts_each_check_once():
    # residuals: three lam, every (p, q) with p + q <= 20, 231 each;
    # products: the 91 modes of degree <= 12 give 91 * 90 / 2 = 4095
    # distinct pairs per lam; norms: <P, P> = norm2 for those 91 modes;
    # P(1): every residual's mode against its closed value
    res = run_criterion(4)
    assert res.summary == (f"{3 * 231} exact eigen residuals, {3 * 231} closed P(1), "
                           f"{3 * 4095} zero products, {3 * 91} exact norms")


def test_eigen_system_fails_on_one_wrong_closed_p_at_one(monkeypatch):
    # the coefficient sum of each built mode must equal the closed P(1):
    # one value off by 1/10^6 fails the criterion at that mode
    closed = eigen.value_at_one

    def off(p, q, lam):
        return closed(p, q, lam) + (Rat(1, 10**6) if (p, q) == (7, 5) else 0)

    monkeypatch.setattr(eigen, "value_at_one", off)
    res = run_criterion(4)
    assert not res.passed
    assert res.summary.startswith("P(1) off its closed value at (7, 5, ")


def test_eigen_system_fails_on_one_wrong_norm(monkeypatch):
    # <P, P> from the moments must equal each mode's closed norm2: one
    # norm off by 1/10^6 fails the Gram block at that mode.  The empty
    # live set makes c04 build its own truncations
    built = spectral._pieri_modes

    def off(lam, degree):
        return [dataclasses.replace(ep, norm2=ep.norm2 + Rat(1, 10**6))
                if (ep.p, ep.q) == (7, 5) else ep for ep in built(lam, degree)]

    monkeypatch.setattr(spectral, "_live", weakref.WeakSet())
    monkeypatch.setattr(spectral, "_pieri_modes", off)
    res = run_criterion(4)
    assert not res.passed
    assert res.summary.startswith("<P, P> != norm2 at (7, 5, ")


def test_eigen_system_refuses_a_shallow_moment_table(monkeypatch):
    # the Gram block pairs modes of degree 12 against a table of degree 24;
    # one degree short, it raises instead of reading a missing moment as 0
    monkeypatch.setattr(eigen, "moments", lambda lam, degree: eigen.MomentTable(lam, degree - 1))
    with pytest.raises(eigen.MomentRangeExceeded):
        run_criterion(4)


def test_density_points_are_the_point_map():
    # c01 maps its 1,000 points as one array; each keeps the bits of its
    # own triangle_to_deltoid image
    pts = sample_interior(1000, "low-discrepancy", seed=3)
    want = np.array([triangle_to_deltoid(p).Z for p in pts], dtype=complex)
    got = plane_to_deltoid(np.array([p.x for p in pts]), np.array([p.y for p in pts]))
    assert got.tobytes() == want.tobytes()
