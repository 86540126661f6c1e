import cmath
import math
import random
import re

import numpy as np
import pytest

from deltoid import cdcheck
from deltoid.cdcheck import (
    RAY_SAMPLES,
    DegenerateDenominator,
    Gamma2Report,
    PsdReport,
    _b_from_parts,
    _checked_b,
    _corner_box,
    _gamma2_margins,
    _monomial_pairs,
    _pair_polys,
    _pair_weights,
    _random_real_poly,
    _scan_lattice,
    _trig_forms,
    deltoid_grid,
    divergence_probe,
    factorization_check,
    factorization_sweep,
    gamma2_sample_check,
    psd_check,
    ray_nonneg_on_unit,
    scan_inf_b,
    tensor_residual,
    triangle_b,
    triangle_surface,
)
from deltoid.exact import BivarPoly, CRat, Rat, Z, ZBAR
from deltoid.geometry import plane_to_deltoid, sample_interior, triangle_to_deltoid
from deltoid.operator import (HermitianTensorField, Lambda, boundary_poly, gamma, gamma2,
                              generator)
from oracles import (CDParams, assert_routes_agree, b_one_third_forms, b_one_third_of_t,
                     fd_oracle_b, gamma2_margin_exact, interior_lattice,
                     rat_list_factorization_check, rat_list_ray_nonneg_on_unit,
                     rat_random_real_poly, zu_forms)


def scan_points(n, seed=0, margin=0.4):
    # random strictly interior points of the (theta, phi) scan triangle
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        b = sorted([rng.random(), rng.random()])
        b0, b1, b2 = b[0], b[1] - b[0], 1.0 - b[1]
        th = b1 * 2 * math.pi + b2 * (-2 * math.pi)
        ph = b2 * 2 * math.pi
        if min(ph, th + ph, 2 * math.pi - th - 2 * ph) > margin:
            pts.append((th, ph))
    return pts


def test_cdparams_conversions():
    p = CDParams.from_logp(4, "1/6", "9/4")
    assert p.rho == Rat(9, 4)
    assert p.n == Rat(8)
    q = CDParams.from_cd(4, "9/4", 8)
    assert q.a1 == Rat(1, 6)
    assert q.b1 == Rat(9, 4)
    # the flagship identity at general lambda
    for lv in ("3/2", 2, 7):
        r = CDParams.from_logp(lv, "1/6", "9/4")
        lam = r.lam
        assert r.rho == 3 * (lam - 1) / 4
        assert r.n == 2 * lam
    with pytest.raises(ValueError):
        CDParams.from_logp(1, "1/6", "9/4")
    with pytest.raises(ValueError):
        CDParams.from_cd(4, 1, 2)


def test_tensor_residual_origin_values():
    r = tensor_residual("1/3", "1/2")
    assert r.r12.eval(0j).real == (3 - 0.5) / 2
    r2 = tensor_residual("1/6", "9/4")
    assert r2.r12.eval(0j).real == 0.375
    # b1 = 3, a1 = 1/6 kills the off-diagonal entirely
    r3 = tensor_residual("1/6", 3)
    assert r3.r12.is_zero()


def test_tensor_residual_closed_form():
    r = tensor_residual("1/6", "9/4")
    want11 = ZBAR.scale(Rat(3, 2) - Rat(9, 4)) + (Z * Z).scale(
        Rat(9, 4) - Rat(9, 6)
    )
    assert r.r11 == want11
    assert r.r22 == want11.conj_swap()


def test_m2_is_scaled_boundary_poly_at_optimum():
    r = tensor_residual("1/6", "9/4")
    m2 = r.r12 * r.r12 - r.r11 * r.r22
    assert m2 == boundary_poly().scale(Rat(9, 16))


def test_psd_optimal_pair_everywhere():
    r = tensor_residual("1/6", "9/4")
    rep = psd_check(r, deltoid_grid(200))
    assert rep.passed
    assert rep.min_margin1 >= -1e-12
    assert rep.min_margin2 >= -1e-12
    assert rep.count > 19000


def test_psd_perturbed_fails():
    r = tensor_residual("1/6", Rat(9, 4) + Rat(1, 100))
    rep = psd_check(r, deltoid_grid(200))
    assert not rep.passed
    assert rep.min_margin2 < -1e-3
    # the strongest violation sits at the arc midpoints (|Z| = 1/3):
    # m2 on the theta = pi ray factors as
    # (1+rho)^2 ((3-b1)(1-rho)/2 - (b1-3/2) rho) (...)
    # and the middle factor crosses zero at rho = 1/3 when b1 = 9/4
    assert abs(abs(rep.worst_point) - 1.0 / 3.0) < 0.05
    # a thin sliver along the cusp rays fails as well, at ~1e-5 depth
    _, m2_cusp = r.psd_margins(0.975 + 0j)
    assert -1e-3 < m2_cusp < -1e-6


def test_psd_zero_pair_trivial():
    r = tensor_residual(0, 0)
    rep = psd_check(r, deltoid_grid(40))
    assert rep.passed


def psd_check_per_point(t, points, tol=1e-12):
    """Reference: psd_check as one scalar evaluation per point."""
    worst1 = worst2 = math.inf
    worst_pt = None
    fails = 0
    for d in points:
        z = d.Z if hasattr(d, "Z") else complex(d)
        v12, v11, v22 = t.r12.eval(z), t.r11.eval(z), t.r22.eval(z)
        m1, m2 = v12.real, (v12 * v12 - v11 * v22).real
        if m1 < worst1:
            worst1 = m1
        if m2 < worst2:
            worst2 = m2
            worst_pt = z
        if m1 < -tol or m2 < -tol:
            fails += 1
    return PsdReport(count=len(points), failures=fails, min_margin1=worst1,
                     min_margin2=worst2, worst_point=worst_pt, tol=tol)


@pytest.mark.parametrize("b1", [Rat(9, 4), Rat(113, 50), Rat(3)])
def test_psd_check_matches_per_point_loop(b1):
    t = tensor_residual(Rat(1, 6), b1)
    grid = deltoid_grid(40)
    points = list(grid) + [0.975 + 0j, -0.2 + 0.1j]
    rep = psd_check(t, points)
    assert rep == psd_check_per_point(t, points)
    assert type(rep.worst_point) is complex and type(rep.min_margin2) is float
    # one point at a time through psd_margins, too
    m1, m2 = t.psd_margins(grid)
    for k in (0, 7, len(grid) - 1):
        assert (m1[k], m2[k]) == t.psd_margins(complex(grid[k]))


@pytest.mark.parametrize("m", [3, 40, 200])
def test_deltoid_grid_is_the_point_map(m):
    # the array grid has the bits of the per-point map, in lattice order
    want = [triangle_to_deltoid(p).Z for p in interior_lattice(m)]
    grid = deltoid_grid(m)
    assert grid.dtype == complex and grid.shape == (len(want),)
    assert grid.tobytes() == np.array(want, dtype=complex).tobytes()
    # an array of points reports what the same points as a list report
    t = tensor_residual(Rat(1, 6), Rat(113, 50))
    assert psd_check(t, grid) == psd_check(t, want)


@pytest.mark.parametrize("points, seed", [(40, 4), (100, 3), (100, 6)])
def test_gamma2_pool_is_the_point_map(points, seed):
    # gamma2_sample_check maps its plane pool as one array; each point
    # keeps the bits of its own triangle_to_deltoid image
    plane = sample_interior(points, "low-discrepancy", seed)
    want = np.array([triangle_to_deltoid(p).Z for p in plane], dtype=complex)
    got = plane_to_deltoid(np.array([p.x for p in plane]),
                           np.array([p.y for p in plane]))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 0, -1])
def test_deltoid_grid_needs_m_at_least_3(m):
    with pytest.raises(ValueError):
        deltoid_grid(m)


def test_psd_check_counts_nonfinite_margins_as_failures():
    t = tensor_residual(Rat(1, 6), Rat(9, 4))
    rep = psd_check(t, [complex("nan")])
    assert rep.count == 1 and rep.failures == 1 and not rep.passed
    assert math.isnan(rep.min_margin1) and math.isnan(rep.min_margin2)
    # a NaN among good points is the worst point and the only failure
    rep = psd_check(t, [0.1 + 0.1j, complex("nan"), -0.2j])
    assert rep.failures == 1 and math.isnan(rep.worst_point.real)
    with pytest.raises(ValueError):
        psd_check(t, [])


def test_factorization_optimal():
    res = factorization_check("1/6", "9/4")
    assert res.reduced_form_checked
    assert res.k_const == (Rat(9, 4) - Rat(3, 2)) * (Rat(3, 2) - Rat(9, 4))
    # ray polynomial is (9/64)(1 + 3 rho)(1 - rho)^3
    ray = res.ray
    vals = {Rat(0): Rat(9, 64), Rat(1): Rat(0), Rat(1, 2): None}
    acc = Rat(0)
    for k, c in enumerate(ray):
        acc += c * Rat(1, 2) ** k
    want_half = Rat(9, 64) * (1 + Rat(3, 2)) * Rat(1, 2) ** 3
    assert acc == want_half
    assert ray[0] == Rat(9, 64)


def test_factorization_sweep_and_trivial():
    out = factorization_sweep()
    assert len(out) == 25
    res = factorization_check(0, 0)
    assert res.k_const == Rat(0)  # (b1 - 9 a1)(3/2 - b1) with both zero
    assert res.ray[0] == Rat(9, 4)  # (1/4) * 3 * 3 at rho = 0


def test_b1_bound_nine_fourths():
    ok, worst, _ = ray_nonneg_on_unit("1/6", "9/4")
    assert ok and worst == 0
    ok_lo, _, _ = ray_nonneg_on_unit("1/6", Rat(9, 4) - Rat(1, 8))
    assert ok_lo
    bad, worst_bad, rho_bad = ray_nonneg_on_unit("1/6", Rat(9, 4) + Rat(1, 100))
    assert not bad
    assert worst_bad < 0
    assert rho_bad > Rat(9, 10)
    bad2, _, _ = ray_nonneg_on_unit("1/6", Rat(9, 4) + Rat(1, 1000))
    assert not bad2


def route1_inputs():
    """(a1, b1) for the Rat-list reference: the sweep's 25 pairs, the
    pairs either side of b1 = 9/4, and seeded rationals with large
    denominators."""
    sweep = [(a1, b1) for a1 in (Rat(0), Rat(1, 12), Rat(1, 6), Rat(1, 4), Rat(1, 3))
             for b1 in (Rat(0), Rat(3, 4), Rat(3, 2), Rat(9, 4), Rat(3))]
    edge = [(Rat(1, 6), Rat(9, 4) + d) for d in (Rat(-1, 8), Rat(1, 100), Rat(1, 1000))]
    rng = random.Random(5)
    seeded = [(Rat(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 12)),
               Rat(rng.randrange(-10 ** 9, 4 * 10 ** 9), rng.randrange(1, 10 ** 9)))
              for _ in range(12)]
    return sweep + edge + seeded


@pytest.mark.parametrize("a1, b1", route1_inputs())
def test_route1_matches_rat_list_reference(a1, b1):
    got = factorization_check(a1, b1)
    want = rat_list_factorization_check(a1, b1)
    assert (got.ray, got.k_const, got.reduced_form_checked) == (
        want.ray, want.k_const, want.reduced_form_checked)
    assert (got.a1, got.b1) == (want.a1, want.b1)
    assert ray_nonneg_on_unit(a1, b1) == rat_list_ray_nonneg_on_unit(a1, b1)


def test_ray_sweep_keeps_the_first_of_tied_minima():
    # b1 and a1 chosen so that the quadratic factor is a square with its
    # double root at rho0 = 128/257: the ray is >= 0 on [0, 1] and vanishes
    # at k = 128 and at k = 257, and the first of the two must win
    rho0 = Rat(128, RAY_SAMPLES)
    b1 = (3 * rho0 + 6) / (2 * (1 + rho0))
    a1 = (b1 - (3 - b1) / (3 * rho0 ** 2)) / 12
    got = ray_nonneg_on_unit(a1, b1)
    assert got == (True, 0, rho0)
    assert got == rat_list_ray_nonneg_on_unit(a1, b1)
    ray = factorization_check(a1, b1).ray
    values = [sum(c * Rat(k, RAY_SAMPLES) ** n for n, c in enumerate(ray))
              for k in range(RAY_SAMPLES + 1)]
    assert [k for k, v in enumerate(values) if v == 0] == [128, RAY_SAMPLES]


@pytest.mark.parametrize("seed", [0, 1, 7, 601, 2024])
def test_random_real_poly_matches_rat_draws(seed):
    # the same draws give the same polynomial, term order included
    rng, ref = random.Random(seed), random.Random(seed)
    for deg in (3, 3, 3, 4, 2, 3):
        got, want = _random_real_poly(rng, deg), rat_random_real_poly(ref, deg)
        assert got == want and list(got.num) == list(want.num)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_gamma2_report_is_unchanged_by_integer_draws(monkeypatch, seed):
    got = gamma2_sample_check(4, 2.25, 8.0, trials=15, points=20, seed=seed)
    monkeypatch.setattr(cdcheck, "_random_real_poly", rat_random_real_poly)
    want = gamma2_sample_check(4, 2.25, 8.0, trials=15, points=20, seed=seed)
    assert got == want


def test_triangle_b_center():
    # the centre of the scan triangle gives b = 3/2 at every a
    for a in (0.0, 0.25, 1.0 / 3.0, 0.8):
        sp = triangle_b(a, 0.0, 2 * math.pi / 3)
        assert abs(sp.b_of_a - 1.5) < 1e-12


# the (z, u) and trigonometric forms of A1, B1, C1 agree to this, relative
# to the largest of them and 1; the worst disagreement measured on the
# grid-200 lattice and corner boxes 0-4 at the a below was 6.0e-14, more
# than 4 orders below
FORMS_TOL = 1e-9


def assert_forms_agree(a, th, ph, forms):
    scale = np.fmax(np.fmax(np.fmax(1.0, abs(forms[0])), abs(forms[1])), abs(forms[2]))
    for v, w in zip(zu_forms(a, th, ph), forms):
        assert np.all(abs(v - w) <= FORMS_TOL * scale)


def test_triangle_b_cross_check_sweep():
    for th, ph in scan_points(200, seed=1):
        for a in (1.0 / 3.0, 0.1):
            sp = triangle_b(a, th, ph)
            assert_forms_agree(a, np.array([th]), np.array([ph]),
                               [np.array([v]) for v in (sp.A1, sp.B1, sp.C1)])


@pytest.mark.parametrize("a", [0.0, 1 / 6, 1 / 4, 1 / 3, 2 / 5])
def test_zu_forms_equal_trig_forms_on_the_lattice_and_corner_boxes(a):
    # the two transcriptions of A1, B1, C1 on the points route 2 reads:
    # README's grid-200 lattice (points with N < N_TOL left out) and the
    # scan's corner boxes
    for th, ph in [_scan_lattice(200), *(_corner_box(level) for level in range(5))]:
        kept, *forms, _ = _checked_b(a, th, ph)
        assert kept.any()
        assert_forms_agree(a, th[kept], ph[kept], [v[kept] for v in forms[:3]])


def test_triangle_b_degenerate():
    with pytest.raises(DegenerateDenominator):
        triangle_b(0.3, 1.0, 0.0)


def test_triangle_b_monotone_in_a():
    for th, ph in scan_points(30, seed=2):
        prev = None
        for a in (0.0, 0.2, 1.0 / 3.0, 0.5):
            b = triangle_b(a, th, ph).b_of_a
            if prev is not None:
                assert b <= prev + 1e-12
            prev = b


def test_fd_oracle_agreement():
    pts = [p for p in scan_points(40, seed=3, margin=0.55)]
    for a in (0.0, 1.0 / 3.0):
        for th, ph in pts[:20]:
            b = triangle_b(a, th, ph).b_of_a
            ref = fd_oracle_b(a, th, ph)
            assert abs(b - ref) < 1e-5, (a, th, ph)


def test_b13_forms_agree():
    n = 0
    for th, ph in scan_points(1000, seed=4, margin=0.2):
        try:
            t, zu, xw, tt = b_one_third_forms(th, ph)
        except DegenerateDenominator:
            continue
        n += 1
        scale = max(1.0, abs(t))
        assert abs(t - zu) < 1e-9 * scale
        assert abs(t - xw) < 1e-9 * scale
        assert abs(t - tt) < 1e-9 * scale
    assert n > 900


def test_b13_t_form_values():
    assert abs(b_one_third_of_t(2.0) - 1.25) < 1e-15
    assert abs(b_one_third_of_t(math.sqrt(3.0)) - 1.5) < 1e-12
    # infimum 9/8 approached from above as t grows
    prev = b_one_third_of_t(2.0)
    for t in (5.0, 20.0, 100.0, 1e4):
        cur = b_one_third_of_t(t)
        assert 9.0 / 8.0 < cur < prev
        prev = cur
    assert b_one_third_of_t(1e6) - 9.0 / 8.0 < 1e-10


def test_scan_inf_b_one_third():
    rep = scan_inf_b(1.0 / 3.0, grid=60, refine_near_cusps=True)
    assert 9.0 / 8.0 - 1e-6 <= rep.inf_estimate <= 9.0 / 8.0 + 1e-2
    for i in range(1, len(rep.trace)):
        assert rep.trace[i] <= rep.trace[i - 1] + 1e-15
    # argmin sits near one of the three corners
    th, ph = rep.argmin
    d = min(
        math.hypot(th - c[0], ph - c[1])
        for c in ((0.0, 0.0), (2 * math.pi, 0.0), (-2 * math.pi, 2 * math.pi))
    )
    assert d < 0.2


def test_scan_inf_b_zero():
    rep = scan_inf_b(0.0, grid=60, refine_near_cusps=True)
    assert rep.inf_estimate >= 9.0 / 8.0 - 1e-6
    rep13 = scan_inf_b(1.0 / 3.0, grid=60, refine_near_cusps=True)
    assert rep13.inf_estimate <= rep.inf_estimate + 1e-12


@pytest.mark.parametrize("grid", [0, 2])
def test_scan_inf_b_refuses_a_lattice_without_interior_points(grid):
    # side 3 is the smallest lattice with an interior point, as in deltoid_grid
    with pytest.raises(ValueError, match="need grid >= 3"):
        scan_inf_b(1.0 / 3.0, grid=grid, refine_near_cusps=False)
    assert len(scan_inf_b(1.0 / 3.0, grid=3, refine_near_cusps=False).trace) == 1


def test_divergence_probe_quad():
    rep = divergence_probe(0.4, curve="quad", c=1.0)
    assert rep.limit_estimate < 0
    assert rep.sign_matches
    assert min(rep.b_values) < -1e3
    for name, (got, want, ok) in rep.ratio_checks.items():
        assert ok, (name, got, want)


def test_divergence_probe_degenerate():
    rep = divergence_probe(1.0 / 3.0, curve="quad", c=1.0)
    assert rep.sign_matches
    assert abs(rep.limit_estimate) < 1e-3
    for name, (got, want, ok) in rep.ratio_checks.items():
        assert ok, (name, got, want)


def test_divergence_probe_linear():
    rep = divergence_probe(0.6, curve="lin", c=1.0)
    assert min(rep.b_values) < -1e3
    assert rep.ratio_checks == {}
    with pytest.raises(ValueError):
        divergence_probe(0.5, curve="cubic")


def test_route2_forms_on_an_array_equal_each_point_alone():
    # every caller evaluates the forms on arrays; on the grid-200 lattice
    # each point's A1, B1, C1, N and b have the bits of the same functions
    # on that point alone
    th, ph = _scan_lattice(200)
    assert th.size == 19701
    forms = _trig_forms(1.0 / 3.0, th, ph)
    b = _b_from_parts(*forms)
    for k in range(th.size):
        one = _trig_forms(1.0 / 3.0, th[k:k + 1], ph[k:k + 1])
        assert [v[k] for v in forms] == [v[0] for v in one]
        assert b[k] == _b_from_parts(*one)[0]


# (argmin, trace) of scan_inf_b with refinement, as the per-point scalar scan gave them
SCAN_PINS = {
    (1.0 / 3.0, 80): ((0.010416666666666666, 0.01273148148148148),
                      (1.1251929598735981, 1.1251929598735981, 1.1251929598735981,
                       1.1250897253985888, 1.1250223991917523, 1.125002439831458)),
    (1.0 / 3.0, 200): ((0.010416666666666666, 0.01273148148148148),
                       (1.1250305381695915, 1.1250305381695915, 1.1250305381695915,
                        1.1250305381695915, 1.1250223991917523, 1.125002439831458)),
    (1.0 / 3.0, 60): ((0.010416666666666666, 0.01273148148148148),
                      (1.125343321716614, 1.125343321716614, 1.125343321716614,
                       1.1250897253985888, 1.1250223991917523, 1.125002439831458)),
    (0.0, 60): ((0.10471975511965942, 3.0368728984701336), (1.126544945709075,) * 6),
}


@pytest.mark.parametrize("a, grid", sorted(SCAN_PINS))
def test_scan_inf_b_is_pinned(a, grid):
    argmin, trace = SCAN_PINS[a, grid]
    rep = scan_inf_b(a, grid, refine_near_cusps=True)
    assert rep.argmin == argmin and rep.trace == trace
    assert rep.inf_estimate == trace[-1]
    assert all(type(v) is float for v in (rep.inf_estimate, *rep.argmin, *rep.trace))


def test_divergence_probe_b_values_are_pinned():
    rep = divergence_probe(0.4, curve="quad")
    assert rep.b_values == (
        -20.057930826671285, -49.84352356643345, -116.00614640203004, -259.0840780776278,
        -562.8613406876283, -1199.8431878103509, -2524.2688456364326, -5262.2186019706305,
        -10899.993380919646, -22477.273886524727, -46206.79379371699, -94779.11002064322)
    assert rep.limit_estimate == -1.482277437298693
    assert all(type(v) is float for v in (*rep.thetas, *rep.b_values, *rep.b_theta2))


def test_scan_ranking_skips_nan_and_keeps_the_first_of_a_tie(monkeypatch):
    # b is stubbed per region: the lattice's first point is NaN and the
    # rest tie at 2; the first box ties at 2 everywhere, so the lattice's
    # second point keeps the argmin; the second box dips to 1.5 at its
    # second and third points, and its second point takes it; the later
    # boxes stay above, so the trace is the running minimum
    regions = []

    def fake_b(a1v, b1v, c1v, nv):
        b = np.full(nv.shape, 2.0 if len(regions) < 2 else 3.0)
        if not regions:
            b[0] = math.nan
        elif len(regions) == 2:
            b[1:3] = 1.5
        regions.append(nv)
        return b

    monkeypatch.setattr(cdcheck, "_b_from_parts", fake_b)
    rep = scan_inf_b(0.2, grid=10, refine_near_cusps=True)
    assert len(regions) == 6
    th, ph = _scan_lattice(10)
    box = cdcheck._corner_box(1)
    assert rep.trace == (2.0, 2.0, 1.5, 1.5, 1.5, 1.5)
    assert rep.argmin == (box[0][1], box[1][1])
    monkeypatch.setattr(cdcheck, "_b_from_parts", lambda *forms: np.full(forms[3].shape, math.nan))
    rep = scan_inf_b(0.2, grid=10, refine_near_cusps=False)
    assert rep.inf_estimate == math.inf and rep.argmin is None
    regions.clear()
    monkeypatch.setattr(cdcheck, "_b_from_parts", fake_b)
    assert scan_inf_b(0.2, grid=10, refine_near_cusps=False).argmin == (th[1], ph[1])


# route 2 against route 1, relative to max(1, |b1|).  Measured worst
# gaps: on the lattice of side 120, 1.6e-10 at a = 0, 1/6, 1/4 and 2/5
# and 2.1e-8 at a = 1/3, so 47 times below ROUTES_LATTICE_TOL; on corner
# boxes 0-4, 4.9e-6 at level 4 and a = 1/3, 20 times below ROUTES_BOX_TOL
ROUTES_LATTICE_TOL = 1e-6
ROUTES_BOX_TOL = 1e-4


def surface_arrays(a, grid):
    """The (theta, phi, b) columns of triangle_surface's rows."""
    return np.array(triangle_surface(a, grid)).T


@pytest.mark.parametrize("a", [0.0, 1 / 6, 1 / 4, 1 / 3, 2 / 5])
def test_route2_surface_is_route1_at_every_lattice_point(a):
    # 2 b(a) is the largest b1 at which R(a / 2, b1) is PSD, point by point
    th, ph, b = surface_arrays(a, 120)
    assert th.size == 7021
    assert_routes_agree(a, th, ph, b, ROUTES_LATTICE_TOL)


@pytest.mark.parametrize("a", [0.0, 1 / 3])
def test_route2_corner_boxes_are_route1(a):
    for level in range(5):
        th, ph = _corner_box(level)
        kept, *_, b = _checked_b(a, th, ph)
        assert kept.all()
        assert_routes_agree(a, th, ph, b, ROUTES_BOX_TOL)


def test_cross_route_check_names_the_first_point_of_a_route2_slip(monkeypatch):
    # B1's -cos(theta + phi) term read as +: the first lattice point stays
    # within the bound (2.1e-8), the second is past it (31)
    trig_forms = cdcheck._trig_forms

    def slipped(a, th, ph):
        a1v, b1v, c1v, nv = trig_forms(a, th, ph)
        return a1v, b1v + 144.0 * np.sin(ph / 2) ** 2 * np.cos(th + ph), c1v, nv

    monkeypatch.setattr(cdcheck, "_trig_forms", slipped)
    th, ph, b = surface_arrays(1 / 3, 120)
    with pytest.raises(AssertionError, match=re.escape(
            f"routes part at point 1, (theta, phi) = ({th[1]}, {ph[1]})")):
        assert_routes_agree(1 / 3, th, ph, b, ROUTES_LATTICE_TOL)


def test_cross_route_check_names_the_first_point_of_a_route1_slip(monkeypatch):
    # r12 off by 1e-6: the first lattice point is already past the bound,
    # 2.4e-4 relative there
    residual = cdcheck.tensor_residual

    def slipped(a1, b1):
        r = residual(a1, b1)
        return HermitianTensorField(r.r11, r.r12 + BivarPoly.const(Rat(1, 10 ** 6)), r.r22)

    th, ph, b = surface_arrays(1 / 3, 120)
    monkeypatch.setattr(cdcheck, "tensor_residual", slipped)
    with pytest.raises(AssertionError, match=re.escape(
            f"routes part at point 0, (theta, phi) = ({th[0]}, {ph[0]})")):
        assert_routes_agree(1 / 3, th, ph, b, ROUTES_LATTICE_TOL)


@pytest.mark.parametrize("call", [
    lambda: scan_inf_b(math.nan),
    lambda: scan_inf_b(math.inf, grid=10),
    lambda: divergence_probe(math.nan),
    lambda: divergence_probe(0.4, c=math.nan),
    lambda: divergence_probe(0.4, curve="lin", c=-math.inf),
    lambda: triangle_b(math.nan, 0.5, 1.0),
    lambda: cdcheck.triangle_surface(math.inf, 10),
], ids=["scan-nan", "scan-inf", "probe-nan-a", "probe-nan-c", "probe-inf-c", "point-nan",
        "surface-inf"])
def test_route2_refuses_a_non_finite_a_or_c(call):
    with pytest.raises(ValueError, match="need finite"):
        call()


@pytest.mark.parametrize("curve, c, point", [
    ("quad", -1.0, "(0.2, -0.04000000000000001)"),  # below phi = 0
    ("lin", 20.0, "(0.2, 4.0)"),                     # past theta + 2 phi = 2 pi
])
def test_divergence_probe_refuses_points_outside_the_triangle(curve, c, point):
    with pytest.raises(ValueError, match=f"probe point {re.escape(point)} lies outside"):
        divergence_probe(0.4, curve=curve, c=c)
    # a zero N on the curve is still reported first
    with pytest.raises(DegenerateDenominator, match="N = 0.0"):
        divergence_probe(0.4, curve=curve, c=0.0)


def test_gamma2_cd94_8_passes():
    rep = gamma2_sample_check(4, 2.25, 8.0, trials=100, points=100, seed=5)
    assert rep.pairs >= 10**4
    assert rep.min_margin >= -1e-10
    assert rep.passed


def test_gamma2_n7_violated():
    rep = gamma2_sample_check(4, 2.25, 7.0, trials=20, points=30, seed=6)
    assert not rep.passed
    assert rep.min_margin < -0.5
    assert abs(rep.worst_point) > 0.9


def sweep(trials, points, seed):
    """The functions of gamma2_sample_check, and its points: the four
    fixed ones, then the pool, mapped one point at a time."""
    rng = random.Random(seed)
    funcs = [Z + ZBAR,
             BivarPoly({(1, 0): CRat(Rat(0), Rat(1)), (0, 1): CRat(Rat(0), Rat(-1))}),
             Z * ZBAR] + [_random_real_poly(rng) for _ in range(trials)]
    det = [cmath.exp(2j * math.pi * k / 3) * (1 - 1e-3) for k in range(3)] + [0j]
    pool = [triangle_to_deltoid(p).Z
            for p in sample_interior(points, "low-discrepancy", seed + 1)]
    return funcs, np.array(det + pool, dtype=complex)


def gamma2_check_per_point(lam, rho, n, trials, points, seed, tol=1e-10):
    """Reference: gamma2_sample_check as one scalar evaluation per pair."""
    lam = Lambda(lam)
    funcs, zs = sweep(trials, points, seed)
    zs = zs.tolist()
    worst, worst_f, worst_z, violations, pairs = math.inf, None, None, 0, 0
    for idx, f in enumerate(funcs):
        g2, g1, lf = gamma2(f, f, lam), gamma(f, f), generator(f, lam)
        # the three fixed functions also meet the four fixed points
        for z in (zs if idx < 3 else zs[4:]):
            m = g2.eval(z).real - rho * g1.eval(z).real - lf.eval(z).real ** 2 / n
            pairs += 1
            if m < worst:
                worst, worst_f, worst_z = m, repr(f), z
            if m < -tol:
                violations += 1
    return Gamma2Report(lam=lam.value, rho=rho, n=n, pairs=pairs, min_margin=worst,
                        worst_f=worst_f, worst_point=worst_z,
                        violations=violations, tol=tol)


# the margins are summed from pair polynomials, not evaluated per function,
# so min_margin may move in its last digits: a tenth of the check's tol,
# relative above 1
MARGIN_TOL = 1e-11


def margin_close(got, ref):
    return abs(got - ref) <= MARGIN_TOL * max(1.0, abs(ref))


@pytest.mark.parametrize("n, seed", [(8.0, 3), (7.0, 4), (6.5, 5)])
def test_gamma2_sample_check_matches_per_point_loop(n, seed):
    rep = gamma2_sample_check(4, 2.25, n, trials=10, points=40, seed=seed)
    ref = gamma2_check_per_point(4, 2.25, n, trials=10, points=40, seed=seed)
    assert (rep.pairs, rep.violations, rep.worst_f, rep.worst_point) == (
        ref.pairs, ref.violations, ref.worst_f, ref.worst_point)
    assert (rep.lam, rep.rho, rep.n, rep.tol) == (ref.lam, ref.rho, ref.n, ref.tol)
    assert margin_close(rep.min_margin, ref.min_margin)
    assert type(rep.worst_point) is complex and type(rep.min_margin) is float


@pytest.mark.parametrize("rho, n, seed", [(2.25, 8.0, 3), (2.25, 7.0, 4), (0.3, 6.5, 5)])
def test_gamma2_margins_match_exact_margin_at_the_points(rho, n, seed):
    # every margin, function by point, against the exact margin
    # polynomial evaluated in Fractions at the same float points
    funcs, zs = sweep(10, 24, seed)
    got = _gamma2_margins(funcs, Lambda(4), rho, n, zs)
    assert got.shape == (len(funcs), zs.size)
    for f, row in zip(funcs, got):
        want = gamma2_margin_exact(f, Lambda(4), rho, n, zs)
        assert all(margin_close(g, w) for g, w in zip(row.tolist(), want))


@pytest.mark.parametrize("lam, rho, n", [(4, Rat(9, 4), Rat(8)), (Rat(7, 2), Rat(1, 3), Rat(5, 2))])
def test_pair_polys_sum_to_the_margin_polynomial(lam, rho, n):
    # sum_ab w_ab Q_ab is Gamma_2(f,f) - rho Gamma(f,f) - (Lf)^2 / n
    # exactly, for each random real form, with keys shared by several
    rng = random.Random(11)
    funcs = [_random_real_poly(rng) for _ in range(6)] + [_random_real_poly(rng, deg=4)]
    pairs = _monomial_pairs(funcs)
    nkeys = len({key for f in funcs for key in f.num})
    assert list(pairs.values()) == list(range(nkeys * (nkeys + 1) // 2))
    assert all(a <= b for a, b in pairs)
    polys = _pair_polys(pairs, Lambda(lam), rho, n)
    for f in funcs:
        d2 = f.den * f.den
        total = BivarPoly()
        for k, (re, im) in _pair_weights(f, pairs).items():
            total = total + polys[k].scale(CRat(Rat(re, d2), Rat(im, d2)))
        lf = generator(f, lam)
        want = gamma2(f, f, lam) - gamma(f, f).scale(rho) - (lf * lf).scale(1 / n)
        assert not want.is_zero() and total == want


@pytest.mark.parametrize("trials", [0, 5, 40])
def test_gamma2_evaluates_each_monomial_pair_once(monkeypatch, trials):
    # one call builds one PolyTable whose rows are the pair polynomials,
    # each built once, whatever the number of functions, and evaluates it
    # once on all the points
    funcs, zs = sweep(trials, 30, 2)
    k = len({key for f in funcs for key in f.num})
    built, calls = [], []

    class Counted(cdcheck.PolyTable):
        def __init__(self, rows):
            built.append(rows)
            super().__init__(rows)

        def values(self, z, w=None):
            calls.append((z, w))
            return super().values(z, w)

    monkeypatch.setattr(cdcheck, "PolyTable", Counted)
    gamma2_sample_check(4, 2.25, 8.0, trials=trials, points=30, seed=2)
    pairs = _monomial_pairs(funcs)
    want = _pair_polys(pairs, Lambda(4), Rat(9, 4), Rat(8))
    assert len(pairs) == k * (k + 1) // 2
    assert built == [[p.complex_coeffs() for p in want]]
    assert len(calls) == 1 and calls[0][0].tobytes() == zs.tobytes() and calls[0][1] is None


def test_gamma2_counts_nonfinite_margins_as_violations(monkeypatch):
    # NaN pool points make every margin there NaN; the four fixed points
    # stay finite and pass
    from deltoid import cdcheck

    def nan_points(x, y):
        return np.full(len(x), complex("nan"))

    monkeypatch.setattr(cdcheck, "plane_to_deltoid", nan_points)
    rep = gamma2_sample_check(4, 2.25, 8.0, trials=2, points=5, seed=1)
    assert rep.pairs == 3 * 9 + 2 * 5
    assert rep.violations == 3 * 5 + 2 * 5 and not rep.passed
    assert math.isnan(rep.min_margin) and rep.worst_f == repr(Z + ZBAR)
    assert math.isnan(rep.worst_point.real)


@pytest.mark.parametrize("rho, n", [(math.nan, 8.0), (2.25, math.nan),
                                    (math.inf, 8.0), (2.25, math.inf)])
def test_gamma2_refuses_nonfinite_rho_and_n(rho, n):
    # rho and n enter exact arithmetic, which has no NaN or infinity
    with pytest.raises(ValueError, match="finite"):
        gamma2_sample_check(4, rho, n, trials=2, points=5, seed=1)


def test_gamma2_refuses_negative_trials_and_keeps_the_probes_at_zero():
    with pytest.raises(ValueError, match="need trials >= 0"):
        gamma2_sample_check(4, 2.25, 8.0, trials=-3, points=5, seed=1)
    # no random functions: the three fixed functions on the four probes
    # and the five pool points
    rep = gamma2_sample_check(4, 2.25, 8.0, trials=0, points=5, seed=1)
    assert rep.pairs == 3 * 9 and rep.passed


def test_route_agreement():
    # tensor route and sampling route agree on pass/fail at lambda = 4
    opt = CDParams.from_cd(4, "9/4", 8)
    r_ok = psd_check(tensor_residual(opt.a1, opt.b1), deltoid_grid(120))
    s_ok = gamma2_sample_check(4, 2.25, 8.0, trials=40, points=60, seed=7)
    assert r_ok.passed and s_ok.passed
    bad = CDParams.from_cd(4, "9/4", 7)
    r_bad = psd_check(tensor_residual(bad.a1, bad.b1), deltoid_grid(200))
    s_bad = gamma2_sample_check(4, 2.25, 7.0, trials=20, points=30, seed=8)
    assert (not r_bad.passed) and (not s_bad.passed)
