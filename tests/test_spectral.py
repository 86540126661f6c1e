import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from deltoid import eigen, spectral
from deltoid.eigen import EigenPolynomial, eigenvalue, inner_product, moments
from deltoid.exact import BivarPoly, CRat, HornerProgram, Rat
from deltoid.geometry import V0, V1, V2, TrianglePoint, triangle_to_deltoid
from deltoid.operator import Lambda
from deltoid.spectral import (
    GROWTH_SLACK,
    FitReport,
    HeatKernelTruncation,
    KernelReport,
    TruncationInsufficient,
    _lattice,
    growth_cap,
    growth_passed,
    heat_diag,
    heat_diag_sups,
    hk_bound_check,
    kernel_bound_check,
    sobolev_reference_value,
    sobolev_series_check,
    supnorm_bound_check,
    ultracontractivity_fit,
)

CUSPS = [complex(np.exp(2j * np.pi * k / 3)) for k in range(3)]


@pytest.fixture(scope="module")
def trunc4():
    return HeatKernelTruncation(Lambda(4), 40)


@pytest.fixture(scope="module")
def trunc1():
    # degree capped where double-precision evaluation is still clean;
    # see evaluation_noise for what goes wrong at 40
    return HeatKernelTruncation(Lambda(1), 25)


def test_truncation_inventory(trunc4):
    n = trunc4.max_degree
    assert len(trunc4) == (n + 1) * (n + 2) // 2
    zeros = [ep for ep in trunc4.modes if ep.mu == 0]
    assert len(zeros) == 1 and zeros[0].p == zeros[0].q == 0


def test_mode_values_match_polynomials(trunc4):
    # a point, and an array of points, read from the truncation's store
    zs = np.array([0.31 - 0.12j, -0.2 + 0.25j, 0.0j, 0.9 * CUSPS[1]])
    one = trunc4.mode_values(zs[0])
    many = trunc4.mode_values(zs)
    assert one.shape == (len(trunc4),) and many.shape == (len(trunc4), len(zs))
    for idx in (0, 1, 5, 40, 200, len(trunc4) - 1):
        direct = trunc4.modes[idx].poly.eval(zs[0])
        assert abs(one[idx] - direct) <= 1e-9 * max(1.0, abs(direct))
    assert np.max(np.abs(many[:, 0] - one)) <= 1e-9 * np.max(np.abs(one))
    assert np.array_equal(trunc4.mode_weights(zs),
                          (many.real**2 + many.imag**2) * trunc4._inv_norm2[:, None])


def test_integrates_to_delta_exactly():
    assert HeatKernelTruncation(Lambda(4), 12).integrates_to_delta()
    assert HeatKernelTruncation(Lambda(Rat(7, 2)), 8).integrates_to_delta()


def test_heat_diag_guards(trunc4):
    with pytest.raises(ValueError):
        heat_diag(0.1 + 0.1j, 0.0, trunc4)
    with pytest.raises(ValueError):
        heat_diag(1.2 + 0.0j, 0.1, trunc4)
    shallow = HeatKernelTruncation(Lambda(4), 5)
    with pytest.raises(TruncationInsufficient):
        heat_diag(0j, 0.02, shallow)


def test_heat_diag_positive_on_mixed_grid(trunc4):
    pts = [0j, -1 / 3 + 0j, 0.2 + 0.1j] + [0.999 * c for c in CUSPS]
    for z in pts:
        for t in (0.05, 0.3, 2.0):
            assert heat_diag(z, t, trunc4) > 0


def test_heat_diag_rotation_symmetry(trunc4):
    w = complex(np.exp(2j * np.pi / 3))
    for z in (0.2 + 0.1j, -0.25 + 0.05j):
        a = heat_diag(z, 0.1, trunc4)
        b = heat_diag(z * w, 0.1, trunc4)
        assert abs(a - b) < 1e-10 * a


def test_semigroup_composition_via_exact_orthogonality():
    # compose p_t and p_s by integrating the cross product with the
    # exact moment table; off-diagonal inner products vanish exactly,
    # so the double sum collapses onto the t+s diagonal
    lam = Lambda(4)
    trunc = HeatKernelTruncation(lam, 6)
    table = moments(lam, 12)
    t, s = 0.11, 0.23
    z = 0.15 - 0.2j
    vals = trunc.mode_values(z)
    composed = 0.0
    for a, epa in enumerate(trunc.modes):
        for b, epb in enumerate(trunc.modes):
            ip = inner_product(epa.poly, epb.poly, table)
            if ip == 0:
                continue
            assert a == b  # orthogonality is exact, not approximate
            composed += (
                math.exp(-float(epa.mu) * (t + s))
                * abs(vals[a]) ** 2
                / float(ip.re)
            )
    direct = heat_diag(z, t + s, trunc)
    assert abs(composed - direct) < 1e-12 * direct


def test_mu_monotone_along_diagonal():
    for lam in (Lambda(1), Lambda(4), Lambda(Rat(7, 2))):
        mus = [eigenvalue(k, k, lam) for k in range(13)]
        assert all(b > a for a, b in zip(mus, mus[1:]))


def test_tail_estimate_decay(trunc4):
    assert trunc4.tail_estimate(0.02) == pytest.approx(
        math.exp(-0.75 * 1600 * 0.02)
    )
    assert trunc4.tail_estimate(0.1) < trunc4.tail_estimate(0.05)


def test_ultracontractivity_slope_lam4(trunc4):
    rep = ultracontractivity_fit(Lambda(4), (0.02, 0.2), trunc4)
    assert -4.5 <= rep.exponent <= -3.5
    assert rep.target == -4.0
    assert rep.constant > 0
    assert rep.details["noise_fraction"] < 0.05


def test_ultracontractivity_slope_lam1(trunc1):
    rep = ultracontractivity_fit(Lambda(1), (0.02, 0.2), trunc1)
    assert -1.3 <= rep.exponent <= -0.8
    assert rep.details["noise_fraction"] < 1e-6


def test_ultracontractivity_flat_at_large_t(trunc4):
    # past the spectral gap (mu_1 = 4 here) the sup settles at the
    # stationary value 1 and the log-log slope goes flat
    rep = ultracontractivity_fit(Lambda(4), (2.0, 5.0), trunc4)
    assert abs(rep.exponent) < 0.05


def test_ultracontractivity_insufficient_truncation():
    # at the origin the partial sum is O(1), so a five-level truncation
    # cannot clear the 1% tail rule at small t; cusp-dominated grids
    # can, their partials being orders of magnitude larger
    shallow = HeatKernelTruncation(Lambda(4), 5)
    with pytest.raises(TruncationInsufficient):
        ultracontractivity_fit(Lambda(4), (0.02, 0.2), shallow, grid=[0j])


def test_evaluation_noise_cliff():
    # the conditioning diagnostic that forces the lam=1 degree cap:
    # at 25 the small-t diagonal is clean, at 40 it is pure noise
    lam = Lambda(1)
    lo = HeatKernelTruncation(lam, 25).evaluation_noise(0.02)
    hi = HeatKernelTruncation(lam, 40).evaluation_noise(0.02)
    assert lo < 1e-6
    assert hi > 1e3
    tr = HeatKernelTruncation(lam, 30)
    assert tr.evaluation_noise(0.5) < tr.evaluation_noise(0.05)


def exact_abs(poly, z):
    """|poly(z, conj z)| from exact rational arithmetic at the float point z."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for (i, j), (cr, ci) in poly.num.items():
        # z^i conj(z)^j = |z|^(2 min(i, j)) z^(i - j) or conj(z)^(j - i)
        pr, pi = (x * x + y * y) ** min(i, j), Fraction(0)
        for _ in range(abs(i - j)):
            pr, pi = pr * x - pi * (y if i > j else -y), pr * (y if i > j else -y) + pi * x
        re += cr * pr - ci * pi
        im += cr * pi + ci * pr
    return math.sqrt((re * re + im * im) / poly.den**2)


def test_growth_rule_is_inclusive_at_the_cap():
    rep = FitReport(window=(10, 30), exponent=2.0 + GROWTH_SLACK, residual=0.0,
                    target=2.0)
    assert growth_cap(rep) == 2.0 + GROWTH_SLACK
    assert growth_passed(rep)
    above = FitReport(window=(10, 30), exponent=math.nextafter(growth_cap(rep), 3.0),
                      residual=0.0, target=2.0)
    assert not growth_passed(above)


def test_supnorm_growth_lam4():
    rep = supnorm_bound_check(Lambda(4), 30)
    assert rep.exponent <= 2.1
    assert 0.0 < rep.exponent
    assert rep.target == 2.0
    assert math.isfinite(rep.constant) and rep.constant > 0
    with pytest.raises(ValueError):
        supnorm_bound_check(Lambda(Rat(1, 2)), 10)
    # the noisiest mode is (30, 0): the store's value at its grid argmax,
    # and Horner's at the same point, stay within noise_fraction of the
    # exact value there
    noise = rep.details["noise_fraction"]
    assert 0.05 < noise < 0.5
    trunc = HeatKernelTruncation(Lambda(4), 30)
    a = next(a for a, ep in enumerate(trunc.modes) if (ep.p, ep.q) == (30, 0))
    zs = _lattice(80)
    sup, arg = trunc._store.sup_argmax(zs)
    z = complex(zs[arg[a]])
    poly = trunc.modes[a].poly
    exact = exact_abs(poly, z)
    for got in (sup[a], abs(poly.eval(z))):
        assert abs(got - exact) <= noise * exact


@pytest.mark.parametrize("lam", [Lambda(4), Lambda(Rat(7, 2)), Lambda(Rat(9, 5))])
def test_lattice_sup_sits_on_a_cusp(lam):
    # for lam >= 1 every mode peaks at the cusps, which are lattice
    # points, so the lattice maximum is the sup-norm: |P(1)| exactly,
    # up to the rounding of a float evaluation
    trunc = HeatKernelTruncation(lam, 20)
    zs = _lattice(40)
    cusps = {k for k, z in enumerate(zs) if min(abs(z - c) for c in CUSPS) < 1e-12}
    assert len(cusps) == 3
    sup, arg = trunc._store.sup_argmax(zs)
    mass = trunc._mass
    for a, ep in enumerate(trunc.modes):
        assert arg[a] in cusps, (ep.p, ep.q)
        at_one = Fraction(sum(cr for cr, _ in ep.poly.num.values()), ep.poly.den)
        assert not any(ci for _, ci in ep.poly.num.values())
        assert abs(sup[a] - abs(float(at_one))) <= spectral._EPS * mass[a]


def test_mode_table_matches_horner():
    # |P| <= coefficient mass on the closed domain, and float rounding
    # noise scales with that mass, so the tolerance is relative to it;
    # the store's mirror rows (p < q) are checked against their own solves
    trunc = HeatKernelTruncation(Lambda(4), 12)
    zs = np.array(KERNEL_GRID)
    store = trunc._store
    vals = store.values(zs)
    mass = trunc._mass
    for a, ep in enumerate(trunc.modes):
        want = HornerProgram(ep.poly).eval(zs)
        assert mass[a] == pytest.approx(
            sum(abs(c.real) + abs(c.imag) for _, _, c in ep.poly.complex_coeffs()))
        assert np.max(np.abs(vals[a] - want)) <= 1e-12 * mass[a]


def test_mode_table_streams_blocks():
    # more points than one block: sup and argmax over blocks equal those
    # over the assembled values, and no block is larger than the bound
    trunc = HeatKernelTruncation(Lambda(4), 6)
    zs = _lattice(40)
    assert len(zs) > spectral._POINT_BLOCK
    blocks = list(trunc._store.blocks(zs))
    assert all(v.shape[1] <= spectral._POINT_BLOCK for _, v in blocks)
    vals = trunc._store.values(zs)
    sup, arg = trunc._store.sup_argmax(zs)
    assert np.array_equal(sup, np.max(np.abs(vals), axis=1))
    assert np.array_equal(arg, np.argmax(np.abs(vals), axis=1))


def test_mode_table_row_slices():
    # a row slice keeps only the monomials of its rows and the degree
    # they need, and its values are the store's rows to rounding
    trunc = HeatKernelTruncation(Lambda(4), 9)
    store = trunc._store
    rows = [a for a, ep in enumerate(trunc.modes) if ep.p + ep.q in (2, 4) and ep.p >= ep.q]
    sub = store.select(rows)
    assert sub.size == len(rows) and sub._degree == 4
    for _, kk, dd, _, coef in sub._classes:
        assert np.all(2 * kk + dd <= 4) and np.all(np.any(coef, axis=0))
    assert sum(c[4].shape[1] for c in sub._classes) == len(
        {key for a in rows for key in trunc.modes[a].poly.num})
    zs = np.array(KERNEL_GRID)
    full = store.values(zs)[rows]
    assert np.max(np.abs(sub.values(zs) - full)) <= 1e-14 * np.max(np.abs(full))


def test_mode_table_rejects_complex_coefficients():
    trunc = HeatKernelTruncation(Lambda(4), 2)
    ep = trunc.modes[1]
    bad = EigenPolynomial(p=ep.p, q=ep.q, lam=ep.lam, mu=ep.mu, norm2=ep.norm2,
                          poly=ep.poly + BivarPoly.const(CRat(0, 1)))
    with pytest.raises(ValueError):
        spectral._ModeStore.of_modes(trunc.modes[:1] + (bad,) + trunc.modes[2:])


def test_complex_coeffs_runs_once_per_solved_mode(monkeypatch):
    # the float store is built on first float use, from one complex_coeffs()
    # pass over the modes with p >= q; mirrors swap their partner's terms.
    # No other test holds lam = 11/3, so each truncation here solves and
    # builds its own spectrum and store
    lam = Lambda(Rat(11, 3))
    seen = []
    original = BivarPoly.complex_coeffs

    def counted(poly):
        seen.append(id(poly))
        return original(poly)

    monkeypatch.setattr(BivarPoly, "complex_coeffs", counted)
    trunc = HeatKernelTruncation(lam, 10)
    assert trunc.integrates_to_delta() and seen == []
    solved = {id(ep.poly) for ep in trunc.modes if ep.p >= ep.q}
    heat_diag_sups(trunc, [0.1, 0.2], [0j, 0.9 * CUSPS[0]])
    trunc.mode_weights(0.1j)
    trunc.evaluation_noise(0.1)
    ultracontractivity_fit(lam, (0.5, 1.0), trunc)
    assert sorted(seen) == sorted(solved)
    del trunc
    for check in (lambda: supnorm_bound_check(lam, 8, grid_m=10),
                  lambda: hk_bound_check(lam, 8, grid_m=10),
                  lambda: kernel_bound_check([1.0, 0.5], lam, 8, KERNEL_GRID)):
        seen.clear()
        check()
        assert len(seen) == len(set(seen)) == 25  # (p, q), p >= q, p + q <= 8


def _bits(report):
    """Every field of a check report, floats by repr, which round-trips."""
    if isinstance(report, KernelReport):
        return repr([getattr(report, k) for k in KernelReport.__slots__])
    return repr((report.window, report.exponent, report.residual, report.constant,
                 report.target, sorted(report.details.items())))


def test_live_truncation_leaves_check_reports_unchanged(monkeypatch):
    # a check beside a deeper live truncation reads rows of that truncation's
    # store; its report has the bits of a check that solved on its own
    monkeypatch.setattr(spectral, "_spectra", weakref.WeakValueDictionary())
    lam = Lambda(4)

    def reports():
        return [_bits(r) for r in (
            supnorm_bound_check(lam, 12),
            hk_bound_check(lam, 8),
            kernel_bound_check(lambda k: math.exp(-float(k)), lam, 6, KERNEL_GRID))]

    alone = reports()
    assert not spectral._spectra
    deep = HeatKernelTruncation(lam, 20)
    assert reports() == alone
    assert spectral._spectra[4, 1] is deep._spectrum
    assert deep._spectrum.degree == 20 and deep._spectrum._store is not None


def test_checks_beside_a_deeper_truncation_solve_nothing(trunc4, monkeypatch):
    assert spectral._spectra[4, 1] is trunc4._spectrum
    calls = []
    original = eigen.solve_eigenpoly

    def counted(p, q, lam):
        calls.append((p, q))
        return original(p, q, lam)

    monkeypatch.setattr(eigen, "solve_eigenpoly", counted)
    lam = Lambda(4)
    assert len(HeatKernelTruncation(lam, 30)) == 496
    supnorm_bound_check(lam, 30, grid_m=10)
    hk_bound_check(lam, 20, grid_m=10)
    kernel_bound_check([1.0, 0.5], lam, 12, KERNEL_GRID)
    assert calls == []
    HeatKernelTruncation(Lambda(Rat(13, 5)), 2)
    assert len(calls) == 4  # (p, q), p >= q, p + q <= 2


def test_spectrum_lives_only_while_a_truncation_holds_it():
    key = (13, 4)
    assert key not in spectral._spectra
    shallow = HeatKernelTruncation(Lambda(Rat(13, 4)), 3)
    deep = HeatKernelTruncation(Lambda(Rat(13, 4)), 6)
    assert spectral._spectra[key] is shallow._spectrum is deep._spectrum
    deep.mode_values(0.1j)
    shallow.mode_values(0.1j)
    del deep
    assert spectral._spectra[key].degree == 6
    del shallow
    assert key not in spectral._spectra


def test_growing_the_spectrum_keeps_a_truncation_bits(monkeypatch):
    monkeypatch.setattr(spectral, "_spectra", weakref.WeakValueDictionary())
    zs = np.array(KERNEL_GRID)
    small = HeatKernelTruncation(Lambda(4), 10)
    modes = small.modes
    vals = small.mode_values(zs)
    big = HeatKernelTruncation(Lambda(4), 20)
    assert big._spectrum is small._spectrum and small._spectrum.degree == 20
    assert small.modes is modes and big.modes[:len(small)] == modes
    assert all(a is b for a, b in zip(big.modes, modes))
    # the old truncation, and a new one cut from the grown spectrum's store
    again = HeatKernelTruncation(Lambda(4), 10)
    assert again._store is not small._store
    for trunc in (small, again):
        got = trunc.mode_values(zs)
        assert got.tobytes() == vals.tobytes()
        assert trunc._mass.tobytes() == small._mass.tobytes()
        assert trunc._cond.tobytes() == small._cond.tobytes()


@pytest.mark.parametrize("m", [20, 80])
def test_lattice_is_the_point_map(m):
    zs = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            x = (i * V0[0] + j * V1[0] + k * V2[0]) / m
            y = (i * V0[1] + j * V1[1] + k * V2[1]) / m
            zs.append(triangle_to_deltoid(TrianglePoint(x, y)).Z)
    assert _lattice(m).tobytes() == np.array(zs, dtype=complex).tobytes()


def test_supnorm_anchors_for_z_itself():
    lam = Lambda(4)
    trunc = HeatKernelTruncation(lam, 3)
    z_mode = next(ep for ep in trunc.modes if (ep.p, ep.q) == (1, 0))
    assert z_mode.norm2 == Rat(1, 9)  # 1/(2 lam + 1)
    vals = np.abs([z_mode.poly.eval(c) for c in CUSPS])
    assert np.max(vals) == pytest.approx(1.0, abs=1e-12)


def test_hk_combination_growth_lam4():
    rep = hk_bound_check(Lambda(4), 20, seed=0)
    assert rep.exponent <= 4.6
    assert rep.target == 4.5
    assert rep.constant < 10.0
    # degree 20 is far from the rounding floor
    assert 0.0 < rep.details["noise_fraction"] < 1e-6
    again = hk_bound_check(Lambda(4), 20, seed=0)
    assert again.exponent == rep.exponent


def test_sobolev_series_stability():
    rep = sobolev_series_check(4.5, 0.75)
    assert 1.0 <= rep.residual < 2.0
    assert rep.exponent == 5.0
    # small-t plateau is the Gaussian integral constant
    limit = math.gamma(5.0) / (2.0 * 1.5**5)
    assert abs(rep.constant - limit) < 5e-3 * limit
    # the naive half-exponent normalization is not flat at all; keeping
    # it visible in details is the record of that discrepancy
    naive = rep.details["operator_exponent_normalized"]
    assert max(naive) / min(naive) > 1e6


def test_sobolev_series_scopes_its_precision(monkeypatch):
    import mpmath as mp

    before = mp.mp.dps
    seen = []

    def failing_sum(mp_, p, a, t):
        seen.append(mp_.mp.dps)
        raise ArithmeticError("series summation did not settle")

    monkeypatch.setattr(spectral, "_sobolev_sum", failing_sum)
    with pytest.raises(ArithmeticError):
        sobolev_series_check(4.5, 0.75, dps=45)
    assert seen == [45]
    assert mp.mp.dps == before


def test_sobolev_series_reference_and_monotonicity():
    rep = sobolev_series_check(4.5, 0.75)
    ref = sobolev_reference_value(4.5, 0.75, 1.0)
    mp_at_1 = rep.details["normalized"][0]  # t_grid starts at 1.0
    assert abs(ref - mp_at_1) < 1e-12 * mp_at_1
    doubled = sobolev_series_check(4.5, 1.5)
    assert doubled.constant < rep.constant
    with pytest.raises(ValueError):
        sobolev_series_check(4.5, 0.0)


KERNEL_GRID = [0j, -1 / 3 + 0j, 0.2 + 0.1j, 0.1 - 0.3j] + CUSPS


def test_kernel_bound_decaying_multiplier():
    rep = kernel_bound_check(
        lambda k: math.exp(-float(k)), Lambda(4), 12, KERNEL_GRID
    )
    assert rep.sup_abs <= rep.series_value
    assert rep.ratio < 1.0
    assert rep.diag_sup <= rep.sup_abs + 1e-9


def test_kernel_single_level_projector():
    # nu = delta_{k,1}: the squared kernel is the H_1 projector kernel,
    # whose diagonal at a cusp is 2(2 lam + 1) = 18, far above the
    # series value A = 1; the check reports the comparison rather than
    # forcing an inequality that a projector kernel does not satisfy
    rep = kernel_bound_check([1.0], Lambda(4), 12, KERNEL_GRID)
    assert rep.series_value == 1.0
    assert rep.sup_abs == pytest.approx(18.0, abs=1e-9)
    as_callable = kernel_bound_check(
        lambda k: 1.0 if k == 1 else 0.0, Lambda(4), 12, KERNEL_GRID
    )
    assert as_callable.sup_abs == pytest.approx(rep.sup_abs, abs=1e-12)


def test_kernel_zero_multiplier():
    rep = kernel_bound_check(lambda k: 0.0, Lambda(4), 8, KERNEL_GRID)
    assert rep.sup_abs == 0.0
    assert rep.series_value == 0.0
    assert rep.ratio == 0.0
    assert isinstance(rep, KernelReport)


def test_fit_report_frozen(trunc1):
    rep = ultracontractivity_fit(Lambda(1), (0.5, 1.0), trunc1)
    assert isinstance(rep, FitReport)
    with pytest.raises(AttributeError):
        rep.exponent = 0.0
