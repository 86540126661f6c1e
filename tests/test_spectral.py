import math
import weakref

import numpy as np
import pytest

from deltoid import eigen, spectral
from deltoid.eigen import (EigenPolynomial, MomentRangeExceeded, cusp_table, eigenvalue,
                           inner_product, moments)
from deltoid.exact import BivarPoly, CRat, Rat
from deltoid.geometry import V0, V1, V2, DeltoidPoint, TrianglePoint, triangle_to_deltoid
from deltoid.operator import Lambda
from deltoid.spectral import (
    GROWTH_SLACK,
    SOBOLEV_RATIO_CAP,
    FitReport,
    HeatKernelTruncation,
    KernelReport,
    TruncationInsufficient,
    growth_cap,
    growth_passed,
    heat_cusp_sups,
    heat_diag,
    hk_bound_check,
    kernel_bound_check,
    sobolev_passed,
    sobolev_series_check,
    supnorm_bound_check,
    ultracontractivity_fit,
)
from oracles import closed_lattice, replaced, sobolev_reference_value, sobolev_term_sum

CUSPS = [complex(np.exp(2j * np.pi * k / 3)) for k in range(3)]


@pytest.fixture(scope="module")
def trunc4():
    return HeatKernelTruncation(Lambda(4), 40)


@pytest.fixture(scope="module")
def trunc1():
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


def test_integrates_to_delta_refuses_a_shallow_table(monkeypatch):
    # the means read the moments up to the truncation's degree; a table one
    # degree short is MomentRangeExceeded, not a zero mean
    trunc = HeatKernelTruncation(Lambda(4), 6)
    monkeypatch.setattr(spectral, "moments", lambda lam, degree: moments(lam, degree - 1))
    with pytest.raises(MomentRangeExceeded):
        trunc.integrates_to_delta()


def test_heat_diag_guards(trunc4):
    with pytest.raises(ValueError):
        heat_diag(0.1 + 0.1j, 0.0, trunc4)
    with pytest.raises(ValueError):
        heat_diag(1.2 + 0.0j, 0.1, trunc4)
    shallow = HeatKernelTruncation(Lambda(4), 5)
    with pytest.raises(TruncationInsufficient):
        heat_diag(0j, 0.02, shallow)


@pytest.mark.parametrize("x", [complex(1e200, 0), complex(0, -1e200), complex(1e80, 0),
                               2.5 + 0j])
def test_heat_diag_refuses_a_far_point(trunc4, x, monkeypatch):
    # a large finite point is refused as outside, not by an OverflowError
    # of the boundary polynomial's powers, and before any mode is evaluated
    def fail(self, zs):
        raise AssertionError("mode weights evaluated")

    monkeypatch.setattr(HeatKernelTruncation, "mode_weights", fail)
    with pytest.raises(ValueError, match="outside the closed domain"):
        heat_diag(x, 0.5, trunc4)


@pytest.mark.parametrize("x", [complex(math.nan, 0), complex(0, math.nan),
                               complex(math.inf, 0), complex(-math.inf, 1)])
def test_heat_diag_refuses_a_nonfinite_point(trunc4, x):
    # nan passes no membership test, and inf overflows the boundary
    # polynomial's powers: both are refused before anything is evaluated
    with pytest.raises(ValueError, match="x must be finite"):
        heat_diag(x, 0.5, trunc4)


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
    assert spectral._tail(trunc4.max_degree, 0.02) == pytest.approx(
        math.exp(-0.75 * 1600 * 0.02)
    )
    assert spectral._tail(40, 0.1) < spectral._tail(40, 0.05)


def test_ultracontractivity_slope_lam4(trunc4):
    rep = ultracontractivity_fit(Lambda(4), (0.02, 0.2), trunc4)
    assert -4.5 <= rep.exponent <= -3.5
    assert rep.target == -4.0
    assert rep.constant > 0


def test_ultracontractivity_slope_lam1(trunc1):
    rep = ultracontractivity_fit(Lambda(1), (0.02, 0.2), trunc1)
    assert -1.3 <= rep.exponent <= -0.8


def test_ultracontractivity_slope_lam1_at_degree_40():
    # the sups are exact cusp values, so a deep truncation fits the heat
    # dimension as well as a shallow one
    deep = HeatKernelTruncation(Lambda(1), 40)
    rep = ultracontractivity_fit(Lambda(1), (0.02, 0.2), deep)
    assert abs(rep.exponent + 1.0) < 1e-6


def test_heat_cusp_sups_are_the_diagonal_at_a_cusp():
    trunc = HeatKernelTruncation(Lambda(4), 20)
    for t, sup in heat_cusp_sups(Lambda(4), 20, [0.05, 0.2, 1.0]):
        for c in CUSPS:
            assert abs(sup - heat_diag(c, t, trunc)) <= 1e-9 * sup
    with pytest.raises(ValueError, match="stated for lam >= 1"):
        heat_cusp_sups(Lambda(Rat(1, 2)), 2, [0.1])
    with pytest.raises(ValueError, match="max_degree must be positive"):
        heat_cusp_sups(Lambda(4), 0, [0.1])


def test_ultracontractivity_flat_at_large_t(trunc4):
    # past the spectral gap (mu_1 = 4 here) the sup settles at the
    # stationary value 1 and the log-log slope goes flat
    rep = ultracontractivity_fit(Lambda(4), (2.0, 5.0), trunc4)
    assert abs(rep.exponent) < 0.05


def test_ultracontractivity_insufficient_truncation():
    # at lam = 1 the cusp weights are the orbit sizes, at most 6, so the
    # ten modes of degree <= 3 sum to far less than 100 times the tail
    # estimate exp(-0.135) at t = 0.02
    shallow = HeatKernelTruncation(Lambda(1), 3)
    with pytest.raises(TruncationInsufficient):
        ultracontractivity_fit(Lambda(1), (0.02, 0.2), shallow)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_heat_times_must_be_finite_and_positive(trunc4, t):
    # a negative t would sum exp(mu |t|), a NaN or infinite one NaN; both
    # functions refuse it with one check, heat_cusp_sups before any sum
    with pytest.raises(ValueError, match="t must be finite and positive"):
        heat_cusp_sups(Lambda(4), 10, [0.1, t])
    with pytest.raises(ValueError, match="t must be finite and positive"):
        heat_diag(0j, t, trunc4)


def test_ultracontractivity_rejects_a_truncation_of_another_lam(trunc1):
    # only the truncation's degree is read, so one of another lam would
    # fit that lam's weights against this lam's target
    with pytest.raises(ValueError, match="trunc is at lam = 1, not 4"):
        ultracontractivity_fit(Lambda(4), (0.02, 0.2), trunc1)


def test_cusp_sups_build_no_mode(monkeypatch, capsys):
    # the heat trace, the sup-norm check and the heat fits read the closed
    # cusp weights: a spectrum build would fail here
    from deltoid.acceptance import run_criterion
    from deltoid.cli import main

    def refuse(*args):
        raise AssertionError("a mode was built")

    monkeypatch.setattr(spectral, "_pieri_modes", refuse)
    assert main(["heat", "trace", "--lambda", "4"]) == 0
    assert main(["bounds", "supnorm", "--lambda", "4"]) == 0
    capsys.readouterr()
    rep = ultracontractivity_fit(Lambda(1), (0.02, 0.2))
    assert rep.details["max_degree"] == 40 and abs(rep.exponent + 1.0) < 1e-6
    assert run_criterion(10).passed


def test_growth_rule_is_inclusive_at_the_cap():
    rep = FitReport(window=(10, 30), exponent=2.0 + GROWTH_SLACK, residual=0.0,
                    target=2.0, details={})
    assert growth_cap(rep) == 2.0 + GROWTH_SLACK
    assert growth_passed(rep)
    above = FitReport(window=(10, 30), exponent=math.nextafter(growth_cap(rep), 3.0),
                      residual=0.0, target=2.0, details={})
    assert not growth_passed(above)


def test_sobolev_rule_is_strict_at_the_cap():
    below = FitReport(window=(1, 2), exponent=5.0,
                      residual=math.nextafter(SOBOLEV_RATIO_CAP, 0.0), details={})
    assert sobolev_passed(below)
    for residual in (SOBOLEV_RATIO_CAP, math.nan):
        assert not sobolev_passed(replaced(below, residual=residual))


def test_supnorm_growth_lam4():
    rep = supnorm_bound_check(Lambda(4), 30)
    assert rep.exponent <= 2.1
    assert 0.0 < rep.exponent
    assert rep.target == 2.0
    assert math.isfinite(rep.constant) and rep.constant > 0
    with pytest.raises(ValueError):
        supnorm_bound_check(Lambda(Rat(1, 2)), 10)


def test_cusp_weights_are_squared_weyl_dimensions():
    # at lam = 4 the modes are the SU(3) characters, and P(1) is the
    # dimension (p + 1)(q + 1)(p + q + 2)/2 of a unit-norm character
    mu, weights = cusp_table(Lambda(4), 30)
    order = [(p, d - p) for d in range(31) for p in range(d, -1, -1)]
    assert len(mu) == len(weights) == len(order) == 496
    for (p, q), m, w in zip(order, mu, weights):
        assert m == float(eigenvalue(p, q, Lambda(4)))
        assert w == ((p + 1) * (q + 1) * (p + q + 2) // 2) ** 2, (p, q)


def _mass(ep):
    """The coefficient mass of a mode, the sum of |coefficient|: |P| is at
    most that on the closed domain, and float rounding noise scales with it."""
    return sum(abs(c.real) + abs(c.imag) for _, _, c in ep.poly.complex_coeffs())


@pytest.mark.parametrize("lam", [Lambda(4), Lambda(Rat(7, 2)), Lambda(Rat(9, 5))])
def test_lattice_sup_sits_on_a_cusp(lam):
    # for lam >= 1 every mode peaks at the cusps, which are lattice
    # points, so the lattice maximum is the sup-norm: sqrt(w) ||P|| from
    # the exact cusp weight, up to the rounding of a float evaluation
    trunc = HeatKernelTruncation(lam, 20)
    zs = closed_lattice(40)
    cusps = {k for k, z in enumerate(zs) if min(abs(z - c) for c in CUSPS) < 1e-12}
    assert len(cusps) == 3
    mag = np.abs(trunc._store.values(zs))
    _, weights = cusp_table(lam, 20)
    for a, (ep, w) in enumerate(zip(trunc.modes, weights)):
        assert np.argmax(mag[a]) in cusps, (ep.p, ep.q)
        assert not any(ci for _, ci in ep.poly.num.values())
        exact = math.sqrt(w * float(ep.norm2))
        assert abs(mag[a].max() - exact) <= np.finfo(float).eps * _mass(ep)


def test_mode_table_matches_eval():
    # a store row is its mode's own eval, bit for bit: a row sums its own
    # terms in a fixed order, whatever its class table.  The mirror rows
    # (p < q) take their partner's terms swapped, and match their own
    # polynomials too
    trunc = HeatKernelTruncation(Lambda(4), 12)
    zs = np.array(KERNEL_GRID)
    vals = trunc._store.values(zs)
    for a, ep in enumerate(trunc.modes):
        assert vals[a].tobytes() == ep.poly.eval(zs).tobytes(), (ep.p, ep.q)


def test_mode_table_bytes_do_not_depend_on_a_point_position():
    # each point's powers and monomials are its own, and each row sums
    # them in a fixed order, so a point's values have the same bytes in
    # every slice of the array it sits in, whatever the slice's length
    trunc = HeatKernelTruncation(Lambda(4), 6)
    zs = closed_lattice(40)
    assert len(zs) == 861
    vals = trunc._store.values(zs)
    cuts = np.cumsum([0, 1, 3, 256, 257])
    parts = [zs[lo:hi] for lo, hi in zip(cuts, cuts[1:])] + [zs[cuts[-1]:]]
    assert [len(part) for part in parts] == [1, 3, 256, 257, 344]
    sliced = np.concatenate([trunc._store.values(part) for part in parts], axis=1)
    assert sliced.tobytes() == vals.tobytes()


def test_mode_table_row_slices():
    # a store of some whole degree levels has, per class, one table whose
    # columns are exactly its modes' monomials in ascending (i, j), and
    # its values are the truncation store's rows, bit for bit
    trunc = HeatKernelTruncation(Lambda(4), 9)
    rows = [a for a, ep in enumerate(trunc.modes) if ep.p + ep.q in (2, 4)]
    sub = spectral._ModeStore([trunc.modes[a] for a in rows])
    assert sub.size == len(rows)
    for r, (class_rows, table) in enumerate(sub._classes):
        modes = [trunc.modes[rows[a]] for a in class_rows]
        assert modes and all((ep.p - ep.q) % 3 == r for ep in modes)
        keys = sorted({key for ep in modes for key in ep.poly.num})
        assert list(zip(table.i.tolist(), table.j.tolist())) == keys
        assert table.re.shape == (len(modes), len(keys)) and table.im is None
    zs = np.array(KERNEL_GRID)
    assert sub.values(zs).tobytes() == trunc._store.values(zs)[rows].tobytes()


def test_mode_store_of_no_modes_or_an_empty_class():
    # a kernel of zero weights sums no mode: every entry is zero
    rep = kernel_bound_check(lambda k: 0.0, Lambda(4), 3, KERNEL_GRID)
    assert rep.sup_abs == rep.series_value == rep.diag_sup == 0.0 and rep.passed


def test_mode_table_rejects_complex_coefficients():
    trunc = HeatKernelTruncation(Lambda(4), 2)
    ep = trunc.modes[1]
    bad = EigenPolynomial(p=ep.p, q=ep.q, lam=ep.lam, mu=ep.mu, norm2=ep.norm2,
                          poly=ep.poly + BivarPoly.const(CRat(0, 1)))
    with pytest.raises(ValueError):
        spectral._ModeStore(trunc.modes[:1] + (bad,) + trunc.modes[2:])


def test_complex_coeffs_runs_once_per_solved_mode(monkeypatch):
    # the float store is built on first float use, from one complex_coeffs()
    # pass over the modes with p >= q; mirrors swap their partner's terms.
    # The sup-norm and H_k checks and the heat fit read exact cusp
    # weights and build no store.  Each truncation and check builds its
    # own store.  The boundary polynomial's table, which heat_diag's
    # membership test reads, is built once, on its first use: here, before
    # the count starts
    DeltoidPoint(0j).membership_residual()
    lam = Lambda(Rat(11, 3))
    seen = []
    original = BivarPoly.complex_coeffs

    def counted(poly):
        seen.append(id(poly))
        return original(poly)

    monkeypatch.setattr(BivarPoly, "complex_coeffs", counted)
    trunc = HeatKernelTruncation(lam, 10)
    assert trunc.integrates_to_delta() and seen == []
    ultracontractivity_fit(lam, (0.5, 1.0), trunc)
    supnorm_bound_check(lam, 8)
    hk_bound_check(lam, 8)
    assert seen == [] and "_store" not in vars(trunc)
    solved = {id(ep.poly) for ep in trunc.modes if ep.p >= ep.q}
    heat_diag(0.9 * CUSPS[0], 0.1, trunc)
    trunc.mode_weights(0.1j)
    assert sorted(seen) == sorted(solved)
    # beside trunc, the kernel check builds the store of its own truncation
    # at degree 8, one call per (p, q) with p >= q, the constant mode included
    seen.clear()
    kernel_bound_check([1.0, 0.5], lam, 8, KERNEL_GRID)
    assert len(seen) == len(set(seen)) == 25


def _bits(report):
    """Every field of a check report, floats by repr, which round-trips."""
    if isinstance(report, KernelReport):
        return repr(tuple(vars(report).values()))
    return repr((report.window, report.exponent, report.residual, report.constant,
                 report.target, sorted(report.details.items())))


@pytest.fixture
def live(monkeypatch):
    """An empty set of live truncations, for a test that needs to know
    which truncations it holds."""
    fresh = weakref.WeakSet()
    monkeypatch.setattr(spectral, "_live", fresh)
    return fresh


def test_live_truncation_leaves_check_reports_unchanged(live):
    # a check beside a deeper live truncation takes that truncation's first
    # modes; its report has the bits of a check that built its own
    lam = Lambda(4)

    def reports():
        return [_bits(r) for r in (
            supnorm_bound_check(lam, 12),
            hk_bound_check(lam, 8),
            kernel_bound_check(lambda k: math.exp(-float(k)), lam, 6, KERNEL_GRID))]

    alone = reports()
    assert not live
    deep = HeatKernelTruncation(lam, 20)
    assert reports() == alone
    assert set(live) == {deep}


def test_checks_beside_a_deeper_truncation_solve_nothing(trunc4, monkeypatch):
    # the builder forms each mode with p >= q once, with one closed norm;
    # a mirror P_{q,p} shares its partner's.  While trunc4 lives, every
    # truncation of lam = 4 no deeper than 40 takes its first modes
    calls = []
    original = eigen._closed_norm2

    def counted(p, q, g1, g2):
        calls.append((p, q))
        return original(p, q, g1, g2)

    monkeypatch.setattr(eigen, "_closed_norm2", counted)
    lam = Lambda(4)
    assert len(HeatKernelTruncation(lam, 30)) == 496
    supnorm_bound_check(lam, 30)
    hk_bound_check(lam, 20)
    kernel_bound_check([1.0, 0.5], lam, 12, KERNEL_GRID)
    assert calls == []
    eigen._pieri_modes(lam, 2)
    assert len(calls) == 4  # (p, q), p >= q, p + q <= 2


def test_spectrum_lives_only_while_a_truncation_holds_it(live):
    # the set keeps a truncation only while it lives; a shallower one
    # takes a deeper one's first modes and joins the set too
    deep = HeatKernelTruncation(Lambda(Rat(13, 4)), 6)
    shallow = HeatKernelTruncation(Lambda(Rat(13, 4)), 3)
    assert set(live) == {deep, shallow}
    assert shallow.modes == deep.modes[:10]
    assert all(a is b for a, b in zip(shallow.modes, deep.modes))
    del deep
    assert set(live) == {shallow}
    deeper = HeatKernelTruncation(Lambda(Rat(13, 4)), 4)
    assert set(live) == {shallow, deeper} and deeper.modes[:10] == shallow.modes


def test_truncation_builds_no_float_until_its_first_float_read(live):
    # construction is exact, built or shared: mu, 1/||P||^2 and the store
    # are made on the first float read, of that truncation only
    floats = {"_store", "_mu", "_inv_norm2"}
    deep = HeatKernelTruncation(Lambda(4), 12)
    shallow = HeatKernelTruncation(Lambda(4), 6)
    assert deep.integrates_to_delta()
    assert not floats & (set(vars(deep)) | set(vars(shallow)))
    heat_diag(0j, 1.0, shallow)
    assert floats <= set(vars(shallow)) and not floats & set(vars(deep))


def test_spectrum_trims_back_when_its_deepest_truncation_is_freed(trunc1):
    # the modes a deeper truncation built above trunc1's degree go with it,
    # while trunc1 lives on its own first modes
    deep = HeatKernelTruncation(Lambda(1), 40)
    assert len(trunc1) == 351 and deep.modes[:351] == trunc1.modes
    above = weakref.ref(deep.modes[351])
    assert (above().p, above().q) == (26, 0)
    deep.mode_values(0.1j)
    del deep
    assert above() is None
    assert len(trunc1.modes) == len(trunc1._mu) == len(trunc1._inv_norm2) == 351


def test_growing_the_spectrum_keeps_a_truncation_bits(live):
    # the deeper build leaves the older one's mode_values bytes alone, and
    # once the older one is freed, a truncation cut from the deeper one,
    # then the only donor, reads the bytes of a fresh build
    zs = np.array(KERNEL_GRID)
    small = HeatKernelTruncation(Lambda(4), 10)
    modes = small.modes
    vals = small.mode_values(zs)
    big = HeatKernelTruncation(Lambda(4), 20)
    assert set(live) == {small, big} and small.modes is modes
    assert small.mode_values(zs).tobytes() == vals.tobytes()
    mu, inv_norm2 = small._mu, small._inv_norm2
    del small
    again = HeatKernelTruncation(Lambda(4), 10)
    assert set(live) == {big, again}
    assert again.modes == modes and all(a is b for a, b in zip(again.modes, big.modes))
    assert np.array_equal(again._mu, mu)
    assert np.array_equal(again._inv_norm2, inv_norm2)
    assert again.mode_values(zs).tobytes() == vals.tobytes()


@pytest.mark.parametrize("m", [20, 80])
def test_lattice_is_the_point_map(m):
    zs = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            x = (i * V0[0] + j * V1[0] + k * V2[0]) / m
            y = (i * V0[1] + j * V1[1] + k * V2[1]) / m
            zs.append(triangle_to_deltoid(TrianglePoint(x, y)).Z)
    assert closed_lattice(m).tobytes() == np.array(zs, dtype=complex).tobytes()


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
    # the constant is the k = 1 sup sqrt(W_1), W_1 = 2(2 lam + 1), the
    # value of the H_1 projector kernel at a cusp
    assert rep.constant == math.sqrt(18)
    again = hk_bound_check(Lambda(4), 20, seed=0)
    assert again.exponent == rep.exponent


def test_hk_weights_at_lambda_one_are_six_k():
    # at lam = 1 level k holds two modes of cusp weight 3 and k - 1 of
    # weight 6, the Weyl orbit sizes, so W_k = 6k exactly
    rep = hk_bound_check(Lambda(1), 40)
    assert rep.details["W"] == tuple(6.0 * k for k in range(1, 41))


@pytest.mark.parametrize("lam", [Lambda(4), Lambda(Rat(7, 2)), Lambda(1)])
def test_hk_sup_is_the_lattice_kernel_diagonal(lam):
    # the float oracle: the sup over unit f in H_k is the sup of the
    # reproducing-kernel diagonal, the level's mode_weights summed.  On
    # the closed lattice it peaks on a cusp at sqrt(W_k); k stays <= 12,
    # where the float store is accurate at lam = 1
    trunc = HeatKernelTruncation(lam, 12)
    zs = closed_lattice(40)
    weights = trunc.mode_weights(zs)
    rep = hk_bound_check(lam, 12)
    for k, wk in zip(range(1, 13), rep.details["W"]):
        level = [a for a, ep in enumerate(trunc.modes) if ep.p + ep.q == k]
        diag = weights[level].sum(axis=0)
        top = int(np.argmax(diag))
        assert abs(abs(zs[top]) - 1.0) <= 1e-12, k
        assert abs(math.sqrt(diag[top]) - math.sqrt(wk)) <= 1e-9 * math.sqrt(wk), k


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


def test_sobolev_series_refuses_before_allocating(monkeypatch):
    # a tiny a t would need some 6e8 terms: the sum refuses before it
    # makes any array
    def no_array(*args, **kwargs):
        raise AssertionError("allocated the terms of a refused series")

    monkeypatch.setattr(spectral.np, "arange", no_array)
    with pytest.raises(ArithmeticError, match="did not settle"):
        sobolev_series_check(4.5, 1e-16)


# the float sum against the 30-digit one: each term's log, up to about
# 60 in size here, is rounded to a few ulp of itself
SOBOLEV_RTOL = 1e-13


@pytest.mark.parametrize("p, a", [(4.5, 0.75), (1.3, 0.4), (1, 1), (0.5, 2),
                                  (7, 0.1), (2.5, 0.75)])
def test_sobolev_float_sum_matches_term_sum(p, a):
    # the float sum in log space against one mp.power and one mp.exp per
    # term at 30 digits, over the dyadic grid of sobolev_series_check, at
    # integer and non-integer 2p
    import mpmath as mp

    rep = sobolev_series_check(p, a)
    ts = rep.details["t"]
    with mp.workdps(30):
        sums = [sobolev_term_sum(mp, p, a, t) for t in ts]
        for key, e in (("normalized", p + 0.5), ("operator_exponent_normalized", (p + 1) / 2)):
            want = [mp.power(t, e) * s for t, s in zip(ts, sums)]
            assert all(abs(g - w) <= SOBOLEV_RTOL * w for g, w in zip(rep.details[key], want))


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


def test_kernel_report_passes_at_equality():
    at = KernelReport(sup_abs=2.5, series_value=2.5, max_k=3, grid_size=4, diag_sup=2.5)
    assert at.passed
    above = replaced(at, sup_abs=math.nextafter(2.5, math.inf))
    assert not above.passed


def test_kernel_refuses_an_empty_grid():
    # a sup over no points is no check, though it would read 0 and pass
    with pytest.raises(ValueError, match="no points to check"):
        kernel_bound_check(lambda k: math.exp(-float(k)), Lambda(4), 3, [])


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
