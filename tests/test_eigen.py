import math
import random
import weakref
from fractions import Fraction

import pytest

from deltoid import eigen, spectral
from deltoid.exact import BivarPoly, Rat, Z, ZBAR
from deltoid.spectral import HeatKernelTruncation
from deltoid.eigen import (
    MomentRangeExceeded,
    MomentTable,
    NonpositiveNorm,
    RecurrenceBreakdown,
    eigenvalue,
    inner_product,
    moments,
    pairings,
    solve_eigenpoly,
)
from deltoid.operator import Lambda, generator
from oracles import EigenvalueCountMismatch, fraction_moments, hk_space, replaced

ONE = BivarPoly.const(Rat(1))


def test_eigenvalue_values():
    lam = Lambda(4)
    assert eigenvalue(0, 0, lam) == Rat(0)
    assert eigenvalue(1, 0, lam) == Rat(4)
    assert eigenvalue(1, 1, lam) == Rat(9)
    assert eigenvalue(2, 0, lam) == Rat(10)
    lam2 = Lambda("7/2")
    assert eigenvalue(1, 1, lam2) == Rat(8)
    # symmetric in (p, q)
    for p in range(5):
        for q in range(5):
            assert eigenvalue(p, q, lam) == eigenvalue(q, p, lam)


def test_closed_forms_small():
    lam = Lambda(4)
    p11 = solve_eigenpoly(1, 1, lam)
    assert p11.poly == Z * ZBAR - BivarPoly.const(Rat(1, 9))
    p20 = solve_eigenpoly(2, 0, lam)
    assert p20.poly == Z * Z - ZBAR.scale(Rat(1, 3))
    p10 = solve_eigenpoly(1, 0, lam)
    assert p10.poly == Z
    # generic lambda closed forms
    for lv in (Rat(1), Rat(7, 2), Rat(2, 3)):
        lam = Lambda(lv)
        got = solve_eigenpoly(1, 1, lam).poly
        assert got == Z * ZBAR - BivarPoly.const(Rat(1) / (2 * lv + 1))
        got2 = solve_eigenpoly(2, 0, lam).poly
        assert got2 == Z * Z - ZBAR.scale(Rat(2) / (lv + 2))


def test_p30_at_lambda4():
    lam = Lambda(4)
    p30 = solve_eigenpoly(3, 0, lam).poly
    want = Z ** 3 - (Z * ZBAR).scale(Rat(2, 3)) + BivarPoly.const(Rat(1, 27))
    assert p30 == want


def test_eigen_relation_exact():
    # L P + mu P = 0, an exact polynomial identity
    for lv in (Rat(4), Rat(1), Rat(7, 2), Rat(1, 2)):
        lam = Lambda(lv)
        for p in range(5):
            for q in range(5 - p):
                ep = solve_eigenpoly(p, q, lam)
                res = generator(ep.poly, lam) + ep.poly.scale(ep.mu)
                assert res.is_zero(), (lv, p, q)


def test_monic_and_conj_swap():
    lam = Lambda(4)
    for p in range(4):
        for q in range(4):
            ep = solve_eigenpoly(p, q, lam)
            assert ep.poly.coeff(p, q).re == Rat(1)
            assert ep.poly.coeff(p, q).im == Rat(0)
            assert ep.poly.conj_swap() == solve_eigenpoly(q, p, lam).poly


def test_moment_values_lambda4():
    lam = Lambda(4)
    t = moments(lam, 8)
    assert t.get(0, 0) == Rat(1)
    assert t.get(1, 1) == Rat(1, 9)
    assert t.get(1, 0) == Rat(0)
    assert t.get(2, 0) == Rat(0)
    assert t.get(2, 1) == Rat(0)
    assert t.get(3, 0) == Rat(1, 27)
    assert t.get(2, 2) == Rat(2, 81)
    assert t.get(4, 1) == Rat(1, 81)
    assert t.get(6, 0) == Rat(5, 729)
    assert t.get(3, 3) == Rat(2, 243)


def test_moment_generic_lambda():
    for lv in (Rat(1), Rat(7, 2), Rat(5)):
        t = moments(Lambda(lv), 4)
        assert t.get(1, 1) == Rat(1) / (2 * lv + 1)
        # swap symmetry and mod-3 selection rule
        for i in range(5):
            for j in range(5 - i):
                assert t.get(i, j) == t.get(j, i)
                if (i - j) % 3 != 0:
                    assert t.get(i, j) == Rat(0)


@pytest.mark.parametrize("lv", [Rat(4), Rat(1), Rat(7, 2), Rat(1, 2), Rat(9, 5), Rat(100)])
def test_moments_equal_the_fraction_recursion(lv):
    # the integer recursion stores the same rationals, and so the same
    # one-den integer table, as the recursion run in Fractions
    want = fraction_moments(Fraction(lv.numerator, lv.denominator), 24)
    t = moments(Lambda(lv), 24)
    assert dict(t.items()) == want
    num, den = t.integers()
    assert den == math.lcm(*(m.denominator for m in want.values()))
    assert {(k // 25, k % 25): Fraction(n, den) for k, n in enumerate(num) if n} == want


@pytest.mark.parametrize("lv", [Rat(4), Rat(1, 2), Rat(9, 5)])
def test_moments_grown_in_steps_equal_a_fresh_table(lv):
    # extend_to keeps a table that reaches the degree and builds a deeper
    # one otherwise; no table changes once built
    t = MomentTable(Lambda(lv), 0)
    for degree in (1, 2, 5, 6, 13, 20, 20, 24):
        shallow = t
        t = t.extend_to(degree)
        assert t.max_degree == degree and (t is shallow) == (shallow.max_degree == degree)
        assert t.extend_to(degree - 1) is t
    assert shallow.max_degree == 20 and len(shallow.integers()[0]) == 21 * 21
    fresh = moments(Lambda(lv), 24)
    assert list(t.items()) == list(fresh.items())
    assert t.integers() == fresh.integers()


def test_moment_range_guard():
    t = MomentTable(Lambda(4), 4)
    with pytest.raises(MomentRangeExceeded):
        t.get(5, 2)
    deeper = t.extend_to(8)
    assert deeper.get(5, 1) == Rat(0)
    assert deeper.get(5, 2) == Rat(11, 2187)
    with pytest.raises(MomentRangeExceeded):
        t.get(5, 2)


@pytest.mark.parametrize("build", [lambda: moments(4, -1), lambda: MomentTable(Lambda(4), -2)])
def test_negative_moment_degree_is_refused(build):
    # a negative degree is a typed refusal, not an empty table
    with pytest.raises(ValueError, match="need max_degree >= 0"):
        build()


@pytest.mark.parametrize("p, q", [(-1, 2), (2, -1), (-1, -1)])
def test_negative_mode_index_is_refused(p, q):
    # the same refusal as eigenvalue's, not an IndexError from the solve
    with pytest.raises(ValueError, match=r"need p, q >= 0"):
        solve_eigenpoly(p, q, Lambda(4))


def test_inner_product_basics():
    lam = Lambda(4)
    t = moments(lam, 8)
    assert inner_product(ONE, ONE, t) == Rat(1)
    assert inner_product(Z, Z, t) == Rat(1, 9)
    # mean-zero eigenpolynomials
    for p, q in ((1, 0), (1, 1), (2, 0), (2, 2)):
        ep = solve_eigenpoly(p, q, lam)
        assert inner_product(ep.poly, ONE, t) == Rat(0)


def test_pairings_refuse_degrees_beyond_the_table():
    # deg f + deg g may reach the table's degree and not pass it: one g,
    # or any one of several, beyond it is MomentRangeExceeded, not a
    # moment read as zero
    t = moments(Lambda(4), 4)
    assert inner_product(Z * Z, Z * Z, t) == t.get(2, 2)
    with pytest.raises(MomentRangeExceeded):
        inner_product(Z * Z * Z, ZBAR * ZBAR, t)
    with pytest.raises(MomentRangeExceeded):
        pairings(Z, [ONE, Z * Z * Z, Z * Z * ZBAR * ZBAR], t)
    (re0, im0, _), (re, im, den) = pairings(Z, [ONE, Z * Z * Z], t)
    assert re0 == im0 == im == 0 and Rat(re, den) == t.get(1, 3)


def test_norm_matches_full_inner_product():
    # the stored norm uses the leading-monomial shortcut; cross-check it
    for lv in (Rat(4), Rat(7, 2), Rat(1)):
        lam = Lambda(lv)
        for p in range(4):
            for q in range(4 - p):
                ep = solve_eigenpoly(p, q, lam)
                t = moments(lam, 2 * (p + q))
                full = inner_product(ep.poly, ep.poly, t)
                assert full.im == Rat(0) if hasattr(full, "im") else True
                val = full.re if hasattr(full, "re") else full
                assert val == ep.norm2
                assert ep.norm2 > 0


def test_orthogonality_degree6():
    lam = Lambda(4)
    deg = 6
    t = moments(lam, 2 * deg)
    eps = {}
    for p in range(deg + 1):
        for q in range(deg + 1 - p):
            eps[(p, q)] = solve_eigenpoly(p, q, lam)
    keys = sorted(eps)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            f = eps[keys[a]]
            g = eps[keys[b]]
            ip = inner_product(f.poly, g.poly, t)
            assert ip.re == Rat(0) and ip.im == Rat(0), (keys[a], keys[b])


def test_integration_by_parts():
    # <f, Lg> = <Lf, g> against the moment functional
    lam = Lambda(4)
    rng = random.Random(42)
    t = moments(lam, 16)
    for _ in range(10):
        terms_f = {}
        terms_g = {}
        for _ in range(4):
            i = rng.randrange(4)
            j = rng.randrange(4 - i) if i < 3 else 0
            terms_f[(i, j)] = rng.randrange(1, 5)
            i2 = rng.randrange(4)
            j2 = rng.randrange(4 - i2) if i2 < 3 else 0
            terms_g[(i2, j2)] = rng.randrange(1, 5)
        f = BivarPoly({k: Rat(v) for k, v in terms_f.items()})
        g = BivarPoly({k: Rat(v) for k, v in terms_g.items()})
        lhs = inner_product(f, generator(g, lam), t)
        rhs = inner_product(generator(f, lam), g, t)
        assert lhs.re == rhs.re and lhs.im == rhs.im


def test_hk_space_small():
    lam = Lambda(4)
    h1 = hk_space(1, lam)
    assert h1.r_k == 1
    assert len(h1.basis) == 2
    assert {e.mu for e in h1.basis} == {Rat(4)}
    h2 = hk_space(2, lam)
    assert h2.r_k == 2
    assert len(h2.basis) == 3
    assert sorted(int(e.mu) for e in h2.basis) == [9, 10, 10]
    h0 = hk_space(0, lam)
    assert h0.r_k == 1
    assert h0.basis[0].mu == Rat(0)


def test_hk_real_forms():
    lam = Lambda(4)
    for k in (2, 3, 4):
        hk = hk_space(k, lam)
        # one symmetric combination per unordered pair, one antisymmetric per p > q
        assert len(hk.sym) == k // 2 + 1
        assert len(hk.antisym) == (k + 1) // 2
        assert len(hk.sym) + len(hk.antisym) == len(hk.basis)
        for s in hk.sym:
            assert s.conj_swap() == s  # real-valued on the curve
        for a in hk.antisym:
            assert a.conj_swap() == a
        # real and imaginary parts recombine to the complex eigenpolynomials
        by_pq = {(e.p, e.q): e.poly for e in hk.basis}
        si = 0
        ai = 0
        for p in range(k, (k - 1) // 2, -1):
            q = k - p
            s = hk.sym[si]
            si += 1
            if p > q:
                a = hk.antisym[ai]
                ai += 1
                import cmath
                zpt = 0.31 + 0.17j
                pv = by_pq[(p, q)].eval(zpt)
                sv = s.eval(zpt)
                av = a.eval(zpt)
                assert abs(sv.imag) < 1e-13 and abs(av.imag) < 1e-13
                assert abs(pv - (sv + 1j * av)) < 1e-12


def test_mu_bracket():
    # lam >= 1: all eigenvalues in degree k sit inside [3k^2/4, lam k^2]
    for lv in (Rat(1), Rat(4), Rat(9, 4)):
        lam = Lambda(lv)
        for k in range(1, 13):
            for e in hk_space(k, lam).basis:
                assert e.mu >= Rat(3 * k * k, 4)
                assert e.mu <= lv * k * k


def test_r_k_count():
    lam = Lambda("7/3")
    for k in range(0, 14):
        assert hk_space(k, lam).r_k == k // 2 + 1


@pytest.mark.parametrize("lam", [Rat(4), Rat(1), Rat(7, 2), Rat(9, 5)])
def test_mirrored_solves_equal_direct_solves(lam):
    # hk_space and the truncation solve p >= q and mirror the rest; each
    # mirror must equal a direct solve down to the order of its terms
    lam = Lambda(lam)
    trunc = HeatKernelTruncation(lam, 14)
    spaces = [ep for k in range(15) for ep in hk_space(k, lam).basis]
    assert [(e.p, e.q) for e in spaces] == [(e.p, e.q) for e in trunc.modes]
    for got in (spaces, trunc.modes):
        for ep in got:
            direct = solve_eigenpoly(ep.p, ep.q, lam)
            assert ep.poly == direct.poly
            assert list(ep.poly.num.items()) == list(direct.poly.num.items())
            assert ep.poly.den == direct.poly.den
            assert ep.mu == direct.mu and ep.norm2 == direct.norm2


def test_collision_guard_never_fires():
    # recurrence moves strictly decrease mu, so the solve cannot collide;
    # sweep awkward rationals to document that
    for lv in (Rat(1, 3), Rat(2, 5), Rat(1), Rat(4), Rat(11, 7)):
        lam = Lambda(lv)
        for p in range(6):
            for q in range(6 - p):
                solve_eigenpoly(p, q, lam)  # must not raise


def test_equal_mu_pair_still_orthogonal():
    # (3,0) and (0,3) share an eigenvalue at every lambda; orthogonality
    # holds anyway because their monomials never meet the same moments
    lam = Lambda(4)
    assert eigenvalue(3, 0, lam) == eigenvalue(0, 3, lam)
    t = moments(lam, 12)
    a = solve_eigenpoly(3, 0, lam)
    b = solve_eigenpoly(0, 3, lam)
    ip = inner_product(a.poly, b.poly, t)
    assert ip.re == Rat(0) and ip.im == Rat(0)


def test_nonpositive_norm_is_a_typed_error(monkeypatch):
    # a norm helper that returns a negative squared norm must be rejected
    monkeypatch.setattr(eigen, "_closed_norm2", lambda p, q, g1, g2: Rat(-1, 9))
    with pytest.raises(NonpositiveNorm):
        solve_eigenpoly(1, 1, Lambda(4))
    with pytest.raises(NonpositiveNorm):
        eigen._pieri_modes(Lambda(4), 2)


def test_eigenvalue_count_is_a_typed_error(monkeypatch):
    # H_2 needs two distinct eigenvalues; a solver that reports one for
    # every mode must be rejected, also under python -O
    solve = eigen.solve_eigenpoly
    monkeypatch.setattr(eigen, "solve_eigenpoly",
                        lambda p, q, lam: replaced(solve(p, q, lam), mu=Rat(1)))
    with pytest.raises(EigenvalueCountMismatch):
        hk_space(2, Lambda(4))


@pytest.fixture
def builds(monkeypatch):
    """The degrees of the spectrum builds truncations run, in order."""
    seen = []
    original = spectral._pieri_modes

    def counted(lam, degree):
        seen.append(degree)
        return original(lam, degree)

    monkeypatch.setattr(spectral, "_pieri_modes", counted)
    return seen


def test_solver_and_truncation_build_no_moment_table(monkeypatch, builds):
    # norms come from the closed formula: neither a solve nor a fresh
    # truncation tabulates moments
    def refuse(self, lam, max_degree):
        raise AssertionError("a moment table was built")

    monkeypatch.setattr(MomentTable, "__init__", refuse)
    lam = Lambda(Rat(11, 3))
    trunc = HeatKernelTruncation(lam, 20)
    assert len(trunc) == 231 and builds == [20]
    ep = solve_eigenpoly(7, 4, lam)
    assert ep.norm2 == trunc.modes[66 + 4].norm2 > 0  # degree 11, p = 7



def _exact(modes):
    return [(e.p, e.q, e.mu, e.norm2, e.poly.den, list(e.poly.num.items())) for e in modes]


@pytest.mark.parametrize("lv, degree", [
    (Rat(4), 40), (Rat(1), 25), (Rat(7, 2), 30), (Rat(1, 2), 20), (Rat(9, 5), 24),
    (Rat(11, 3), 20), (Rat(2), 24), (Rat(1, 3), 16), (Rat(1, 10), 14), (Rat(100), 14)])
def test_pieri_builder_equals_solver(lv, degree):
    # every mode, mirrors included, down to the order of its terms
    lam = Lambda(lv)
    built = eigen._pieri_modes(lam, degree)
    order = [(p, d - p) for d in range(degree + 1) for p in range(d, -1, -1)]
    assert _exact(built) == _exact(solve_eigenpoly(p, q, lam) for p, q in order)
    # the coefficient sum is the closed P(1), which neither side reads
    assert all(Rat(sum(re for re, _ in e.poly.num.values()), e.poly.den)
               == eigen.value_at_one(e.p, e.q, lam) for e in built)


@pytest.mark.parametrize("lv, degree", [
    (Rat(4), 40), (Rat(1), 30), (Rat(7, 2), 25), (Rat(9, 5), 30), (Rat(1, 2), 24),
    (Rat(1, 3), 20), (Rat(100), 16)])
def test_cusp_table_is_the_built_modes(lv, degree):
    # mu and P(1)^2 / ||P||^2 of each built mode, with P(1) its coefficient
    # sum, each one rational rounded once
    lam = Lambda(lv)
    built = eigen._pieri_modes(lam, degree)
    mu, weights = eigen.cusp_table(lam, degree)
    assert mu == [float(e.mu) for e in built]
    assert weights == [float(Rat(sum(re for re, _ in e.poly.num.values()) ** 2,
                                 e.poly.den ** 2) / e.norm2) for e in built]


def _recurrence_residual(p, q, lam, a):
    # Z P_{p,q} - P_{p+1,q} - a P_{p-1,q+1} - b(p,q) P_{p,q-1}, from solves
    def poly(i, j):
        return solve_eigenpoly(i, j, lam).poly

    rest = Z * poly(p, q) - poly(p + 1, q) - poly(p - 1, q + 1).scale(a)
    if q:
        b = solve_eigenpoly(p, q, lam).norm2 / solve_eigenpoly(p, q - 1, lam).norm2
        rest = rest - poly(p, q - 1).scale(b)
    return rest


@pytest.mark.parametrize("lv", [Rat(1, 10), Rat(1, 3), Rat(1, 2), Rat(1), Rat(9, 5),
                                Rat(4), Rat(100)])
def test_pieri_a_is_the_recurrence_coefficient(lv):
    lam = Lambda(lv)
    for p in range(1, 6):
        a = eigen._pieri_a(p, lv)
        num = 4 * p * (3 * p + 2 * lv - 5)
        den = (2 * lv + 6 * p - 8) * (2 * lv + 6 * p - 2)
        if p > 1:
            assert a == num / den
        elif lv != 1:
            # 2 lam - 2 divides both sides (0/0 at lam = 1, tested below);
            # below lam = 1 both sides are negative and a stays positive
            assert a == num / den == 2 / (lv + 2)
            assert (num < 0 and den < 0) == (lv < 1)
        for q in range(4):
            assert _recurrence_residual(p, q, lam, a).is_zero(), (p, q)


def test_pieri_a_limit_at_lambda_one():
    assert eigen._pieri_a(1, Rat(1)) == Rat(2, 3)
    assert _recurrence_residual(1, 0, Lambda(1), Rat(2, 3)).is_zero()
    assert not _recurrence_residual(1, 0, Lambda(1), Rat(1, 2)).is_zero()


def test_pieri_a_zero_denominator_is_a_typed_error():
    # not reachable for lam > 0; lam = -2 zeroes 2 lam + 6p - 8 at p = 2
    with pytest.raises(RecurrenceBreakdown):
        eigen._pieri_a(2, Rat(-2))


@pytest.mark.parametrize("lv, degree", [(Rat(4), 24), (Rat(1, 2), 16), (Rat(9, 5), 20)])
def test_built_modes_share_keys_and_mirror_values(lv, degree):
    # one key tuple per monomial across the whole build, and a mirror
    # P_{q,p} holds its partner's value tuples (and so their ints), its
    # den, mu and norm2, under the swapped keys
    built = eigen._pieri_modes(Lambda(lv), degree)
    keys = {}
    for e in built:
        for k in e.poly.num:
            assert keys.setdefault(k, k) is k
    modes = {(e.p, e.q): e for e in built}
    for (p, q), e in modes.items():
        if p > q:
            m = modes[q, p]
            assert m.poly.den is e.poly.den and m.mu is e.mu and m.norm2 is e.norm2
            assert len(m.poly.num) == len(e.poly.num)
            assert all(m.poly.num[j, i] is x for (i, j), x in e.poly.num.items())


def test_growing_in_steps_equals_a_fresh_build(builds):
    # each truncation deeper than the live ones builds afresh, and one no
    # deeper takes the first modes of a live one: all are a fresh build's
    lam = Lambda(Rat(7, 2))
    fresh = _exact(eigen._pieri_modes(lam, 40))
    held = [HeatKernelTruncation(lam, degree) for degree in (1, 20, 40, 10)]
    assert builds == [1, 20, 40]
    for trunc in held:
        assert _exact(trunc.modes) == fresh[:len(trunc)]


def test_trimmed_spectrum_regrows_to_a_fresh_build(builds):
    # once the deepest truncation is freed, a deeper one builds again
    lam = Lambda(Rat(17, 6))
    shallow = HeatKernelTruncation(lam, 20)
    deep = HeatKernelTruncation(lam, 40)
    del deep
    again = HeatKernelTruncation(lam, 40)
    assert builds == [20, 40, 40]
    assert _exact(again.modes) == _exact(eigen._pieri_modes(lam, 40))
    assert _exact(again.modes[:len(shallow)]) == _exact(shallow.modes)


def test_freed_deeper_truncation_leaves_the_live_ones_shared(monkeypatch, builds):
    # with (4, 40) alive, building and freeing (4, 45) leaves (4, 40) to
    # share: a later (4, 20) takes its first modes and builds nothing
    monkeypatch.setattr(spectral, "_live", weakref.WeakSet())
    lam = Lambda(4)
    held = HeatKernelTruncation(lam, 40)
    deeper = HeatKernelTruncation(lam, 45)
    del deeper
    prefix = HeatKernelTruncation(lam, 20)
    assert builds == [40, 45]
    assert all(a is b for a, b in zip(prefix.modes, held.modes))


def test_fresh_truncation_solves_nothing(monkeypatch, builds):
    def refuse(p, q, lam):
        raise AssertionError("a truncation called the single-mode solver")

    monkeypatch.setattr(eigen, "solve_eigenpoly", refuse)
    assert len(HeatKernelTruncation(Lambda(Rat(19, 7)), 12)) == 91
    assert builds == [12]
