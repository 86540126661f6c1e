import dataclasses
import random

import pytest

from deltoid import eigen
from deltoid.exact import BivarPoly, Rat, Z, ZBAR
from deltoid.eigen import (
    EigenvalueCountMismatch,
    MomentRangeExceeded,
    MomentTable,
    NonpositiveNorm,
    eigenvalue,
    hk_space,
    inner_product,
    moments,
    solve_eigenpoly,
)
from deltoid.operator import Lambda, generator

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


def test_moment_range_guard():
    t = MomentTable(Lambda(4), 4)
    with pytest.raises(MomentRangeExceeded):
        t.get(5, 2)
    t.extend_to(8)
    assert t.get(5, 1) == Rat(0)
    assert t.get(5, 2) == Rat(11, 2187)


def test_inner_product_basics():
    lam = Lambda(4)
    t = moments(lam, 8)
    assert inner_product(ONE, ONE, t) == Rat(1)
    assert inner_product(Z, Z, t) == Rat(1, 9)
    # mean-zero eigenpolynomials
    for p, q in ((1, 0), (1, 1), (2, 0), (2, 2)):
        ep = solve_eigenpoly(p, q, lam)
        assert inner_product(ep.poly, ONE, t) == Rat(0)


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
    # with every moment's sign flipped each squared norm comes out negative
    table = MomentTable(Lambda(4), 4)

    class Flipped:
        def integers(self):
            num, den = table.integers()
            return {k: -v for k, v in num.items()}, den

    monkeypatch.setattr(eigen, "_cached_table", lambda lam, degree: Flipped())
    with pytest.raises(NonpositiveNorm):
        solve_eigenpoly(1, 1, Lambda(4))


def test_eigenvalue_count_is_a_typed_error(monkeypatch):
    # H_2 needs two distinct eigenvalues; a solver that reports one for
    # every mode must be rejected, also under python -O
    solve = eigen.solve_eigenpoly
    monkeypatch.setattr(eigen, "solve_eigenpoly",
                        lambda p, q, lam: dataclasses.replace(solve(p, q, lam), mu=Rat(1)))
    with pytest.raises(EigenvalueCountMismatch):
        hk_space(2, Lambda(4))
