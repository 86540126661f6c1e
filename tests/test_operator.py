import random

import pytest

from deltoid import eigen, operator
from deltoid.exact import BivarPoly, CRat, Rat, Z, ZBAR
from deltoid.operator import (
    G11,
    G12,
    G22,
    Lambda,
    boundary_poly,
    check_boundary_equation,
    gamma,
    gamma2,
    generator,
    hessian_logP_direct,
    hessian_logP_reduced,
    outer_logP,
)

ONE = BivarPoly.const(Rat(1))


def rand_poly(rng, deg=3, nterms=5, imag=False):
    terms = {}
    for _ in range(nterms):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        re = Rat(rng.randrange(-6, 7), rng.randrange(1, 5))
        im = Rat(rng.randrange(-6, 7), rng.randrange(1, 5)) if imag else Rat(0)
        terms[(i, j)] = CRat(re, im)
    return BivarPoly(terms)


def interior_points(n, seed=0):
    # rejection sample strictly inside the boundary curve
    rng = random.Random(seed)
    bnd = boundary_poly()
    pts = []
    while len(pts) < n:
        x = rng.uniform(-0.6, 1.05)
        y = rng.uniform(-0.9, 0.9)
        z = complex(x, y)
        if bnd.eval(z).real > 1e-3:
            pts.append(z)
    return pts


def test_gamma_generating_relations():
    assert gamma(Z, Z) == ZBAR - Z * Z
    assert gamma(ZBAR, ZBAR) == Z - ZBAR * ZBAR
    assert gamma(Z, ZBAR) == (ONE - Z * ZBAR).scale(Rat(1, 2))
    assert gamma(ONE, Z).is_zero()


def test_stencil_rebuilds_the_g_entries():
    # each row's weights, put back at the exponent of their chain-rule
    # slot, give the three G entries exactly: four shifts, zero first
    slots = ((-2, 0), (-1, -1), (0, -2))
    terms = [{}, {}, {}]
    for (di, dj), *weights in operator._STENCIL:
        for slot, w in enumerate(weights):
            if w:
                si, sj = slots[slot]
                terms[slot][(di - si, dj - sj)] = Rat(w, operator._G_DEN)
    assert [BivarPoly(t) for t in terms] == [G11, G12, G22]
    assert [row[0] for row in operator._STENCIL] == [(0, 0), (-2, 1), (-1, -1), (1, -2)]


def test_gamma_symmetric_bilinear():
    rng = random.Random(1)
    for _ in range(10):
        f = rand_poly(rng, imag=True)
        g = rand_poly(rng, imag=True)
        h = rand_poly(rng, imag=True)
        assert gamma(f, g) == gamma(g, f)
        assert gamma(f + h, g) == gamma(f, g) + gamma(h, g)


def test_gamma_leibniz():
    rng = random.Random(2)
    for _ in range(10):
        f = rand_poly(rng, imag=True)
        g = rand_poly(rng, imag=True)
        h = rand_poly(rng, imag=True)
        assert gamma(f * g, h) == f * gamma(g, h) + g * gamma(f, h)


def test_generator_examples():
    lam = Lambda(4)
    assert generator(Z, lam) == Z.scale(Rat(-4))
    assert generator(ZBAR, lam) == ZBAR.scale(Rat(-4))
    assert generator(ONE, lam).is_zero()
    # L(Z Zbar) = -(2 lam + 1) Z Zbar + 1
    got = generator(Z * ZBAR, lam)
    want = (Z * ZBAR).scale(Rat(-9)) + ONE
    assert got == want
    lam2 = Lambda("7/2")
    got2 = generator(Z * ZBAR, lam2)
    want2 = (Z * ZBAR).scale(Rat(-8)) + ONE
    assert got2 == want2


def test_generator_linear():
    rng = random.Random(3)
    lam = Lambda("5/3")
    for _ in range(8):
        f = rand_poly(rng, imag=True)
        g = rand_poly(rng, imag=True)
        assert generator(f + g, lam) == generator(f, lam) + generator(g, lam)


def test_diffusion_identity():
    # Gamma(f,g) = (L(fg) - f Lg - g Lf)/2 holds exactly
    rng = random.Random(4)
    lam = Lambda(4)
    for _ in range(10):
        f = rand_poly(rng, imag=True)
        g = rand_poly(rng, imag=True)
        lhs = gamma(f, g).scale(Rat(2))
        rhs = generator(f * g, lam) - f * generator(g, lam) - g * generator(f, lam)
        assert lhs == rhs


def test_generator_conj_swap_equivariant():
    rng = random.Random(5)
    lam = Lambda("9/4")
    for _ in range(8):
        f = rand_poly(rng, imag=True)
        assert generator(f, lam).conj_swap() == generator(f.conj_swap(), lam)
        g = rand_poly(rng, imag=True)
        assert gamma(f, g).conj_swap() == gamma(f.conj_swap(), g.conj_swap())


def test_lambda_validation():
    with pytest.raises(ValueError):
        Lambda(0)
    with pytest.raises(ValueError):
        Lambda("-1/2")


@pytest.mark.parametrize("call", [
    lambda: eigen.cusp_table(-1, 2),
    lambda: generator(Z, -3),
    lambda: eigen.value_at_one(2, 1, -1),
    lambda: gamma2(Z, Z, 0),
    lambda: eigen.eigenvalue(1, 1, 0),
], ids=["cusp_table", "generator", "value_at_one", "gamma2", "eigenvalue"])
def test_raw_lambda_must_be_positive(call):
    # a raw lambda is validated as Lambda validates it, not computed on
    with pytest.raises(ValueError, match="lambda must be > 0"):
        call()


def test_boundary_poly_closed_form():
    p = boundary_poly()
    want = (
        BivarPoly.const(Rat(1, 4))
        + (Z * ZBAR).scale(Rat(-3, 2))
        + (Z * Z * ZBAR * ZBAR).scale(Rat(-3, 4))
        + Z ** 3
        + ZBAR ** 3
    )
    assert p == want
    assert p == G12 * G12 - G11 * G22


def test_boundary_equation():
    ok, rz, rw = check_boundary_equation()
    assert ok
    assert rz.is_zero() and rw.is_zero()
    # sensitivity: the same residual with a perturbed polynomial is nonzero
    p = boundary_poly() + Z.scale(Rat(1, 1000))
    res = gamma(Z, p) + (Z * p).scale(Rat(3))
    assert not res.is_zero()


def test_boundary_vanishes_at_corners():
    import cmath
    p = boundary_poly()
    for k in range(3):
        c = cmath.exp(2j * cmath.pi * k / 3)
        assert abs(p.eval(c)) < 1e-13


def test_ellipticity_inside():
    for z in interior_points(60, seed=6):
        g11 = G11.eval(z)
        g22 = G22.eval(z)
        g12 = G12.eval(z)
        # hermitian frame: diag entries conjugate, off-diagonal real
        assert abs(g11 - g22.conjugate()) < 1e-13
        assert abs(g12.imag) < 1e-13
        assert g12.real > 0
        det = g12.real ** 2 - (g11 * g22).real
        assert det > 0


def test_hessian_direct_equals_reduced():
    hd = hessian_logP_direct()
    hr = hessian_logP_reduced()
    assert hd.r11 == hr.r11
    assert hd.r12 == hr.r12
    assert hd.r22 == hr.r22


def test_hessian_closed_forms():
    h = hessian_logP_direct()
    want11 = (ZBAR - Z * Z).scale(Rat(-3)) + (ZBAR - (Z * Z).scale(Rat(2))).scale(
        Rat(3, 2)
    )
    assert h.r11 == want11
    assert h.r22 == want11.conj_swap()
    assert h.r12.eval(0.0).real == -1.5


def test_outer_logP():
    m = outer_logP()
    assert m.r11 == (Z * Z).scale(Rat(9))
    assert m.r12 == (Z * ZBAR).scale(Rat(9))
    assert m.r22 == (ZBAR * ZBAR).scale(Rat(9))


def test_gamma2_basics():
    lam = Lambda(4)
    rng = random.Random(7)
    f = rand_poly(rng, imag=True)
    g = rand_poly(rng, imag=True)
    assert gamma2(f, g, lam) == gamma2(g, f, lam)
    assert gamma2(ONE, f, lam).is_zero()


def test_gamma2_nested_call_counts(monkeypatch):
    # gamma2 reaches gamma and generator through the module, so a wrapper
    # on either sees every nested call: Gamma(f, Lf) once when both
    # arguments are one object, both cross terms otherwise
    calls = {"gamma": 0, "generator": 0}
    for name in calls:
        original = getattr(operator, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(operator, name, counted)
    rng = random.Random(10)
    f = rand_poly(rng, imag=True)
    g = rand_poly(rng, imag=True)
    lam = Lambda(Rat(7, 2))
    operator.gamma2(f, f, lam)
    assert calls == {"gamma": 2, "generator": 2}
    calls.update(gamma=0, generator=0)
    operator.gamma2(f, g, lam)
    assert calls == {"gamma": 3, "generator": 3}


def test_gamma2_closed_form_ZZ():
    # Gamma_2(Z,Z) = ((lam-2) Zbar + 2 Z^2)/2
    for lv in (Rat(4), Rat(1), Rat(7, 2)):
        lam = Lambda(lv)
        got = gamma2(Z, Z, lam)
        want = (ZBAR.scale(lv - 2) + (Z * Z).scale(Rat(2))).scale(Rat(1, 2))
        assert got == want


def test_cd_inequality_sampled():
    # CD(9/4, 8) at lam = 4 on random real test functions, interior points
    lam = Lambda(4)
    rng = random.Random(8)
    pts = interior_points(50, seed=9)
    for _ in range(12):
        g = rand_poly(rng, deg=3, imag=True)
        f = g + g.conj_swap()  # real-valued on the curve
        g2 = gamma2(f, f, lam)
        g1 = gamma(f, f)
        lf = generator(f, lam)
        for z in pts:
            margin = (
                g2.eval(z).real
                - 2.25 * g1.eval(z).real
                - 0.125 * lf.eval(z).real ** 2
            )
            assert margin >= -1e-10
