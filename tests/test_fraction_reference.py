"""Differential tests of the fraction-free exact core.

The reference is a plain dict {(i, j): (re, im)} of fractions.Fraction
pairs with schoolbook arithmetic.  It uses fractions.Fraction directly,
whatever rational backend deltoid picked, so every check below compares
the integer-numerator BivarPoly, the term-by-term carre du champ kernels
and the fraction-free eigen solver with an independent Fraction
computation.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from deltoid.eigen import _pieri_modes, inner_product, moments, pairings, solve_eigenpoly
from deltoid.exact import BivarPoly, CRat, Rat
from deltoid.operator import Lambda, boundary_poly, gamma, gamma2, generator


# -- the reference ------------------------------------------------------


def ref_of(p):
    """BivarPoly -> {(i, j): (Fraction, Fraction)} through its numerators."""
    return {k: (F(re, p.den), F(im, p.den)) for k, (re, im) in p.num.items()}


def ref_clean(d):
    return {k: c for k, c in d.items() if c[0] or c[1]}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, (re, im) in b.items():
        s = out.get(k, (F(0), F(0)))
        out[k] = (s[0] + sign * re, s[1] + sign * im)
    return ref_clean(out)


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, (F(0), F(0)))
            p = cmul(c1, c2)
            out[k] = (s[0] + p[0], s[1] + p[1])
    return ref_clean(out)


def ref_scale(a, c):
    return ref_clean({k: cmul(v, c) for k, v in a.items()})


def ref_partial(a, var):
    out = {}
    for (i, j), (re, im) in a.items():
        e = i if var == "Z" else j
        if e:
            k = (i - 1, j) if var == "Z" else (i, j - 1)
            out[k] = (re * e, im * e)
    return out


def ref_euler(a):
    return ref_clean({(i, j): (re * (i + j), im * (i + j)) for (i, j), (re, im) in a.items()})


def ref_conj_swap(a):
    return {(j, i): (re, -im) for (i, j), (re, im) in a.items()}


def _order(k):
    return (k[0] + k[1], k[0])


def ref_divexact(a, d):
    lm = max(d, key=_order)
    rem = dict(a)
    quot = {}
    while rem:
        k = max(rem, key=_order)
        qk = (k[0] - lm[0], k[1] - lm[1])
        if qk[0] < 0 or qk[1] < 0:
            raise ValueError("leading-term obstruction")
        qc = cdiv(rem[k], d[lm])
        quot[qk] = qc
        for (i, j), c in d.items():
            key = (i + qk[0], j + qk[1])
            s = rem.get(key, (F(0), F(0)))
            p = cmul(qc, c)
            rem[key] = (s[0] - p[0], s[1] - p[1])
        rem = ref_clean(rem)
    return quot


def to_poly(d):
    return BivarPoly({k: CRat(Rat(re.numerator, re.denominator),
                              Rat(im.numerator, im.denominator))
                      for k, (re, im) in d.items()})


def rand_frac(rng, big=False):
    if big:
        return F(rng.randrange(-10**40, 10**40), rng.randrange(1, 10**25))
    return F(rng.randrange(-9, 10), rng.randrange(1, 13))


def rand_ref(rng, deg=4, nterms=6, imag=True, big=False):
    d = {}
    for _ in range(nterms):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        d[(i, j)] = (rand_frac(rng, big), rand_frac(rng, big) if imag else F(0))
    return ref_clean(d)


def assert_canonical(p):
    assert p.den > 0
    assert all(re or im for re, im in p.num.values())
    if not p.num:
        assert p.den == 1
    content = math.gcd(*(x for c in p.num.values() for x in c)) if p.num else 0
    assert math.gcd(content, p.den) == 1


def forms(seed, count=40):
    rng = random.Random(seed)
    for n in range(count):
        imag = n % 3 != 0
        big = n % 5 == 4
        yield rand_ref(rng, imag=imag, big=big), rand_ref(rng, imag=imag, big=big), rng


# -- ring operations ------------------------------------------------------


def test_ring_operations_match_reference():
    for a, b, rng in forms(101):
        pa, pb = to_poly(a), to_poly(b)
        for got, want in (
            (pa + pb, ref_add(a, b)),
            (pa - pb, ref_add(a, b, -1)),
            (pa - pa, {}),
            (-pa, ref_scale(a, (F(-1), F(0)))),
            (pa * pb, ref_mul(a, b)),
        ):
            assert_canonical(got)
            assert ref_of(got) == want


def test_scale_matches_reference():
    for a, _, rng in forms(102):
        pa = to_poly(a)
        c = (rand_frac(rng), rand_frac(rng))
        got = pa.scale(CRat(Rat(c[0].numerator, c[0].denominator),
                            Rat(c[1].numerator, c[1].denominator)))
        assert_canonical(got)
        assert ref_of(got) == ref_scale(a, c)
        k = rng.randrange(-7, 8)
        assert ref_of(pa.scale(k)) == ref_scale(a, (F(k), F(0)))
        assert ref_of(pa * Rat(3, 7)) == ref_scale(a, (F(3, 7), F(0)))


def test_calculus_matches_reference():
    for a, _, _ in forms(103):
        pa = to_poly(a)
        for got, want in (
            (pa.euler(), ref_euler(a)),
            (pa.conj_swap(), ref_conj_swap(a)),
        ):
            assert_canonical(got)
            assert ref_of(got) == want


def test_divexact_matches_reference():
    for a, b, rng in forms(104, count=30):
        if not b:
            continue
        prod = ref_mul(a, b)
        got = to_poly(prod).divexact(to_poly(b))
        assert_canonical(got)
        assert ref_of(got) == ref_divexact(prod, b) == a
        if set(b) == {(0, 0)}:
            continue
        # a product plus a stray constant divides in neither implementation
        stray = ref_add(prod, {(0, 0): (F(1, 3), F(0))})
        with pytest.raises(ValueError):
            ref_divexact(stray, b)
        with pytest.raises(ValueError):
            to_poly(stray).divexact(to_poly(b))


def test_divexact_by_gaussian_integer_divisors():
    # divisors with small Gaussian-integer coefficients make the remainder's
    # leading coefficient non-divisible at later steps, so the running
    # denominator grows more than once
    rng = random.Random(107)
    for _ in range(300):
        a = rand_ref(rng, deg=2, nterms=3)
        b = ref_clean({(rng.randrange(2), rng.randrange(2)):
                       (F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4))) for _ in range(3)})
        if not b:
            continue
        prod = ref_mul(a, b)
        got = to_poly(prod).divexact(to_poly(b))
        assert_canonical(got)
        assert ref_of(got) == ref_divexact(prod, b) == a


def test_zero_polynomial_is_canonical():
    z = BivarPoly.zero()
    assert z.num == {} and z.den == 1
    p = to_poly({(1, 2): (F(2, 3), F(1, 5))})
    for got in (p - p, p.scale(0), p * BivarPoly.zero(), BivarPoly.const(Rat(0, 1)),
                BivarPoly({(0, 0): CRat(Rat(1, 3)), (1, 0): CRat(Rat(0))}) - BivarPoly.const(Rat(1, 3))):
        assert got.is_zero()
        assert got.den == 1
        assert_canonical(got)


def test_terms_view_and_coeff_agree_with_reference():
    for a, _, _ in forms(105, count=10):
        pa = to_poly(a)
        view = pa.terms
        assert set(view) == set(a)
        for k, (re, im) in a.items():
            assert view[k] == pa.coeff(*k)
            assert (F(view[k].re), F(view[k].im)) == (re, im)
        with pytest.raises(TypeError):
            view[(9, 9)] = CRat(1)


# -- the carre du champ operator -------------------------------------------
#
# Gamma, L and Gamma_2 restated by composition: partials, products with
# the G entries, sums.  The G entries are written from the five generating
# relations, not read from the package.


def real(x):
    return (F(x), F(0))


REF_Z = {(1, 0): real(1)}
REF_ZBAR = {(0, 1): real(1)}
REF_G11 = {(0, 1): real(1), (2, 0): real(-1)}            # G(Z, Z) = Zbar - Z^2
REF_G22 = {(1, 0): real(1), (0, 2): real(-1)}            # G(Zbar, Zbar) = Z - Zbar^2
REF_G12 = {(0, 0): real(F(1, 2)), (1, 1): real(F(-1, 2))}  # G(Z, Zbar) = (1 - Z Zbar)/2


def ref_gamma(a, b):
    az, aw = ref_partial(a, "Z"), ref_partial(a, "Zbar")
    bz, bw = ref_partial(b, "Z"), ref_partial(b, "Zbar")
    out = ref_mul(ref_mul(az, bz), REF_G11)
    out = ref_add(out, ref_mul(ref_add(ref_mul(az, bw), ref_mul(aw, bz)), REF_G12))
    return ref_add(out, ref_mul(ref_mul(aw, bw), REF_G22))


def ref_generator(a, lam):
    # L(Z) = -lam Z and L(Zbar) = -lam Zbar give the drift
    az, aw = ref_partial(a, "Z"), ref_partial(a, "Zbar")
    drift = ref_scale(ref_add(ref_mul(REF_Z, az), ref_mul(REF_ZBAR, aw)), real(-lam))
    out = ref_add(drift, ref_mul(ref_partial(az, "Z"), REF_G11))
    out = ref_add(out, ref_scale(ref_mul(ref_partial(az, "Zbar"), REF_G12), real(2)))
    return ref_add(out, ref_mul(ref_partial(aw, "Zbar"), REF_G22))


def ref_gamma2(a, b, lam):
    t = ref_generator(ref_gamma(a, b), lam)
    t = ref_add(t, ref_gamma(a, ref_generator(b, lam)), -1)
    t = ref_add(t, ref_gamma(b, ref_generator(a, lam)), -1)
    return ref_scale(t, real(F(1, 2)))


def lam_of(lam):
    return Lambda(Rat(lam.numerator, lam.denominator))


def assert_operator_matches(a, b, lam):
    """Gamma(a, b), L a and Gamma_2(a, b) against the reference, canonical."""
    pa, pb, pl = to_poly(a), to_poly(b), lam_of(lam)
    for got, want in (
        (gamma(pa, pb), ref_gamma(a, b)),
        (generator(pa, pl), ref_generator(a, lam)),
        (gamma2(pa, pb, pl), ref_gamma2(a, b, lam)),
    ):
        assert_canonical(got)
        assert ref_of(got) == want


def test_operator_matches_reference_on_forms():
    # complex coefficients, and numerators near 10^40 in every fifth form
    lams = (F(4), F(1), F(7, 2), F(9, 5), F(1, 2))
    for n, (a, b, _) in enumerate(forms(108, count=25)):
        assert_operator_matches(a, b, lams[n % len(lams)])


@pytest.mark.parametrize("lam", [F(4), F(1), F(7, 2), F(9, 5), F(1, 2)])
def test_operator_matches_reference_on_eigenpolynomials(lam):
    pl = lam_of(lam)
    polys = [ref_of(solve_eigenpoly(p, t - p, pl).poly)
             for t in range(13) for p in range(t + 1)]
    for a in polys:
        assert ref_of(generator(to_poly(a), pl)) == ref_generator(a, lam)
    # Gamma and Gamma_2 on pairs that reach degree 12 without running the
    # Fraction reference on all 91^2 of them
    for k in range(1, len(polys), 15):
        assert_operator_matches(polys[k], polys[-1 - k], lam)


def test_operator_matches_reference_on_boundary_powers():
    # P and P^2 are the inputs of the Hessian of log P
    P = ref_of(boundary_poly())
    P2 = ref_mul(P, P)
    for a, b in ((P, P), (P, P2), (P2, REF_Z), (REF_ZBAR, P)):
        assert_operator_matches(a, b, F(4))
    # G(Z, P) = -3 Z P in the reference too
    assert ref_gamma(REF_Z, P) == ref_scale(ref_mul(REF_Z, P), real(-3))


def test_operator_on_zero_and_constants():
    rng = random.Random(109)
    f = rand_ref(rng)
    for c in ({}, {(0, 0): real(F(3, 7))}, {(0, 0): (F(0), F(-2, 5))}):
        assert_operator_matches(c, f, F(7, 2))
        assert_operator_matches(f, c, F(9, 5))
        assert_operator_matches(c, c, F(1))
        pc = to_poly(c)
        for got in (gamma(pc, to_poly(f)), generator(pc, Lambda(4)), gamma2(pc, pc, Lambda(4))):
            assert got.is_zero() and got.den == 1


def test_same_object_paths_match_distinct_objects():
    # gamma and gamma2 take a shortcut when both arguments are one object;
    # an equal but distinct second argument takes the general path
    lams = (F(4), F(1, 2), F(9, 5))
    for n, (a, _, _) in enumerate(forms(110, count=20)):
        lam = lams[n % len(lams)]
        f, g = to_poly(a), to_poly(a)
        assert f is not g and f == g
        same, general = gamma(f, f), gamma(f, g)
        assert_canonical(same)
        assert same == general and ref_of(same) == ref_gamma(a, a)
        same, general = gamma2(f, f, lam_of(lam)), gamma2(f, g, lam_of(lam))
        assert_canonical(same)
        assert same == general and ref_of(same) == ref_gamma2(a, a, lam)


# -- float conversion -----------------------------------------------------


def ref_horner(d, z, w):
    """The sparse two-level Horner scheme of BivarPoly.eval2, on
    float(Fraction) coefficients."""
    if not d:
        return 0j
    groups = {}
    for (i, j), (re, im) in d.items():
        groups.setdefault(i, []).append((j, complex(float(re), float(im))))
    acc = 0j
    prev_i = None
    for i in sorted(groups, reverse=True):
        inner = 0j
        prev_j = None
        for j, c in sorted(groups[i], reverse=True):
            inner = c if prev_j is None else inner * w ** (prev_j - j) + c
            prev_j = j
        if prev_j:
            inner *= w**prev_j
        acc = inner if prev_i is None else acc * z ** (prev_i - i) + inner
        prev_i = i
    if prev_i:
        acc *= z**prev_i
    return acc


def bits(values):
    """The raw 64-bit patterns of complex values, real and imaginary."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


# signed zeros, a point on the real axis and a NaN beside random points
EDGE_POINTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               1 + 0j, complex("nan")]


def test_float_conversion_is_bit_identical():
    rng = random.Random(106)
    for a, b, _ in forms(106):
        for d in (a, b, ref_mul(a, b), {}):
            p = to_poly(d)
            for i, j, c in p.complex_coeffs():
                re, im = d[(i, j)]
                assert c == complex(float(re), float(im))
            for _ in range(3):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert p.eval2(z, w) == ref_horner(d, z, w)
                assert p.eval(z) == ref_horner(d, z, z.conjugate())
            # arrays: every element bit for bit the scalar value, with w
            # independent of z and with w = conj(z)
            zs = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
                  for _ in range(20)] + EDGE_POINTS
            ws = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
                  for _ in range(len(zs))]
            got = p.eval2(np.array(zs), np.array(ws))
            assert got.shape == (len(zs),)
            assert bits(got) == bits([p.eval2(z, w) for z, w in zip(zs, ws)])
            assert bits(p.eval(np.array(zs))) == bits([p.eval(z) for z in zs])
            # a scalar w broadcasts against an array z
            grid = np.array(zs).reshape(2, 13)
            assert bits(p.eval2(grid, ws[0])) == bits(
                [[p.eval2(z, ws[0]) for z in row] for row in grid.tolist()])


def test_array_evaluation_spans_blocks():
    # more points than one pass of the array path takes, in a 2-d array
    rng = random.Random(107)
    d = rand_ref(rng, deg=5, nterms=9)
    p = to_poly(d)
    zs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(9000)]).reshape(3, 3000)
    got = p.eval(zs)
    assert got.shape == (3, 3000)
    assert bits(got) == bits([[p.eval(z) for z in row] for row in zs.tolist()])


def test_array_evaluation_beyond_binary_exponentiation():
    # CPython switches from binary exponentiation to the polar formula for
    # integer powers above 100; the arrays must follow it there too
    d = {(150, 0): (F(1), F(0)), (3, 120): (F(-2, 3), F(1, 5)), (0, 0): (F(1), F(0))}
    p = to_poly(d)
    zs = [0.99 + 0.1j, -0.5 + 0.7j, 1j] + EDGE_POINTS
    assert bits(p.eval(np.array(zs))) == bits([p.eval(z) for z in zs])
    assert bits(p.eval(np.array(zs))) == bits([ref_horner(d, z, z.conjugate()) for z in zs])


def test_array_evaluation_raises_where_a_power_overflows():
    # a power with an infinite part raises OverflowError in CPython, so a
    # point at infinity raises from an array as it does alone
    p = to_poly({(2, 1): (F(1), F(0)), (0, 0): (F(1), F(0))})
    for z in (complex(0.5, float("inf")), complex(1e200, 0.0)):
        with pytest.raises(OverflowError):
            p.eval(z)
        with pytest.raises(OverflowError):
            p.eval(np.array([0.5j, z]))


# -- the eigen solver -----------------------------------------------------


def ref_eigenpoly(p, q, lam):
    """Plain-Fraction back-substitution of L P + mu P = 0, monic in Z^p Zbar^q."""

    def mu(i, j):
        return (lam - 1) * (i + j) + i * i + i * j + j * j

    coeffs = {(p, q): F(1)}
    for deg in range(p + q, -1, -1):
        for i in range(deg, -1, -1):
            j = deg - i
            if (i, j) == (p, q):
                continue
            # coefficient of Z^i Zbar^j in L P: the three raising moves
            acc = F(0)
            for (si, sj), w in (((i + 2, j - 1), (i + 2) * (i + 1)),
                                ((i + 1, j + 1), (i + 1) * (j + 1)),
                                ((i - 1, j + 2), (j + 2) * (j + 1))):
                if si >= 0 and sj >= 0 and (si, sj) in coeffs:
                    acc += w * coeffs[(si, sj)]
            if acc:
                coeffs[(i, j)] = acc / (mu(i, j) - mu(p, q))
    return coeffs


def ref_moments(lam, degree):
    m = {(0, 0): F(1)}
    for deg in range(1, degree + 1):
        for i in range(deg + 1):
            j = deg - i
            acc = F(0)
            if i >= 2:
                acc += i * (i - 1) * m.get((i - 2, j + 1), F(0))
            if i >= 1 and j >= 1:
                acc += i * j * m.get((i - 1, j - 1), F(0))
            if j >= 2:
                acc += j * (j - 1) * m.get((i + 1, j - 2), F(0))
            if acc:
                m[(i, j)] = acc / ((lam - 1) * (i + j) + i * i + i * j + j * j)
    return m


def ref_records(coeffs):
    return [
        {"i": i, "j": j, "re_num": c.numerator, "re_den": c.denominator,
         "im_num": 0, "im_den": 1}
        for (i, j), c in sorted(coeffs.items())
    ]


@pytest.mark.parametrize("lam", [F(4), F(1), F(7, 2), F(9, 5), F(1, 2), F(1, 10),
                                 F(100)])
def test_solve_eigenpoly_matches_fraction_backsubstitution(lam):
    # the single-mode solver and the spectrum builder alike
    table = ref_moments(lam, 24)
    lam_rat = Lambda(Rat(lam.numerator, lam.denominator))
    built = {(ep.p, ep.q): ep for ep in _pieri_modes(lam_rat, 12)}
    for total in range(13):
        for p in range(total + 1):
            q = total - p
            want = ref_eigenpoly(p, q, lam)
            norm2 = sum(c * table.get((i + q, j + p), F(0)) for (i, j), c in want.items())
            for ep in (solve_eigenpoly(p, q, lam_rat), built[p, q]):
                assert_canonical(ep.poly)
                assert ep.poly.to_records() == ref_records(want)
                assert F(ep.mu) == (lam - 1) * total + p * p + p * q + q * q
                assert F(ep.norm2) == norm2


def ref_pairing(f, g, m):
    """<f, g> = sum of f_ij conj(g_kl) m(i + l, j + k), in Fractions."""
    re = im = F(0)
    for (i, j), a in f.items():
        for (k, l), (br, bi) in g.items():
            w = m.get((i + l, j + k), F(0))
            pr, pi = cmul(a, (br, -bi))
            re += pr * w
            im += pi * w
    return re, im


@pytest.mark.parametrize("lam", [F(4), F(7, 2), F(1, 10)])
def test_pairings_match_fraction_reference(lam):
    # f and each g have complex coefficients on terms of every class mod 3;
    # the pairings of several g at once and inner_product of each one
    # equal the Fraction sums
    rng = random.Random(113)
    table = moments(Lambda(Rat(lam.numerator, lam.denominator)), 8)
    m = ref_moments(lam, 8)
    for _ in range(8):
        f = rand_ref(rng)
        gs = [rand_ref(rng) for _ in range(4)]
        want = [ref_pairing(f, g, m) for g in gs]
        fp, gps = to_poly(f), [to_poly(g) for g in gs]
        assert [(F(re, den), F(im, den)) for re, im, den in pairings(fp, gps, table)] == want
        for g, w in zip(gps, want):
            ip = inner_product(fp, g, table)
            assert (F(ip.re), F(ip.im)) == w
