"""Differential tests of the fraction-free exact core.

The reference is a plain dict {(i, j): (re, im)} of fractions.Fraction
pairs with schoolbook arithmetic.  It uses fractions.Fraction directly,
whatever rational backend deltoid picked, so every check below compares
the integer-numerator BivarPoly and the fraction-free eigen solver with
an independent Fraction computation.
"""

import math
import random
from fractions import Fraction as F

import pytest

from deltoid.eigen import solve_eigenpoly
from deltoid.exact import BivarPoly, CRat, Rat
from deltoid.operator import Lambda


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
            (pa.partial("Z"), ref_partial(a, "Z")),
            (pa.partial("Zbar"), ref_partial(a, "Zbar")),
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


def test_float_conversion_is_bit_identical():
    rng = random.Random(106)
    for a, b, _ in forms(106):
        for d in (a, b, ref_mul(a, b)):
            p = to_poly(d)
            for i, j, c in p.complex_coeffs():
                re, im = d[(i, j)]
                assert c == complex(float(re), float(im))
            for _ in range(3):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert p.eval2(z, w) == ref_horner(d, z, w)
                assert p.eval(z) == ref_horner(d, z, z.conjugate())


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


@pytest.mark.parametrize("lam", [F(4), F(1), F(7, 2), F(9, 5)])
def test_solve_eigenpoly_matches_fraction_backsubstitution(lam):
    table = ref_moments(lam, 24)
    lam_rat = Lambda(Rat(lam.numerator, lam.denominator))
    for total in range(13):
        for p in range(total + 1):
            q = total - p
            want = ref_eigenpoly(p, q, lam)
            ep = solve_eigenpoly(p, q, lam_rat)
            assert_canonical(ep.poly)
            assert ep.poly.to_records() == ref_records(want)
            assert F(ep.mu) == (lam - 1) * total + p * p + p * q + q * q
            norm2 = sum(c * table.get((i + q, j + p), F(0)) for (i, j), c in want.items())
            assert F(ep.norm2) == norm2
