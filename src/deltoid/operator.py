"""Carre du champ calculus for the deltoid diffusion family.

Everything in this module is derived through the diffusion chain rule from
five generating relations on the coordinate pair (Z, Zbar):

    G(Z, Z)       = Zbar - Z^2
    G(Zbar, Zbar) = Z - Zbar^2
    G(Z, Zbar)    = (1 - Z*Zbar) / 2
    L(Z)          = -lambda * Z
    L(Zbar)       = -lambda * Zbar

For polynomial f, g the chain rule gives

    G(f, g) = fZ gZ G(Z,Z) + (fZ gZb + fZb gZ) G(Z,Zbar) + fZb gZb G(Zbar,Zbar)
    L(f)    = -lam Z fZ - lam Zbar fZb
              + fZZ G(Z,Z) + 2 fZZb G(Z,Zbar) + fZbZb G(Zbar,Zbar)

with subscripts denoting partials.  Read as data, with each term moved by
the exponents its chain-rule slot lowers ((2, 0) for G(Z,Z), (1, 1) for
G(Z,Zbar), (0, 2) for G(Zbar,Zbar)), the six terms of the G entries land
on four exponent shifts: -Z^2, -Z Zbar / 2 and -Zbar^2 on the zero shift,
and Zbar, 1/2 and Z on (-2, 1), (-1, -1) and (1, -2).  The kernels work
term by term on the integer numerators against this four-point stencil.
Gamma adds, for each pair of monomials Z^i1 Zbar^j1, Z^i2 Zbar^j2, the
coefficient product times i1 i2, i1 j2 + j1 i2 and j1 j2 into one record
per base exponent (i1 + i2, j1 + j2), then spreads each record once over
the four shifts.  L writes each monomial Z^i Zbar^j of f straight into
its result, at no more than four points: each shift's weights times
i (i - 1), 2 i j and j (j - 1), plus the drift -lam (i + j) on the zero
shift.  Each result is normalised once.

The G entries stay as polynomials here: nothing in this module knows the
eigenvalue mu(i, j) that the back-substitution stencil of eigen.py gets by
collapsing them.  So the exact residual L P + mu P = 0 compares two
separate derivations of the operator.  Identities about the boundary
polynomial, the Hessian of its logarithm, and curvature tensors are all
stated as exact polynomial identities (denominators cleared by powers of
the boundary polynomial, divided back out with exact division).
"""

from __future__ import annotations

from math import lcm

from .exact import BivarPoly, CRat, PolyTable, Rat, _make, as_rat, c_prod, record, Z, ZBAR


@record
class Lambda:
    """Spectral-family parameter; rational and strictly positive."""

    value: "Rat"

    def __init__(self, value):
        value = as_rat(value)
        if value <= 0:
            raise ValueError("lambda must be > 0")
        self.__dict__["value"] = value


def _lam(lam) -> Lambda:
    """lam as a validated Lambda; a Lambda is returned as it is."""
    return lam if isinstance(lam, Lambda) else Lambda(lam)


# half as an exact scalar, used all over
_HALF = CRat(Rat(1, 2))

G11 = ZBAR - Z * Z
G22 = Z - ZBAR * ZBAR
G12 = (BivarPoly.const(1) - Z * ZBAR).scale(_HALF)


@record
class HermitianTensorField:
    """2x2 Hermitian tensor in complex coordinates with polynomial entries.

    On the real locus (Zbar = conj Z), r12 takes real values and
    r22 = conj_swap(r11), so the tensor is determined by (r11, r12).
    Positive semidefiniteness as a real 2-tensor is equivalent to both
    margins from psd_margins being >= 0.
    """

    r11: BivarPoly
    r12: BivarPoly
    r22: BivarPoly

    def psd_margins(self, z) -> tuple:
        """(trace-type margin r12, det-type margin r12^2 - |r11|^2) at z.

        z is one point, giving two floats, or a numpy array of points,
        giving two float arrays.  The three entries are the rows of one
        PolyTable, and the det-type margin is the real part of
        v12 * v12 - v11 * v22 in CPython's complex arithmetic.
        """
        v12, v11, v22 = PolyTable([e.complex_coeffs() for e in
                                   (self.r12, self.r11, self.r22)]).values(z)
        sq, _ = c_prod(v12.real, v12.imag, v12.real, v12.imag)
        pr, _ = c_prod(v11.real, v11.imag, v22.real, v22.imag)
        return v12.real, sq - pr

    def sub(self, other: "HermitianTensorField") -> "HermitianTensorField":
        return HermitianTensorField(
            self.r11 - other.r11, self.r12 - other.r12, self.r22 - other.r22
        )


# the G entries over their common denominator, grouped by exponent shift:
# a term g Z^gi Zbar^gj of an entry, in the chain-rule slot whose
# derivatives lower the exponents by (si, sj), moves a base exponent by
# (gi + si, gj + sj) with the weight g * _G_DEN in that slot, an integer
# since the G entries are real.  One row per shift, (shift, w11, w12,
# w22); the zero shift comes first, where L's drift term lands too.
_G_DEN = lcm(G11.den, G12.den, G22.den)


def _stencil():
    rows = {(0, 0): [0, 0, 0]}
    for slot, (e, (si, sj)) in enumerate(((G11, (-2, 0)), (G12, (-1, -1)), (G22, (0, -2)))):
        for (gi, gj), (re, _) in e.num.items():
            rows.setdefault((gi + si, gj + sj), [0, 0, 0])[slot] += re * (_G_DEN // e.den)
    return tuple((shift, *w) for shift, w in rows.items())


_STENCIL = _stencil()
# gamma's view of the rows: the zero shift's weights, then each other
# shift's nonzero weights as (di, dj, offset of the slot in a record, w)
_Z11, _Z12, _Z22 = _STENCIL[0][1:]
_SHIFTED = tuple((di, dj, 2 * slot, w) for (di, dj), *weights in _STENCIL[1:]
                 for slot, w in enumerate(weights) if w)


def _pair_into(recs: dict, i1: int, j1: int, a: int, b: int, terms) -> None:
    # the term (a + b i) Z^i1 Zbar^j1 paired with each of terms: the
    # product, times its three chain-rule weights, into the record
    # (re11, im11, re12, im12, re22, im22) at the base exponent
    get = recs.get
    for (i2, j2), (c, d) in terms:
        w11 = i1 * i2
        w12 = i1 * j2 + j1 * i2
        w22 = j1 * j2
        re = a * c - b * d
        im = a * d + b * c
        key = (i1 + i2, j1 + j2)
        r = get(key)
        if r is None:
            recs[key] = [re * w11, im * w11, re * w12, im * w12, re * w22, im * w22]
        else:
            r[0] += re * w11
            r[1] += im * w11
            r[2] += re * w12
            r[3] += im * w12
            r[4] += re * w22
            r[5] += im * w22


def gamma(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    recs = {}
    ft = list(f.num.items())
    if f is g:
        # G is symmetric: each unordered pair once, off the diagonal twice
        for n, ((i1, j1), (a, b)) in enumerate(ft):
            _pair_into(recs, i1, j1, a, b, ft[n:n + 1])
            _pair_into(recs, i1, j1, a + a, b + b, ft[n + 1:])
    else:
        gt = list(g.num.items())
        for (i1, j1), (a, b) in ft:
            _pair_into(recs, i1, j1, a, b, gt)
    # the zero shift maps each base exponent to itself, so it starts the
    # result with no lookups; the other shifts add onto it
    out = {}
    for key, (r11, m11, r12, m12, r22, m22) in recs.items():
        re = _Z11 * r11 + _Z12 * r12 + _Z22 * r22
        im = _Z11 * m11 + _Z12 * m12 + _Z22 * m22
        if re or im:
            out[key] = (re, im)
    get = out.get
    for di, dj, o, w in _SHIFTED:
        for (bi, bj), r in recs.items():
            re = r[o]
            im = r[o + 1]
            if re or im:
                re *= w
                im *= w
                key = (bi + di, bj + dj)
                s = get(key)
                if s is not None:
                    re += s[0]
                    im += s[1]
                    if not (re or im):
                        del out[key]
                        continue
                out[key] = (re, im)
    return _make(out, f.den * g.den * _G_DEN)


def generator(f: BivarPoly, lam) -> BivarPoly:
    lv = _lam(lam).value
    ln, ld = int(lv.numerator), int(lv.denominator)
    drift = -ln * _G_DEN
    out = {}
    get = out.get
    for (i, j), (re, im) in f.num.items():
        d11 = ld * i * (i - 1)
        d12 = 2 * ld * i * j
        d22 = ld * j * (j - 1)
        dl = drift * (i + j)  # on the zero shift, the stencil's first row
        for (di, dj), w11, w12, w22 in _STENCIL:
            w = w11 * d11 + w12 * d12 + w22 * d22 + dl
            dl = 0
            if w:
                key = (i + di, j + dj)
                vr = re * w
                vi = im * w
                s = get(key)
                if s is None:
                    out[key] = (vr, vi)
                else:
                    vr += s[0]
                    vi += s[1]
                    if vr or vi:
                        out[key] = (vr, vi)
                    else:
                        del out[key]
    return _make(out, f.den * ld * _G_DEN)


def gamma2(f: BivarPoly, g: BivarPoly, lam) -> BivarPoly:
    if f is g:
        return generator(gamma(f, f), lam).scale(_HALF) - gamma(f, generator(f, lam))
    t = generator(gamma(f, g), lam) - gamma(f, generator(g, lam)) - gamma(g, generator(f, lam))
    return t.scale(_HALF)


def boundary_poly() -> BivarPoly:
    """Defining polynomial of the deltoid boundary, from the Gamma entries."""
    return G12 * G12 - G11 * G22


def check_boundary_equation():
    """Exact check that G(Z, P) = -3 Z P and G(Zbar, P) = -3 Zbar P.

    Returns (ok, residual_z, residual_zbar); both residuals are the zero
    polynomial iff the identity holds.
    """
    P = boundary_poly()
    res_z = gamma(Z, P) + (Z * P).scale(3)
    res_w = gamma(ZBAR, P) + (ZBAR * P).scale(3)
    return res_z.is_zero() and res_w.is_zero(), res_z, res_w


def _hessian_entry_cleared(h: BivarPoly, k: BivarPoly, P: BivarPoly) -> BivarPoly:
    # H[log P](h,k) written over the common denominator 2 P^2:
    #   2 P^2 H = G(h, G(P,k)) P - G(P,k) G(h,P)
    #           + G(k, G(P,h)) P - G(P,h) G(k,P)
    #           - G(P, G(h,k)) P
    gpk = gamma(P, k)
    gph = gamma(P, h)
    num = (
        gamma(h, gpk) * P
        - gpk * gamma(h, P)
        + gamma(k, gph) * P
        - gph * gamma(k, P)
        - gamma(P, gamma(h, k)) * P
    )
    return num.divexact((P * P).scale(2))


def hessian_logP_direct() -> HermitianTensorField:
    """Hessian of log P from its definition, denominators cleared exactly.

    The quotient by 2 P^2 is an exact polynomial division; a ValueError
    from the division would mean the boundary identity failed.
    """
    P = boundary_poly()
    return HermitianTensorField(
        _hessian_entry_cleared(Z, Z, P),
        _hessian_entry_cleared(Z, ZBAR, P),
        _hessian_entry_cleared(ZBAR, ZBAR, P),
    )


def hessian_logP_reduced() -> HermitianTensorField:
    """The same Hessian in closed form: -3 G + (3/2) euler(G) entrywise."""

    def entry(g):
        return g.scale(-3) + g.euler().scale(CRat(Rat(3, 2)))

    return HermitianTensorField(entry(G11), entry(G12), entry(G22))


def outer_logP() -> HermitianTensorField:
    """Gradient outer product of log P: entries 9 Z^2, 9 Z Zbar, 9 Zbar^2."""
    return HermitianTensorField(
        (Z * Z).scale(9), (Z * ZBAR).scale(9), (ZBAR * ZBAR).scale(9)
    )
