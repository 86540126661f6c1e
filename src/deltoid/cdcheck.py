"""Curvature-dimension verification by three independent routes.

Route 1: exact tensor algebra.  R = (3 - b1) Gamma - (3/2) D Gamma - 9 a1 M
is a polynomial tensor; positivity reduces to two scalar margins, and on
the cusp ray Z = Zbar = rho everything collapses to a univariate
polynomial with a known factorization that is checked identically.  The
univariate work runs on plain integers: a polynomial is a canonical pair
of integer coefficients over one positive denominator, factorizations
are compared as pairs, and the sign sweep on [0, 1] evaluates each
v(k / N) N^d den by integer Horner, forming a rational only for the
worst value and its rho.

Route 2: the triangle picture.  b(a) is the smallest eigenvalue of
-Hess(sigma) - a grad(sigma) grad(sigma)^T with sigma = (1/2) log W; the
closed trigonometric forms A1, B1, C1, N are frozen here.  They and b
work elementwise on numpy arrays, one evaluation per set of points: the
lattice and then each corner box of scan_inf_b, the probe curve of
divergence_probe, the point of triangle_b and the lattice of
triangle_surface (the `cd scan-b --csv` surface).  Only the tests hold
them against other readings: an independent (z, u) rational
transcription, a finite-difference Hessian, and route 1, since 2 b(a) at
a point is the largest b1 at which R(a / 2, b1) is PSD there.  The
a = 1/3 infimum 9/8 is approached via a corner-refined scan.

Route 3: direct sampling of Gamma_2(f, f) >= rho Gamma(f, f) + (Lf)^2 / n
over random polynomial test functions and interior points, each margin
summed from exact polynomials of monomial pairs.

The three routes exercise deliberately disjoint code paths.
"""

import cmath
import math
import random
from fractions import Fraction

from .exact import BivarPoly, CRat, PolyTable, Rat, Z, ZBAR, _make, as_rat, np, record
from .geometry import (
    _bary_xy,
    plane_to_deltoid,
    sample_interior,
)
from .operator import (
    G11,
    G12,
    G22,
    HermitianTensorField,
    _lam,
    gamma,
    gamma2,
    generator,
    outer_logP,
)

ROOT3 = math.sqrt(3.0)


class IdentityMismatch(Exception):
    """An exact polynomial identity failed; carries the difference."""

    def __init__(self, msg, difference=None):
        super().__init__(msg)
        self.difference = difference


class DegenerateDenominator(ArithmeticError):
    """Scan point too close to the boundary lines, N below tolerance."""


# ---------------------------------------------------------------- route 1

def tensor_residual(a1, b1) -> HermitianTensorField:
    """R = (3 - b1) Gamma - (3/2) D Gamma - 9 a1 M, exact entries.

    M is the outer tensor with entries (Z^2, Z Zbar, Zbar^2); the stored
    outer_logP carries the factor 9 already.
    """
    a1 = as_rat(a1)
    b1 = as_rat(b1)

    def entry(gp):
        return gp.scale(Rat(3) - b1) - gp.euler().scale(Rat(3, 2))

    m = outer_logP()
    return HermitianTensorField(
        entry(G11) - m.r11.scale(a1),
        entry(G12) - m.r12.scale(a1),
        entry(G22) - m.r22.scale(a1),
    )


@record
class PsdReport:
    count: int
    failures: int
    min_margin1: float
    min_margin2: float
    worst_point: complex
    tol: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _failing(margins, tol):
    """Mask of margins below -tol or not finite (NaN or infinite)."""
    return ~np.isfinite(margins) | (margins < -tol)


def _below(a, b) -> bool:
    """Whether a ranks below b, NaN lowest, as np.argmin ranks them."""
    return a < b or (a != a and b == b)


def _points_array(points):
    zs = np.asarray(points, dtype=complex).ravel()
    if not zs.size:
        raise ValueError("no points to check")
    return zs


def psd_check(t: HermitianTensorField, points, tol: float = 1e-12) -> PsdReport:
    """Pointwise positivity of a Hermitian tensor on the given points.

    Both margins (off-diagonal entry, and its square minus the product of
    the diagonal) must clear -tol; a margin that is not finite fails.
    The minima rank NaN lowest, and worst_point is the first point where
    the det-type margin takes its minimum.  An empty point set raises
    ValueError.
    """
    zs = _points_array(points)
    m1, m2 = t.psd_margins(zs)
    k1 = int(np.argmin(m1))
    k2 = int(np.argmin(m2))
    return PsdReport(
        count=zs.size,
        failures=int(np.count_nonzero(_failing(m1, tol) | _failing(m2, tol))),
        min_margin1=float(m1[k1]),
        min_margin2=float(m2[k2]),
        worst_point=complex(zs[k2]),
        tol=tol,
    )


def deltoid_grid(m: int):
    """Z on the mapped barycentric grid, a 1-d complex array.

    The strictly interior barycentric lattice, in this order: (i, j, k)
    with i + j + k = m, all >= 1, i then j ascending.  It includes the
    medians, hence the cusp rays.  The plane coordinates are
    _bary_to_plane's arithmetic on arrays, so each Z has the bits of
    triangle_to_deltoid at that lattice point (see plane_to_deltoid).
    """
    if m < 3:
        raise ValueError("need m >= 3")
    i, j, k = _interior_indices(m)
    return plane_to_deltoid(*_bary_xy(i / m, j / m, k / m))


def _interior_indices(m):
    """(i, j, k) of the strictly interior barycentric lattice of side m,
    integer arrays: i + j + k = m, all >= 1, i then j ascending."""
    r, c = np.triu_indices(m - 2)
    i = r + 1
    j = c - r + 1
    return i, j, m - i - j


# exact univariate polynomials, fraction-free: a pair (coeffs, den) of
# integer coefficients, lowest power first, over one positive den.  Like
# BivarPoly the pair is canonical (trailing zeros dropped, the content
# gcd(den, coeffs) divided out; the zero polynomial is ((), 1)), so equal
# polynomials are equal pairs.

def _u_make(coeffs, den):
    # list comprehensions here and in _u_of, not generator expressions:
    # with a generator per call, CPython 3.11 held the calculus
    # benchmark's peak RSS about 0.4 MB higher
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return (), 1
    g = math.gcd(den, *coeffs)
    return tuple([c // g for c in coeffs]), den // g


def _u_of(*rats):
    """The polynomial with these rational coefficients, lowest power first."""
    den = math.lcm(*[int(r.denominator) for r in rats])
    return _u_make([int(r.numerator) * (den // int(r.denominator)) for r in rats], den)


def _u_mul(p, q):
    (pc, pd), (qc, qd) = p, q
    if not pc or not qc:
        return (), 1
    r = [0] * (len(pc) + len(qc) - 1)
    for i, a in enumerate(pc):
        for j, b in enumerate(qc):
            r[i + j] += a * b
    return _u_make(r, pd * qd)


def _u_rats(p):
    coeffs, den = p
    return [Rat(c, den) for c in coeffs]


_U_QUARTER = (1,), 4  # the constant 1/4


@record
class FactorizationResult:
    a1: object
    b1: object
    ray: tuple
    k_const: object
    reduced_form_checked: bool


def factorization_check(a1, b1) -> FactorizationResult:
    """Exact univariate factorization of the determinant margin on the ray.

    Builds m2 = (R12)^2 - R11 R22, checks its monomial support is
    {1, Z Zbar, (Z Zbar)^2, Z^3, Zbar^3}, extracts the off-diagonal
    constant K = (b1 - 9 a1)(3/2 - b1), restricts to Z = Zbar = rho and
    compares with

        (1/4) (1 - rho) (3 - b1 + b1 rho)
              (3 - b1 + rho (3 - 2 b1) + 3 rho^2 (b1 - 12 a1))

    identically; for a1 = 1/6 additionally with the reduced form
    (1/4) (3 - b1 + b1 rho) (1 - rho)^2 (3 - b1 + 3 rho (2 - b1)).
    """
    a1 = as_rat(a1)
    b1 = as_rat(b1)
    r = tensor_residual(a1, b1)
    m2 = r.r12 * r.r12 - r.r11 * r.r22

    allowed = {(0, 0), (1, 1), (2, 2), (3, 0), (0, 3)}
    stray = [k for k in m2.num if k not in allowed]
    if stray:
        raise IdentityMismatch(f"unexpected monomials {sorted(stray)}", m2)
    for k, (_, im) in m2.num.items():
        if im:
            raise IdentityMismatch(f"non-real coefficient at {k}", m2)

    k_want = (b1 - 9 * a1) * (Rat(3, 2) - b1)
    c30 = m2.coeff(3, 0).re
    c03 = m2.coeff(0, 3).re
    if c30 != -k_want or c03 != -k_want:
        raise IdentityMismatch(
            f"off-diagonal constant {c30}, {c03} != {-k_want}", m2
        )

    # ray restriction: rho^(i+j) picks up every term
    ray = [0] * 7
    for (i, j), (re, _) in m2.num.items():
        ray[i + j] += re
    ray = _u_make(ray, m2.den)

    lin1 = _u_of(Rat(1), Rat(-1))                 # 1 - rho
    lin2 = _u_of(3 - b1, b1)                      # 3 - b1 + b1 rho
    quad = _u_of(3 - b1, 3 - 2 * b1, 3 * (b1 - 12 * a1))
    want = _u_mul(_u_mul(_u_mul(lin1, lin2), quad), _U_QUARTER)
    if ray != want:
        raise IdentityMismatch(
            f"ray factorization differs: {_u_rats(ray)} != {_u_rats(want)}", (ray, want))

    reduced = False
    if a1 == Rat(1, 6):
        lin3 = _u_of(3 - b1, 3 * (2 - b1))
        want2 = _u_mul(_u_mul(_u_mul(lin2, _u_mul(lin1, lin1)), lin3), _U_QUARTER)
        if ray != want2:
            raise IdentityMismatch(
                f"reduced form differs: {_u_rats(ray)} != {_u_rats(want2)}", (ray, want2))
        reduced = True

    return FactorizationResult(
        a1=a1, b1=b1, ray=tuple(_u_rats(ray)), k_const=k_want, reduced_form_checked=reduced
    )


def factorization_sweep():
    """The 5x5 rational grid sweep of factorization_check."""
    values_a1 = [Rat(0), Rat(1, 12), Rat(1, 6), Rat(1, 4), Rat(1, 3)]
    values_b1 = [Rat(0), Rat(3, 4), Rat(3, 2), Rat(9, 4), Rat(3)]
    return [factorization_check(a, b) for a in values_a1 for b in values_b1]


# the ray sweep's rho = k / RAY_SAMPLES, k = 0 .. RAY_SAMPLES; the violating
# window for b1 slightly above 9/4 hugs rho = 1, so this stays above ~64
RAY_SAMPLES = 257


def ray_nonneg_on_unit(a1, b1):
    """Exact-rational sign sweep of the ray polynomial on [0, 1].

    Returns (all nonnegative, worst value, worst rho) over the
    RAY_SAMPLES + 1 evenly spaced rho; the first rho wins a tie.
    """
    coeffs, den = _u_of(*factorization_check(a1, b1).ray)
    # v(k / n) n^d den for k = 0 .. n, by integer Horner in k on the
    # coefficients c_i n^(d - i); n^d den > 0 keeps the order of the values
    n = RAY_SAMPLES
    d = len(coeffs) - 1
    scaled = [c * n ** (d - i) for i, c in enumerate(coeffs)][::-1]
    worst = worst_k = None
    for k in range(n + 1):
        v = 0
        for c in scaled:
            v = v * k + c
        if worst is None or v < worst:
            worst = v
            worst_k = k
    worst = Rat(worst, n ** max(d, 0) * den)
    return worst >= 0, worst, Rat(worst_k, n)


# ---------------------------------------------------------------- route 2

@record
class TriangleScanPoint:
    theta: float
    phi: float
    A1: float
    B1: float
    C1: float
    N: float
    b_of_a: float


# The route-2 forms work elementwise on float arrays th, ph.  An array's
# x ** 2 is numpy's correctly rounded product x * x; a Python float's
# goes through libm pow, which need not be correctly rounded.

def _trig_forms(a, th, ph):
    c2t3p = np.cos(2 * th + 3 * ph)
    chalf = np.cos(ph / 2)
    cmid = np.cos(th + 1.5 * ph)
    cph = np.cos(ph)
    a1v = -12.0 * (
        2 * c2t3p * (a * chalf * chalf - 1)
        - 2 * chalf * cmid * ((4 * a + 1) * cph - 5)
        + 2 * a * np.cos(2 * ph)
        + a * cph
        + 3 * (a - 2)
    )
    shalf = np.sin(ph / 2)
    b1v = 72.0 * shalf * shalf * (
        a * c2t3p - np.cos(th + 2 * ph) - np.cos(th + ph) + (2 - a)
    )
    c1v = 48.0 * ROOT3 * shalf * np.sin(th + 1.5 * ph) * (
        a * np.cos(th + 2 * ph)
        + a * np.cos(th + ph)
        + (1 - 2 * a) * cph
        - 1
    )
    nv = (
        256.0
        * shalf ** 2
        * np.sin(th / 2 + ph / 2) ** 2
        * np.sin(th / 2 + ph) ** 2
    )
    return a1v, b1v, c1v, nv


def _b_from_parts(a1v, b1v, c1v, nv):
    disc = np.sqrt((a1v - b1v) ** 2 + c1v * c1v)
    # a point with N = 0 divides by zero; its b is never read
    with np.errstate(divide="ignore", invalid="ignore"):
        # quotient form avoids the catastrophic cancellation near corners
        num = 4 * a1v * b1v - c1v * c1v
        return np.where(a1v + b1v > 0, num / (2 * nv * (a1v + b1v + disc)),
                        (a1v + b1v - disc) / (2 * nv))


N_TOL = 1e-14


def _checked_b(a, th, ph):
    """(mask of N >= N_TOL, A1, B1, C1, N, b) at the points th, ph, from
    one evaluation of the trigonometric forms.  A non-finite a is a
    ValueError."""
    if not math.isfinite(a):
        raise ValueError("need finite a")
    forms = _trig_forms(a, th, ph)
    return (~(forms[3] < N_TOL), *forms, _b_from_parts(*forms))


def triangle_b(a: float, theta: float, phi: float) -> TriangleScanPoint:
    """Trigonometric A1, B1, C1, N and the smallest eigenvalue b(a), through
    the stabilized quotient as in _checked_b; N < N_TOL raises
    DegenerateDenominator."""
    kept, *values = (v[0].item() for v in _checked_b(a, np.array([theta]), np.array([phi])))
    if not kept:
        raise DegenerateDenominator(f"N = {values[3]} at ({theta}, {phi})")
    return TriangleScanPoint(theta, phi, *values)


# scan domain in (theta, phi): the open triangle with these vertices
S0 = (0.0, 0.0)
S1 = (2.0 * math.pi, 0.0)
S2 = (-2.0 * math.pi, 2.0 * math.pi)


def _inside(th, ph, margin=0.0):
    """Mask of the points where each edge form of the scan triangle,
    phi, theta + phi and 2 pi - theta - 2 phi, exceeds margin."""
    return (ph > margin) & (th + ph > margin) & (2.0 * math.pi - th - 2.0 * ph > margin)


def _scan_lattice(m: int):
    """(theta, phi) arrays of the interior lattice of side m, in
    deltoid_grid's order; m < 3 leaves no interior point, a ValueError."""
    if m < 3:
        raise ValueError("need grid >= 3")
    i, j, k = _interior_indices(m)
    th = (i * S0[0] + j * S1[0] + k * S2[0]) / m
    ph = (i * S0[1] + j * S1[1] + k * S2[1]) / m
    return th, ph


def _corner_box(level: int):
    """(theta, phi) arrays of a refinement box at the origin corner: with
    eps = 0.5 / 2^level, 20 evenly spaced theta on [eps/3, eps], each with
    10 evenly spaced phi on [eps/3, eps/2], where every edge form > eps/4."""
    eps = 0.5 / 2 ** level
    lo = eps / 3.0
    th = np.repeat(lo + np.arange(20) * ((eps - lo) / 19), 10)
    ph = np.tile(lo + np.arange(10) * ((eps / 2.0 - lo) / 9), 20)
    keep = _inside(th, ph, eps / 4.0)
    return th[keep], ph[keep]


def triangle_surface(a: float, grid: int):
    """(theta, phi, b) rows, Python floats, of the interior lattice of
    side grid in deltoid_grid's order: triangle_b's b_of_a at each point,
    leaving out the points with N < N_TOL."""
    th, ph = _scan_lattice(grid)
    kept, *_, b = _checked_b(a, th, ph)
    return list(zip(th[kept].tolist(), ph[kept].tolist(), b[kept].tolist()))


@record
class ScanReport:
    a: float
    inf_estimate: float
    argmin: tuple
    trace: tuple
    grid: int
    refined: bool


def scan_inf_b(a: float, grid: int = 80, refine_near_cusps: bool = True) -> ScanReport:
    """Global lattice scan of b(a) plus geometric corner refinement.

    The trace starts at the global-grid minimum and appends the running
    minimum after each corner level; it is nonincreasing by construction
    and, for a = 1/3, settles just above 9/8.  Refinement stops at box
    size 0.5/2^4: beyond that the closed forms lose to rounding even in
    the stabilized quotient.  Each region is one evaluation of the forms;
    points with N < N_TOL or a NaN b are skipped, and the argmin is the
    first point, in the order of the regions and within them, that
    attains the minimum.

    Refinement boxes hug the origin corner only.  The other two corners
    are exact images of it under the 120 degree rotation of the density,
    so they carry the same b values; evaluating their boxes literally
    means feeding the trig forms rotated-chart arguments where, at
    a = 1/3, the 4*A1*B1 - C1^2 cancellation deepens and the quotient
    picks up ~1e-4 of noise, enough to dip below the true infimum.
    A lattice of side grid < 3 has no interior point, so it is a
    ValueError, as in deltoid_grid; so is a non-finite a.
    """
    if not math.isfinite(a):
        raise ValueError("need finite a")
    regions = [_scan_lattice(grid)]
    if refine_near_cusps:
        regions += [_corner_box(level) for level in range(5)]
    best, arg, trace = math.inf, None, []
    for th, ph in regions:
        a1v, b1v, c1v, nv = _trig_forms(a, th, ph)
        b = _b_from_parts(a1v, b1v, c1v, nv)
        b[(nv < N_TOL) | np.isnan(b)] = math.inf
        k = int(np.argmin(b))
        if b[k] < best:
            best = b[k].item()
            arg = (th[k].item(), ph[k].item())
        trace.append(best)
    return ScanReport(
        a=a,
        inf_estimate=best,
        argmin=arg,
        trace=tuple(trace),
        grid=grid,
        refined=refine_near_cusps,
    )


@record
class ProbeReport:
    a: float
    curve: str
    c: float
    thetas: tuple
    b_values: tuple
    b_theta2: tuple
    limit_estimate: float
    sign_matches: bool
    ratio_checks: dict


def divergence_probe(a: float, curve: str = "quad", c: float = 1.0) -> ProbeReport:
    """b(a) along a curve into the corner, with asymptotic ratio checks.

    On phi = c theta^2 the quadratic form degenerates and b theta^2 tends
    to a constant whose sign is that of (3a - 1) flipped, i.e. negative
    exactly when a > 1/3.  The leading coefficients of A1, B1, C1 are
    verified against their limits at theta = 1e-3.  A non-finite a or c
    is a ValueError, and so is a probe point outside the open scan
    triangle, once no probe point has N = 0 (DegenerateDenominator).
    """
    if curve not in ("quad", "lin"):
        raise ValueError(f"unknown curve {curve!r}")
    if not (math.isfinite(a) and math.isfinite(c)):
        raise ValueError("need finite a and c")
    # stop near 4e-3: the b theta^2 rounding error grows like 1e-17/theta^6
    theta_seq = [0.2 * 0.7 ** j for j in range(12)]
    th = np.array(theta_seq)
    ph = c * th * th if curve == "quad" else c * th
    a1v, b1v, c1v, nv = _trig_forms(a, th, ph)
    # N shrinks like theta^8 on the quadratic curve but is a plain
    # product of sines, accurate in relative terms at any magnitude,
    # so only a true zero (point on a lattice line) is fatal here
    zero = np.flatnonzero(nv <= 0.0)
    if zero.size:
        raise DegenerateDenominator(f"N = {nv[zero[0]].item()} on the probe curve")
    outside = np.flatnonzero(~_inside(th, ph))
    if outside.size:
        k = outside[0]
        raise ValueError(f"probe point ({th[k].item()}, {ph[k].item()}) lies outside "
                         "the open triangle")
    bs = _b_from_parts(a1v, b1v, c1v, nv)
    bt2 = bs * th * th
    limit = bt2[-1].item()
    ratio_checks = {}
    if curve == "quad":
        th = 1e-3
        ph = c * th * th
        a1v, b1v, c1v, _ = (v.item() for v in _trig_forms(a, np.array([th]), np.array([ph])))
        targets = {
            "A1/theta^4": (a1v / th ** 4, 12.0 * (1 - a)),
            "B1/theta^6": (b1v / th ** 6, 18.0 * c * c * (1 - 2 * a)),
            "C1/theta^5": (c1v / th ** 5, -24.0 * ROOT3 * c * a),
        }
        for name, (got, want) in targets.items():
            ok = abs(got - want) <= 0.05 * max(1e-30, abs(want))
            ratio_checks[name] = (got, want, ok)
    if abs(1 - 3 * a) < 1e-12:
        sign_ok = abs(limit) < 1e-3  # degenerate case: the limit is zero
    else:
        sign_ok = (limit < 0) == (1 - 3 * a < 0)
    return ProbeReport(
        a=a,
        curve=curve,
        c=c,
        thetas=tuple(theta_seq),
        b_values=tuple(bs.tolist()),
        b_theta2=tuple(bt2.tolist()),
        limit_estimate=limit,
        sign_matches=sign_ok,
        ratio_checks=ratio_checks,
    )


# ---------------------------------------------------------------- route 3

@record
class Gamma2Report:
    lam: object
    rho: float
    n: float
    pairs: int
    min_margin: float
    worst_f: str
    worst_point: complex
    violations: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_real_poly(rng, deg=3):
    """p + conj_swap(p) for p of five random terms of total degree <= deg.

    A term's coefficient is a / b + (c / d) i with a, c drawn from -5..5
    and b, d from 1..3, in the order a, b, c, d; its numerators are
    formed over the den 6, which every b and d divides.  A later term on
    the same monomial replaces an earlier one.
    """
    num = {}
    for _ in range(5):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        re = rng.randrange(-5, 6) * (6 // rng.randrange(1, 4))
        num[(i, j)] = (re, rng.randrange(-5, 6) * (6 // rng.randrange(1, 4)))
    p = _make({k: c for k, c in num.items() if c[0] or c[1]}, 6)
    return p + p.conj_swap()


def _monomial_pairs(funcs):
    """{(key_a, key_b): position} over the pairs a <= b of the sorted
    monomial keys (i, j) of funcs."""
    keys = sorted({k for f in funcs for k in f.num})
    pairs = [(ka, kb) for a, ka in enumerate(keys) for kb in keys[a:]]
    return {pair: pos for pos, pair in enumerate(pairs)}


def _pair_polys(pairs, lam, rho, n):
    """Q_ab = Gamma_2(m_a, m_b) - rho Gamma(m_a, m_b) - (L m_a)(L m_b) / n
    exactly, in the order of pairs, for the monomials m = Z^i Zbar^j;
    rho and n are Rat."""
    mono = {key: BivarPoly.monomial(*key) for pair in pairs for key in pair}
    lm = {key: generator(m, lam) for key, m in mono.items()}
    inv_n = 1 / n
    return [gamma2(mono[a], mono[b], lam) - gamma(mono[a], mono[b]).scale(rho)
            - (lm[a] * lm[b]).scale(inv_n) for a, b in pairs]


def _pair_weights(f, pairs):
    """{pair position: (re, im)}, the weight c_a c_b of f = sum_a c_a m_a
    on Q_ab, doubled for a < b, as a Gaussian integer over f.den ** 2.

    Gamma_2, Gamma and L are bilinear and symmetric, so f's margin
    polynomial is the sum of its weights times the pair polynomials.
    """
    terms = sorted(f.num.items())
    out = {}
    for s, (ka, (ar, ai)) in enumerate(terms):
        for kb, (br, bi) in terms[s:]:
            twice = 1 if ka == kb else 2
            out[pairs[ka, kb]] = (twice * (ar * br - ai * bi), twice * (ar * bi + ai * br))
    return out


def _gamma2_margins(funcs, lam, rho, n, zs):
    """Margins Gamma_2(f,f) - rho Gamma(f,f) - (Lf)^2 / n, one row per f
    and one column per point of zs.

    Each pair polynomial Q_ab is built exactly, once, as a row of one
    PolyTable; the margins are the weights (rounded once each from their
    exact values) summed against the table's values with einsum, not
    BLAS, so the bits do not depend on the thread count.  rho and n
    enter as the exact rationals of their floats.
    """
    pairs = _monomial_pairs(funcs)
    polys = _pair_polys(pairs, lam, as_rat(Fraction(rho)), as_rat(Fraction(n)))
    q = PolyTable([p.complex_coeffs() for p in polys]).values(zs)
    w = np.zeros((len(funcs), len(pairs)), dtype=complex)
    for row, f in zip(w, funcs):
        d2 = f.den * f.den
        for k, (re, im) in _pair_weights(f, pairs).items():
            row[k] = complex(re / d2, im / d2)
    return np.einsum("fp,px->fx", w, q).real


def gamma2_sample_check(lam, rho, n, trials: int = 100, points: int = 100,
                        seed: int = 0, tol: float = 1e-10) -> Gamma2Report:
    """Sampled margins of Gamma_2(f,f) - rho Gamma(f,f) - (Lf)^2 / n.

    Probes the cusp neighbourhoods and f = Z + Zbar deterministically
    before the random sweep: when n dips below 2 lam the violation lives
    exactly there (Gamma vanishes at the cusps but L f does not).  A
    margin below -tol or not finite is a violation; the minimum ranks
    NaN lowest and keeps the first function and point that attain it.
    rho and n must be finite (ValueError otherwise), n > 0, points >= 1
    and trials >= 0; with no trials only the fixed probes run.
    """
    lam = _lam(lam)
    rho = float(rho)
    n = float(n)
    if not (math.isfinite(rho) and math.isfinite(n)):
        raise ValueError("need finite rho and n")
    if n <= 0:
        raise ValueError("need n > 0")
    if points < 1:
        raise ValueError("need points >= 1")
    if trials < 0:
        raise ValueError("need trials >= 0")
    rng = random.Random(seed)

    cusps = [cmath.exp(2j * math.pi * k / 3) * (1 - 1e-3) for k in range(3)]
    det_points = cusps + [0j]
    det_funcs = [
        Z + ZBAR,
        BivarPoly({(1, 0): CRat(Rat(0), Rat(1)), (0, 1): CRat(Rat(0), Rat(-1))}),
        Z * ZBAR,
    ]
    plane = sample_interior(points, "low-discrepancy", seed + 1)
    pool_zs = plane_to_deltoid(np.array([q.x for q in plane]),
                               np.array([q.y for q in plane]))
    # the pool is the suffix of det_zs, so one evaluation serves both
    det_zs = np.concatenate([np.array(det_points, dtype=complex), pool_zs])

    funcs = list(det_funcs)
    for _ in range(trials):
        funcs.append(_random_real_poly(rng))
    margins = _gamma2_margins(funcs, lam, rho, n, det_zs)

    worst = math.inf
    worst_f = None
    worst_z = None
    violations = 0
    pairs = 0
    for idx, f in enumerate(funcs):
        skip = 0 if idx < len(det_funcs) else len(det_points)
        m = margins[idx, skip:]
        pairs += m.size
        violations += int(np.count_nonzero(_failing(m, tol)))
        k = int(np.argmin(m))
        if _below(m[k], worst):
            worst = float(m[k])
            worst_f = repr(f)
            worst_z = complex(det_zs[skip + k])
    return Gamma2Report(
        lam=lam.value,
        rho=rho,
        n=n,
        pairs=pairs,
        min_margin=worst,
        worst_f=worst_f,
        worst_point=worst_z,
        violations=violations,
        tol=tol,
    )
