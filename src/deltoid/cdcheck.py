"""Curvature-dimension verification by three independent routes.

Route 1: exact tensor algebra.  R = (3 - b1) Gamma - (3/2) D Gamma - 9 a1 M
is a polynomial tensor; positivity reduces to two scalar margins, and on
the cusp ray Z = Zbar = rho everything collapses to a univariate
polynomial with a known factorization that is checked identically.

Route 2: the triangle picture.  b(a) is the smallest eigenvalue of
-Hess(sigma) - a grad(sigma) grad(sigma)^T with sigma = (1/2) log W; the
closed trigonometric forms A1, B1, C1, N are frozen here and are
cross-checked against an independent (z, u) rational form on every call,
and against a finite-difference Hessian in the tests.  The a = 1/3
infimum 9/8 is approached via a corner-refined scan.

Route 3: direct sampling of Gamma_2(f, f) >= rho Gamma(f, f) + (Lf)^2 / n
over random polynomial test functions and interior points.

The three routes exercise deliberately disjoint code paths.
"""

import cmath
import math
import random
from dataclasses import dataclass
from itertools import product

from .exact import BivarPoly, CRat, Rat, Z, ZBAR, as_rat
from .geometry import (
    DeltoidPoint,
    interior_lattice,
    sample_interior,
    triangle_to_deltoid,
    w_density,
    TrianglePoint,
)
from .operator import (
    GammaMatrix,
    HermitianTensorField,
    Lambda,
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


@dataclass(frozen=True)
class CDParams:
    """One curvature-dimension datum in both bookkeeping forms.

    (rho, n) is the inequality for the operator at this lam; (a1, b1) are
    the log P tensor weights.  rho = (lam-1) b1 / 3 and n - 2 =
    (lam-1)/(3 a1) tie them together; (1/6, 9/4) <-> (3(lam-1)/4, 2 lam).
    """

    lam: object
    rho: object
    n: object
    a1: object
    b1: object

    @staticmethod
    def from_logp(lam, a1, b1) -> "CDParams":
        lv = Lambda(lam).value
        a1 = as_rat(a1)
        b1 = as_rat(b1)
        if lv <= 1:
            raise ValueError("conversion needs lam > 1")
        if a1 == 0:
            raise ValueError("a1 = 0 has no finite dimension")
        rho = (lv - 1) * b1 / 3
        n = 2 + (lv - 1) / (3 * a1)
        return CDParams(lam=lv, rho=rho, n=n, a1=a1, b1=b1)

    @staticmethod
    def from_cd(lam, rho, n) -> "CDParams":
        lv = Lambda(lam).value
        rho = as_rat(rho)
        n = as_rat(n)
        if lv <= 1:
            raise ValueError("conversion needs lam > 1")
        if n <= 2:
            raise ValueError("need n > 2")
        b1 = 3 * rho / (lv - 1)
        a1 = (lv - 1) / (3 * (n - 2))
        return CDParams(lam=lv, rho=rho, n=n, a1=a1, b1=b1)


# ---------------------------------------------------------------- route 1

def tensor_residual(a1, b1) -> HermitianTensorField:
    """R = (3 - b1) Gamma - (3/2) D Gamma - 9 a1 M, exact entries.

    M is the outer tensor with entries (Z^2, Z Zbar, Zbar^2); the stored
    outer_logP carries the factor 9 already.
    """
    a1 = as_rat(a1)
    b1 = as_rat(b1)
    g = GammaMatrix.deltoid()

    def entry(gp):
        return gp.scale(Rat(3) - b1) - gp.euler().scale(Rat(3, 2))

    m = outer_logP()
    return HermitianTensorField(
        entry(g.g11) - m.r11.scale(a1),
        entry(g.g12) - m.r12.scale(a1),
        entry(g.g22) - m.r22.scale(a1),
    )


@dataclass(frozen=True)
class PsdReport:
    a1: object
    b1: object
    count: int
    failures: int
    min_margin1: float
    min_margin2: float
    worst_point: complex
    tol: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def psd_check(t: HermitianTensorField, points, tol: float = 1e-12) -> PsdReport:
    """Pointwise positivity of a Hermitian tensor on the given points.

    Both margins (off-diagonal entry, and its square minus the product of
    the diagonal) must clear -tol.
    """
    worst1 = math.inf
    worst2 = math.inf
    worst_pt = None
    fails = 0
    n = 0
    for d in points:
        z = d.Z if isinstance(d, DeltoidPoint) else complex(d)
        m1, m2 = t.psd_margins(z)
        n += 1
        if m1 < worst1:
            worst1 = m1
        if m2 < worst2:
            worst2 = m2
            worst_pt = z
        if m1 < -tol or m2 < -tol:
            fails += 1
    return PsdReport(
        a1=None,
        b1=None,
        count=n,
        failures=fails,
        min_margin1=worst1,
        min_margin2=worst2,
        worst_point=worst_pt,
        tol=tol,
    )


def deltoid_grid(m: int):
    """Mapped barycentric grid; includes the medians, hence the cusp rays."""
    return [triangle_to_deltoid(p) for p in interior_lattice(m)]


# exact univariate helpers, coefficient lists lowest power first

def _u_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _u_add(p, q):
    r = [Rat(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        r[i] += c
    for i, c in enumerate(q):
        r[i] += c
    return _u_trim(r)


def _u_neg(p):
    return [-c for c in p]


def _u_mul(p, q):
    if not p or not q:
        return []
    r = [Rat(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            r[i + j] += a * b
    return _u_trim(r)


def _u_scale(p, c):
    return _u_trim([a * c for a in p])


def _u_eval(p, x):
    acc = Rat(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
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
    ray = _u_trim([Rat(c, m2.den) for c in ray])

    lin1 = [Rat(1), Rat(-1)]                      # 1 - rho
    lin2 = [Rat(3) - b1, b1]                      # 3 - b1 + b1 rho
    quad = [Rat(3) - b1, Rat(3) - 2 * b1, 3 * (b1 - 12 * a1)]
    want = _u_scale(_u_mul(_u_mul(lin1, lin2), quad), Rat(1, 4))
    diff = _u_add(ray, _u_neg(want))
    if diff:
        raise IdentityMismatch(f"ray factorization differs: {diff}", tuple(diff))

    reduced = False
    if a1 == Rat(1, 6):
        sq = _u_mul(lin1, lin1)
        lin3 = [Rat(3) - b1, 3 * (Rat(2) - b1)]
        want2 = _u_scale(_u_mul(_u_mul(lin2, sq), lin3), Rat(1, 4))
        diff2 = _u_add(ray, _u_neg(want2))
        if diff2:
            raise IdentityMismatch(f"reduced form differs: {diff2}", tuple(diff2))
        reduced = True

    return FactorizationResult(
        a1=a1, b1=b1, ray=tuple(ray), k_const=k_want, reduced_form_checked=reduced
    )


def factorization_sweep(values_a1=None, values_b1=None):
    """The 5x5 rational grid sweep of factorization_check."""
    if values_a1 is None:
        values_a1 = [Rat(0), Rat(1, 12), Rat(1, 6), Rat(1, 4), Rat(1, 3)]
    if values_b1 is None:
        values_b1 = [Rat(0), Rat(3, 4), Rat(3, 2), Rat(9, 4), Rat(3)]
    return [factorization_check(a, b) for a in values_a1 for b in values_b1]


def ray_nonneg_on_unit(a1, b1, samples: int = 257):
    """Exact-rational sign sweep of the ray polynomial on [0, 1].

    Returns (all nonnegative, worst value, worst rho).  The violating
    window for b1 slightly above 9/4 hugs rho = 1, so the sample count
    should stay above ~64.
    """
    a1 = as_rat(a1)
    b1 = as_rat(b1)
    res = factorization_check(a1, b1)
    ray = list(res.ray)
    worst = None
    worst_rho = None
    for k in range(samples + 1):
        rho = Rat(k, samples)
        v = _u_eval(ray, rho)
        if worst is None or v < worst:
            worst = v
            worst_rho = rho
    return worst >= 0, worst, worst_rho


# ---------------------------------------------------------------- route 2

@dataclass(frozen=True)
class TriangleScanPoint:
    theta: float
    phi: float
    A1: float
    B1: float
    C1: float
    N: float
    b_of_a: float


def _trig_forms(a, th, ph):
    c2t3p = math.cos(2 * th + 3 * ph)
    chalf = math.cos(ph / 2)
    cmid = math.cos(th + 1.5 * ph)
    cph = math.cos(ph)
    a1v = -12.0 * (
        2 * c2t3p * (a * chalf * chalf - 1)
        - 2 * chalf * cmid * ((4 * a + 1) * cph - 5)
        + 2 * a * math.cos(2 * ph)
        + a * cph
        + 3 * (a - 2)
    )
    shalf = math.sin(ph / 2)
    b1v = 72.0 * shalf * shalf * (
        a * c2t3p - math.cos(th + 2 * ph) - math.cos(th + ph) + (2 - a)
    )
    c1v = 48.0 * ROOT3 * shalf * math.sin(th + 1.5 * ph) * (
        a * math.cos(th + 2 * ph)
        + a * math.cos(th + ph)
        + (1 - 2 * a) * cph
        - 1
    )
    nv = (
        256.0
        * shalf ** 2
        * math.sin(th / 2 + ph / 2) ** 2
        * math.sin(th / 2 + ph) ** 2
    )
    return a1v, b1v, c1v, nv


def _zu_forms(a, th, ph):
    z = cmath.exp(1j * th)
    u = cmath.exp(1j * ph)
    s = z * z * u ** 4
    A = 3 * (
        (a * (u * u + 1) + (2 * a - 4) * u) * (1 + u ** 6 * z ** 4)
        - z * u * (u + 1) * (4 * a * (u * u + 1) + u * u - 10 * u + 1) * (1 + z * z * u ** 3)
        + 2 * u * u * z * z * (2 * a * (u ** 4 + 1) + a * (u ** 3 + u) + (6 * a - 12) * u * u)
    )
    B = 9 * (u - 1) ** 2 * (
        a * (u ** 6 * z ** 4 + 1)
        - (u ** 5 * z ** 3 + u * z)
        - (u ** 4 * z ** 3 + u * u * z)
        + (4 - 2 * a) * u ** 3 * z * z
    )
    C = 6 * ROOT3 * (u - 1) * (1 - z * z * u ** 3) * (
        a * (u ** 4 * z * z + 1)
        + a * (u ** 3 * z * z + u)
        + (1 - 2 * a) * (u ** 3 * z + u * z)
        - 2 * u * u * z
    )
    va = -A / s
    vb = -B / s
    vc = C / s
    return va.real, vb.real, vc.real


def _b_from_parts(a1v, b1v, c1v, nv):
    disc = math.sqrt((a1v - b1v) ** 2 + c1v * c1v)
    if a1v + b1v > 0:
        # quotient form avoids the catastrophic cancellation near corners
        num = 4 * a1v * b1v - c1v * c1v
        return num / (2 * nv * (a1v + b1v + disc))
    return (a1v + b1v - disc) / (2 * nv)


N_TOL = 1e-14


def triangle_b(a: float, theta: float, phi: float, cross_check: bool = True,
               tol: float = 1e-9) -> TriangleScanPoint:
    """Trigonometric A1, B1, C1, N and the smallest eigenvalue b(a).

    Always evaluates through the stabilized quotient, and optionally
    cross-checks the independent (z, u) rational forms; disagreement
    raises rather than picking a side (a transcription bug, not noise).
    """
    a1v, b1v, c1v, nv = _trig_forms(a, theta, phi)
    if nv < N_TOL:
        raise DegenerateDenominator(f"N = {nv} at ({theta}, {phi})")
    if cross_check:
        za, zb, zc = _zu_forms(a, theta, phi)
        scale = max(1.0, abs(a1v), abs(b1v), abs(c1v))
        if (
            abs(za - a1v) > tol * scale
            or abs(zb - b1v) > tol * scale
            or abs(zc - c1v) > tol * scale
        ):
            raise IdentityMismatch(
                f"(z,u) and trig forms disagree at ({theta}, {phi}): "
                f"{(za, zb, zc)} vs {(a1v, b1v, c1v)}"
            )
    return TriangleScanPoint(
        theta=theta,
        phi=phi,
        A1=a1v,
        B1=b1v,
        C1=c1v,
        N=nv,
        b_of_a=_b_from_parts(a1v, b1v, c1v, nv),
    )


def fd_oracle_b(a: float, theta: float, phi: float, h: float = 3e-4) -> float:
    """Finite-difference eigenvalue oracle, independent of the closed forms.

    Works in the Euclidean plane coordinates x = theta/3,
    y = (theta + 2 phi)/sqrt(3), where sigma = (1/2) log W; valid away
    from the boundary lines (the derivatives of sigma blow up there).
    """
    x0 = theta / 3.0
    y0 = (theta + 2.0 * phi) / ROOT3

    def sig(x, y):
        return 0.5 * math.log(w_density(TrianglePoint(x, y)))

    s0 = sig(x0, y0)
    sxx = (sig(x0 + h, y0) - 2 * s0 + sig(x0 - h, y0)) / (h * h)
    syy = (sig(x0, y0 + h) - 2 * s0 + sig(x0, y0 - h)) / (h * h)
    sxy = (
        sig(x0 + h, y0 + h)
        - sig(x0 + h, y0 - h)
        - sig(x0 - h, y0 + h)
        + sig(x0 - h, y0 - h)
    ) / (4 * h * h)
    gx = (sig(x0 + h, y0) - sig(x0 - h, y0)) / (2 * h)
    gy = (sig(x0, y0 + h) - sig(x0, y0 - h)) / (2 * h)
    t11 = -sxx - a * gx * gx
    t12 = -sxy - a * gx * gy
    t22 = -syy - a * gy * gy
    return 0.5 * ((t11 + t22) - math.hypot(t11 - t22, 2 * t12))


def b_one_third_forms(theta: float, phi: float):
    """The four closed forms of b(1/3) at one scan point.

    Returns (trig, zu, xw, t) values; they agree to ~1e-11 at interior
    points, which the representation-agreement tests pin down.
    """
    sp = triangle_b(1.0 / 3.0, theta, phi, cross_check=False)
    b_trig = sp.b_of_a

    z = cmath.exp(1j * theta)
    u = cmath.exp(1j * phi)
    P = (
        (u * u - 4 * u + 1) * (1 + u ** 6 * z ** 4)
        - 4 * z * u * (u + 1) * (u * u - 3 * u + 1) * (1 + z * z * u ** 3)
        + u * u * z * z * (u ** 4 + 8 * u ** 3 - 30 * u * u + 8 * u + 1)
    )
    f1 = z * z * u ** 4 - z * u ** 3 - z * u * u + u * u - u + 1
    f2 = z * z * u * u - z * z * u ** 3 + z * z * u ** 4 - z * u - z * u * u + 1
    f3 = z * z * u ** 4 + z * z * u ** 3 + z * u ** 3 - 6 * z * u * u + z * u + u + 1
    Q = f1 * f2 * f3 * f3
    D = (u - 1) ** 2 * (z * u * u - 1) ** 2 * (z * u - 1) ** 2
    if abs(D) < N_TOL:
        raise DegenerateDenominator(f"D = {D} at ({theta}, {phi})")
    sq = cmath.sqrt(Q)
    e1 = (P - sq) / (2 * D)
    e2 = (P + sq) / (2 * D)
    b_zu = min(e1.real, e2.real)

    x = math.cos(phi / 2)
    yv = math.cos(theta + 1.5 * phi)
    w = yv - x
    one_m_x2 = 1 - x * x
    if abs(w) < 1e-13 or one_m_x2 < 1e-13:
        raise DegenerateDenominator(f"xw form degenerate at ({theta}, {phi})")
    num = 2 * one_m_x2 - x * w
    rad = num * num - 3 * w * w * one_m_x2
    b_xw = 0.25 * (num * num + 3 * w * w * one_m_x2 - num * math.sqrt(rad)) / (
        one_m_x2 * w * w
    )

    t = num / (abs(w) * math.sqrt(one_m_x2))
    b_t = b_one_third_of_t(t)
    return b_trig, b_zu, b_xw, b_t


def b_one_third_of_t(t: float) -> float:
    """b(1/3) = (t^2 + 3 - t sqrt(t^2 - 3))/4 on t >= sqrt(3), inf 9/8."""
    return 0.25 * (t * t + 3 - t * math.sqrt(max(t * t - 3, 0.0)))


# scan domain in (theta, phi): the open triangle with these vertices
S0 = (0.0, 0.0)
S1 = (2.0 * math.pi, 0.0)
S2 = (-2.0 * math.pi, 2.0 * math.pi)


def _scan_lattice(m: int):
    pts = []
    for i in range(1, m - 1):
        for j in range(1, m - i):
            k = m - i - j
            if k < 1:
                continue
            th = (i * S0[0] + j * S1[0] + k * S2[0]) / m
            ph = (i * S0[1] + j * S1[1] + k * S2[1]) / m
            pts.append((th, ph))
    return pts


def _linspace(a, b, n):
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


def _edge_min(th, ph):
    return min(ph, th + ph, 2.0 * math.pi - th - 2.0 * ph)


@dataclass(frozen=True)
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
    the stabilized quotient.

    Refinement boxes hug the origin corner only.  The other two corners
    are exact images of it under the 120 degree rotation of the density,
    so they carry the same b values; evaluating their boxes literally
    means feeding the trig forms rotated-chart arguments where, at
    a = 1/3, the 4*A1*B1 - C1^2 cancellation deepens and the quotient
    picks up ~1e-4 of noise, enough to dip below the true infimum.
    """
    best = math.inf
    arg = None
    for th, ph in _scan_lattice(grid):
        a1v, b1v, c1v, nv = _trig_forms(a, th, ph)
        if nv < N_TOL:
            continue
        b = _b_from_parts(a1v, b1v, c1v, nv)
        if b < best:
            best = b
            arg = (th, ph)
    trace = [best]
    if refine_near_cusps:
        for k in range(5):
            eps = 0.5 / 2 ** k
            for th, ph in product(
                _linspace(eps / 3.0, eps, 20), _linspace(eps / 3.0, eps / 2.0, 10)
            ):
                if _edge_min(th, ph) <= eps / 4.0:
                    continue
                a1v, b1v, c1v, nv = _trig_forms(a, th, ph)
                if nv < N_TOL:
                    continue
                b = _b_from_parts(a1v, b1v, c1v, nv)
                if b < best:
                    best = b
                    arg = (th, ph)
            trace.append(best)
    return ScanReport(
        a=a,
        inf_estimate=best,
        argmin=arg,
        trace=tuple(trace),
        grid=grid,
        refined=refine_near_cusps,
    )


@dataclass(frozen=True)
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


def divergence_probe(a: float, curve: str = "quad", c: float = 1.0,
                     theta_seq=None) -> ProbeReport:
    """b(a) along a curve into the corner, with asymptotic ratio checks.

    On phi = c theta^2 the quadratic form degenerates and b theta^2 tends
    to a constant whose sign is that of (3a - 1) flipped, i.e. negative
    exactly when a > 1/3.  The leading coefficients of A1, B1, C1 are
    verified against their limits at theta = 1e-3.
    """
    if curve not in ("quad", "lin"):
        raise ValueError(f"unknown curve {curve!r}")
    if theta_seq is None:
        # stop near 4e-3: the b theta^2 rounding error grows like 1e-17/theta^6
        theta_seq = [0.2 * 0.7 ** j for j in range(12)]
    bs = []
    bt2 = []
    for th in theta_seq:
        ph = c * th * th if curve == "quad" else c * th
        a1v, b1v, c1v, nv = _trig_forms(a, th, ph)
        # N shrinks like theta^8 on the quadratic curve but is a plain
        # product of sines, accurate in relative terms at any magnitude,
        # so only a true zero (point on a lattice line) is fatal here
        if nv <= 0.0:
            raise DegenerateDenominator(f"N = {nv} on the probe curve")
        b = _b_from_parts(a1v, b1v, c1v, nv)
        bs.append(b)
        bt2.append(b * th * th)
    limit = bt2[-1]
    ratio_checks = {}
    if curve == "quad":
        th = 1e-3
        ph = c * th * th
        a1v, b1v, c1v, _ = _trig_forms(a, th, ph)
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
        b_values=tuple(bs),
        b_theta2=tuple(bt2),
        limit_estimate=limit,
        sign_matches=sign_ok,
        ratio_checks=ratio_checks,
    )


# ---------------------------------------------------------------- route 3

@dataclass(frozen=True)
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
    g = {}
    for _ in range(5):
        i = rng.randrange(deg + 1)
        j = rng.randrange(deg + 1 - i)
        g[(i, j)] = CRat(
            Rat(rng.randrange(-5, 6), rng.randrange(1, 4)),
            Rat(rng.randrange(-5, 6), rng.randrange(1, 4)),
        )
    p = BivarPoly(g)
    return p + p.conj_swap()


def gamma2_sample_check(lam, rho, n, trials: int = 100, points: int = 100,
                        seed: int = 0, tol: float = 1e-10) -> Gamma2Report:
    """Sampled margins of Gamma_2(f,f) - rho Gamma(f,f) - (Lf)^2 / n.

    Probes the cusp neighbourhoods and f = Z + Zbar deterministically
    before the random sweep: when n dips below 2 lam the violation lives
    exactly there (Gamma vanishes at the cusps but L f does not).
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    rho = float(rho)
    n = float(n)
    if n <= 0:
        raise ValueError("need n > 0")
    rng = random.Random(seed)

    cusps = [cmath.exp(2j * math.pi * k / 3) * (1 - 1e-3) for k in range(3)]
    det_points = cusps + [0j]
    det_funcs = [
        Z + ZBAR,
        BivarPoly({(1, 0): CRat(Rat(0), Rat(1)), (0, 1): CRat(Rat(0), Rat(-1))}),
        Z * ZBAR,
    ]
    pool = [triangle_to_deltoid(p).Z for p in
            sample_interior(points, "low-discrepancy", seed + 1)]

    funcs = list(det_funcs)
    for _ in range(trials):
        funcs.append(_random_real_poly(rng))

    worst = math.inf
    worst_f = None
    worst_z = None
    violations = 0
    pairs = 0
    for idx, f in enumerate(funcs):
        g2 = gamma2(f, f, lam)
        g1 = gamma(f, f)
        lf = generator(f, lam)
        pts = det_points + pool if idx < len(det_funcs) else pool
        for z in pts:
            m = (
                g2.eval(z).real
                - rho * g1.eval(z).real
                - lf.eval(z).real ** 2 / n
            )
            pairs += 1
            if m < worst:
                worst = m
                worst_f = repr(f)
                worst_z = z
            if m < -tol:
                violations += 1
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
