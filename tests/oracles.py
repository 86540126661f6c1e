"""Independent reference implementations that only tests read.

Each one computes a quantity the package computes another way, so a test
can hold the two against each other.  `replaced` copies a record with some
fields changed, as dataclasses.replace does for a dataclass.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from deltoid import cdcheck, eigen
from deltoid.cdcheck import (N_TOL, RAY_SAMPLES, DegenerateDenominator, FactorizationResult,
                             IdentityMismatch, _b_from_parts, _trig_forms, tensor_residual)
from deltoid.exact import BivarPoly, CRat, Rat, as_rat
from deltoid.geometry import (E, V0, V1, V2, TrianglePoint, _bary_to_plane, _bary_xy,
                              plane_to_deltoid, w_density, zk)
from deltoid.operator import G11, G12, Lambda, gamma, gamma2, generator
from deltoid.su3 import (_NVAR, EntryPoly, _entry_var, _exponents, _mat_of, _std, _unit_key,
                         entry_const, normalized_trace)

ROOT3 = math.sqrt(3.0)


def replaced(obj, **changes):
    """A copy of the record obj with the given fields changed."""
    return type(obj)(**{**vars(obj), **changes})


def _field_moves(x):
    """Per variable v, the (key shift, factor) pairs of the field of x.

    z_kl moves with velocity (U x)_kl = sum_m x[m, l] z_km (see
    field_apply), so v = kl gains one move to km per nonzero x[m, l].
    """
    xs = np.asarray(x, dtype=complex).tolist()
    moves = []
    for block in (0, 9):
        for k in range(3):
            for l in range(3):
                moves.append([
                    (_unit_key(block + 3 * k + m) - _unit_key(block + 3 * k + l),
                     xs[m][l].conjugate() if block else xs[m][l])
                    for m in range(3) if xs[m][l] != 0
                ])
    return moves


def _derive(moves, f):
    # term by term: a factor z_v^p of c z^e gives c p a z^(e - v + w)
    # for each move (w - v, a) of v
    out = {}
    for e, c in f.terms.items():
        for v, p in enumerate(_exponents(e)):
            if p:
                cp = c * p
                for shift, a in moves[v]:
                    key = e + shift
                    out[key] = out.get(key, 0j) + cp * a
    return EntryPoly(out)


def float_frame():
    """su3's frame as float matrices X = sqrt(w) m, from its exact members."""
    frame = _std()
    return tuple(math.sqrt(Fraction(t, 3)) * (re + 1j * im)
                 for t, (re, im) in zip(frame.thirds, frame.members))


@functools.cache
def _frame_moves():
    """_field_moves of each frame member, built on first use."""
    return tuple(_field_moves(x) for x in float_frame())


def field_apply(x, f):
    """Derivation of f along the left-invariant field of the matrix x.

    The flow is U exp(t x), so an entry moves with velocity (U x)_kl,
    which is linear in the entries of the same row; conjugate entries
    move with the conjugated coefficients.
    """
    return _derive(_field_moves(x), f)


def derived_frame_tables():
    """(lz, gam) summed over the frame's field moves, in float arithmetic.

    With X z_v = _derive(moves, z_v), L z_v = sum_X X(X z_v) and
    Gamma(z_v, z_w) = sum_X X(z_v) X(z_w); lz[v] and gam[v][w] are
    tuples of (monomial key, coefficient), the shape of su3's table.
    """
    lz = [EntryPoly() for _ in range(_NVAR)]
    gam = [[EntryPoly() for _ in range(_NVAR)] for _ in range(_NVAR)]
    for moves in _frame_moves():
        first = [_derive(moves, _entry_var(v)) for v in range(_NVAR)]
        for v in range(_NVAR):
            lz[v] += _derive(moves, first[v])
            for w in range(_NVAR):
                gam[v][w] += first[v] * first[w]
    return (tuple(tuple(f.terms.items()) for f in lz),
            tuple(tuple(tuple(f.terms.items()) for f in row) for row in gam))


def _gauss_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def exact_frame():
    """su3.LieBasis's nine members, exactly: (weight, m) with X = sqrt(weight) m.

    m is a 3x3 nested list of Gaussian integers as (re, im) int pairs;
    the weight is 1 for the R and S families and Fraction(2, 3) for the
    Dh family.  Built here from the families' definitions, apart from su3.
    """
    out = []
    for tag in ("R", "S", "Dh"):
        for k, l in ((0, 1), (0, 2), (1, 2)):
            m = [[(0, 0)] * 3 for _ in range(3)]
            if tag == "R":
                m[k][l], m[l][k] = (1, 0), (-1, 0)
            elif tag == "S":
                m[k][l] = m[l][k] = (0, 1)
            else:
                m[k][k], m[l][l] = (0, 1), (0, -1)
            out.append((Fraction(2, 3) if tag == "Dh" else Fraction(1), m))
    return out


def exact_frame_products(conj_x, conj_y):
    """{(a, b, c, d): (re, im)} of sum_X x_ab y_cd over exact_frame(),
    in Fractions, with x = conj X if conj_x else X, and y likewise."""
    frame = exact_frame()
    out = {}
    for a, b, c, d in itertools.product(range(3), repeat=4):
        re = im = Fraction(0)
        for weight, m in frame:
            x, y = m[a][b], m[c][d]
            x = (x[0], -x[1]) if conj_x else x
            y = (y[0], -y[1]) if conj_y else y
            pr, pi = _gauss_mul(x, y)
            re += weight * pr
            im += weight * pi
        out[(a, b, c, d)] = (re, im)
    return out


def exact_frame_numerators():
    """{(v, w): {monomial key: n}}: Gamma(z_v, z_w) = sum n/3 z^key, exactly.

    For v = 9 s + 3 i + j, X z_v = sum_a z_(9 s + 3 i + a) x_aj with x = X,
    or conj X for a conjugate (s = 1), so Gamma(z_v, z_w) =
    sum_(a, b) z_(9 s + 3 i + a) z_(9 t + 3 k + b) sum_X x_aj y_bl, summed
    over exact_frame() in Fractions.  Raises ArithmeticError unless every
    coefficient is real with 3 n an integer.
    """
    sums = {(s, t): exact_frame_products(s, t) for s in (0, 1) for t in (0, 1)}
    out = {}
    for v in range(_NVAR):
        s, i, j = v // 9, v % 9 // 3, v % 3
        for w in range(_NVAR):
            t, k, l = w // 9, w % 9 // 3, w % 3
            num = {}
            for a in range(3):
                for b in range(3):
                    re, im = sums[(s, t)][(a, j, b, l)]
                    key = _unit_key(9 * s + 3 * i + a) + _unit_key(9 * t + 3 * k + b)
                    num[key] = num.get(key, Fraction(0)) + re
                    if im:
                        raise ArithmeticError(f"Gamma({v}, {w}) has an imaginary coefficient")
            for key, c in num.items():
                if (3 * c).denominator != 1:
                    raise ArithmeticError(f"Gamma({v}, {w}) has {c}, not n/3")
            out[(v, w)] = {key: int(3 * c) for key, c in num.items() if c}
    return out


def vectorfield_gamma_oracle(f, g, u):
    """Gamma(f, g) at u, summed field by field.

    Kept as a pointwise sum of first-derivative products rather than an
    expansion of the product polynomial or a frame table, so it is an
    independent check on the entrywise closed forms and on su3's
    gamma_fields.
    """
    m = _mat_of(u)
    total = 0j
    for moves in _frame_moves():
        total += _derive(moves, f).eval(m) * _derive(moves, g).eval(m)
    return total


def coefficient_function(x):
    """det(x I - U) = x^3 - 3 Z x^2 + 3 Zbar x - 1 as a function of U."""
    zt = normalized_trace()
    return entry_const(x**3 - 1.0) + zt.scale(-3.0 * x**2) + zt.conj().scale(3.0 * x)


def gamma2_margin_exact(f, lam, rho, n, zs):
    """Gamma_2(f,f) - rho Gamma(f,f) - (Lf)^2 / n at each float point z.

    The margin polynomial is built for f itself, with rho and n the
    exact rationals of their floats, and evaluated in Fraction
    arithmetic at the exact binary value of each z; only the result is
    rounded, once.
    """
    lf = generator(f, lam)
    m = (gamma2(f, f, lam) - gamma(f, f).scale(as_rat(Fraction(rho)))
         - (lf * lf).scale(1 / as_rat(Fraction(n))))
    top = max(max(key) for key in m.num)
    out = []
    for z in zs:
        x, y = Fraction(z.real), Fraction(z.imag)
        pows = [(Fraction(1), Fraction(0))]
        for _ in range(top):
            a, b = pows[-1]
            pows.append((a * x - b * y, a * y + b * x))
        total = Fraction(0)
        for (i, j), (re, im) in m.num.items():
            # Z^i Zbar^j is z^i conj(z)^j
            (a, b), (c, d) = pows[i], pows[j]
            pr, pi = a * c + b * d, b * c - a * d
            total += re * pr - im * pi
        out.append(float(total / m.den))
    return out


def sobolev_term_sum(mp, p, a, t):
    """sum_k k^(2p) exp(-2 a t k^2), one mp.power and one mp.exp per term.

    The sum stops past the peak k^2 = p / (2 a t) at the first term below
    10^-30 of the partial sum.  The exponent is formed in mp arithmetic
    from the float inputs.
    """
    s = mp.mpf(0)
    k = 1
    while True:
        term = mp.power(k, 2 * p) * mp.exp(-2 * mp.mpf(a) * t * k * k)
        s += term
        if k * k * 2 * a * t > 2 * p and term < s * mp.mpf(10) ** (-30):
            return s
        k += 1


def sobolev_reference_value(p, a, t):
    """Float direct sum of the same series, for cross-checking precision."""
    s = 0.0
    k = 1
    while True:
        term = k ** (2.0 * p) * math.exp(-2.0 * a * t * k * k)
        s += term
        if 2 * a * t * k * k > 2 * p and term < s * 1e-18:
            return s
        k += 1


def fraction_moments(lam, degree):
    """{(i, j): m} for the nonzero moments of total degree <= degree at the
    Fraction lam, by the moment recursion run term by term in Fractions
    over every (i, j): the schoolbook form of eigen.MomentTable."""
    m = {(0, 0): Fraction(1)}
    for deg in range(1, degree + 1):
        for i in range(deg + 1):
            j = deg - i
            acc = Fraction(0)
            if i >= 2:
                acc += i * (i - 1) * m.get((i - 2, j + 1), Fraction(0))
            if i >= 1 and j >= 1:
                acc += i * j * m.get((i - 1, j - 1), Fraction(0))
            if j >= 2:
                acc += j * (j - 1) * m.get((i + 1, j - 2), Fraction(0))
            if acc:
                m[(i, j)] = acc / ((lam - 1) * (i + j) + i * i + i * j + j * j)
    return m


class EigenvalueCountMismatch(Exception):
    """A degree space H_k has other than k // 2 + 1 distinct eigenvalues."""


@dataclass(frozen=True)
class HkSpace:
    k: int
    basis: tuple          # EigenPolynomial, p from k down to 0
    sym: tuple            # BivarPoly, (P_pq + P_qp)/2 for p >= q
    antisym: tuple        # BivarPoly, (P_pq - P_qp)/(2i) for p > q
    distinct_eigenvalues: tuple

    @property
    def r_k(self) -> int:
        return len(self.distinct_eigenvalues)


def hk_space(k, lam):
    """All eigenpolynomials of total degree k, each one solved by
    back-substitution, plus their real forms.

    The solves go through the module attribute eigen.solve_eigenpoly, so
    a test can swap the solver out.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    basis = tuple(eigen.solve_eigenpoly(p, k - p, lam) for p in range(k, -1, -1))
    half = CRat(Rat(1, 2))
    neg_half_i = CRat(Rat(0), -Rat(1, 2))
    sym = []
    antisym = []
    for ep in basis:
        if ep.p < ep.q:
            continue
        partner = basis[k - ep.q]  # P_{q,p}; basis[i] has p = k - i
        sym.append((ep.poly + partner.poly).scale(half))
        if ep.p > ep.q:
            antisym.append((ep.poly - partner.poly).scale(neg_half_i))
    mus = sorted({(int(e.mu.numerator), int(e.mu.denominator)) for e in basis})
    distinct = tuple(Rat(n, d) for n, d in mus)
    expected = k // 2 + 1 if k else 1
    if len(distinct) != expected:
        raise EigenvalueCountMismatch(
            f"H_{k} has {len(distinct)} distinct eigenvalues, expected {expected}"
        )
    return HkSpace(k=k, basis=basis, sym=tuple(sym), antisym=tuple(antisym),
                   distinct_eigenvalues=distinct)


def entry_gamma(k, l, r, q, u, kind):
    """Closed-form carre du champ of two coordinate functions at u.

    kind "zz" pairs two plain entries, "zzbar" pairs an entry with a
    conjugate.  Indices 0-based.  On SU(d), d = 3:
    Gamma(z_kl, z_rq) = -2 z_kq z_rl + (2/d) z_kl z_rq and
    Gamma(z_kl, zbar_rq) = 2 (delta_kr delta_lq - (1/d) z_kl zbar_rq).
    """
    m = _mat_of(u)
    if kind == "zz":
        return -2.0 * m[k, q] * m[r, l] + (2.0 / 3) * m[k, l] * m[r, q]
    if kind == "zzbar":
        delta = 1.0 if (k == r and l == q) else 0.0
        return 2.0 * (delta - (1.0 / 3) * m[k, l] * np.conj(m[r, q]))
    raise ValueError(f"unknown kind {kind!r}")


def pushforward_gamma(point: TrianglePoint):
    """(g11, g12, g22) of the mapped Euclidean gradient form at a point.

    Exact derivatives of the map: dZ/dx = (i/3) sum E_k1 z_k and likewise
    in y.  g11 = Zx^2 + Zy^2, g12 = |Zx|^2 + |Zy|^2, g22 = conj(g11);
    these must agree with the polynomial carre du champ entries at Z.
    """
    z = zk(point)
    zx = 1j / 3.0 * sum(E[k][0] * z[k] for k in range(3))
    zy = 1j / 3.0 * sum(E[k][1] * z[k] for k in range(3))
    g11 = zx * zx + zy * zy
    g12 = (zx * zx.conjugate() + zy * zy.conjugate()).real
    return g11, g12, g11.conjugate()


def interior_lattice(m: int):
    """Strictly interior barycentric lattice (i+j+k = m, all >= 1), one
    TrianglePoint at a time: the reference for cdcheck.deltoid_grid.

    Contains the median lines, which map onto the cusp rays.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    pts = []
    for i in range(1, m - 1):
        for j in range(1, m - i):
            k = m - i - j
            if k < 1:
                continue
            pts.append(_bary_to_plane(i / m, j / m, k / m))
    return pts


def closed_lattice(m: int):
    """The barycentric lattice of side m over the closed fundamental
    triangle, mapped into the deltoid as one complex array; its three
    vertices map to the three cusps."""
    # (i, j) row by row, i from 0 to m and j from 0 to m - i
    i, c = np.triu_indices(m + 1)
    x, y = _bary_xy(i, c - i, m - c)
    return plane_to_deltoid(x / m, y / m)


def boundary_points(n: int):
    """n points per edge, strictly between vertices."""
    out = []
    for a, b in ((V0, V1), (V1, V2), (V2, V0)):
        for i in range(1, n + 1):
            t = i / (n + 1)
            out.append(TrianglePoint(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


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


def zu_forms(a, th, ph):
    """A1, B1, C1 on arrays th, ph, from the (z, u) rational form with
    z = e^(i theta), u = e^(i phi): an independent transcription of
    cdcheck._trig_forms at every a."""
    z = np.exp(1j * th)
    u = np.exp(1j * ph)
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
    return (-A / s).real, (-B / s).real, (C / s).real


def route1_b1(a, th, ph):
    """Route 1's reading of 2 b(a) on arrays th, ph: the largest b1 at
    which R(a / 2, b1) is PSD at each point, a entering as the exact
    rational of its float.

    Each (theta, phi) goes to Z through fd_oracle_b's chart.  R(a1, b1)
    = R(a1, 0) - b1 Gamma, so with r = R(a1, 0) and g = Gamma at Z the
    det-type margin (r12 - b1 g12)^2 - |r11 - b1 g11|^2 is the quadratic
    qa b1^2 - 2 qb b1 + qc, with qa = det Gamma > 0 inside.  R is PSD
    exactly up to its lesser root, the least eigenvalue of r against g.
    tensor_residual is read from cdcheck at each call, so a test can
    substitute it.
    """
    z = plane_to_deltoid(th / 3.0, (th + 2.0 * ph) / ROOT3)
    r = cdcheck.tensor_residual(as_rat(Fraction(a) / 2), 0)
    r11, r12 = r.r11.eval(z), r.r12.eval(z).real
    g11, g12 = G11.eval(z), G12.eval(z).real
    qa = g12 * g12 - (g11 * g11.conjugate()).real
    qb = r12 * g12 - (r11 * g11.conjugate()).real
    qc = r12 * r12 - (r11 * r11.conjugate()).real
    # the pencil is Hermitian against a definite g, so its roots are real:
    # a negative discriminant is rounding where they meet (the centre)
    root = np.sqrt(np.maximum(qb * qb - qa * qc, 0.0))
    # the quotient form where qb > 0 avoids cancelling qb against root
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(qb > 0, qc / (qb + root), (qb - root) / qa)


def assert_routes_agree(a, th, ph, b, bound):
    """Raise AssertionError naming the first point k where route 2's 2 b[k]
    and route1_b1 differ by more than bound * max(1, |b1|), or by NaN."""
    b1 = route1_b1(a, th, ph)
    gap = abs(2.0 * b - b1) / np.maximum(1.0, abs(b1))
    past = np.flatnonzero(~(gap <= bound))
    if past.size:
        k = past[0]
        raise AssertionError(
            f"routes part at point {k}, (theta, phi) = ({th[k]}, {ph[k]}): "
            f"2 b = {2.0 * b[k]}, route 1 b1 = {b1[k]}, gap {gap[k]} > {bound}")


def b_one_third_forms(theta: float, phi: float):
    """The four closed forms of b(1/3) at one scan point.

    Returns (trig, zu, xw, t) values; they agree to ~1e-11 at interior
    points, which the representation-agreement tests pin down.
    """
    a1v, b1v, c1v, nv = _trig_forms(1 / 3, theta, phi)
    if nv < N_TOL:
        raise DegenerateDenominator(f"N = {nv} at ({theta}, {phi})")
    b_trig = _b_from_parts(a1v, b1v, c1v, nv)

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


def bivar_from_records(records):
    """The BivarPoly of BivarPoly.to_records() output: the inverse of the
    JSON coefficient records, one CRat per (i, j)."""
    terms = {}
    for r in records:
        terms[(r["i"], r["j"])] = CRat(
            Rat(r["re_num"], r["re_den"]), Rat(r["im_num"], r["im_den"])
        )
    return BivarPoly(terms)


# -- route 1 on Rat lists -------------------------------------------------
# The ray factorization and sign sweep on coefficient lists, lowest power
# first, with one Rat per coefficient and per operation: a reference for
# cdcheck's integer pairs and integer Horner sweep.

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


def rat_list_factorization_check(a1, b1) -> FactorizationResult:
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


def rat_list_ray_nonneg_on_unit(a1, b1):
    a1 = as_rat(a1)
    b1 = as_rat(b1)
    res = rat_list_factorization_check(a1, b1)
    ray = list(res.ray)
    worst = None
    worst_rho = None
    for k in range(RAY_SAMPLES + 1):
        rho = Rat(k, RAY_SAMPLES)
        v = _u_eval(ray, rho)
        if worst is None or v < worst:
            worst = v
            worst_rho = rho
    return worst >= 0, worst, worst_rho


def rat_random_real_poly(rng, deg=3):
    """cdcheck._random_real_poly with one Rat per drawn part."""
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
