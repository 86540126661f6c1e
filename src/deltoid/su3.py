"""The SU(3) Casimir model behind the lambda = 4 operator.

The group carries nine left-invariant fields: the real antisymmetric
family R, the imaginary symmetric family S, and the diagonal family Dh
scaled so the diagonal directions enter the Casimir sum with weight 2/3.
Everything here is built from that frame: the carre du champ as a sum
over fields, the Casimir generator by nesting them, Ricci by commutator
outer products, and the pushforward along Z = tr(U)/3 that lands exactly
on the deltoid operator at lambda = 4.

Polynomials in matrix entries are kept symbolic (complex coefficients on
18 variables, nine entries and nine conjugates) so that second-order
quantities are assembled without finite differencing.
"""

import numpy as np

from .exact import BivarPoly
from .operator import Lambda, gamma as deltoid_gamma, generator as deltoid_generator

# diagonal scaling that gives the Cartan directions Casimir weight 2/3
DIAG_WEIGHT = np.sqrt(2.0 / 3.0)

_PAIRS = ((0, 1), (0, 2), (1, 2))
_NVAR = 18
_ZERO_EXP = (0,) * _NVAR


class NonConstantRicci(ArithmeticError):
    """The commutator quadratic form failed to be a multiple of the metric."""


def _unit(k, l):
    m = np.zeros((3, 3), dtype=complex)
    m[k, l] = 1.0
    return m


def _family_r(k, l):
    return _unit(k, l) - _unit(l, k)


def _family_s(k, l):
    return 1j * (_unit(k, l) + _unit(l, k))


def _family_d(k, l):
    return DIAG_WEIGHT * 1j * (_unit(k, k) - _unit(l, l))


class SpecialUnitary3:
    """A validated SU(3) element.

    Wraps a 3x3 complex matrix and refuses anything that is not unitary
    with determinant one to 1e-12.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if np.abs(m.conj().T @ m - np.eye(3)).max() >= 1e-12:
            raise ValueError("matrix is not unitary to 1e-12")
        if abs(np.linalg.det(m) - 1.0) >= 1e-12:
            raise ValueError("determinant is not 1 to 1e-12")
        m.setflags(write=False)
        self.matrix = m

    def __repr__(self):
        return f"SpecialUnitary3(trace={np.trace(self.matrix):.6f})"


class LieBasis:
    """The nine-field frame R12, R13, R23, S12, S13, S23, Dh12, Dh13, Dh23.

    The three Dh directions span a two-dimensional Cartan, so this is a
    frame rather than a basis, but every commutator of two members is a
    multiple of a single member, which keeps the structure table simple.
    Construction checks antihermitian tracelessness and the Casimir
    normalization sum X_i^2 = -(16/3) I.
    """

    __slots__ = ("names", "matrices")

    def __init__(self):
        names = []
        mats = []
        for tag, build in (("R", _family_r), ("S", _family_s), ("Dh", _family_d)):
            for k, l in _PAIRS:
                names.append(f"{tag}{k + 1}{l + 1}")
                mats.append(build(k, l))
        for nm, x in zip(names, mats):
            if np.abs(x + x.conj().T).max() > 1e-15 or abs(np.trace(x)) > 1e-15:
                raise AssertionError(f"{nm} is not antihermitian traceless")
        cas = sum(x @ x for x in mats)
        if np.abs(cas + (16.0 / 3.0) * np.eye(3)).max() > 1e-14:
            raise AssertionError("Casimir normalization broken")
        self.names = tuple(names)
        self.matrices = tuple(mats)

    def __iter__(self):
        return iter(zip(self.names, self.matrices))


_STD = LieBasis()


def haar_sample(seed, n):
    """Draw n Haar-distributed SU(3) elements, deterministic per seed.

    Each sample gets its own generator stream spawned from the master
    seed, so the draw order is reproducible even if samples are computed
    in parallel.  Orthonormalize a complex Gaussian matrix, fix the QR
    phase ambiguity with the signs of the triangular diagonal, then
    divide by a cube root of the determinant.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    out = []
    for stream in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(stream)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        q = q / np.linalg.det(q) ** (1.0 / 3.0)
        out.append(SpecialUnitary3(q))
    return out


def _mat_of(u):
    return u.matrix if isinstance(u, SpecialUnitary3) else np.asarray(u, dtype=complex)


# ---------------------------------------------------------------------------
# symbolic entry polynomials


class EntryPoly:
    """Polynomial in the nine entries z_kl and their conjugates.

    Exponent tuples are 18 long: entries row-major first, conjugates
    after.  Coefficients are complex doubles; the algebra only nests two
    derivations deep, so doubles lose nothing measurable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = complex(c)
                if c != 0:
                    clean[e] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0j) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = EntryPoly()
        res.terms = out
        return res

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, EntryPoly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0j) + c1 * c2
        return EntryPoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        s = complex(s)
        res = EntryPoly()
        res.terms = {e: c * s for e, c in self.terms.items()} if s != 0 else {}
        return res

    def diff(self, var):
        out = {}
        for e, c in self.terms.items():
            p = e[var]
            if p:
                e2 = list(e)
                e2[var] = p - 1
                out[tuple(e2)] = c * p
        res = EntryPoly()
        res.terms = out
        return res

    def conj(self):
        """Complex conjugate: swap entry and conjugate blocks, conjugate coefficients."""
        out = {}
        for e, c in self.terms.items():
            out[e[9:] + e[:9]] = c.conjugate()
        res = EntryPoly()
        res.terms = out
        return res

    def eval(self, u):
        m = _mat_of(u)
        vals = np.concatenate([m.ravel(), m.conj().ravel()])
        total = 0j
        for e, c in self.terms.items():
            t = c
            for v, p in enumerate(e):
                if p:
                    t *= vals[v] ** p
            total += t
        return total

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def __repr__(self):
        return f"EntryPoly({len(self.terms)} terms)"


def entry_const(c):
    return EntryPoly({_ZERO_EXP: c})


def _entry_var(v):
    e = [0] * _NVAR
    e[v] = 1
    return EntryPoly({tuple(e): 1.0})


def entry_z(k, l):
    """The coordinate function U -> U[k, l], indices 0-based."""
    return _entry_var(3 * k + l)


def entry_zbar(k, l):
    return _entry_var(9 + 3 * k + l)


def normalized_trace():
    """Z = tr(U)/3, the map onto the deltoid."""
    out = EntryPoly()
    for k in range(3):
        out = out + entry_z(k, k).scale(1.0 / 3.0)
    return out


def field_apply(x, f):
    """Derivation of f along the left-invariant field of the matrix x.

    The flow is U exp(t x), so an entry moves with velocity (U x)_kl,
    which is linear in the entries of the same row; conjugate entries
    move with the conjugated coefficients.
    """
    out = EntryPoly()
    for k in range(3):
        for l in range(3):
            df = f.diff(3 * k + l)
            if df.terms:
                vel = EntryPoly()
                for m in range(3):
                    if x[m, l] != 0:
                        vel = vel + entry_z(k, m).scale(x[m, l])
                out = out + df * vel
            dfb = f.diff(9 + 3 * k + l)
            if dfb.terms:
                vel = EntryPoly()
                for m in range(3):
                    if x[m, l] != 0:
                        vel = vel + entry_zbar(k, m).scale(np.conj(x[m, l]))
                out = out + dfb * vel
    return out


def gamma_fields(f, g):
    """Carre du champ as the frame sum of products of first derivatives."""
    out = EntryPoly()
    for _, x in _STD:
        out = out + field_apply(x, f) * field_apply(x, g)
    return out


def casimir_apply(f):
    """The group generator: nest each frame field twice and sum."""
    out = EntryPoly()
    for _, x in _STD:
        out = out + field_apply(x, field_apply(x, f))
    return out


def gamma2_fields(f):
    """Second iterated form (1/2)(L Gamma(f,f) - 2 Gamma(f, Lf))."""
    gff = gamma_fields(f, f)
    return casimir_apply(gff).scale(0.5) - gamma_fields(f, casimir_apply(f))


def vectorfield_gamma_oracle(f, g, u):
    """Gamma(f, g) at u, summed field by field.

    Kept as a pointwise sum of first-derivative products rather than an
    expansion of the product polynomial, so it is an independent check
    on the entrywise closed forms.
    """
    m = _mat_of(u)
    total = 0j
    for _, x in _STD:
        total += field_apply(x, f).eval(m) * field_apply(x, g).eval(m)
    return total


def entry_gamma(k, l, r, q, u, kind, d=3):
    """Closed-form carre du champ of two coordinate functions at u.

    kind "zz" pairs two plain entries, "zzbar" pairs an entry with a
    conjugate.  Indices 0-based.  The d-dependence is carried for
    reference but only d = 3 is exercised.
    """
    m = _mat_of(u)
    if kind == "zz":
        return -2.0 * m[k, q] * m[r, l] + (2.0 / d) * m[k, l] * m[r, q]
    if kind == "zzbar":
        delta = 1.0 if (k == r and l == q) else 0.0
        return 2.0 * (delta - (1.0 / d) * m[k, l] * np.conj(m[r, q]))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# curvature


def _vec(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def commutator_table():
    """All 36 pairwise commutators expressed as multiples of frame members.

    Returns {(name_i, name_j): (coefficient, name)} for i < j, with
    (0.0, None) for vanishing commutators.  Raises if any commutator
    fails to be proportional to a single member, which would break the
    table structure this model relies on.
    """
    names, mats = _STD.names, _STD.matrices
    table = {}
    for i in range(9):
        for j in range(i + 1, 9):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            if np.abs(c).max() < 1e-13:
                table[(names[i], names[j])] = (0.0, None)
                continue
            hit = None
            for nm, b in zip(names, mats):
                coeff = np.trace(c @ b.conj().T) / np.trace(b @ b.conj().T)
                if np.abs(c - coeff * b).max() < 1e-12:
                    hit = (float(coeff.real), nm)
                    break
            if hit is None:
                raise NonConstantRicci(
                    f"[{names[i]}, {names[j]}] is not a single frame member"
                )
            table[(names[i], names[j])] = hit
    return table


def ricci_constant():
    """Curvature constant from the commutator quadratic form.

    Builds M1 = (1/2) sum over pairs of vec([Xi, Xj]) outer products and
    M2 = sum of vec(Xi) outer products on the 18-dimensional real
    vectorization, checks every commutator stays inside the frame span,
    and checks M1 is a scalar multiple of M2.  Returns that scalar.
    """
    mats = _STD.matrices
    stack = np.stack([_vec(x) for x in mats], axis=1)
    m2 = stack @ stack.T
    m1 = np.zeros_like(m2)
    for i in range(9):
        for j in range(i + 1, 9):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            v = _vec(c)
            coeff, *_ = np.linalg.lstsq(stack, v, rcond=None)
            if np.linalg.norm(stack @ coeff - v) > 1e-12:
                raise NonConstantRicci("commutator escapes the frame span")
            m1 += 0.5 * np.outer(v, v)
    ratio = np.trace(m1) / np.trace(m2)
    if np.abs(m1 - ratio * m2).max() > 1e-10:
        raise NonConstantRicci("commutator form is not a multiple of the metric")
    return float(ratio)


# ---------------------------------------------------------------------------
# spectral identities and the deltoid pushforward


class CharpolyResiduals:
    __slots__ = ("gamma_residual", "generator_residual")

    def __init__(self, gamma_residual, generator_residual):
        self.gamma_residual = gamma_residual
        self.generator_residual = generator_residual

    @property
    def passed(self):
        return max(self.gamma_residual, self.generator_residual) < 1e-9


def _coefficient_function(x):
    # det(x I - U) = x^3 - 3 Z x^2 + 3 Zbar x - 1 as a function of U
    zt = normalized_trace()
    return entry_const(x**3 - 1.0) + zt.scale(-3.0 * x**2) + zt.conj().scale(3.0 * x)


def charpoly_identity_check(u, x, y, d=3):
    """Spectral identities for the characteristic polynomial at scalars x, y.

    Left sides go through the vector-field frame on the coefficient
    functions; right sides are the closed forms, which carry an overall
    2/d tied to the entrywise normalization L z_pq = -2(d^2 - 1)/d z_pq.
    Coincident x = y is served by the divided-difference limit.
    """
    m = _mat_of(u)
    zv = np.trace(m) / 3.0
    zb = np.conj(zv)

    def p(t):
        return t**3 - 3.0 * zv * t**2 + 3.0 * zb * t - 1.0

    def dp(t):
        return 3.0 * t**2 - 6.0 * zv * t + 3.0 * zb

    def ddp(t):
        return 6.0 * t - 6.0 * zv

    fx = _coefficient_function(x)
    fy = _coefficient_function(y)
    left_gamma = vectorfield_gamma_oracle(fx, fy, m)
    if abs(x - y) > 1e-8:
        bracket = dp(x) * dp(y) + d * (dp(x) * p(y) - dp(y) * p(x)) / (x - y)
    else:
        bracket = dp(x) * dp(y) + d * (p(x) * ddp(x) - dp(x) ** 2)
    right_gamma = (2.0 / d) * x * y * bracket

    left_l = casimir_apply(fx).eval(m)
    right_l = (2.0 / d) * ((1.0 - d**2) * x * dp(x) + (1.0 + d) * x**2 * ddp(x))

    return CharpolyResiduals(
        abs(left_gamma - right_gamma), abs(left_l - right_l)
    )


def _compose_with_trace(f):
    """Lift a deltoid polynomial f(Z, Zbar) through Z = tr(U)/3."""
    zt = normalized_trace()
    zbt = zt.conj()
    out = EntryPoly()
    for i, j, c in f.complex_coeffs():
        term = entry_const(c)
        for _ in range(i):
            term = term * zt
        for _ in range(j):
            term = term * zbt
        out = out + term
    return out


class PushforwardReport:
    __slots__ = ("count", "max_gamma_residual", "max_generator_residual")

    def __init__(self, count, max_gamma_residual, max_generator_residual):
        self.count = count
        self.max_gamma_residual = max_gamma_residual
        self.max_generator_residual = max_generator_residual

    @property
    def passed(self):
        return max(self.max_gamma_residual, self.max_generator_residual) < 1e-9

    def __repr__(self):
        return (
            f"PushforwardReport(count={self.count}, "
            f"gamma={self.max_gamma_residual:.3e}, "
            f"generator={self.max_generator_residual:.3e})"
        )


def pushforward_check(lam4_grid, u_samples):
    """Compare (3/4) of the group operator with the deltoid one at lambda = 4.

    lam4_grid is a list of deltoid-side polynomials; each is lifted along
    Z = tr(U)/3 and hit with the frame Gamma and Casimir, and the scaled
    values must match the deltoid gamma and generator evaluated at the
    trace point of every sample.
    """
    lam = Lambda(4)
    worst_g = 0.0
    worst_l = 0.0
    count = 0
    for f in lam4_grid:
        lifted = _compose_with_trace(f)
        gamma_lift = gamma_fields(lifted, lifted)
        l_lift = casimir_apply(lifted)
        gamma_flat = deltoid_gamma(f, f)
        l_flat = deltoid_generator(f, lam)
        for u in u_samples:
            m = _mat_of(u)
            zv = np.trace(m) / 3.0
            worst_g = max(
                worst_g, abs(0.75 * gamma_lift.eval(m) - complex(gamma_flat.eval(zv)))
            )
            worst_l = max(
                worst_l, abs(0.75 * l_lift.eval(m) - complex(l_flat.eval(zv)))
            )
            count += 1
    return PushforwardReport(count, worst_g, worst_l)


class Su3CurvatureReport:
    __slots__ = ("pairs", "min_margin", "worst_trace", "tol")

    def __init__(self, pairs, min_margin, worst_trace, tol):
        self.pairs = pairs
        self.min_margin = min_margin
        self.worst_trace = worst_trace
        self.tol = tol

    @property
    def passed(self):
        return self.min_margin >= -self.tol


def curvature_dimension_check(trials=8, samples=40, seed=5, rho=3.0, n=8.0, tol=1e-8):
    """Sample the CD(rho, n) margin over random entry polynomials.

    Test functions are g + conj(g) with g a random complex linear part
    plus one quadratic entry monomial; Gamma_2, Gamma, and L are built
    symbolically through the frame, so the only floating error left is
    coefficient arithmetic.
    """
    rng = np.random.default_rng(seed)
    us = haar_sample(seed + 1, samples)
    worst = np.inf
    worst_tr = None
    pairs = 0
    for _ in range(trials):
        g = EntryPoly()
        for _ in range(3):
            k, l = rng.integers(0, 3, 2)
            co = complex(rng.standard_normal(), rng.standard_normal())
            g = g + entry_z(int(k), int(l)).scale(co)
        k1, l1, k2, l2 = (int(t) for t in rng.integers(0, 3, 4))
        g = g + entry_z(k1, l1) * entry_z(k2, l2)
        f = g + g.conj()
        gff = gamma_fields(f, f)
        lf = casimir_apply(f)
        g2 = casimir_apply(gff).scale(0.5) - gamma_fields(f, lf)
        for u in us:
            m = _mat_of(u)
            margin = (
                g2.eval(m).real
                - rho * gff.eval(m).real
                - lf.eval(m).real ** 2 / n
            )
            pairs += 1
            if margin < worst:
                worst = margin
                worst_tr = np.trace(m) / 3.0
    return Su3CurvatureReport(pairs, float(worst), worst_tr, tol)
