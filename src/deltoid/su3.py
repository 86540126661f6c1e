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

from .exact import HornerProgram, c_prod
from .operator import Lambda, gamma as deltoid_gamma, generator as deltoid_generator

# diagonal scaling that gives the Cartan directions Casimir weight 2/3
DIAG_WEIGHT = np.sqrt(2.0 / 3.0)

# pass thresholds of the group-model checks: the Ricci constant is 3 to
# within RICCI_TOL, and the pushforward and characteristic-polynomial
# identity residuals stay below IDENTITY_TOL
RICCI_TOL = 1e-10
IDENTITY_TOL = 1e-9

_PAIRS = ((0, 1), (0, 2), (1, 2))
_NVAR = 18


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


def _check_special_unitary(m):
    """Raise ValueError unless every 3x3 matrix in m is in SU(3) to 1e-12.

    m is one matrix or a stack of them; NaN entries fail both checks.
    """
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    gram -= np.eye(3)
    if not np.all(np.abs(gram).max(axis=(-2, -1)) < 1e-12):
        raise ValueError("matrix is not unitary to 1e-12")
    if not np.all(np.abs(np.linalg.det(m) - 1.0) < 1e-12):
        raise ValueError("determinant is not 1 to 1e-12")


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
        _check_special_unitary(m)
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def _checked_stack(cls, stack):
        """One element per matrix of an (n, 3, 3) stack, validated at once.

        The elements hold read-only views into the stack.
        """
        _check_special_unitary(stack)
        stack.setflags(write=False)
        out = []
        for m in stack:
            u = cls.__new__(cls)
            u.matrix = m
            out.append(u)
        return out

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


# draws per stack: bounds the temporaries of a large sample
_HAAR_BLOCK = 1024


def haar_sample(seed, n):
    """Draw n Haar-distributed SU(3) elements, deterministic per seed.

    One generator, np.random.default_rng(seed), gives each draw 18
    standard normals in draw order: nine real parts, then nine imaginary
    parts, row-major.  Draw i thus depends only on (seed, i), and
    haar_sample(seed, k) is a prefix of haar_sample(seed, n) for k <= n.
    This is the stream of report schema 2; schema 1 spawned one
    SeedSequence child stream per draw.

    Orthonormalize a complex Gaussian matrix, fix the QR phase ambiguity
    with the signs of the triangular diagonal (Mezzadri 2007), then
    divide by a cube root of the determinant.  Each block of up to
    _HAAR_BLOCK draws takes its normals in one call and runs its linear
    algebra on one (k, 3, 3) stack; every matrix comes out bit for bit
    as it would from its own QR.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    out = []
    for lo in range(0, n, _HAAR_BLOCK):
        normals = rng.standard_normal((min(_HAAR_BLOCK, n - lo), 2, 3, 3))
        out += _haar_stack(normals)
    return out


def _haar_stack(normals):
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[:, None, :]
    q /= (np.linalg.det(q) ** (1.0 / 3.0))[:, None, None]
    return SpecialUnitary3._checked_stack(q)


def _mat_of(u):
    return u.matrix if isinstance(u, SpecialUnitary3) else np.asarray(u, dtype=complex)


def _matrices(us):
    """One 3x3 matrix or an (n, 3, 3) stack from a matrix, an element,
    an array or a sequence of either."""
    if isinstance(us, (list, tuple)):
        if not us:
            raise ValueError("need at least one matrix")
        m = np.stack([_mat_of(u) for u in us])
    else:
        m = _mat_of(us)
    if m.ndim not in (2, 3) or m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or an (n, 3, 3) stack, got shape {m.shape}")
    return m


# ---------------------------------------------------------------------------
# symbolic entry polynomials

# a monomial is one int: exponent v sits in byte v, entries row-major in
# bytes 0-8 and their conjugates in bytes 9-17
_BITS = 8
_MAX_EXP = (1 << _BITS) - 1
_HALF = 9 * _BITS
_LOW = (1 << _HALF) - 1
# gathered cells (points x factors x terms) of one evaluation block:
# bounds the temporaries of a large stack
_EVAL_CELLS = 1 << 16


class DegreeOverflow(OverflowError):
    """A product of entry polynomials would pass the packed degree limit."""


def _unit_key(v):
    return 1 << (_BITS * v)


def _exponents(key):
    return key.to_bytes(_NVAR, "little")


class EntryPoly:
    """Polynomial in the nine entries z_kl and their conjugates.

    terms maps a packed monomial key to its coefficient.  The key holds
    the 18 exponents, one byte each: entries row-major in bytes 0-8,
    conjugates in bytes 9-17.  A product of monomials is the sum of
    their keys, so a product whose total degree would pass 255 raises
    DegreeOverflow rather than carry into the next exponent.
    Coefficients are complex doubles; the algebra only nests two
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
        if self.terms and other.terms and self.degree() + other.degree() > _MAX_EXP:
            raise DegreeOverflow(
                f"product of degrees {self.degree()} and {other.degree()} "
                f"passes {_MAX_EXP}"
            )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                out[key] = out.get(key, 0j) + c1 * c2
        return EntryPoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        s = complex(s)
        res = EntryPoly()
        res.terms = {e: c * s for e, c in self.terms.items()} if s != 0 else {}
        return res

    def degree(self):
        """Total degree; 0 for constants and for the zero polynomial."""
        return max((sum(_exponents(e)) for e in self.terms), default=0)

    def diff(self, var):
        shift = _BITS * var
        unit = 1 << shift
        out = {}
        for e, c in self.terms.items():
            p = (e >> shift) & _MAX_EXP
            if p:
                out[e - unit] = c * p
        res = EntryPoly()
        res.terms = out
        return res

    def conj(self):
        """Complex conjugate: swap entry and conjugate blocks, conjugate coefficients."""
        out = {}
        for e, c in self.terms.items():
            out[(e & _LOW) << _HALF | e >> _HALF] = c.conjugate()
        res = EntryPoly()
        res.terms = out
        return res

    def _compile(self):
        """Flat power-table indices (support, terms), coefficients, top power.

        Index p * 18 + v picks z_v^p from a point's power table; index 0
        (power 0) pads terms with fewer factors than the widest one.
        """
        factors = [[p * _NVAR + v for v, p in enumerate(_exponents(e)) if p]
                   for e in self.terms]
        width = max(map(len, factors), default=0)
        idx = np.zeros((max(width, 1), len(factors)), dtype=np.intp)
        for t, row in enumerate(factors):
            idx[:len(row), t] = row
        top = max((max(_exponents(e)) for e in self.terms), default=0)
        return idx, np.array(list(self.terms.values()), dtype=complex), top

    def eval(self, u):
        """Value at one matrix, or an array of values at an (n, 3, 3) stack.

        u is a matrix, an element, a stack or a sequence of elements.
        Each point gets a power table of its 18 variables; each term is
        gathered from it and multiplied out, and the terms are summed
        along each point's own contiguous row.  Complex products are
        written out in real float64 ufuncs (exact.c_prod), since numpy's
        complex multiply may fuse a product into a sum in some loops and
        not in others.  Only elementwise work and row sums run, so the
        bits do not depend on the BLAS thread count, and a matrix
        evaluates to the same bits alone as inside a stack.
        """
        m = _matrices(u)
        flat = m.reshape(-1, 9)
        idx, coef, top = self._compile()
        out = np.empty(len(flat), dtype=complex)
        rows = max(1, _EVAL_CELLS // (idx.size or 1))
        for lo in range(0, len(flat), rows):
            block = flat[lo:lo + rows]
            b = len(block)
            vr = np.concatenate([block.real, block.real], axis=1)
            vi = np.concatenate([block.imag, -block.imag], axis=1)
            tr = np.empty((b, top + 1, _NVAR))
            ti = np.empty((b, top + 1, _NVAR))
            tr[:, 0], ti[:, 0] = 1.0, 0.0
            for p in range(1, top + 1):
                tr[:, p], ti[:, p] = c_prod(tr[:, p - 1], ti[:, p - 1], vr, vi)
            tr, ti = tr.reshape(b, -1), ti.reshape(b, -1)
            pr, pi = tr[:, idx[0]], ti[:, idx[0]]
            for row in idx[1:]:
                pr, pi = c_prod(pr, pi, tr[:, row], ti[:, row])
            pr, pi = c_prod(pr, pi, coef.real, coef.imag)
            out.real[lo:lo + b] = np.ascontiguousarray(pr).sum(axis=1)
            out.imag[lo:lo + b] = np.ascontiguousarray(pi).sum(axis=1)
        return complex(out[0]) if m.ndim == 2 else out

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def __repr__(self):
        return f"EntryPoly({len(self.terms)} terms)"


def entry_const(c):
    return EntryPoly({0: c})


def _entry_var(v):
    return EntryPoly({_unit_key(v): 1.0})


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


_FRAME_MOVES = tuple(_field_moves(x) for x in _STD.matrices)


def field_apply(x, f):
    """Derivation of f along the left-invariant field of the matrix x.

    The flow is U exp(t x), so an entry moves with velocity (U x)_kl,
    which is linear in the entries of the same row; conjugate entries
    move with the conjugated coefficients.
    """
    return _derive(_field_moves(x), f)


def gamma_fields(f, g):
    """Carre du champ as the frame sum of products of first derivatives."""
    out = EntryPoly()
    for moves in _FRAME_MOVES:
        out = out + _derive(moves, f) * _derive(moves, g)
    return out


def casimir_apply(f):
    """The group generator: nest each frame field twice and sum."""
    out = EntryPoly()
    for moves in _FRAME_MOVES:
        out = out + _derive(moves, _derive(moves, f))
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
    for moves in _FRAME_MOVES:
        total += _derive(moves, f).eval(m) * _derive(moves, g).eval(m)
    return total


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
        return (self.gamma_residual < IDENTITY_TOL
                and self.generator_residual < IDENTITY_TOL)


def _coefficient_function(x):
    # det(x I - U) = x^3 - 3 Z x^2 + 3 Zbar x - 1 as a function of U
    zt = normalized_trace()
    return entry_const(x**3 - 1.0) + zt.scale(-3.0 * x**2) + zt.conj().scale(3.0 * x)


def charpoly_identity_check(u, x, y):
    """Spectral identities for the characteristic polynomial at scalars x, y.

    Left sides go through the vector-field frame on the coefficient
    functions; right sides are the closed forms, which carry an overall
    2/d tied to the entrywise normalization L z_pq = -2(d^2 - 1)/d z_pq,
    here with d = 3.  Coincident x = y is served by the
    divided-difference limit.
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
        bracket = dp(x) * dp(y) + 3 * (dp(x) * p(y) - dp(y) * p(x)) / (x - y)
    else:
        bracket = dp(x) * dp(y) + 3 * (p(x) * ddp(x) - dp(x) ** 2)
    right_gamma = (2.0 / 3) * x * y * bracket

    left_l = casimir_apply(fx).eval(m)
    right_l = (2.0 / 3) * ((1.0 - 3**2) * x * dp(x) + (1.0 + 3) * x**2 * ddp(x))

    return CharpolyResiduals(
        abs(left_gamma - right_gamma), abs(left_l - right_l)
    )


def worst_charpoly_residual(us, seed):
    """Largest charpoly residual over the first 25 matrices of us.

    Each matrix gets its own x and y, complex normals drawn in matrix
    order from np.random.default_rng(seed).  A NaN residual is kept.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for u in us[:25]:
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = charpoly_identity_check(u, complex(x), complex(y))
        # np.max keeps a NaN residual, which max() may drop
        worst = float(np.max([worst, res.gamma_residual, res.generator_residual]))
    return worst


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
        return (self.max_gamma_residual < IDENTITY_TOL
                and self.max_generator_residual < IDENTITY_TOL)

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
    trace point of every sample.  Each side evaluates the whole sample
    stack in one call per polynomial.
    """
    lam = Lambda(4)
    stack = _matrices(u_samples).reshape(-1, 3, 3)
    zv = np.trace(stack, axis1=1, axis2=2) / 3.0
    worst_g = 0.0
    worst_l = 0.0
    for f in lam4_grid:
        lifted = _compose_with_trace(f)
        gamma_lift = gamma_fields(lifted, lifted).eval(stack)
        l_lift = casimir_apply(lifted).eval(stack)
        gamma_flat = HornerProgram(deltoid_gamma(f, f)).eval(zv)
        l_flat = HornerProgram(deltoid_generator(f, lam)).eval(zv)
        # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN residual
        # must reach the report and fail it
        gamma_res = np.abs(0.75 * gamma_lift - gamma_flat).max()
        l_res = np.abs(0.75 * l_lift - l_flat).max()
        worst_g = float(np.maximum(worst_g, gamma_res))
        worst_l = float(np.maximum(worst_l, l_res))
    return PushforwardReport(len(lam4_grid) * len(stack), worst_g, worst_l)


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


def curvature_dimension_check(trials=8, samples=40, seed=5, tol=1e-8):
    """Sample the CD(3, 8) margin over random entry polynomials.

    Test functions are g + conj(g) with g a random complex linear part
    plus one quadratic entry monomial; Gamma_2 (gamma2_fields), Gamma,
    and L are built symbolically through the frame, so the only floating
    error left is coefficient arithmetic.  Each is evaluated on the
    whole sample stack in one call.
    """
    rng = np.random.default_rng(seed)
    stack = _matrices(haar_sample(seed + 1, samples))
    margins = np.empty((trials, samples))
    for trial in range(trials):
        g = EntryPoly()
        for _ in range(3):
            k, l = rng.integers(0, 3, 2)
            co = complex(rng.standard_normal(), rng.standard_normal())
            g = g + entry_z(int(k), int(l)).scale(co)
        k1, l1, k2, l2 = (int(t) for t in rng.integers(0, 3, 4))
        g = g + entry_z(k1, l1) * entry_z(k2, l2)
        f = g + g.conj()
        margins[trial] = (
            gamma2_fields(f).eval(stack).real
            - 3.0 * gamma_fields(f, f).eval(stack).real
            - casimir_apply(f).eval(stack).real ** 2 / 8.0
        )
    # the first minimum in trial-then-sample order; NaN counts as lowest
    worst = int(np.argmin(margins))
    worst_tr = np.trace(stack[worst % samples]) / 3.0
    return Su3CurvatureReport(margins.size, float(margins.flat[worst]), worst_tr, tol)
