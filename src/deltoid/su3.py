"""The SU(3) Casimir model behind the lambda = 4 operator.

The group carries nine left-invariant fields: the real antisymmetric
family R, the imaginary symmetric family S, and the diagonal family Dh
scaled so the diagonal directions enter the Casimir sum with weight 2/3.
The frame is held to the su(3) completeness (Fierz) identity, which
sums the field products to closed forms: the carre du champ table
Gamma(z_v, z_w) of the 18 variables has coefficients n/3, and
L z_v = -(16/3) z_v.  The frame, in Gaussian integers, and the table
are built on first use, so importing this module computes nothing.  The
Casimir generator and Gamma of any entry polynomial are then one
chain-rule pass over its terms.  The commutator table and Ricci = 3 are
decided in integers, and the pushforward along Z = tr(U)/3 lands exactly
on the deltoid operator at lambda = 4.  group_model_check gathers these
claims into one frozen report, whose passed is the one place they combine.

Polynomials in matrix entries are kept symbolic (complex coefficients on
18 variables, nine entries and nine conjugates) so that second-order
quantities are assembled without finite differencing.
"""

import functools
import math
from itertools import combinations

from .exact import Rat, c_prod, np, record
from .operator import Lambda, gamma as deltoid_gamma, generator as deltoid_generator

# the frame's Casimir: sum X_i^2 = CASIMIR I, so L z_v = CASIMIR z_v
CASIMIR = -16.0 / 3.0

# pass threshold of the pushforward and characteristic-polynomial identity
# residuals, which absorbs float rounding with no a-priori bound: on c09's
# and su3 check's samples the pushforward reads 8.2e-16/2.0e-15 and
# 4.3e-16/9.9e-16, the charpoly residual 1.5e-13 and 3.8e-13 (headroom
# 2.6e3 at the least)
IDENTITY_TOL = 1e-9

# the Haar standard deviation of |tr U / 3|^2: its variance is 1/81
# exactly (E|tr U|^4 = 2), and the sample deviation of this skewed
# statistic gives too narrow intervals
TRACE_MOMENT_SD = 1.0 / 9.0

_NVAR = 18


class NonConstantRicci(ArithmeticError):
    """The commutator quadratic form failed to be a multiple of the metric."""


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
    def _views(cls, stack):
        """One element per matrix of a validated, read-only (n, 3, 3)
        stack, each holding a view into it."""
        out = []
        for m in stack:
            u = cls.__new__(cls)
            u.matrix = m
            out.append(u)
        return out

    def __repr__(self):
        return f"SpecialUnitary3(trace={np.trace(self.matrix):.6f})"


def _members():
    """(name, 3w, m) of each standard frame member: 3 times its Casimir weight
    w, and its Gaussian-integer matrix m as (2, 3, 3) integer real, imaginary parts."""
    out = []
    for tag, thirds in (("R", 3), ("S", 3), ("Dh", 2)):
        for k, l in combinations(range(3), 2):
            m = np.zeros((2, 3, 3), dtype=np.int64)
            if tag == "R":
                m[0, k, l], m[0, l, k] = 1, -1
            elif tag == "S":
                m[1, k, l] = m[1, l, k] = 1
            else:
                m[1, k, k], m[1, l, l] = 1, -1
            out.append((f"{tag}{k + 1}{l + 1}", thirds, m))
    return out


def _gmul(x, y):
    # products of Gaussian-integer matrices in _members' layout, over any leading axes
    xr, xi, yr, yi = x[..., 0, :, :], x[..., 1, :, :], y[..., 0, :, :], y[..., 1, :, :]
    return np.stack([xr @ yr - xi @ yi, xr @ yi + xi @ yr], axis=-3)


class LieBasis:
    """The nine-field frame R12, R13, R23, S12, S13, S23, Dh12, Dh13, Dh23.

    X_i = sqrt(w_i) m_i, with thirds[i] = 3 w_i (3 for R and S, 2 for Dh,
    whose three directions span a two-dimensional Cartan, so this is a
    frame rather than a basis) and members a read-only stack of the
    Gaussian-integer m_i in _members' layout.  Construction checks, in
    integers, that each m_i is antihermitian and traceless, the Casimir sum
    sum 3 w m^2 = -16 I (sum X^2 = -(16/3) I) and, at all 81 (a, b, c, d),
    the Fierz identity sum 3 w m_ab m_cd = -6 d_ad d_bc + 2 d_ab d_cd.
    """

    __slots__ = ("names", "thirds", "members")

    def __init__(self):
        names, thirds, members = zip(*_members())
        ms, w = np.stack(members), np.array(thirds)
        for nm, (re, im) in zip(names, ms):
            if (re + re.T).any() or (im - im.T).any() or np.trace(im):
                raise ValueError(f"{nm} is not antihermitian traceless")
        eye = np.identity(3, dtype=np.int64)
        if (np.einsum("x,xkab->kab", w, _gmul(ms, ms)) != [-16 * eye, 0 * eye]).any():
            raise ValueError("Casimir normalization broken")
        # the real parts re re and im im, and the imaginary parts re im and im re
        rr, ii, ri, ir = (np.einsum("x,xab,xcd->abcd", w, ms[:, s], ms[:, t])
                          for s, t in ((0, 0), (1, 1), (0, 1), (1, 0)))
        want = -6 * np.einsum("ad,bc->abcd", eye, eye) + 2 * np.einsum("ab,cd->abcd", eye, eye)
        if (rr - ii != want).any() or (ri + ir).any():
            raise ValueError("Fierz identity broken")
        ms.setflags(write=False)
        self.names, self.thirds, self.members = names, thirds, ms


@functools.cache
def _std():
    """The standard frame, built on first use and never changed."""
    return LieBasis()


# draws per stack: bounds the temporaries of a large sample
_HAAR_BLOCK = 1024


def haar_sample(seed, n):
    """Draw n Haar-distributed SU(3) elements, deterministic per seed.

    One element per draw of _haar_matrices(seed, n), each a read-only
    view into that stack; haar_sample(seed, k) is a prefix of
    haar_sample(seed, n) for k <= n.
    """
    return SpecialUnitary3._views(_haar_matrices(seed, n))


def _haar_matrices(seed, n):
    """The n draws of haar_sample(seed, n) as one validated, read-only
    (n, 3, 3) stack.

    One generator, np.random.default_rng(seed), gives each draw 18
    standard normals in draw order: nine real parts, then nine imaginary
    parts, row-major.  Draw i thus depends only on (seed, i).  This is
    the stream of report schema 2; schema 1 spawned one SeedSequence
    child stream per draw.

    Orthonormalize a complex Gaussian matrix, fix the QR phase ambiguity
    with the signs of the triangular diagonal (Mezzadri 2007), then
    divide by a cube root of the determinant.  Each block of up to
    _HAAR_BLOCK draws takes its normals in one call and runs its linear
    algebra and its SU(3) check on one (k, 3, 3) stack; every matrix
    comes out bit for bit as it would from its own QR.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3, 3), dtype=complex)
    for lo in range(0, n, _HAAR_BLOCK):
        normals = rng.standard_normal((min(_HAAR_BLOCK, n - lo), 2, 3, 3))
        q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q *= (diag / np.abs(diag))[:, None, :]
        q /= (np.linalg.det(q) ** (1.0 / 3.0))[:, None, None]
        _check_special_unitary(q)
        out[lo:lo + len(q)] = q
    out.setflags(write=False)
    return out


@record(eq=False)
class TraceMomentReport:
    """Mean of |tr U / 3|^2 over n Haar draws, stderr TRACE_MOMENT_SD / sqrt(n);
    passed within 3 stderr of the Haar value 1/9, never on a NaN mean."""

    mean: float
    stderr: float

    @property
    def passed(self):
        return abs(self.mean - 1.0 / 9.0) <= 3.0 * self.stderr


def trace_moment_check(seed, n):
    """E|tr U / 3|^2 = 1/9 over the draws of haar_sample(seed, n)."""
    vals = np.abs(np.trace(_haar_matrices(seed, n), axis1=1, axis2=2) / 3.0) ** 2
    return TraceMomentReport(float(vals.mean()), TRACE_MOMENT_SD / math.sqrt(n))


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
        coef = np.array(list(self.terms.values()), dtype=complex)
        # a compiled program may be cached and shared: keep it read-only
        idx.setflags(write=False)
        coef.setflags(write=False)
        return idx, coef, top

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
        return _eval_compiled(self._compile(), u)

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def __repr__(self):
        return f"EntryPoly({len(self.terms)} terms)"


def _eval_compiled(program, u):
    """EntryPoly.eval from the polynomial's _compile() output."""
    idx, coef, top = program
    m = _matrices(u)
    flat = m.reshape(-1, 9)
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


def entry_const(c):
    return EntryPoly({0: c})


def _entry_var(v):
    return EntryPoly({_unit_key(v): 1.0})


def entry_z(k, l):
    """The coordinate function U -> U[k, l], indices 0-based."""
    return _entry_var(3 * k + l)


def normalized_trace():
    """Z = tr(U)/3, the map onto the deltoid."""
    out = EntryPoly()
    for k in range(3):
        out = out + entry_z(k, k).scale(1.0 / 3.0)
    return out


@functools.cache
def _frame_tables():
    """Gamma(z_v, z_w) for each ordered pair of the 18 variables.

    With X z_ij = (U X)_ij, the Fierz identity LieBasis checks sums
    sum_X X(z_v) X(z_w) to Gamma(z_ij, z_kl) = -2 z_il z_kj + (2/3) z_ij z_kl,
    Gamma(z_ij, zbar_kl) = 2 [j = l] sum_m z_im zbar_km - (2/3) z_ij zbar_kl
    and their conjugates: each coefficient is an integer over 3, divided
    once.  gam[v][w] is a tuple of (monomial key, coefficient).  Built on
    first use, after the frame and so its checks, and never changed.
    """
    _std()

    def numerators(*terms):
        # {monomial key: n} of the terms (n, a, b), each n/3 z_a z_b
        out = {}
        for n, a, b in terms:
            e = _unit_key(a) + _unit_key(b)
            out[e] = out.get(e, 0) + n
        return out

    def row(num):
        return tuple((e, complex(n / 3)) for e, n in num.items())

    gam = [[None] * _NVAR for _ in range(_NVAR)]
    for v in range(9):
        i, j = divmod(v, 3)
        for w in range(9):
            k, l = divmod(w, 3)
            zz = numerators((-6, 3 * i + l, 3 * k + j), (2, v, w))
            zb = numerators(*((6, 3 * i + m, 9 + 3 * k + m) for m in range(3) if j == l),
                            (-2, v, 9 + w))
            gam[v][w] = row(zz)
            gam[9 + v][9 + w] = row(numerators((-6, 9 + 3 * i + l, 9 + 3 * k + j),
                                               (2, 9 + v, 9 + w)))
            gam[v][9 + w] = gam[9 + w][v] = row(zb)
    return tuple(map(tuple, gam))


def _partials(f):
    # (v, key of z^(e - v), c e_v) for each term c z^e and each v it holds
    out = []
    for e, c in f.terms.items():
        for v, p in enumerate(_exponents(e)):
            if p:
                out.append((v, e - _unit_key(v), c * p))
    return out


def gamma_fields(f, g):
    """Carre du champ from the frame table.

    Gamma(f, g) = sum over term pairs of c1 c2 sum_(v, w) e1_v e2_w
    z^(e1 - v + e2 - w) Gamma(z_v, z_w).  Raises DegreeOverflow where
    deg f + deg g passes 255, since a packed key would then carry.
    """
    if f.terms and g.terms and f.degree() + g.degree() > _MAX_EXP:
        raise DegreeOverflow(
            f"Gamma of degrees {f.degree()} and {g.degree()} passes {_MAX_EXP}")
    gam = _frame_tables()
    fp = _partials(f)
    gp = fp if g is f else _partials(g)
    out = {}
    get = out.get
    for v, b1, c1 in fp:
        row = gam[v]
        for w, b2, c2 in gp:
            base = b1 + b2
            cc = c1 * c2
            for k, a in row[w]:
                k += base
                out[k] = get(k, 0j) + cc * a
    return EntryPoly(out)


def casimir_apply(f):
    """The group generator L = sum_X X^2 from the frame table.

    L z_v = CASIMIR z_v for every variable, so each term c z^e
    contributes CASIMIR |e| c z^e + c sum_(v, w) e_v (e_w - delta_vw)
    z^(e - v - w) Gamma(z_v, z_w).
    """
    gam = _frame_tables()
    out = {}
    get = out.get
    for e, c in f.terms.items():
        exps = _exponents(e)
        out[e] = get(e, 0j) + CASIMIR * sum(exps) * c
        support = [(v, p, _unit_key(v)) for v, p in enumerate(exps) if p]
        for v, p, uv in support:
            cp = c * p
            base = e - uv
            row = gam[v]
            for w, q, uw in support:
                if w == v:
                    q -= 1
                    if not q:
                        continue
                cq = cp * q
                b2 = base - uw
                for k, a in row[w]:
                    k += b2
                    out[k] = get(k, 0j) + cq * a
    return EntryPoly(out)


def _gamma2_parts(f):
    # (Gamma_2(f, f), Gamma(f, f), L f), each built once
    gff = gamma_fields(f, f)
    lf = casimir_apply(f)
    return casimir_apply(gff).scale(0.5) - gamma_fields(f, lf), gff, lf


# ---------------------------------------------------------------------------
# curvature


def _brackets(ms):
    # the pairs i < j of the members ms in order, and [m_i, m_j] as rows of 18 ints
    i, j = np.triu_indices(len(ms), 1)
    c = _gmul(ms[i], ms[j]) - _gmul(ms[j], ms[i])
    return i.tolist(), j.tolist(), c.reshape(len(i), 18)


def commutator_table():
    """All 36 pairwise commutators expressed as multiples of frame members.

    Returns {(name_i, name_j): (coefficient, name)} for i < j, with
    (0.0, None) for vanishing commutators.  c = [m_i, m_j] = t m_k is
    decided in integers, as |m_k|^2 c = (c . m_k) m_k, and the coefficient
    of [X_i, X_j] = t sqrt(w_i w_j / w_k) X_k is float(t) times the
    rounded root.  Raises NonConstantRicci where c is not a multiple of a
    single member.
    """
    frame = _std()
    names, thirds = frame.names, frame.thirds
    vecs = frame.members.reshape(len(names), 18)
    norms = (vecs * vecs).sum(axis=1)
    table = {}
    for i, j, c in zip(*_brackets(frame.members)):
        dots = vecs @ c
        hits = np.flatnonzero((norms[:, None] * c == dots[:, None] * vecs).all(axis=1))
        if not hits.size:
            raise NonConstantRicci(f"[{names[i]}, {names[j]}] is not a single frame member")
        k = int(hits[0])
        t = Rat(int(dots[k]), int(norms[k]))
        root = math.sqrt(Rat(thirds[i] * thirds[j], 3 * thirds[k]))
        table[(names[i], names[j])] = (float(t) * root, names[k]) if t else (0.0, None)
    return table


def ricci_constant():
    """Curvature constant from the commutator quadratic form, exactly.

    On the 18 real coordinates of _members' layout, with c_ij = [m_i, m_j],
    M1 = (1/2) sum_(i < j) w_i w_j c_ij c_ij^T and M2 = sum w m m^T, summed
    in integers as 18 M1 and 3 M2.  Returns float(r) for the rational r
    with M1 = r M2 (so every c_ij lies in M2's range, the frame's span),
    and raises NonConstantRicci where there is none.
    """
    frame = _std()
    w, v = np.array(frame.thirds), frame.members.reshape(len(frame.names), 18)
    i, j, c = _brackets(frame.members)
    m1, m2 = (w[i] * w[j] * c.T) @ c, (w * v.T) @ v
    t1, t2 = int(np.trace(m1)), int(np.trace(m2))
    if (m1 * t2 != t1 * m2).any():
        raise NonConstantRicci("commutator form is not a multiple of the metric")
    return float(Rat(t1, 6 * t2))


# ---------------------------------------------------------------------------
# spectral identities and the deltoid pushforward


@record(eq=False)
class CharpolyResiduals:
    """The two residuals of one matrix (floats) or of a stack (arrays)."""

    gamma_residual: object
    generator_residual: object

    @property
    def passed(self):
        """Every residual below IDENTITY_TOL; a NaN fails."""
        return bool(np.all(self.gamma_residual < IDENTITY_TOL)
                    and np.all(self.generator_residual < IDENTITY_TOL))


@functools.cache
def _charpoly_parts():
    """Gamma and L of the trace pair, built and compiled once.

    The coefficient function f_x = det(x I - U) = (x^3 - 1) + a_x zt
    + b_x conj(zt), with zt = tr(U)/3, a_x = -3 x^2 and b_x = 3 x, is
    linear in (zt, conj(zt)), so Gamma(f_x, f_y) and L f_x are fixed
    combinations of Gamma(zt, zt), Gamma(zt, conj zt),
    Gamma(conj zt, conj zt), L zt and L conj(zt), in that order.
    """
    zt = normalized_trace()
    zb = zt.conj()
    return tuple(q._compile() for q in (
        gamma_fields(zt, zt), gamma_fields(zt, zb), gamma_fields(zb, zb),
        casimir_apply(zt), casimir_apply(zb)))


def _charpoly_residual_pair(zv, x, y, gzz, gzb, gbb, lz, lb):
    # one matrix: the left sides from the trace-pair values, the right
    # sides from the closed forms, in CPython complex arithmetic
    zb = zv.conjugate()

    def p(t):
        return t**3 - 3.0 * zv * t**2 + 3.0 * zb * t - 1.0

    def dp(t):
        return 3.0 * t**2 - 6.0 * zv * t + 3.0 * zb

    def ddp(t):
        return 6.0 * t - 6.0 * zv

    ax, bx = -3.0 * x**2, 3.0 * x
    ay, by = -3.0 * y**2, 3.0 * y
    left_gamma = ax * ay * gzz + (ax * by + bx * ay) * gzb + bx * by * gbb
    if abs(x - y) > 1e-8:
        bracket = dp(x) * dp(y) + 3 * (dp(x) * p(y) - dp(y) * p(x)) / (x - y)
    else:
        bracket = dp(x) * dp(y) + 3 * (p(x) * ddp(x) - dp(x) ** 2)
    right_gamma = (2.0 / 3) * x * y * bracket

    left_l = ax * lz + bx * lb
    right_l = (2.0 / 3) * ((1.0 - 3**2) * x * dp(x) + (1.0 + 3) * x**2 * ddp(x))
    return abs(left_gamma - right_gamma), abs(left_l - right_l)


def charpoly_identity_check(u, x, y):
    """Spectral identities for the characteristic polynomial at scalars x, y.

    Left sides go through the frame operators on the coefficient
    functions; right sides are the closed forms, which carry an overall
    2/d tied to the entrywise normalization L z_pq = -2(d^2 - 1)/d z_pq,
    here with d = 3.  Coincident x = y is served by the
    divided-difference limit.

    u is one matrix, with scalars x and y, giving float residuals; or an
    (n, 3, 3) stack, with x and y of length n, giving arrays of n
    residuals, each with the bits of its own one-matrix call.
    """
    m = _matrices(u)
    stack = m.reshape(-1, 3, 3)
    xs = np.ravel(np.asarray(x, dtype=complex)).tolist()
    ys = np.ravel(np.asarray(y, dtype=complex)).tolist()
    if not len(xs) == len(ys) == len(stack):
        raise ValueError("need one x and one y per matrix")
    parts = [_eval_compiled(q, stack).tolist() for q in _charpoly_parts()]
    zvs = (np.trace(stack, axis1=1, axis2=2) / 3.0).tolist()
    res = [_charpoly_residual_pair(*row) for row in zip(zvs, xs, ys, *parts)]
    if m.ndim == 2:
        return CharpolyResiduals(*res[0])
    gamma_res, generator_res = np.array(res, dtype=float).reshape(-1, 2).T
    return CharpolyResiduals(gamma_res, generator_res)


def worst_charpoly_residual(us, seed):
    """Largest charpoly residual over the first 25 matrices of us.

    Each matrix gets its own x and y, complex normals drawn in matrix
    order from np.random.default_rng(seed): the real parts of x and y,
    then their imaginary parts.  One call checks all 25; a NaN residual
    is kept.
    """
    stack = _matrices(list(us[:25]))
    normals = np.random.default_rng(seed).standard_normal((len(stack), 2, 2))
    xy = normals[:, 0] + 1j * normals[:, 1]
    res = charpoly_identity_check(stack, xy[:, 0], xy[:, 1])
    # np.max keeps a NaN residual, which max() may drop
    return float(np.max(np.concatenate(
        [[0.0], res.gamma_residual, res.generator_residual])))


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


@record(eq=False)
class PushforwardReport:
    """Residual maxima of the lambda = 4 pushforward over count comparisons."""

    count: int
    max_gamma_residual: float
    max_generator_residual: float

    @property
    def passed(self):
        """Both maxima below IDENTITY_TOL; a NaN fails."""
        return (self.max_gamma_residual < IDENTITY_TOL
                and self.max_generator_residual < IDENTITY_TOL)


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
        gamma_flat = deltoid_gamma(f, f).eval(zv)
        l_flat = deltoid_generator(f, lam).eval(zv)
        # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN residual
        # must reach the report and fail it
        gamma_res = np.abs(0.75 * gamma_lift - gamma_flat).max()
        l_res = np.abs(0.75 * l_lift - l_flat).max()
        worst_g = float(np.maximum(worst_g, gamma_res))
        worst_l = float(np.maximum(worst_l, l_res))
    return PushforwardReport(len(lam4_grid) * len(stack), worst_g, worst_l)


@record(eq=False)
class Su3CurvatureReport:
    """The lowest CD(3, 8) margin over pairs, and tr U / 3 where it falls."""

    pairs: int
    min_margin: float
    worst_trace: complex
    tol: float

    @property
    def passed(self):
        return self.min_margin >= -self.tol


def curvature_dimension_check(trials=8, samples=40, seed=5, tol=1e-8):
    """Sample the CD(3, 8) margin over random entry polynomials.

    Test functions are g + conj(g) with g a random complex linear part
    plus one quadratic entry monomial; Gamma_2, Gamma and L are built
    symbolically through the frame table, Gamma(f, f) and L f once per
    trial, so the only floating error left is coefficient arithmetic.
    Each is evaluated on the whole sample stack in one call.  Raises
    ValueError for trials < 1, which leaves no margin to report.
    tol lets a zero margin pass through rounding: at U = I, where CD(3, 8)
    is sharp, f = tr U + conj(tr U) reads -3.6e-15; the minima at c09's
    and su3 check's samples read 8.01 and 17.2.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = np.random.default_rng(seed)
    stack = _haar_matrices(seed + 1, samples)
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
        g2, gff, lf = _gamma2_parts(f)
        margins[trial] = (
            g2.eval(stack).real
            - 3.0 * gff.eval(stack).real
            - lf.eval(stack).real ** 2 / 8.0
        )
    # the first minimum in trial-then-sample order; NaN counts as lowest
    worst = int(np.argmin(margins))
    worst_tr = np.trace(stack[worst % samples]) / 3.0
    return Su3CurvatureReport(margins.size, float(margins.flat[worst]), worst_tr, tol)


@record(eq=False)
class GroupModelReport:
    """Every group-side claim on one sample, with its measured values."""

    ricci: float
    commutator_entries: int
    push: PushforwardReport
    charpoly_residual: float
    cd: Su3CurvatureReport

    @property
    def passed(self):
        """Every claim holds; each comparison is false on a NaN, so a NaN fails."""
        return (self.ricci == 3.0
                and self.commutator_entries == 36
                and self.push.passed
                and self.charpoly_residual < IDENTITY_TOL
                and self.cd.passed)


def group_model_check(us, polys, charpoly_seed, cd_seed):
    """Every group-model claim at once: polys pushed forward over the
    samples us, the charpoly residual of worst_charpoly_residual(us,
    charpoly_seed) and curvature_dimension_check(seed=cd_seed)."""
    return GroupModelReport(
        ricci=ricci_constant(),
        commutator_entries=len(commutator_table()),
        push=pushforward_check(polys, us),
        charpoly_residual=worst_charpoly_residual(us, charpoly_seed),
        cd=curvature_dimension_check(seed=cd_seed),
    )
