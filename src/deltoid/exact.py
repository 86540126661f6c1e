"""Exact sparse polynomial arithmetic in two conjugate variables.

A polynomial in the commuting indeterminates Z and Zbar (i meaning the
power of Z, j the power of Zbar) is stored fraction-free: a dictionary
`num` mapping exponent pairs (i, j) to Gaussian-integer numerators
(re, im), a pair of Python ints, plus one positive integer `den` shared
by every coefficient.  The coefficient of Z^i Zbar^j is
(re + im*i) / den.  Zero coefficients are never stored, and the pair is
kept canonical: the content gcd(den, every re, every im) is divided out
once per result, so the zero polynomial has an empty map and den = 1.
Equal polynomials therefore have equal (num, den), which makes identity
checks exact: two expressions are equal iff their difference has an
empty map.  Ring operations, the degree operators `euler` and
`conj_swap`, and exact division (`divexact`) run on ints with one gcd
normalisation per result, instead of a gcd per coefficient operation.

Float conversion divides each numerator by den as Python ints.  Integer
true division is correctly rounded, so a float coefficient is exactly
the float nearest the rational value, the same as float(Fraction).
Float evaluation has three implementations, one per shape of work.
HornerProgram, here, compiles one polynomial into its Horner scheme and
runs it on a point or on numpy arrays of points with the same bits
either way; every polynomial in Z and Zbar evaluated on its own (grid
and sampled margins, the boundary polynomial, the deltoid side of the
group checks) goes through it.  `spectral._ModeStore` evaluates many
eigenmodes at many points at once, one real matrix product per residue
class of modes and block of points, and rounds differently from Horner.
`su3._eval_compiled` evaluates a polynomial in the entries of a 3x3
matrix and their conjugates (an `EntryPoly`) on a stack of matrices.

The rational type at the API boundary (`coeff`, `terms`, `scale`'s
argument, inner products) is gmpy2.mpq when available and
fractions.Fraction otherwise.  Both expose .numerator/.denominator, so the
rest of the package only ever sees the alias `Rat`.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType

import numpy as np

try:
    from gmpy2 import mpq as Rat

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

    HAVE_GMPY2 = False

_RAT_TYPE = type(Rat(0))


def as_rat(x) -> "Rat":
    """Coerce ints, strings like '7/2', Fractions, or Rat to Rat."""
    if isinstance(x, _RAT_TYPE):
        return x
    if isinstance(x, str):
        if "/" in x:
            n, d = x.split("/", 1)
            return Rat(int(n), int(d))
        return Rat(int(x))
    if isinstance(x, float):
        raise TypeError("refusing float -> Rat; pass an int, string, or Rat")
    return Rat(x)


class CRat:
    """Gaussian rational a + b*i with exact rational a, b, as a value.

    It carries coefficients and scale factors across the API boundary and
    compares, hashes and tests truth (zero is falsy); it has no arithmetic.
    Gaussian-rational arithmetic lives in BivarPoly, on integer numerators.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, _RAT_TYPE) else as_rat(re)
        self.im = im if isinstance(im, _RAT_TYPE) else as_rat(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, _RAT_TYPE)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"


def _crat(x) -> CRat:
    if isinstance(x, CRat):
        return x
    if isinstance(x, complex):
        raise TypeError("refusing complex float -> CRat")
    return CRat(x)


def _gaussian(x) -> tuple:
    """(re, im, den): x as a Gaussian-integer numerator over a positive den."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, _RAT_TYPE):
        return int(x.numerator), 0, int(x.denominator)
    x = _crat(x)
    rd, idn = int(x.re.denominator), int(x.im.denominator)
    den = rd * idn // gcd(rd, idn)
    return int(x.re.numerator) * (den // rd), int(x.im.numerator) * (den // idn), den


def _order(key):
    # graded-lex: total degree first, then Z-degree; used by divexact and
    # anywhere a deterministic leading term is needed
    return (key[0] + key[1], key[0])


def _make(num: dict, den: int) -> "BivarPoly":
    """Polynomial num / den (den > 0), with the content divided out."""
    p = BivarPoly.__new__(BivarPoly)
    if not num:
        den = 1
    elif den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
            den //= g
    p.num = num
    p.den = den
    return p


class BivarPoly:
    """Polynomial in Z, Zbar: Gaussian-integer numerators over one den.

    Treat instances as immutable: every operation returns a fresh object
    and nothing in the package mutates `num` after construction.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        parts = []
        den = 1
        if terms:
            for key, c in terms.items():
                re, im, d = _gaussian(c)
                if re or im:
                    parts.append(((int(key[0]), int(key[1])), re, im, d))
                    den = den * d // gcd(den, d)
        num = {}
        for key, re, im, d in parts:
            f = den // d
            num[key] = (re * f, im * f)
        p = _make(num, den)
        self.num = p.num
        self.den = p.den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c=1) -> "BivarPoly":
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        return BivarPoly({(i, j): c})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(i + j for i, j in self.num)

    def _crat_at(self, key) -> CRat:
        re, im = self.num[key]
        return CRat(Rat(re, self.den), Rat(im, self.den))

    def coeff(self, i: int, j: int) -> CRat:
        if (i, j) not in self.num:
            return CRat()
        return self._crat_at((i, j))

    @property
    def terms(self):
        """Read-only {(i, j): CRat} view, built on each access."""
        return MappingProxyType({k: self._crat_at(k) for k in self.num})

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    # -- ring operations ------------------------------------------------

    def _combine(self, other: "BivarPoly", sign: int) -> "BivarPoly":
        # self + sign * other over the lcm of the two denominators
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        if fa == 1:
            out = dict(self.num)
        else:
            out = {k: (re * fa, im * fa) for k, (re, im) in self.num.items()}
        for key, (re, im) in other.num.items():
            re *= fb
            im *= fb
            s = out.get(key)
            if s is not None:
                re += s[0]
                im += s[1]
                if not (re or im):
                    del out[key]
                    continue
            out[key] = (re, im)
        return _make(out, da * fa)

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self):
        p = BivarPoly.__new__(BivarPoly)
        p.num = {k: (-re, -im) for k, (re, im) in self.num.items()}
        p.den = self.den
        return p

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, CRat, _RAT_TYPE)):
            return self.scale(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = {}
        get = out.get
        right = list(other.num.items())
        for (i1, j1), (a, b) in self.num.items():
            for (i2, j2), (c, d) in right:
                key = (i1 + i2, j1 + j2)
                re = a * c - b * d
                im = a * d + b * c
                s = get(key)
                if s is not None:
                    re += s[0]
                    im += s[1]
                    if not (re or im):
                        del out[key]
                        continue
                out[key] = (re, im)
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "BivarPoly":
        cr, ci, cd = _gaussian(c)
        if not (cr or ci):
            return BivarPoly()
        if ci:
            out = {
                k: (re * cr - im * ci, re * ci + im * cr)
                for k, (re, im) in self.num.items()
            }
        else:
            out = {k: (re * cr, im * cr) for k, (re, im) in self.num.items()}
        return _make(out, self.den * cd)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = BivarPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus -------------------------------------------------------

    def euler(self) -> "BivarPoly":
        """Degree-weighting operator: the (i, j) term picks up factor i+j."""
        out = {
            k: (re * (k[0] + k[1]), im * (k[0] + k[1]))
            for k, (re, im) in self.num.items()
            if k != (0, 0)
        }
        return _make(out, self.den)

    def conj_swap(self) -> "BivarPoly":
        """Swap the roles of Z and Zbar and conjugate the coefficients.

        On the real locus Zbar = conj(Z) this is complex conjugation of the
        polynomial's values.
        """
        p = BivarPoly.__new__(BivarPoly)
        p.num = {(j, i): (re, -im) for (i, j), (re, im) in self.num.items()}
        p.den = self.den
        return p

    # -- evaluation -----------------------------------------------------

    def complex_coeffs(self):
        """(i, j, nearest complex value) per term, in storage order."""
        den = self.den
        return [(i, j, complex(re / den, im / den)) for (i, j), (re, im) in self.num.items()]

    def eval(self, z):
        """Evaluate with Z := z and Zbar := conj(z); z may be a numpy array."""
        return HornerProgram(self).eval(z)

    def eval2(self, z, w):
        """Evaluate with Z := z, Zbar := w substituted independently.

        Horner in w inside each fixed Z-power group, then Horner in z over
        the groups; sparse exponent gaps are bridged with integer powers.
        This compiles the polynomial on every call; to evaluate one
        polynomial many times, build its HornerProgram once.

        z and w may be numpy arrays of points (broadcast against each
        other); the result is then a complex array.  Each element is
        bit for bit the complex that eval2 returns for the Python
        complex pair of scalars at that position, because the array path
        repeats CPython's complex arithmetic step by step in float64; where
        a scalar evaluation raises OverflowError, so does the array one.
        """
        return HornerProgram(self).eval2(z, w)

    # -- exact division -------------------------------------------------

    def divexact(self, d: "BivarPoly") -> "BivarPoly":
        """Exact quotient self/d; raises ValueError if d does not divide.

        Single-divisor multivariate division under graded-lex order.  If at
        any step the leading term of the running remainder is not divisible
        by the leading term of d, that term can never be cancelled later
        (later steps only touch strictly smaller terms), so the remainder
        is nonzero and we abort immediately.

        Fraction-free: both numerators are first multiplied by a Gaussian
        integer that turns the divisor's leading coefficient into a
        positive integer `lead`.  The remainder is kept as integers over a
        running denominator, which grows by the least factor that makes
        the next leading coefficient divisible by `lead`.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        d_lm = max(d.num, key=_order)
        lr, li = d.num[d_lm]
        g = gcd(lr, li)
        cr, ci = lr // g, -li // g
        lead = (lr * lr + li * li) // g
        div = [
            (k, (br * cr - bi * ci, br * ci + bi * cr))
            for k, (br, bi) in d.num.items()
        ]
        rem = {
            k: (ar * cr - ai * ci, ar * ci + ai * cr)
            for k, (ar, ai) in self.num.items()
        }
        rden = 1
        quot = {}
        while rem:
            lm = max(rem, key=_order)
            qi, qj = lm[0] - d_lm[0], lm[1] - d_lm[1]
            if qi < 0 or qj < 0:
                raise ValueError("not divisible: leading-term obstruction")
            re, im = rem[lm]
            m = lead // gcd(lead, re, im)
            if m != 1:
                rem = {k: (a * m, b * m) for k, (a, b) in rem.items()}
                rden *= m
                re *= m
                im *= m
            qr, qm = re // lead, im // lead
            quot[(qi, qj)] = (qr, qm, rden)
            for (i, j), (br, bi) in div:
                key = (i + qi, j + qj)
                s = rem.get(key, (0, 0))
                nr = s[0] - (qr * br - qm * bi)
                ni = s[1] - (qr * bi + qm * br)
                if nr or ni:
                    rem[key] = (nr, ni)
                else:
                    rem.pop(key, None)
        # the quotient of the scaled numerators is sum q / rden_k, and
        # self / d = that quotient times d.den / self.den
        f = d.den
        out = {}
        for key, (qr, qm, qden) in quot.items():
            s = rden // qden * f
            out[key] = (qr * s, qm * s)
        return _make(out, rden * self.den)

    # -- serialization --------------------------------------------------

    def to_records(self) -> list:
        """JSON-ready list of {i, j, re_num, re_den, im_num, im_den}."""
        out = []
        den = self.den
        for (i, j) in sorted(self.num):
            re, im = self.num[(i, j)]
            gr, gi = gcd(re, den), gcd(im, den)
            out.append(
                {
                    "i": i,
                    "j": j,
                    "re_num": re // gr,
                    "re_den": den // gr,
                    "im_num": im // gi,
                    "im_den": den // gi,
                }
            )
        return out

    def __repr__(self):
        if not self.num:
            return "BivarPoly(0)"
        bits = []
        for (i, j) in sorted(self.num, key=_order, reverse=True)[:8]:
            mono = "".join(
                s for s, e in (("Z", i), ("Zb", j)) for s in ([f"{s}^{e}"] if e > 1 else [s] if e == 1 else [])
            )
            c = self._crat_at((i, j))
            bits.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        tail = " + ..." if len(self.num) > 8 else ""
        return "BivarPoly(" + " + ".join(bits) + tail + ")"


def c_prod(ar, ai, br, bi):
    """(ar + ai i)(br + bi i) as (re, im), rounded as CPython rounds it.

    CPython's complex product (_Py_c_prod) rounds each of the four real
    products and the two sums on its own.  Written out on float64 arrays
    as separate ufuncs, it gives the same bits; numpy's own complex
    multiply does not always (it may fuse a product into the sum).
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _c_pow(xr, xi, n):
    """x ** n for an int n >= 1, as CPython's complex ** int computes it.

    CPython uses binary exponentiation from 1 + 0i up to n = 100 and the
    polar formula beyond; the polar case is left to CPython, per element.
    """
    if n > 100:
        flat = [complex(r, i) ** n for r, i in
                zip(np.ravel(xr).tolist(), np.ravel(xi).tolist())]
        out = np.array(flat, dtype=complex).reshape(np.shape(xr))
        return out.real, out.imag
    rr, ri = 1.0, 0.0
    pr, pi = xr, xi
    mask = 1
    while True:
        if n & mask:
            rr, ri = c_prod(rr, ri, pr, pi)
        mask <<= 1
        if mask > n:
            break
        pr, pi = c_prod(pr, pi, pr, pi)
    # CPython raises where a power overflows to infinity
    if np.isinf(rr).any() or np.isinf(ri).any():
        raise OverflowError("complex exponentiation")
    return rr, ri


# points per pass of an array evaluation: the float temporaries of a
# block stay small enough to be reused from the heap and to stay in cache
_BLOCK = 4096


class HornerProgram:
    """A BivarPoly compiled once into its sparse two-level Horner scheme.

    The float coefficients come from complex_coeffs(), grouped by the
    power of Z in descending order and, inside a group, by the power of
    Zbar in descending order.  Each group is (gap in the power of Z from
    the previous group, leading coefficient, ((gap in the power of Zbar,
    coefficient), ...), trailing power of Zbar); `ztail` is the least
    power of Z.  The program holds floats only and never changes, so one
    can be shared freely.

    eval2 and eval take a scalar or numpy arrays (see BivarPoly.eval2).
    """

    __slots__ = ("groups", "ztail")

    def __init__(self, poly: BivarPoly):
        groups = []
        prev_i = prev_j = None
        # descending (i, j); no two terms share (i, j), so c is never compared
        for i, j, c in sorted(poly.complex_coeffs(), reverse=True):
            if i == prev_i:
                steps.append((prev_j - j, c))
            else:
                if prev_i is not None:
                    groups.append((zgap, c0, tuple(steps), prev_j))
                zgap = 0 if prev_i is None else prev_i - i
                c0, steps = c, []
                prev_i = i
            prev_j = j
        if prev_i is not None:
            groups.append((zgap, c0, tuple(steps), prev_j))
        self.groups = tuple(groups)
        self.ztail = prev_i or 0

    def eval(self, z):
        """Evaluate with Z := z and Zbar := conj(z)."""
        if isinstance(z, np.ndarray):
            z = z.astype(complex, copy=False)
            return self._arrays(z, np.conj(z))
        return self._scalars(z, complex(z).conjugate())

    def eval2(self, z, w):
        """Evaluate with Z := z and Zbar := w."""
        if isinstance(z, np.ndarray) or isinstance(w, np.ndarray):
            return self._arrays(np.asarray(z, dtype=complex),
                                np.asarray(w, dtype=complex))
        return self._scalars(z, w)

    def _scalars(self, z, w):
        if not self.groups:
            return 0j
        acc = None
        for zgap, c0, steps, jtail in self.groups:
            inner = c0
            for gap, c in steps:
                inner = inner * w**gap + c
            if jtail:
                inner *= w**jtail
            acc = inner if acc is None else acc * z**zgap + inner
        if self.ztail:
            acc *= z**self.ztail
        return acc

    def _arrays(self, z, w):
        shape = np.broadcast_shapes(z.shape, w.shape)
        out = np.zeros(shape, dtype=complex)
        if not self.groups:
            return out
        zf = np.broadcast_to(z, shape).reshape(-1)
        wf = np.broadcast_to(w, shape).reshape(-1)
        flat = out.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, flat.size, _BLOCK):
                hi = lo + _BLOCK
                self._block(zf[lo:hi], wf[lo:hi], flat[lo:hi])
        return out

    def _block(self, z, w, out):
        # the steps of _scalars, on (re, im) float arrays
        zp, wp = _Powers(z), _Powers(w)
        accr = acci = None
        for zgap, c0, steps, jtail in self.groups:
            ir, ii = c0.real, c0.imag
            for gap, c in steps:
                ir, ii = c_prod(ir, ii, *wp[gap])
                ir, ii = ir + c.real, ii + c.imag
            if jtail:
                ir, ii = c_prod(ir, ii, *wp[jtail])
            if accr is None:
                accr, acci = ir, ii
            else:
                accr, acci = c_prod(accr, acci, *zp[zgap])
                accr, acci = accr + ir, acci + ii
        if self.ztail:
            accr, acci = c_prod(accr, acci, *zp[self.ztail])
        out.real = accr
        out.imag = acci


class _Powers(dict):
    """(re, im) of x ** n for a complex array x, made on first use of n.

    The same power rounds the same way every time, so one evaluation
    computes each exponent once.
    """

    def __init__(self, x):
        super().__init__()
        self.x = x

    def __missing__(self, n):
        self[n] = _c_pow(self.x.real, self.x.imag, n)
        return self[n]


ZERO = BivarPoly.zero()
ONE = BivarPoly.const(1)
Z = BivarPoly.monomial(1, 0)
ZBAR = BivarPoly.monomial(0, 1)
