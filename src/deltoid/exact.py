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
Float evaluation has one implementation per ring.  PolyTable, here,
evaluates polynomials in Z and Zbar: rows of one table of monomials,
each summed in a fixed order, so a value has the same bits wherever it
is computed.  Every float value of a BivarPoly comes from it: `eval`
and `eval2`, the grid and sampled margins, the boundary polynomial, the
deltoid side of the group checks and the eigenmodes of the mode store.
`su3._eval_compiled` evaluates a polynomial in the entries of a 3x3
matrix and their conjugates (an `EntryPoly`) on a stack of matrices.

The rational type at the API boundary (`coeff`, `terms`, `scale`'s
argument, inner products) is gmpy2.mpq when available and
fractions.Fraction otherwise.  Both expose .numerator/.denominator, so the
rest of the package only ever sees the alias `Rat`.

The numpy binding is made here as well.  `np` is numpy itself when
numpy was imported before this module, and otherwise a lazy module that
imports numpy on its first attribute read.  Every module of the package
takes `np` from here, so the exact layer and the exact subcommands never
load numpy, and the first float read loads it.  A module that wrote
`import numpy` would load it at once, since the import statement reads
the lazy module's __spec__.

`record` is here for the same reason: it is the package's one record
declaration.  The reports and value types (Lambda, EigenPolynomial, the
check reports) are frozen records with the behaviour of a frozen
dataclass, but `record` builds their methods as closures, so importing
the package loads neither dataclasses nor inspect and generates no
source.
"""

from __future__ import annotations

import importlib.util
import sys
from math import gcd
from operator import attrgetter
from types import MappingProxyType

try:
    from gmpy2 import mpq as Rat

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

    HAVE_GMPY2 = False


def _lazy_numpy():
    # the importlib LazyLoader recipe: numpy runs its import on the first
    # attribute read of the returned module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = sys.modules.get("numpy") or _lazy_numpy()


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, eq=True):
    """Class decorator: a frozen record of the class's annotated fields.

    The annotations give the fields, in order, and a class-level value is
    a field's default.  It installs what a frozen dataclass would, unless
    the class defines it: `__init__` (positional, then keyword arguments),
    `__repr__` as `Name(field=value, ...)`, and a `__setattr__` and
    `__delattr__` that raise AttributeError.  With eq (the default),
    `__eq__` compares the field tuples of two instances of one class and
    `__hash__` hashes the field tuple; with eq=False, equality is
    identity.  Fields live in the instance `__dict__`, in field order.
    The methods are closures over the field names: no source is generated.
    """
    if cls is None:
        return lambda c: record(c, eq=eq)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)

    def __init__(self, *args, **kwargs):
        # the fast paths: every field, positionally or by keyword in order
        if not kwargs and len(args) == n:
            self.__dict__.update(zip(names, args))
        elif not args and tuple(kwargs) == names:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(_bind(args, kwargs))

    def _bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        for key in kwargs:
            if key not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword "
                                f"argument {key!r}")
            if key in names[:len(args)]:
                raise TypeError(f"{cls.__qualname__}() got multiple values for "
                                f"argument {key!r}")
        bound = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                bound[name] = kwargs[name]
            elif name in defaults:
                bound[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument "
                                f"{name!r}")
        return bound

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    methods = {"__init__": __init__, "__repr__": __repr__,
               "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}
    if eq:
        get = attrgetter(*names)
        # attrgetter of one name returns the value itself, not a 1-tuple
        values = get if n > 1 else lambda obj: (get(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


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
        return self.eval2(z, np.conj(z))

    def eval2(self, z, w):
        """Evaluate with Z := z, Zbar := w substituted independently.

        z and w may be numpy arrays of points, broadcast against each
        other; the result is then a complex array, and a Python complex
        for two scalars.  The polynomial is one row of a PolyTable built
        on every call; to evaluate many polynomials, or one many times,
        build their table once.  Raises OverflowError where a power of z
        or w that it forms overflows.
        """
        v = PolyTable([self.complex_coeffs()]).values(z, w)[0]
        return complex(v) if v.ndim == 0 else v

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


# points per pass of a table evaluation: the monomial arrays of a block
# stay small enough to be reused from the heap and to stay in cache
_BLOCK = 1024


def _powers(x, n):
    """(re, im) of x ** k for k = 0..n, stacked along a new first axis,
    for a complex array x: each power is the one before times x, by
    c_prod.

    Raises OverflowError, as CPython's complex ** int does, where a
    power has an infinite part.
    """
    re, im = np.empty((n + 1,) + x.shape), np.empty((n + 1,) + x.shape)
    re[0], im[0] = 1.0, 0.0
    # contiguous parts: a ufunc on the strided views of x runs slower
    xr, xi = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    for k in range(1, n + 1):
        re[k], im[k] = c_prod(re[k - 1], im[k - 1], xr, xi)
    if np.isinf(re[1:]).any() or np.isinf(im[1:]).any():
        raise OverflowError("complex exponentiation")
    return re, im


class PolyTable:
    """Polynomials in Z and Zbar evaluated as the rows of one monomial table.

    Built from one list of (i, j, complex coefficient) terms per row, as
    complex_coeffs() gives them.  The columns are the monomials
    Z^i Zbar^j of all the rows, in ascending (i, j); `re` holds the real
    parts of the coefficients, rows by columns, and `im` the imaginary
    parts, or None when every coefficient is real.  A table holds floats
    only and never changes, so one can be shared freely.

    values(z, w) substitutes Z := z and Zbar := w.  Per block of points
    it forms the powers of z and of w by successive products and each
    monomial z^i w^j by one more, all in CPython's complex rounding
    (c_prod).  Each row is then summed against the monomials by einsum,
    not BLAS, from 0.0 and left to right in ascending (i, j): one sum A
    over the real parts of the coefficients and, apart, one sum B over
    the imaginary parts, and the value is A + iB.  A zero coefficient
    adds a signed zero to a sum that is never -0.0, so where every
    monomial is finite a row's value has the bits of the plain ordered
    sum of its own terms, whatever the table, its position in it or its
    block.  Where a power
    of z or w up to the table's highest exponent overflows, values raises
    OverflowError.
    """

    __slots__ = ("i", "j", "re", "im")

    def __init__(self, rows):
        keys = sorted({(i, j) for terms in rows for i, j, _ in terms})
        col = {key: k for k, key in enumerate(keys)}
        coef = np.zeros((len(rows), len(keys)), dtype=complex)
        coef.reshape(-1)[[r * len(keys) + col[i, j] for r, terms in enumerate(rows)
                          for i, j, _ in terms]] = [c for terms in rows for _, _, c in terms]
        self.i = np.array([i for i, _ in keys], dtype=np.intp)
        self.j = np.array([j for _, j in keys], dtype=np.intp)
        self.re = np.ascontiguousarray(coef.real)
        self.im = np.ascontiguousarray(coef.imag) if coef.imag.any() else None

    def values(self, z, w=None):
        """Every row at every point: shape (rows,) + the broadcast shape
        of z and w, with w = conj(z) when it is not given."""
        z = np.asarray(z, dtype=complex)
        z, w = np.broadcast_arrays(z, np.conj(z) if w is None else np.asarray(w, dtype=complex))
        shape = z.shape
        z, w = z.reshape(-1), w.reshape(-1)
        out = np.empty((len(self.re), z.size), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, z.size, _BLOCK):
                hi = lo + _BLOCK
                out[:, lo:hi] = self._block(z[lo:hi], w[lo:hi])
        return out.reshape((len(self.re),) + shape)

    def _block(self, z, w):
        # the powers of z and of w side by side: [k, 0] is z^k, [k, 1] is w^k
        re, im = _powers(np.stack([z, w]), int(max(self.i.max(initial=0),
                                                   self.j.max(initial=0))))
        mono = np.empty((len(self.i), len(z), 2))
        mono[..., 0], mono[..., 1] = c_prod(re[self.i, 0], im[self.i, 0],
                                            re[self.j, 1], im[self.j, 1])
        # one float64 row per monomial, its points' (re, im) side by side
        mono = mono.reshape(len(self.i), 2 * len(z))
        vals = np.einsum("pm,mx->px", self.re, mono)
        if self.im is not None:
            # sum ci m = (sum ci mr) + i (sum ci mi), times i
            extra = np.einsum("pm,mx->px", self.im, mono)
            vals[:, 0::2] -= extra[:, 1::2]
            vals[:, 1::2] += extra[:, 0::2]
        return vals.view(complex)


ONE = BivarPoly.const(1)
Z = BivarPoly.monomial(1, 0)
ZBAR = BivarPoly.monomial(0, 1)
