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
empty map.  Ring operations, derivatives and exact division run on ints
with one gcd normalisation per result, instead of a gcd per coefficient
operation.

Float conversion divides each numerator by den as Python ints.  Integer
true division is correctly rounded, so a float coefficient is exactly
the float nearest the rational value, the same as float(Fraction).

The rational type at the API boundary (`coeff`, `terms`, `scale`'s
argument, inner products) is gmpy2.mpq when available and
fractions.Fraction otherwise.  Both expose .numerator/.denominator, so the
rest of the package only ever sees the alias `Rat`.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType

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
    """Gaussian rational a + b*i with exact rational a, b."""

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

    def __add__(self, other):
        other = _crat(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __sub__(self, other):
        other = _crat(other)
        return CRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _crat(other) - self

    def __mul__(self, other):
        other = _crat(other)
        return CRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _crat(other)
        den = other.re * other.re + other.im * other.im
        if not den:
            raise ZeroDivisionError("division by zero CRat")
        return CRat(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

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

    def partial(self, var: str) -> "BivarPoly":
        """Formal partial derivative; var is 'Z' or 'Zbar'."""
        if var == "Z":
            out = {
                (i - 1, j): (re * i, im * i)
                for (i, j), (re, im) in self.num.items()
                if i
            }
        elif var == "Zbar":
            out = {
                (i, j - 1): (re * j, im * j)
                for (i, j), (re, im) in self.num.items()
                if j
            }
        else:
            raise ValueError(f"unknown variable {var!r}")
        return _make(out, self.den)

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

    def eval(self, z: complex) -> complex:
        """Evaluate with Z := z and Zbar := conj(z)."""
        return self.eval2(z, complex(z).conjugate())

    def eval2(self, z: complex, w: complex) -> complex:
        """Evaluate with Z := z, Zbar := w substituted independently.

        Horner in w inside each fixed Z-power group, then Horner in z over
        the groups; sparse exponent gaps handled by repeated squaring.
        """
        if not self.num:
            return 0j
        groups: dict[int, list] = {}
        for i, j, c in self.complex_coeffs():
            groups.setdefault(i, []).append((j, c))
        acc = 0j
        prev_i = None
        for i in sorted(groups, reverse=True):
            inner = 0j
            prev_j = None
            for j, c in sorted(groups[i], reverse=True):
                if prev_j is None:
                    inner = c
                else:
                    inner = inner * w ** (prev_j - j) + c
                prev_j = j
            if prev_j:
                inner *= w**prev_j
            if prev_i is None:
                acc = inner
            else:
                acc = acc * z ** (prev_i - i) + inner
            prev_i = i
        if prev_i:
            acc *= z**prev_i
        return acc

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

    @staticmethod
    def from_records(records) -> "BivarPoly":
        terms = {}
        for r in records:
            terms[(r["i"], r["j"])] = CRat(
                Rat(r["re_num"], r["re_den"]), Rat(r["im_num"], r["im_den"])
            )
        return BivarPoly(terms)

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


ZERO = BivarPoly.zero()
ONE = BivarPoly.const(1)
Z = BivarPoly.monomial(1, 0)
ZBAR = BivarPoly.monomial(0, 1)
