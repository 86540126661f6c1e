"""Eigenpolynomials, exact moments, inner products, and degree spaces.

The generator maps the monomial Z^i Zbar^j to -mu_{i,j} times itself plus
three lower-degree monomials:

    L(Z^i Zbar^j) = -mu_{i,j} Z^i Zbar^j
                    + i(i-1) Z^(i-2) Zbar^(j+1)
                    + i j    Z^(i-1) Zbar^(j-1)
                    + j(j-1) Z^(i+1) Zbar^(j-2)

with mu_{i,j} = (lam-1)(i+j) + i^2 + ij + j^2.  The eigen solver
back-substitutes that display, and the moment recursion integrates it
against the invariant measure; `moments`, `inner_product` and the heat
truncation's `integrates_to_delta` read the moments.

The squared norms do not.  The eigenpolynomials are the A2
Heckman-Opdam (Jack-type) polynomials of multiplicity k = (lam - 1)/3,
and their norms have a closed product formula (Macdonald, Symmetric
Functions and Hall Polynomials, 2nd ed., VI.10; Heckman and Opdam
1987), which `_norm2` evaluates in integers.  The moments therefore
give an independent cross-check: <P, P> = norm2 from a moment table is
asserted in the tests, in acceptance and in the spectrum benchmark.

Each lowering move drops i^2+ij+j^2 by at least 3 while dropping total
degree by at most 2, so mu strictly decreases along moves for every
lam > 0.  The EigenvalueCollision guard in the solver is therefore
believed unreachable; it stays as a defensive check on the divide.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import BivarPoly, CRat, Rat, _make
from .operator import Lambda, _lam


class EigenvalueCollision(Exception):
    """Raised if back-substitution would divide by a zero eigenvalue gap."""


class MomentRangeExceeded(Exception):
    """Moment lookup outside the table's computed degree range."""


class NonpositiveNorm(Exception):
    """An eigenpolynomial's exact squared norm came out <= 0."""


class EigenvalueCountMismatch(Exception):
    """A degree space H_k has other than k // 2 + 1 distinct eigenvalues."""


def eigenvalue(p: int, q: int, lam) -> "Rat":
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    lv = _lam(lam)
    return (lv - 1) * (p + q) + Rat(p * p + p * q + q * q)


@dataclass(frozen=True)
class EigenPolynomial:
    p: int
    q: int
    lam: Lambda
    poly: BivarPoly
    mu: "Rat"
    norm2: "Rat"


class MomentTable:
    """Exact values of integral(Z^i Zbar^j) against the invariant measure.

    Only nonzero moments are stored (they vanish unless i = j mod 3, a
    consequence of the recursion, not an input assumption).  Lookups
    outside max_degree raise MomentRangeExceeded instead of returning a
    silent zero.
    """

    def __init__(self, lam: Lambda, max_degree: int):
        self.lam = lam if isinstance(lam, Lambda) else Lambda(lam)
        self.max_degree = -1
        self._m = {}
        self._ints = None
        self.extend_to(max_degree)

    def extend_to(self, max_degree: int) -> "MomentTable":
        if max_degree <= self.max_degree:
            return self
        lv = self.lam.value
        start = self.max_degree + 1
        if start == 0:
            self._m[(0, 0)] = Rat(1)
            start = 1
        for deg in range(start, max_degree + 1):
            for i in range(deg + 1):
                j = deg - i
                acc = Rat(0)
                if i >= 2:
                    acc += i * (i - 1) * self._m.get((i - 2, j + 1), Rat(0))
                if i >= 1 and j >= 1:
                    acc += i * j * self._m.get((i - 1, j - 1), Rat(0))
                if j >= 2:
                    acc += j * (j - 1) * self._m.get((i + 1, j - 2), Rat(0))
                if acc:
                    self._m[(i, j)] = acc / eigenvalue(i, j, self.lam)
        self.max_degree = max_degree
        self._ints = None
        return self

    def get(self, i: int, j: int) -> "Rat":
        if i < 0 or j < 0 or i + j > self.max_degree:
            raise MomentRangeExceeded(f"moment ({i},{j}) beyond degree {self.max_degree}")
        return self._m.get((i, j), Rat(0))

    def items(self):
        return self._m.items()

    def integers(self) -> tuple:
        """(num, den): every stored moment as num[(i, j)] / den, one den.

        Built on first use after each extension and kept on the table.
        """
        if self._ints is None:
            den = 1
            for m in self._m.values():
                d = int(m.denominator)
                den = den * d // gcd(den, d)
            num = {
                k: int(m.numerator) * (den // int(m.denominator))
                for k, m in self._m.items()
            }
            self._ints = (num, den)
        return self._ints


def moments(lam, max_degree: int) -> MomentTable:
    return MomentTable(lam if isinstance(lam, Lambda) else Lambda(lam), max_degree)


def _norm2(p: int, q: int, a: int, b: int) -> "Rat":
    """||P_{p,q}||^2 at lam = a/b, from the closed A2 norm formula.

    With K = a - b and B = 3b (so k = K/B), the partition (p+q, q, 0)
    gives

        9^-(p+q) prod over (s, d) in {(1, p), (1, q), (2, p+q)} of
            prod_{t<d} (K(s+1) + Bt)/(Ks + Bt) * (K(s-1) + B(1+t))/(Ks + B(1+t)),

    where the first factor at t = 0 is read as (s+1)/s: that is its
    value for K != 0 and the right limit at lam = 1, where K = 0.  For
    t >= 1 every factor is positive because K > -b, so the norm is
    positive for every lam > 0.  One Rat is formed from the integer
    products at the end.
    """
    K, B = a - b, 3 * b
    num, den = 1, 9 ** (p + q)
    for s, d in ((1, p), (1, q), (2, p + q)):
        for t in range(d):
            if t:
                num *= K * (s + 1) + B * t
                den *= K * s + B * t
            else:
                num *= s + 1
                den *= s
            num *= K * (s - 1) + B * (1 + t)
            den *= K * s + B * (1 + t)
    return Rat(num, den)


def solve_eigenpoly(p: int, q: int, lam) -> EigenPolynomial:
    """Unique eigenpolynomial with monic leading monomial Z^p Zbar^q.

    Processes monomials in decreasing (degree, i) order; every lowering
    move lands strictly below the current degree, so each coefficient is
    fully accumulated before it is resolved.

    The back-substitution is fraction-free.  With lam = a/b every scaled
    gap b (mu_key - mu_target) is an integer; coefficients are integers
    over a running denominator, which a gap enlarges only by the factor
    that the new coefficient's reduced denominator needs.  Pending sums
    are rescaled when it grows, resolved coefficients once at the end.
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    a, b = int(lam.value.numerator), int(lam.value.denominator)
    target = (a - b) * (p + q) + b * (p * p + p * q + q * q)
    den = 1
    coeffs = {}  # key -> (numerator, den when it was resolved)
    incoming = {(p, q): 1}  # key -> pending numerator over den
    # moves keep i - j mod 3, so only those keys of each degree can occur
    r = (p - q) % 3
    for deg in range(p + q, -1, -1):
        for i in range(deg - (r - deg) % 3, -1, -3):
            j = deg - i
            n = incoming.pop((i, j), 0)
            if not n:
                continue
            if deg == p + q:
                c = 1
            else:
                # c = n / (mu_key - mu_target) = b n / (den gap)
                gap = (a - b) * deg + b * (i * i + i * j + j * j) - target
                if not gap:
                    raise EigenvalueCollision(
                        f"mu({(i, j)}) = mu({(p, q)}) at lambda = {lam.value}"
                    )
                c = b * n
                if gap < 0:
                    c, gap = -c, -gap
                g = gcd(c, gap)
                c, gap = c // g, gap // g
                if gap != 1:
                    f = gcd(c, den, gap)
                    grow = gap // f
                    c //= f
                    if grow != 1:
                        den *= grow
                        for k in incoming:
                            incoming[k] *= grow
            coeffs[(i, j)] = (c, den)
            for tgt, w in (((i - 2, j + 1), i * (i - 1)),
                           ((i - 1, j - 1), i * j),
                           ((i + 1, j - 2), j * (j - 1))):
                if w:
                    incoming[tgt] = incoming.get(tgt, 0) + w * c
    poly = _make({k: (n * (den // d), 0) for k, (n, d) in coeffs.items()}, den)
    norm2 = _norm2(p, q, a, b)
    # positive by the formula for lam > 0; kept as a defensive check
    if norm2 <= 0:
        raise NonpositiveNorm(f"nonpositive norm for P_{p},{q}")
    mu = Rat(target, b)
    return EigenPolynomial(p=p, q=q, lam=lam, poly=poly, mu=mu, norm2=norm2)


def _mirror(ep: EigenPolynomial) -> EigenPolynomial:
    """P_{q,p} from P_{p,q}: the same coefficients with i and j swapped.

    L and the moments are symmetric under Z <-> Zbar and the coefficients
    are real, so mu and the squared norm carry over.  The swapped terms
    are laid out in the solver's storage order (degree descending, then
    the power of Z descending), so the result equals a direct solve
    down to the order of `num`.
    """
    swapped = sorted(ep.poly.num.items(),
                     key=lambda kv: (-kv[0][0] - kv[0][1], -kv[0][1]))
    poly = _make({(j, i): c for (i, j), c in swapped}, ep.poly.den)
    return EigenPolynomial(p=ep.q, q=ep.p, lam=ep.lam, poly=poly, mu=ep.mu,
                           norm2=ep.norm2)


def _degree_basis(k: int, lam: Lambda) -> tuple:
    """The eigenpolynomials of total degree k, p from k down to 0.

    Only p >= q is solved; each P_{q,p} with q > p mirrors its partner.
    """
    basis = {}
    for p in range(k, -1, -1):
        q = k - p
        basis[p] = solve_eigenpoly(p, q, lam) if p >= q else _mirror(basis[q])
    return tuple(basis.values())


def inner_product(f: BivarPoly, g: BivarPoly, table: MomentTable) -> CRat:
    """Exact integral of f * conj(g) against the invariant measure.

    conj(g) contributes conj(g_kl) Zbar^k Z^l on the real locus, so the
    expansion is sum over f_(i,j), g_(k,l) of f conj(g) m_(i+l, j+k),
    summed as integers over f.den * g.den * (the moments' common den).
    """
    if f.degree() + g.degree() > table.max_degree:
        raise MomentRangeExceeded(
            f"degree {f.degree()}+{g.degree()} exceeds table degree {table.max_degree}"
        )
    mnum, mden = table.integers()
    get = mnum.get
    right = [(l, k, gr, gi) for (k, l), (gr, gi) in g.num.items()]
    re = im = 0
    for (i, j), (fr, fi) in f.num.items():
        for l, k, gr, gi in right:
            m = get((i + l, j + k))
            if m:
                re += (fr * gr + fi * gi) * m
                im += (fi * gr - fr * gi) * m
    den = f.den * g.den * mden
    return CRat(Rat(re, den), Rat(im, den))


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


def hk_space(k: int, lam) -> HkSpace:
    """All eigenpolynomials of total degree k plus their real forms."""
    if k < 0:
        raise ValueError("need k >= 0")
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    basis = _degree_basis(k, lam)
    half = CRat(Rat(1, 2))
    neg_half_i = CRat(Rat(0), -Rat(1, 2))
    sym = []
    antisym = []
    for ep in basis:
        p, q = ep.p, ep.q
        if p < q:
            continue
        partner = next(e.poly for e in basis if e.p == q and e.q == p)
        sym.append((ep.poly + partner).scale(half))
        if p > q:
            antisym.append((ep.poly - partner).scale(neg_half_i))
    mus = sorted({(int(e.mu.numerator), int(e.mu.denominator)) for e in basis})
    distinct = tuple(Rat(n, d) for n, d in mus)
    expected = k // 2 + 1 if k else 1
    if len(distinct) != expected:
        raise EigenvalueCountMismatch(
            f"H_{k} has {len(distinct)} distinct eigenvalues, expected {expected}"
        )
    return HkSpace(
        k=k,
        basis=basis,
        sym=tuple(sym),
        antisym=tuple(antisym),
        distinct_eigenvalues=distinct,
    )
