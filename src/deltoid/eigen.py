"""Eigenpolynomials, exact moments and inner products.

The generator maps the monomial Z^i Zbar^j to -mu_{i,j} times itself plus
three lower-degree monomials:

    L(Z^i Zbar^j) = -mu_{i,j} Z^i Zbar^j
                    + i(i-1) Z^(i-2) Zbar^(j+1)
                    + i j    Z^(i-1) Zbar^(j-1)
                    + j(j-1) Z^(i+1) Zbar^(j-2)

with mu_{i,j} = (lam-1)(i+j) + i^2 + ij + j^2.  One mode is solved by
back-substituting that display (`solve_eigenpoly`, the single-mode API
and the reference for the builder).  A truncation's modes are built a
degree at a time by the A2 Pieri recurrence for multiplication by Z
(`_pieri_modes`), with no back-substitution.  The moment recursion
integrates the display against the invariant measure; `pairings` alone
reads the moments, for `inner_product`, the heat truncation's
`integrates_to_delta` and acceptance's Gram block of the modes.

The squared norms do not.  The eigenpolynomials are the A2
Heckman-Opdam (Jack-type) polynomials of multiplicity k = (lam - 1)/3,
and their norms have a closed product formula (Macdonald, Symmetric
Functions and Hall Polynomials, 2nd ed., VI.10; Heckman and Opdam
1987), which `_norm2` evaluates in integers.  The moments therefore
give an independent cross-check: <P, P> = norm2 from a moment table is
asserted in the tests, in acceptance and in the spectrum benchmark.
P(1) and the cusp weight P(1)^2/||P||^2 are closed products of the
same factors (`value_at_one`, `cusp_table`), read with no mode built.

Each lowering move drops i^2+ij+j^2 by at least 3 while dropping total
degree by at most 2, so mu strictly decreases along moves for every
lam > 0.  The EigenvalueCollision guard in the solver is therefore
believed unreachable; it stays as a defensive check on the divide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby, islice
from math import gcd, lcm

from .exact import BivarPoly, CRat, Rat, _make
from .operator import Lambda, _lam


class EigenvalueCollision(Exception):
    """Raised if back-substitution would divide by a zero eigenvalue gap."""


class RecurrenceBreakdown(Exception):
    """Raised if a Pieri coefficient a(p) would divide by zero."""


class MomentRangeExceeded(Exception):
    """Moment lookup outside the table's computed degree range."""


class NonpositiveNorm(Exception):
    """An eigenpolynomial's exact squared norm came out <= 0."""


def eigenvalue(p: int, q: int, lam) -> "Rat":
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    lv = _lam(lam).value
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
        self.lam = _lam(lam)
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
        """(num, den): moment (i, j) is num[i * (max_degree + 1) + j] / den,
        one den for all and 0 for a zero moment; kept until extend_to."""
        if self._ints is None:
            den = lcm(*(int(m.denominator) for m in self._m.values()))
            s = self.max_degree + 1
            num = [0] * (s * s)
            for (i, j), m in self._m.items():
                num[i * s + j] = int(m.numerator) * (den // int(m.denominator))
            self._ints = (num, den)
        return self._ints


def moments(lam, max_degree: int) -> MomentTable:
    return MomentTable(_lam(lam), max_degree)


def _scaled_mu(p: int, q: int, a: int, b: int) -> int:
    """b mu_{p,q} at lam = a/b, an integer."""
    return (a - b) * (p + q) + b * (p * p + p * q + q * q)


def _factors(s: int, d: int, K: int, B: int):
    """(alpha num, alpha den, beta num, beta den) for each t < d, with
    alpha = (K(s+1) + Bt)/(Ks + Bt) and beta = (K(s-1) + B(1+t))/(Ks + B(1+t)).
    alpha at t = 0 is read as (s+1)/s: its value for K != 0 and its limit
    at lam = 1, where K = 0.  With K = a - b and B = 3b at lam = a/b > 0,
    every factor is a positive integer."""
    for t in range(d):
        an, ad = (K * (s + 1) + B * t, K * s + B * t) if t else (s + 1, s)
        yield an, ad, K * (s - 1) + B * (1 + t), K * s + B * (1 + t)


def _products(p: int, q: int, a: int, b: int) -> tuple:
    """(prod alpha num, den, prod beta num, den) of P_{p,q} at lam = a/b,
    over (s, d) in {(1, p), (1, q), (2, p+q)}, the partition (p+q, q, 0)."""
    an = ad = bn = bd = 1
    for s, d in ((1, p), (1, q), (2, p + q)):
        for x, y, u, v in _factors(s, d, a - b, 3 * b):
            an, ad, bn, bd = an * x, ad * y, bn * u, bd * v
    return an, ad, bn, bd


def _norm2(p: int, q: int, a: int, b: int) -> "Rat":
    """||P_{p,q}||^2 = 9^-(p+q) prod alpha beta at lam = a/b, the closed A2
    norm, positive for every lam > 0."""
    an, ad, bn, bd = _products(p, q, a, b)
    return Rat(an * bn, 9 ** (p + q) * ad * bd)


def value_at_one(p: int, q: int, lam) -> "Rat":
    """P_{p,q}(1) = 3^-(p+q) prod alpha, the value at a cusp: the Jack
    evaluation formula at 1^n (Macdonald, VI (10.20)) for the monic P."""
    lv = _lam(lam).value
    an, ad, _, _ = _products(p, q, int(lv.numerator), int(lv.denominator))
    return Rat(an, 3 ** (p + q) * ad)


def cusp_table(lam, degree: int) -> tuple:
    """(mu, w) as floats for every mode of total degree <= degree, in
    truncation order, with w = P(1)^2/||P||^2 = prod alpha/beta, which is
    F_1(p) F_1(q) F_2(p+q) for F_s(d) the product over t < d of s's
    factors.  Each w is one integer ratio, rounded once as float(Rat) is."""
    lv = _lam(lam).value
    a, b = int(lv.numerator), int(lv.denominator)
    f = {1: [(1, 1)], 2: [(1, 1)]}  # F_s(d) as (num, den), d = 0 .. degree
    for s, run in f.items():
        for an, ad, bn, bd in _factors(s, degree, a - b, 3 * b):
            n, m = run[-1]
            run.append((n * an * bd, m * ad * bn))
    mu, w = [], []
    for d in range(degree + 1):
        for p in range(d, -1, -1):
            (n1, m1), (n2, m2), (n3, m3) = f[1][p], f[1][d - p], f[2][d]
            mu.append(_scaled_mu(p, d - p, a, b) / b)
            w.append(n1 * n2 * n3 / (m1 * m2 * m3))
    return mu, w


def _positive_norm2(p: int, q: int, a: int, b: int) -> "Rat":
    norm2 = _norm2(p, q, a, b)
    # positive by the formula for lam > 0; kept as a defensive check
    if norm2 <= 0:
        raise NonpositiveNorm(f"nonpositive norm for P_{p},{q}")
    return norm2


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
    lam = _lam(lam)
    a, b = int(lam.value.numerator), int(lam.value.denominator)
    target = _scaled_mu(p, q, a, b)
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
                gap = _scaled_mu(i, j, a, b) - target
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
    norm2 = _positive_norm2(p, q, a, b)
    mu = Rat(target, b)
    return EigenPolynomial(p=p, q=q, lam=lam, poly=poly, mu=mu, norm2=norm2)


def _layout(d: int, r: int) -> list:
    """The monomials (i, j) of degree <= d with i - j = r mod 3, in the
    solver's order: degree descending, then the power of Z descending."""
    return [(i, e - i) for e in range(d, -1, -1) for i in range(e - (r - e) % 3, -1, -3)]


def _z_shift(keys: list) -> list:
    """Positions that lay Z times a vector one degree lower out on keys.

    Z maps the layout one degree lower, class r - 1, onto the entries of
    keys with i >= 1 in order; so each such entry takes the next position,
    and each entry with i = 0 the position of a zero appended to the
    vector.
    """
    at = count()
    return [next(at) if i else -1 for i, _ in keys]


def _block_reversal(keys: list) -> list:
    """Positions that reverse each degree block of a vector laid out on keys."""
    idx = []
    for _, block in groupby(keys, key=sum):
        n = len(list(block))
        idx += range(len(idx) + n - 1, len(idx) - 1, -1)
    return idx


def _pieri_a(p: int, lv: "Rat") -> "Rat":
    """a(p) of the recurrence at lam = lv, for p >= 1.

    a(p) = 4p(3p + 2 lam - 5) / ((2 lam + 6p - 8)(2 lam + 6p - 2)).  At
    p = 1 the factor 2 lam - 2 of both sides cancels, leaving
    a(1) = 2 / (lam + 2): the formula reads 0/0 at lam = 1, where a = 2/3,
    and both factors are negative below it.  For p >= 2 both denominator
    factors are positive for every lam > 0.
    """
    if p == 1:
        return 2 / (lv + 2)
    den = (2 * lv + 6 * p - 8) * (2 * lv + 6 * p - 2)
    if not den:
        raise RecurrenceBreakdown(f"a({p}) divides by zero at lambda = {lv}")
    return 4 * p * (3 * p + 2 * lv - 5) / den


def _pieri_modes(lam: Lambda, degree: int) -> list:
    """Every eigenpolynomial of total degree <= degree, in truncation order.

    Each degree is complete, p descending within it.  Each P_{p,q} with
    p >= q comes from the A2 Pieri recurrence (Macdonald, VI (6.24))

        Z P_{p-1,q} = P_{p,q} + a(p-1) P_{p-2,q+1} + b(p-1,q) P_{p-1,q-1}

    with b(p, q) = ||P_{p,q}||^2 / ||P_{p,q-1}||^2 from the closed norms.
    A mode is an integer vector over one den, laid out over the monomials
    of its class of degree <= p + q in the solver's order (`_layout`).
    The two lower modes are then suffixes of the new vector, Z times
    P_{p-1,q} is a gather that puts a zero where i = 0, and P_{q,p} is
    its partner's vector with each degree block reversed.  The vectors
    live only for the build; `num` keeps the nonzero entries in order,
    exactly as a solve lays them out.
    """
    a, b = int(lam.value.numerator), int(lam.value.denominator)
    # (p, q) -> (vector, den, norm2) for the two degrees below the one built
    window = {}
    out = []
    for d in range(degree + 1):
        keys = [_layout(d, r) for r in range(3)]
        shifts = [_z_shift(k) for k in keys]
        flips = [_block_reversal(k) for k in keys]
        row = {}
        for p in range(d, (d - 1) // 2, -1):
            q = d - p
            norm2 = _positive_norm2(p, q, a, b)
            if not d:
                row[p, q] = ([1], 1, norm2)
                continue
            v, den, n2 = window[p - 1, q]
            vec = list(map((v + [0]).__getitem__, shifts[(p - q) % 3]))  # Z P_{p-1,q}
            # vec / den - sum of c w over the lower modes, over one den
            lower = []
            if p >= 2:
                w, dw, _ = window[p - 2, q + 1]
                lower.append((_pieri_a(p - 1, lam.value) / dw, w))
            if q:
                w, dw, nw = window[p - 1, q - 1]
                lower.append((n2 / nw / dw, w))
            new_den = lcm(den, *(int(c.denominator) for c, _ in lower))
            f = new_den // den
            if f != 1:
                vec = [f * x for x in vec]
            for c, w in lower:
                c = int(c.numerator) * (new_den // int(c.denominator))
                o = len(vec) - len(w)
                vec[o:] = [x - c * y for x, y in zip(islice(vec, o, None), w)]
            g = gcd(new_den, *vec)
            if g != 1:
                vec = [x // g for x in vec]
            row[p, q] = (vec, new_den // g, norm2)
        for p in range((d - 1) // 2, -1, -1):
            v, den, norm2 = row[d - p, p]
            row[p, d - p] = (list(map(v.__getitem__, flips[(d - 2 * p) % 3])), den, norm2)
        for p in range(d, -1, -1):
            q = d - p
            v, den, norm2 = row[p, q]
            # the content is already out, so the polynomial is formed as is
            poly = BivarPoly.__new__(BivarPoly)
            poly.num = {k: (x, 0) for k, x in zip(keys[(p - q) % 3], v) if x}
            poly.den = den
            out.append(EigenPolynomial(p=p, q=q, lam=lam, poly=poly,
                                       mu=Rat(_scaled_mu(p, q, a, b), b), norm2=norm2))
        window = {k: e for k, e in window.items() if sum(k) == d - 1}
        window.update(row)
    return out


def pairings(f: BivarPoly, gs, table: MomentTable) -> list:
    """[(re, im, den) per g in gs]: <f, g> = (re + i im) / den, the integral
    of f conj(g) against the invariant measure; den is f.den g.den times
    the moments' den.  A g term past the table's degree less deg f is
    MomentRangeExceeded.

    conj(g) contributes conj(g_kl) Zbar^k Z^l on the real locus, so <f, g>
    sums conj(g_kl) u(l, k) over g's terms; each entry of f's moment vector
    u(l, k) = sum of f_ij m(i + l, j + k) is formed once, from f's terms
    with i - j = k - l mod 3 alone, as m(a, b) = 0 unless a = b mod 3.
    """
    mnum, mden = table.integers()
    s = table.max_degree + 1
    room = table.max_degree - f.degree()
    cls = [], [], []  # f's terms by i - j mod 3, as (table offset, re, im)
    for (i, j), c in f.num.items():
        cls[(i - j) % 3].append((i * s + j, *c))
    u, sums = {}, []
    for g in gs:
        re = im = 0
        for (k, l), (gr, gi) in g.num.items():
            if k + l > room:
                raise MomentRangeExceeded(f"degree {f.degree()}+{k + l} exceeds table "
                                          f"degree {table.max_degree}")
            terms = cls[(k - l) % 3]
            if not terms:
                continue
            o = l * s + k
            v = u.get(o)
            if v is None:
                ur = ui = 0
                for a, fr, fi in terms:
                    m = mnum[a + o]
                    ur += fr * m
                    ui += fi * m
                v = u[o] = ur, ui
            ur, ui = v
            re += gr * ur + gi * ui
            im += gr * ui - gi * ur
        sums.append((re, im, f.den * g.den * mden))
    return sums


def inner_product(f: BivarPoly, g: BivarPoly, table: MomentTable) -> CRat:
    """<f, g> of `pairings` as a Gaussian rational."""
    (re, im, den), = pairings(f, (g,), table)
    return CRat(Rat(re, den), Rat(im, den))
