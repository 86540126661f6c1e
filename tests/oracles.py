"""Independent reference implementations that only tests read.

Each one computes a quantity the package computes another way, so a test
can hold the two against each other.
"""

import math
from dataclasses import dataclass

from deltoid import eigen
from deltoid.exact import CRat, Rat
from deltoid.operator import Lambda
from deltoid.su3 import _FRAME_MOVES, _derive, _mat_of, entry_const, normalized_trace


def vectorfield_gamma_oracle(f, g, u):
    """Gamma(f, g) at u, summed field by field.

    Kept as a pointwise sum of first-derivative products rather than an
    expansion of the product polynomial or a frame table, so it is an
    independent check on the entrywise closed forms and on su3's
    gamma_fields.
    """
    m = _mat_of(u)
    total = 0j
    for moves in _FRAME_MOVES:
        total += _derive(moves, f).eval(m) * _derive(moves, g).eval(m)
    return total


def coefficient_function(x):
    """det(x I - U) = x^3 - 3 Z x^2 + 3 Zbar x - 1 as a function of U."""
    zt = normalized_trace()
    return entry_const(x**3 - 1.0) + zt.scale(-3.0 * x**2) + zt.conj().scale(3.0 * x)


def sobolev_term_sum(mp, p, a, t):
    """sum_k k^(2p) exp(-2 a t k^2), one mp.power and one mp.exp per term.

    The stopping rule is spectral._sobolev_sum's.  The exponent is formed
    in mp arithmetic from the float inputs, as the running product there
    forms it.
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
