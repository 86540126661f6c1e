"""Independent reference implementations that only tests read.

Each one computes a quantity the package computes another way, so a test
can hold the two against each other.
"""

import math

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
