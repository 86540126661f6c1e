"""Heat-kernel truncations and the spectral-bound experiments.

A truncation keeps every eigenpolynomial up to a fixed total degree with
exact rational eigenvalue and norm, built by the A2 Pieri recurrence
(`eigen._pieri_modes`; no mode is solved on its own).  A weak set holds
every live truncation, and a new one takes its first modes from any
live truncation of its lam at least as deep instead of building; nothing
else is shared.  For lam >= 1 every mode is a nonnegative combination of
the lam = 1 orbit sums (Koornwinder 1974, class IV; Knop & Sahi 1997),
so |P| <= P(1), its value at a cusp: the sup-norm check, the H_k check
and the sup of the heat diagonal read the cusp weights P(1)^2/||P||^2
from their closed form (`eigen.cusp_table`) and build no mode.
Other float values of modes, for the heat diagonal at a point and the
multiplier-kernel check, are read from the float mode store of a whole
truncation, one `exact.PolyTable` per residue class of modes, which
the truncation builds on its first float read.
Beside them sit the Sobolev series estimate and the fits, plain least
squares on log-log data.  Every report is a frozen record; a fit
records the window it was computed on, and each verdict is stated once,
next to its check (growth_passed, sobolev_passed, KernelReport.passed).
"""

import cmath
import math
import weakref
from functools import cached_property

from .eigen import _pieri_modes, cusp_table, moments, pairings
from .exact import ONE, PolyTable, np, record
from .geometry import DeltoidPoint
from .operator import _lam


# a sup-norm or H_k growth exponent passes when it is at most its target
# plus this slack; the fits run on short windows, so a little room is
# left above the exponent the bound states
GROWTH_SLACK = 0.1

# the normalized Sobolev series is stable when its max/min stays below this
SOBOLEV_RATIO_CAP = 10.0


class TruncationInsufficient(ArithmeticError):
    """Dropped-tail estimate too large next to the partial sum."""


@record(eq=False)
class FitReport:
    window: tuple
    exponent: float
    residual: float
    constant: float = None
    target: float = None
    details: dict


def growth_cap(rep: FitReport) -> float:
    """The largest growth exponent a sup-norm or H_k fit may pass with."""
    return rep.target + GROWTH_SLACK


def growth_passed(rep: FitReport) -> bool:
    """Whether a sup-norm or H_k growth fit stays within its cap."""
    return rep.exponent <= growth_cap(rep)


def sobolev_passed(rep: FitReport) -> bool:
    """Whether the normalized Sobolev series' max/min stays below its cap."""
    return rep.residual < SOBOLEV_RATIO_CAP


# every live truncation; a truncation goes when it is freed
_live = weakref.WeakSet()


class HeatKernelTruncation:
    """All eigenmodes of total degree <= max_degree, exact, with one float store.

    The exact side (mu, squared norm as rationals, the polynomials
    themselves) lives in `modes`.  A truncation takes the first
    (N + 1)(N + 2)/2 modes of any live truncation of its lam at least as
    deep, all of which hold the same modes, and builds them only when
    there is none.  Construction is exact: mu and 1 / squared norm as
    floats, and the store every float value of a mode at a point is read
    from, are built on their first read, so a truncation used only
    exactly builds no float array.  The tail of a truncation at degree N
    is estimated by `_tail`.
    """

    def __init__(self, lam, max_degree=40):
        lam = _lam(lam)
        _require_positive_degree(max_degree)
        self.lam = lam
        self.max_degree = max_degree
        deep = next((t for t in _live
                     if t.lam == lam and t.max_degree >= max_degree), None)
        if deep is None:
            self.modes = tuple(_pieri_modes(lam, max_degree))
        else:
            self.modes = deep.modes[:(max_degree + 1) * (max_degree + 2) // 2]
        _live.add(self)

    def __len__(self):
        return len(self.modes)

    @cached_property
    def _mu(self):
        return np.array([float(ep.mu) for ep in self.modes])

    @cached_property
    def _inv_norm2(self):
        return np.array([1.0 / float(ep.norm2) for ep in self.modes])

    @cached_property
    def _store(self):
        return _ModeStore(self.modes)

    def mode_values(self, z):
        """Values of every mode at the complex point z, or at each point of
        the 1-d array z (then one column per point)."""
        zs = np.asarray(z, dtype=complex)
        return self._store.values(zs.reshape(-1)).reshape((len(self),) + zs.shape)

    def mode_weights(self, z):
        """|P_a(z)|^2 / ||P_a||^2 for every mode, the diagonal ingredients;
        z is a point or a 1-d array of points, as for mode_values."""
        v = self.mode_values(z)
        return ((v.real**2 + v.imag**2).T * self._inv_norm2).T

    def integrates_to_delta(self):
        """Exact check that only the constant mode has nonzero mean.

        The mean of a mode P is conj <1, P>, read with the moment vector of
        1, the moments themselves.  Orthogonality to constants makes every
        nonconstant mean vanish, which keeps the truncated kernel a
        probability density in the y-average."""
        sums = pairings(ONE, [ep.poly for ep in self.modes], moments(self.lam, self.max_degree))
        return all(re == (den if ep.p == ep.q == 0 else 0) and not im
                   for ep, (re, im, den) in zip(self.modes, sums))


def _require_positive_degree(max_degree):
    if max_degree < 1:
        raise ValueError("max_degree must be positive")


def _tail(max_degree, t):
    # how fast the first level a truncation at degree N drops can decay
    return math.exp(-0.75 * max_degree**2 * t)


def _tail_checked(max_degree, t, s):
    """(t, s) once the tail estimate at t is at most 1% of the value s."""
    tail = _tail(max_degree, t)
    if tail > 0.01 * s:
        raise TruncationInsufficient(
            f"truncation too shallow: tail {tail:.3e} at t = {t}")
    return t, s


def require_heat_time(t):
    """t as a float; a ValueError unless it is finite and positive."""
    t = float(t)
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, not {t}")
    return t


def heat_times(t_min, t_max, nt):
    """nt times evenly spaced in log t from t_min to t_max; a ValueError
    unless 0 < t_min < t_max, both finite, and nt >= 1."""
    t_min, t_max = require_heat_time(t_min), require_heat_time(t_max)
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, not {t_min} >= {t_max}")
    if nt < 1:
        raise ValueError(f"need nt >= 1, not {nt}")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), nt))


def heat_diag(x, t, trunc):
    """Truncated diagonal heat kernel density at x.

    Raises TruncationInsufficient when the tail estimate is more than
    1% of the partial sum, and ValueError for an x that is not finite or
    lies outside the closed domain.
    """
    t = require_heat_time(t)
    z = complex(x)
    if not cmath.isfinite(z):
        raise ValueError(f"x must be finite, not {z}")
    if not DeltoidPoint(z).membership_residual() >= -1e-12:
        raise ValueError(f"{z} is outside the closed domain")
    weights = trunc.mode_weights([z])
    # einsum, not BLAS: the bits do not depend on the thread count
    s = float(np.einsum("m,mx->x", np.exp(-trunc._mu * t), weights)[0])
    return _tail_checked(trunc.max_degree, t, s)[1]


def require_lam_geq_one(lam):
    """Raise ValueError unless lam >= 1, where every mode peaks at the cusps.

    The sup-norm, H_k and heat-diagonal bounds are stated there only.
    """
    if float(lam.value) < 1:
        raise ValueError("stated for lam >= 1")


def _cusp_table(lam, max_degree):
    """`eigen.cusp_table` for lam >= 1, where each cusp weight w is the
    sup of |P|^2 / ||P||^2 over the closed domain."""
    require_lam_geq_one(lam)
    _require_positive_degree(max_degree)
    return cusp_table(lam, max_degree)


def heat_cusp_sups(lam, max_degree, ts):
    """(t, sup over the closed domain of the heat diagonal truncated at
    max_degree) for each t in ts.

    For lam >= 1 every weight |P|^2 / ||P||^2 peaks at the cusps, so the
    sup is the diagonal at a cusp: the closed cusp weights summed against
    exp(-mu t), in math.fsum.  Raises TruncationInsufficient at the first
    t whose tail estimate is more than 1% of the sup, and ValueError
    before any sum if some t is not finite and positive.
    """
    lam = _lam(lam)
    ts = [require_heat_time(t) for t in ts]
    mu, w = map(np.array, _cusp_table(lam, max_degree))
    return [_tail_checked(max_degree, t, math.fsum(np.exp(-mu * t) * w))
            for t in ts]


def _loglog_fit(xs, ys):
    """(slope, intercept, residual) of the least-squares line through
    (log x, log y); residual is the largest distance of a log y from it.

    A line through fewer than two distinct x says nothing about growth,
    so it is a ValueError.
    """
    if len(set(xs)) < 2:
        raise ValueError("a growth fit needs at least two distinct abscissae")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(slope * lx + intercept - ly)))
    return float(slope), intercept, residual


def ultracontractivity_fit(lam, t_window, trunc=None):
    """Slope of log sup_x p_t(x, x) against log t over the window.

    The target is -2 lam / 2 = -lam, the heat dimension of the model.
    Each sup is the closed cusp value of heat_cusp_sups, so the fit is
    stated for lam >= 1.  Only trunc's degree is read (40 without one);
    a trunc of another lam is a ValueError.
    """
    lam = _lam(lam)
    if trunc is not None and trunc.lam != lam:
        raise ValueError(f"trunc is at lam = {trunc.lam.value}, not {lam.value}")
    max_degree = 40 if trunc is None else trunc.max_degree
    ts = heat_times(*t_window, 12)
    sups = [s for _, s in heat_cusp_sups(lam, max_degree, ts)]
    slope, intercept, residual = _loglog_fit(ts, sups)
    return FitReport(
        window=tuple(t_window),
        exponent=slope,
        residual=residual,
        constant=float(np.exp(intercept)),
        target=-float(lam.value),
        details={"nt": len(ts), "max_degree": max_degree},
    )


# ---------------------------------------------------------------------------
# the mode store: many modes at many points


class _ModeStore:
    """Real eigenmodes as one PolyTable per residue class.

    Every term Z^i Zbar^j of P_{p,q} has i - j = p - q mod 3, so the modes
    of one class r = (p - q) mod 3 share one set of monomials, and a
    class is one table: rows its modes, columns their monomials.
    complex_coeffs() runs once per mode with p >= q; P_{q,p} takes its
    partner's terms with i and j swapped, as the builder mirrors it.  A
    mode with a complex coefficient is a ValueError: eigenmodes are real.
    """

    def __init__(self, modes):
        terms = {(ep.p, ep.q): ep.poly.complex_coeffs() for ep in modes if ep.p >= ep.q}
        terms.update({(q, p): [(j, i, c) for i, j, c in t]
                      for (p, q), t in terms.items() if p > q})
        self.size = len(modes)
        self._classes = []
        for r in range(3):
            rows = [a for a, ep in enumerate(modes) if (ep.p - ep.q) % 3 == r]
            table = PolyTable([terms[modes[a].p, modes[a].q] for a in rows])
            if table.im is not None:
                ep = modes[rows[np.flatnonzero(table.im.any(axis=1))[0]]]
                raise ValueError(f"P_{ep.p},{ep.q} has a complex coefficient; "
                                 "eigenmodes are real")
            self._classes.append((rows, table))

    def values(self, zs):
        """Every row at every point of the 1-d array zs, (rows, points)."""
        out = np.empty((self.size, len(zs)), dtype=complex)
        for rows, table in self._classes:
            out[rows] = table.values(zs)
        return out


# ---------------------------------------------------------------------------
# sup norms on the closed domain


def supnorm_bound_check(lam, max_degree):
    """Sup-norm growth of single eigenpolynomials against mu^(lam/2).

    Reports the largest ||P||_inf / (||P||_2 mu^(lam/2)) over all modes
    with mu > 0 and the least-squares growth exponent of the ratio
    ||P||_inf / ||P||_2 in mu, which the spectral bound caps at lam/2.
    For lam >= 1 the sup-norm is P(1), so each ratio is the square root
    of the mode's closed cusp weight; no mode is built.
    """
    lam = _lam(lam)
    half = float(lam.value) / 2.0
    mus, ratios, consts = [], [], []
    for mu, w in zip(*_cusp_table(lam, max_degree)):
        if mu == 0:
            continue
        ratio = math.sqrt(w)
        mus.append(mu)
        ratios.append(ratio)
        consts.append(ratio / mu**half)
    slope, _, residual = _loglog_fit(mus, ratios)
    return FitReport(
        window=(min(mus), max(mus)),
        exponent=slope,
        residual=residual,
        constant=max(consts),
        target=half,
        details={"modes": len(mus)},
    )


def hk_bound_check(lam, max_k, seed=0):
    """Sup-norm of unit combinations in each degree space H_k, k = 1..max_k.

    Checks growth against k^(lam + 1/2).  With phi = P / ||P|| over the
    modes of degree k, a unit f = sum c phi obeys |f| <= sqrt(sum |phi|^2)
    by Cauchy-Schwarz, and for lam >= 1 each |phi|^2 peaks at the cusp
    Z = 1 at its closed cusp weight w, so |f| <= sqrt(W_k) with W_k the
    level's weights summed; equality holds at Z = 1 with c proportional
    to phi(1).  So each sup is sqrt(W_k) exactly, read from the closed
    cusp weights in math.fsum, and no mode is built.  details["W"] holds
    the W_k.  seed is unread; it stays accepted for its callers.
    """
    lam = _lam(lam)
    _, w = _cusp_table(lam, max_k)
    target = float(lam.value) + 0.5
    ks = list(range(1, max_k + 1))
    # level k holds the (k + 1) modes p + q = k, in truncation order
    weights = [math.fsum(w[k * (k + 1) // 2:(k + 1) * (k + 2) // 2]) for k in ks]
    sups = [math.sqrt(wk) for wk in weights]
    consts = [best / k**target for k, best in zip(ks, sups)]
    slope, _, residual = _loglog_fit(ks, sups)
    return FitReport(
        window=(1, max_k),
        exponent=slope,
        residual=residual,
        constant=max(consts),
        target=target,
        details={"W": tuple(weights)},
    )


# ---------------------------------------------------------------------------
# series-side estimates


def sobolev_series_check(p, a):
    """Stability of t^(p+1/2) sum_k k^(2p) exp(-2 a t k^2) on the dyadic
    grid t = 1, 1/2, ..., 2^-13.

    The series tracks the integral of x^(2p) exp(-2 a t x^2), which is
    Gamma(p+1/2)/2 * (2at)^(-(2p+1)/2) in closed form, so the scaling
    exponent is p + 1/2 and that is the normalizer used for the max/min
    stability ratio.  The superficially similar (p+1)/2 is the exponent
    of the resulting 2->inf operator-norm bound (the square root of the
    series), not of the series itself; values normalized that way are
    kept in details for reference but diverge like t^(-p/2).
    """
    if a <= 0 or p <= 0:
        raise ValueError("need a > 0 and p > 0")
    t_grid = [2.0**-j for j in range(14)]
    normalized = []
    halfpower = []
    for t in t_grid:
        peak, scaled = _sobolev_sum(p, a, t)
        normalized.append(math.exp((p + 0.5) * math.log(t) + peak) * scaled)
        halfpower.append(math.exp((p + 1) / 2 * math.log(t) + peak) * scaled)
    ratio = max(normalized) / min(normalized)
    return FitReport(
        window=(min(t_grid), max(t_grid)),
        exponent=p + 0.5,
        residual=ratio,
        constant=max(normalized),
        target=None,
        details={
            "t": tuple(t_grid),
            "normalized": tuple(normalized),
            "operator_exponent_normalized": tuple(halfpower),
        },
    )


# the terms of the Sobolev series past its cut are below exp(-_SOBOLEV_CUT)
# times its peak; a cut past _SOBOLEV_TERMS terms is refused
_SOBOLEV_CUT = 50.0
_SOBOLEV_TERMS = 10**7


def _sobolev_sum(p, a, t):
    """(peak, scaled): sum_(k >= 1) k^(2p) exp(-2 a t k^2) is
    exp(peak) * scaled, in floats.

    Truncation: with c = 2 a t the log term g(k) = 2p log k - c k^2
    peaks at k* = sqrt(p / c), and g(k* + d) <= g(k*) - c d^2 for d >= 0
    (p = c k*^2 and log(1 + u) <= u), while the term at ceil(k*) is
    at least exp(g(k*) - 2c).  So the terms past
    K = k* + sqrt(_SOBOLEV_CUT / c + 2) sum to at most
    (1 + 1 / (2 sqrt(50 c))) e^-50 of the series, below 1e-16 of it
    whenever K is at most _SOBOLEV_TERMS; a larger K is refused before
    any array is made.  The kept terms are summed in math.fsum, scaled
    by the largest.
    """
    c = 2.0 * a * t
    top = math.ceil(math.sqrt(p / c) + math.sqrt(_SOBOLEV_CUT / c + 2.0))
    if top > _SOBOLEV_TERMS:
        raise ArithmeticError("series summation did not settle")
    k = np.arange(1, top + 1, dtype=float)
    g = 2.0 * p * np.log(k) - c * k * k
    peak = float(np.max(g))
    return peak, math.fsum(np.exp(g - peak).tolist())


# ---------------------------------------------------------------------------
# multiplier kernels


@record(eq=False)
class KernelReport:
    """The kernel sup on grid_size points against the weight series to max_k."""

    sup_abs: float
    series_value: float
    max_k: int
    grid_size: int
    diag_sup: float

    @property
    def ratio(self):
        if self.series_value == 0:
            return math.inf if self.sup_abs > 0 else 0.0
        return self.sup_abs / self.series_value

    @property
    def passed(self):
        """The kernel sup stays at or below the weight series."""
        return self.sup_abs <= self.series_value


# the x-grid of `deltoid kernel check`: the origin, a rough interior net
# and points on the rays to the cusps, where the projector kernels peak
def _kernel_check_grid():
    cusps = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    pts = [0j, 0.2 + 0.1j, -0.2 + 0.25j, 0.1 - 0.3j, -1 / 3 + 0j]
    for c in cusps:
        for r in (0.5, 0.9, 0.99, 0.999, 0.9999):
            pts.append(r * c)
    return pts


def kernel_bound_check(nu, lam, max_k, x_grid):
    """Sup of the squared-multiplier kernel against the weight series.

    nu is a callable k -> multiplier or a sequence indexed from k = 1.
    The kernel of K^2 is the weighted sum of degree-space projector
    kernels; it is Hermitian positive semidefinite, so its sup in
    absolute value sits on the diagonal, but off-diagonal pairs are
    still scanned as a structural check.  The series is
    sum nu_k^2 k^(2 lam + 1) over the same k range.  An empty x_grid
    raises ValueError.
    """
    lam = _lam(lam)
    if callable(nu):
        nus = [float(nu(k)) for k in range(1, max_k + 1)]
    else:
        nus = [float(v) for v in nu][:max_k]
        if len(nus) < max_k:
            nus = nus + [0.0] * (max_k - len(nus))
    zs = np.array(x_grid, dtype=complex)
    npts = len(zs)
    if not npts:
        raise ValueError("no points to check")
    trunc = HeatKernelTruncation(lam, max_k)
    kernel = np.zeros((npts, npts), dtype=complex)
    # every mode but the constant one, the first, whose nu_k is not 0
    for ep, vals in zip(trunc.modes[1:], trunc.mode_values(zs)[1:]):
        w = nus[ep.p + ep.q - 1]
        if w == 0.0:
            continue
        vals /= math.sqrt(float(ep.norm2))
        kernel += w ** 2 * np.outer(vals, vals.conj())
    sup_abs = float(np.abs(kernel).max())
    diag_sup = float(np.max(kernel.diagonal().real))
    series = sum(
        nus[k - 1] ** 2 * k ** (2 * float(lam.value) + 1) for k in range(1, max_k + 1)
    )
    return KernelReport(sup_abs, series, max_k, npts, diag_sup)
