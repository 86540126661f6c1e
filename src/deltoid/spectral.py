"""Heat-kernel truncations and the spectral-bound experiments.

A truncation keeps every eigenpolynomial up to a fixed total degree with
exact rational eigenvalue and norm, plus flat numeric tables so that a
point evaluation of all modes is a couple of vectorized gathers.  On top
of that sit the ultracontractivity slope fit, the sup-norm growth fits,
the Sobolev series estimate, and the multiplier-kernel boundedness
check.  Fits are plain least squares on log-log data; every report
records the window it was computed on.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import solve_eigenpoly
from .exact import HornerProgram
from .geometry import (TrianglePoint, V0, V1, V2, triangle_to_deltoid,
                       triangles_to_deltoid)
from .operator import Lambda


# machine epsilon of float64: a float evaluation of a polynomial carries
# absolute rounding noise of about _EPS times its coefficient mass
_EPS = 2.0**-52


class TruncationInsufficient(ArithmeticError):
    """Dropped-tail estimate too large next to the partial sum."""


@dataclass(frozen=True, eq=False)
class FitReport:
    window: tuple
    exponent: float
    residual: float
    constant: float = None
    target: float = None
    details: dict = field(default_factory=dict)


class HeatKernelTruncation:
    """All eigenmodes of total degree <= max_degree, exact and tabulated.

    The exact side (mu, squared norm as rationals, the polynomials
    themselves) lives in `modes`; the numeric side is a set of flat
    arrays for gather-style evaluation of every mode at once.  The tail
    of a truncation is estimated by exp(-(3/4) N^2 t), the lower bound
    on how fast the first dropped level can decay.
    """

    def __init__(self, lam, max_degree=40):
        lam = lam if isinstance(lam, Lambda) else Lambda(lam)
        if max_degree < 1:
            raise ValueError("max_degree must be positive")
        self.lam = lam
        self.max_degree = max_degree
        modes = []
        for total in range(max_degree + 1):
            for p in range(total, -1, -1):
                q = total - p
                modes.append(solve_eigenpoly(p, q, lam))
        self.modes = tuple(modes)
        # flat tables: per-term arrays plus mode boundaries
        ii, jj, cc, bounds = [], [], [], [0]
        coeffs = [ep.poly.complex_coeffs() for ep in modes]
        for terms in coeffs:
            for i, j, c in sorted(terms):
                ii.append(i)
                jj.append(j)
                cc.append(c)
            bounds.append(len(ii))
        self._ti = np.array(ii, dtype=np.intp)
        self._tj = np.array(jj, dtype=np.intp)
        self._tc = np.array(cc, dtype=complex)
        self._bounds = np.array(bounds, dtype=np.intp)
        self._mu = np.array([float(ep.mu) for ep in modes])
        self._inv_norm2 = np.array([1.0 / float(ep.norm2) for ep in modes])
        # coefficient mass over norm, the cancellation ratio of a float
        # evaluation: absolute rounding noise on P(z) for |z| <= 1 is
        # about eps times the coefficient sum, so once this ratio nears
        # 1/eps the normalized mode value is pure noise
        cond = []
        for ep, terms in zip(modes, coeffs):
            mass = sum(abs(c.real) + abs(c.imag) for _, _, c in terms)
            cond.append(mass * math.sqrt(float(1 / ep.norm2)))
        self._cond = np.array(cond)

    def __len__(self):
        return len(self.modes)

    def evaluation_noise(self, t):
        """Rounding-noise estimate for a heat_diag value at time t.

        Each normalized mode weight carries squared absolute noise
        (eps * cancellation_ratio)^2; summing those against the heat
        weights bounds how much of a diagonal value is float artifact.
        Degree 40 modes have cancellation ratios near 1e23, so small-t
        diagonals at that depth are unusable even though the tail rule
        passes; cap the degree near 25 when this matters.
        """
        return float(np.exp(-self._mu * t) @ (_EPS * self._cond) ** 2)

    def mode_values(self, z):
        """Values of every mode polynomial at the complex point z."""
        z = complex(z)
        zp = np.ones(self.max_degree + 1, dtype=complex)
        for i in range(1, self.max_degree + 1):
            zp[i] = zp[i - 1] * z
        zbp = zp.conj()
        prods = self._tc * zp[self._ti] * zbp[self._tj]
        sums = np.add.reduceat(prods, self._bounds[:-1])
        return sums

    def mode_weights(self, z):
        """|P_a(z)|^2 / ||P_a||^2 for every mode, the diagonal ingredients."""
        v = self.mode_values(z)
        return (v.real**2 + v.imag**2) * self._inv_norm2

    def tail_estimate(self, t):
        return math.exp(-0.75 * self.max_degree**2 * t)

    def integrates_to_delta(self):
        """Exact check that only the constant mode has nonzero mean.

        The mean of a mode is its coefficient sum against the moment
        table; orthogonality to constants makes every nonconstant one
        vanish identically, which is what keeps the truncated kernel a
        probability density in the y-average.
        """
        from .eigen import moments

        mnum, mden = moments(self.lam, self.max_degree).integers()
        for ep in self.modes:
            re = im = 0
            for key, (cr, ci) in ep.poly.num.items():
                m = mnum.get(key)
                if m:
                    re += cr * m
                    im += ci * m
            # the mean is (re + im i) / (den * mden)
            one = ep.poly.den * mden if ep.p == ep.q == 0 else 0
            if re != one or im:
                return False
        return True


def heat_diag(x, t, trunc):
    """Truncated diagonal heat kernel density at x.

    Raises TruncationInsufficient when the tail estimate is more than
    1% of the partial sum; get the tail on its own from
    trunc.tail_estimate(t).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = complex(getattr(x, "Z", x))
    from .geometry import DeltoidPoint

    if DeltoidPoint(z).membership_residual() < -1e-12:
        raise ValueError(f"{z} is outside the closed domain")
    w = trunc.mode_weights(z)
    partial = float(np.exp(-trunc._mu * t) @ w)
    tail = trunc.tail_estimate(t)
    if tail > 0.01 * partial:
        raise TruncationInsufficient(
            f"tail {tail:.3e} vs partial {partial:.3e} at t = {t}"
        )
    return partial


# cusp-hugging evaluation set: the small-t sup lives at the cusps, the
# large-t behavior anywhere, so mix ray points with a rough interior net
def _sup_grid():
    cusps = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    pts = [0j, 0.2 + 0.1j, -0.2 + 0.25j, 0.1 - 0.3j, -1 / 3 + 0j]
    for c in cusps:
        for r in (0.5, 0.9, 0.99, 0.999, 0.9999):
            pts.append(r * c)
    return pts


def ultracontractivity_fit(lam, t_window, trunc=None, grid=None, nt=12):
    """Slope of log sup_x p_t(x, x) against log t over the window.

    The target is -2 lam / 2 = -lam, the heat dimension of the model.
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    if trunc is None:
        trunc = HeatKernelTruncation(lam, 40)
    t_lo, t_hi = t_window
    if not 0 < t_lo < t_hi:
        raise ValueError("bad window")
    pts = list(grid) if grid is not None else _sup_grid()
    weights = [trunc.mode_weights(complex(getattr(p, "Z", p))) for p in pts]
    ts = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), nt))
    sups = []
    for t in ts:
        decay = np.exp(-trunc._mu * t)
        s = max(float(decay @ w) for w in weights)
        tail = trunc.tail_estimate(t)
        if tail > 0.01 * s:
            raise TruncationInsufficient(f"tail {tail:.3e} at t = {t}")
        sups.append(s)
    slope, intercept = np.polyfit(np.log(ts), np.log(sups), 1)
    fitted = slope * np.log(ts) + intercept
    residual = float(np.max(np.abs(fitted - np.log(sups))))
    # worst-case share of a sup that could be evaluation rounding noise;
    # the window is only trustworthy while this stays small
    noise_frac = max(
        trunc.evaluation_noise(t) / s for t, s in zip(ts, sups)
    )
    return FitReport(
        window=(t_lo, t_hi),
        exponent=float(slope),
        residual=residual,
        constant=float(np.exp(intercept)),
        target=-float(lam.value),
        details={
            "nt": nt,
            "n_points": len(pts),
            "max_degree": trunc.max_degree,
            "noise_fraction": noise_frac,
        },
    )


# ---------------------------------------------------------------------------
# sup norms on the closed domain


def _closed_triangle_lattice(m):
    """Barycentric lattice over the closed fundamental triangle."""
    pts = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            x = (i * V0[0] + j * V1[0] + k * V2[0]) / m
            y = (i * V0[1] + j * V1[1] + k * V2[1]) / m
            pts.append(TrianglePoint(x, y))
    return pts


def _in_closed_triangle(x, y, tol=1e-9):
    # barycentric coordinates w.r.t. V0, V1, V2
    d = (V1[1] - V2[1]) * (V0[0] - V2[0]) + (V2[0] - V1[0]) * (V0[1] - V2[1])
    b0 = ((V1[1] - V2[1]) * (x - V2[0]) + (V2[0] - V1[0]) * (y - V2[1])) / d
    b1 = ((V2[1] - V0[1]) * (x - V2[0]) + (V0[0] - V2[0]) * (y - V2[1])) / d
    b2 = 1.0 - b0 - b1
    return min(b0, b1, b2) >= -tol


def _newton_polish(value_xy, x0, y0, h=1e-4):
    """One Newton step on a local maximum of value_xy, clipped to the domain."""
    f0 = value_xy(x0, y0)
    fxp = value_xy(x0 + h, y0)
    fxm = value_xy(x0 - h, y0)
    fyp = value_xy(x0, y0 + h)
    fym = value_xy(x0, y0 - h)
    gx = (fxp - fxm) / (2 * h)
    gy = (fyp - fym) / (2 * h)
    hxx = (fxp - 2 * f0 + fxm) / h**2
    hyy = (fyp - 2 * f0 + fym) / h**2
    fpp = value_xy(x0 + h, y0 + h)
    fpm = value_xy(x0 + h, y0 - h)
    fmp = value_xy(x0 - h, y0 + h)
    fmm = value_xy(x0 - h, y0 - h)
    hxy = (fpp - fpm - fmp + fmm) / (4 * h**2)
    det = hxx * hyy - hxy**2
    if det <= 0 or hxx >= 0:
        # not a clean interior max; trust the grid value
        return f0
    dx = -(hyy * gx - hxy * gy) / det
    dy = -(hxx * gy - hxy * gx) / det
    step = math.hypot(dx, dy)
    if step > 0.5:
        dx, dy = dx * 0.5 / step, dy * 0.5 / step
    x1, y1 = x0 + dx, y0 + dy
    if not _in_closed_triangle(x1, y1):
        return f0
    return max(f0, value_xy(x1, y1))


class _ModeGridCache:
    """Mode values over the closed-triangle lattice, shared by the fits."""

    def __init__(self, trunc, m=80):
        self.trunc = trunc
        self.tri = _closed_triangle_lattice(m)
        self.zs = np.array([d.Z for d in triangles_to_deltoid(self.tri)])
        n = trunc.max_degree
        zp = np.ones((n + 1, len(self.zs)), dtype=complex)
        for i in range(1, n + 1):
            zp[i] = zp[i - 1] * self.zs
        zbp = zp.conj()
        self._zp, self._zbp = zp, zbp

    def values(self, poly):
        total = np.zeros(len(self.zs), dtype=complex)
        for i, j, c in poly.complex_coeffs():
            total += c * self._zp[i] * self._zbp[j]
        return total

    def polished_sup(self, poly):
        vals = np.abs(self.values(poly))
        k = int(np.argmax(vals))
        p0 = self.tri[k]
        prog = HornerProgram(poly)

        def value_xy(x, y):
            z = triangle_to_deltoid(TrianglePoint(x, y)).Z
            return abs(prog.eval(z))

        return _newton_polish(value_xy, p0.x, p0.y)


def supnorm_bound_check(lam, max_degree, grid_m=80):
    """Sup-norm growth of single eigenpolynomials against mu^(lam/2).

    Reports the largest ||P||_inf / (||P||_2 mu^(lam/2)) over all modes
    with mu > 0 and the least-squares growth exponent of the ratio
    ||P||_inf / ||P||_2 in mu, which the spectral bound caps at lam/2.
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    if float(lam.value) < 1:
        raise ValueError("stated for lam >= 1")
    trunc = HeatKernelTruncation(lam, max_degree)
    cache = _ModeGridCache(trunc, grid_m)
    half = float(lam.value) / 2.0
    mus, ratios, consts, noise = [], [], [], []
    for ep, cond in zip(trunc.modes, trunc._cond):
        mu = float(ep.mu)
        if mu == 0:
            continue
        sup = cache.polished_sup(ep.poly)
        ratio = sup / math.sqrt(float(ep.norm2))
        mus.append(mu)
        ratios.append(ratio)
        consts.append(ratio / mu**half)
        # share of the sup that could be rounding noise: eps times the
        # coefficient mass over the sup, both taken on the normalized mode
        noise.append(_EPS * cond / ratio)
    slope, intercept = np.polyfit(np.log(mus), np.log(ratios), 1)
    fitted = slope * np.log(mus) + intercept
    residual = float(np.max(np.abs(fitted - np.log(ratios))))
    return FitReport(
        window=(min(mus), max(mus)),
        exponent=float(slope),
        residual=residual,
        constant=max(consts),
        target=half,
        details={"modes": len(mus), "grid_m": grid_m,
                 "noise_fraction": float(max(noise))},
    )


def hk_bound_check(lam, max_k, grid_m=80, draws=5, seed=0):
    """Sup-norm of random unit combinations in each degree space H_k.

    Checks growth against k^(lam + 1/2); the basis is orthogonal with
    exact norms, so unit combinations cost one normalization.
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    if float(lam.value) < 1:
        raise ValueError("stated for lam >= 1")
    trunc = HeatKernelTruncation(lam, max_k)
    cache = _ModeGridCache(trunc, grid_m)
    rng = np.random.default_rng(seed)
    target = float(lam.value) + 0.5
    ks, sups, consts, noise = [], [], [], []
    for k in range(1, max_k + 1):
        level = [(ep, cond) for ep, cond in zip(trunc.modes, trunc._cond)
                 if ep.p + ep.q == k]
        vals = [cache.values(ep.poly) / math.sqrt(float(ep.norm2)) for ep, _ in level]
        best = 0.0
        for _ in range(draws):
            c = rng.standard_normal(len(level)) + 1j * rng.standard_normal(len(level))
            c /= np.linalg.norm(c)
            combo = sum(ci * vi for ci, vi in zip(c, vals))
            best = max(best, float(np.max(np.abs(combo))))
        # single basis members too, tying this to the per-mode check
        for vi in vals:
            best = max(best, float(np.max(np.abs(vi))))
        ks.append(k)
        sups.append(best)
        consts.append(best / k**target)
        # eps times the largest coefficient mass of a normalized mode of
        # the level, over the level's sup
        noise.append(_EPS * max(cond for _, cond in level) / best)
    slope, intercept = np.polyfit(np.log(ks), np.log(sups), 1)
    fitted = slope * np.log(ks) + intercept
    residual = float(np.max(np.abs(fitted - np.log(sups))))
    return FitReport(
        window=(1, max_k),
        exponent=float(slope),
        residual=residual,
        constant=max(consts),
        target=target,
        details={"draws": draws, "grid_m": grid_m,
                 "noise_fraction": float(max(noise))},
    )


# ---------------------------------------------------------------------------
# series-side estimates


def sobolev_series_check(p, a, t_grid=None, dps=30):
    """Stability of t^(p+1/2) sum_k k^(2p) exp(-2 a t k^2) on a dyadic grid.

    The series tracks the integral of x^(2p) exp(-2 a t x^2), which is
    Gamma(p+1/2)/2 * (2at)^(-(2p+1)/2) in closed form, so the scaling
    exponent is p + 1/2 and that is the normalizer used for the max/min
    stability ratio.  The superficially similar (p+1)/2 is the exponent
    of the resulting 2->inf operator-norm bound (the square root of the
    series), not of the series itself; values normalized that way are
    kept in details for reference but diverge like t^(-p/2).
    """
    import mpmath as mp

    if a <= 0 or p <= 0:
        raise ValueError("need a > 0 and p > 0")
    if t_grid is None:
        t_grid = [2.0**-j for j in range(14)]
    old = mp.mp.dps
    mp.mp.dps = dps
    try:
        normalized = []
        halfpower = []
        for t in t_grid:
            s = _sobolev_sum(mp, p, a, t)
            normalized.append(float(mp.power(t, p + 0.5) * s))
            halfpower.append(float(mp.power(t, (p + 1) / 2) * s))
    finally:
        mp.mp.dps = old
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


def _sobolev_sum(mp, p, a, t):
    s = mp.mpf(0)
    k = 1
    # sum well past the peak k ~ sqrt(p/(2 a t)), then until negligible
    while True:
        term = mp.power(k, 2 * p) * mp.exp(-2 * a * t * k * k)
        s += term
        if k * k * 2 * a * t > 2 * p and term < s * mp.mpf(10) ** (-30):
            break
        k += 1
        if k > 10**7:
            raise ArithmeticError("series summation did not settle")
    return s


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


# ---------------------------------------------------------------------------
# multiplier kernels


class KernelReport:
    __slots__ = ("sup_abs", "series_value", "max_k", "grid_size", "diag_sup")

    def __init__(self, sup_abs, series_value, max_k, grid_size, diag_sup):
        self.sup_abs = sup_abs
        self.series_value = series_value
        self.max_k = max_k
        self.grid_size = grid_size
        self.diag_sup = diag_sup

    @property
    def ratio(self):
        if self.series_value == 0:
            return math.inf if self.sup_abs > 0 else 0.0
        return self.sup_abs / self.series_value

    def __repr__(self):
        return (
            f"KernelReport(sup={self.sup_abs:.6g}, series={self.series_value:.6g}, "
            f"ratio={self.ratio:.3g})"
        )


def kernel_bound_check(nu, lam, max_k, x_grid):
    """Sup of the squared-multiplier kernel against the weight series.

    nu is a callable k -> multiplier or a sequence indexed from k = 1.
    The kernel of K^2 is the weighted sum of degree-space projector
    kernels; it is Hermitian positive semidefinite, so its sup in
    absolute value sits on the diagonal, but off-diagonal pairs are
    still scanned as a structural check.  The series is
    sum nu_k^2 k^(2 lam + 1) over the same k range.
    """
    lam = lam if isinstance(lam, Lambda) else Lambda(lam)
    if callable(nu):
        nus = [float(nu(k)) for k in range(1, max_k + 1)]
    else:
        nus = [float(v) for v in nu][:max_k]
        if len(nus) < max_k:
            nus = nus + [0.0] * (max_k - len(nus))
    zs = np.array([complex(getattr(x, "Z", x)) for x in x_grid])
    trunc = HeatKernelTruncation(lam, max_k)
    npts = len(zs)
    kernel = np.zeros((npts, npts), dtype=complex)
    for ep in trunc.modes:
        k = ep.p + ep.q
        if k == 0 or nus[k - 1] == 0.0:
            continue
        vals = np.zeros(npts, dtype=complex)
        for i, j, c in ep.poly.complex_coeffs():
            vals += c * zs**i * np.conj(zs) ** j
        vals /= math.sqrt(float(ep.norm2))
        kernel += nus[k - 1] ** 2 * np.outer(vals, vals.conj())
    sup_abs = float(np.abs(kernel).max()) if npts else 0.0
    diag_sup = float(np.max(kernel.diagonal().real)) if npts else 0.0
    series = sum(
        nus[k - 1] ** 2 * k ** (2 * float(lam.value) + 1) for k in range(1, max_k + 1)
    )
    return KernelReport(sup_abs, series, max_k, npts, diag_sup)
