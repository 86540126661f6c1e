"""End-to-end verification suite covering every headline claim.

Each criterion is a standalone runner returning pass/fail plus a one
line summary with the decisive margins; run_all executes them in order.
Tolerances are stated inline next to the check they govern so the
numbers can be audited without chasing constants through the package;
a verdict that the CLI reaches too is the check's own, read here as
it is there (su3.GroupModelReport.passed and TraceMomentReport.passed,
spectral.growth_passed and sobolev_passed).
No verdict reads the clock.
"""

import time

# eigen's and su3's names are looked up at call time, through the module
from . import eigen, su3
from .cdcheck import (deltoid_grid, divergence_probe, factorization_sweep, gamma2_sample_check,
                      psd_check, ray_nonneg_on_unit, scan_inf_b, tensor_residual)
from .exact import ONE, Rat, Z, ZBAR, np, record
from .geometry import plane_to_deltoid, sample_interior, w_density
from .operator import (
    Lambda,
    boundary_poly,
    check_boundary_equation,
    generator,
    hessian_logP_direct,
    hessian_logP_reduced,
)
from .spectral import (SOBOLEV_RATIO_CAP, HeatKernelTruncation, growth_cap, growth_passed,
                       hk_bound_check, sobolev_passed, sobolev_series_check, supnorm_bound_check,
                       ultracontractivity_fit)


@record
class CriterionResult:
    number: int
    name: str
    passed: bool
    summary: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.number:2d} {self.name:<34s} "
            f"{self.summary} ({self.seconds:.1f}s)"
        )


def _c01_density_discriminant():
    # re-derive the 108 symbolically: the discriminant of the monic
    # cubic with coefficient functions (-3Z, 3Zbar, -1) must equal
    # -108 times the boundary polynomial, exactly
    a, b, c, d = ONE, Z.scale(-3), ZBAR.scale(3), ONE.scale(-1)
    disc = (
        (a * b * c * d).scale(18)
        - (b**3 * d).scale(4)
        + b**2 * c**2
        - (a * c**3).scale(4)
        - (a**2 * d**2).scale(27)
    )
    symbolic_ok = disc == boundary_poly().scale(-108)

    # scale-guarded relative error: where both sides cancel below the
    # density's unit scale, double evaluation cannot support a bare
    # relative comparison, so the denominator is clamped at 1
    pts = sample_interior(1000, "low-discrepancy", seed=3)
    w = np.array([w_density(pt) for pt in pts])
    zs = plane_to_deltoid(np.array([pt.x for pt in pts]), np.array([pt.y for pt in pts]))
    ref = 108.0 * boundary_poly().eval(zs).real
    worst = float(np.max(np.abs(w - ref) / np.maximum(np.abs(ref), 1.0)))
    ok = symbolic_ok and worst < 1e-10
    return ok, f"symbolic -108 match {symbolic_ok}, max rel err {worst:.2e}"


def _c02_boundary_equation():
    ok, res_z, res_w = check_boundary_equation()
    return ok, f"residual polynomials zero: {res_z.is_zero()}, {res_w.is_zero()}"


def _c03_hessian_reduction():
    direct = hessian_logP_direct()
    reduced = hessian_logP_reduced()
    diff = direct.sub(reduced)
    ok = diff.r11.is_zero() and diff.r12.is_zero() and diff.r22.is_zero()
    return ok, "entrywise exact equality" if ok else "entrywise mismatch"


def _c04_eigen_system():
    # the modes the spectral criteria read; each one is the unique monic
    # eigenpolynomial: L P = -mu P exactly, mu from the closed formula,
    # and Z^p Zbar^q the only term of top degree, with coefficient 1; its
    # coefficient sum is the closed P(1), which no builder reads
    lams = [Lambda(4), Lambda(1), Lambda(Rat(7, 2))]
    order = [(p, t - p) for t in range(21) for p in range(t, -1, -1)]
    checked = pairs = norms = 0
    for lam in lams:
        modes = HeatKernelTruncation(lam, 20).modes
        if [(ep.p, ep.q) for ep in modes] != order:
            return False, f"modes out of order at lam = {lam.value}"
        for ep in modes:
            p, q = ep.p, ep.q
            if ep.mu != eigen.eigenvalue(p, q, lam):
                return False, f"eigenvalue formula off at {(p, q, lam)}"
            top = [k for k in ep.poly.num if sum(k) >= p + q]
            if top != [(p, q)] or ep.poly.coeff(p, q) != 1:
                return False, f"not monic in Z^p Zbar^q at {(p, q, lam)}"
            res = generator(ep.poly, lam) + ep.poly.scale(ep.mu)
            if not res.is_zero():
                return False, f"residual nonzero at {(p, q, lam)}"
            re, im = map(sum, zip(*ep.poly.num.values()))
            if im or Rat(re, ep.poly.den) != eigen.value_at_one(p, q, lam):
                return False, f"P(1) off its closed value at {(p, q, lam)}"
            checked += 1
        # degree <= 12: one moment vector per mode, paired with it and each later one
        table = eigen.moments(lam, 24)
        eps = modes[:91]
        for a, ep in enumerate(eps):
            sums = eigen.pairings(ep.poly, [e.poly for e in eps[a:]], table)
            re, im, den = sums[0]
            if im or Rat(re, den) != ep.norm2:
                return False, f"<P, P> != norm2 at {(ep.p, ep.q, lam)}"
            norms += 1
            for b, (re, im, _) in enumerate(sums[1:], a + 1):
                if re or im:
                    return False, f"inner product nonzero for pair {(a, b)}"
                pairs += 1
    return True, (f"{checked} exact eigen residuals, {checked} closed P(1), "
                  f"{pairs} zero products, {norms} exact norms")


def _c05_moments_and_haar():
    for lam in (Lambda(4), Lambda(1), Lambda(Rat(7, 2)), Lambda(Rat(9, 5))):
        m11 = eigen.moments(lam, 2).get(1, 1)
        if m11 != 1 / (2 * lam.value + 1):
            return False, f"m11 mismatch at lam = {lam.value}"
    rep = su3.trace_moment_check(17, 100000)
    dev = abs(rep.mean - 1.0 / 9.0)
    return rep.passed, f"m11 exact at 4 rationals; MC dev {dev:.2e} vs 3se {3 * rep.stderr:.2e}"


def _c06_factorization_threshold():
    results = factorization_sweep()
    reduced = [r for r in results if r.a1 == Rat(1, 6)]
    if len(results) != 25 or len(reduced) != 5:
        return False, "sweep incomplete"
    if not all(r.reduced_form_checked for r in reduced):
        return False, "reduced form unverified on the a1 = 1/6 column"
    ok_at, worst_at, _ = ray_nonneg_on_unit(Rat(1, 6), Rat(9, 4))
    ok_above, worst_above, rho = ray_nonneg_on_unit(
        Rat(1, 6), Rat(9, 4) + Rat(1, 100)
    )
    ok = ok_at and not ok_above
    return ok, (
        f"25 exact factorizations; 9/4 worst {worst_at}, "
        f"9/4+1/100 dips to {float(worst_above):.2e} at rho = {float(rho):.3f}"
    )


def _c07_optimal_constants():
    grid = deltoid_grid(200)
    good = psd_check(tensor_residual(Rat(1, 6), Rat(9, 4)), grid, tol=1e-12)
    if not good.passed:
        return False, f"optimal pair failed with margin {good.min_margin2:.2e}"
    perturbed = tensor_residual(Rat(1, 6), Rat(113, 50))
    bad = psd_check(perturbed, grid, tol=1e-12)
    # the perturbed pair must fail, including on a cusp ray
    _, cusp_margin = perturbed.psd_margins(0.975 + 0j)
    scan = scan_inf_b(1.0 / 3.0, grid=80)
    inf_ok = 1.125 - 1e-6 <= scan.inf_estimate <= 1.135
    probe = divergence_probe(0.4, "quad")
    probe_ok = (
        min(probe.b_values) < -1e3
        and probe.limit_estimate < 0
        and abs(probe.b_theta2[-1] / probe.b_theta2[-2] - 1) < 0.05
    )
    ok = (not bad.passed) and cusp_margin < -1e-6 and inf_ok and probe_ok
    return ok, (
        f"grid margin {good.min_margin2:.1e}; perturbed fails "
        f"({bad.failures} pts, cusp ray {cusp_margin:.1e}); "
        f"inf b {scan.inf_estimate:.7f}; probe limit {probe.limit_estimate:.2f}"
    )


def _c08_gamma2_sampling():
    good = gamma2_sample_check(Lambda(4), 2.25, 8.0, trials=100, points=100,
                               seed=2, tol=1e-10)
    bad = gamma2_sample_check(Lambda(4), 2.25, 7.0, trials=100, points=100,
                              seed=2, tol=1e-10)
    ok = good.passed and good.pairs >= 10000 and bad.violations > 0
    return ok, (
        f"n=8 margin {good.min_margin:.2e} over {good.pairs} pairs; "
        f"n=7 violations {bad.violations}"
    )


def _c09_group_model():
    rep = su3.group_model_check(su3.haar_sample(23, 100), [Z, ZBAR, Z * ZBAR, Z**2], 29, 5)
    return rep.passed, (
        f"ricci {rep.ricci:.12f}; commutators {rep.commutator_entries}; "
        f"push {rep.push.max_gamma_residual:.1e}/"
        f"{rep.push.max_generator_residual:.1e}; charpoly {rep.charpoly_residual:.1e}; "
        f"cd margin {rep.cd.min_margin:.2e}"
    )


def _c10_heat_slopes():
    # both fits read the closed cusp weights to degree 40
    rep4 = ultracontractivity_fit(Lambda(4), (0.02, 0.2))
    rep1 = ultracontractivity_fit(Lambda(1), (0.02, 0.2))
    ok = -4.5 <= rep4.exponent <= -3.5 and -1.3 <= rep1.exponent <= -0.8
    return ok, f"slopes {rep4.exponent:.3f} (target -4), {rep1.exponent:.3f} (target -1)"


def _c11_supnorm_exponents():
    single = supnorm_bound_check(Lambda(4), 30)
    combos = hk_bound_check(Lambda(4), 20, seed=0)
    ok = growth_passed(single) and growth_passed(combos)
    return ok, (
        f"mode exponent {single.exponent:.3f} <= {growth_cap(single)}, "
        f"combination exponent {combos.exponent:.3f} <= {growth_cap(combos)}"
    )


def _c12_series_stability():
    rep = sobolev_series_check(4.5, 0.75)
    return sobolev_passed(rep), (
        f"normalized max/min {rep.residual:.4f} < {SOBOLEV_RATIO_CAP:g}")


CRITERIA = (
    (1, "density-discriminant-identity", _c01_density_discriminant),
    (2, "boundary-gradient-identity", _c02_boundary_equation),
    (3, "log-density-hessian-reduction", _c03_hessian_reduction),
    (4, "eigen-system-exactness", _c04_eigen_system),
    (5, "moment-normalization-and-haar", _c05_moments_and_haar),
    (6, "ray-factorization-threshold", _c06_factorization_threshold),
    (7, "optimal-constant-grid-and-scan", _c07_optimal_constants),
    (8, "gamma2-sampling-margins", _c08_gamma2_sampling),
    (9, "group-model-identities", _c09_group_model),
    (10, "heat-diagonal-slopes", _c10_heat_slopes),
    (11, "supnorm-growth-exponents", _c11_supnorm_exponents),
    (12, "series-normalization-stability", _c12_series_stability),
)


def run_criterion(number):
    for num, name, fn in CRITERIA:
        if num == number:
            t0 = time.monotonic()
            passed, summary = fn()
            return CriterionResult(num, name, passed, summary,
                                   time.monotonic() - t0)
    raise ValueError(f"no criterion numbered {number}")


def run_all(printer=None):
    results = []
    for num, _, _ in CRITERIA:
        res = run_criterion(num)
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
