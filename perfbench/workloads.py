"""The three benchmark workloads: spectrum, calculus and measure.

Each workload is built from the imported `deltoid` package and a seed;
construction is the workload's one-time set-up.  `run(tally)` is one full
pass: it calls the package's public functions, holds every answer to the
value the paper states (never to an earlier output of the program), and
returns the pass's exact outputs keyed by name so that the caller can
digest them outside the timed region.  A failed check is counted in the
tally and the pass goes on.

Sizes are chosen so that one pass takes a few seconds on the Fraction
backend; README.md gives the reasons and the acceptance-suite sizes they
scale down from.
"""

import contextlib
import hashlib
import json
import math
import random
from fractions import Fraction

LAMBDAS = ("4", "1", "7/2")


class Tally:
    """Verdicts attempted and missed in one pass."""

    def __init__(self):
        self.total = 0
        self.missed = []

    def check(self, name, ok):
        self.total += 1
        if not ok:
            self.missed.append(name)

    @contextlib.contextmanager
    def unit(self, name):
        """Run a block of checks; an exception in it counts as one miss."""
        try:
            yield
        except Exception as exc:  # a raising check is a missed verdict
            self.check(f"{name}: {type(exc).__name__}: {exc}", False)


def paper_mu(lam, p, q):
    """mu = (lam - 1)(p + q) + p^2 + pq + q^2, in exact arithmetic."""
    return (Fraction(lam) - 1) * (p + q) + (p * p + p * q + q * q)


def _q(x):
    return [int(x.numerator), int(x.denominator)]


def exact_record(dt, obj):
    """JSON-ready form of an exact output; floats never reach here."""
    if isinstance(obj, dt.BivarPoly):
        return obj.to_records()
    if isinstance(obj, dt.EigenPolynomial):
        return [obj.p, obj.q, _q(obj.mu), _q(obj.norm2), obj.poly.to_records()]
    if isinstance(obj, dt.MomentTable):
        return sorted([i, j] + _q(m) for (i, j), m in obj.items())
    if isinstance(obj, dt.HeatKernelTruncation):
        return [exact_record(dt, ep) for ep in obj.modes]
    if isinstance(obj, dt.HermitianTensorField):
        return [exact_record(dt, e) for e in (obj.r11, obj.r12, obj.r22)]
    if isinstance(obj, (list, tuple)):
        return [exact_record(dt, x) for x in obj]
    if hasattr(obj, "numerator"):
        return _q(obj)
    if hasattr(obj, "ray"):  # cdcheck.FactorizationResult
        return [_q(obj.a1), _q(obj.b1), [_q(c) for c in obj.ray],
                _q(obj.k_const), obj.reduced_form_checked]
    raise TypeError(f"no exact record for {type(obj).__name__}")


def digest(dt, outputs):
    """sha256 over the exact outputs, in key order, so it is order-free."""
    h = hashlib.sha256()
    for key in sorted(outputs, key=repr):
        h.update(repr(key).encode())
        h.update(json.dumps(exact_record(dt, outputs[key]),
                            separators=(",", ":")).encode())
    return h.hexdigest()


class Spectrum:
    """Exact arithmetic on real rationals at depth, for three lambdas.

    Integer, unit and half-integer lambda give different coefficient
    denominators.  The inputs are fixed; the seed only permutes the order
    in which eigenpolynomials are solved and pairs are integrated, so
    every seed does the same work.
    """

    SOLVE_DEGREE = 14
    PRODUCT_DEGREE = 8
    TRUNCATIONS = (("4", 30), ("1", 20))

    def __init__(self, dt, seed):
        self.dt = dt
        rng = random.Random(seed)
        self.lams = [dt.Lambda(dt.as_rat(v)) for v in LAMBDAS]
        self.solves = [
            (lam, p, total - p)
            for lam in self.lams
            for total in range(self.SOLVE_DEGREE + 1)
            for p in range(total + 1)
        ]
        rng.shuffle(self.solves)
        self.basis = [
            (p, total - p)
            for total in range(self.PRODUCT_DEGREE + 1)
            for p in range(total + 1)
        ]
        n = len(self.basis)
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(self.pairs)

    def run(self, tally):
        dt = self.dt
        out = {}
        eps = {}
        for lam, p, q in self.solves:
            tag = f"eigen lam={lam.value} ({p},{q})"
            with tally.unit(tag):
                ep = dt.solve_eigenpoly(p, q, lam)
                eps[(lam.value, p, q)] = ep
                out[("eigen", str(lam.value), p, q)] = ep
                tally.check(f"{tag} mu", ep.mu == paper_mu(lam.value, p, q))
                tally.check(f"{tag} monic",
                            ep.poly.degree() == p + q and ep.poly.coeff(p, q) == 1)
                residual = dt.generator(ep.poly, lam) + ep.poly.scale(ep.mu)
                tally.check(f"{tag} L P + mu P = 0", residual.is_zero())
        for lam in self.lams:
            lv = lam.value
            with tally.unit(f"moments lam={lv}"):
                table = dt.moments(lam, 2 * self.PRODUCT_DEGREE)
                out[("moments", str(lv))] = table
                tally.check(f"moments lam={lv} m00 = 1", table.get(0, 0) == 1)
                tally.check(f"moments lam={lv} m11 = 1/(2 lam + 1)",
                            table.get(1, 1) == 1 / (2 * lv + 1))
                # the measure is invariant under Z -> exp(2 pi i / 3) Z and
                # under conjugation: m_ij = m_ji, and m_ij = 0 unless i = j mod 3
                tally.check(f"moments lam={lv} rotation and conjugation symmetry",
                            all((i - j) % 3 == 0 and table.get(j, i) == m
                                for (i, j), m in table.items()))
                polys = [eps[(lv, p, q)] for p, q in self.basis]
                for i, j in self.pairs:
                    ip = dt.inner_product(polys[i].poly, polys[j].poly, table)
                    tally.check(f"<P{self.basis[i]}, P{self.basis[j]}> = 0 "
                                f"lam={lv}", ip == 0)
                for ep in polys:
                    ip = dt.inner_product(ep.poly, ep.poly, table)
                    tally.check(f"<P, P> = norm2 ({ep.p},{ep.q}) lam={lv}",
                                ip == ep.norm2)
        for lam_s, degree in self.TRUNCATIONS:
            tag = f"truncation lam={lam_s} degree={degree}"
            with tally.unit(tag):
                trunc = dt.HeatKernelTruncation(dt.Lambda(dt.as_rat(lam_s)), degree)
                out[("truncation", lam_s, degree)] = trunc
                tally.check(f"{tag} mode count",
                            len(trunc) == (degree + 1) * (degree + 2) // 2)
                tally.check(f"{tag} integrates to delta", trunc.integrates_to_delta())
        return out


def _ray_expected(a1, b1):
    """(1/4)(1 - r)(3 - b1 + b1 r)(3 - b1 + (3 - 2 b1) r + 3 (b1 - 12 a1) r^2)."""

    def mul(p, q):
        r = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                r[i + j] += a * b
        return r

    a1, b1 = Fraction(a1), Fraction(b1)
    prod = mul(mul([Fraction(1), Fraction(-1)], [3 - b1, b1]),
               [3 - b1, 3 - 2 * b1, 3 * (b1 - 12 * a1)])
    prod = [c / 4 for c in prod]
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


class Calculus:
    """The exact layer on Gaussian rationals: many small products.

    Random real forms of degree <= 3 are drawn from the seed the way the
    Gamma_2 sampling criterion draws them: five terms with Gaussian
    rational coefficients, plus their conjugate swap.
    """

    FORMS = 100

    def __init__(self, dt, seed):
        self.dt = dt
        rng = random.Random(seed)
        self.lams = [dt.Lambda(dt.as_rat(v)) for v in LAMBDAS]
        self.forms = [self._real_form(rng) for _ in range(self.FORMS)]

    def _real_form(self, rng, deg=3):
        dt = self.dt
        terms = {}
        for _ in range(5):
            i = rng.randrange(deg + 1)
            j = rng.randrange(deg + 1 - i)
            terms[(i, j)] = dt.CRat(
                dt.Rat(rng.randrange(-5, 6), rng.randrange(1, 4)),
                dt.Rat(rng.randrange(-5, 6), rng.randrange(1, 4)),
            )
        p = dt.BivarPoly(terms)
        return p + p.conj_swap()

    def run(self, tally):
        dt = self.dt
        out = {}
        n = len(self.forms)
        boundary = dt.boundary_poly()
        for k, f in enumerate(self.forms):
            g = self.forms[(k + 1) % n]
            lam = self.lams[k % len(self.lams)]
            tag = f"form {k} lam={lam.value}"
            with tally.unit(tag):
                lf = dt.generator(f, lam)
                lg = dt.generator(g, lam)
                gfg = dt.gamma(f, g)
                diffusion = dt.generator(f * g, lam) - f * lg - g * lf - gfg.scale(2)
                tally.check(f"{tag} L(fg) - f Lg - g Lf - 2 G(f,g) = 0",
                            diffusion.is_zero())
                leibniz = dt.gamma(f * f, g) - (f * gfg).scale(2)
                tally.check(f"{tag} G(f^2, g) - 2 f G(f,g) = 0", leibniz.is_zero())
                g2 = dt.gamma2(f, f, lam)
                out[("gamma2", k)] = g2
                # Gamma_2(f, f) of a real function is real
                tally.check(f"{tag} Gamma_2(f, f) is a real form",
                            g2 == g2.conj_swap())
                # the package clears denominators with powers of P and
                # divides them back out exactly
                tally.check(f"{tag} (f P) / P = f",
                            (f * boundary).divexact(boundary) == f)

        with tally.unit("density discriminant"):
            # discriminant of x^3 - 3 Z x^2 + 3 Zbar x - 1 equals -108 P
            a, b, c, d = dt.BivarPoly.const(1), dt.Z.scale(-3), dt.ZBAR.scale(3), \
                dt.BivarPoly.const(-1)
            disc = ((a * b * c * d).scale(18) - (b ** 3 * d).scale(4)
                    + b ** 2 * c ** 2 - (a * c ** 3).scale(4)
                    - (a ** 2 * d ** 2).scale(27))
            out[("discriminant",)] = disc
            tally.check("discriminant = -108 P",
                        disc == dt.boundary_poly().scale(-108))

        with tally.unit("boundary equation"):
            ok, res_z, res_w = dt.operator.check_boundary_equation()
            tally.check("G(Z, P) = -3 Z P and G(Zbar, P) = -3 Zbar P",
                        ok and res_z.is_zero() and res_w.is_zero())

        with tally.unit("Hessian reduction"):
            direct = dt.operator.hessian_logP_direct()
            reduced = dt.operator.hessian_logP_reduced()
            out[("hessian",)] = direct
            tally.check("Hess log P = -3 G + (3/2) euler(G) entrywise",
                        direct.r11 == reduced.r11 and direct.r12 == reduced.r12
                        and direct.r22 == reduced.r22)

        with tally.unit("factorization sweep"):
            results = dt.factorization_sweep()
            tally.check("factorization sweep has 25 points", len(results) == 25)
            for r in results:
                tag = f"ray a1={r.a1} b1={r.b1}"
                out[("factorization", str(r.a1), str(r.b1))] = r
                tally.check(f"{tag} factorization",
                            [Fraction(c) for c in r.ray] == _ray_expected(r.a1, r.b1))
                tally.check(f"{tag} K = (b1 - 9 a1)(3/2 - b1)",
                            r.k_const == (r.b1 - 9 * r.a1) * (Fraction(3, 2) - r.b1))
                if r.a1 == Fraction(1, 6):
                    tally.check(f"{tag} reduced form", r.reduced_form_checked)

        with tally.unit("ray threshold"):
            a1 = dt.Rat(1, 6)
            ok_at, worst_at, _ = dt.ray_nonneg_on_unit(a1, dt.Rat(9, 4))
            ok_above, worst_above, _ = dt.ray_nonneg_on_unit(
                a1, dt.Rat(9, 4) + dt.Rat(1, 100))
            out[("ray worst",)] = [worst_at, worst_above]
            tally.check("ray nonnegative at b1 = 9/4", ok_at)
            tally.check("ray dips below 0 at b1 = 9/4 + 1/100", not ok_above)
        return out


class Measure:
    """The float side: grid margins, sampled margins, fits and Haar draws.

    Set-up builds the heat truncations and deltoid_grid(200), so exact
    work shows in setup_s here and little of it in run_s.
    """

    GAMMA2_TRIALS = 40
    GAMMA2_POINTS = 60
    HAAR_DRAWS = 6000
    KERNEL_POINTS = 24

    def __init__(self, dt, seed):
        self.dt = dt
        rng = random.Random(seed)
        self.seeds = {k: rng.randrange(10 ** 6) for k in
                      ("gamma2", "hk", "haar", "push", "charpoly", "cd", "kernel")}
        self.trunc4 = dt.HeatKernelTruncation(dt.Lambda(4), 40)
        self.trunc1 = dt.HeatKernelTruncation(dt.Lambda(1), 25)
        self.grid = dt.deltoid_grid(200)
        cusps = [complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3))
                 for k in range(3)]
        self.kernel_grid = cusps + [
            dt.triangle_to_deltoid(p).Z for p in dt.sample_interior(
                self.KERNEL_POINTS, "low-discrepancy", self.seeds["kernel"])
        ]
        # exact outputs of the set-up, digested once per run by the caller
        self.setup_outputs = {("truncation", "4", 40): self.trunc4,
                              ("truncation", "1", 25): self.trunc1}

    def run(self, tally):
        dt = self.dt
        s = self.seeds
        lam4 = dt.Lambda(4)
        out = {}

        with tally.unit("psd grid"):
            optimal = dt.tensor_residual(dt.Rat(1, 6), dt.Rat(9, 4))
            perturbed = dt.tensor_residual(dt.Rat(1, 6), dt.Rat(113, 50))
            out[("tensor", "1/6", "9/4")] = optimal
            out[("tensor", "1/6", "113/50")] = perturbed
            good = dt.psd_check(optimal, self.grid, tol=1e-12)
            tally.check("CD(9/4, 8) margins on the grid", good.passed)
            tally.check("grid has 19701 points", good.count == 19701)
            bad = dt.psd_check(perturbed, self.grid, tol=1e-12)
            tally.check("b1 = 113/50 fails on the grid", not bad.passed)

        with tally.unit("gamma2 sampling"):
            kw = dict(trials=self.GAMMA2_TRIALS, points=self.GAMMA2_POINTS,
                      seed=s["gamma2"], tol=1e-10)
            good = dt.gamma2_sample_check(lam4, 2.25, 8.0, **kw)
            tally.check("Gamma_2 margin >= 0 at n = 8", good.passed)
            bad = dt.gamma2_sample_check(lam4, 2.25, 7.0, **kw)
            tally.check("Gamma_2 violations at n = 7", bad.violations > 0)

        with tally.unit("ultracontractivity"):
            fit4 = dt.ultracontractivity_fit(lam4, (0.02, 0.2), self.trunc4)
            tally.check("heat slope at lam = 4 in [-4.5, -3.5]",
                        -4.5 <= fit4.exponent <= -3.5)
            fit1 = dt.ultracontractivity_fit(dt.Lambda(1), (0.02, 0.2), self.trunc1)
            tally.check("heat slope at lam = 1 in [-1.3, -0.8]",
                        -1.3 <= fit1.exponent <= -0.8)

        with tally.unit("sup-norm growth"):
            single = dt.supnorm_bound_check(lam4, 30)
            tally.check("mode sup exponent <= lam/2 + 0.1", single.exponent <= 2.1)
            combos = dt.hk_bound_check(lam4, 20, seed=s["hk"])
            tally.check("H_k sup exponent <= lam + 1/2 + 0.1", combos.exponent <= 4.6)

        with tally.unit("triangle scan"):
            scan = dt.scan_inf_b(1.0 / 3.0, grid=80)
            tally.check("inf b(1/3) in [9/8 - 1e-6, 1.135]",
                        1.125 - 1e-6 <= scan.inf_estimate <= 1.135)
            probe = dt.divergence_probe(0.4, "quad")
            tally.check("b(0.4) diverges like -theta^-2",
                        min(probe.b_values) < -1e3 and probe.limit_estimate < 0
                        and abs(probe.b_theta2[-1] / probe.b_theta2[-2] - 1) < 0.05)

        with tally.unit("multiplier kernel"):
            decaying = dt.kernel_bound_check(lambda k: math.exp(-float(k)), lam4, 12,
                                             self.kernel_grid)
            tally.check("kernel sup <= weight series", decaying.sup_abs
                        <= decaying.series_value)
            # a positive semidefinite kernel takes its sup on the diagonal
            tally.check("kernel sup sits on the diagonal",
                        abs(decaying.sup_abs - decaying.diag_sup) <= 1e-9)
            projector = dt.kernel_bound_check([1.0], lam4, 12, self.kernel_grid)
            tally.check("H_1 projector diagonal at a cusp = 2(2 lam + 1)",
                        abs(projector.sup_abs - 18.0) <= 1e-9)

        with tally.unit("Haar trace moment"):
            us = dt.haar_sample(s["haar"], self.HAAR_DRAWS)
            vals = [abs(complex(u.matrix[0, 0] + u.matrix[1, 1] + u.matrix[2, 2]) / 3.0) ** 2
                    for u in us]
            n = len(vals)
            mean = math.fsum(vals) / n
            var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
            # 4.5 se, not c05's 3: a correct sampler misses 3 se on about one
            # workload seed in 370, and 4.5 se on about one in 150,000
            tally.check("E|tr U / 3|^2 = 1/9 within 4.5 se",
                        abs(mean - 1.0 / 9.0) <= 4.5 * math.sqrt(var / n))

        with tally.unit("SU(3) pushforward"):
            Z, ZBAR = dt.Z, dt.ZBAR
            sample = dt.haar_sample(s["push"], 100)
            push = dt.pushforward_check([Z, ZBAR, Z * ZBAR, Z ** 2], sample)
            tally.check("(3/4) Casimir pushes forward to L at lam = 4",
                        push.max_gamma_residual < 1e-9
                        and push.max_generator_residual < 1e-9)
            rng = random.Random(s["charpoly"])
            worst = 0.0
            for u in sample[:25]:
                x = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                y = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                res = dt.charpoly_identity_check(u, x, y)
                worst = max(worst, res.gamma_residual, res.generator_residual)
            tally.check("characteristic polynomial identities", worst < 1e-9)
            cd = dt.curvature_dimension_check(trials=8, samples=40,
                                              seed=s["cd"], tol=1e-8)
            tally.check("CD(3, 8) on SU(3)", cd.passed)

        with tally.unit("Sobolev series"):
            rep = dt.sobolev_series_check(4.5, 0.75)
            tally.check("normalized series max/min < 10", rep.residual < 10.0)
        return out


WORKLOADS = {"spectrum": Spectrum, "calculus": Calculus, "measure": Measure}
