"""Command-line front end: orchestration and deterministic reports.

Each subcommand's runner computes and returns (extra, result, passed),
where extra holds the subcommand's own echo fields, or is None when the
run writes no report.  `main` alone builds the config echo from the
parsed options, writes the report and sets the exit code.  The report is
canonical JSON (sorted keys, fixed indentation) on stdout, or in the
file named by --out, and it echoes the run's configuration, so a report
is reproducible from its own header plus the package version.  Tables
go to a --csv sidecar with a header row, beside the report.  `accept`
prints its criterion lines on stdout and writes its report only to
--out.

Exit codes: 0 on pass, 1 on a verification failure or a refused input,
2 on usage errors.  Every refusal, an unwritable --out or --csv path
included, is one stderr line, "<command>: <reason>", with no report.
An --out or --csv path in a directory that does not exist is refused
before the run.
The package reads no environment variable.

SCHEMA_VERSION names the report layout and the random streams behind
it: version 2 draws Haar samples from one generator per seed (see
su3.haar_sample) and drops the threads field of the config echo.
"""

import argparse
import errno
import json
import math
import os
import sys

from . import __version__, su3
from .acceptance import run_all
from .cdcheck import (DegenerateDenominator, IdentityMismatch, divergence_probe,
                      factorization_check, gamma2_sample_check, scan_inf_b,
                      triangle_surface)
from .eigen import moments, solve_eigenpoly
from .exact import Rat, Z, ZBAR, as_rat
from .operator import Lambda
from .spectral import (TruncationInsufficient, _kernel_check_grid, growth_passed,
                       heat_cusp_sups, heat_times, hk_bound_check, kernel_bound_check,
                       sobolev_passed, sobolev_series_check, supnorm_bound_check)

SCHEMA_VERSION = 2


def rat_arg(text):
    """Parse 'num' or 'num/den' into an exact rational."""
    try:
        return as_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def positive_rat_arg(text):
    r = rat_arg(text)
    if r <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return r


def pq_arg(text):
    try:
        p, q = text.split(",")
        p, q = int(p), int(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected P,Q: {text!r}")
    if p < 0 or q < 0:
        raise argparse.ArgumentTypeError("indices must be nonnegative")
    return (p, q)


def _report(command, args, extra, result):
    """The report of a parsed run.  Its config echo reads the options that
    subcommands share where the subcommand has them, beside the
    subcommand's own extra fields.

    lam is carried as a num/den string so the echo stays exact; seed,
    grid and degree are 0 when the subcommand has no such option, and
    format is always "json".
    """
    degree = next((getattr(args, name) for name in ("degree", "max_degree", "max_k")
                   if hasattr(args, name)), 0)
    config = {
        "command": command,
        "lam": str(args.lam) if hasattr(args, "lam") else None,
        "seed": getattr(args, "seed", 0),
        "grid": getattr(args, "grid", 0),
        "degree": degree,
        "out": args.out,
        "format": "json",
        "extra": extra,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": f"deltoid {__version__}",
        "config": config,
        "result": result,
    }


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_parent_dirs(*paths):
    """Refuse, before any work, an output path whose directory does not
    exist, with the error that opening it would give."""
    for path in paths:
        if path and not os.path.exists(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit_json(report, out):
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header, rows, out):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# subcommand runners: each returns (extra, result, passed); extra is the
# subcommand's own echo fields, and main echoes the options it shares


def _run_eigen(args):
    p, q = args.pq
    ep = solve_eigenpoly(p, q, Lambda(args.lam))
    result = {
        "p": p,
        "q": q,
        "lambda": str(args.lam),
        "mu": str(ep.mu),
        "coefficients": ep.poly.to_records(),
        "norm2": str(ep.norm2),
    }
    return {"p": p, "q": q}, result, True


def _run_moments(args):
    table = moments(Lambda(args.lam), args.max_degree)
    entries = {}
    for i in range(args.max_degree + 1):
        for j in range(args.max_degree + 1 - i):
            entries[f"{i},{j}"] = str(table.get(i, j))
    result = {"lambda": str(args.lam), "max_degree": args.max_degree,
              "moments": entries}
    return {}, result, True


def _run_cd_verify(args):
    rep = gamma2_sample_check(
        Lambda(args.lam), float(args.rho), float(args.n),
        trials=args.trials, points=args.grid, seed=args.seed,
    )
    extra = {"rho": str(args.rho), "n": str(args.n), "trials": args.trials}
    result = {
        "pairs": rep.pairs,
        "violations": rep.violations,
        "min_margin": rep.min_margin,
        "tol": rep.tol,
        "passed": rep.passed,
    }
    return extra, result, rep.passed


def _run_cd_scan_b(args):
    a = float(args.a)
    rep = scan_inf_b(a, grid=args.grid, refine_near_cusps=args.refine)
    if args.csv:
        _emit_csv(("theta", "phi", "b"), triangle_surface(a, args.grid), args.csv)
    extra = {"a": str(args.a), "refine": args.refine, "csv": args.csv}
    result = {
        "a": a,
        "inf_estimate": rep.inf_estimate,
        "argmin": list(rep.argmin),
        "trace": list(rep.trace),
        "refined": rep.refined,
    }
    return extra, result, True


def _run_cd_probe(args):
    rep = divergence_probe(float(args.a), args.curve, float(args.c))
    extra = {"a": str(args.a), "curve": args.curve, "c": str(args.c)}
    result = {
        "thetas": list(rep.thetas),
        "b_values": list(rep.b_values),
        "b_theta2": list(rep.b_theta2),
        "limit_estimate": rep.limit_estimate,
        "sign_matches": rep.sign_matches,
        "ratio_checks": rep.ratio_checks,
    }
    return extra, result, rep.sign_matches


def _run_cd_factor_check(args):
    res = factorization_check(args.a1, args.b1)
    result = {
        "a1": str(res.a1),
        "b1": str(res.b1),
        "k_const": str(res.k_const),
        "ray": [str(c) for c in res.ray],
        "reduced_form_checked": res.reduced_form_checked,
    }
    return {"a1": str(args.a1), "b1": str(args.b1)}, result, True


def _run_su3_check(args):
    us = su3.haar_sample(args.seed, args.samples)
    group = su3.group_model_check(us, [Z, ZBAR, Z * ZBAR], args.seed + 1, args.seed)
    trace = su3.trace_moment_check(args.seed, args.samples)
    result = {
        "ricci": group.ricci,
        "ricci_residual": abs(group.ricci - 3.0),
        "commutator_entries": group.commutator_entries,
        "pushforward_gamma_residual": group.push.max_gamma_residual,
        "pushforward_generator_residual": group.push.max_generator_residual,
        "charpoly_residual": group.charpoly_residual,
        "cd_min_margin": group.cd.min_margin,
        "trace_moment": {
            "mean": trace.mean,
            "target": "1/9",
            "stderr": trace.stderr,
            "ci95": [trace.mean - 1.96 * trace.stderr, trace.mean + 1.96 * trace.stderr],
        },
        "passed": group.passed and trace.passed,
    }
    return {"samples": args.samples}, result, result["passed"]


def _run_heat_trace(args):
    ts = heat_times(args.t_min, args.t_max, args.nt)
    rows = heat_cusp_sups(Lambda(args.lam), args.degree, ts)
    if args.csv:
        _emit_csv(("t", "sup_heat_diag"), rows, args.csv)
    extra = {"t_min": args.t_min, "t_max": args.t_max, "nt": args.nt}
    return extra, {"points": [{"t": t, "sup": s} for t, s in rows]}, True


def _run_bounds(args):
    if args.bounds_command == "supnorm":
        rep = supnorm_bound_check(Lambda(args.lam), args.max_degree)
    else:
        rep = hk_bound_check(Lambda(args.lam), args.max_k, seed=args.seed)
    result = {
        "exponent": rep.exponent,
        "target": rep.target,
        "constant": rep.constant,
        "residual": rep.residual,
        "window": list(rep.window),
        "passed": growth_passed(rep),
    }
    return {}, result, result["passed"]


def _run_sobolev_series(args):
    rep = sobolev_series_check(float(args.p), float(args.a))
    result = {
        "exponent": rep.exponent,
        "max_min_ratio": rep.residual,
        "plateau_constant": rep.constant,
        "passed": sobolev_passed(rep),
    }
    return {"p": str(args.p), "a": str(args.a)}, result, result["passed"]


_NU_CHOICES = {
    "exp": lambda k: math.exp(-float(k)),
    "delta1": lambda k: 1.0 if k == 1 else 0.0,
    "zero": lambda k: 0.0,
}


def _run_kernel_check(args):
    rep = kernel_bound_check(_NU_CHOICES[args.nu], Lambda(args.lam),
                             args.max_k, _kernel_check_grid())
    result = {
        "sup_abs": rep.sup_abs,
        "series_value": rep.series_value,
        "ratio": rep.ratio if math.isfinite(rep.ratio) else None,
        "diag_sup": rep.diag_sup,
        "grid_size": rep.grid_size,
        "passed": rep.passed,
    }
    return {"nu": args.nu}, result, rep.passed


def _run_accept(args):
    # stdout carries the criterion lines, so the report goes only to --out
    results = run_all(printer=print)
    # seconds stay out of the report so identical configs emit
    # identical bytes
    result = {
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "summary": r.summary}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return ({} if args.out else None), result, result["passed"]


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltoid",
        description="verification workbench for the deltoid diffusion family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write the report here")

    def add_lambda(p):
        p.add_argument("--lambda", dest="lam", type=positive_rat_arg, required=True)

    p = sub.add_parser("eigen", help="solve one eigenpolynomial exactly")
    add_lambda(p)
    p.add_argument("--pq", type=pq_arg, required=True, metavar="P,Q")
    add_out(p)
    p.set_defaults(fn=_run_eigen)

    p = sub.add_parser("moments", help="exact moment table")
    add_lambda(p)
    p.add_argument("--max-degree", type=int, default=6)
    add_out(p)
    p.set_defaults(fn=_run_moments)

    cd = sub.add_parser("cd", help="curvature-dimension checks")
    cds = cd.add_subparsers(dest="cd_command", required=True)

    p = cds.add_parser("verify", help="sampled curvature inequality margins")
    add_lambda(p)
    p.add_argument("--rho", type=rat_arg, required=True)
    p.add_argument("--n", type=positive_rat_arg, required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=_run_cd_verify)

    p = cds.add_parser("scan-b", help="scan the admissible-b surface")
    p.add_argument("--a", type=rat_arg, required=True)
    p.add_argument("--grid", type=int, default=80)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--csv", default=None, help="write the scan surface here")
    add_out(p)
    p.set_defaults(fn=_run_cd_scan_b)

    p = cds.add_parser("probe", help="divergence along a corner curve")
    p.add_argument("--a", type=rat_arg, required=True)
    p.add_argument("--curve", choices=("quad", "lin"), default="quad")
    p.add_argument("--c", type=rat_arg, default=Rat(1))
    add_out(p)
    p.set_defaults(fn=_run_cd_probe)

    p = cds.add_parser("factor-check", help="exact ray factorization")
    p.add_argument("--a1", type=rat_arg, required=True)
    p.add_argument("--b1", type=rat_arg, required=True)
    add_out(p)
    p.set_defaults(fn=_run_cd_factor_check)

    group = sub.add_parser("su3", help="group-model verification")
    su3s = group.add_subparsers(dest="su3_command", required=True)
    p = su3s.add_parser("check", help="all group-side identities")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=_run_su3_check)

    heat = sub.add_parser("heat", help="heat-kernel truncations")
    heats = heat.add_subparsers(dest="heat_command", required=True)
    p = heats.add_parser("trace", help="sup of the diagonal over a t-window")
    add_lambda(p)
    p.add_argument("--degree", type=int, default=40)
    p.add_argument("--t-min", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=0.2)
    p.add_argument("--nt", type=int, default=12)
    p.add_argument("--csv", default=None, help="write the (t, sup) rows here")
    add_out(p)
    p.set_defaults(fn=_run_heat_trace)

    bounds = sub.add_parser("bounds", help="spectral growth bounds")
    boundss = bounds.add_subparsers(dest="bounds_command", required=True)
    p = boundss.add_parser("supnorm", help="per-mode sup-norm growth")
    add_lambda(p)
    p.add_argument("--max-degree", type=int, default=30)
    add_out(p)
    p.set_defaults(fn=_run_bounds)
    p = boundss.add_parser("hk", help="degree-space combination growth")
    add_lambda(p)
    p.add_argument("--max-k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=_run_bounds)

    sob = sub.add_parser("sobolev", help="series-side estimates")
    sobs = sob.add_subparsers(dest="sobolev_command", required=True)
    p = sobs.add_parser("series", help="normalized series stability")
    p.add_argument("--p", type=positive_rat_arg, default=Rat(9, 2))
    p.add_argument("--a", type=positive_rat_arg, default=Rat(3, 4))
    add_out(p)
    p.set_defaults(fn=_run_sobolev_series)

    ker = sub.add_parser("kernel", help="multiplier-kernel boundedness")
    kers = ker.add_subparsers(dest="kernel_command", required=True)
    p = kers.add_parser("check", help="kernel sup against the weight series")
    add_lambda(p)
    p.add_argument("--max-k", type=int, default=12)
    p.add_argument("--nu", choices=sorted(_NU_CHOICES), default="exp")
    add_out(p)
    p.set_defaults(fn=_run_kernel_check)

    p = sub.add_parser("accept", help="run the acceptance suite")
    add_out(p)
    p.set_defaults(fn=_run_accept)

    return parser


def main(argv=None):
    """Run one subcommand and write its report; a refused input (a
    ValueError, a too-shallow truncation, a failed exact identity or a
    zero denominator on a probe curve) or a report or sidecar that cannot
    be written (an OSError) is one stderr line naming the command, and
    exit 1."""
    args = build_parser().parse_args(argv)
    # each group's subparser stores its subcommand in <group>_command
    command = " ".join(filter(None, (args.command,
                                     getattr(args, f"{args.command}_command", None))))
    try:
        _require_parent_dirs(args.out, getattr(args, "csv", None))
        extra, result, passed = args.fn(args)
        if extra is not None:
            _emit_json(_report(command, args, extra, result), args.out)
    except (OSError, ValueError, TruncationInsufficient, IdentityMismatch,
            DegenerateDenominator) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
