import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import deltoid
from deltoid import cli
from deltoid.acceptance import CriterionResult
from deltoid.cdcheck import IdentityMismatch
from deltoid.cli import build_parser, main, rat_arg
from deltoid.exact import Rat

README = Path(__file__).resolve().parents[1] / "README.md"
SHALLOW = ["heat", "trace", "--lambda", "1", "--degree", "3",
           "--t-min", "0.01", "--t-max", "0.05", "--nt", "3"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_rat_arg_parsing():
    assert rat_arg("9/4") == Rat(9, 4)
    assert rat_arg("7") == Rat(7)
    assert rat_arg("-3") == Rat(-3)
    assert rat_arg("7/2") == Rat(7, 2)
    for bad in ("x", "1/0", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            rat_arg(bad)


def test_report_names_the_package_version(capsys):
    _, rep = run_json(capsys, ["eigen", "--lambda", "4", "--pq", "1,0"])
    assert rep["tool"] == f"deltoid {deltoid.__version__}"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "--lambda", "0", "--pq", "1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "--lambda", "4", "--pq", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # heat trace always writes its JSON report, and accept has one suite
    for argv in (["heat", "trace", "--lambda", "4", "--format", "json"],
                 ["accept", "--suite", "primary"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_eigen_contract_example(capsys):
    code, rep = run_json(capsys, ["eigen", "--lambda", "4", "--pq", "1,1"])
    assert code == 0
    res = rep["result"]
    assert res["mu"] == "9"
    assert res["norm2"] == "1/81"
    recs = {(r["i"], r["j"]): r for r in res["coefficients"]}
    assert recs[(1, 1)]["re_num"] == 1 and recs[(1, 1)]["re_den"] == 1
    assert recs[(0, 0)]["re_num"] == -1 and recs[(0, 0)]["re_den"] == 9
    assert rep["schema_version"] == 2
    assert rep["config"]["command"] == "eigen"


def test_moments_normalization(capsys):
    code, rep = run_json(
        capsys, ["moments", "--lambda", "7/2", "--max-degree", "2"]
    )
    assert code == 0
    assert rep["result"]["moments"]["1,1"] == "1/8"
    assert rep["result"]["moments"]["0,0"] == "1"


@pytest.mark.parametrize("argv", [
    ["eigen", "--lambda", "4", "--pq", "2,1"],
    ["moments", "--lambda", "7/2", "--max-degree", "4"],
    ["cd", "verify", "--lambda", "4", "--rho", "9/4", "--n", "8",
     "--grid", "20", "--trials", "10"],
    ["cd", "scan-b", "--a", "1/3", "--grid", "30", "--refine"],
    ["cd", "probe", "--a", "2/5", "--curve", "quad", "--c", "1"],
    ["cd", "factor-check", "--a1", "1/6", "--b1", "9/4"],
    ["su3", "check", "--samples", "15", "--seed", "4"],
    ["heat", "trace", "--lambda", "4", "--degree", "20", "--nt", "5"],
    ["bounds", "supnorm", "--lambda", "4", "--max-degree", "12"],
    ["bounds", "hk", "--lambda", "4", "--max-k", "8"],
    ["sobolev", "series"],
    ["kernel", "check", "--lambda", "4", "--max-k", "8"],
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_report_determinism(tmp_path, argv):
    # the same config run twice writes the same bytes
    out = tmp_path / "rep.json"
    reports = []
    for _ in range(2):
        assert main(argv + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cd_verify_small(capsys):
    code, rep = run_json(
        capsys,
        ["cd", "verify", "--lambda", "4", "--rho", "9/4", "--n", "8",
         "--grid", "20", "--trials", "10"],
    )
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["min_margin"] >= -1e-10


def test_cd_scan_b_with_surface(tmp_path, capsys):
    csv = tmp_path / "surface.csv"
    code, rep = run_json(
        capsys,
        ["cd", "scan-b", "--a", "1/3", "--grid", "30", "--refine",
         "--csv", str(csv)],
    )
    assert code == 0
    assert 1.124 < rep["result"]["inf_estimate"] < 1.135
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta,phi,b"
    assert len(lines) > 100
    th, ph, b = lines[1].split(",")
    float(th), float(ph), float(b)


def test_cd_probe(capsys):
    code, rep = run_json(
        capsys, ["cd", "probe", "--a", "2/5", "--curve", "quad", "--c", "1"]
    )
    assert code == 0
    assert rep["result"]["sign_matches"] is True
    assert rep["result"]["limit_estimate"] < 0
    assert min(rep["result"]["b_values"]) < -1e3


def test_cd_factor_check(capsys):
    code, rep = run_json(
        capsys, ["cd", "factor-check", "--a1", "1/6", "--b1", "9/4"]
    )
    assert code == 0
    assert rep["result"]["reduced_form_checked"] is True
    assert rep["result"]["k_const"] == "-9/16"


def test_su3_check(capsys):
    code, rep = run_json(capsys, ["su3", "check"])
    assert code == 0
    res = rep["result"]
    assert res["passed"] is True
    assert res["commutator_entries"] == 36
    # the standard error is the exact Haar sigma of |tr U/3|^2, 1/9, over
    # the square root of the sample count
    assert res["trace_moment"]["stderr"] == (1 / 9) / 10
    lo, hi = res["trace_moment"]["ci95"]
    assert lo < 1 / 9 < hi


def test_heat_trace_csv(tmp_path, capsys):
    # the (t, sup) rows go to the --csv file; stdout is the JSON report,
    # which holds the same rows
    csv = tmp_path / "trace.csv"
    code, rep = run_json(capsys, ["heat", "trace", "--lambda", "4", "--degree", "20",
                                  "--nt", "5", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,sup_heat_diag"
    assert len(lines) == 6
    rows = [tuple(float(v) for v in l.split(",")) for l in lines[1:]]
    sups = [s for _, s in rows]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert [(p["t"], p["sup"]) for p in rep["result"]["points"]] == rows
    assert rep["config"]["command"] == "heat trace"


def test_heat_trace_shallow_truncation_fails(capsys):
    code = main(SHALLOW)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("heat trace: truncation too shallow: "
                   "tail 9.347e-01 at t = 0.010000000000000004\n")


def test_bounds_subcommands(capsys):
    code, rep = run_json(
        capsys, ["bounds", "supnorm", "--lambda", "4", "--max-degree", "12"]
    )
    assert code == 0 and rep["result"]["passed"] is True
    code, rep = run_json(
        capsys, ["bounds", "hk", "--lambda", "4", "--max-k", "8"]
    )
    assert code == 0 and rep["result"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["bounds", "supnorm", "--lambda", "1/2"],
    ["bounds", "hk", "--lambda", "1/2", "--max-k", "12"],
    ["heat", "trace", "--lambda", "1/2"],
])
def test_bounds_below_lambda_one_fail_with_one_line(capsys, argv):
    # the growth bounds are stated for lam >= 1; below it the command
    # says so on stderr and exits nonzero, with no report and no traceback
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"{' '.join(argv[:2])}: stated for lam >= 1\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "supnorm", "--lambda", "4", "--max-degree", "1"],
    ["bounds", "hk", "--lambda", "4", "--max-k", "1"],
])
def test_bounds_refuse_a_fit_through_one_abscissa(capsys, argv):
    # degree 1 has two modes at one mu, and max-k 1 one k: a line
    # through one abscissa says nothing about growth, so the command
    # refuses on one stderr line instead of reporting a verdict
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"{' '.join(argv[:2])}: a growth fit needs at least two distinct abscissae\n"


@pytest.mark.parametrize("argv, reason", [
    (["heat", "trace", "--lambda", "4", "--t-min", "0"],
     "t must be finite and positive, not 0.0"),
    (["heat", "trace", "--lambda", "4", "--t-min", "nan"],
     "t must be finite and positive, not nan"),
    (["kernel", "check", "--lambda", "4", "--max-k", "0"], "max_degree must be positive"),
    (["cd", "verify", "--lambda", "4", "--rho", "9/4", "--n", "8", "--grid", "0"],
     "need points >= 1"),
    (["cd", "scan-b", "--a", "1/3", "--grid", "2"], "need grid >= 3"),
    (["heat", "trace", "--lambda", "4", "--t-min", "0.3", "--t-max", "0.2"],
     "need t_min < t_max, not 0.3 >= 0.2"),
    (["heat", "trace", "--lambda", "4", "--nt", "0"], "need nt >= 1, not 0"),
    (SHALLOW, "truncation too shallow: tail 9.347e-01 at t = 0.010000000000000004"),
    (["cd", "factor-check", "--a1", "1/6", "--b1", "9/4"],
     "ray factorization differs: [1]"),
])
def test_refused_inputs_fail_with_one_line(capsys, monkeypatch, argv, reason):
    # main() turns a runner's ValueError, TruncationInsufficient or
    # IdentityMismatch into "<command>: <reason>" on stderr and exit 1,
    # with no report and no traceback; only factor-check reaches the
    # failing identity below
    def mismatch(a1, b1):
        raise IdentityMismatch("ray factorization differs: [1]", (1,))

    monkeypatch.setattr(cli, "factorization_check", mismatch)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"{' '.join(argv[:2])}: {reason}\n"


def test_heat_trace_refuses_lambda_below_one_before_building(capsys, monkeypatch):
    # the refusal needs no truncation: building one fails this test
    from deltoid import spectral

    def no_build(*args, **kwargs):
        raise AssertionError("built a truncation for lambda < 1")

    monkeypatch.setattr(spectral, "HeatKernelTruncation", no_build)
    code = main(["heat", "trace", "--lambda", "1/2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "heat trace: stated for lam >= 1\n"


@pytest.mark.parametrize("sizes", [
    ["bounds", "hk", "--lambda", "4"],
    ["kernel", "check", "--lambda", "4"],
    ["bounds", "supnorm", "--lambda", "4"],
    ["heat", "trace", "--lambda", "4", "--degree", "40"],
    ["cd", "verify", "--lambda", "4", "--rho", "9/4", "--n", "8"],
])
def test_bounds_supnorm_bytes_do_not_depend_on_blas_threads(sizes):
    # the mode store's matrix products, which the H_k and kernel checks
    # read, run in BLAS; one and two threads must give the same report
    # bytes at the default sizes, whose products are large enough for
    # BLAS to split them between threads.  The sup-norm and heat-trace
    # reports, summed from exact cusp weights, and the cd verify report,
    # whose margins einsum sums, must hold the same bytes
    src = os.path.dirname(os.path.dirname(deltoid.__file__))
    argv = [sys.executable, "-m", "deltoid.cli"] + sizes
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        reports.append(done.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["result"].get("passed", True) is True


def test_sobolev_series_runs_without_mpmath():
    # mpmath is the tests' oracle only: with its import blocked, the
    # series command still runs and passes
    src = os.path.dirname(os.path.dirname(deltoid.__file__))
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from deltoid.cli import main; sys.exit(main(['sobolev', 'series']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["result"]["passed"] is True


def test_sobolev_series_defaults(capsys):
    code, rep = run_json(capsys, ["sobolev", "series"])
    assert code == 0
    assert rep["result"]["max_min_ratio"] < 10
    assert rep["result"]["exponent"] == 5.0


def test_kernel_check_exit_codes(capsys):
    code, rep = run_json(
        capsys, ["kernel", "check", "--lambda", "4", "--max-k", "8",
                 "--nu", "exp"]
    )
    assert code == 0
    assert rep["result"]["sup_abs"] <= rep["result"]["series_value"]
    code, rep = run_json(
        capsys, ["kernel", "check", "--lambda", "4", "--max-k", "8",
                 "--nu", "delta1"]
    )
    assert code == 1  # projector kernel tops its own weight series
    assert rep["result"]["passed"] is False


def test_accept_delegates(monkeypatch, capsys, tmp_path):
    fake = [
        CriterionResult(1, "one", True, "fine", 0.0),
        CriterionResult(2, "two", True, "fine", 0.0),
    ]
    monkeypatch.setattr(cli, "run_all", lambda printer=None: fake)
    out = tmp_path / "acc.json"
    assert main(["accept", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["passed"] is True
    assert len(rep["result"]["criteria"]) == 2
    assert "seconds" not in json.dumps(rep)

    fake[1] = CriterionResult(2, "two", False, "broken", 0.0)
    assert main(["accept"]) == 1
    capsys.readouterr()


def test_accept_without_out_prints_only_its_criterion_lines(monkeypatch, capsys):
    # stdout carries the suite's own lines; the report goes only to --out
    def fake(printer=None):
        printer("c01 one PASS")
        return [CriterionResult(1, "one", True, "fine", 0.0)]

    monkeypatch.setattr(cli, "run_all", fake)
    assert main(["accept"]) == 0
    assert capsys.readouterr().out == "c01 one PASS\n"


def test_readme_commands_parse():
    # every command of README's command-line block is one the parser
    # accepts; nothing is run
    text = README.read_text()
    block = text.split("## command line", 1)[1].split("```")[1]
    lines = [l for l in block.splitlines() if l.startswith("deltoid ")]
    assert len(lines) == 13
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line
