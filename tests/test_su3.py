import hashlib
import math
import os

import numpy as np
import pytest

from deltoid import su3
from deltoid.eigen import MomentTable
from deltoid.exact import Z, ZBAR
from deltoid.operator import Lambda, gamma as deltoid_gamma
from deltoid.su3 import (
    DIAG_WEIGHT,
    DegreeOverflow,
    EntryPoly,
    LieBasis,
    NonConstantRicci,
    CharpolyResiduals,
    SpecialUnitary3,
    casimir_apply,
    charpoly_identity_check,
    commutator_table,
    curvature_dimension_check,
    entry_const,
    entry_z,
    entry_zbar,
    field_apply,
    gamma_fields,
    haar_sample,
    normalized_trace,
    pushforward_check,
    ricci_constant,
)
from oracles import coefficient_function, entry_gamma, replaced, vectorfield_gamma_oracle

A = DIAG_WEIGHT


def test_special_unitary_validation():
    u = SpecialUnitary3(np.eye(3))
    assert u.matrix.shape == (3, 3)
    with pytest.raises(ValueError):
        SpecialUnitary3(np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        SpecialUnitary3(np.diag([1.0, 1.0, -1.0]))  # unitary, det = -1
    with pytest.raises(ValueError):
        SpecialUnitary3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SpecialUnitary3(np.full((3, 3), np.nan))


def test_lie_basis_structure():
    basis = LieBasis()
    assert len(basis.names) == 9
    assert basis.names[0] == "R12" and basis.names[-1] == "Dh23"
    for _, x in basis:
        assert np.abs(x + x.conj().T).max() < 1e-15
        assert abs(np.trace(x)) < 1e-15
    cas = sum(x @ x for _, x in basis)
    assert np.abs(cas + (16.0 / 3.0) * np.eye(3)).max() < 1e-14


def test_lie_basis_refuses_a_broken_frame(monkeypatch):
    # a Cartan weight of 1 keeps every member antihermitian traceless but
    # breaks sum X_i^2 = -(16/3) I: a typed error, not a bare assert
    monkeypatch.setattr(su3, "DIAG_WEIGHT", 1.0)
    with pytest.raises(ValueError, match="Casimir normalization broken"):
        LieBasis()


def test_diagonal_weight_identity():
    # the scaling satisfies 1 + 3 a^2 = 2 / a^2 = 3
    assert abs(1.0 + 3.0 * A**2 - 3.0) < 1e-15
    assert abs(2.0 / A**2 - 3.0) < 1e-15


def test_haar_samples_are_special_unitary():
    for u in haar_sample(3, 50):
        m = u.matrix
        assert np.abs(m.conj().T @ m - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_haar_determinism_and_arg_check():
    a1 = haar_sample(7, 5)
    a2 = haar_sample(7, 5)
    b = haar_sample(8, 5)
    for x, y in zip(a1, a2):
        assert np.array_equal(x.matrix, y.matrix)
    assert not np.array_equal(a1[0].matrix, b[0].matrix)
    with pytest.raises(ValueError):
        haar_sample(0, 0)


def haar_per_draw(seed, n):
    """Reference: one generator; per draw its next 18 normals (nine real
    parts, then nine imaginary parts), one QR, phase fix and determinant."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.standard_normal(18)
        g = x[:9].reshape(3, 3) + 1j * x[9:].reshape(3, 3)
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        q = q / np.linalg.det(q) ** (1.0 / 3.0)
        out.append(SpecialUnitary3(q))
    return out


@pytest.mark.parametrize("seed, n", [(0, 1), (7, 5), (17, 2100), (23, 100)])
def test_haar_sample_matches_per_draw_loop(seed, n):
    us = haar_sample(seed, n)
    ref = haar_per_draw(seed, n)
    assert len(us) == n
    for u, v in zip(us, ref):
        assert np.array_equal(u.matrix, v.matrix)
        assert not u.matrix.flags.writeable
    # a draw does not depend on how many are drawn with it
    assert np.array_equal(haar_sample(seed, 1)[0].matrix, us[0].matrix)
    k = (n + 1) // 2
    for u, v in zip(haar_sample(seed, k), us[:k]):
        assert np.array_equal(u.matrix, v.matrix)


@pytest.mark.parametrize("seed, n", [(0, 1), (17, 2100)])
def test_haar_stack_is_the_sample(seed, n):
    # the stack c05 and the curvature check read holds the bits of the
    # list's matrices, which are read-only views into it
    stack = su3._haar_matrices(seed, n)
    assert stack.shape == (n, 3, 3) and not stack.flags.writeable
    us = haar_sample(seed, n)
    assert np.stack([u.matrix for u in us]).tobytes() == stack.tobytes()
    assert all(u.matrix.base is not None for u in us)
    with pytest.raises(ValueError):
        su3._haar_matrices(seed, 0)


def test_haar_stack_is_validated(monkeypatch):
    # a draw that leaves SU(3) is refused before the stack is returned
    monkeypatch.setattr(np.linalg, "det", lambda m: 2.0 * np.ones(m.shape[:-2]))
    with pytest.raises(ValueError):
        su3._haar_matrices(3, 10)


def test_haar_trace_moments():
    us = haar_sample(0, 4000)
    tr = np.array([np.trace(u.matrix) for u in us])
    # E tr U = 0
    se_re = tr.real.std(ddof=1) / math.sqrt(len(tr))
    se_im = tr.imag.std(ddof=1) / math.sqrt(len(tr))
    assert abs(tr.real.mean()) < 3 * se_re
    assert abs(tr.imag.mean()) < 3 * se_im
    # E |tr U / 3|^2 = 1/9, matching the lambda = 4 moment of Z Zbar
    sq = np.abs(tr / 3.0) ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0 / 9.0) < 3 * se
    m = MomentTable(Lambda(4), 2)
    assert float(m.get(1, 1)) == pytest.approx(1.0 / 9.0)
    # E (tr U / 3)^3 = 1/27: one invariant in the triple product
    cu = (tr / 3.0) ** 3
    se3 = cu.real.std(ddof=1) / math.sqrt(len(cu))
    assert abs(cu.real.mean() - 1.0 / 27.0) < 3 * se3


def test_haar_left_invariance():
    # statistics of tr U unchanged by a fixed left factor, two-sample at 3 sigma
    v = haar_sample(99, 1)[0].matrix
    s1 = np.array([np.trace(u.matrix) for u in haar_sample(11, 3000)])
    s2 = np.array([np.trace(v @ u.matrix) for u in haar_sample(12, 3000)])
    for f in (lambda t: t.real, lambda t: np.abs(t) ** 2):
        x, y = f(s1), f(s2)
        se = math.sqrt(x.var(ddof=1) / len(x) + y.var(ddof=1) / len(y))
        assert abs(x.mean() - y.mean()) < 3 * se


def test_entry_gamma_at_identity():
    ident = SpecialUnitary3(np.eye(3))
    assert entry_gamma(0, 0, 0, 0, ident, "zzbar") == pytest.approx(4.0 / 3.0)
    assert entry_gamma(0, 1, 0, 2, ident, "zzbar") == pytest.approx(0.0)
    with pytest.raises(ValueError):
        entry_gamma(0, 0, 0, 0, ident, "zbarz")


def test_casimir_coordinate_coefficient():
    # L z_pq = -2(9 - 1)/3 z_pq = -(16/3) z_pq
    for (p, q) in [(0, 0), (0, 1), (2, 1)]:
        diff = casimir_apply(entry_z(p, q)) - entry_z(p, q).scale(-16.0 / 3.0)
        assert diff.is_zero(tol=1e-12)
        diffb = casimir_apply(entry_zbar(p, q)) - entry_zbar(p, q).scale(-16.0 / 3.0)
        assert diffb.is_zero(tol=1e-12)


def test_oracle_matches_entry_closed_forms():
    us = haar_sample(21, 100)
    worst = 0.0
    for u in us:
        got = vectorfield_gamma_oracle(entry_z(0, 0), entry_z(0, 0), u)
        want = entry_gamma(0, 0, 0, 0, u, "zz")
        worst = max(worst, abs(got - want))
    assert worst < 1e-10
    # a spread of index combinations on a few samples
    for u in us[:10]:
        for (k, l, r, q) in [(0, 1, 1, 2), (2, 0, 1, 1), (1, 2, 2, 1), (2, 2, 0, 0)]:
            o = vectorfield_gamma_oracle(entry_z(k, l), entry_z(r, q), u)
            assert abs(o - entry_gamma(k, l, r, q, u, "zz")) < 1e-10
            o = vectorfield_gamma_oracle(entry_z(k, l), entry_zbar(r, q), u)
            assert abs(o - entry_gamma(k, l, r, q, u, "zzbar")) < 1e-10


def test_oracle_constant_and_trace_form():
    u = haar_sample(4, 1)[0]
    assert vectorfield_gamma_oracle(entry_const(2.5), entry_z(1, 1), u) == 0
    # Gamma(Z, Zbar) = (2/3)(1 - Z Zbar), so 3/4 of it is the flat-side value
    zt = normalized_trace()
    flat = deltoid_gamma(Z, ZBAR)
    for u in haar_sample(17, 25):
        zv = np.trace(u.matrix) / 3.0
        got = vectorfield_gamma_oracle(zt, zt.conj(), u)
        assert abs(got - (2.0 / 3.0) * (1.0 - zv * np.conj(zv))) < 1e-12
        assert abs(0.75 * got - flat.eval(zv)) < 1e-12


def test_entry_poly_algebra():
    f = entry_z(0, 1) * entry_zbar(2, 2) + entry_const(1.5)
    g = f.conj().conj()
    assert (g - f).is_zero()
    # derivation product rule through a frame field
    x = LieBasis().matrices[2]
    p, q = entry_z(0, 0), entry_z(1, 2)
    lhs = field_apply(x, p * q)
    rhs = field_apply(x, p) * q + p * field_apply(x, q)
    assert (lhs - rhs).is_zero(tol=1e-13)


def test_ricci_constant_is_three():
    assert ricci_constant() == pytest.approx(3.0, abs=1e-10)


def _expected_commutators():
    t = {
        ("R12", "R13"): (-1, "R23"),
        ("R12", "R23"): (1, "R13"),
        ("R12", "S12"): (2 / A, "Dh12"),
        ("R12", "S13"): (-1, "S23"),
        ("R12", "S23"): (1, "S13"),
        ("R12", "Dh12"): (-2 * A, "S12"),
        ("R12", "Dh13"): (-A, "S12"),
        ("R12", "Dh23"): (A, "S12"),
        ("R13", "R23"): (-1, "R12"),
        ("R13", "S12"): (-1, "S23"),
        ("R13", "S13"): (2 / A, "Dh13"),
        ("R13", "S23"): (1, "S12"),
        # diagonal conjugation keeps the argument's index pair: S13, not S23
        ("R13", "Dh12"): (-A, "S13"),
        ("R13", "Dh13"): (-2 * A, "S13"),
        ("R13", "Dh23"): (-A, "S13"),
        ("R23", "S12"): (-1, "S13"),
        ("R23", "S13"): (1, "S12"),
        ("R23", "S23"): (2 / A, "Dh23"),
        ("R23", "Dh12"): (A, "S23"),
        ("R23", "Dh13"): (-A, "S23"),
        ("R23", "Dh23"): (-2 * A, "S23"),
        ("S12", "S13"): (-1, "R23"),
        ("S12", "S23"): (-1, "R13"),
        ("S12", "Dh12"): (2 * A, "R12"),
        ("S12", "Dh13"): (A, "R12"),
        ("S12", "Dh23"): (-A, "R12"),
        ("S13", "S23"): (-1, "R12"),
        ("S13", "Dh12"): (A, "R13"),
        ("S13", "Dh13"): (2 * A, "R13"),
        ("S13", "Dh23"): (A, "R13"),
        ("S23", "Dh12"): (-A, "R23"),
        ("S23", "Dh13"): (A, "R23"),
        ("S23", "Dh23"): (2 * A, "R23"),
        ("Dh12", "Dh13"): (0.0, None),
        ("Dh12", "Dh23"): (0.0, None),
        ("Dh13", "Dh23"): (0.0, None),
    }
    assert len(t) == 36
    return t


def test_commutator_table_all_36():
    got = commutator_table()
    want = _expected_commutators()
    assert set(got) == set(want)
    for key, (wc, wn) in want.items():
        gc, gn = got[key]
        assert gn == wn, key
        assert abs(gc - wc) < 1e-12, key


def test_commutator_spot_check():
    got = commutator_table()
    assert got[("R12", "S12")][1] == "Dh12"
    assert got[("R12", "S12")][0] == pytest.approx(2.0 / A, abs=1e-14)


def test_charpoly_identities_random_u():
    u = haar_sample(31, 1)[0]
    r = charpoly_identity_check(u, 2.0, 3.0j)
    assert r.gamma_residual < 1e-9
    assert r.generator_residual < 1e-9
    assert r.passed


def test_charpoly_coincident_limit():
    u = haar_sample(32, 1)[0]
    r = charpoly_identity_check(u, 1.7, 1.7)
    assert r.gamma_residual < 1e-9
    # nearly coincident agrees with the exact limit branch
    r2 = charpoly_identity_check(u, 1.7, 1.7 + 1e-9)
    assert r2.gamma_residual < 1e-6


def test_charpoly_degenerate_spectrum():
    r = charpoly_identity_check(SpecialUnitary3(np.eye(3)), 2.0, -1.5)
    assert r.passed


def test_charpoly_stack_matches_per_matrix_calls():
    us = haar_sample(33, 12)
    stack = np.stack([u.matrix for u in us])
    rng = np.random.default_rng(34)
    xs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    ys = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    ys[3] = xs[3]  # the coincident branch inside a stack
    rep = charpoly_identity_check(stack, xs, ys)
    assert rep.gamma_residual.shape == rep.generator_residual.shape == (12,)
    for k, u in enumerate(us):
        one = charpoly_identity_check(u, complex(xs[k]), complex(ys[k]))
        assert isinstance(one.gamma_residual, float)
        assert one.gamma_residual == rep.gamma_residual[k]
        assert one.generator_residual == rep.generator_residual[k]
    assert rep.passed
    rep.generator_residual[7] = math.nan
    assert not rep.passed
    with pytest.raises(ValueError):
        charpoly_identity_check(stack, xs[:5], ys[:5])


def test_worst_charpoly_residual_matches_per_matrix_loop():
    # one stacked call draws x and y as the per-matrix loop drew them
    us = haar_sample(35, 30)
    rng = np.random.default_rng(29)
    worst = 0.0
    for u in us[:25]:
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = charpoly_identity_check(u, complex(x), complex(y))
        worst = max(worst, res.gamma_residual, res.generator_residual)
    assert su3.worst_charpoly_residual(us, 29) == worst


def test_charpoly_left_sides_match_field_by_field_oracle():
    # the five trace-pair polynomials, combined as the check combines
    # them, against the coefficient functions summed field by field
    gzz, gzb, gbb, lz, lb = su3._charpoly_parts()
    for seed, (x, y) in zip((36, 37, 38, 39),
                            ((2.0, 3.0j), (0.3 - 1.1j, -0.7 + 0.2j), (1.7, 1.7), (-1.0, 0.5j))):
        u = haar_sample(seed, 1)[0]
        fx, fy = coefficient_function(x), coefficient_function(y)
        ax, bx, ay, by = -3.0 * x**2, 3.0 * x, -3.0 * y**2, 3.0 * y
        v = [su3._eval_compiled(q, u) for q in (gzz, gzb, gbb, lz, lb)]
        left_gamma = ax * ay * v[0] + (ax * by + bx * ay) * v[1] + bx * by * v[2]
        want = vectorfield_gamma_oracle(fx, fy, u)
        assert abs(left_gamma - want) <= 1e-13 * abs(want)
        left_l = ax * v[3] + bx * v[4]
        want_l = sum(su3._derive(moves, su3._derive(moves, fx)).eval(u)
                     for moves in su3._frame_moves())
        assert abs(left_l - want_l) <= 1e-13 * abs(want_l)


def test_frame_table_matches_entry_closed_forms():
    # every ordered pair of the Gamma table, built from the frame moves,
    # against the closed forms of entry_gamma (and their conjugates)
    us = haar_sample(40, 3)
    lz, _ = su3._frame_tables()
    for v in range(18):
        assert lz[v] == ((1 << (8 * v), lz[v][0][1]),)
        assert abs(lz[v][0][1] + 16.0 / 3.0) < 1e-14
    for u in us:
        m = u.matrix
        for v in range(18):
            for w in range(18):
                fv = entry_z(*divmod(v % 9, 3)) if v < 9 else entry_zbar(*divmod(v % 9, 3))
                fw = entry_z(*divmod(w % 9, 3)) if w < 9 else entry_zbar(*divmod(w % 9, 3))
                got = gamma_fields(fv, fw).eval(m)
                (k, l), (r, q) = divmod(v % 9, 3), divmod(w % 9, 3)
                if v < 9 and w < 9:
                    want = entry_gamma(k, l, r, q, m, "zz")
                elif v >= 9 and w >= 9:
                    want = np.conj(entry_gamma(k, l, r, q, m, "zz"))
                elif v < 9:
                    want = entry_gamma(k, l, r, q, m, "zzbar")
                else:
                    want = entry_gamma(r, q, k, l, m, "zzbar")
                assert abs(got - want) < 1e-13, (v, w)


def test_frame_tables_keep_their_bits():
    # the closed-form test above holds the tables to a tolerance; this
    # digest holds their keys, term order and coefficient bits
    digest = hashlib.sha256(repr(su3._frame_tables()).encode()).hexdigest()
    assert digest == "d373e52dfdb55ccb45160d0bd3668fb10120af2655367b065d7266186d80de07"


def test_gamma_fields_degree_limit():
    # a packed key holds exponents to 255; Gamma(f, g) has degree up to
    # deg f + deg g, so a pair past that raises rather than carry
    z, zb = entry_z(0, 0), entry_zbar(1, 1)
    f = entry_const(1.0)
    for _ in range(200):
        f = f * z
    g = entry_const(1.0)
    for _ in range(55):
        g = g * zb
    assert f.degree() + g.degree() == 255
    assert gamma_fields(f, g).degree() == 255
    with pytest.raises(DegreeOverflow):
        gamma_fields(f, g * zb)
    with pytest.raises(DegreeOverflow):
        gamma_fields(f * z, g)


def test_import_builds_no_frame_table():
    # the frame, its moves and the tables are built on first use, never
    # at import
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(su3.__file__))
    code = ("import deltoid, deltoid.su3 as s; "
            "print(*(f.cache_info().currsize for f in "
            "(s._std, s._frame_moves, s._frame_tables, s._charpoly_parts)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0", "0"]


def test_pushforward_named_examples():
    us = haar_sample(41, 30)
    lam = Lambda(4)
    zt = normalized_trace()
    # f = Z: (3/4)(-16/3) Z = -4 Z
    for u in us[:5]:
        zv = np.trace(u.matrix) / 3.0
        got = 0.75 * casimir_apply(zt).eval(u)
        assert abs(got - (-4.0) * zv) < 1e-12
    # f = Z Zbar: both routes give -9 Z Zbar + 1
    f = zt * zt.conj()
    for u in us[:5]:
        zv = np.trace(u.matrix) / 3.0
        got = 0.75 * casimir_apply(f).eval(u)
        assert abs(got - (-9.0 * zv * np.conj(zv) + 1.0)) < 1e-12


def test_pushforward_report():
    us = haar_sample(42, 100)
    rep = pushforward_check([Z, Z * ZBAR, Z * Z * Z], us)
    assert rep.count == 300
    assert rep.max_gamma_residual < 1e-9
    assert rep.max_generator_residual < 1e-9
    assert rep.passed
    with pytest.raises(ValueError):
        pushforward_check([Z], [])


def test_identity_checks_fail_on_nan():
    # Python's max(0.0, nan) is 0.0: a running maximum built with max()
    # would report a NaN residual as zero and pass
    stack = np.stack([u.matrix for u in haar_sample(43, 6)])
    stack[3, 1, 2] = np.nan
    rep = pushforward_check([Z, Z * ZBAR], stack)
    assert math.isnan(rep.max_gamma_residual)
    assert math.isnan(rep.max_generator_residual)
    assert not rep.passed
    assert not CharpolyResiduals(1e-13, math.nan).passed
    assert not CharpolyResiduals(math.nan, 1e-13).passed
    assert CharpolyResiduals(1e-13, 1e-13).passed


def test_charpoly_loops_keep_nan(monkeypatch):
    # one NaN residual among the 25 sampled charpoly checks fails c09
    # and `su3 check`; the 25 are checked in one stacked call
    from deltoid import acceptance, su3
    from deltoid.cli import main

    original = su3.charpoly_identity_check
    calls = []

    def one_nan(u, x, y):
        calls.append(len(x))
        res = original(u, x, y)
        res.generator_residual[1] = math.nan
        return res

    monkeypatch.setattr(su3, "charpoly_identity_check", one_nan)
    passed, summary = acceptance._c09_group_model()
    assert not passed and "charpoly nan" in summary
    assert calls == [25]
    calls.clear()
    assert main(["su3", "check", "--samples", "5", "--out", os.devnull]) == 1
    assert calls == [5]


def _group_report(**change):
    # a passing group-model report, with the given fields replaced
    good = su3.GroupModelReport(
        ricci=3.0, commutator_entries=36, push=su3.PushforwardReport(1, 0.0, 0.0),
        charpoly_residual=0.0, cd=su3.Su3CurvatureReport(1, 0.0, 0j, 1e-8))
    return replaced(good, **change)


def test_group_model_report_gates():
    assert _group_report().passed
    for change in (
        {"ricci": math.nan},
        {"ricci": 3.0 + 2 * su3.RICCI_TOL},
        {"commutator_entries": 35},
        {"push": su3.PushforwardReport(1, math.nan, 0.0)},
        {"push": su3.PushforwardReport(1, 0.0, su3.IDENTITY_TOL)},
        {"charpoly_residual": math.nan},
        {"charpoly_residual": su3.IDENTITY_TOL},
        {"cd": su3.Su3CurvatureReport(1, math.nan, 0j, 1e-8)},
    ):
        assert not _group_report(**change).passed, change


def test_nan_ricci_fails_every_group_verdict(monkeypatch):
    # abs(nan - 3) > RICCI_TOL is False, so a gate written that way lets a
    # NaN Ricci constant through; the strict gate of the report fails it
    from deltoid import acceptance
    from deltoid.cli import main

    monkeypatch.setattr(su3, "ricci_constant", lambda: math.nan)
    assert not su3.group_model_check(haar_sample(4, 5), [Z], 5, 4).passed
    passed, summary = acceptance._c09_group_model()
    assert not passed and summary.startswith("ricci nan")
    assert main(["su3", "check", "--samples", "5", "--out", os.devnull]) == 1


def test_c09_and_su3_check_read_one_verdict(monkeypatch):
    # c09 and `su3 check` take their group verdict from group_model_check
    # alone: a report that passes passes both, and one that fails fails both
    from deltoid import acceptance
    from deltoid.cli import main

    calls = []
    for report in (_group_report(), _group_report(commutator_entries=35)):
        def fake(*args, report=report):
            calls.append(args)
            return report

        monkeypatch.setattr(su3, "group_model_check", fake)
        assert acceptance._c09_group_model()[0] is report.passed
        code = main(["su3", "check", "--samples", "5", "--out", os.devnull])
        assert code == (0 if report.passed else 1)
    assert len(calls) == 4


def test_trace_moment_check_reads_the_haar_draws():
    rep = su3.trace_moment_check(3, 50)
    tr = np.array([np.trace(u.matrix) for u in haar_sample(3, 50)]) / 3.0
    assert rep.mean == pytest.approx(float((np.abs(tr) ** 2).mean()), rel=1e-14)
    assert rep.stderr == su3.TRACE_MOMENT_SD / math.sqrt(50)


def test_trace_moment_report_gates():
    se = 0.01
    assert su3.TraceMomentReport(1.0 / 9.0 + 2.99 * se, se).passed
    assert su3.TraceMomentReport(1.0 / 9.0 - 2.99 * se, se).passed
    assert not su3.TraceMomentReport(1.0 / 9.0 + 3.01 * se, se).passed
    assert not su3.TraceMomentReport(math.nan, se).passed


def test_c05_and_su3_check_read_one_trace_verdict(monkeypatch):
    # c05 and `su3 check` take the Haar trace-moment verdict from
    # trace_moment_check alone: both pass or both fail with its report
    from deltoid import acceptance
    from deltoid.cli import main

    calls = []
    for report in (su3.TraceMomentReport(1.0 / 9.0, 0.01),
                   su3.TraceMomentReport(0.2, 0.01)):
        def fake(seed, n, report=report):
            calls.append((seed, n))
            return report

        monkeypatch.setattr(su3, "trace_moment_check", fake)
        assert acceptance._c05_moments_and_haar()[0] is report.passed
        code = main(["su3", "check", "--samples", "5", "--out", os.devnull])
        assert code == (0 if report.passed else 1)
    assert calls == [(17, 100000), (0, 5)] * 2


def test_c09_summary_names_the_commutator_count(monkeypatch):
    # a report that fails only on the commutator table fails c09, and the
    # summary shows the count that failed it
    from deltoid import acceptance

    report = _group_report(commutator_entries=35)
    monkeypatch.setattr(su3, "group_model_check", lambda *args: report)
    passed, summary = acceptance._c09_group_model()
    assert not passed and "; commutators 35;" in summary


def test_curvature_dimension_3_8():
    rep = curvature_dimension_check(trials=8, samples=40, seed=5)
    assert rep.pairs == 320
    assert rep.min_margin >= -1e-8
    assert rep.passed


@pytest.mark.parametrize("trials", [0, -2])
def test_curvature_dimension_refuses_no_trials(trials):
    with pytest.raises(ValueError, match="need trials >= 1"):
        curvature_dimension_check(trials=trials, samples=3)


def test_curvature_dimension_optimal_at_identity():
    # the real trace function at U = I sits exactly on the CD(3,8) boundary
    zt = normalized_trace()
    f = zt + zt.conj()
    g2, gff, lf = su3._gamma2_parts(f)
    ident = np.eye(3)
    margin8 = g2.eval(ident).real - 3.0 * gff.eval(ident).real - lf.eval(ident).real ** 2 / 8.0
    assert abs(margin8) < 1e-12
    margin7 = g2.eval(ident).real - 3.0 * gff.eval(ident).real - lf.eval(ident).real ** 2 / 7.0
    assert margin7 < -2.0


def test_ricci_guard_raises_on_broken_frame(monkeypatch):
    import deltoid.su3 as su3mod

    class Broken:
        # drop the diagonal family: [R12, S12] then escapes the span
        matrices = LieBasis().matrices[:6]

    monkeypatch.setattr(su3mod, "_std", Broken)
    with pytest.raises(NonConstantRicci):
        ricci_constant()


# ---------------------------------------------------------------------------
# reference: the tuple-keyed entry algebra with term-by-term evaluation


def _mat(u):
    return u.matrix if isinstance(u, SpecialUnitary3) else np.asarray(u, dtype=complex)


class TupleEntryPoly:
    """Entry polynomial keyed by 18-long exponent tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = complex(c)
                if c != 0:
                    clean[e] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0j) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = TupleEntryPoly()
        res.terms = out
        return res

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TupleEntryPoly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0j) + c1 * c2
        return TupleEntryPoly(out)

    def scale(self, s):
        s = complex(s)
        res = TupleEntryPoly()
        res.terms = {e: c * s for e, c in self.terms.items()} if s != 0 else {}
        return res

    def diff(self, var):
        out = {}
        for e, c in self.terms.items():
            p = e[var]
            if p:
                e2 = list(e)
                e2[var] = p - 1
                out[tuple(e2)] = c * p
        res = TupleEntryPoly()
        res.terms = out
        return res

    def conj(self):
        out = {}
        for e, c in self.terms.items():
            out[e[9:] + e[:9]] = c.conjugate()
        res = TupleEntryPoly()
        res.terms = out
        return res

    def eval(self, u):
        m = _mat(u)
        vals = np.concatenate([m.ravel(), m.conj().ravel()])
        total = 0j
        for e, c in self.terms.items():
            t = c
            for v, p in enumerate(e):
                if p:
                    t *= vals[v] ** p
            total += t
        return total


def tuple_var(v):
    e = [0] * 18
    e[v] = 1
    return TupleEntryPoly({tuple(e): 1.0})


def tuple_field_apply(x, f):
    out = TupleEntryPoly()
    for k in range(3):
        for l in range(3):
            df = f.diff(3 * k + l)
            if df.terms:
                vel = TupleEntryPoly()
                for m in range(3):
                    if x[m, l] != 0:
                        vel = vel + tuple_var(3 * k + m).scale(x[m, l])
                out = out + df * vel
            dfb = f.diff(9 + 3 * k + l)
            if dfb.terms:
                vel = TupleEntryPoly()
                for m in range(3):
                    if x[m, l] != 0:
                        vel = vel + tuple_var(9 + 3 * k + m).scale(np.conj(x[m, l]))
                out = out + dfb * vel
    return out


def tuple_gamma_fields(f, g):
    out = TupleEntryPoly()
    for _, x in LieBasis():
        out = out + tuple_field_apply(x, f) * tuple_field_apply(x, g)
    return out


def tuple_casimir_apply(f):
    out = TupleEntryPoly()
    for _, x in LieBasis():
        out = out + tuple_field_apply(x, tuple_field_apply(x, f))
    return out


def tuple_curvature_dimension(trials, samples, seed, rho=3.0, n=8.0):
    """The per-matrix loop: (pairs, min margin, trace at the first minimum)."""
    rng = np.random.default_rng(seed)
    us = haar_sample(seed + 1, samples)
    worst = np.inf
    worst_tr = None
    pairs = 0
    for _ in range(trials):
        g = TupleEntryPoly()
        for _ in range(3):
            k, l = rng.integers(0, 3, 2)
            co = complex(rng.standard_normal(), rng.standard_normal())
            g = g + tuple_var(3 * int(k) + int(l)).scale(co)
        k1, l1, k2, l2 = (int(t) for t in rng.integers(0, 3, 4))
        g = g + tuple_var(3 * k1 + l1) * tuple_var(3 * k2 + l2)
        f = g + g.conj()
        gff = tuple_gamma_fields(f, f)
        lf = tuple_casimir_apply(f)
        g2 = tuple_casimir_apply(gff).scale(0.5) - tuple_gamma_fields(f, lf)
        for u in us:
            m = u.matrix
            margin = (
                g2.eval(m).real
                - rho * gff.eval(m).real
                - lf.eval(m).real ** 2 / n
            )
            pairs += 1
            if margin < worst:
                worst = margin
                worst_tr = np.trace(m) / 3.0
    return pairs, float(worst), worst_tr


def _pack(e):
    return sum(p << (8 * v) for v, p in enumerate(e))


def _random_pair(rng, nterms, max_vars=3, max_exp=3):
    """One random polynomial in both representations."""
    terms = {}
    for _ in range(nterms):
        e = [0] * 18
        for v in rng.choice(18, size=rng.integers(0, max_vars + 1), replace=False):
            e[v] = int(rng.integers(1, max_exp + 1))
        terms[tuple(e)] = complex(rng.standard_normal(), rng.standard_normal())
    return (EntryPoly({_pack(e): c for e, c in terms.items()}),
            TupleEntryPoly(terms))


def _mass(p):
    return sum(abs(c) for c in p.terms.values())


def assert_same_poly(new, ref, rel=1e-13):
    got = {tuple(k.to_bytes(18, "little")): c for k, c in new.terms.items()}
    tol = rel * _mass(ref)
    for e in set(got) | set(ref.terms):
        assert abs(got.get(e, 0j) - ref.terms.get(e, 0j)) <= tol, e


def test_packed_algebra_matches_tuple_reference():
    rng = np.random.default_rng(61)
    frame = LieBasis().matrices
    for _ in range(12):
        a, ra = _random_pair(rng, int(rng.integers(1, 12)))
        b, rb = _random_pair(rng, int(rng.integers(1, 12)))
        assert_same_poly(a * b, ra * rb)
        assert_same_poly(a + b, ra + rb)
        assert_same_poly(a.conj(), ra.conj())
        for v in range(18):
            assert_same_poly(a.diff(v), ra.diff(v))
        for x in frame:
            assert_same_poly(field_apply(x, a), tuple_field_apply(x, ra))
        assert_same_poly(gamma_fields(a, b), tuple_gamma_fields(ra, rb))
        assert_same_poly(casimir_apply(a), tuple_casimir_apply(ra))
    # a field off the frame, with every entry nonzero
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_same_poly(field_apply(x, a), tuple_field_apply(x, ra))


def test_compiled_eval_matches_term_by_term():
    rng = np.random.default_rng(62)
    us = haar_sample(63, 50)
    stack = np.stack([u.matrix for u in us])
    for nterms, max_exp in [(1, 1), (8, 2), (40, 4), (200, 3)]:
        p, ref = _random_pair(rng, nterms, max_vars=4, max_exp=max_exp)
        got = p.eval(stack)
        want = np.array([ref.eval(m) for m in stack])
        assert got.shape == (50,)
        assert np.abs(got - want).max() <= 1e-13 * _mass(ref)
        # a matrix alone has the bits it has inside a stack
        assert np.array_equal(np.array([p.eval(u) for u in us]), got)
        assert np.array_equal(p.eval(us), got)
    assert EntryPoly().eval(stack[0]) == 0
    assert np.array_equal(entry_const(2.5).eval(stack), np.full(50, 2.5 + 0j))
    with pytest.raises(ValueError):
        entry_z(0, 0).eval(np.eye(2))


@pytest.mark.parametrize("seed", [5, 123, 777])
def test_curvature_dimension_matches_per_matrix_loop(seed):
    rep = curvature_dimension_check(trials=8, samples=40, seed=seed)
    pairs, margin, trace = tuple_curvature_dimension(8, 40, seed)
    assert rep.pairs == pairs
    assert abs(rep.min_margin - margin) <= 1e-12 * abs(margin)
    assert rep.worst_trace == trace


def test_degree_overflow_raises():
    z = entry_z(2, 2)
    p = z
    for _ in range(254):
        p = p * z
    assert p.degree() == 255
    assert p.terms == {255 << (8 * 8): 1.0}
    with pytest.raises(DegreeOverflow):
        p * z
    with pytest.raises(DegreeOverflow):
        p * (entry_const(1.0) + entry_zbar(0, 0))
    # a constant factor adds no degree
    assert (p * entry_const(2.0)).terms == {255 << (8 * 8): 2.0}
