import cmath
import math
import random

import numpy as np
import pytest

from deltoid import geometry
from deltoid.geometry import (
    CENTER,
    DeltoidPoint,
    TrianglePoint,
    V0,
    V1,
    V2,
    plane_to_deltoid,
    sample_interior,
    triangle_to_deltoid,
    w_density,
    zk,
)
from deltoid.operator import G11, G12, G22
from oracles import boundary_points, interior_lattice, pushforward_gamma


def rand_points(n, seed=0):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        b = sorted([rng.random(), rng.random()])
        b0, b1, b2 = b[0], b[1] - b[0], 1.0 - b[1]
        p = TrianglePoint(
            b0 * V0[0] + b1 * V1[0] + b2 * V2[0],
            b0 * V0[1] + b1 * V1[1] + b2 * V2[1],
        )
        if w_density(p) > 1e-6:
            pts.append(p)
    return pts


def test_zk_origin():
    assert zk(TrianglePoint(0.0, 0.0)) == (1.0, 1.0, 1.0)


def test_zk_unit_product():
    for p in rand_points(50, seed=1):
        z1, z2, z3 = zk(p)
        for z in (z1, z2, z3):
            assert abs(abs(z) - 1.0) < 1e-12
        assert abs(z1 * z2 * z3 - 1.0) < 1e-12


def test_period_lattice():
    # generators of the exact translation lattice of (z1, z2, z3)
    v1 = (2.0 * math.pi, 2.0 * math.pi / math.sqrt(3.0))
    v2 = (2.0 * math.pi, -2.0 * math.pi / math.sqrt(3.0))
    for p in rand_points(20, seed=2):
        base = zk(p)
        for v in (v1, v2, (v1[0] + v2[0], v1[1] + v2[1])):
            shifted = zk(TrianglePoint(p.x + v[0], p.y + v[1]))
            for a, b in zip(base, shifted):
                assert abs(a - b) < 1e-9


def test_w_density_values():
    assert abs(w_density(TrianglePoint(*CENTER)) - 27.0) < 1e-12
    for p in boundary_points(25):
        assert abs(w_density(p)) < 1e-18
    for p in rand_points(50, seed=3):
        assert w_density(p) > 0


def test_w_equals_108_P():
    for p in rand_points(100, seed=4):
        w = w_density(p)
        d = triangle_to_deltoid(p)
        ref = 108.0 * d.membership_residual()
        assert abs(w - ref) <= 1e-10 * max(1.0, abs(ref))


def test_map_special_points():
    assert abs(triangle_to_deltoid(TrianglePoint(0.0, 0.0)).Z - 1.0) < 1e-15
    assert abs(triangle_to_deltoid(TrianglePoint(*CENTER)).Z) < 1e-14
    # the other two vertices land on the other two cusps
    w = cmath.exp(2j * math.pi / 3)
    zs = sorted(
        (
            triangle_to_deltoid(TrianglePoint(*V1)).Z,
            triangle_to_deltoid(TrianglePoint(*V2)).Z,
        ),
        key=lambda z: z.imag,
    )
    assert abs(zs[0] - w.conjugate()) < 1e-12
    assert abs(zs[1] - w) < 1e-12


def test_membership_polar_formula():
    # residual agrees with the polar inequality form
    for p in rand_points(30, seed=5):
        d = triangle_to_deltoid(p)
        r, t = abs(d.Z), cmath.phase(d.Z)
        polar = 0.25 * (1 - r * r) ** 2 - (
            r * r + r ** 4 - 2 * r ** 3 * math.cos(3 * t)
        )
        assert abs(d.membership_residual() - polar) < 1e-12


def test_interior_maps_interior():
    for p in rand_points(50, seed=6):
        assert triangle_to_deltoid(p).membership_residual() > 0


def test_boundary_maps_to_curve():
    for p in boundary_points(40):
        d = triangle_to_deltoid(p)
        assert abs(d.membership_residual()) < 1e-9


def test_batch_map_matches_point_map(monkeypatch):
    pts = rand_points(30, seed=8) + boundary_points(5) + interior_lattice(12)
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    want = np.array([triangle_to_deltoid(p).Z for p in pts], dtype=complex)
    assert plane_to_deltoid(x, y).tobytes() == want.tobytes()
    # with the tolerance above every residual, both reject the first point alike
    monkeypatch.setattr(geometry, "_CLOSED_TOL", 10.0)
    with pytest.raises(ArithmeticError) as one:
        triangle_to_deltoid(pts[0])
    with pytest.raises(ArithmeticError) as many:
        plane_to_deltoid(x, y)
    assert str(many.value) == str(one.value)


# P(nan) is nan, which no "P < tol" test catches: both maps refuse it
def test_point_map_rejects_a_nan_image():
    with pytest.raises(ArithmeticError, match="left the closed domain"):
        triangle_to_deltoid(TrianglePoint(math.nan, 0.0))


def test_batch_map_rejects_a_nan_element():
    with pytest.raises(ArithmeticError, match=r"left the closed domain: .*nan"):
        plane_to_deltoid(np.array([0.1, math.nan]), np.array([0.1, 0.0]))


def test_pushforward_matches_gamma():
    for p in rand_points(60, seed=7):
        g11, g12, g22 = pushforward_gamma(p)
        zpt = triangle_to_deltoid(p).Z
        assert abs(g11 - G11.eval(zpt)) < 1e-8
        assert abs(g12 - G12.eval(zpt).real) < 1e-8
        assert abs(g22 - G22.eval(zpt)) < 1e-8


def test_pushforward_matches_finite_differences():
    h = 1e-6

    def Zmap(x, y):
        return triangle_to_deltoid(TrianglePoint(x, y)).Z

    for p in rand_points(5, seed=8):
        zx = (Zmap(p.x + h, p.y) - Zmap(p.x - h, p.y)) / (2 * h)
        zy = (Zmap(p.x, p.y + h) - Zmap(p.x, p.y - h)) / (2 * h)
        g11, g12, _ = pushforward_gamma(p)
        assert abs(zx * zx + zy * zy - g11) < 1e-8
        assert abs(abs(zx) ** 2 + abs(zy) ** 2 - g12) < 1e-8


def test_sample_interior_basics():
    assert sample_interior(1) == [TrianglePoint(*CENTER)]
    a = sample_interior(200, seed=11)
    b = sample_interior(200, seed=11)
    assert a == b
    c = sample_interior(200, seed=12)
    assert a != c
    for p in a:
        assert w_density(p) > 1e-12
    with pytest.raises(ValueError):
        sample_interior(0)
    for n, mode in [(49, "hexagonal"), (49, "grid"), (1, "grid")]:
        with pytest.raises(ValueError, match="unknown mode"):
            sample_interior(n, mode=mode)


def test_interior_lattice():
    pts = interior_lattice(20)
    assert len(pts) == (20 - 1) * (20 - 2) // 2
    for p in pts:
        assert w_density(p) > 0
    # medians present: some points map onto the real-axis cusp ray
    on_ray = [p for p in pts if abs(triangle_to_deltoid(p).Z.imag) < 1e-9]
    assert len(on_ray) >= 3


def test_deltoid_point_interior_flags():
    assert DeltoidPoint(0j).membership_residual() > 0
    assert DeltoidPoint(1.2 + 0j).membership_residual() < 0
    assert abs(DeltoidPoint(1.0 + 0j).membership_residual()) <= 1e-9


def test_deltoid_point_far_outside_is_minus_inf():
    # past |Z| = 2 the residual is -inf, not an OverflowError of P
    for z in (complex(1e200, 0), complex(0, -1e200), complex(1e80, 1), 2.001 + 0j):
        assert DeltoidPoint(z).membership_residual() == -math.inf
    # up to |Z| = 2 it is P's finite value, negative outside the curve
    assert -math.inf < DeltoidPoint(2.0 + 0j).membership_residual() < 0
