"""Triangle side of the picture: coordinates, density, and the cubic map.

Three unit complex numbers z_k(x, y) = exp(i E_k.(x, y)) with direction
vectors summing to zero, so z1 z2 z3 = 1 identically.  Their mean Z is the
map onto the curved domain; the squared Vandermonde

    W = -(z1 - z2)^2 (z2 - z3)^2 (z3 - z1)^2

is real and nonnegative (the Vandermonde is purely imaginary on this
configuration) and vanishes exactly on a line arrangement.  The open cell
containing the centroid is the fundamental triangle; its vertices are the
pre-images of the three cusps.  W and the domain polynomial P are linked by
W = 108 P(Z, Zbar), which is how boundary statements transfer between the
two pictures.
"""

import cmath
import functools
import math
import random

from .exact import PolyTable, np, record
from .operator import boundary_poly

ROOT3 = math.sqrt(3.0)

# direction vectors; rows sum to zero
E = (
    (1.0, 0.0),
    (-0.5, ROOT3 / 2.0),
    (-0.5, -ROOT3 / 2.0),
)

# fundamental triangle: the cell of {W > 0} whose centroid maps to Z = 0
V0 = (0.0, 0.0)
V1 = (4.0 * math.pi / 3.0, 0.0)
V2 = (2.0 * math.pi / 3.0, 2.0 * math.pi / ROOT3)
CENTER = (
    (V0[0] + V1[0] + V2[0]) / 3.0,
    (V0[1] + V1[1] + V2[1]) / 3.0,
)


@functools.cache
def _p_table():
    # P's table, built on first use so that an import loads no numpy
    return PolyTable([boundary_poly().complex_coeffs()])


@record
class TrianglePoint:
    x: float
    y: float


@record
class DeltoidPoint:
    Z: complex

    def membership_residual(self) -> float:
        """P(Z, Zbar): positive inside, zero on the curve, negative outside.

        Equals 1/4 (1 - rho^2)^2 - (rho^2 + rho^4 - 2 rho^3 cos 3 theta).
        The closed domain lies in the unit disk, so a point with |Z| > 2
        is -inf without evaluating P, which overflows for a large Z.
        """
        if abs(self.Z) > 2:
            return -math.inf
        return float(_p_table().values(self.Z)[0].real)


def zk(point: TrianglePoint):
    """The three unit complex coordinates at a plane point."""
    x, y = point.x, point.y
    return tuple(cmath.exp(1j * (ex * x + ey * y)) for ex, ey in E)


def w_density(point: TrianglePoint) -> float:
    """-(z1-z2)^2 (z2-z3)^2 (z3-z1)^2, real and >= 0 up to rounding."""
    z1, z2, z3 = zk(point)
    v = (z1 - z2) * (z2 - z3) * (z3 - z1)
    w = -v * v
    if abs(w.imag) > 1e-12 * max(1.0, abs(w.real)):
        raise ArithmeticError(f"density not real: {w}")
    return w.real


# a mapped point with P below this, or with P not a number, has left the
# closed domain: the map is exact, so only rounding or a non-finite input
# can put an image outside
_CLOSED_TOL = -1e-10


def _left_domain(d: DeltoidPoint) -> ArithmeticError:
    return ArithmeticError(f"image left the closed domain: {d}")


def triangle_to_deltoid(point: TrianglePoint) -> DeltoidPoint:
    z1, z2, z3 = zk(point)
    d = DeltoidPoint((z1 + z2 + z3) / 3.0)
    if not d.membership_residual() >= _CLOSED_TOL:
        raise _left_domain(d)
    return d


def plane_to_deltoid(x, y):
    """The map on arrays: Z at each plane point (x[k], y[k]), as complex.

    It repeats triangle_to_deltoid's arithmetic: z_k is cos + i sin of
    E_k.(x, y), which is what cmath.exp gives on the imaginary axis, and
    the real and imaginary parts are summed and divided by 3 apart.  So
    where numpy's cos and sin round as the C library's do (they did on
    x86-64 with numpy 2.4.6), each element has that map's bits.  Raises
    the same ArithmeticError for the first image that leaves the closed
    domain.
    """
    angles = [ex * x + ey * y for ex, ey in E]
    zs = np.empty(np.shape(x), dtype=complex)
    zs.real = (np.cos(angles[0]) + np.cos(angles[1]) + np.cos(angles[2])) / 3.0
    zs.imag = (np.sin(angles[0]) + np.sin(angles[1]) + np.sin(angles[2])) / 3.0
    bad = np.flatnonzero(~(_p_table().values(zs)[0].real >= _CLOSED_TOL))
    if bad.size:
        raise _left_domain(DeltoidPoint(complex(zs[bad[0]])))
    return zs


def _bary_xy(b0, b1, b2):
    """Plane (x, y) of barycentric weights; floats or numpy arrays."""
    return (b0 * V0[0] + b1 * V1[0] + b2 * V2[0],
            b0 * V0[1] + b1 * V1[1] + b2 * V2[1])


def _bary_to_plane(b0, b1, b2) -> TrianglePoint:
    return TrianglePoint(*_bary_xy(b0, b1, b2))


def _square_to_triangle(u: float, v: float) -> TrianglePoint:
    # area-preserving map of the open unit square onto the open triangle
    r = math.sqrt(u)
    return _bary_to_plane(1.0 - r, r * (1.0 - v), r * v)


# plastic-constant Kronecker directions, a decent 2D low-discrepancy pair
_ALPHA1 = 0.7548776662466927
_ALPHA2 = 0.5698402909980532

_W_FLOOR = 1e-12


def sample_interior(n: int, mode: str = "low-discrepancy", seed: int = 0):
    """Deterministic strictly-interior plane points, n of them.

    The one mode, low-discrepancy, walks a seeded Kronecker sequence; any
    other mode is a ValueError.  Points with density under the floor get
    pulled toward the centroid.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if mode != "low-discrepancy":
        raise ValueError(f"unknown mode {mode!r}")
    if n == 1:
        return [TrianglePoint(*CENTER)]
    rng = random.Random(seed)
    s1, s2 = rng.random(), rng.random()
    pts = []
    for i in range(n):
        u = (s1 + (i + 1) * _ALPHA1) % 1.0
        v = (s2 + (i + 1) * _ALPHA2) % 1.0
        pts.append(_square_to_triangle(u, v))
    out = []
    for p in pts:
        guard = 0
        while w_density(p) < _W_FLOOR:
            p = TrianglePoint(
                CENTER[0] + 0.9 * (p.x - CENTER[0]),
                CENTER[1] + 0.9 * (p.y - CENTER[1]),
            )
            guard += 1
            if guard > 200:
                raise ArithmeticError("could not pull sample off the boundary")
        out.append(p)
    return out
