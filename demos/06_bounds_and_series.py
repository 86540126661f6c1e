"""Spectral growth bounds and the series-side estimate.

Three related quantities: how fast a single eigenpolynomial's sup-norm
grows with its eigenvalue, how fast the sup of unit combinations within
a degree space grows with the degree, and the normalized Gaussian-type
series whose stability encodes the same dimension count.
"""

import math

from deltoid import (
    Lambda,
    hk_bound_check,
    kernel_bound_check,
    sobolev_series_check,
    supnorm_bound_check,
)
from deltoid.spectral import _kernel_check_grid

print("= per-mode sup-norm growth, lambda = 4 =")
rep = supnorm_bound_check(Lambda(4), 30)
print(f"fitted exponent {rep.exponent:.3f} vs cap lambda/2 = {rep.target}")
print(f"largest constant ||P||_inf / (||P||_2 mu^(lambda/2)) = {rep.constant:.4f}")

print()
print("= degree-space unit combinations =")
rep = hk_bound_check(Lambda(4), 20, seed=0)
print(f"fitted exponent {rep.exponent:.3f} vs cap lambda + 1/2 = {rep.target}")

print()
print("= normalized series stability =")
rep = sobolev_series_check(4.5, 0.75)
print(f"t^(p+1/2) * sum k^(2p) e^(-2atk^2): max/min = {rep.residual:.4f}")
limit = math.gamma(5.0) / (2.0 * 1.5**5)
print(f"plateau {rep.constant:.5f} vs Gaussian-integral limit {limit:.5f}")
naive = rep.details["operator_exponent_normalized"]
print(f"(with the operator-norm exponent (p+1)/2 instead, the same data"
      f" spreads over {max(naive) / min(naive):.1e})")

print()
print("= multiplier kernels =")
grid = _kernel_check_grid()
ke = kernel_bound_check(lambda k: math.exp(-k), Lambda(4), 12, grid)
print(f"nu = e^-k : kernel sup {ke.sup_abs:.3f} <= series {ke.series_value:.1f}")
kd = kernel_bound_check([1.0], Lambda(4), 12, grid)
print(f"nu = delta_k1: kernel sup {kd.sup_abs:.3f} vs series {kd.series_value:.1f}"
      f"   (the lone projector kernel peaks at 2(2 lambda + 1) = 18 on a cusp)")
