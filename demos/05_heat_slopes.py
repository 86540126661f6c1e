"""Ultracontractivity read off the truncated heat diagonal.

The sup of p_t(x, x) should decay like t^(-lambda) for small t; fitting
the log-log slope over t in [0.02, 0.2] recovers the heat dimension.
For lambda >= 1 that sup sits at a cusp, where every mode weight
P(1)^2 / ||P||^2 has a closed form, so the fit is as good at degree 40 as
at 25 and reads no mode.
"""

import numpy as np

from deltoid import HeatKernelTruncation, Lambda, heat_diag, ultracontractivity_fit
from deltoid.spectral import heat_cusp_sups

print("= lambda = 4, truncation degree 40 =")
tr4 = HeatKernelTruncation(Lambda(4), 40)
rep4 = ultracontractivity_fit(Lambda(4), (0.02, 0.2), tr4)
print(f"fitted slope {rep4.exponent:.4f} (target {rep4.target}),"
      f" residual {rep4.residual:.3f}")

print()
print("= lambda = 1 =")
# the fit reads only a truncation's degree; with none it fits degree 40
tr1 = HeatKernelTruncation(Lambda(1), 25)
for deg, trunc in ((25, tr1), (40, None)):
    rep1 = ultracontractivity_fit(Lambda(1), (0.02, 0.2), trunc)
    print(f"degree {deg}: slope {rep1.exponent:.6f} (target {rep1.target})")

print()
print("= the diagonal itself =")
for t in (0.05, 0.2, 1.0, 3.0):
    vals = [heat_diag(z, t, tr4) for z in (0j, -1 / 3 + 0j, 0.999 + 0j)]
    print(f"t = {t:4g}: center {vals[0]:10.4f}  arc-mid {vals[1]:10.4f}"
          f"  near-cusp {vals[2]:12.4f}")
# as t grows everything flattens to the stationary value 1

print()
print("= (t, sup) table, the same thing `deltoid heat trace` emits =")
# the sup is the diagonal at a cusp, from the closed cusp weights of the
# modes of degree <= 40; no mode is built for it
ts = np.exp(np.linspace(np.log(0.02), np.log(0.2), 6))
for t, sup in heat_cusp_sups(Lambda(4), 40, ts):
    print(f"{t:.4f}, {sup:.4f}")
