"""The group-side construction: a nine-field frame on SU(3) whose
Casimir pushes forward, through the normalized trace, onto the deltoid
operator at lambda = 4.
"""

import numpy as np

from deltoid import (
    LieBasis,
    Z,
    ZBAR,
    commutator_table,
    group_model_check,
    haar_sample,
)

print("= frame structure =")
basis = LieBasis()
cas = sum(x @ x for _, x in basis)
print("fields:", ", ".join(basis.names))
print("Casimir sum of squares = -16/3 I:",
      np.abs(cas + (16 / 3) * np.eye(3)).max() < 1e-13)

us = haar_sample(11, 60)
rep = group_model_check(us, [Z, ZBAR, Z * ZBAR, Z**2], 5, 7)
print("Ricci proportionality constant:", rep.ricci)
nonzero = sum(1 for c, nm in commutator_table().values() if nm is not None)
print(f"commutator table: {rep.commutator_entries} pairs, {nonzero} nonvanishing")

print()
print("= pushforward through the normalized trace =")
print(f"{rep.push.count} comparisons: gamma residual {rep.push.max_gamma_residual:.2e},"
      f" generator residual {rep.push.max_generator_residual:.2e}")

print()
print("= characteristic-polynomial identities =")
print(f"worst residual over 25 samples: {rep.charpoly_residual:.2e}")

print()
print("= Haar sanity: moments of the normalized trace =")
big = haar_sample(2, 20000)
tr = np.array([np.trace(u.matrix) / 3.0 for u in big])
print(f"E tr/3        = {tr.mean():.5f}          (target 0)")
print(f"E |tr/3|^2    = {np.mean(np.abs(tr) ** 2):.5f}   (target 1/9 = {1/9:.5f})")
print(f"E (tr/3)^3    = {np.mean(tr ** 3).real:.5f}   (target 1/27 = {1/27:.5f})")

print()
print("= curvature of the group model =")
print(f"CD(3, 8) sampling: {rep.cd.pairs} pairs, min margin {rep.cd.min_margin:.3f},"
      f" passed {rep.cd.passed}")
print("every group-model claim holds:", rep.passed)
