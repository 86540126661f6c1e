"""Verification workbench for the deltoid diffusion family.

Layers, bottom to top:

  exact      exact Gaussian-rational polynomials in (Z, Zbar)
  operator   carre du champ, generator, Gamma_2, boundary identities
  eigen      eigenpolynomials, moments, inner products, degree spaces
  geometry   triangle coordinates, density, sampling, the map to the deltoid
  cdcheck    curvature-dimension tensors, factorizations, scans
  su3        the group-side model: Casimir calculus and the trace pushforward
  spectral   heat-kernel diagonals, sup-norm and Sobolev bound checks
  cli        thin command-line front end over the above

Exact claims are tested as polynomial identities; floating point only ever
appears at evaluation time.
"""

from .exact import BivarPoly, CRat, Rat, as_rat, Z, ZBAR
from .operator import (
    HermitianTensorField,
    Lambda,
    boundary_poly,
    gamma,
    gamma2,
    generator,
)
from .eigen import (
    EigenPolynomial,
    EigenvalueCollision,
    MomentRangeExceeded,
    MomentTable,
    NonpositiveNorm,
    RecurrenceBreakdown,
    eigenvalue,
    inner_product,
    moments,
    solve_eigenpoly,
)
from .geometry import (
    DeltoidPoint,
    TrianglePoint,
    sample_interior,
    triangle_to_deltoid,
    w_density,
    zk,
)
from .cdcheck import (
    DegenerateDenominator,
    IdentityMismatch,
    deltoid_grid,
    divergence_probe,
    factorization_check,
    factorization_sweep,
    gamma2_sample_check,
    psd_check,
    ray_nonneg_on_unit,
    scan_inf_b,
    tensor_residual,
    triangle_b,
)
from .su3 import (
    DegreeOverflow,
    EntryPoly,
    LieBasis,
    NonConstantRicci,
    SpecialUnitary3,
    charpoly_identity_check,
    commutator_table,
    curvature_dimension_check,
    group_model_check,
    haar_sample,
    normalized_trace,
    pushforward_check,
    ricci_constant,
)
from .spectral import (
    FitReport,
    HeatKernelTruncation,
    KernelReport,
    TruncationInsufficient,
    heat_diag,
    hk_bound_check,
    kernel_bound_check,
    sobolev_series_check,
    supnorm_bound_check,
    ultracontractivity_fit,
)
from .acceptance import CriterionResult, run_all, run_criterion

__all__ = [
    "BivarPoly",
    "CRat",
    "Rat",
    "as_rat",
    "Z",
    "ZBAR",
    "HermitianTensorField",
    "Lambda",
    "boundary_poly",
    "gamma",
    "gamma2",
    "generator",
    "EigenPolynomial",
    "EigenvalueCollision",
    "MomentRangeExceeded",
    "MomentTable",
    "NonpositiveNorm",
    "RecurrenceBreakdown",
    "eigenvalue",
    "inner_product",
    "moments",
    "solve_eigenpoly",
    "DeltoidPoint",
    "TrianglePoint",
    "sample_interior",
    "triangle_to_deltoid",
    "w_density",
    "zk",
    "DegenerateDenominator",
    "IdentityMismatch",
    "deltoid_grid",
    "divergence_probe",
    "factorization_check",
    "factorization_sweep",
    "gamma2_sample_check",
    "psd_check",
    "ray_nonneg_on_unit",
    "scan_inf_b",
    "tensor_residual",
    "triangle_b",
    "DegreeOverflow",
    "EntryPoly",
    "LieBasis",
    "NonConstantRicci",
    "SpecialUnitary3",
    "charpoly_identity_check",
    "commutator_table",
    "curvature_dimension_check",
    "group_model_check",
    "haar_sample",
    "normalized_trace",
    "pushforward_check",
    "ricci_constant",
    "FitReport",
    "HeatKernelTruncation",
    "KernelReport",
    "TruncationInsufficient",
    "heat_diag",
    "hk_bound_check",
    "kernel_bound_check",
    "sobolev_series_check",
    "supnorm_bound_check",
    "ultracontractivity_fit",
    "CriterionResult",
    "run_all",
    "run_criterion",
]

__version__ = "0.1.0"
