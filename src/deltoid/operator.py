"""Carre du champ calculus for the deltoid diffusion family.

Everything in this module is derived through the diffusion chain rule from
five generating relations on the coordinate pair (Z, Zbar):

    G(Z, Z)       = Zbar - Z^2
    G(Zbar, Zbar) = Z - Zbar^2
    G(Z, Zbar)    = (1 - Z*Zbar) / 2
    L(Z)          = -lambda * Z
    L(Zbar)       = -lambda * Zbar

For polynomial f, g the chain rule gives

    G(f, g) = fZ gZ G(Z,Z) + (fZ gZb + fZb gZ) G(Z,Zbar) + fZb gZb G(Zbar,Zbar)
    L(f)    = -lam Z fZ - lam Zbar fZb
              + fZZ G(Z,Z) + 2 fZZb G(Z,Zbar) + fZbZb G(Zbar,Zbar)

with subscripts denoting partials.  No other formula for G or L appears
anywhere in the package; identities about the boundary polynomial, the
Hessian of its logarithm, and curvature tensors are all stated as exact
polynomial identities (denominators cleared by powers of the boundary
polynomial, divided back out with exact division).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import BivarPoly, CRat, Rat, as_rat, Z, ZBAR


@dataclass(frozen=True)
class Lambda:
    """Spectral-family parameter; rational and strictly positive."""

    value: "Rat"

    def __post_init__(self):
        object.__setattr__(self, "value", as_rat(self.value))
        if self.value <= 0:
            raise ValueError("lambda must be > 0")

    @property
    def is_geq_one(self) -> bool:
        return self.value >= 1


def _lam(lam) -> "Rat":
    if isinstance(lam, Lambda):
        return lam.value
    return as_rat(lam)


# half as an exact scalar, used all over
_HALF = CRat(Rat(1, 2))

G11 = ZBAR - Z * Z
G22 = Z - ZBAR * ZBAR
G12 = (BivarPoly.const(1) - Z * ZBAR).scale(_HALF)


@dataclass(frozen=True)
class GammaMatrix:
    """First-order coefficient matrix of the operator in (Z, Zbar)."""

    g11: BivarPoly
    g12: BivarPoly
    g22: BivarPoly

    @staticmethod
    def deltoid() -> "GammaMatrix":
        return GammaMatrix(G11, G12, G22)


@dataclass(frozen=True)
class HermitianTensorField:
    """2x2 Hermitian tensor in complex coordinates with polynomial entries.

    On the real locus (Zbar = conj Z), r12 takes real values and
    r22 = conj_swap(r11), so the tensor is determined by (r11, r12).
    Positive semidefiniteness as a real 2-tensor is equivalent to both
    margins from psd_margins being >= 0.
    """

    r11: BivarPoly
    r12: BivarPoly
    r22: BivarPoly

    def psd_margins(self, z: complex) -> tuple:
        """(trace-type margin r12, det-type margin r12^2 - |r11|^2) at z."""
        v12 = self.r12.eval(z)
        v11 = self.r11.eval(z)
        v22 = self.r22.eval(z)
        m2 = v12 * v12 - v11 * v22
        return v12.real, m2.real

    def scale(self, c) -> "HermitianTensorField":
        return HermitianTensorField(
            self.r11.scale(c), self.r12.scale(c), self.r22.scale(c)
        )

    def sub(self, other: "HermitianTensorField") -> "HermitianTensorField":
        return HermitianTensorField(
            self.r11 - other.r11, self.r12 - other.r12, self.r22 - other.r22
        )


def gamma(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    fz, fw = f.partial("Z"), f.partial("Zbar")
    gz, gw = g.partial("Z"), g.partial("Zbar")
    return fz * gz * G11 + (fz * gw + fw * gz) * G12 + fw * gw * G22


def generator(f: BivarPoly, lam) -> BivarPoly:
    lv = _lam(lam)
    fz, fw = f.partial("Z"), f.partial("Zbar")
    fzz = fz.partial("Z")
    fzw = fz.partial("Zbar")
    fww = fw.partial("Zbar")
    drift = (Z * fz + ZBAR * fw).scale(CRat(-lv))
    return drift + fzz * G11 + fzw.scale(2) * G12 + fww * G22


def gamma2(f: BivarPoly, g: BivarPoly, lam) -> BivarPoly:
    t = generator(gamma(f, g), lam) - gamma(f, generator(g, lam)) - gamma(g, generator(f, lam))
    return t.scale(_HALF)


def boundary_poly() -> BivarPoly:
    """Defining polynomial of the deltoid boundary, from the Gamma entries."""
    return G12 * G12 - G11 * G22


def check_boundary_equation():
    """Exact check that G(Z, P) = -3 Z P and G(Zbar, P) = -3 Zbar P.

    Returns (ok, residual_z, residual_zbar); both residuals are the zero
    polynomial iff the identity holds.
    """
    P = boundary_poly()
    res_z = gamma(Z, P) + (Z * P).scale(3)
    res_w = gamma(ZBAR, P) + (ZBAR * P).scale(3)
    return res_z.is_zero() and res_w.is_zero(), res_z, res_w


def _hessian_entry_cleared(h: BivarPoly, k: BivarPoly, P: BivarPoly) -> BivarPoly:
    # H[log P](h,k) written over the common denominator 2 P^2:
    #   2 P^2 H = G(h, G(P,k)) P - G(P,k) G(h,P)
    #           + G(k, G(P,h)) P - G(P,h) G(k,P)
    #           - G(P, G(h,k)) P
    gpk = gamma(P, k)
    gph = gamma(P, h)
    num = (
        gamma(h, gpk) * P
        - gpk * gamma(h, P)
        + gamma(k, gph) * P
        - gph * gamma(k, P)
        - gamma(P, gamma(h, k)) * P
    )
    return num.divexact((P * P).scale(2))


def hessian_logP_direct() -> HermitianTensorField:
    """Hessian of log P from its definition, denominators cleared exactly.

    The quotient by 2 P^2 is an exact polynomial division; a ValueError
    from the division would mean the boundary identity failed.
    """
    P = boundary_poly()
    return HermitianTensorField(
        _hessian_entry_cleared(Z, Z, P),
        _hessian_entry_cleared(Z, ZBAR, P),
        _hessian_entry_cleared(ZBAR, ZBAR, P),
    )


def hessian_logP_reduced() -> HermitianTensorField:
    """The same Hessian in closed form: -3 G + (3/2) euler(G) entrywise."""

    def entry(g):
        return g.scale(-3) + g.euler().scale(CRat(Rat(3, 2)))

    return HermitianTensorField(entry(G11), entry(G12), entry(G22))


def outer_logP() -> HermitianTensorField:
    """Gradient outer product of log P: entries 9 Z^2, 9 Z Zbar, 9 Zbar^2."""
    return HermitianTensorField(
        (Z * Z).scale(9), (Z * ZBAR).scale(9), (ZBAR * ZBAR).scale(9)
    )
