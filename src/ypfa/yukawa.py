"""Homogeneous-body Yukawa closed forms for the sphere-slab geometry.

Slab-slab pressure, the exact sphere-slab force, the parallel-plate-mapped
(PFA) force, and their ratio eta.

Sign conventions:
- energies and attractive forces/pressures are negative;
- every force integrates the pair potential U(r) = -alpha G m1 m2 e^(-r/lam) / r,
  with G = core.G_DEFAULT.

The exact sphere-slab force is

    F(a) = -4 pi^2 alpha G rho1 rho2 lam^3 R e^(-a/lam)
           * (1 - e^(-D1/lam)) * Phi(2R/lam),

    Phi(u) = 1 - 2/u + e^(-u) (1 + 2/u),

while the PFA force replaces Phi by the thickness factor (1 - e^(-D2/lam))
of a virtual upper plate of thickness D2 = SphereSlabConfig.d2 (a
bookkeeping device of the parallel-plate mapping, not a physical part of the
setup; INFINITE makes the factor exactly 1; LayeredConfig.d2 is the layered
one, a LayeredSlab wearing the sphere's coats). eta = Phi/(1 - e^(-D2/lam)),
independent of the separation a, is written once (_phi_over_plate). eta_at
evaluates it for every (R, D2) pair at one lam from one Phi per radius and
one plate factor per D2; eta is its single-point case. Both forces are
core.SeparationLaw builders (``*_law``): a caller scanning many separations
at one lam evaluates the prefactor once, then one exp per gap. limits gets
them from SphereSlabConfig.law(method, p), and 1/eta from pfa_over_epfa.

The naive Phi cancels catastrophically for u << 1, so ``phi`` reports one
of two regimes: 'series_small_u' (Taylor series, u < 1e-3) and 'direct',
where the direct branch itself uses the exact rearrangement
Phi = (4/u) e^(-u/2) (v cosh v - sinh v), v = u/2, below u = 2 and the
plain form above. All branches agree to machine precision where they meet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .core import (G_DEFAULT, INFINITE, DegenerateInputError, InputError, SeparationLaw,
                   YukawaParams)
from .numerics import one_minus_exp, x_cosh_x_minus_sinh_x

#: Below this u = 2R/lambda the Taylor-series branch of Phi is used.
PHI_SERIES_SWITCH = 1e-3

REGIME_SERIES = "series_small_u"
REGIME_DIRECT = "direct"


@dataclass(frozen=True)
class SphereSlabConfig:
    """Homogeneous sphere above a laterally infinite homogeneous slab.

    separation is the sphere-slab gap, d2 the PFA virtual-plate thickness.
    """

    separation: float
    sphere_radius: float
    sphere_density: float
    slab_thickness: float
    slab_density: float
    d2: float = INFINITE

    def __post_init__(self):
        if not self.separation > 0.0:
            raise InputError(f"separation must be > 0, got {self.separation}")
        if not self.sphere_radius > 0.0:
            raise InputError(f"sphere radius must be > 0, got {self.sphere_radius}")
        if not self.sphere_density >= 0.0:
            raise InputError(f"sphere density must be >= 0, got {self.sphere_density}")
        if not self.slab_thickness > 0.0:
            raise InputError(f"slab thickness must be > 0, got {self.slab_thickness}")
        if not self.slab_density >= 0.0:
            raise InputError(f"slab density must be >= 0, got {self.slab_density}")
        check_d2(self.d2)

    def law(self, method: str, p: YukawaParams) -> SeparationLaw:
        """The 'pfa' or 'epfa' (exact) force as a law in the separation."""
        return {"pfa": sphere_slab_pfa_law, "epfa": sphere_slab_exact_law}[method](self, p)

    def pfa_over_epfa(self, epfa: SeparationLaw) -> float:
        """F_pfa/F_exact = 1/eta(R, d2, lam) bit for bit from the exact law at one lam.

        The PFA law, not built, would carry 1 - e^(-d2/lam) in place of Phi(2R/lam).
        """
        return 1.0 / _phi_over_plate(epfa.curvature, plate_factor(self.d2, epfa.lam), epfa.lam)


@dataclass(frozen=True)
class EtaResult:
    """eta value plus the Phi branch that produced it ('series_small_u'/'direct')."""

    eta: float
    regime: str


def check_radius(radius: float) -> float:
    """radius, which must be > 0 (nan is not)."""
    if not radius > 0.0:
        raise InputError(f"radius must be > 0, got {radius}")
    return radius


def check_d2(d2: float) -> float:
    """d2, the virtual plate thickness, which must be > 0 (INFINITE allowed; nan is not)."""
    if not d2 > 0.0:
        raise InputError(f"virtual plate thickness d2 must be > 0, got {d2}")
    return d2


def phi_series(u: float) -> float:
    """Taylor series of Phi at u = 0, summed to machine convergence.

    Phi(u) = u^2/6 - u^3/12 + u^4/40 - u^5/180 + ...; the terms alternate
    and shrink by ~u/4, so a handful suffice for u < 1e-3.
    """
    m = 3
    term = u * u / 6.0  # (m-2)/m! * u^(m-1) at m = 3
    total = term
    while True:
        term *= -u * (m - 1) / ((m - 2) * (m + 1))
        m += 1
        total += term
        if abs(term) <= abs(total) * 1e-18:
            return total


def phi_direct(u: float) -> float:
    """Phi without series truncation, stable over the full range of u.

    For u >= 2 the naive form is benign. For u < 2 it is rearranged into
    (4/u) e^(-u/2) (v cosh v - sinh v) with v = u/2, which has no leading
    cancellation (see numerics.x_cosh_x_minus_sinh_x).
    """
    if u >= 2.0:
        return 1.0 - 2.0 / u + math.exp(-u) * (1.0 + 2.0 / u)
    return (4.0 / u) * math.exp(-u / 2.0) * x_cosh_x_minus_sinh_x(u / 2.0)


def phi(u: float) -> tuple[float, str]:
    """Curvature factor Phi(2R/lambda) of the exact sphere-slab force.

    The one sphere-side curvature function of the package: the homogeneous
    force and eta use Phi(2R/lam); layered._shell_term builds every coated
    shell term from Phi(thickness/lam).

    Returns (value, regime) where regime records which branch evaluated it.
    Phi is strictly increasing, Phi -> u^2/6 as u -> 0 and Phi -> 1 as
    u -> inf.
    """
    if not u > 0.0:
        raise InputError(f"u = 2R/lambda must be > 0, got {u}")
    if u < PHI_SERIES_SWITCH:
        return phi_series(u), REGIME_SERIES
    return phi_direct(u), REGIME_DIRECT


def phi_of_radius(radius: float, lam: float) -> tuple[float, str]:
    """phi(2R/lam) for a sphere of radius R: the one place u is formed from R.

    A subnormal R at a long lam makes u underflow to 0; that is refused here
    with R and lam named, where phi's own guard could name only u.
    """
    u = 2.0 * radius / lam
    if not u > 0.0:
        raise DegenerateInputError(f"u = 2R/lambda underflows to {u} at R = {radius:g} m, "
                                   f"lambda = {lam:g} m")
    return phi(u)


def slab_slab_pressure(a: float, d1: float, rho1: float, d2: float, rho2: float,
                       p: YukawaParams) -> float:
    """Yukawa pressure between two parallel slabs separated by gap a (Pa).

        P(a) = -2 pi alpha G rho1 rho2 lam^2 e^(-a/lam)
               * (1 - e^(-d1/lam)) (1 - e^(-d2/lam))

    Either thickness may be INFINITE, making its factor exactly 1.
    """
    if not a > 0.0:
        raise InputError(f"gap must be > 0, got {a}")
    lam = p.lam
    return (-2.0 * math.pi * p.alpha * G_DEFAULT * rho1 * rho2 * lam * lam
            * math.exp(-a / lam) * one_minus_exp(d1 / lam) * one_minus_exp(d2 / lam))


def _sphere_slab_head(cfg: SphereSlabConfig, p: YukawaParams) -> float:
    """-4 pi^2 alpha G rho1 rho2 lam^3 R, shared by the exact and PFA forces."""
    return (-4.0 * math.pi ** 2 * p.alpha * G_DEFAULT * cfg.slab_density * cfg.sphere_density
            * p.lam_power(3) * cfg.sphere_radius)


def sphere_slab_exact_law(cfg: SphereSlabConfig, p: YukawaParams) -> SeparationLaw:
    """Exact sphere-slab force as a law in the separation (cfg.separation unused)."""
    lam = p.lam
    phi_value, _ = phi_of_radius(cfg.sphere_radius, lam)
    return SeparationLaw(_sphere_slab_head(cfg, p), lam,
                         one_minus_exp(cfg.slab_thickness / lam), phi_value)


def sphere_slab_pfa_law(cfg: SphereSlabConfig, p: YukawaParams) -> SeparationLaw:
    """PFA sphere-slab force as a law in the separation (cfg.separation unused)."""
    lam = p.lam
    return SeparationLaw(_sphere_slab_head(cfg, p), lam,
                         one_minus_exp(cfg.slab_thickness / lam), plate_factor(cfg.d2, lam))


def plate_factor(d2: float, lam: float) -> float:
    """Thickness factor 1 - e^(-d2/lam) of the PFA's virtual plate (1 for INFINITE)."""
    return one_minus_exp(d2 / lam)


def _phi_over_plate(phi_value: float, plate: float, lam: float) -> float:
    """eta = Phi(2R/lam) / (1 - e^(-d2/lam)), refused where the plate factor underflows."""
    if not plate >= sys.float_info.min:
        raise DegenerateInputError(f"eta is undefined at lambda = {lam:g} m: the plate factor "
                                   "1 - e^(-d2/lambda) is zero or subnormal (d2 << lambda)")
    return phi_value / plate


def sphere_slab_force_exact(cfg: SphereSlabConfig, p: YukawaParams) -> float:
    """Exact (volume-integrated) Yukawa force on the sphere, in N (< 0)."""
    return sphere_slab_exact_law(cfg, p)(cfg.separation)


def sphere_slab_force_pfa(cfg: SphereSlabConfig, p: YukawaParams) -> float:
    """Parallel-plate-mapped sphere-slab force 2 pi R E_pp(a), in N (< 0).

    With cfg.d2 INFINITE (the half-space limit of the virtual plate) the
    PFA magnitude is always >= the exact magnitude.
    """
    return sphere_slab_pfa_law(cfg, p)(cfg.separation)


def eta(radius: float, d2: float, lam: float) -> EtaResult:
    """Ratio exact/PFA of the sphere-slab Yukawa forces.

        eta = Phi(2R/lam) / (1 - e^(-d2/lam))

    Independent of the separation by construction. For d2 = INFINITE,
    eta lies in (0, 1) and decreases monotonically with lam; for finite
    d2 of order 10 lam or less it exceeds 1. A zero or subnormal plate
    factor (d2 << lam) raises DegenerateInputError.
    """
    check_radius(radius)
    if not lam > 0.0:
        raise InputError(f"lambda must be > 0, got {lam}")
    ((value, regime),) = eta_at(lam, [radius], [check_d2(d2)])
    return EtaResult(eta=value, regime=regime)


def eta_at(lam: float, radii: Sequence[float],
           d2_values: Sequence[float]) -> list[tuple[float, str]]:
    """(eta, Phi's regime) at one lam for every radius, then every d2, in that row order.

    Phi(2R/lam) is computed once per radius and each plate factor once per
    call; the first row that fails raises, as the rows would one by one.
    The caller checks the radii (check_radius), the d2 values (check_d2)
    and lam > 0.
    """
    plates = [plate_factor(d2, lam) for d2 in d2_values]
    rows = []
    for radius in radii:
        phi_value, regime = phi_of_radius(radius, lam)
        for plate in plates:
            rows.append((_phi_over_plate(phi_value, plate, lam), regime))
    return rows
