"""Homogeneous-body Yukawa closed forms for the sphere-slab geometry.

Point-pair energy, slab-slab pressure, the exact sphere-slab force, the
parallel-plate-mapped (PFA) force, and their ratio eta.

Sign conventions:
- energies and attractive forces/pressures are negative;
- the pair potential is U(r) = -alpha G m1 m2 e^(-r/lam) / r.

The exact sphere-slab force is

    F(a) = -4 pi^2 alpha G rho1 rho2 lam^3 R e^(-a/lam)
           * (1 - e^(-D1/lam)) * Phi(2R/lam),

    Phi(u) = 1 - 2/u + e^(-u) (1 + 2/u),

while the PFA force replaces Phi by the thickness factor (1 - e^(-D2/lam))
of a virtual upper plate of thickness D2 (a bookkeeping device of the
parallel-plate mapping, not a physical part of the setup; D2 = INFINITE
makes the factor exactly 1). eta = Phi/(1 - e^(-D2/lam)) is independent of
the separation a. Both forces are built as a core.SeparationLaw (the
``*_law`` builders), so a caller scanning many separations at one lam
evaluates the prefactor once and one exponential per separation.

The naive Phi cancels catastrophically for u << 1, so ``phi`` reports one
of two regimes: 'series_small_u' (Taylor series, u < 1e-3) and 'direct',
where the direct branch itself uses the exact rearrangement
Phi = (4/u) e^(-u/2) (v cosh v - sinh v), v = u/2, below u = 2 and the
plain form above. All branches agree to machine precision where they meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (InputError, PhysicalConstants, ResonatorParams, SeparationLaw, YukawaParams,
                   effective_radius)
from .numerics import one_minus_exp, x_cosh_x_minus_sinh_x

#: Below this u = 2R/lambda the Taylor-series branch of Phi is used.
PHI_SERIES_SWITCH = 1e-3

REGIME_SERIES = "series_small_u"
REGIME_DIRECT = "direct"


@dataclass(frozen=True)
class SphereSlabConfig:
    """Homogeneous sphere above a laterally infinite homogeneous slab.

    separation is the closest gap between sphere surface and slab top.
    """

    separation: float
    sphere_radius: float
    sphere_density: float
    slab_thickness: float
    slab_density: float

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


@dataclass(frozen=True)
class EtaResult:
    """eta value plus the Phi branch that produced it ('series_small_u'/'direct')."""

    eta: float
    regime: str


def check_d2(d2: float) -> None:
    """The virtual plate thickness d2 must be > 0 (INFINITE allowed; nan is not)."""
    if not d2 > 0.0:
        raise InputError(f"virtual plate thickness d2 must be > 0, got {d2}")


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


def yukawa_pair_energy(m1: float, m2: float, r: float, p: YukawaParams,
                       c: PhysicalConstants = PhysicalConstants()) -> float:
    """Yukawa potential energy of two point masses at distance r (J)."""
    if not r > 0.0:
        raise InputError(f"pair distance must be > 0, got {r}")
    return -p.alpha * c.G * m1 * m2 * math.exp(-r / p.lam) / r


def slab_slab_pressure(a: float, d1: float, rho1: float, d2: float, rho2: float,
                       p: YukawaParams, c: PhysicalConstants = PhysicalConstants()) -> float:
    """Yukawa pressure between two parallel slabs separated by gap a (Pa).

        P(a) = -2 pi alpha G rho1 rho2 lam^2 e^(-a/lam)
               * (1 - e^(-d1/lam)) (1 - e^(-d2/lam))

    Either thickness may be INFINITE, making its factor exactly 1.
    """
    if not a > 0.0:
        raise InputError(f"gap must be > 0, got {a}")
    lam = p.lam
    return (-2.0 * math.pi * p.alpha * c.G * rho1 * rho2 * lam * lam
            * math.exp(-a / lam) * one_minus_exp(d1 / lam) * one_minus_exp(d2 / lam))


def _sphere_slab_head(cfg: SphereSlabConfig, p: YukawaParams, c: PhysicalConstants) -> float:
    """-4 pi^2 alpha G rho1 rho2 lam^3 R, shared by the exact and PFA forces."""
    return (-4.0 * math.pi ** 2 * p.alpha * c.G * cfg.slab_density * cfg.sphere_density
            * p.lam ** 3 * cfg.sphere_radius)


def sphere_slab_exact_law(cfg: SphereSlabConfig, p: YukawaParams,
                          c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Exact sphere-slab force as a law in the separation (cfg.separation unused)."""
    lam = p.lam
    phi_value, _ = phi(2.0 * cfg.sphere_radius / lam)
    return SeparationLaw(_sphere_slab_head(cfg, p, c), lam,
                         (one_minus_exp(cfg.slab_thickness / lam), phi_value))


def sphere_slab_pfa_law(cfg: SphereSlabConfig, d2: float, p: YukawaParams,
                        c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """PFA sphere-slab force as a law in the separation (cfg.separation unused)."""
    check_d2(d2)
    lam = p.lam
    return SeparationLaw(_sphere_slab_head(cfg, p, c), lam,
                         (one_minus_exp(cfg.slab_thickness / lam), one_minus_exp(d2 / lam)))


def sphere_slab_force_exact(cfg: SphereSlabConfig, p: YukawaParams,
                            c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact (volume-integrated) Yukawa force on the sphere, in N (< 0)."""
    return sphere_slab_exact_law(cfg, p, c)(cfg.separation)


def sphere_slab_force_pfa(cfg: SphereSlabConfig, d2: float, p: YukawaParams,
                          c: PhysicalConstants = PhysicalConstants()) -> float:
    """Parallel-plate-mapped sphere-slab force 2 pi R E_pp(a), in N (< 0).

    d2 is the virtual upper-plate thickness of the mapping (INFINITE for the
    half-space limit). With d2 INFINITE the PFA magnitude is always >= the
    exact magnitude.
    """
    return sphere_slab_pfa_law(cfg, d2, p, c)(cfg.separation)


def eta(radius: float, d2: float, lam: float) -> EtaResult:
    """Ratio exact/PFA of the sphere-slab Yukawa forces.

        eta = Phi(2R/lam) / (1 - e^(-d2/lam))

    Independent of the separation by construction. For d2 = INFINITE,
    eta lies in (0, 1) and decreases monotonically with lam; for finite
    d2 of order 10 lam or less it exceeds 1.
    """
    if not radius > 0.0:
        raise InputError(f"radius must be > 0, got {radius}")
    if not lam > 0.0:
        raise InputError(f"lambda must be > 0, got {lam}")
    check_d2(d2)
    phi_value, regime = phi(2.0 * radius / lam)
    return EtaResult(eta=phi_value / one_minus_exp(d2 / lam), regime=regime)


def pfa_force_from_energy(e_pp: float, r_bar: float) -> float:
    """Sphere-plane force from parallel-plate energy per unit area: 2 pi R_bar e_pp."""
    if not r_bar > 0.0:
        raise InputError(f"effective radius must be > 0, got {r_bar}")
    return 2.0 * math.pi * r_bar * e_pp


def pressure_from_frequency_shift(delta_nu_sq: float, res: ResonatorParams) -> float:
    """Equivalent parallel-plate pressure from a squared frequency shift (Pa).

    Inverts delta_nu^2 = (R_bar / 2 pi m) P_pp.
    """
    r_bar = effective_radius(res.curvature)
    return 2.0 * math.pi * res.mass * delta_nu_sq / r_bar


def frequency_shift_from_pressure(p_pp: float, res: ResonatorParams) -> float:
    """Forward map delta_nu^2 = (R_bar / 2 pi m) P_pp; inverse of the above."""
    r_bar = effective_radius(res.curvature)
    return r_bar * p_pp / (2.0 * math.pi * res.mass)
