"""Yukawa forces for coated (multilayer) bodies.

A layered slab (base + up to two coatings) sources the one-test-mass
potential

    V(z) = -2 pi alpha G lam^2 e^(-z/lam) * S_slab,

where S_slab is an effective density: each layer's density weighted by its
thickness factor (1 - e^(-t/lam)) and attenuated by e^(-cover/lam) for the
material covering it. The exact (= surface-element summed, EPFA) energy of a
layered sphere above that slab factorizes the same way,

    U(a) = -4 pi^2 alpha G lam^4 e^(-a/lam) * S_slab * Psi_sphere,
    F(a) = U(a) / lam,

with Psi_sphere a sum of spherical-shell terms. The parallel-plate-mapped
(PFA) force replaces Psi_sphere by R * S_virtual, where S_virtual is the
stack factor of a virtual plate (thickness d2) coated like the sphere:

    F_pfa(a) = -4 pi^2 alpha G lam^3 R e^(-a/lam) * S_slab * S_virtual.

Their ratio eta_delta = Psi_sphere / (R * S_virtual) is therefore
independent of both the separation and the slab stack. Each of U, F and
F_pfa is built as a core.SeparationLaw (the ``*_law`` builders): the stack
and shell factors once per lam, then one exponential per separation.

Numerical notes: shell terms contain e^(r/lam) factors that reach e^(1800)
for nanometre lam; every term here is assembled so that each exponential
carries a non-positive argument (the global e^(-a/lam) is kept outside, the
e^(-R_out/lam) rescaling is distributed per term). Each shell term adds two
non-negative parts built on yukawa.phi, so no lam makes it cancel. A zero-
thickness layer contributes exactly 0: its stack summand has -expm1(-0) == 0
and its shell term returns 0 before Phi, which rejects u = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (INFINITE, DegenerateInputError, InputError, LayeredSlab, LayeredSphere,
                   PhysicalConstants, SeparationLaw, YukawaParams)
from .numerics import one_minus_exp
from .yukawa import check_d2, eta, phi


@dataclass(frozen=True)
class LayeredConfig:
    """Layered sphere above a layered slab; d2 is the PFA virtual-plate thickness."""

    separation: float
    sphere: LayeredSphere
    slab: LayeredSlab
    d2: float = INFINITE

    def __post_init__(self):
        if not self.separation > 0.0:
            raise InputError(f"separation must be > 0, got {self.separation}")
        check_d2(self.d2)


@dataclass(frozen=True)
class EtaDeltaResult:
    """Layered exact/PFA ratio, its homogeneous counterpart, and their ratio."""

    eta_delta: float
    eta_homogeneous: float
    ratio: float


def _slab_summands(slab: LayeredSlab, lam: float) -> list[float]:
    """Per-layer summands of S_slab: base, middle, top."""
    top, mid, base = slab.top, slab.middle, slab.base
    return [
        base.density * math.exp(-(top.thickness + mid.thickness) / lam)
        * one_minus_exp(base.thickness / lam),
        mid.density * math.exp(-top.thickness / lam) * one_minus_exp(mid.thickness / lam),
        top.density * one_minus_exp(top.thickness / lam),
    ]


def _virtual_summands(sphere: LayeredSphere, d2: float, lam: float) -> list[float]:
    """Per-layer summands of S_virtual: virtual plate (core density), inner coat, outer coat."""
    inner, outer = sphere.inner_coat, sphere.outer_coat
    return [
        sphere.core_density * math.exp(-(inner.thickness + outer.thickness) / lam)
        * one_minus_exp(d2 / lam),
        inner.density * math.exp(-outer.thickness / lam) * one_minus_exp(inner.thickness / lam),
        outer.density * one_minus_exp(outer.thickness / lam),
    ]


def slab_stack_factor(slab: LayeredSlab, lam: float) -> float:
    """Effective density S_slab of the layered slab seen from above (kg/m^3)."""
    return math.fsum(_slab_summands(slab, lam))


def virtual_stack_factor(sphere: LayeredSphere, d2: float, lam: float) -> float:
    """Stack factor of the virtual plate (thickness d2) wearing the sphere's coatings."""
    return math.fsum(_virtual_summands(sphere, d2, lam))


def _shell_term(lo: float, hi: float, lam: float, r_out: float) -> float:
    """Geometry factor 2 lam [h(hi/lam) - h(lo/lam)] e^(-r_out/lam) of one shell.

    With h(v) = v cosh v - sinh v, c = (lo+hi)/(2 lam), d = (hi-lo)/(2 lam),
    h(c+d) - h(c-d) = 2c sinh c sinh d + 2 cosh c h(d) and e^(-d) h(d) = d Phi(2d)/2,
        T = lam e^((hi-r_out)/lam) [c (1-e^(-2c))(1-e^(-2d)) + (1+e^(-2c)) d Phi(2d)]:
    two non-negative summands, every exponent <= 0 (hi <= r_out).
    """
    d = (hi - lo) / (2.0 * lam)
    if d == 0.0:
        return 0.0
    c = (lo + hi) / (2.0 * lam)
    w = one_minus_exp(2.0 * c)
    return lam * math.exp((hi - r_out) / lam) * (
        c * w * one_minus_exp(2.0 * d) + (2.0 - w) * d * phi(2.0 * d)[0])


def sphere_shell_factor(sphere: LayeredSphere, lam: float) -> float:
    """Psi_sphere: density-weighted sum of the three shell terms (kg/m^2).

    For a bare sphere this reduces to rho * R * Phi(2R/lam).
    """
    r_core = sphere.core_radius
    r_mid = r_core + sphere.inner_coat.thickness
    r_out = r_mid + sphere.outer_coat.thickness
    return math.fsum([
        sphere.core_density * _shell_term(0.0, r_core, lam, r_out),
        sphere.inner_coat.density * _shell_term(r_core, r_mid, lam, r_out),
        sphere.outer_coat.density * _shell_term(r_mid, r_out, lam, r_out),
    ])


def layered_slab_potential(z: float, slab: LayeredSlab, p: YukawaParams,
                           c: PhysicalConstants = PhysicalConstants()) -> float:
    """Potential per unit test mass at height z above the slab's top face (J/kg)."""
    if not z > 0.0:
        raise InputError(f"height above the stack must be > 0, got {z}")
    lam = p.lam
    return (-2.0 * math.pi * p.alpha * c.G * lam * lam * math.exp(-z / lam)
            * slab_stack_factor(slab, lam))


def layered_epfa_energy_law(cfg: LayeredConfig, p: YukawaParams,
                            c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Exact layered energy as a law in the separation (cfg.separation unused)."""
    lam = p.lam
    return SeparationLaw(-4.0 * math.pi ** 2 * p.alpha * c.G * lam ** 4, lam,
                         (slab_stack_factor(cfg.slab, lam), sphere_shell_factor(cfg.sphere, lam)))


def layered_epfa_force_law(cfg: LayeredConfig, p: YukawaParams,
                           c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Exact layered force U/lam as a law in the separation."""
    energy = layered_epfa_energy_law(cfg, p, c)
    return SeparationLaw(energy.head, energy.lam, energy.factors, over=p.lam)


def _pfa_head(cfg: LayeredConfig, p: YukawaParams, c: PhysicalConstants) -> float:
    """-4 pi^2 alpha G lam^3 R_core, the prefactor of every PFA layer pair."""
    return -4.0 * math.pi ** 2 * p.alpha * c.G * p.lam ** 3 * cfg.sphere.core_radius


def layered_pfa_law(cfg: LayeredConfig, p: YukawaParams,
                    c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Layered PFA force as a law in the separation (cfg.separation unused).

    The virtual plate thickness is cfg.d2, which LayeredConfig checks.
    """
    lam = p.lam
    return SeparationLaw(_pfa_head(cfg, p, c), lam,
                         (slab_stack_factor(cfg.slab, lam),
                          virtual_stack_factor(cfg.sphere, cfg.d2, lam)))


def layered_epfa_energy(cfg: LayeredConfig, p: YukawaParams,
                        c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact interaction energy of the layered sphere and layered slab (J)."""
    return layered_epfa_energy_law(cfg, p, c)(cfg.separation)


def layered_epfa_force(cfg: LayeredConfig, p: YukawaParams,
                       c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact force on the layered sphere, U/lam (N, < 0)."""
    return layered_epfa_force_law(cfg, p, c)(cfg.separation)


def layered_pfa_terms(cfg: LayeredConfig, p: YukawaParams,
                      c: PhysicalConstants = PhysicalConstants()) -> list[list[float]]:
    """The nine layer-pair contributions to the PFA force (N each).

    Rows run over slab layers [base, middle, top], columns over the
    sphere-side stack [core/virtual-plate, inner coat, outer coat]; each
    entry is 2 pi R times that layer pair's parallel-plate energy per unit
    area at its standoff (= lam times its pressure, the profile being a
    pure exponential). The sum of all nine equals layered_pfa_force.
    """
    lam = p.lam
    pref = _pfa_head(cfg, p, c) * math.exp(-cfg.separation / lam)
    s1 = _slab_summands(cfg.slab, lam)
    s2 = _virtual_summands(cfg.sphere, cfg.d2, lam)
    return [[pref * a * b for b in s2] for a in s1]


def layered_pfa_force(cfg: LayeredConfig, p: YukawaParams,
                      c: PhysicalConstants = PhysicalConstants()) -> float:
    """PFA force 2 pi R P_stack(a) for the layered pair (N, < 0).

    Uses the factorized form S_slab * S_virtual, identical to summing the
    nine layer-pair pressures of layered_pfa_terms.
    """
    return layered_pfa_law(cfg, p, c)(cfg.separation)


def eta_delta(cfg: LayeredConfig, p: YukawaParams,
              c: PhysicalConstants = PhysicalConstants()) -> EtaDeltaResult:
    """Layered exact/PFA force ratio and its homogeneous counterpart.

    eta_delta = Psi_sphere / (R S_virtual): the slab stack and the
    e^(-a/lam) prefactor cancel identically, so the ratio stays finite even
    where the forces themselves underflow (lam down to 0.1 nm). The
    homogeneous comparator is eta at the coated (outer) radius. As
    lam -> 0, eta_delta -> 1 + (coat thicknesses)/R. A sphere-side PFA
    stack factor that is zero or subnormal leaves no ratio and raises
    DegenerateInputError.
    """
    sphere = cfg.sphere
    lam = p.lam
    eta_hom = eta(sphere.outer_radius, cfg.d2, lam).eta
    if sphere.inner_coat.thickness == 0.0 and sphere.outer_coat.thickness == 0.0:
        # Bare sphere: the layered and homogeneous constructions coincide.
        return EtaDeltaResult(eta_delta=eta_hom, eta_homogeneous=eta_hom, ratio=1.0)
    pfa_side = sphere.core_radius * virtual_stack_factor(sphere, cfg.d2, lam)
    if not pfa_side >= sys.float_info.min:
        # the exact side carries the same e^(-coat/lam) factor: no ratio left
        raise DegenerateInputError(
            f"eta_delta is undefined at lambda = {lam:g} m: the sphere-side PFA stack "
            "factor is zero or underflows (every sphere density zero, or only the core "
            "has mass and e^(-coat thickness/lambda) underflows)")
    value = sphere_shell_factor(sphere, lam) / pfa_side
    return EtaDeltaResult(eta_delta=value, eta_homogeneous=eta_hom, ratio=value / eta_hom)
