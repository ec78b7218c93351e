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
(PFA) force replaces Psi_sphere by R * S_virtual, the stack factor of the
virtual plate: a LayeredSlab of core material d2 thick, coated like the sphere:

    F_pfa(a) = -4 pi^2 alpha G lam^3 R e^(-a/lam) * S_slab * S_virtual.

Their ratio eta_delta = Psi_sphere / (R * S_virtual) is therefore
independent of both the separation and the slab stack. eta_delta_at
evaluates it for every sphere and virtual plate of a sweep at one lam;
eta_delta is its single-point case. Each of U, F and F_pfa is built as a
core.SeparationLaw: the stack and shell factors once per lam, then one
exponential per separation. F and F_pfa have public ``*_law`` builders,
which limits evaluates at every residual separation; U's law is private.

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
from functools import cached_property
from typing import Sequence

from .core import (INFINITE, DegenerateInputError, InputError, Layer, LayeredSlab,
                   LayeredSphere, PhysicalConstants, SeparationLaw, YukawaParams)
from .numerics import one_minus_exp
from .yukawa import _phi_over_plate, check_d2, eta, phi, phi_of_radius, plate_factor


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

    @cached_property
    def virtual_plate(self) -> LayeredSlab:
        """virtual_plate(sphere, d2), built on first use and kept for every lam."""
        return virtual_plate(self.sphere, self.d2)


def virtual_plate(sphere: LayeredSphere, d2: float) -> LayeredSlab:
    """The PFA's virtual plate: core material d2 thick (check_d2), coated like the sphere."""
    check_d2(d2)
    return LayeredSlab(Layer(d2, sphere.core_density), sphere.inner_coat, sphere.outer_coat)


@dataclass(frozen=True)
class EtaDeltaResult:
    """Layered exact/PFA ratio, its homogeneous counterpart, and their ratio."""

    eta_delta: float
    eta_homogeneous: float
    ratio: float


def slab_stack_factor(slab: LayeredSlab, lam: float) -> float:
    """Effective density S_slab of the layered slab seen from above (kg/m^3)."""
    top, mid, base = slab.top, slab.middle, slab.base
    return math.fsum([
        base.density * math.exp(-(top.thickness + mid.thickness) / lam)
        * one_minus_exp(base.thickness / lam),
        mid.density * math.exp(-top.thickness / lam) * one_minus_exp(mid.thickness / lam),
        top.density * one_minus_exp(top.thickness / lam),
    ])


def _shell_term(lo: float, hi: float, lam: float, r_out: float) -> float:
    """Geometry factor 2 lam [h(hi/lam) - h(lo/lam)] e^(-r_out/lam) of one shell.

    With h(v) = v cosh v - sinh v, c = (lo+hi)/(2 lam), d = (hi-lo)/(2 lam),
    h(c+d) - h(c-d) = 2c sinh c sinh d + 2 cosh c h(d) and e^(-d) h(d) = d Phi(2d)/2,
        T = e^((hi-r_out)/lam) [lam c (1-e^(-2c))(1-e^(-2d)) + (1+e^(-2c)) lam d Phi(2d)]:
    two non-negative summands, every exponent <= 0 (hi <= r_out). lam c and
    lam d are the exact lengths (lo+hi)/2 and (hi-lo)/2, so the parts are of
    order R^3/lam^2, not (R/lam)^3, and stay normal up to lam ~ 1e148 m for
    R ~ 100 um.
    """
    two_d = (hi - lo) / lam
    if two_d == 0.0:
        return 0.0
    w = one_minus_exp((lo + hi) / lam)
    return math.exp((hi - r_out) / lam) * (
        (lo + hi) / 2.0 * w * one_minus_exp(two_d) + (2.0 - w) * (hi - lo) / 2.0 * phi(two_d)[0])


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


def _epfa_law(cfg: LayeredConfig, p: YukawaParams, c: PhysicalConstants,
              over: float) -> SeparationLaw:
    """U/over as a law in the separation: over = 1 for the energy, lam for the force."""
    lam = p.lam
    return SeparationLaw(-4.0 * math.pi ** 2 * p.alpha * c.G * p.lam_power(4), lam,
                         slab_stack_factor(cfg.slab, lam), sphere_shell_factor(cfg.sphere, lam),
                         over)


def layered_epfa_force_law(cfg: LayeredConfig, p: YukawaParams,
                           c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Exact layered force U/lam as a law in the separation."""
    return _epfa_law(cfg, p, c, p.lam)


def layered_pfa_law(cfg: LayeredConfig, p: YukawaParams,
                    c: PhysicalConstants = PhysicalConstants()) -> SeparationLaw:
    """Layered PFA force as a law in the separation (cfg.separation unused).

    The virtual plate thickness is cfg.d2, which LayeredConfig checks.
    """
    lam = p.lam
    return SeparationLaw(-4.0 * math.pi ** 2 * p.alpha * c.G * p.lam_power(3)
                         * cfg.sphere.core_radius, lam, slab_stack_factor(cfg.slab, lam),
                         slab_stack_factor(cfg.virtual_plate, lam))


def layered_epfa_energy(cfg: LayeredConfig, p: YukawaParams,
                        c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact interaction energy of the layered sphere and layered slab (J)."""
    return _epfa_law(cfg, p, c, 1.0)(cfg.separation)


def layered_epfa_force(cfg: LayeredConfig, p: YukawaParams,
                       c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact force on the layered sphere, U/lam (N, < 0)."""
    return layered_epfa_force_law(cfg, p, c)(cfg.separation)


def layered_pfa_force(cfg: LayeredConfig, p: YukawaParams,
                      c: PhysicalConstants = PhysicalConstants()) -> float:
    """PFA force 2 pi R E_stack(a) for the layered pair (N, < 0).

    Uses the factorized form S_slab * S_virtual: the sum of the nine layer
    pairs' parallel-plate energies 2 pi R lam P, with each slab layer facing
    each layer of the virtual plate at its own standoff.
    """
    return layered_pfa_law(cfg, p, c)(cfg.separation)


def _bare(sphere: LayeredSphere) -> bool:
    """No coats: the layered and homogeneous constructions coincide."""
    return sphere.inner_coat.thickness == 0.0 and sphere.outer_coat.thickness == 0.0


def _exact_over_pfa(sphere: LayeredSphere, shell: float, virtual: float, lam: float) -> float:
    """Psi_sphere / (R_core S_virtual), refused where the PFA side is zero or subnormal."""
    pfa_side = sphere.core_radius * virtual
    if not pfa_side >= sys.float_info.min:
        # the exact side carries the same e^(-coat/lam) factor: no ratio left
        raise DegenerateInputError(
            f"eta_delta is undefined at lambda = {lam:g} m: the sphere-side PFA stack "
            "factor is zero or underflows (every sphere density zero, or only the core "
            "has mass and e^(-coat thickness/lambda) underflows)")
    return shell / pfa_side


def eta_delta(cfg: LayeredConfig, p: YukawaParams) -> EtaDeltaResult:
    """Layered exact/PFA force ratio and its homogeneous counterpart.

    eta_delta = Psi_sphere / (R S_virtual): the slab stack and the
    e^(-a/lam) prefactor cancel identically, so the ratio stays finite even
    where the forces themselves underflow (lam down to 0.1 nm). The
    homogeneous comparator is eta at the coated (outer) radius. As
    lam -> 0, eta_delta -> 1 + (coat thicknesses)/R. A sphere-side PFA
    stack factor that is zero or subnormal leaves no ratio and raises
    DegenerateInputError, as does a coated sphere's eta_delta or eta that is
    zero or subnormal (lam above about 1e148 m for R ~ 100 um).
    """
    (result,) = eta_delta_at(p.lam, [cfg.sphere], [cfg.virtual_plate])
    return EtaDeltaResult(*result)


def eta_delta_at(lam: float, spheres: Sequence[LayeredSphere],
                 plates: Sequence[LayeredSlab]) -> list[tuple[float, float, float]]:
    """(eta_delta, eta, eta_delta/eta) at one lam for every sphere, then every plate.

    The spheres must share their core density and coats (they may differ in
    core radius), and each plate is the virtual_plate of one d2 for them.
    Each plate's factors 1 - e^(-d2/lam) and S_virtual are computed once per
    call, and Phi(2 R_out/lam) and Psi_sphere once per sphere. Row
    by row the checks run in eta_delta's order, so the first error is the
    first failing row's.
    """
    factors = [(plate_factor(plate.base.thickness, lam), slab_stack_factor(plate, lam))
               for plate in plates]
    rows = []
    for sphere in spheres:
        phi_value, _ = phi_of_radius(sphere.outer_radius, lam)
        if _bare(sphere):
            for factor, _ in factors:
                eta_hom = _phi_over_plate(phi_value, factor, lam)
                rows.append((eta_hom, eta_hom, 1.0))
            continue
        shell = sphere_shell_factor(sphere, lam)
        for factor, stack in factors:
            eta_hom = _phi_over_plate(phi_value, factor, lam)
            value = _exact_over_pfa(sphere, shell, stack, lam)
            if not min(value, eta_hom) >= sys.float_info.min:
                raise DegenerateInputError(
                    f"eta_delta/eta is undefined at lambda = {lam:g} m: eta_delta or eta is "
                    "zero or subnormal (lambda >> sphere radius)")
            rows.append((value, eta_hom, value / eta_hom))
    return rows


def layered_pfa_over_epfa(cfg: LayeredConfig, epfa: SeparationLaw) -> float:
    """F_pfa/F_epfa = 1/eta_delta from layered_epfa_force_law at one lam.

    The PFA law would carry the same S_slab and the curvature factor S_virtual
    in place of Psi_sphere, so this is 1/eta_delta bit for bit without
    building it, and it raises DegenerateInputError where eta_delta does. A
    bare sphere takes eta_delta's route through eta too: the laws' own ratio
    differs there in the last bits.
    """
    sphere, lam = cfg.sphere, epfa.lam
    if _bare(sphere):
        return 1.0 / eta(sphere.outer_radius, cfg.d2, lam).eta
    return 1.0 / _exact_over_pfa(sphere, epfa.curvature,
                                 slab_stack_factor(cfg.virtual_plate, lam), lam)
