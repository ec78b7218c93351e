"""Coupling-strength exclusion limits from per-separation force residuals.

An experiment bounds any extra force at each probed separation by the
residual of its theory-experiment comparison. Since the Yukawa force is
linear in alpha, the strongest claimable limit at a given range lambda is

    alpha_bound(lambda) = min over separations of residual(a) / |F(a; alpha=1, lambda)|,

under whichever force model (parallel-plate-mapped 'pfa' or exact surface-
element 'epfa') the analysis adopts. The model choice shifts the whole
curve by the separation-independent factor 1/eta (homogeneous) or
1/eta_delta (layered): overestimating the force claims stronger limits.

For a laterally infinite slab every one of these forces (the exact one
being the EPFA result) has the form prefactor(lambda) * e^(-a/lambda): the
separation enters only through the exponential. Each lambda therefore gets
the SeparationLaw of its method, which gives the bound (one exp per residual
row, bit-identical to the force functions); for epfa, shift_vs_pfa =
F_pfa/F_epfa comes from that law's curvature factor and the PFA's, without
building the pfa law. limit_shift is the same ratio.
The virtual plate's d2 is a field of both geometry configs (layered: a LayeredSlab).

Residuals are taken as given; no interpolation between tabulated
separations and no statistical machinery. The bundled
data/synthetic_residuals.csv is synthetic demo data, not digitized
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import DegenerateInputError, InputError, PhysicalConstants, YukawaParams
from .layered import LayeredConfig, layered_epfa_force_law, layered_pfa_law, layered_pfa_over_epfa
from .sweeps import SweepGrid
from .yukawa import (SphereSlabConfig, sphere_slab_exact_law, sphere_slab_pfa_law,
                     sphere_slab_pfa_over_exact)

#: Above roughly this Yukawa range the parallel-plate-mapped model deviates
#: appreciably from the exact force; sweep manifests flag these rows.
PFA_RELIABLE_LAMBDA_MAX = 100e-9

METHODS = ("pfa", "epfa")


def _check_entry(previous: float, separation: float, residual: float) -> None:
    """One residual row: separation above the previous one, residual >= 0 (not nan)."""
    if not separation > previous:
        raise InputError("separations must be positive and strictly increasing")
    if not residual >= 0.0:
        raise InputError(f"residual must be >= 0, got {residual}")


@dataclass(frozen=True)
class ResidualBound:
    """Experimental residual-force bound per separation, strictly increasing."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError("residual bound needs at least one entry")
        previous = 0.0
        for separation, residual in self.entries:
            _check_entry(previous, separation, residual)
            previous = separation

    @classmethod
    def from_csv(cls, path: str) -> "ResidualBound":
        """Read `separation_m,residual_N` rows; errors name the offending line."""
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise InputError(f"{path}: empty residual file")
        if lines[0].strip() != "separation_m,residual_N":
            raise InputError(f"{path}:1: header must be 'separation_m,residual_N'")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected two comma-separated fields")
            try:
                separation, residual = float(parts[0]), float(parts[1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: cannot parse {line!r}") from None
            try:
                _check_entry(entries[-1][0] if entries else 0.0, separation, residual)
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            entries.append((separation, residual))
        if not entries:
            raise InputError(f"{path}: no data rows")
        return cls(entries=tuple(entries))


class ExclusionPoint(NamedTuple):
    """Largest |alpha| compatible with the residuals at one lambda (a limits CSV row)."""

    lam: float
    alpha_bound: float
    best_separation: float
    method: str
    shift_vs_pfa: float | None = None  # alpha_epfa/alpha_pfa, epfa method only


def _unit_alpha_laws(geometry):
    """(pfa builder, epfa builder, ratio) for the geometry's alpha = 1 laws.

    Each builder takes (geometry, params, constants) and is called only for a
    law that is read, so a pfa run never pays for or fails on the epfa law;
    ratio(geometry, epfa) is F_pfa/F_epfa from the epfa law's curvature factor.
    """
    if isinstance(geometry, LayeredConfig):
        return layered_pfa_law, layered_epfa_force_law, layered_pfa_over_epfa
    if isinstance(geometry, SphereSlabConfig):
        return sphere_slab_pfa_law, sphere_slab_exact_law, sphere_slab_pfa_over_exact
    raise InputError(f"unsupported geometry {type(geometry).__name__}")


def alpha_limit(lam: float, bounds: ResidualBound, geometry, method: str,
                c: PhysicalConstants = PhysicalConstants()) -> ExclusionPoint:
    """Best alpha bound over all tabulated separations at one lambda.

    Separations whose unit-alpha force underflows to zero cannot constrain
    alpha and are skipped; if none constrains it the input is degenerate.
    epfa computes shift_vs_pfa only after its bound is found.
    """
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")
    p = YukawaParams(alpha=1.0, lam=lam)
    pfa_law, epfa_law, pfa_over_epfa = _unit_alpha_laws(geometry)
    law = (pfa_law if method == "pfa" else epfa_law)(geometry, p, c)
    best: tuple[float, float] | None = None
    for separation, residual in bounds.entries:
        force = abs(law(separation))
        if force == 0.0 or math.isnan(force):
            continue
        bound = residual / force
        if best is None or bound < best[0]:
            best = (bound, separation)
    if best is None:
        raise DegenerateInputError(
            "no separation yields a nonzero unit-alpha force (zero densities, lambda far "
            "below every separation, or for pfa a virtual plate d2 far below lambda)")
    shift = pfa_over_epfa(geometry, law) if method == "epfa" else None
    return ExclusionPoint(lam=lam, alpha_bound=best[0], best_separation=best[1],
                          method=method, shift_vs_pfa=shift)


def exclusion_curve(lambda_grid: SweepGrid, bounds: ResidualBound, geometry, method: str,
                    c: PhysicalConstants = PhysicalConstants()) -> list[ExclusionPoint]:
    """alpha_limit mapped over the lambda grid, in grid order."""
    return [alpha_limit(lam, bounds, geometry, method, c) for lam in lambda_grid.values()]


def limit_shift(lam: float, geometry, c: PhysicalConstants = PhysicalConstants()) -> float:
    """Factor by which the exact-force analysis weakens the pfa-claimed bound.

    alpha_epfa / alpha_pfa = F_pfa / F_epfa = 1/eta (homogeneous geometry)
    or 1/eta_delta (layered), alpha_limit's shift_vs_pfa. Equals e^2/2 at
    lambda = R for a homogeneous sphere over a half-space.
    """
    _, epfa_law, pfa_over_epfa = _unit_alpha_laws(geometry)
    return pfa_over_epfa(geometry, epfa_law(geometry, YukawaParams(alpha=1.0, lam=lam), c))
