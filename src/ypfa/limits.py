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
being the EPFA result) has the form prefactor(lambda) * e^(-a/lambda). Each
geometry config supplies its laws and ratio: geometry.law(method, p) is
that method's SeparationLaw, which gives the bound (one exp per residual row,
bit-identical to the force functions); for epfa, shift_vs_pfa =
geometry.pfa_over_epfa(law) = F_pfa/F_epfa, without building the pfa law.
limit_shift is the same ratio. Rows whose unit-alpha force is zero,
subnormal (too imprecise to bound alpha) or nan are skipped. The virtual
plate's d2 is a field of both geometry configs (layered: a LayeredSlab).

The force laws use the CODATA G_DEFAULT, and every one is alpha G times a
G-free factor. A bound relative to another gravitational constant g is
therefore taken with alpha = g / G_DEFAULT as the unit coupling, which is
exactly 1.0 at the default.

Residuals are taken as given; no interpolation between tabulated
separations and no statistical machinery. The bundled
data/synthetic_residuals.csv is synthetic demo data, not digitized
measurements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .core import (G_DEFAULT, DegenerateInputError, InputError, YukawaParams, check_method,
                   read_text)
from .sweeps import SweepGrid


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
        lines = read_text(path).splitlines()
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


def alpha_limit(lam: float, bounds: ResidualBound, geometry, method: str,
                g: float = G_DEFAULT) -> ExclusionPoint:
    """Best alpha bound over all tabulated separations at one lambda, relative to G = g.

    The unit-alpha force at G = g is the law at alpha = g / G_DEFAULT, which
    must be finite and > 0. Separations whose unit-alpha force is zero,
    subnormal, nan or overflows to inf (where residual / inf would bound
    alpha by 0) are skipped; if none is left the input is degenerate.
    geometry supplies law and pfa_over_epfa; epfa computes shift_vs_pfa only
    after its bound is found.
    """
    check_method(method)  # the law checks it too, but only after the G check
    unit = g / G_DEFAULT
    if not 0.0 < unit < math.inf:
        raise InputError(f"G must be finite, > 0 and below {sys.float_info.max * G_DEFAULT:.3g} "
                         f"(G / G_DEFAULT must not overflow), got {g}")
    law = geometry.law(method, YukawaParams(alpha=unit, lam=lam))
    best: tuple[float, float] | None = None
    for separation, residual in bounds.entries:
        force = abs(law(separation))
        if not sys.float_info.min <= force <= sys.float_info.max:
            continue
        bound = residual / force
        if best is None or bound < best[0]:
            best = (bound, separation)
    if best is None:
        raise DegenerateInputError(
            f"at lambda = {lam:g} m no separation yields a normal (not zero, subnormal or "
            "overflowing) unit-alpha force (zero densities, lambda far below every "
            "separation, for pfa d2 far below lambda, or densities and lambda so large that "
            "the force overflows)")
    shift = geometry.pfa_over_epfa(law) if method == "epfa" else None
    return ExclusionPoint(lam=lam, alpha_bound=best[0], best_separation=best[1],
                          method=method, shift_vs_pfa=shift)


def exclusion_curve(lambda_grid: SweepGrid, bounds: ResidualBound, geometry, method: str,
                    g: float = G_DEFAULT) -> list[ExclusionPoint]:
    """alpha_limit mapped over the lambda grid, in grid order."""
    return [alpha_limit(lam, bounds, geometry, method, g) for lam in lambda_grid.values()]


def limit_shift(lam: float, geometry) -> float:
    """Factor by which the exact-force analysis weakens the pfa-claimed bound.

    alpha_epfa / alpha_pfa = F_pfa / F_epfa = 1/eta (homogeneous geometry)
    or 1/eta_delta (layered), alpha_limit's shift_vs_pfa. Equals e^2/2 at
    lambda = R for a homogeneous sphere over a half-space.
    """
    return geometry.pfa_over_epfa(geometry.law("epfa", YukawaParams(alpha=1.0, lam=lam)))
