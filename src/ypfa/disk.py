"""Edge effects of a finite disk: on-axis forces and top/bottom-of-sphere ratios.

A point test mass m2 sits on the axis of a disk (radius R_d, thickness D1,
density rho1), at height z above its top face. Closed forms are provided for
the Newtonian force, a general power-law force F ~ -K rho1 m2 / r^N (with
the logarithmic special cases N = 1 and N = 3), and the Yukawa force. Each
is validated against 2D quadrature of its point kernel by the oracle module.

The finite-size figures of merit are the ratios of the force at the closest
point of a sphere of radius R (z = a) to the farthest point (z = a + 2R):
xi_gravity, xi_power, xi_yukawa. The Yukawa ratio reaches e^(2R/lambda)
(~ e^3000 for micron-scale spheres at lambda = 0.1 um), so it is exposed
only as a natural logarithm (LogRatio).

Numerical notes: the sqrt differences in the Newtonian/power-law brackets
lose ~10 digits for R_d >> z if taken literally; they are rewritten via
conjugate forms and expm1/log1p throughout, and the Yukawa bracket is summed
as two non-negative parts, since its literal form cancels for R_d << z or lam. Disk.radius may be INFINITE
where the limit exists (Newtonian, N = 3, Yukawa); the general power law
requires a finite disk for N <= 1, where the infinite-plane force diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Disk, InputError, PhysicalConstants, PoleProximityError, PowerLawParams,
                   YukawaParams)
from .numerics import gauss_legendre, one_minus_exp, pow_diff, xlnx_diff

#: Exponents within this distance of N = 1 or N = 3 (but not exactly equal)
#: are rejected: the generic closed form is 0/0 there and no interpolating
#: formula exists.
POLE_GUARD = 1e-6

_EDGE_PANEL_ORDER = 16
#: exp of an exponent below this is 0.0 in double precision (e^-745.2 is the
#: smallest subnormal), so the edge integrand contributes nothing past it
_EDGE_UNDERFLOW = -746.0


@dataclass(frozen=True)
class AxisProbe:
    """Point test mass on the disk axis, z above the top face."""

    z: float
    mass: float = 1.0

    def __post_init__(self):
        if not self.z > 0.0:
            raise InputError(f"probe height must be > 0, got {self.z}")


@dataclass(frozen=True)
class XiInputs:
    """Sphere (radius R, closest gap a) above the centre of a finite disk."""

    a: float
    sphere_radius: float
    disk: Disk

    def __post_init__(self):
        if not self.a > 0.0:
            raise InputError(f"gap must be > 0, got {self.a}")
        if not self.sphere_radius > 0.0:
            raise InputError(f"sphere radius must be > 0, got {self.sphere_radius}")


@dataclass(frozen=True)
class LogRatio:
    """Natural log of a positive ratio too extreme to hold as a float."""

    ln_value: float

    def ratio(self) -> float:
        """exp(ln_value); +inf when not representable."""
        try:
            return math.exp(self.ln_value)
        except OverflowError:
            return math.inf


def _slant_pieces(z: float, disk: Disk) -> tuple[float, float, float, float]:
    """(s_near, s_far, p1, p2): the axis probe's distances to the rims of the
    top and bottom faces, and p1 = s_near - z, p2 = s_far - (z + D1), both
    >= 0, in conjugate form. The disk radius must be finite.
    """
    d1, rd = disk.thickness, disk.radius
    s_near = math.sqrt(rd * rd + z * z)
    s_far = math.sqrt(rd * rd + (z + d1) * (z + d1))
    return s_near, s_far, rd * rd / (s_near + z), rd * rd / (s_far + z + d1)


def _grav_bracket(z: float, disk: Disk) -> float:
    """D1 + sqrt(R_d^2+z^2) - sqrt(R_d^2+(z+D1)^2), cancellation-free.

    Rewritten as D1 (S - 2z - D1)/S with the two sqrt-minus-linear pieces in
    conjugate form; every summand is positive. Tends to D1 as R_d -> inf.
    """
    if math.isinf(disk.radius):
        return disk.thickness
    s_near, s_far, p1, p2 = _slant_pieces(z, disk)
    return disk.thickness * (p1 + p2) / (s_near + s_far)


def disk_gravity_force(probe: AxisProbe, disk: Disk,
                       c: PhysicalConstants = PhysicalConstants()) -> float:
    """Newtonian force on the axis probe (N, < 0); -2 pi G rho1 m2 D1 for R_d -> inf."""
    return -2.0 * math.pi * c.G * disk.density * probe.mass * _grav_bracket(probe.z, disk)


def xi_gravity(x: XiInputs) -> float:
    """Newtonian near/far force ratio F(a) / F(a + 2R) for the sphere's poles."""
    return _grav_bracket(x.a, x.disk) / _grav_bracket(x.a + 2.0 * x.sphere_radius, x.disk)


def _power_force_generic(z: float, disk: Disk, k: float, m2: float, n: float) -> float:
    d1, rd = disk.thickness, disk.radius
    if math.isinf(rd):
        if n <= 1.0:
            raise InputError("power-law force diverges on an infinite plane for n <= 1")
        t2 = 0.0
    else:
        t2 = pow_diff(rd * rd + z * z, d1 * (2.0 * z + d1), (3.0 - n) / 2.0)
    t1 = z ** (3.0 - n) * math.expm1((3.0 - n) * math.log1p(d1 / z))
    return 2.0 * math.pi * k * disk.density * m2 * (t1 + t2) / ((n - 1.0) * (n - 3.0))


def _power_force_n1(z: float, disk: Disk, k: float, m2: float) -> float:
    """Logarithmic special case N = 1.

    Every x ln x term carries the disk radius R_d, the only radius in the
    problem (printed variants of this formula sometimes carry a stray
    sphere radius, which is dimensionally inconsistent); the kernel
    quadrature check pins this reading.
    """
    d1, rd = disk.thickness, disk.radius
    if math.isinf(rd):
        raise InputError("the N = 1 disk force diverges as R_d -> inf")
    delta = d1 * (2.0 * z + d1)
    a_near = z * z + rd * rd
    b_far = (z + d1) * (z + d1) + rd * rd
    bracket = (-xlnx_diff(a_near, b_far, delta)
               + xlnx_diff(z * z, (z + d1) * (z + d1), delta))
    return 0.5 * math.pi * k * disk.density * m2 * bracket


def _power_force_n3(z: float, disk: Disk, k: float, m2: float) -> float:
    d1, rd = disk.thickness, disk.radius
    # log argument (z^2+Rd^2)(z+D1)^2 / (z^2 ((z+D1)^2+Rd^2)), split stably;
    # delta/inf == 0.0 handles the infinite-plane limit by itself.
    delta = d1 * (2.0 * z + d1)
    log_term = 2.0 * math.log1p(d1 / z) - math.log1p(delta / (z * z + rd * rd))
    return -0.5 * math.pi * k * disk.density * m2 * log_term


def disk_power_force(probe: AxisProbe, disk: Disk, pl: PowerLawParams) -> float:
    """Power-law force on the axis probe (N, < 0 for attraction).

    Exactly n == 1.0 and n == 3.0 use their dedicated logarithmic closed
    forms; other exponents within POLE_GUARD of those values raise
    PoleProximityError rather than evaluating a 0/0 expression.
    """
    z, m2, n = probe.z, probe.mass, pl.n
    try:
        if n == 1.0:
            return _power_force_n1(z, disk, pl.k, m2)
        if n == 3.0:
            return _power_force_n3(z, disk, pl.k, m2)
        if abs(n - 1.0) <= POLE_GUARD or abs(n - 3.0) <= POLE_GUARD:
            raise PoleProximityError(
                f"exponent {n} is within {POLE_GUARD} of an integrable pole; "
                "use exactly 1.0 or 3.0 for the special-case formulas")
        return _power_force_generic(z, disk, pl.k, m2, n)
    except OverflowError:
        raise InputError(f"power-law force overflows for n={n} at this geometry") from None


def xi_power(x: XiInputs, n: float) -> float:
    """Power-law near/far ratio F_N(a)/F_N(a + 2R); unity only for N = 2, R_d -> inf."""
    pl = PowerLawParams(k=1.0, n=n)
    near = disk_power_force(AxisProbe(x.a), x.disk, pl)
    far = disk_power_force(AxisProbe(x.a + 2.0 * x.sphere_radius), x.disk, pl)
    return near / far


def _yukawa_bracket(z: float, disk: Disk, lam: float) -> float:
    """Edge-corrected thickness factor C(z) of the exact disk Yukawa force.

        F(z) = -2 pi alpha G rho1 m2 lam e^(-z/lam) C(z),
        C(z) = (1 - e^(-D1/lam)) - e^(-p1/lam) + e^(-(p2+D1)/lam)
             = e^(-p2/lam) (1 - e^(-(p1-p2)/lam)) + (1 - e^(-D1/lam)) (1 - e^(-p2/lam)),

    with p1 = sqrt(z^2+R_d^2) - z >= p2 = sqrt((z+D1)^2+R_d^2) - (z+D1) from
    _slant_pieces. The second line adds two non-negative parts, and p1 - p2
    = R_d^2 D1 (1 + (2z+D1)/S) / ((s_near+z)(s_far+z+D1)), S = s_near + s_far,
    is a product too, so nothing cancels when R_d << z or R_d << lam.
    C -> (1 - e^(-D1/lam)) as R_d -> inf and, as lam -> inf, to (D1/lam)
    times the Newtonian bracket. 0 < C <= 1.
    """
    d1, rd = disk.thickness, disk.radius
    main = one_minus_exp(d1 / lam)
    if math.isinf(rd):
        return main
    s_near, s_far, _, p2 = _slant_pieces(z, disk)
    p1_minus_p2 = (rd * rd * d1 * (1.0 + (2.0 * z + d1) / (s_near + s_far))
                   / ((s_near + z) * (s_far + z + d1)))
    return math.exp(-p2 / lam) * one_minus_exp(p1_minus_p2 / lam) + main * one_minus_exp(p2 / lam)


def disk_yukawa_force(probe: AxisProbe, disk: Disk, p: YukawaParams,
                      c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact Yukawa force on the axis probe (N, < 0), -dU/dz of the potential.

    The finite-radius corrections inside the bracket fall off as
    e^(-R_d^2/((z+s) lam)) ~ e^(-R_d/lam); at R_d = 50 lam they are already
    below e^(-45) of the leading term.
    """
    lam = p.lam
    return (-2.0 * math.pi * p.alpha * c.G * disk.density * probe.mass * lam
            * math.exp(-probe.z / lam) * _yukawa_bracket(probe.z, disk, lam))


def _edge_integral_scaled(z: float, disk: Disk, lam: float) -> float:
    """e^(z/lam) * integral_z^(z+D1) e^(-sqrt(u^2+R_d^2)/lam) du.

    Taken over the offset v = u - z in [0, D1], so nodes and panel widths keep
    full relative precision however large z is. The exponent
    (z - sqrt(u^2+R_d^2))/lam is <= 0, falls by at most one e-folding per lam
    of v, and has branch points at u = +-i R_d, sqrt(z^2+R_d^2) from the
    lower end. Fixed-order Gauss-Legendre panels graded geometrically from
    v = 0, the first min(lam, sqrt(z^2+R_d^2)) wide and each next one twice
    as wide, therefore evaluate it deterministically to the rounding of the
    exponent itself (1e-15 relative for O(1) exponents): every panel is no
    wider than its distance from both features. The ladder stops once the
    exponent is below _EDGE_UNDERFLOW, where every remaining term is 0.0.
    """
    d1, rd = disk.thickness, disk.radius
    if math.isinf(rd):
        return 0.0
    nodes, weights = gauss_legendre(_EDGE_PANEL_ORDER)

    def exponent(v: float) -> float:
        # (z - sqrt(u^2 + rd^2))/lam at u = z + v, in conjugate form
        u = z + v
        return -(rd * rd + v * (v + 2.0 * z)) / (z + math.sqrt(u * u + rd * rd)) / lam

    total = 0.0
    lo, hi = 0.0, min(lam, math.hypot(z, rd), d1)
    while exponent(lo) >= _EDGE_UNDERFLOW:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * math.fsum(w * math.exp(exponent(mid + half * t))
                                  for t, w in zip(nodes, weights))
        if hi == d1:
            break
        lo, hi = hi, min(2.0 * hi, d1)
    return total


def disk_yukawa_potential(probe: AxisProbe, disk: Disk, p: YukawaParams,
                          c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact Yukawa potential energy of the axis probe (J, < 0).

    U(z) = -2 pi alpha G rho1 m2 lam e^(-z/lam)
           * [ lam (1 - e^(-D1/lam)) - Ie(z) ],

    where Ie is the finite-radius edge integral (see _edge_integral_scaled);
    the edge term has no elementary form. -dU/dz equals disk_yukawa_force;
    for R_d -> inf this is the laterally infinite slab potential.
    """
    lam = p.lam
    inner = lam * one_minus_exp(disk.thickness / lam) - _edge_integral_scaled(probe.z, disk, lam)
    return (-2.0 * math.pi * p.alpha * c.G * disk.density * probe.mass * lam
            * math.exp(-probe.z / lam) * inner)


def xi_yukawa(x: XiInputs, p: YukawaParams) -> LogRatio:
    """ln of the Yukawa near/far ratio, 2R/lam + ln C(a) - ln C(a+2R).

    Computed in log space throughout: the ratio itself reaches e^(2R/lam)
    and is unrepresentable for lam << R.
    """
    lam = p.lam
    far_z = x.a + 2.0 * x.sphere_radius
    ln_bracket_ratio = (math.log(_yukawa_bracket(x.a, x.disk, lam))
                        - math.log(_yukawa_bracket(far_z, x.disk, lam)))
    return LogRatio(ln_value=2.0 * x.sphere_radius / lam + ln_bracket_ratio)
