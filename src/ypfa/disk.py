"""Edge effects of a finite disk: on-axis forces and top/bottom-of-sphere ratios.

A point test mass m2 sits on the axis of a disk (radius R_d, thickness D1,
density rho1), at height z above its top face. Closed forms are provided for
the Newtonian force, a general power-law force F ~ -K rho1 m2 / r^N (with
the logarithmic special cases N = 1 and N = 3), and the Yukawa force. Each
is validated against 2D quadrature of its point kernel by the oracle module.

The finite-size figures of merit are the ratios of the force at the closest
point of a sphere of radius R (z = a) to the farthest point (z = a + 2R):
xi_gravity, xi_power, xi_yukawa. The Yukawa ratio reaches e^(2R/lambda)
(~ e^3000 for micron-scale spheres at lambda = 0.1 um), so xi_yukawa
returns its natural logarithm.

Numerical notes: the sqrt differences in the Newtonian/power-law brackets
lose ~10 digits for R_d >> z if taken literally; they are rewritten via
conjugate forms and expm1/log1p throughout, and the Yukawa bracket is summed
as two non-negative parts, since its literal form cancels for R_d << z or
lam. The Yukawa potential and the drop C(a) - C(a+2R) behind a near-unity
xi_yukawa are integrals of non-negative integrands for the same reason.
Disk.radius and Disk.thickness may each be INFINITE where the limit exists;
an InputError names the divergence where it does not (N <= 1 with either
infinite, the Newtonian force and N <= 3 with both).
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


def _rim(u: float, rd: float) -> tuple[float, float]:
    """(s, p): the distance s = sqrt(u^2+R_d^2) from a point u above the
    centre of a face to its rim, and p = s - u >= 0 in conjugate form.

    No length is squared, so s and p are accurate to rounding wherever they
    are representable; u = INFINITE gives s = inf and p = 0.
    """
    s = math.hypot(u, rd)
    return s, rd * (rd / (s + u))


def _slant_pieces(z: float, disk: Disk) -> tuple[float, float, float, float]:
    """(s_near, s_far, p1, p2): the axis probe's distances to the rims of the
    top and bottom faces, and p1 = s_near - z, p2 = s_far - (z + D1), both
    >= 0 (_rim). The disk radius must be finite; an INFINITE thickness gives
    s_far = inf and p2 = 0.
    """
    s_near, p1 = _rim(z, disk.radius)
    s_far, p2 = _rim(z + disk.thickness, disk.radius)
    return s_near, s_far, p1, p2


def _grav_bracket(z: float, disk: Disk) -> float:
    """D1 + sqrt(R_d^2+z^2) - sqrt(R_d^2+(z+D1)^2), cancellation-free.

    Rewritten as D1 (S - 2z - D1)/S with the two sqrt-minus-linear pieces in
    conjugate form; every summand is positive. Tends to D1 as R_d -> inf and
    to p1 as D1 -> inf; with both infinite the force diverges.
    """
    if math.isinf(disk.radius):
        if math.isinf(disk.thickness):
            raise InputError("the Newtonian force of a half-space (infinite disk radius and "
                             "thickness) diverges")
        return disk.thickness
    s_near, s_far, p1, p2 = _slant_pieces(z, disk)
    if math.isinf(disk.thickness):
        return p1
    return disk.thickness * (p1 + p2) / (s_near + s_far)


def disk_gravity_force(probe: AxisProbe, disk: Disk,
                       c: PhysicalConstants = PhysicalConstants()) -> float:
    """Newtonian force on the axis probe (N, < 0); -2 pi G rho1 m2 D1 for R_d -> inf."""
    return -2.0 * math.pi * c.G * disk.density * probe.mass * _grav_bracket(probe.z, disk)


def xi_gravity(x: XiInputs) -> float:
    """Newtonian near/far force ratio F(a) / F(a + 2R) for the sphere's poles."""
    return _grav_bracket(x.a, x.disk) / _grav_bracket(x.a + 2.0 * x.sphere_radius, x.disk)


def _power_face(u: float, rd: float, n: float) -> float:
    """(R_d^2+u^2)^((3-n)/2) - u^(3-n), taken without cancelling: the power-law
    bracket of a disk of INFINITE thickness whose top face is u below the probe."""
    return u ** (3.0 - n) * math.expm1((3.0 - n) / 2.0 * math.log1p((rd / u) ** 2))


def _power_force_generic(z: float, disk: Disk, k: float, m2: float, n: float) -> float:
    """The bracket t1 + t2 = B(z) - B(z + D1), B = _power_face.

    t1 = (z+D1)^(3-n) - z^(3-n) and t2, the rims' difference, are each
    large and nearly opposite once D1 passes the near slant distance; there
    B(z + D1) is well below B(z) and their difference does not cancel.
    """
    d1, rd = disk.thickness, disk.radius
    if math.isinf(d1):
        bracket = _power_face(z, rd, n)
    elif d1 > math.hypot(z, rd):
        bracket = _power_face(z, rd, n) - _power_face(z + d1, rd, n)
    else:
        t2 = 0.0 if math.isinf(rd) else pow_diff(rd * rd + z * z, d1 * (2.0 * z + d1),
                                                 (3.0 - n) / 2.0)
        bracket = z ** (3.0 - n) * math.expm1((3.0 - n) * math.log1p(d1 / z)) + t2
    return 2.0 * math.pi * k * disk.density * m2 * bracket / ((n - 1.0) * (n - 3.0))


def _power_force_n1(z: float, disk: Disk, k: float, m2: float) -> float:
    """Logarithmic special case N = 1.

    Every x ln x term carries the disk radius R_d, the only radius in the
    problem (printed variants of this formula sometimes carry a stray
    sphere radius, which is dimensionally inconsistent); the kernel
    quadrature check pins this reading.
    """
    d1, rd = disk.thickness, disk.radius
    delta = d1 * (2.0 * z + d1)
    a_near = z * z + rd * rd
    b_far = (z + d1) * (z + d1) + rd * rd
    bracket = (-xlnx_diff(a_near, b_far, delta)
               + xlnx_diff(z * z, (z + d1) * (z + d1), delta))
    return 0.5 * math.pi * k * disk.density * m2 * bracket


def _power_force_n3(z: float, disk: Disk, k: float, m2: float) -> float:
    d1, rd = disk.thickness, disk.radius
    if math.isinf(d1):
        log_term = math.log1p((rd / z) ** 2)  # the limit D1 -> inf of the form below
    else:
        # log argument (z^2+Rd^2)(z+D1)^2 / (z^2 ((z+D1)^2+Rd^2)), split stably;
        # delta/inf == 0.0 handles the infinite-plane limit by itself.
        delta = d1 * (2.0 * z + d1)
        log_term = 2.0 * math.log1p(d1 / z) - math.log1p(delta / (z * z + rd * rd))
    return -0.5 * math.pi * k * disk.density * m2 * log_term


def disk_power_force(probe: AxisProbe, disk: Disk, pl: PowerLawParams) -> float:
    """Power-law force on the axis probe (N, < 0 for attraction).

    Exactly n == 1.0 and n == 3.0 use their dedicated logarithmic closed
    forms; other exponents within POLE_GUARD of those values raise
    PoleProximityError rather than evaluating a 0/0 expression. Where the
    force diverges (n <= 1 with an INFINITE radius or thickness, n <= 3 with
    both) it raises InputError.
    """
    z, m2, n = probe.z, probe.mass, pl.n
    rd_inf, d1_inf = math.isinf(disk.radius), math.isinf(disk.thickness)
    if n <= 3.0 and rd_inf and d1_inf:
        raise InputError(f"the power-law force of a half-space (infinite disk radius and "
                         f"thickness) diverges for n = {n} <= 3")
    if n <= 1.0 and (rd_inf or d1_inf):
        raise InputError(f"the power-law force of a disk of infinite radius or thickness "
                         f"diverges for n = {n} <= 1")
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
    C -> (1 - e^(-D1/lam)) as R_d -> inf, to 1 - e^(-p1/lam) as D1 -> inf
    (p2 = 0) and, as lam -> inf, to (D1/lam) times the Newtonian bracket.
    0 < C <= 1.
    """
    d1, rd = disk.thickness, disk.radius
    main = one_minus_exp(d1 / lam)
    if math.isinf(rd):
        return main
    s_near, s_far, p1, p2 = _slant_pieces(z, disk)
    if math.isinf(d1):
        p1_minus_p2 = p1  # p2 = 0
    else:
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


def _graded_integral(f, first: float, d1: float, log_bound) -> float:
    """integral_0^D1 f(v) dv on Gauss-Legendre panels graded geometrically from v = 0.

    The first panel is `first` wide and each next one twice as wide. f is
    analytic with its features at v <= 0 (branch points sqrt(z^2+R_d^2) from
    the lower end) or of scale lam, and falls by at least one e-folding per
    lam of v; with `first` no larger than either distance, every panel is no
    wider than its distance from both, so fixed-order panels evaluate f
    deterministically to its own rounding (1e-15 relative). The ladder stops
    once log_bound(lo), a non-increasing bound on ln f beyond lo, is below
    _EDGE_UNDERFLOW, where every remaining term is 0.0; D1 may be INFINITE.
    """
    nodes, weights = gauss_legendre(_EDGE_PANEL_ORDER)
    total = 0.0
    lo, hi = 0.0, min(first, d1)
    while log_bound(lo) >= _EDGE_UNDERFLOW:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * math.fsum(w * f(mid + half * t) for t, w in zip(nodes, weights))
        if hi == d1:
            break
        lo, hi = hi, min(2.0 * hi, d1)
    return total


def disk_yukawa_potential(probe: AxisProbe, disk: Disk, p: YukawaParams,
                          c: PhysicalConstants = PhysicalConstants()) -> float:
    """Exact Yukawa potential energy of the axis probe (J, < 0).

    U(z) = -2 pi alpha G rho1 m2 e^(-z/lam)
           * integral_0^D1 e^(-v/lam) lam (1 - e^(-p(z+v)/lam)) dv,

    p(u) = sqrt(u^2+R_d^2) - u (_rim). The integral over the depth v below
    the probe is lam^2 (1 - e^(-D1/lam)) minus the finite-radius edge
    integral, which has no elementary form; its integrand is non-negative,
    so nothing cancels when the disk is small (the two terms agree to
    R_d^2/(z lam)). lam (1 - e^(-p/lam)) is taken as p (1 - e^(-x))/x,
    x = p/lam, which stays normal at any lam. -dU/dz equals
    disk_yukawa_force; for R_d -> inf this is the laterally infinite slab
    potential.
    """
    lam, z, rd = p.lam, probe.z, disk.radius
    prefactor = -2.0 * math.pi * p.alpha * c.G * disk.density * probe.mass
    if math.isinf(rd):
        return prefactor * lam * math.exp(-z / lam) * (lam * one_minus_exp(disk.thickness / lam))

    def integrand(v: float) -> float:
        # x = p/lam alone underflows past lam ~ 1e160 m, where U still grows as ln lam
        gap = _rim(z + v, rd)[1]
        x = gap / lam
        return math.exp(-v / lam) * gap * (one_minus_exp(x) / x if x > 0.0 else 1.0)

    return prefactor * math.exp(-z / lam) * _graded_integral(
        integrand, min(lam, math.hypot(z, rd)), disk.thickness, lambda v: -v / lam)


def _bracket_drop(z: float, delta: float, disk: Disk, lam: float) -> float:
    """C(z) - C(z + delta) >= 0 for a finite disk, as one non-negative integral.

    C(z) = (1/lam) integral_0^D1 e^(-v/lam) (1 - q(z+v)) dv with
    q(u) = (u/s) e^(-p(u)/lam) = e^(-phi(u)), phi(u) = ln(s/u) + p(u)/lam,
    s = sqrt(u^2+R_d^2), p = s - u. phi falls with u, so with u1 = z + v and
    u2 = u1 + delta the integrand of the drop is
    e^(-v/lam - phi(u2)) (1 - e^(-(phi(u1) - phi(u2)))), where
        phi(u1) - phi(u2) = log1p(R_d^2 delta (u1+u2) / (u1^2 s2^2)) / 2
                            + delta (p1+p2) / ((s1+s2) lam)
    is a sum of products in the exact step delta. Its log is below
    -(s(u2) - (z + delta))/lam, which falls with v.
    """
    d1, rd = disk.thickness, disk.radius

    def integrand(v: float) -> float:
        u1 = z + v
        u2 = u1 + delta
        (s1, p1), (s2, p2) = _rim(u1, rd), _rim(u2, rd)
        phi_drop = (0.5 * math.log1p(rd * rd * delta * (u1 + u2) / (u1 * u1 * s2 * s2))
                    + delta * (p1 + p2) / ((s1 + s2) * lam))
        return (math.exp(-v / lam - 0.5 * math.log1p((rd / u2) ** 2) - p2 / lam)
                * one_minus_exp(phi_drop))

    return _graded_integral(integrand, min(lam, math.hypot(z, rd)), d1,
                            lambda v: -(v + _rim(z + delta + v, rd)[1]) / lam) / lam


#: xi_yukawa keeps ln C(a) - ln C(a+2R) from two logs while the result is at
#: least this times (1 + |ln C(a)| + |ln C(a+2R)|), so the logs' rounding
#: stays below 1e-13 of it; closer ratios take the drop integral.
_XI_DIRECT = 1e-2


def xi_yukawa(x: XiInputs, p: YukawaParams) -> float:
    """ln of the Yukawa near/far ratio, 2R/lam + ln C(a) - ln C(a+2R).

    Computed in log space throughout: the ratio itself reaches e^(2R/lam)
    and is unrepresentable for lam << R. Where C(a) and C(a+2R) agree so
    closely that subtracting their logs would cancel, the bracket term is
    log1p((C(a) - C(a+2R))/C(a+2R)) with the drop from _bracket_drop.
    """
    lam = p.lam
    far_z = x.a + 2.0 * x.sphere_radius
    near, far = _yukawa_bracket(x.a, x.disk, lam), _yukawa_bracket(far_z, x.disk, lam)
    ln_near, ln_far = math.log(near), math.log(far)
    value = 2.0 * x.sphere_radius / lam + (ln_near - ln_far)
    if value >= _XI_DIRECT * (1.0 + abs(ln_near) + abs(ln_far)) or math.isinf(x.disk.radius):
        return value
    return (2.0 * x.sphere_radius / lam
            + math.log1p(_bracket_drop(x.a, 2.0 * x.sphere_radius, x.disk, lam) / far))
