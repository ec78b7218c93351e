"""Edge effects of a finite disk: on-axis forces and top/bottom-of-sphere ratios.

A 1 kg point test mass sits on the axis of a disk (radius R_d, thickness D1,
density rho1), at height z above its top face. Closed forms are provided for
the Newtonian force, a general power-law force F ~ -K rho1 / r^N (one
form for every N != 1, and the logarithmic special case N = 1), and the
Yukawa force. Each is validated by the oracle module against quadrature of
its point kernel over the disk depth, with each layer's radial integral
taken in closed form there.

The finite-size figures of merit are the ratios of the force at the closest
point of a sphere of radius R (z = a) to the farthest point (z = a + 2R):
xi_power (the Newtonian ratio is its N = 2 case) and xi_yukawa. The Yukawa
ratio reaches e^(2R/lambda) (~ e^3000 for micron-scale spheres at
lambda = 0.1 um), so xi_yukawa returns its natural logarithm.

Numerical notes: every bracket is built from the rims of the two faces,
s = sqrt(u^2+R_d^2), p = s - u and L = ln(s/u) at u = z and z + D1 (_rim),
and from their differences p1 - p2, L1 - L2 and ln(s2/s1), which _rim_drop
writes in the exact step D1; taken literally these lose all digits for
R_d << z. No length is squared outside the N = 1 power law, whose force
is itself of order R_d^2, and the Yukawa potential, which takes R_d^2 out
of its depth integrand and multiplies it back last. The Yukawa bracket is
summed as two non-negative parts, and the Yukawa potential and the drop
C(a) - C(a+2R) behind a near-unity xi_yukawa are integrals of non-negative
integrands for the same reason. Disk.radius and Disk.thickness may each be
INFINITE where the limit exists; an InputError names the divergence where
it does not (N <= 1 with either infinite, the Newtonian force and N <= 3
with both), and on a disk of INFINITE thickness the depth integrals and
xi_yukawa refuse lambda above about 2.4e305 m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (G_DEFAULT, DegenerateInputError, Disk, InputError, PoleProximityError,
                   PowerLawParams, YukawaParams)
from .numerics import gauss_legendre, one_minus_exp

#: Exponents within this distance of N = 1 (but not exactly 1) are rejected:
#: the N != 1 form is 0/0 there, and its bracket, of order N - 1, cancels.
POLE_GUARD = 1e-6

_EDGE_PANEL_ORDER = 16
#: exp of an exponent below this is 0.0 in double precision (e^-745.2 is the
#: smallest subnormal), so the edge integrand contributes nothing past it
_EDGE_UNDERFLOW = -746.0
#: the edge ladder of a disk of INFINITE thickness may not pass the largest
#: double, and its integrand, falling as e^(-v/lam), underflows there only
#: for lam up to this
_LAMBDA_MAX_THICK = sys.float_info.max / -_EDGE_UNDERFLOW
_LAMBDA_MAX_THICK_REFUSAL = (f"on a disk of infinite thickness lambda must be below about "
                             f"{_LAMBDA_MAX_THICK:.3g} m")
#: below this R_d / z the N = 1 power-law bracket takes its far-field form
_FAR_FIELD = 2.0 ** -27


@dataclass(frozen=True)
class AxisProbe:
    """Point test mass of 1 kg on the disk axis, z above the top face."""

    z: float

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


def _rim_drop(u: float, delta: float, rd: float) -> tuple[float, float, float, float]:
    """(p2, p1 - p2, L1 - L2, ln(s2/s1)) between the rims seen from u1 = u and
    u2 = u + delta, with s, p from _rim and L = ln(s/u) = log1p(p/u).

    The three drops are written in the exact step delta,

        p1 - p2 = delta (p1 + p2)/(s1 + s2),
        L1 - L2 = log1p(delta/s2 ((p1 + p2)/(s1 + s2) + p1/u1)),
        ln(s2/s1) = log1p((s2 - s1)/s1),  s2 - s1 = delta (u1 + u2)/(s1 + s2),

    from sums of non-negative terms, so nothing cancels when R_d << u, and
    each takes a ratio of lengths before it multiplies by one, so no product
    of two lengths under- or overflows. R_d must be finite; an INFINITE
    delta gives (0, p1, L1, inf).
    """
    s1, p1 = _rim(u, rd)
    if math.isinf(delta):
        return 0.0, p1, math.log1p(p1 / u), math.inf
    u2 = u + delta
    s2, p2 = _rim(u2, rd)
    s_sum = s1 + s2
    slope = (p1 + p2) / s_sum
    return (p2, delta * slope, math.log1p(delta / s2 * (slope + p1 / u)),
            math.log1p(delta / s1 * ((u + u2) / s_sum)))


def _grav_bracket(z: float, disk: Disk) -> float:
    """D1 + sqrt(R_d^2+z^2) - sqrt(R_d^2+(z+D1)^2) = p1 - p2 (_rim_drop).

    Tends to D1 as R_d -> inf and to p1 as D1 -> inf; with both infinite the
    force diverges.
    """
    if math.isinf(disk.radius):
        if math.isinf(disk.thickness):
            raise InputError("the Newtonian force of a half-space (infinite disk radius and "
                             "thickness) diverges")
        return disk.thickness
    return _rim_drop(z, disk.thickness, disk.radius)[1]


def disk_gravity_force(probe: AxisProbe, disk: Disk) -> float:
    """Newtonian force on the axis probe (N, < 0); -2 pi G rho1 D1 for R_d -> inf."""
    return -2.0 * math.pi * G_DEFAULT * disk.density * _grav_bracket(probe.z, disk)


def _expm1_over(m: float, x: float) -> float:
    """E(m, x) = expm1(m x)/m, and its limit x where m == 0 or m x == 0."""
    mx = m * x
    return x if m == 0.0 or mx == 0.0 else math.expm1(mx) / m


def _power_force(z: float, disk: Disk, k: float, n: float) -> float:
    """Power-law force from the rim drops of _rim_drop, with m = 3 - N.

    For N != 1, F = 2 pi K rho1 (B(z) - B(z + D1)) / ((N-1)(N-3)) with
    B(u) = s^m - u^m, and B(z) - B(z + D1) = m [z^m E(m, L1 - L2)
    - s1^m E(m, ln(s2/s1)) (1 - e^(-m L2))], which has no pole at N = 3
    (m = 0). R_d = INFINITE leaves z^m E(m, log1p(D1/z)), and D1 = INFINITE
    (L2 = 0) leaves z^m E(m, L1). At N = 1 the limit is

        F = -pi K rho1 [D1 (2z + D1) L2 - z^2 (L1 - L2) + R_d^2 ln(s2/s1)],

    the one form here that squares lengths; its force is itself of order
    R_d^2. Its bracket is at most R_d^2 D1 / z, and is taken as 0 where that
    bound underflows (z^2 may overflow there). Far above the disk
    (R_d < 2^-27 z) the first two terms nearly cancel and L1 - L2 goes
    subnormal, then 0, so there the bracket is its far-field form
    R_d^2 ln(s2/s1), whose neglected part is below (R_d/z)^2 / 2 of it:
    less than half an ulp. Every x ln x term carries the disk radius R_d,
    the only radius in the problem (printed variants of this formula
    sometimes carry a stray sphere radius, which is dimensionally
    inconsistent); the kernel quadrature check pins this reading.
    """
    d1, rd, m = disk.thickness, disk.radius, 3.0 - n
    if math.isinf(rd):
        bracket = z ** m * _expm1_over(m, math.log1p(d1 / z))
    else:
        p2, _, l_drop, ln_s = _rim_drop(z, d1, rd)
        l2 = math.log1p(p2 / (z + d1))
        if n == 1.0:
            if rd * (rd * (d1 / z)) < sys.float_info.min:
                bracket = 0.0
            elif rd < _FAR_FIELD * z:
                bracket = rd * (rd * ln_s)
            else:
                bracket = d1 * (2.0 * z + d1) * l2 - z * z * l_drop + rd * rd * ln_s
            return -math.pi * k * disk.density * bracket
        bracket = z ** m * _expm1_over(m, l_drop)
        if l2 > 0.0:  # else the far term is 0, and ln_s is inf at D1 = INFINITE
            bracket -= math.hypot(z, rd) ** m * _expm1_over(m, ln_s) * one_minus_exp(m * l2)
    return 2.0 * math.pi * k * disk.density * bracket / (1.0 - n)


def disk_power_force(probe: AxisProbe, disk: Disk, pl: PowerLawParams) -> float:
    """Power-law force on the axis probe (N, < 0 for attraction).

    Exactly n == 1.0 takes its logarithmic limit; other exponents within
    POLE_GUARD of 1 raise PoleProximityError, and every other exponent,
    n = 3 included, takes the one N != 1 form of _power_force. Where the
    force diverges (n <= 1 with an INFINITE radius or thickness, n <= 3 with
    both) it raises InputError, and so it does where the rim ratio R_d / z
    (D1 / z for an INFINITE radius) overflows: _rim_drop's p1 / z is inf there.
    """
    z, n = probe.z, pl.n
    rd_inf, d1_inf = math.isinf(disk.radius), math.isinf(disk.thickness)
    if n <= 3.0 and rd_inf and d1_inf:
        raise InputError(f"the power-law force of a half-space (infinite disk radius and "
                         f"thickness) diverges for n = {n} <= 3")
    if n <= 1.0 and (rd_inf or d1_inf):
        raise InputError(f"the power-law force of a disk of infinite radius or thickness "
                         f"diverges for n = {n} <= 1")
    if n != 1.0 and abs(n - 1.0) <= POLE_GUARD:
        raise PoleProximityError(
            f"exponent {n} is within {POLE_GUARD} of the pole at 1; "
            "use exactly 1.0 for the special-case formula")
    span = disk.thickness if rd_inf else disk.radius
    if not math.isinf(span) and span / z > sys.float_info.max:
        raise InputError(f"the power-law force at height z = {z!r} m is out of range: "
                         f"{'D1' if rd_inf else 'R_d'} = {span:g} m over z overflows")
    try:
        return _power_force(z, disk, pl.k, n)
    except OverflowError:
        raise InputError(f"power-law force overflows for n={n} at this geometry") from None


def xi_power(x: XiInputs, n: float) -> float:
    """Power-law near/far ratio F_N(a)/F_N(a + 2R); unity only for N = 2, R_d -> inf.

    A disk of zero density, a force that underflows (zero or subnormal) or is
    not finite, or a ratio that overflows leaves no ratio: DegenerateInputError.
    """
    pl = PowerLawParams(k=1.0, n=n)
    heights = (x.a, x.a + 2.0 * x.sphere_radius)
    forces = [disk_power_force(AxisProbe(z), x.disk, pl) for z in heights]
    if x.disk.density == 0.0:
        raise DegenerateInputError(f"xi_power is 0/0: the power-law force of a disk of "
                                   f"density {x.disk.density} is zero")
    near, far = (_normal(force, "the power-law force", z) for z, force in zip(heights, forces))
    return _normal(near / far, "xi_power", x.a)


def _normal(value: float, name: str, z: float) -> float:
    """value, or DegenerateInputError naming it and z where it underflows (zero
    or subnormal) or is not finite (inf, as from an infinite density, or nan)."""
    if abs(value) < sys.float_info.min:
        raise DegenerateInputError(f"{name} underflows to {value!r} at height z = {z!r} m")
    if not math.isfinite(value):
        raise DegenerateInputError(f"{name} is {value!r}, not finite, at height z = {z!r} m")
    return value


def _yukawa_bracket(z: float, disk: Disk, lam: float) -> float:
    """Edge-corrected thickness factor C(z) of the exact disk Yukawa force.

        F(z) = -2 pi alpha G rho1 lam e^(-z/lam) C(z),
        C(z) = (1 - e^(-D1/lam)) - e^(-p1/lam) + e^(-(p2+D1)/lam)
             = e^(-p2/lam) (1 - e^(-(p1-p2)/lam)) + (1 - e^(-D1/lam)) (1 - e^(-p2/lam)),

    with p1 = sqrt(z^2+R_d^2) - z >= p2 = sqrt((z+D1)^2+R_d^2) - (z+D1) and
    p1 - p2 from _rim_drop. The second line adds two non-negative parts, so
    nothing cancels when R_d << z or R_d << lam.
    C -> (1 - e^(-D1/lam)) as R_d -> inf, to 1 - e^(-p1/lam) as D1 -> inf
    (p2 = 0) and, as lam -> inf, to (D1/lam) times the Newtonian bracket.
    0 < C <= 1.
    """
    main = one_minus_exp(disk.thickness / lam)
    if math.isinf(disk.radius):
        return main
    p2, p_drop, _, _ = _rim_drop(z, disk.thickness, disk.radius)
    return math.exp(-p2 / lam) * one_minus_exp(p_drop / lam) + main * one_minus_exp(p2 / lam)


def disk_yukawa_force(probe: AxisProbe, disk: Disk, p: YukawaParams) -> float:
    """Exact Yukawa force on the axis probe (N, < 0), -dU/dz of the potential.

    The finite-radius corrections inside the bracket fall off as
    e^(-R_d^2/((z+s) lam)) ~ e^(-R_d/lam); at R_d = 50 lam they are already
    below e^(-45) of the leading term.
    """
    lam = p.lam
    return (-2.0 * math.pi * p.alpha * G_DEFAULT * disk.density * lam
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
    _EDGE_UNDERFLOW, where every remaining term is 0.0; the panel values,
    about 1,000 on a deep ladder, are summed with fsum. D1 may be INFINITE;
    a ladder that would pass the largest double first, which takes lam above
    _LAMBDA_MAX_THICK, is an InputError naming that bound.
    """
    nodes, weights = gauss_legendre(_EDGE_PANEL_ORDER)
    panels = []
    lo, hi = 0.0, min(first, d1)
    while log_bound(lo) >= _EDGE_UNDERFLOW:
        if lo == sys.float_info.max:
            raise InputError(_LAMBDA_MAX_THICK_REFUSAL)
        mid, half = 0.5 * lo + 0.5 * hi, 0.5 * (hi - lo)
        panels.append(half * math.fsum(w * f(mid + half * t) for t, w in zip(nodes, weights)))
        if hi == d1:
            break
        lo, hi = hi, min(2.0 * hi, d1, sys.float_info.max)
    return math.fsum(panels)


def disk_yukawa_potential(probe: AxisProbe, disk: Disk, p: YukawaParams) -> float:
    """Exact Yukawa potential energy of the axis probe (J, < 0).

    U(z) = -2 pi alpha G rho1 e^(-z/lam)
           * integral_0^D1 e^(-v/lam) lam (1 - e^(-p(z+v)/lam)) dv,

    p(u) = sqrt(u^2+R_d^2) - u (_rim). The integral over the depth v below
    the probe is lam^2 (1 - e^(-D1/lam)) minus the finite-radius edge
    integral, which has no elementary form; its integrand is non-negative,
    so nothing cancels when the disk is small (the two terms agree to
    R_d^2/(z lam)). lam (1 - e^(-p/lam)) is taken as p (1 - e^(-x))/x,
    x = p/lam, and R_d^2 is taken out of p = R_d^2/(s + u), so the integrand
    is e^(-v/lam) (1 - e^(-x))/x / (s + u). p itself goes subnormal deep
    below a small disk at long range, but 1/(s + u) stays normal wherever
    e^(-v/lam) is above e^(-92), for every lam up to _LAMBDA_MAX_THICK.
    -dU/dz equals disk_yukawa_force; for R_d -> inf this is the laterally
    infinite slab potential.
    """
    lam, z, rd = p.lam, probe.z, disk.radius
    prefactor = -2.0 * math.pi * p.alpha * G_DEFAULT * disk.density
    if math.isinf(rd):
        return prefactor * lam * math.exp(-z / lam) * (lam * one_minus_exp(disk.thickness / lam))

    def integrand(v: float) -> float:
        # x = p/lam alone underflows past lam ~ 1e160 m, where U still grows as ln lam
        u = z + v
        s, gap = _rim(u, rd)
        x = gap / lam
        return math.exp(-v / lam) * (one_minus_exp(x) / x if x > 0.0 else 1.0) / (s + u)

    return prefactor * math.exp(-z / lam) * (rd * (rd * _graded_integral(
        integrand, min(lam, math.hypot(z, rd)), disk.thickness, lambda v: -v / lam)))


def _bracket_drop(z: float, delta: float, disk: Disk, lam: float) -> float:
    """lam (C(z) - C(z + delta)) >= 0 for a finite disk, as one non-negative integral.

    C(z) = (1/lam) integral_0^D1 e^(-v/lam) (1 - q(z+v)) dv with
    q(u) = (u/s) e^(-p(u)/lam) = e^(-phi(u)), phi(u) = L(u) + p(u)/lam,
    L = ln(s/u), s = sqrt(u^2+R_d^2), p = s - u. phi falls with u, so with
    u1 = z + v and u2 = u1 + delta the integrand of the drop is
    e^(-v/lam - phi(u2)) (1 - e^(-(phi(u1) - phi(u2)))), where
    phi(u1) - phi(u2) = (L1 - L2) + (p1 - p2)/lam adds the two rim drops of
    _rim_drop. Its log is below -(s(u2) - (z + delta))/lam, which falls with v.
    """
    rd = disk.radius

    def integrand(v: float) -> float:
        u1 = z + v
        p2, p_drop, l_drop, _ = _rim_drop(u1, delta, rd)
        return (math.exp(-v / lam - math.log1p(p2 / (u1 + delta)) - p2 / lam)
                * one_minus_exp(l_drop + p_drop / lam))

    return _graded_integral(integrand, min(lam, math.hypot(z, rd)), disk.thickness,
                            lambda v: -(v + _rim(z + delta + v, rd)[1]) / lam)


def _lam_one_minus_exp(gap: float, lam: float) -> float:
    """lam (1 - e^(-y)), y = gap/lam; gap itself, to the last bit, where y is
    subnormal and 1 - e^(-y) would keep only its bits."""
    y = gap / lam
    return gap if y < sys.float_info.min else lam * one_minus_exp(y)


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
    On a disk of INFINITE thickness C = 1 - e^(-p1/lam) goes subnormal once
    lam >> p1, so there the logs and the drop are taken of lam C, which does not.
    A bracket that underflows all the same (zero or subnormal, as far above a
    small disk) leaves no log: DegenerateInputError names it and its height.
    """
    lam, disk = p.lam, x.disk
    thick = math.isinf(disk.thickness) and not math.isinf(disk.radius)
    if thick and lam > _LAMBDA_MAX_THICK:
        raise InputError(_LAMBDA_MAX_THICK_REFUSAL)
    near, far = (_normal(_lam_one_minus_exp(_rim(z, disk.radius)[1], lam) if thick
                         else _yukawa_bracket(z, disk, lam), "the Yukawa bracket", z)
                 for z in (x.a, x.a + 2.0 * x.sphere_radius))
    ln_near, ln_far = math.log(near), math.log(far)
    value = 2.0 * x.sphere_radius / lam + (ln_near - ln_far)
    if value >= _XI_DIRECT * (1.0 + abs(ln_near) + abs(ln_far)) or math.isinf(disk.radius):
        return value
    drop = _bracket_drop(x.a, 2.0 * x.sphere_radius, disk, lam)
    return 2.0 * x.sphere_radius / lam + math.log1p((drop if thick else drop / lam) / far)
