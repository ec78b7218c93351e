import math

import mpmath
import pytest

from ypfa import (DegenerateInputError, Disk, InputError, PhysicalConstants, PoleProximityError,
                  PowerLawParams, XiInputs, YukawaParams, disk_gravity_force, disk_power_force,
                  disk_yukawa_force, disk_yukawa_potential, oracle_disk_point, xi_power, xi_yukawa)
from ypfa.disk import AxisProbe

C = PhysicalConstants()


def probe(z=100e-9):
    return AxisProbe(z=z)


def xi_inputs(disk, a=100e-9, radius=150e-6):
    return XiInputs(a=a, sphere_radius=radius, disk=disk)


# ----------------------------------------------------------------- gravity

def test_gravity_infinite_plane_limit():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    got = disk_gravity_force(probe(), infinite)
    want = -2 * math.pi * C.G * 2330.0 * 3.5e-6
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    # independent of the probe height
    assert disk_gravity_force(probe(1e-3), infinite) == got


def test_gravity_thin_disk_scales_linearly():
    thin = disk_gravity_force(probe(), Disk(300e-6, 1e-12, 2330.0))
    thinner = disk_gravity_force(probe(), Disk(300e-6, 0.5e-12, 2330.0))
    assert thin == pytest.approx(2 * thinner, rel=1e-9, abs=0.0)


def test_gravity_against_quadrature(reference_disk):
    got = disk_gravity_force(probe(), reference_disk)
    report = oracle_disk_point(probe(), reference_disk, "newton")
    assert report.converged
    assert report.check_against(got) < 1e-9


def test_xi_gravity_gauss_law_invariance():
    assert xi_power(xi_inputs(Disk(math.inf, 3.5e-6, 2330.0)), 2.0) == 1.0
    nearly_infinite = Disk(1e6 * 150e-6, 3.5e-6, 2330.0)
    assert abs(xi_power(xi_inputs(nearly_infinite), 2.0) - 1.0) <= 1e-5


def test_xi_gravity_reference_value(reference_disk):
    # a disk of twice the sphere radius: an order-300% near/far asymmetry
    value = xi_power(xi_inputs(reference_disk), 2.0)
    assert 3.0 <= value <= 4.5


def test_xi_gravity_thin_disk_limit():
    # beta -> 0 tends to the thin-sheet field ratio, not to 1: the near and
    # far forces both vanish like D1 but with different sheet prefactors
    a, radius, rd = 100e-9, 150e-6, 300e-6
    thin = Disk(radius=rd, thickness=1e-9 * radius, density=2330.0)
    value = xi_power(xi_inputs(thin, a=a, radius=radius), 2.0)

    def sheet(z):
        return 1.0 - z / math.sqrt(z * z + rd * rd)

    want = sheet(a) / sheet(a + 2 * radius)
    assert value == pytest.approx(want, rel=1e-9, abs=0.0)


# --------------------------------------------------------------- power law

def test_power_n2_equals_gravity(reference_disk):
    got = disk_power_force(probe(), reference_disk, PowerLawParams(k=C.G, n=2.0))
    want = disk_gravity_force(probe(), reference_disk)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_power_n3_infinite_plane_log_behavior():
    # for z << D1 the infinite-plane force behaves like ln(1 + D1^2/z^2)
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    z = 3.5e-9
    got = disk_power_force(AxisProbe(z), infinite, PowerLawParams(k=1.0, n=3.0))
    behaves = -(math.pi * 2330.0 / 2.0) * math.log1p((3.5e-6 / z) ** 2)
    assert got == pytest.approx(behaves, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 4.0])
def test_power_against_quadrature(n, reference_disk):
    got = disk_power_force(probe(), reference_disk, PowerLawParams(k=C.G, n=n))
    report = oracle_disk_point(probe(), reference_disk, "power", n=n)
    assert report.converged
    assert report.check_against(got / C.G) < 1e-8


def test_power_pole_guard(reference_disk):
    # N = 3 is a regular point of the one N != 1 form; exponents near it are
    # checked against mpmath in test_domain
    for n in (1.0 + 1e-7, 1.0 - 1e-7):
        with pytest.raises(PoleProximityError):
            disk_power_force(probe(), reference_disk, PowerLawParams(k=1.0, n=n))
    # exactly at the pole the dedicated form answers
    disk_power_force(probe(), reference_disk, PowerLawParams(k=1.0, n=1.0))
    disk_power_force(probe(), reference_disk, PowerLawParams(k=1.0, n=3.0))


def test_power_rejects_nonpositive_exponent():
    with pytest.raises(InputError):
        PowerLawParams(k=1.0, n=-2.0)


def test_power_infinite_plane_diverges_for_small_exponent():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    with pytest.raises(InputError):
        disk_power_force(probe(), infinite, PowerLawParams(k=1.0, n=0.5))
    with pytest.raises(InputError):
        disk_power_force(probe(), infinite, PowerLawParams(k=1.0, n=1.0))


# --------------------------------------------------- infinitely thick disks

THICK = Disk(radius=100e-6, thickness=math.inf, density=2330.0)
HALF_SPACE = Disk(radius=math.inf, thickness=math.inf, density=2330.0)
mp80 = mpmath.MPContext()
mp80.dps = 80


def mp_rim_gap(z, rd):
    """sqrt(R_d^2 + z^2) - z at 80 digits on the same floats."""
    z, rd = mp80.mpf(z), mp80.mpf(rd)
    return mp80.sqrt(rd * rd + z * z) - z


def test_thick_disk_gravity_and_yukawa_limits_match_mpmath():
    # D1 -> inf: the gravity bracket tends to p1 = sqrt(R_d^2+z^2) - z and the
    # Yukawa bracket to 1 - e^(-p1/lam)
    z, lam = 1e-6, 10e-6
    p1 = mp_rim_gap(z, THICK.radius)
    want_gravity = -2 * mp80.pi * mp80.mpf(C.G) * 2330 * p1
    want_yukawa = (-2 * mp80.pi * mp80.mpf(C.G) * 2330 * lam * mp80.exp(-mp80.mpf(z) / lam)
                   * (1 - mp80.exp(-p1 / lam)))
    got_gravity = disk_gravity_force(probe(z), THICK)
    got_yukawa = disk_yukawa_force(probe(z), THICK, YukawaParams(1.0, lam))
    assert abs(got_gravity - want_gravity) <= 1e-15 * abs(want_gravity)
    assert abs(got_yukawa - want_yukawa) <= 1e-15 * abs(want_yukawa)


@pytest.mark.parametrize("n", [1.5, 2.5, 3.0, 4.0])
def test_thick_disk_power_law_matches_mpmath(n):
    # D1 -> inf: the bracket tends to (R_d^2+z^2)^((3-n)/2) - z^(3-n), or to
    # log1p(R_d^2/z^2) at n = 3
    z, rd = 1e-6, THICK.radius
    got = disk_power_force(probe(z), THICK, PowerLawParams(k=1.0, n=n))
    z_mp, rd_mp, n_mp = mp80.mpf(z), mp80.mpf(rd), mp80.mpf(n)
    if n == 3.0:
        want = -mp80.pi / 2 * 2330 * mp80.log(1 + rd_mp ** 2 / z_mp ** 2)
    else:
        want = (2 * mp80.pi * 2330 * ((rd_mp ** 2 + z_mp ** 2) ** ((3 - n_mp) / 2)
                                      - z_mp ** (3 - n_mp)) / ((n_mp - 1) * (n_mp - 3)))
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("n,rel", [(2.5, 2e-10), (3.0, 1e-15)])
def test_thick_disk_power_law_is_the_deep_disk_limit(n, rel):
    # 2e-10 is what an older form reached at D1 = 1e6 m, where it summed two
    # nearly opposite power differences; test_generic_power_law_matches_mpmath
    # holds the force to 1e-14
    deep = Disk(radius=100e-6, thickness=1e6, density=2330.0)
    pl = PowerLawParams(k=1.0, n=n)
    got = disk_power_force(probe(1e-6), THICK, pl)
    assert got == pytest.approx(disk_power_force(probe(1e-6), deep, pl), rel=rel, abs=0.0)


@pytest.mark.parametrize("d1", [1.0, 1e6])
def test_power_n2_on_a_deep_disk_equals_gravity(d1):
    # two power differences summed literally cancelled once D1 passed the near
    # slant distance: 1.3e-11 off the same n = 2 law at D1 = 1 m and 2.2e-5
    # at D1 = 1e6 m
    disk = Disk(radius=100e-6, thickness=d1, density=2330.0)
    got = disk_power_force(probe(1e-6), disk, PowerLawParams(k=C.G, n=2.0))
    assert got == pytest.approx(disk_gravity_force(probe(1e-6), disk), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d1", [1e-6, 1e-4, 1.0, 1e6])
def test_generic_power_law_matches_mpmath(d1):
    # on both sides of the near slant distance sqrt(z^2+R_d^2), where an older
    # form switched routes
    z, rd, n = 1e-6, 100e-6, 2.5
    got = disk_power_force(probe(z), Disk(rd, d1, 2330.0), PowerLawParams(k=1.0, n=n))
    z_mp, rd_mp, d1_mp, n_mp = mp80.mpf(z), mp80.mpf(rd), mp80.mpf(d1), mp80.mpf(n)

    def face(u):  # (R_d^2+u^2)^((3-n)/2) - u^(3-n)
        return (rd_mp ** 2 + u ** 2) ** ((3 - n_mp) / 2) - u ** (3 - n_mp)

    want = 2 * mp80.pi * 2330 * (face(z_mp) - face(z_mp + d1_mp)) / ((n_mp - 1) * (n_mp - 3))
    assert abs(got - want) <= 1e-14 * abs(want), (got, float(want))


@pytest.mark.parametrize("disk,n", [(THICK, 0.5), (THICK, 1.0), (HALF_SPACE, 2.0),
                                    (HALF_SPACE, 2.5), (HALF_SPACE, 3.0)],
                         ids=["thick-0.5", "thick-1", "half-space-2", "half-space-2.5",
                              "half-space-3"])
def test_power_law_divergence_is_an_input_error(disk, n):
    with pytest.raises(InputError, match="diverges"):
        disk_power_force(probe(), disk, PowerLawParams(k=1.0, n=n))


def test_half_space_newtonian_force_is_an_input_error():
    with pytest.raises(InputError, match="diverges"):
        disk_gravity_force(probe(), HALF_SPACE)


def test_half_space_converges_above_n3():
    # the bracket is -z^(3-n): F = 2 pi K rho m2 (-1/z) / 3 at n = 4
    z = 1e-6
    got = disk_power_force(probe(z), HALF_SPACE, PowerLawParams(k=1.0, n=4.0))
    assert got == pytest.approx(-2 * math.pi * 2330.0 / (3 * z), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d1", [1e155, 1e200, 1e300])
def test_very_thick_finite_disk_is_the_thick_disk_limit(d1):
    # (z + D1)^2 overflowed from D1 ~ 1e155 m, and both forces were -0.0
    deep, lam = Disk(radius=3e-4, thickness=d1, density=2330.0), YukawaParams(1.0, 10e-6)
    thick = Disk(radius=3e-4, thickness=math.inf, density=2330.0)
    assert disk_gravity_force(probe(), deep) == pytest.approx(
        disk_gravity_force(probe(), thick), rel=1e-14, abs=0.0)
    assert disk_yukawa_force(probe(), deep, lam) == pytest.approx(
        disk_yukawa_force(probe(), thick, lam), rel=1e-14, abs=0.0)


def mp_thick_disk_potential(z, rd, lam):
    """disk_yukawa_potential (alpha = 1, unit mass) of a disk of INFINITE
    thickness, at 20 digits on the same floats.

    The depth integral of e^(-v/lam) lam (1 - e^(-p(z+v)/lam)) runs over
    t = ln v, from z e^-40 (the part below is g(z) z e^-40 to first order)
    to 800 lam, on panels 1/20 of that range wide and 0.5 wide within 10 of
    ln z, ln R_d and ln lam, where it bends. The integrand is divided by
    R_d^2 because mpmath's quadrature tolerance is absolute.
    """
    mp = mpmath.MPContext()
    mp.dps = 20
    z, rd, lam = mp.mpf(z), mp.mpf(rd), mp.mpf(lam)

    def scaled(t):
        v = mp.exp(t)
        u = z + v
        gap_over_rd = rd / (mp.sqrt(u * u + rd * rd) + u)
        return mp.exp(-v / lam) * (lam / rd) * -mp.expm1(-gap_over_rd * rd / lam) / rd * v

    lo, hi = mp.log(z) - 40, mp.log(800 * lam)
    points = {lo + (hi - lo) * k / 20 for k in range(21)}
    for bend in (mp.log(z), mp.log(rd), mp.log(lam)):
        points.update(bend + 0.5 * k for k in range(-20, 21) if lo < bend + 0.5 * k < hi)
    depth = (scaled(lo) + mp.quad(scaled, sorted(points), method="gauss-legendre")) * rd * rd
    return -2 * mp.pi * mp.mpf(C.G) * 2330 * mp.exp(-z / lam) * depth


@pytest.mark.parametrize("rd", [1e-20, 10e-9, 300e-6, 1e4])
@pytest.mark.parametrize("lam", [1e280, 1e300, 1e305, 2.4e305])
def test_thick_disk_potential_at_long_range_matches_mpmath(rd, lam):
    # the rim gap p is subnormal deep in a small disk's depth integral (from
    # v ~ 2e291 m at R_d = 10 nm), and the integrand carried p: 3.4e-5 off
    # at 1e305 m for R_d = 10 nm and 7e-2 for R_d = 1e-20 m. At R_d = 1e4 m
    # lam p would overflow; p stays normal there
    got = disk_yukawa_potential(probe(), Disk(rd, math.inf, 2330.0), YukawaParams(1.0, lam))
    want = mp_thick_disk_potential(100e-9, rd, lam)
    assert abs(got - want) <= 1e-15 * abs(want), (got, float(want))


@pytest.mark.parametrize("lam", [1e306, 1e307, 1.7e308])
def test_thick_disk_beyond_the_ladder_is_an_input_error(lam):
    # the edge integrand still exceeds e^-746 at the largest double here, so
    # the depth ladder cannot end; it used to return nan
    disk, p = Disk(radius=3e-4, thickness=math.inf, density=2330.0), YukawaParams(1.0, lam)
    with pytest.raises(InputError, match="lambda must be below about 2.41e"):
        disk_yukawa_potential(probe(), disk, p)
    with pytest.raises(InputError, match="lambda must be below about 2.41e"):
        xi_yukawa(xi_inputs(disk), p)


def test_xi_yukawa_of_a_thick_disk_at_1e305_m_matches_mpmath():
    # C(z) = 1 - e^(-p(z)/lam) on a disk of infinite thickness
    a, radius, rd, lam = 100e-9, 150e-6, 3e-4, 1e305
    got = xi_yukawa(xi_inputs(Disk(rd, math.inf, 2330.0), a, radius), YukawaParams(1.0, lam))

    def bracket(z):
        return -mp80.expm1(-mp_rim_gap(z, rd) / lam)

    want = 2 * mp80.mpf(radius) / lam + mp80.log(bracket(a) / bracket(a + 2 * radius))
    assert abs(got - want) <= 1e-12 * abs(want), (got, float(want))


@pytest.mark.parametrize("rd", [10e-9, 1e-6, 3e-4])
@pytest.mark.parametrize("lam", [1e280, 1e290, 1e300, 1e303, 1e305, 2e305, 2.4e305])
def test_xi_yukawa_of_a_thick_disk_at_long_range_matches_mpmath(rd, lam):
    # C = 1 - e^(-p1/lam) is subnormal here for a small disk (p1/lam < 2.2e-308
    # from 1e300 m at R_d = 10 nm); the ratio of lam C keeps every digit
    a, radius = 100e-9, 150e-6
    got = xi_yukawa(xi_inputs(Disk(rd, math.inf, 2330.0), a, radius), YukawaParams(1.0, lam))

    def bracket(z):
        return -mp80.expm1(-mp_rim_gap(z, rd) / lam)

    want = 2 * mp80.mpf(radius) / lam + mp80.log(bracket(a) / bracket(a + 2 * radius))
    assert abs(got - want) <= 4e-15 * abs(want), (got, float(want))


def test_xi_yukawa_of_a_thick_disk_refuses_lambda_beyond_the_bound():
    # the same bound as the depth integrals, whichever branch the ratio takes
    for rd in (10e-9, 3e-4):
        with pytest.raises(InputError, match="lambda must be below about 2.41e"):
            xi_yukawa(xi_inputs(Disk(rd, math.inf, 2330.0)), YukawaParams(1.0, 2.41e305))


def test_xi_power_of_a_massless_disk_is_degenerate():
    # both forces are 0: this was a ZeroDivisionError traceback
    with pytest.raises(DegenerateInputError, match="0/0"):
        xi_power(xi_inputs(Disk(300e-6, 3.5e-6, 0.0)), 2.5)


def test_thick_disk_ratios_are_finite():
    inputs = xi_inputs(THICK)
    for value in (xi_power(inputs, 2.0), xi_power(inputs, 2.5), xi_power(inputs, 3.0),
                  xi_yukawa(inputs, YukawaParams(1.0, 10e-6)),
                  disk_yukawa_potential(probe(), THICK, YukawaParams(1.0, 10e-6))):
        assert math.isfinite(value) and value != 0.0


def test_xi_power_consistency_and_trends(reference_disk):
    inputs = xi_inputs(reference_disk)
    newton = (disk_gravity_force(probe(inputs.a), reference_disk)
              / disk_gravity_force(probe(inputs.a + 2.0 * inputs.sphere_radius), reference_disk))
    assert xi_power(inputs, 2.0) == pytest.approx(newton, rel=1e-12, abs=0.0)
    # above the Gauss-law exponent the near side wins even for finite disks
    assert xi_power(inputs, 3.0) > 1.0
    # well below it, with a large disk, the far side wins
    large = xi_inputs(Disk(100 * 150e-6, 3.5e-6, 2330.0))
    assert xi_power(large, 1.0) < 1.0


def test_xi_power_monotone_in_exponent(reference_disk):
    inputs = xi_inputs(reference_disk)
    previous = None
    for i in range(50):
        n = 1.0 + 3.0 * i / 49.0
        if abs(n - 1.0) <= 1e-6:
            n = 1.0
        if abs(n - 3.0) <= 1e-6:
            n = 3.0
        value = xi_power(inputs, n)
        if previous is not None:
            assert value > previous, f"n={n}"
        previous = value


# ------------------------------------------------------------------ yukawa

def test_yukawa_force_infinite_plane_reduction():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    lam = 1e-7
    got = disk_yukawa_force(probe(), infinite, YukawaParams(1.0, lam))
    want = (-2 * math.pi * C.G * 2330.0 * lam * math.exp(-1e-7 / lam)
            * -math.expm1(-3.5e-6 / lam))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_yukawa_potential_infinite_plane_reduction():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    lam = 1e-7
    got = disk_yukawa_potential(probe(), infinite, YukawaParams(1.0, lam))
    want = (-2 * math.pi * C.G * 2330.0 * lam * lam * math.exp(-1e-7 / lam)
            * -math.expm1(-3.5e-6 / lam))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_yukawa_thin_disk_vanishes(reference_disk):
    thin = Disk(300e-6, 1e-12, 2330.0)
    p = YukawaParams(1.0, 1e-7)
    full = disk_yukawa_force(probe(), reference_disk, p)
    assert abs(disk_yukawa_force(probe(), thin, p)) < abs(full) * 1e-5


def test_yukawa_force_and_potential_against_quadrature(reference_disk):
    p = YukawaParams(1.0, 50e-6)
    got_f = disk_yukawa_force(probe(), reference_disk, p)
    report = oracle_disk_point(probe(), reference_disk, "yukawa", p=p)
    assert report.check_against(got_f) < 1e-8
    got_u = disk_yukawa_potential(probe(), reference_disk, p)
    report = oracle_disk_point(probe(), reference_disk, "yukawa_potential", p=p)
    assert report.check_against(got_u) < 1e-8


def test_yukawa_force_is_potential_gradient(reference_disk):
    # the named finite-difference configuration: z = 100 nm, lam = 100 um
    p = YukawaParams(1.0, 100e-6)
    z = 100e-9
    h = z * 1e-5
    up = disk_yukawa_potential(AxisProbe(z + h), reference_disk, p)
    down = disk_yukawa_potential(AxisProbe(z - h), reference_disk, p)
    gradient_force = -(up - down) / (2 * h)
    assert gradient_force == pytest.approx(
        disk_yukawa_force(AxisProbe(z), reference_disk, p), rel=1e-8, abs=0.0)


def test_yukawa_edge_corrections_bound():
    # at R_d = 50 lam the edge terms are suppressed below e^(-45), checked
    # on the exponent (log space): the factor itself may underflow
    lam = 1e-6
    disk = Disk(radius=50 * lam, thickness=3.5e-6, density=2330.0)
    z = 100e-9
    s_near = math.sqrt(z * z + disk.radius ** 2)
    exponent = disk.radius ** 2 / ((z + s_near) * lam)
    assert exponent > 45.0


def mp_yukawa_potential(z, disk, lam):
    """disk_yukawa_potential (alpha = 1, unit mass) at 80 digits on the same floats.

    The edge integral runs over the offset v = u - z, scaled by its value at
    v = 0 because mpmath's quadrature tolerance is absolute. The disk radius
    and thickness may be INFINITE.
    """
    mp = mpmath.MPContext()
    mp.dps = 80
    z, rd, d1, lam = mp.mpf(z), mp.mpf(disk.radius), mp.mpf(disk.thickness), mp.mpf(lam)
    inner = lam * (1 - mp.exp(-d1 / lam))
    if rd != mp.inf:
        def exponent(v):
            return (z - mp.sqrt((z + v) ** 2 + rd * rd)) / lam

        start = exponent(0)
        # an infinite thickness ends on [last break, inf]
        top = d1 if d1 != mp.inf else 800 * lam
        breaks = [mp.mpf(0)]
        while breaks[-1] * 2 + lam < top:
            breaks.append(breaks[-1] * 2 + lam)
        edge, error = mp.quad(lambda v: mp.exp(exponent(v) - start), breaks + [d1], error=True)
        assert error < mp.mpf(10) ** -40
        inner -= mp.exp(start) * edge
    return -2 * mp.pi * mp.mpf(C.G) * mp.mpf(disk.density) * lam * mp.exp(-z / lam) * inner


@pytest.mark.parametrize("z,disk,lam", [
    # a tiny disk radius and a thickness of 10^6 ranges, where 2048 uniform
    # panels once gave half the edge integral
    (100e-9, Disk(1e-9, 1e-3, 2330.0), 1e-9),
    # the verify grid's largest edge term: scale 0.5, z = 2 um, lam = 50 um
    (2e-6, Disk(150e-6, 1.75e-6, 2330.0), 50e-6),
    # lam (1 - e^(-D1/lam)) and the edge integral agree to 1e-24 here: their
    # difference was off by a factor 4e7
    (1.9043622151957442, Disk(1.6614009112831235e-10, 4.624730826755671e-06, 2330.0),
     1659.3468723271692),
], ids=["thick-tiny-disk", "verify-grid", "tiny-disk-far-probe"])
def test_yukawa_potential_matches_mpmath(z, disk, lam):
    got = disk_yukawa_potential(probe(z), disk, YukawaParams(1.0, lam))
    want = mp_yukawa_potential(z, disk, lam)
    assert abs(got - want) <= 1e-12 * abs(want), (got, float(want))


def test_xi_yukawa_near_unity_matches_mpmath():
    # 2R/lam = 1.1e-12 and ln C(a) - ln C(a+2R) = 5e-17 against logs near -17:
    # subtracting the logs once gave ln xi 0.35% off
    a, radius, lam = 7166.714947318122, 1.4185335694760403e-09, 2523.195464567153
    disk = Disk(0.00454750031229762, 1.071188396854783e-06, 2330.0)

    def g(z):  # e^(-z/lam) C(z): the top and bottom faces minus the rim at each
        z, rd, d1 = mp80.mpf(z), mp80.mpf(disk.radius), mp80.mpf(disk.thickness)
        return (mp80.exp(-z / lam) - mp80.exp(-(z + d1) / lam)
                + mp80.exp(-mp80.sqrt(rd * rd + (z + d1) ** 2) / lam)
                - mp80.exp(-mp80.sqrt(rd * rd + z * z) / lam))

    want = mp80.log(g(a)) - mp80.log(g(mp80.mpf(a) + 2 * mp80.mpf(radius)))
    got = xi_yukawa(xi_inputs(disk, a=a, radius=radius), YukawaParams(1.0, lam))
    assert abs(got - want) <= 1e-13 * want


def test_xi_yukawa_infinite_plane_value():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    result = xi_yukawa(xi_inputs(infinite), YukawaParams(1.0, 0.1e-6))
    assert result == 2 * 150e-6 / 0.1e-6 == 3000.0


def test_xi_yukawa_finite_disk_still_3000(reference_disk):
    result = xi_yukawa(xi_inputs(reference_disk), YukawaParams(1.0, 0.1e-6))
    assert result == pytest.approx(3000.0, rel=1e-9, abs=0.0)


def test_xi_yukawa_insensitive_to_disk_radius_at_short_range():
    lam = 1e-6
    near = xi_yukawa(xi_inputs(Disk(2 * 150e-6, 3.5e-6, 2330.0)), YukawaParams(1.0, lam))
    far = xi_yukawa(xi_inputs(Disk(100 * 150e-6, 3.5e-6, 2330.0)), YukawaParams(1.0, lam))
    scale = 2 * 150e-6 / lam
    assert abs(near - far) / scale <= 1e-6


def test_xi_yukawa_long_range_limit():
    infinite = Disk(radius=math.inf, thickness=3.5e-6, density=2330.0)
    result = xi_yukawa(xi_inputs(infinite), YukawaParams(1.0, 1.0))
    assert result == 2 * 150e-6 / 1.0  # -> 0 as lam grows


def test_xi_yukawa_radius_dependence_at_long_range(reference_disk):
    # at lam = 1000 um the disk radius visibly matters
    lam = 1000e-6
    small = xi_yukawa(xi_inputs(Disk(150e-6, 3.5e-6, 2330.0)), YukawaParams(1.0, lam))
    large = xi_yukawa(xi_inputs(Disk(100 * 150e-6, 3.5e-6, 2330.0)), YukawaParams(1.0, lam))
    assert abs(small - large) > 0.1

