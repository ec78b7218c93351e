"""Closed forms against 80-digit mpmath over the whole accepted length domain.

Lengths are drawn log-uniform from 1e-10 to 1e4 m, coats may be absent and
densities zero; slab layers, disk radii and disk thicknesses may also be
INFINITE. The
references use the same float radii as the code (the coat radii are the
float sums r_core + t), so any difference is the closed form's own rounding
or cancellation.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_disk import mp_yukawa_potential

from ypfa import (G_DEFAULT, INFINITE, AxisProbe, DegenerateInputError, Disk, InputError, Layer,
                  LayeredConfig, LayeredSlab, LayeredSphere, PowerLawParams, XiInputs,
                  YukawaParams, disk_gravity_force, disk_power_force, disk_yukawa_force,
                  disk_yukawa_potential, eta, eta_delta, layered_pfa_force, slab_slab_pressure,
                  xi_power, xi_yukawa)
from ypfa.layered import slab_stack_factor, sphere_shell_factor, virtual_plate

REL = 1e-12
#: Below this a float result is near the subnormal range and carries no
#: relative accuracy; such references are only required to stay that small.
TINY = 1e-290

mp = mpmath.MPContext()
mp.dps = 80
M = mp.mpf

lengths = st.floats(min_value=-10.0, max_value=4.0).map(lambda e: 10.0 ** e)
densities = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=math.log10(3e4))
                      .map(lambda e: 10.0 ** e))
coats = st.builds(Layer, st.one_of(st.just(0.0), lengths), densities)
spheres = st.builds(LayeredSphere, lengths, densities, coats, coats)
d2_values = st.one_of(st.just(INFINITE), lengths)
slab_thicknesses = st.one_of(st.just(0.0), d2_values)
# the base of a slab must be thicker than 0; the coats need not be
slabs = st.builds(LayeredSlab, st.builds(Layer, d2_values, densities),
                  st.builds(Layer, slab_thicknesses, densities),
                  st.builds(Layer, slab_thicknesses, densities))
disks = st.builds(Disk, d2_values, d2_values, densities)
# power-law exponents: the two logarithmic points, and a range kept 1e-2 from
# the pole at N = 1, where the closed form's bracket (of order N - 1) cancels
exponents = st.one_of(st.sampled_from([1.0, 3.0]),
                      st.floats(min_value=0.05, max_value=8.0).filter(
                          lambda n: abs(n - 1.0) >= 1e-2))

SLAB = LayeredSlab(base=Layer(3.5e-6, 2330.0))
domain = settings(max_examples=150, deadline=None)


def _one_minus_exp(x):
    return 1 - mp.exp(-x)


def _phi(u):
    return 1 - 2 / u + mp.exp(-u) * (1 + 2 / u)


def mp_eta(radius, d2, lam):
    thickness = M(1) if d2 == INFINITE else _one_minus_exp(M(d2) / M(lam))
    return _phi(2 * M(radius) / M(lam)) / thickness


def mp_shell_factor(sphere, lam):
    """sum of rho * 2 lam [h(hi/lam) - h(lo/lam)] e^(-R_out/lam), h(v) = v cosh v - sinh v."""
    lam = M(lam)
    r_core = sphere.core_radius
    r_mid = r_core + sphere.inner_coat.thickness
    r_out = r_mid + sphere.outer_coat.thickness

    def h(r):
        v = M(r) / lam
        return v * mp.cosh(v) - mp.sinh(v)

    def term(lo, hi):
        return 2 * lam * (h(hi) - h(lo)) * mp.exp(-M(r_out) / lam)

    return (M(sphere.core_density) * term(0.0, r_core)
            + M(sphere.inner_coat.density) * term(r_core, r_mid)
            + M(sphere.outer_coat.density) * term(r_mid, r_out))


def mp_slab_factor(slab, lam):
    """Sum of the [base, middle, top] layer summands of the slab's stack factor."""
    lam = M(lam)
    top, mid, base = slab.top, slab.middle, slab.base
    return mp.fsum([M(base.density) * mp.exp(-(M(top.thickness) + M(mid.thickness)) / lam)
                    * _one_minus_exp(M(base.thickness) / lam),
                    M(mid.density) * mp.exp(-M(top.thickness) / lam)
                    * _one_minus_exp(M(mid.thickness) / lam),
                    M(top.density) * _one_minus_exp(M(top.thickness) / lam)])


def mp_virtual_factor(sphere, d2, lam):
    """Sum of the [core plate of thickness d2, inner coat, outer coat] virtual-plate summands."""
    lam = M(lam)
    inner, outer = sphere.inner_coat, sphere.outer_coat
    plate = M(1) if d2 == INFINITE else _one_minus_exp(M(d2) / lam)
    return mp.fsum([M(sphere.core_density)
                    * mp.exp(-(M(inner.thickness) + M(outer.thickness)) / lam) * plate,
                    M(inner.density) * mp.exp(-M(outer.thickness) / lam)
                    * _one_minus_exp(M(inner.thickness) / lam),
                    M(outer.density) * _one_minus_exp(M(outer.thickness) / lam)])


def assert_close(got, want):
    if abs(want) < TINY:
        assert abs(got) < 2 * TINY, (got, float(want))
    else:
        assert abs(got - want) <= REL * abs(want), (got, float(want))


@domain
@given(lengths, d2_values, lengths)
def test_eta_matches_mpmath(radius, d2, lam):
    assert_close(eta(radius, d2, lam).eta, mp_eta(radius, d2, lam))


@domain
@given(spheres, lengths)
def test_sphere_shell_factor_matches_mpmath(sphere, lam):
    assert_close(sphere_shell_factor(sphere, lam), mp_shell_factor(sphere, lam))


@domain
@given(spheres, d2_values, lengths)
def test_eta_delta_matches_mpmath(sphere, d2, lam):
    shell = mp_shell_factor(sphere, lam)
    virtual = mp_virtual_factor(sphere, d2, lam)
    # a zero or underflowing numerator or denominator leaves no ratio to check
    assume(shell >= TINY and virtual >= TINY)
    want = shell / (M(sphere.core_radius) * virtual)
    want_hom = mp_eta(sphere.outer_radius, d2, lam)
    got = eta_delta(LayeredConfig(1e-7, sphere, SLAB, d2), YukawaParams(1.0, lam))
    assert_close(got.eta_delta, want)
    assert_close(got.eta_homogeneous, want_hom)
    assert_close(got.ratio, want / want_hom)


@domain
@given(slabs, lengths)
def test_slab_stack_factor_matches_mpmath(slab, lam):
    assert_close(slab_stack_factor(slab, lam), mp_slab_factor(slab, lam))


@domain
@given(spheres, d2_values, lengths)
def test_virtual_stack_factor_matches_mpmath(sphere, d2, lam):
    plate = virtual_plate(sphere, d2)
    assert_close(slab_stack_factor(plate, lam), mp_virtual_factor(sphere, d2, lam))


@domain
@given(spheres, slabs, d2_values, lengths, lengths)
def test_layered_pfa_force_matches_mpmath(sphere, slab, d2, a, lam):
    lam_mp = M(lam)
    head = (-4 * mp.pi ** 2 * M(G_DEFAULT) * lam_mp ** 3 * M(sphere.core_radius)
            * mp.exp(-M(a) / lam_mp))
    got = layered_pfa_force(LayeredConfig(a, sphere, slab, d2), YukawaParams(1.0, lam))
    assert_close(got, head * mp_slab_factor(slab, lam) * mp_virtual_factor(sphere, d2, lam))


@domain
@given(lengths, slab_thicknesses, densities, slab_thicknesses, densities, lengths)
def test_slab_slab_pressure_matches_mpmath(a, d1, rho1, d2, rho2, lam):
    lam_mp = M(lam)
    want = (-2 * mp.pi * M(G_DEFAULT) * M(rho1) * M(rho2) * lam_mp ** 2 * mp.exp(-M(a) / lam_mp)
            * _one_minus_exp(M(d1) / lam_mp) * _one_minus_exp(M(d2) / lam_mp))
    assert_close(slab_slab_pressure(a, d1, rho1, d2, rho2, YukawaParams(1.0, lam)), want)


def mp_rim_distances(z, disk):
    """The axis probe's distances sqrt(R_d^2 + h^2) to the rims of the top and bottom faces."""
    z, rd, d1 = M(z), M(disk.radius), M(disk.thickness)
    return mp.sqrt(rd * rd + z * z), mp.sqrt(rd * rd + (z + d1) ** 2)


def mp_yukawa_face_terms(z, disk, lam):
    """e^(-z/lam) C(z): the top and bottom faces minus the rim at each (z may be an mpf)."""
    lam_mp = M(lam)
    bracket = mp.exp(-M(z) / lam_mp) - mp.exp(-(M(z) + M(disk.thickness)) / lam_mp)
    if disk.radius != INFINITE:
        near, far = mp_rim_distances(z, disk)
        bracket += mp.exp(-far / lam_mp) - mp.exp(-near / lam_mp)
    return bracket


@domain
@given(lengths, disks)
def test_disk_gravity_force_matches_mpmath(z, disk):
    if disk.radius == disk.thickness == INFINITE:
        with pytest.raises(InputError, match="diverges"):
            disk_gravity_force(AxisProbe(z), disk)
        return
    if disk.radius == INFINITE:
        bracket = M(disk.thickness)
    else:
        near, far = mp_rim_distances(z, disk)
        # D1 + near - far, which tends to near - z as D1 -> inf
        bracket = near - M(z) if disk.thickness == INFINITE else M(disk.thickness) + near - far
    want = -2 * mp.pi * M(G_DEFAULT) * M(disk.density) * bracket
    assert_close(disk_gravity_force(AxisProbe(z), disk), want)


@domain
@given(lengths, disks, lengths)
def test_disk_yukawa_force_matches_mpmath(z, disk, lam):
    want = (-2 * mp.pi * M(G_DEFAULT) * M(disk.density) * M(lam)
            * mp_yukawa_face_terms(z, disk, lam))
    assert_close(disk_yukawa_force(AxisProbe(z), disk, YukawaParams(1.0, lam)), want)


@settings(max_examples=40, deadline=None)  # 80-digit quadrature: ~0.1 s per example
@given(lengths, disks, lengths)
def test_disk_yukawa_potential_matches_mpmath(z, disk, lam):
    # test_disk's edge-integral reference, with G_DEFAULT as its constant
    want = M(disk.density) * mp_yukawa_potential(z, Disk(disk.radius, disk.thickness, 1.0), lam)
    assert_close(disk_yukawa_potential(AxisProbe(z), disk, YukawaParams(1.0, lam)), want)


@domain
@given(lengths, lengths, disks, lengths)
def test_xi_yukawa_matches_mpmath(a, radius, disk, lam):
    # xi_yukawa steps from a by the exact 2R (its far bracket sits at the
    # float a + 2R, whose rounding shifts ln C by a few ulp only), so the
    # reference puts the far pole at the exact a + 2R
    far = M(a) + 2 * M(radius)
    want = mp.log(mp_yukawa_face_terms(a, disk, lam)) - mp.log(mp_yukawa_face_terms(far, disk, lam))
    assert_close(xi_yukawa(XiInputs(a, radius, disk), YukawaParams(1.0, lam)), want)


def test_eta_delta_at_1e110_m_matches_mpmath():
    # the coated shell terms are of order R^3/lam^2 here; built as (R/lam)^3
    # times lam they underflowed and eta_delta printed 0
    sphere = LayeredSphere(150e-6, 4100.0, Layer(10e-9, 7140.0), Layer(180e-9, 19280.0))
    lam = 1e110
    # v cosh v - sinh v ~ v^3/3 at v ~ 1e-114 needs 230 of the working digits
    with mp.workdps(400):
        want = mp_shell_factor(sphere, lam) / (M(sphere.core_radius)
                                               * mp_virtual_factor(sphere, INFINITE, lam))
        want_hom = mp_eta(sphere.outer_radius, INFINITE, lam)
    got = eta_delta(LayeredConfig(1e-7, sphere, SLAB), YukawaParams(1.0, lam))
    assert_close(got.eta_delta, want)
    assert_close(got.eta_homogeneous, want_hom)
    assert_close(got.ratio, want / want_hom)
    assert 1.5e-228 < got.eta_delta < 1.6e-228


def power_diverges(disk, n):
    rd_inf, d1_inf = disk.radius == INFINITE, disk.thickness == INFINITE
    return (n <= 3.0 and rd_inf and d1_inf) or (n <= 1.0 and (rd_inf or d1_inf))


def mp_power_force(z, disk, n):
    """disk_power_force (K = 1, unit mass) at 150 digits on the same floats.

    N = 1 and N = 3 take their exact logarithmic limits, written as the
    differences of x ln x and of logs they come from; any other N takes
    2 pi rho (B(z) - B(z + D1))/((N-1)(N-3)), B(u) = (u^2+R_d^2)^((3-N)/2) - u^(3-N).
    An INFINITE radius or thickness takes the limit of each form.
    """
    with mp.workdps(150):
        z, rd, d1, rho = M(z), M(disk.radius), M(disk.thickness), M(disk.density)
        u2 = z + d1
        if n == 1.0:  # both finite: the force diverges otherwise
            near, far = z * z + rd * rd, u2 * u2 + rd * rd
            return mp.pi / 2 * rho * (near * mp.log(near) - far * mp.log(far)
                                      + u2 * u2 * mp.log(u2 * u2) - z * z * mp.log(z * z))
        if n == 3.0:
            if disk.radius == INFINITE:
                return -mp.pi * rho * mp.log(u2 / z)
            ratio = (z * z + rd * rd) / (z * z)
            if disk.thickness != INFINITE:
                ratio *= u2 * u2 / (u2 * u2 + rd * rd)
            return -mp.pi / 2 * rho * mp.log(ratio)
        m = 3 - M(n)
        if disk.radius == INFINITE:
            bracket = u2 ** m - z ** m  # inf ** m is 0 for the m < 0 of a half-space
        else:
            bracket = mp.sqrt(z * z + rd * rd) ** m - z ** m
            if disk.thickness != INFINITE:
                bracket -= mp.sqrt(u2 * u2 + rd * rd) ** m - u2 ** m
        return 2 * mp.pi * rho * bracket / ((M(n) - 1) * (M(n) - 3))


@domain
@given(lengths, disks, exponents)
def test_disk_power_force_matches_mpmath(z, disk, n):
    pl = PowerLawParams(1.0, n)
    if power_diverges(disk, n):
        with pytest.raises(InputError, match="diverges"):
            disk_power_force(AxisProbe(z), disk, pl)
        return
    assert_close(disk_power_force(AxisProbe(z), disk, pl), mp_power_force(z, disk, n))


@domain
@given(lengths, lengths, disks, exponents)
def test_xi_power_matches_mpmath(a, radius, disk, n):
    inputs = XiInputs(a, radius, disk)
    if power_diverges(disk, n):
        with pytest.raises(InputError, match="diverges"):
            xi_power(inputs, n)
        return
    if disk.density == 0.0:
        with pytest.raises(DegenerateInputError, match="0/0"):
            xi_power(inputs, n)
        return
    # the far pole at the float a + 2R, as in xi_power
    want = mp_power_force(a, disk, n) / mp_power_force(a + 2.0 * radius, disk, n)
    assert_close(xi_power(inputs, n), want)


@pytest.mark.parametrize("z,rd,d1,n", [
    # the rim differences cancelled to 0.0 for R_d << z
    (4.67e3, 0.136e-9, 18.6e-3, 3.0),
    (9.63e3, 0.715e-9, 438.0, 7.44),
    (4.57e-3, 0.343e-6, 196.0, 1.0),
    # and were up to 4.5e-8 off here
    (1.0, 0.1e-3, 0.5, 1.0),
    (1.0, 0.1e-3, 0.5, 2.0),
    (1.0, 0.1e-3, 0.5, 2.5),
    (1.0, 0.1e-3, 0.5, 3.0),
    # N = 3 is a regular point: these were refused as too close to a pole
    (100e-9, 300e-6, 3.5e-6, 3.0 + 5e-7),
    (100e-9, 300e-6, 3.5e-6, 3.0 - 1e-9),
])
def test_disk_power_force_pinned(z, rd, d1, n):
    disk = Disk(rd, d1, 2330.0)
    assert_close(disk_power_force(AxisProbe(z), disk, PowerLawParams(1.0, n)),
                 mp_power_force(z, disk, n))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e290])
def test_xi_yukawa_at_extreme_length_scales_matches_mpmath(scale):
    # the drop integral squared lengths: a ZeroDivisionError from 1e-100 m
    # down and nan from 1e100 m up
    a, radius, d1, lam, rd = (v * scale for v in (1.0, 1e-3, 1.5, 1e3, 2.0))
    far = M(a) + 2 * M(radius)
    want = mp.log(mp_yukawa_face_terms(a, Disk(rd, d1, 1.0), lam)
                  / mp_yukawa_face_terms(far, Disk(rd, d1, 1.0), lam))
    got = xi_yukawa(XiInputs(a, radius, Disk(rd, d1, 2330.0)), YukawaParams(1.0, lam))
    assert_close(got, want)
