import math
import sys
from dataclasses import replace

import pytest

from ypfa import (INFINITE, InputError, PhysicalConstants, SphereSlabConfig, YukawaParams, eta,
                  slab_slab_pressure, sphere_slab_force_exact, sphere_slab_force_pfa)
from ypfa.numerics import one_minus_exp
from ypfa.yukawa import phi

C = PhysicalConstants()


def test_slab_slab_vanishing_slab():
    p = YukawaParams(1.0, 1e-7)
    assert slab_slab_pressure(1e-7, 0.0, 2330.0, INFINITE, 4100.0, p) == 0.0


def test_slab_slab_thick_limit():
    a, lam = 100e-9, 20e-9
    p = YukawaParams(1.0, lam)
    got = slab_slab_pressure(a, INFINITE, 2330.0, INFINITE, 4100.0, p)
    want = -2 * math.pi * C.G * 2330.0 * 4100.0 * lam * lam * math.exp(-a / lam)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    # a very thick finite slab is indistinguishable at this lambda
    nearly = slab_slab_pressure(a, 1e-3, 2330.0, 1e-3, 4100.0, p)
    assert nearly == pytest.approx(got, rel=1e-15, abs=0.0)


def test_exact_force_tends_to_pfa_for_short_range(homogeneous_cfg):
    # lam << R: the curvature factor approaches 1 like lam/R
    lam = 1e-9
    p = YukawaParams(1.0, lam)
    exact = sphere_slab_force_exact(homogeneous_cfg, p)
    pfa = sphere_slab_force_pfa(homogeneous_cfg, p)
    ratio = exact / pfa
    assert abs(ratio - 1.0) == pytest.approx(lam / homogeneous_cfg.sphere_radius,
                                             rel=1e-4, abs=0.0)


def test_pfa_overestimates_exact(homogeneous_cfg):
    for lam in (1e-8, 1e-7, 1e-6, 1e-4):
        p = YukawaParams(1.0, lam)
        exact = sphere_slab_force_exact(homogeneous_cfg, p)
        pfa = sphere_slab_force_pfa(homogeneous_cfg, p)
        assert abs(pfa) >= abs(exact)


def test_force_ratio_equals_eta(homogeneous_cfg):
    for lam, d2 in ((1e-7, INFINITE), (1e-6, INFINITE), (5e-7, 2e-6), (1e-5, 1e-5)):
        p = YukawaParams(1.0, lam)
        ratio = (sphere_slab_force_exact(homogeneous_cfg, p)
                 / sphere_slab_force_pfa(replace(homogeneous_cfg, d2=d2), p))
        want = eta(homogeneous_cfg.sphere_radius, d2, lam).eta
        assert abs(ratio / want - 1.0) < 1e-14


def test_eta_independent_of_separation():
    radius = 150e-6
    for lam in (5e-8, 1e-6, 2e-5):
        p = YukawaParams(1.0, lam)
        want = eta(radius, INFINITE, lam).eta
        for a in (50e-9, 200e-9, 1e-6):
            cfg = SphereSlabConfig(a, radius, 4100.0, 3.5e-6, 2330.0, INFINITE)
            ratio = (sphere_slab_force_exact(cfg, p)
                     / sphere_slab_force_pfa(cfg, p))
            assert abs(ratio / want - 1.0) < 1e-12


def test_eta_range_and_monotonicity_half_space():
    radius = 150e-6
    previous = None
    for i in range(200):
        lam = 1e-9 * (1e6 ** (i / 199.0))
        value = eta(radius, INFINITE, lam).eta
        assert 0.0 < value <= 1.0
        if previous is not None:
            assert value < previous
        previous = value


def test_eta_long_range_asymptote_slope():
    # eta -> (2R/lam)^2/6: slope -2 on a log-log grid, within 1%
    radius = 150e-6
    lam1, lam2 = 0.5, 5.0
    e1 = eta(radius, INFINITE, lam1).eta
    e2 = eta(radius, INFINITE, lam2).eta
    slope = math.log(e2 / e1) / math.log(lam2 / lam1)
    assert slope == pytest.approx(-2.0, rel=0.01, abs=0.0)
    assert e2 == pytest.approx((2 * radius / lam2) ** 2 / 6.0, rel=1e-3, abs=0.0)


def test_eta_exceeds_one_for_thin_virtual_plate():
    # d2 = 10 lam and lam far below R: volumetric character shows up
    value = eta(150e-6, 50e-9, 5e-9).eta
    assert value > 1.0


def test_eta_value_at_lambda_equal_radius():
    value = eta(150e-6, INFINITE, 150e-6).eta
    assert value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14, abs=0.0)


def test_forces_scale_exactly():
    cfg = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0)
    base = sphere_slab_force_exact(cfg, YukawaParams(1.0, 1e-7))
    assert sphere_slab_force_exact(cfg, YukawaParams(2.0, 1e-7)) == 2.0 * base
    doubled_rho = SphereSlabConfig(1e-7, 150e-6, 8200.0, 3.5e-6, 2330.0)
    assert sphere_slab_force_exact(doubled_rho, YukawaParams(1.0, 1e-7)) == 2.0 * base
    doubled_slab = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 4660.0)
    assert sphere_slab_force_exact(doubled_slab, YukawaParams(1.0, 1e-7)) == 2.0 * base


def test_pfa_force_consistent_with_slab_energy(homogeneous_cfg):
    # F_pfa == 2 pi R E_pp with E_pp = lam * P for the exponential profile
    lam = 2e-7
    p = YukawaParams(1.0, lam)
    pressure = slab_slab_pressure(homogeneous_cfg.separation,
                                  homogeneous_cfg.slab_thickness,
                                  homogeneous_cfg.slab_density,
                                  INFINITE, homogeneous_cfg.sphere_density, p)
    via_energy = 2.0 * math.pi * homogeneous_cfg.sphere_radius * lam * pressure
    direct = sphere_slab_force_pfa(homogeneous_cfg, p)
    assert abs(via_energy / direct - 1.0) < 1e-14


from hypothesis import example, given, strategies as st


@given(st.floats(min_value=1e-8, max_value=1e-5),
       st.floats(min_value=1e-9, max_value=1e-3),
       st.floats(min_value=1e-5, max_value=1e-3))
# e^(-a/lam) = e^(-643) leaves a subnormal PFA force (-1.35e-313 N) with too
# few significant bits for a 1e-13 identity; the guard must skip it
@example(a=6.430451979991535e-07, lam=1e-09, radius=1e-05)
def test_force_ratio_identity_property(a, lam, radius):
    cfg = SphereSlabConfig(a, radius, 4100.0, 3.5e-6, 2330.0, INFINITE)
    p = YukawaParams(1.0, lam)
    pfa = sphere_slab_force_pfa(cfg, p)
    if abs(pfa) < sys.float_info.min:  # e^(-a/lam) underflow at extreme corner draws
        return
    ratio = sphere_slab_force_exact(cfg, p) / pfa
    want = eta(radius, INFINITE, lam).eta
    assert ratio == pytest.approx(want, rel=1e-13, abs=0.0)


@given(st.floats(min_value=1e-8, max_value=1e-6),
       st.floats(min_value=1e-8, max_value=1e-6))
def test_slab_pressure_decays_with_gap(a, lam):
    p = YukawaParams(1.0, lam)
    near = slab_slab_pressure(a, 3.5e-6, 2330.0, INFINITE, 4100.0, p)
    far = slab_slab_pressure(2 * a, 3.5e-6, 2330.0, INFINITE, 4100.0, p)
    assert near <= far <= 0.0  # attractive, magnitude shrinking with gap


# The one-line product forms the sphere-slab forces had before they were
# split into a separation law; the laws must reproduce them bit for bit.
def _product_exact(cfg, p, c):
    lam = p.lam
    phi_value, _ = phi(2.0 * cfg.sphere_radius / lam)
    return (-4.0 * math.pi ** 2 * p.alpha * c.G * cfg.slab_density * cfg.sphere_density
            * lam ** 3 * cfg.sphere_radius * math.exp(-cfg.separation / lam)
            * one_minus_exp(cfg.slab_thickness / lam) * phi_value)


def _product_pfa(cfg, p, c):
    lam = p.lam
    return (-4.0 * math.pi ** 2 * p.alpha * c.G * cfg.slab_density * cfg.sphere_density
            * lam ** 3 * cfg.sphere_radius * math.exp(-cfg.separation / lam)
            * one_minus_exp(cfg.slab_thickness / lam) * one_minus_exp(cfg.d2 / lam))


#: 2R/lam < 1e-3 (series Phi) from lam = 1 m up; lam = 0.1 nm underflows
#: e^(-a/lam) to 0 at every separation from 100 nm.
FORCE_GRID_LAMBDAS = (1e-10, 1e-9, 3.7e-8, 1e-6, 150e-6, 2e-3, 1.0, 1e3)


def test_sphere_slab_forces_equal_their_product_form():
    c = PhysicalConstants(G=6.1e-11)
    regimes, zeros = set(), 0
    for lam in FORCE_GRID_LAMBDAS:
        regimes.add(eta(150e-6, INFINITE, lam).regime)
        p = YukawaParams(alpha=-2.5, lam=lam)
        for a in (1e-8, 1e-7, 1e-6):
            cfg = SphereSlabConfig(a, 150e-6, 4100.0, 3.5e-6, 2330.0)
            exact = sphere_slab_force_exact(cfg, p, c)
            assert exact == _product_exact(cfg, p, c)
            zeros += exact == 0.0
            for d2 in (INFINITE, 1e-6, 10.0):
                pfa_cfg = replace(cfg, d2=d2)
                assert sphere_slab_force_pfa(pfa_cfg, p, c) == _product_pfa(pfa_cfg, p, c)
    assert regimes == {"series_small_u", "direct"}
    assert zeros >= 2


@pytest.mark.parametrize("d2", [0.0, -1e-6, math.nan, -INFINITE])
def test_nonpositive_or_nan_d2_rejected(homogeneous_cfg, d2):
    with pytest.raises(InputError, match="d2"):
        eta(150e-6, d2, 1e-7)
    with pytest.raises(InputError, match="d2"):
        replace(homogeneous_cfg, d2=d2)
