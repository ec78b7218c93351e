import math
from dataclasses import replace

import pytest

from ypfa import (INFINITE, NO_LAYER, DegenerateInputError, InputError, Layer, LayeredConfig,
                  LayeredSlab, LayeredSphere, PhysicalConstants, SphereSlabConfig, YukawaParams,
                  eta, eta_delta, layered_epfa_energy, layered_epfa_force, layered_pfa_force,
                  layered_slab_potential, oracle_layered_sphere_slab,
                  oracle_layered_stack_potential, slab_slab_pressure,
                  sphere_slab_force_exact, sphere_slab_force_pfa)
from ypfa.layered import slab_stack_factor, sphere_shell_factor


def bare_slab(density=2330.0, thickness=3.5e-6):
    return LayeredSlab(base=Layer(thickness, density))


def bare_sphere(radius=150e-6, density=4100.0):
    return LayeredSphere(core_radius=radius, core_density=density)


# --------------------------------------------------------------- potential

def test_potential_uniform_density_collapse(coated_stack):
    # equal densities everywhere == one homogeneous slab of the summed thickness
    rho = 5000.0
    uniform = LayeredSlab(base=Layer(3.5e-6, rho), middle=Layer(10e-9, rho),
                          top=Layer(210e-9, rho))
    total = 3.5e-6 + 10e-9 + 210e-9
    p = YukawaParams(1.0, 3e-7)
    got = layered_slab_potential(2e-7, uniform, p)
    want = layered_slab_potential(2e-7, bare_slab(rho, total), p)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_potential_no_coatings_reduction():
    p = YukawaParams(1.0, 1e-7)
    got = layered_slab_potential(1e-7, bare_slab(), p)
    want = (-2 * math.pi * 6.67430e-11 * 2330.0 * (1e-7) ** 2 * math.exp(-1.0)
            * -math.expm1(-3.5e-6 / 1e-7))
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_potential_rejects_nonpositive_height(coated_stack):
    with pytest.raises(InputError):
        layered_slab_potential(0.0, coated_stack, YukawaParams(1.0, 1e-7))


def test_potential_against_stack_quadrature(coated_stack):
    p = YukawaParams(1.0, 1e-7)
    got = layered_slab_potential(1e-7, coated_stack, p)
    report = oracle_layered_stack_potential(1e-7, coated_stack, p)
    assert report.converged
    assert report.check_against(got) < 1e-9


# ------------------------------------------------------------ EPFA energy

def test_epfa_energy_no_coatings_equals_homogeneous():
    cfg = LayeredConfig(separation=1e-7, sphere=bare_sphere(), slab=bare_slab())
    hom = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0)
    for lam in (1e-8, 1e-7, 1e-6, 1e-4):
        p = YukawaParams(1.0, lam)
        assert layered_epfa_force(cfg, p) == pytest.approx(
            sphere_slab_force_exact(hom, p), rel=1e-12, abs=0.0)


def test_epfa_energy_uniform_sphere_collapse(coated_stack):
    rho = 4100.0
    uniform = LayeredSphere(core_radius=150e-6, core_density=rho,
                            inner_coat=Layer(10e-9, rho), outer_coat=Layer(180e-9, rho))
    cfg = LayeredConfig(separation=1e-7, sphere=uniform, slab=coated_stack)
    hom_equiv = LayeredConfig(separation=1e-7,
                              sphere=bare_sphere(radius=150e-6 + 190e-9, density=rho),
                              slab=coated_stack)
    for lam in (5e-8, 1e-6, 1e-4):
        p = YukawaParams(1.0, lam)
        assert layered_epfa_energy(cfg, p) == pytest.approx(
            layered_epfa_energy(hom_equiv, p), rel=1e-12, abs=0.0)


def test_epfa_energy_against_shell_quadrature(layered_cfg):
    p = YukawaParams(1.0, 1e-6)
    got = layered_epfa_energy(layered_cfg, p)
    report = oracle_layered_sphere_slab(layered_cfg, p)
    assert report.converged
    assert report.check_against(got) < 1e-6


def test_epfa_force_is_energy_over_lambda_and_matches_gradient(layered_cfg):
    lam = 1e-7
    p = YukawaParams(1.0, lam)
    a = layered_cfg.separation
    h = a * 1e-6
    up = layered_epfa_energy(LayeredConfig(a + h, layered_cfg.sphere,
                                           layered_cfg.slab, layered_cfg.d2), p)
    down = layered_epfa_energy(LayeredConfig(a - h, layered_cfg.sphere,
                                             layered_cfg.slab, layered_cfg.d2), p)
    gradient_force = -(up - down) / (2 * h)
    force = layered_epfa_force(layered_cfg, p)
    assert force == pytest.approx(layered_epfa_energy(layered_cfg, p) / lam, rel=1e-15, abs=0.0)
    assert gradient_force == pytest.approx(force, rel=1e-8, abs=0.0)


def test_epfa_linear_in_alpha_and_density(layered_cfg):
    p1 = YukawaParams(1.0, 2e-7)
    p2 = YukawaParams(2.0, 2e-7)
    assert layered_epfa_force(layered_cfg, p2) == 2.0 * layered_epfa_force(layered_cfg, p1)

    def with_inner_density(rho):
        sphere = LayeredSphere(core_radius=layered_cfg.sphere.core_radius,
                               core_density=layered_cfg.sphere.core_density,
                               inner_coat=Layer(10e-9, rho),
                               outer_coat=layered_cfg.sphere.outer_coat)
        return LayeredConfig(layered_cfg.separation, sphere, layered_cfg.slab,
                             layered_cfg.d2)

    base = layered_epfa_energy(with_inner_density(0.0), p1)
    u_x = layered_epfa_energy(with_inner_density(3000.0), p1)
    u_y = layered_epfa_energy(with_inner_density(4140.0), p1)
    u_xy = layered_epfa_energy(with_inner_density(7140.0), p1)
    # superposition in one density; float addition allows a couple of ulps
    assert (u_xy - base) == pytest.approx((u_x - base) + (u_y - base), rel=5e-15, abs=0.0)
    # doubling a density term scales it exactly (binary scaling commutes with rounding)
    assert (layered_epfa_energy(with_inner_density(6000.0), p1) - base
            ) == pytest.approx(2 * (u_x - base), rel=1e-13, abs=0.0)


# -------------------------------------------------------------- PFA force

def test_pfa_no_coatings_reduces_to_homogeneous():
    cfg = LayeredConfig(separation=1e-7, sphere=bare_sphere(), slab=bare_slab(),
                        d2=INFINITE)
    hom = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0, INFINITE)
    for lam in (1e-8, 1e-6, 1e-4):
        p = YukawaParams(1.0, lam)
        assert layered_pfa_force(cfg, p) == pytest.approx(
            sphere_slab_force_pfa(hom, p), rel=1e-15, abs=0.0)


def test_pfa_nine_term_assembly(layered_cfg):
    lam = 2e-7
    p = YukawaParams(1.0, lam)
    sphere, slab = layered_cfg.sphere, layered_cfg.slab
    a = layered_cfg.separation
    radius = sphere.core_radius
    slab_layers = [(slab.base, slab.top.thickness + slab.middle.thickness),
                   (slab.middle, slab.top.thickness),
                   (slab.top, 0.0)]
    side_layers = [(Layer(layered_cfg.d2, sphere.core_density),
                    sphere.inner_coat.thickness + sphere.outer_coat.thickness),
                   (sphere.inner_coat, sphere.outer_coat.thickness),
                   (sphere.outer_coat, 0.0)]
    # each layer pair contributes 2 pi R lam P at its own standoff
    total = math.fsum(2 * math.pi * radius * lam
                      * slab_slab_pressure(a + off1 + off2, layer1.thickness, layer1.density,
                                           layer2.thickness, layer2.density, p)
                      for layer1, off1 in slab_layers for layer2, off2 in side_layers)
    assert layered_pfa_force(layered_cfg, p) == pytest.approx(total, rel=1e-14, abs=0.0)


def test_pfa_zero_thickness_layers_contribute_exactly_zero():
    # a dense layer of zero thickness gives exactly the force of an absent one
    sphere = LayeredSphere(core_radius=150e-6, core_density=4100.0,
                           inner_coat=Layer(0.0, 7140.0), outer_coat=Layer(180e-9, 19280.0))
    cfg = LayeredConfig(separation=1e-7, sphere=sphere,
                        slab=LayeredSlab(base=Layer(3.5e-6, 2330.0),
                                         middle=Layer(0.0, 7140.0)),
                        d2=INFINITE)
    absent = LayeredConfig(separation=1e-7, sphere=replace(sphere, inner_coat=NO_LAYER),
                           slab=replace(cfg.slab, middle=NO_LAYER), d2=INFINITE)
    p = YukawaParams(1.0, 1e-7)
    assert layered_pfa_force(cfg, p) == layered_pfa_force(absent, p)
    assert layered_pfa_force(cfg, p) < 0.0


def test_vanishing_coats_add_exactly_zero():
    # an absent coat adds exactly 0; so does one whose thickness/lam underflows,
    # which must not reach Phi (it rejects u = 0)
    bare = LayeredSphere(150e-6, 4100.0)
    coated = LayeredSphere(150e-6, 4100.0, Layer(0.0, 7140.0), Layer(0.0, 19280.0))
    for lam in (1e-9, 1.0, 1e4):
        assert sphere_shell_factor(coated, lam) == sphere_shell_factor(bare, lam)
    assert sphere_shell_factor(LayeredSphere(1e-300, 0.0, outer_coat=Layer(1e-300, 1.0)),
                               1e30) == 0.0


# ---------------------------------------------------------------- eta_delta

def test_eta_delta_short_range_limit(layered_cfg):
    result = eta_delta(layered_cfg, YukawaParams(1.0, 0.1e-9))
    want = 1.0 + (10e-9 + 180e-9) / 151.3e-6
    assert result.eta_delta == pytest.approx(1.00126, abs=1e-4)
    assert result.eta_delta == pytest.approx(want, abs=1e-6)


def test_eta_delta_limit_at_hundredth_nanometre(layered_cfg):
    result = eta_delta(layered_cfg, YukawaParams(1.0, 0.01e-9))
    want = 1.0 + (10e-9 + 180e-9) / 151.3e-6
    assert abs(result.eta_delta - want) < 1e-6


def test_eta_delta_independent_of_separation(coated_sphere, coated_stack):
    lam = 5e-8
    p = YukawaParams(1.0, lam)
    ratios = []
    for a in (100e-9, 500e-9):
        cfg = LayeredConfig(separation=a, sphere=coated_sphere, slab=coated_stack,
                            d2=INFINITE)
        ratios.append(layered_epfa_force(cfg, p) / layered_pfa_force(cfg, p))
    assert abs(ratios[0] / ratios[1] - 1.0) < 1e-12
    reported = eta_delta(LayeredConfig(1e-7, coated_sphere, coated_stack, INFINITE), p)
    assert ratios[0] == pytest.approx(reported.eta_delta, rel=1e-12, abs=0.0)


def test_eta_delta_bare_sphere_equals_eta(coated_stack):
    cfg = LayeredConfig(separation=1e-7, sphere=bare_sphere(), slab=coated_stack,
                        d2=INFINITE)
    for lam in (1e-8, 1e-6, 1e-4):
        result = eta_delta(cfg, YukawaParams(1.0, lam))
        assert result.eta_delta == eta(150e-6, INFINITE, lam).eta
        assert result.ratio == 1.0


def test_eta_delta_flattens_the_homogeneous_ratio(coated_sphere, coated_stack):
    # with denser coatings the layered ratio sits slightly above eta, the
    # effect staying at the few-percent level over the whole sweep range
    for i in range(40):
        lam = 1e-9 * (1e6 ** (i / 39.0))
        cfg = LayeredConfig(separation=1e-7, sphere=coated_sphere, slab=coated_stack,
                            d2=100.0)
        result = eta_delta(cfg, YukawaParams(1.0, lam))
        assert 1.0 <= result.ratio < 1.2, f"lam={lam}"


# ------------------------------------------------- separation-law product form
# The product forms the layered forces had before they were split into a
# separation law; the laws must reproduce them bit for bit.

def _product_energy(cfg, p, c):
    lam = p.lam
    return (-4.0 * math.pi ** 2 * p.alpha * c.G * lam ** 4
            * math.exp(-cfg.separation / lam)
            * slab_stack_factor(cfg.slab, lam) * sphere_shell_factor(cfg.sphere, lam))


def _product_pfa(cfg, p, c):
    lam = p.lam
    return (-4.0 * math.pi ** 2 * p.alpha * c.G * lam ** 3 * cfg.sphere.core_radius
            * math.exp(-cfg.separation / lam)
            * slab_stack_factor(cfg.slab, lam)
            * slab_stack_factor(cfg.virtual_plate, lam))


def test_layered_forces_equal_their_product_form(coated_sphere, coated_stack):
    c = PhysicalConstants(G=6.1e-11)
    zeros = 0
    # nanometre to kilometre ranges; at lam = 0.1 nm every force underflows to 0
    for lam in (1e-10, 1e-9, 3.7e-8, 1e-6, 150e-6, 2e-3, 1.0, 1e3):
        p = YukawaParams(alpha=-2.5, lam=lam)
        for a in (1e-8, 1e-7, 1e-6):
            for d2 in (INFINITE, 1e-6, 10.0):
                cfg = LayeredConfig(a, coated_sphere, coated_stack, d2)
                energy = layered_epfa_energy(cfg, p, c)
                assert energy == _product_energy(cfg, p, c)
                assert layered_epfa_force(cfg, p, c) == _product_energy(cfg, p, c) / lam
                assert layered_pfa_force(cfg, p, c) == _product_pfa(cfg, p, c)
                zeros += energy == 0.0
    assert zeros >= 2


@pytest.mark.parametrize("core_density,outer_coat,lam", [
    (0.0, Layer(180e-9, 0.0), 1e-6),  # no mass anywhere: 0/0 at every lam
    (4100.0, Layer(1e-3, 0.0), 1e-9),  # e^(-1 mm / 1 nm) underflows to 0
    (4100.0, Layer(700e-9, 0.0), 1e-9),  # e^(-710) leaves a subnormal factor
])
def test_eta_delta_massless_sphere_side_is_degenerate(coated_stack, core_density, outer_coat,
                                                      lam):
    sphere = LayeredSphere(core_radius=150e-6, core_density=core_density,
                           inner_coat=Layer(10e-9, 0.0), outer_coat=outer_coat)
    with pytest.raises(DegenerateInputError, match="eta_delta is undefined"):
        eta_delta(LayeredConfig(1e-7, sphere, coated_stack, 100.0), YukawaParams(1.0, lam))


@pytest.mark.parametrize("lam", [1e154, 1e200])
def test_eta_delta_without_a_normal_ratio_is_degenerate(layered_cfg, lam):
    # with d2 = INFINITE, eta is subnormal at 1e154 m (a ratio of 1.0145
    # instead of 1.014727 came out) and 0 at 1e200 m, where the ratio divided by zero
    with pytest.raises(DegenerateInputError, match="lambda = 1e[+]%d m" % math.log10(lam)):
        eta_delta(replace(layered_cfg, d2=INFINITE), YukawaParams(1.0, lam))


@pytest.mark.parametrize("d2", [0.0, -1e-6, math.nan])
def test_layered_config_rejects_nonpositive_or_nan_d2(coated_sphere, coated_stack, d2):
    with pytest.raises(InputError, match="d2"):
        LayeredConfig(1e-7, coated_sphere, coated_stack, d2)
