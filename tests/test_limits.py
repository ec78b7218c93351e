import math
from dataclasses import replace

import pytest

import ypfa.layered
import ypfa.yukawa
from ypfa import (G_DEFAULT, INFINITE, DegenerateInputError, InputError, LayeredConfig,
                  ResidualBound, SphereSlabConfig, SweepGrid, YukawaParams, alpha_limit, eta,
                  eta_delta, exclusion_curve, layered_epfa_force, layered_pfa_force,
                  limit_shift, sphere_slab_force_exact, sphere_slab_force_pfa)


def flat_bounds(residual=1e-16):
    return ResidualBound(entries=tuple((a, residual)
                                       for a in (100e-9, 160e-9, 250e-9, 400e-9, 1e-6)))


@pytest.fixture
def geometry():
    return SphereSlabConfig(separation=100e-9, sphere_radius=150e-6,
                            sphere_density=4100.0, slab_thickness=3.5e-6,
                            slab_density=2330.0, d2=INFINITE)


def test_residual_bound_validation():
    with pytest.raises(InputError):
        ResidualBound(entries=())
    with pytest.raises(InputError):
        ResidualBound(entries=((1e-7, 1e-16), (1e-7, 1e-16)))  # not increasing
    with pytest.raises(InputError):
        ResidualBound(entries=((1e-7, -1e-16),))
    with pytest.raises(InputError):
        ResidualBound(entries=((1e-7, math.nan),))


def test_residual_bound_from_csv(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("separation_m,residual_N\n1e-07,5e-16\n2e-07,3e-16\n")
    bounds = ResidualBound.from_csv(str(path))
    assert bounds.entries == ((1e-07, 5e-16), (2e-07, 3e-16))


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("wrong,header\n1,2\n", ":1"),
    ("separation_m,residual_N\n", "no data"),
    ("separation_m,residual_N\n1e-7\n", ":2"),
    ("separation_m,residual_N\n1e-7,abc\n", ":2"),
    ("separation_m,residual_N\n2e-7,1e-16\n1e-7,1e-16\n", "increasing"),
    ("separation_m,residual_N\n2e-7,1e-16\n1e-7,1e-16\n", ":3"),
    ("separation_m,residual_N\n1e-7,1e-16\n2e-7,nan\n", ":3"),
    ("separation_m,residual_N\n1e-7,1e-16\n2e-7,-1e-16\n", ":3"),
])
def test_residual_bound_csv_errors_name_lines(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(InputError) as err:
        ResidualBound.from_csv(str(path))
    assert fragment in str(err.value)


def test_alpha_limit_scales_with_residuals(geometry):
    lam = 1e-7
    single = alpha_limit(lam, flat_bounds(1e-16), geometry, "epfa")
    double = alpha_limit(lam, flat_bounds(2e-16), geometry, "epfa")
    assert double.alpha_bound == 2.0 * single.alpha_bound
    assert double.best_separation == single.best_separation


def test_alpha_limit_exponential_growth_toward_small_lambda(geometry):
    a = 100e-9
    bounds = ResidualBound(entries=((a, 1e-16),))
    b1 = alpha_limit(2e-9, bounds, geometry, "epfa").alpha_bound
    b2 = alpha_limit(1e-9, bounds, geometry, "epfa").alpha_bound
    slope = math.log(b2 / b1) / (a / 1e-9 - a / 2e-9)
    assert slope == pytest.approx(1.0, rel=0.05, abs=0.0)


def test_alpha_limit_epfa_over_pfa_is_inverse_eta(geometry):
    bounds = flat_bounds()
    for lam in (1e-8, 1e-7, 1e-6, 1e-5):
        pfa = alpha_limit(lam, bounds, geometry, "pfa")
        epfa = alpha_limit(lam, bounds, geometry, "epfa")
        assert pfa.best_separation == epfa.best_separation
        ratio = epfa.alpha_bound / pfa.alpha_bound
        want = 1.0 / eta(geometry.sphere_radius, INFINITE, lam).eta
        assert abs(ratio / want - 1.0) < 1e-12


def test_alpha_limit_degenerate_inputs(geometry):
    dead = SphereSlabConfig(100e-9, 150e-6, 0.0, 3.5e-6, 2330.0)
    with pytest.raises(DegenerateInputError):
        alpha_limit(1e-7, flat_bounds(), dead, "epfa")
    with pytest.raises(InputError):
        alpha_limit(1e-7, flat_bounds(), geometry, "exact")


def test_exclusion_curve_single_point_grid(geometry):
    grid = SweepGrid(min=1e-7, max=1e-7, points=1)
    curve = exclusion_curve(grid, flat_bounds(), geometry, "epfa")
    assert len(curve) == 1
    assert curve[0] == alpha_limit(1e-7, flat_bounds(), geometry, "epfa")


def test_exclusion_curve_epfa_weaker_than_pfa(geometry):
    grid = SweepGrid(min=1e-8, max=1e-5, points=16)
    pfa = exclusion_curve(grid, flat_bounds(), geometry, "pfa")
    epfa = exclusion_curve(grid, flat_bounds(), geometry, "epfa")
    for weak, strong in zip(epfa, pfa):
        assert weak.alpha_bound > strong.alpha_bound


def test_exclusion_curve_layered_short_range_shift(layered_cfg):
    # at lam = 1 nm the coat-thickness limit is already fully saturated
    # (corrections ~ e^(-180)) while the unit-alpha forces stay representable
    lam = 1e-9
    bounds = flat_bounds()
    pfa = alpha_limit(lam, bounds, layered_cfg, "pfa")
    epfa = alpha_limit(lam, bounds, layered_cfg, "epfa")
    assert epfa.alpha_bound / pfa.alpha_bound == pytest.approx(1 / 1.00126, abs=1e-4)


def test_alpha_limit_underflow_is_degenerate_not_wrong(layered_cfg):
    # at lam = 0.1 nm every unit-alpha force underflows (e^(-1000)) and the
    # bound itself (~1e+434) is unrepresentable; the op must refuse rather
    # than return junk. The ratio at that lam is available via limit_shift.
    with pytest.raises(DegenerateInputError):
        alpha_limit(0.1e-9, flat_bounds(), layered_cfg, "epfa")
    shift = limit_shift(0.1e-9, layered_cfg)
    assert shift == pytest.approx(1 / 1.00126, abs=1e-4)


@pytest.mark.parametrize("method", ["pfa", "epfa"])
def test_alpha_limit_skips_overflowing_forces(geometry, method):
    # with 1e12 kg/m3 densities the unit-alpha force at lam = 1e98 m is inf,
    # and residual / inf used to bound alpha by 0
    dense = replace(geometry, sphere_density=1e12, slab_density=1e12)
    law = dense.law(method, YukawaParams(1.0, 1e98))
    assert math.isinf(law(1e-7))
    with pytest.raises(DegenerateInputError, match="overflow"):
        alpha_limit(1e98, flat_bounds(), dense, method)
    # a row whose force is finite still sets the bound
    finite = dense.law(method, YukawaParams(1.0, 1e90))
    point = alpha_limit(1e90, flat_bounds(), dense, method)
    assert point.alpha_bound > 0.0
    assert point.alpha_bound == min(1e-16 / abs(finite(a)) for a, _ in flat_bounds().entries
                                    if math.isfinite(finite(a)))


def test_alpha_limit_skips_subnormal_forces(geometry):
    # at this lam the 100 nm row's unit-alpha force is about 1e-318 N, a
    # subnormal that has lost most of its digits: it must not set the bound
    lam = 1.5338811635920455e-10
    assert 0.0 < abs(geometry.law("epfa", YukawaParams(1.0, lam))(1e-7)) < 1e-308
    with pytest.raises(DegenerateInputError, match="subnormal"):
        alpha_limit(lam, ResidualBound(entries=((1e-7, 1e-16),)), geometry, "epfa")
    # a normal-force row with a bound weaker than the subnormal row's still sets it
    bounds = ResidualBound(entries=((9.5e-8, 1.0), (1e-7, 1e-16)))
    point = alpha_limit(lam, bounds, geometry, "epfa")
    assert point.best_separation == 9.5e-8
    assert point.alpha_bound == 1.0 / abs(geometry.law("epfa", YukawaParams(1.0, lam))(9.5e-8))
    assert point.alpha_bound > 1e302


def test_alpha_limit_continuous_across_phi_branch_switch(geometry):
    # u = 2R/lam crosses the series/direct threshold at lam = 2R/1e-3
    lam_switch = 2 * geometry.sphere_radius / 1e-3
    bounds = flat_bounds()
    below = alpha_limit(lam_switch * (1 - 1e-12), bounds, geometry, "epfa")
    above = alpha_limit(lam_switch * (1 + 1e-12), bounds, geometry, "epfa")
    assert abs(below.alpha_bound / above.alpha_bound - 1.0) < 1e-9


def test_limit_shift_values(geometry, layered_cfg):
    assert limit_shift(1e-11, geometry) == pytest.approx(1.0, abs=1e-6)
    at_radius = limit_shift(geometry.sphere_radius, geometry)
    assert at_radius == pytest.approx(math.e ** 2 / 2.0, rel=1e-12, abs=0.0)
    layered = limit_shift(0.1e-9, layered_cfg)
    assert layered == pytest.approx(1 / 1.00126, abs=1e-4)
    expected = 1.0 / eta_delta(layered_cfg, YukawaParams(1.0, 0.1e-9)).eta_delta
    assert layered == expected


def test_limit_shift_uses_the_layered_configs_own_d2(layered_cfg):
    # d2 lives in the config, so the shift is the ratio of the two bounds
    # alpha_limit reports for that same config
    cfg = replace(layered_cfg, d2=1e-6)
    lam = 1e-6
    ratio = (alpha_limit(lam, flat_bounds(), cfg, "epfa").alpha_bound
             / alpha_limit(lam, flat_bounds(), cfg, "pfa").alpha_bound)
    assert limit_shift(lam, cfg) == pytest.approx(ratio, rel=1e-12, abs=0.0)


def test_pfa_method_builds_only_the_pfa_law(geometry, layered_cfg, monkeypatch):
    # a pfa bound reads no epfa law, so a failing exact-side factor cannot stop it
    cases = [(cfg, alpha_limit(1e-6, flat_bounds(), cfg, "pfa"))
             for cfg in (geometry, layered_cfg)]

    def refuse(*args, **kwargs):
        raise InputError("epfa law built")

    monkeypatch.setattr(ypfa.yukawa, "phi_of_radius", refuse)
    monkeypatch.setattr(ypfa.layered, "_epfa_law", refuse)
    for cfg, want in cases:
        assert alpha_limit(1e-6, flat_bounds(), cfg, "pfa") == want
        with pytest.raises(InputError, match="epfa law built"):
            alpha_limit(1e-6, flat_bounds(), cfg, "epfa")


@pytest.mark.parametrize("kind", ["homogeneous", "layered"])
def test_law_refuses_an_unknown_method(geometry, layered_cfg, kind):
    # a method that is neither 'pfa' nor 'epfa' is an input error, not the PFA law
    cfg = geometry if kind == "homogeneous" else layered_cfg
    for method in ("exact", "PFA", ""):
        with pytest.raises(InputError, match="'pfa' or 'epfa', got"):
            cfg.law(method, YukawaParams(1.0, 1e-6))


@pytest.mark.parametrize("method", ["exact", "PFA", ""])
def test_alpha_limit_and_the_laws_refuse_a_method_with_one_message(geometry, layered_cfg,
                                                                    method):
    # one check serves all three; alpha_limit runs it before its G check
    calls = [lambda: alpha_limit(1e-6, flat_bounds(), geometry, method),
             lambda: alpha_limit(1e-6, flat_bounds(), layered_cfg, method, math.nan),
             lambda: alpha_limit(1e-6, flat_bounds(), geometry, method, 0.0),
             lambda: geometry.law(method, YukawaParams(1.0, 1e-6)),
             lambda: layered_cfg.law(method, YukawaParams(1.0, 1e-6))]
    messages = set()
    for call in calls:
        with pytest.raises(InputError) as refused:
            call()
        messages.add(str(refused.value))
    assert messages == {f"method must be 'pfa' or 'epfa', got {method!r}"}


@pytest.mark.parametrize("lam,regime", [(0.1e-9, "direct"), (1e-6, "direct"),
                                        (1.0, "series_small_u")])
def test_shift_vs_pfa_is_the_law_pairs_ratio(geometry, layered_cfg, lam, regime):
    # the epfa point's shift is 1/eta or 1/eta_delta bit for bit, on both Phi
    # branches, and equals alpha_epfa/alpha_pfa; the 1 nm row keeps every
    # force representable at lam = 0.1 nm
    assert eta(geometry.sphere_radius, INFINITE, lam).regime == regime
    bounds = ResidualBound(entries=((1e-9, 1e-30), (1e-7, 1e-16)))
    p = YukawaParams(1.0, lam)
    cases = [(replace(geometry, d2=d2), 1.0 / eta(geometry.sphere_radius, d2, lam).eta)
             for d2 in (INFINITE, 10e-6)]
    cases.append((layered_cfg, 1.0 / eta_delta(layered_cfg, p).eta_delta))
    for cfg, want in cases:
        epfa = alpha_limit(lam, bounds, cfg, "epfa")
        pfa = alpha_limit(lam, bounds, cfg, "pfa")
        assert epfa.shift_vs_pfa == want == limit_shift(lam, cfg)
        assert pfa.shift_vs_pfa is None
        assert abs(epfa.alpha_bound / pfa.alpha_bound / want - 1.0) < 1e-12


def test_argmin_stable_under_uniform_scaling(geometry):
    lam = 5e-7
    base = alpha_limit(lam, flat_bounds(1e-16), geometry, "epfa")
    scaled = alpha_limit(lam, flat_bounds(7.3e-16), geometry, "epfa")
    assert base.best_separation == scaled.best_separation


def _direct_alpha_limit(lam, bounds, geometry, method, alpha=1.0):
    """min over rows of residual / |F(a)|, rebuilding the geometry per row."""
    p = YukawaParams(alpha=alpha, lam=lam)
    best = None
    for a, residual in bounds.entries:
        cfg = replace(geometry, separation=a)
        if isinstance(geometry, LayeredConfig):
            force = layered_pfa_force(cfg, p) if method == "pfa" else layered_epfa_force(cfg, p)
        elif method == "pfa":
            force = sphere_slab_force_pfa(cfg, p)
        else:
            force = sphere_slab_force_exact(cfg, p)
        if abs(force) == 0.0:
            continue
        if best is None or residual / abs(force) < best[0]:
            best = (residual / abs(force), a)
    return best


@pytest.mark.parametrize("method", ["pfa", "epfa"])
@pytest.mark.parametrize("layered", [False, True])
def test_alpha_limit_equals_direct_minimum(geometry, layered_cfg, method, layered):
    cfg = layered_cfg if layered else replace(geometry, d2=10e-6)
    bounds = ResidualBound(entries=((6e-8, 2e-16), (1e-7, 1.3e-16), (2.2e-7, 9e-17),
                                    (5e-7, 4e-17), (1e-6, 3e-17)))
    # at 1 nm the 1 um row underflows and is skipped; at 1 m Phi takes its series branch
    for lam in (1e-9, 2e-8, 1.7e-7, 4e-6, 150e-6, 1.0):
        point = alpha_limit(lam, bounds, cfg, method)
        assert (point.alpha_bound, point.best_separation) == \
            _direct_alpha_limit(lam, bounds, cfg, method)


@pytest.mark.parametrize("method", ["pfa", "epfa"])
@pytest.mark.parametrize("layered", [False, True])
def test_alpha_limit_at_another_g_uses_the_unit_coupling(geometry, layered_cfg, method, layered):
    # every force is alpha G times a G-free factor, so the unit-alpha force
    # at G = g is the force at alpha = g / G_DEFAULT
    g = 6.1e-11
    cfg = layered_cfg if layered else replace(geometry, d2=10e-6)
    bounds = ResidualBound(entries=((6e-8, 2e-16), (1e-7, 1.3e-16), (2.2e-7, 9e-17),
                                    (5e-7, 4e-17), (1e-6, 3e-17)))
    for lam in (1e-9, 2e-8, 1.7e-7, 4e-6, 150e-6, 1.0):
        point = alpha_limit(lam, bounds, cfg, method, g)
        assert (point.alpha_bound, point.best_separation) == \
            _direct_alpha_limit(lam, bounds, cfg, method, alpha=g / G_DEFAULT)
        assert exclusion_curve(SweepGrid(lam, lam, 1), bounds, cfg, method, g) == [point]
