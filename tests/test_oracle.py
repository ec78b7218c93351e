import math
import random

import mpmath
import pytest

import ypfa.oracle
from ypfa import (InputError, LayeredConfig, PhysicalConstants, QuadratureSpec,
                  SphereSlabConfig, YukawaParams, oracle_disk_point,
                  oracle_layered_sphere_slab, oracle_layered_stack_potential,
                  oracle_slab_slab_pressure, oracle_slicing_equivalence,
                  oracle_sphere_slab_yukawa, oracle_two_spheres, slab_slab_pressure)
from ypfa.core import INFINITE, Disk, Layer, LayeredSlab
from ypfa.disk import AxisProbe, disk_yukawa_force, disk_yukawa_potential
from ypfa.layered import layered_slab_potential
from ypfa.numerics import x_cosh_x_minus_sinh_x
from ypfa.oracle import (_gk_panel, _initial_mesh, _ring_polar_integral, _slab_potential,
                         integrate_adaptive)
from ypfa.verify import _SPEC_2D, _layered_sphere, _layered_stack, _scaled_disk

mpmath.mp.dps = 40

C = PhysicalConstants()


# ------------------------------------------------------------------ engine

def test_engine_polynomial():
    value, err, _, ok = integrate_adaptive(lambda x: x * x, 0.0, 1.0, QuadratureSpec())
    assert ok
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert err < 1e-12


def test_engine_boundary_layer_with_hint():
    # e^(-x/eps) over [0, 1] with eps = 1e-5: 5 decades of dynamic range
    eps = 1e-5
    value, _, _, ok = integrate_adaptive(lambda x: math.exp(-x / eps), 0.0, 1.0,
                                         QuadratureSpec(), sharp_edges=[(0.0, eps)])
    assert ok
    assert value == pytest.approx(eps, rel=1e-12)


def test_engine_against_mpmath_oscillatory():
    want = float(mpmath.quad(lambda x: mpmath.cos(40 * x) * mpmath.e ** (-x), [0, 3]))
    value, _, _, ok = integrate_adaptive(lambda x: math.cos(40 * x) * math.exp(-x),
                                         0.0, 3.0, QuadratureSpec())
    assert ok
    assert value == pytest.approx(want, rel=1e-11)


def test_engine_nonconvergence_is_reported():
    # integrable endpoint singularity: error decays too slowly for 3 splits
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=3)
    _, _, nsub, ok = integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, spec)
    assert not ok
    assert nsub == 3


def test_engine_nonfinite_error_stops_at_once():
    # an infinite integrand gives K15 = inf and G7 = nan (0 * inf), so the
    # error sum is nan and bisecting cannot help; the budget is capped so a
    # regression fails on nsub instead of bisecting toward 10^6 panels
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.inf

    spec = QuadratureSpec(max_subdivisions=50)
    value, err, nsub, ok = integrate_adaptive(f, 0.0, 1.0, spec)
    assert not ok
    assert nsub == 0
    assert calls == 15
    assert value == math.inf and math.isnan(err)


def test_engine_opposite_infinities_stop_without_raising():
    # panels holding +inf and -inf make fsum of the values raise on inf - inf;
    # the result must still be an unconverged report, not a ValueError
    value, err, nsub, ok = integrate_adaptive(
        lambda x: math.inf if x > 0.5 else -math.inf, 0.0, 1.0, QuadratureSpec(),
        sharp_edges=[(0.5, 0.25)])
    assert not ok
    assert nsub == 0
    assert math.isnan(value) and not math.isfinite(err)


def test_engine_overflowing_panel_sum_stops_without_raising():
    # panels [0, 1], [1, 3], [3, 4] hold 6e307, 1.2e308 and 6e307, each finite,
    # but their sum passes DBL_MAX, where fsum raises OverflowError
    value, _err, _nsub, ok = integrate_adaptive(
        lambda x: 6e307, 0.0, 4.0, QuadratureSpec(), sharp_edges=[(2.0, 1.0)])
    assert not ok
    assert value == math.inf


def _panel_tuple_reference(f, lo, hi, spec, sharp_edges=None):
    """integrate_adaptive as it was written with (a, b, value, error) panel
    tuples, a keyed max and a final sort by left endpoint; kept to pin the
    parallel-list loop bit for bit."""
    edges = _initial_mesh(lo, hi, sharp_edges)
    panels = []
    for a, b in zip(edges, edges[1:]):
        val, err = _gk_panel(f, a, b)
        panels.append((a, b, val, err))
    subdivisions = 0
    while True:
        total_val = math.fsum(p[2] for p in panels)
        total_err = math.fsum(p[3] for p in panels)
        if total_err <= max(spec.rel_tol * abs(total_val), spec.abs_tol):
            converged = True
            break
        if subdivisions >= spec.max_subdivisions:
            converged = False
            break
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        a, b, _, _ = panels[worst]
        mid = 0.5 * (a + b)
        panels[worst] = (a, mid, *_gk_panel(f, a, mid))
        panels.append((mid, b, *_gk_panel(f, mid, b)))
        subdivisions += 1
    panels.sort(key=lambda p: p[0])
    return (math.fsum(p[2] for p in panels), math.fsum(p[3] for p in panels),
            subdivisions, converged)


@pytest.mark.parametrize("f,lo,hi,spec,hints", [
    (lambda x: x * x, 0.0, 1.0, QuadratureSpec(), None),
    (lambda x: math.exp(-x / 1e-5), 0.0, 1.0, QuadratureSpec(), [(0.0, 1e-5)]),
    (lambda x: math.cos(40 * x) * math.exp(-x), 0.0, 3.0, QuadratureSpec(), None),
    # symmetric about 0: mirrored panels tie exactly in |K15 - G7| seven
    # times, and only the leftmost-tie rule reproduces the call order
    (lambda x: math.sqrt(abs(x)), -1.0, 1.0, QuadratureSpec(1e-10, 1e-300), None),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, QuadratureSpec(1e-13, 1e-300, 40), None),
    (lambda x: math.exp((x - 3e-4) / 1e-7), 0.0, 2e-4,
     QuadratureSpec(1e-9, 1e-300), [(2e-4, 1e-7)]),
], ids=["poly", "boundary-layer", "oscillatory", "symmetric-ties", "capped", "ring-radius"])
def test_engine_matches_panel_tuple_reference(f, lo, hi, spec, hints):
    calls = {"new": [], "reference": []}

    def logged(log):
        def g(x):
            log.append(x)
            return f(x)
        return g

    got = integrate_adaptive(logged(calls["new"]), lo, hi, spec, sharp_edges=hints)
    want = _panel_tuple_reference(logged(calls["reference"]), lo, hi, spec, hints)
    assert got == want
    assert calls["new"] == calls["reference"]


def test_engine_deterministic():
    def f(x):
        return math.sin(x) / (1 + x * x)

    runs = [integrate_adaptive(f, 0.0, 10.0, QuadratureSpec()) for _ in range(2)]
    assert runs[0] == runs[1]


def test_engine_halving_tolerance_self_consistency():
    # ten random sphere-slab configurations: halving rel_tol never moves a
    # converged value by more than the previous error estimate
    rng = random.Random(20240817)
    for _ in range(10):
        cfg = SphereSlabConfig(separation=rng.uniform(5e-8, 1e-6),
                               sphere_radius=rng.uniform(2e-5, 3e-4),
                               sphere_density=rng.uniform(1e3, 2e4),
                               slab_thickness=rng.uniform(5e-7, 1e-5),
                               slab_density=rng.uniform(1e3, 2e4))
        p = YukawaParams(1.0, rng.uniform(5e-8, 1e-4))
        loose = oracle_sphere_slab_yukawa(cfg, p, C,
                                          QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300))
        tight = oracle_sphere_slab_yukawa(cfg, p, C,
                                          QuadratureSpec(rel_tol=5e-9, abs_tol=1e-300))
        assert loose.converged and tight.converged
        assert abs(tight.value - loose.value) <= max(loose.error_estimate, 1e-300)


def test_initial_mesh_is_hint_ladders_only():
    # no uniform fill: an un-hinted range is one panel, a hint adds only its
    # geometric ladder, and a hint wider than the range adds nothing
    assert _initial_mesh(0.0, 1.0, None) == [0.0, 1.0]
    assert _initial_mesh(0.0, 1.0, [(0.0, 0.1)]) == [0.0, 0.1, 0.2, 0.4, 0.8, 1.0]
    assert _initial_mesh(-1.0, 1.0, [(1.0, 0.25)]) == [-1.0, 0.0, 0.5, 0.75, 1.0]
    assert _initial_mesh(0.0, 1.0, [(0.0, 2.0), (0.5, math.inf)]) == [0.0, 1.0]


def test_disk_yukawa_oracle_integrand_evaluations(monkeypatch):
    # the verify disk-Yukawa configuration took 22,290 integrand calls when
    # the hint ladders were topped up with a uniform fill; hint-seeded meshes
    # need 2,850
    calls = 0
    original = ypfa.oracle.integrate_adaptive

    def counting(f, *args, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(ypfa.oracle, "integrate_adaptive", counting)
    report = oracle_disk_point(AxisProbe(z=1e-7), _scaled_disk(1.0), "yukawa",
                               q=_SPEC_2D, p=YukawaParams(1.0, 5e-6))
    assert report.converged
    assert calls <= 22290 // 2


def test_layered_stack_oracle_on_an_infinite_base():
    slab, p = LayeredSlab(Layer(INFINITE, 2330.0)), YukawaParams(1.0, 1e-7)
    report = oracle_layered_stack_potential(1e-7, slab, p)
    assert report.converged
    assert report.check_against(layered_slab_potential(1e-7, slab, p)) < 1e-13


def test_layered_epfa_oracle_integrand_evaluations(monkeypatch):
    # the verify layered configuration with the smallest lam and radius took
    # 28,755 integrand calls while the polar angle was integrated
    # numerically; one radial integral per shell region needs 180
    calls = 0
    original = ypfa.oracle.integrate_adaptive

    def counting(f, *args, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(ypfa.oracle, "integrate_adaptive", counting)
    cfg = LayeredConfig(separation=1e-7, sphere=_layered_sphere(0.5), slab=_layered_stack())
    report = oracle_layered_sphere_slab(cfg, YukawaParams(1.0, 2e-7), q=_SPEC_2D)
    assert report.converged
    assert calls == 180


# ------------------------------------------------------ tolerance contract

CONTRACT_TOLS = (1e-4, 1e-6, 1e-8, 1e-10)


def _doubling(top):
    """Breakpoints 0, 1, 2, 4, ... below top, then top (mpmath.quad helper)."""
    points, x = [0.0], 1.0
    while x < top:
        points.append(x)
        x *= 2.0
    return points + [top]


def _assert_contract(reference, run):
    """|oracle - reference| <= rel_tol |value|, and estimate >= achieved
    error, at every contract tolerance.

    A nested report's estimate includes the worst inner relative error times
    the outer value; without that term the estimate fell below the achieved
    error on the verify disk-Yukawa grid at rel_tol 1e-10 in 21 of 27
    configurations, by up to 1.9x, all at the 1e-15 round-off floor.
    """
    for tol in CONTRACT_TOLS:
        report = run(QuadratureSpec(rel_tol=tol, abs_tol=1e-300))
        achieved = abs(report.value - reference)
        assert report.converged
        assert achieved <= tol * abs(report.value), (tol, achieved / abs(reference))
        assert report.error_estimate >= achieved, (tol, report.error_estimate, achieved)


# mpmath.quad stops on an absolute error near 10^-dps, so every reference
# below integrates a dimensionless O(1) integrand (lengths in units of lam)
# and restores the physical prefactor afterwards.

def test_tolerance_contract_sphere_slab():
    cfg = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0)
    lam = 1e-6
    radius = cfg.sphere_radius
    with mpmath.workdps(20):
        # z = a + lam x: slice area pi (2 R lam x - lam^2 x^2)
        shape = mpmath.quad(lambda x: (x - lam * x * x / (2.0 * radius)) * mpmath.exp(-x),
                            _doubling(min(2.0 * radius / lam, 120.0)))
        reference = float(
            cfg.sphere_density * math.pi * 2.0 * radius * lam * lam
            * -2.0 * math.pi * C.G * cfg.slab_density * lam * lam
            * -math.expm1(-cfg.slab_thickness / lam)
            * mpmath.exp(-cfg.separation / lam) * shape)
    _assert_contract(reference, lambda q: oracle_sphere_slab_yukawa(
        cfg, YukawaParams(1.0, lam), C, q))


def test_tolerance_contract_layered_stack(coated_stack):
    z, lam = 1e-7, 1e-7
    with mpmath.workdps(20):
        reference, depth = 0.0, 0.0
        for layer in (coated_stack.top, coated_stack.middle, coated_stack.base):
            decay = mpmath.quad(lambda x: mpmath.exp(-x),
                                _doubling(min(layer.thickness / lam, 120.0)))
            reference += float(-2.0 * math.pi * C.G * layer.density * lam * lam
                               * mpmath.exp(-(z + depth) / lam) * decay)
            depth += layer.thickness
    _assert_contract(reference, lambda q: oracle_layered_stack_potential(
        z, coated_stack, YukawaParams(1.0, lam), C, q))


def test_tolerance_contract_slab_slab_nested():
    a, d1, d2, lam = 2e-7, 1e-6, 1e-5, 1e-6
    with mpmath.workdps(20):
        double = mpmath.quad(lambda x, y: mpmath.exp(-x - y), _doubling(d1 / lam),
                             _doubling(d2 / lam), method="gauss-legendre")
        reference = float(2330.0 * 4100.0 * -2.0 * math.pi * C.G * lam * lam
                           * mpmath.exp(-a / lam) * double)
    _assert_contract(reference, lambda q: oracle_slab_slab_pressure(
        a, d1, 2330.0, d2, 4100.0, YukawaParams(1.0, lam), C, q))


def test_tolerance_contract_disk_yukawa_nested():
    probe, disk, lam = AxisProbe(z=1e-7), _scaled_disk(1.0), 5e-6

    def kernel(v, r):
        s = mpmath.sqrt(r * r + v * v)
        return r * v * mpmath.exp(-s) * (1.0 / s ** 2 + 1.0 / s ** 3)

    v_lo, v_hi, r_hi = probe.z / lam, (probe.z + disk.thickness) / lam, disk.radius / lam
    radii = [0.0] + [v_lo * 4.0 ** k for k in range(10) if v_lo * 4.0 ** k < r_hi] + [r_hi]
    with mpmath.workdps(20):
        double = mpmath.quad(kernel, [v_lo, v_hi], radii, method="gauss-legendre")
        reference = float(-C.G * disk.density * probe.mass * 2.0 * math.pi * lam * double)
    _assert_contract(reference, lambda q: oracle_disk_point(
        probe, disk, "yukawa", C, q, p=YukawaParams(1.0, lam)))


def test_quadrature_spec_validation():
    with pytest.raises(InputError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(InputError):
        QuadratureSpec(max_subdivisions=0)


def test_quadrature_spec_defaults():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-10
    assert spec.abs_tol == 1e-30
    assert spec.max_subdivisions == 10 ** 6


def test_oracle_runtime_depends_only_on_core():
    # the validation engine must not execute any closed-form code path;
    # type-only imports live behind TYPE_CHECKING
    import ast
    import inspect

    import ypfa.oracle as oracle_module

    tree = ast.parse(inspect.getsource(oracle_module))
    forbidden = {"yukawa", "layered", "disk", "limits", "numerics", "sweeps",
                 "config", "cli", "verify"}
    for node in tree.body:  # module level only; If guards are TYPE_CHECKING
        if isinstance(node, ast.ImportFrom) and node.module:
            leaf = node.module.split(".")[-1]
            assert leaf not in forbidden, f"oracle imports {node.module} at runtime"
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in forbidden


# ----------------------------------------------------------- sphere / slab

def test_sphere_slab_zero_density_is_zero(homogeneous_cfg):
    cfg = SphereSlabConfig(homogeneous_cfg.separation, homogeneous_cfg.sphere_radius,
                           0.0, homogeneous_cfg.slab_thickness,
                           homogeneous_cfg.slab_density)
    report = oracle_sphere_slab_yukawa(cfg, YukawaParams(1.0, 1e-7))
    assert report.value == 0.0
    assert report.converged


def test_sphere_slab_newtonian_long_range_limit(homogeneous_cfg):
    # lam >> every length: force -> alpha * (uniform-field attraction)
    lam = 10.0
    report = oracle_sphere_slab_yukawa(homogeneous_cfg, YukawaParams(1.0, lam))
    force = report.value / lam
    mass = 4.0 / 3.0 * math.pi * homogeneous_cfg.sphere_radius ** 3 \
        * homogeneous_cfg.sphere_density
    newton = -2 * math.pi * C.G * homogeneous_cfg.slab_density \
        * homogeneous_cfg.slab_thickness * mass
    assert force == pytest.approx(newton, rel=1e-3)


def test_slicing_point_mass_limit():
    # R -> 0 at fixed mass: both routes approach m * V(a + R)
    mass, radius, lam = 1e-12, 1e-9, 1e-6
    density = mass / (4.0 / 3.0 * math.pi * radius ** 3)
    cfg = SphereSlabConfig(1e-6, radius, density, 3.5e-6, 2330.0)
    h, v = oracle_slicing_equivalence(cfg, YukawaParams(1.0, lam))
    potential = (-2 * math.pi * C.G * 2330.0 * lam * lam
                 * math.exp(-(1e-6 + radius) / lam) * -math.expm1(-3.5e-6 / lam))
    assert h.value == pytest.approx(mass * potential, rel=1e-5)
    assert v.value == pytest.approx(mass * potential, rel=1e-5)


def test_slab_slab_oracle_matches_closed_form():
    p = YukawaParams(1.0, 2e-7)
    closed = slab_slab_pressure(1e-7, 3.5e-6, 2330.0, math.inf, 4100.0, p)
    report = oracle_slab_slab_pressure(1e-7, 3.5e-6, 2330.0, math.inf, 4100.0, p)
    assert report.converged
    assert report.check_against(closed) < 1e-9


# ------------------------------------------------- foundational reductions

def test_sheet_potential_reduction_against_raw_kernel():
    # the oracle's building block: an infinite sheet of unit surface density
    # gives 2 pi lam e^(-h/lam) per unit alpha G test mass. Integrate the raw
    # pair kernel e^(-s/lam)/s over the sheet radius (truncated far beyond
    # the decay shell) and compare.
    lam, h = 2e-7, 1.5e-7
    r_max = math.sqrt((h + 60 * lam) ** 2 - h * h)

    def raw(r):
        s = math.sqrt(r * r + h * h)
        return 2.0 * math.pi * r * math.exp(-s / lam) / s

    value, _, _, ok = integrate_adaptive(raw, 0.0, r_max, QuadratureSpec(),
                                         sharp_edges=[(0.0, math.sqrt(h * lam))])
    assert ok
    assert value == pytest.approx(2.0 * math.pi * lam * math.exp(-h / lam), rel=1e-10)


def test_slab_potential_against_sheet_quadrature():
    # _slab_potential is the stack of sheet potentials integrated through the
    # thickness in closed form; a one-layer stack integrates the same sheet
    # kernel numerically
    lengths = (1e-9, 1e-7, 1e-5, 1e-3, 1e-2)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    for z in lengths:
        for d in lengths + (INFINITE,):
            for lam in lengths:
                report = oracle_layered_stack_potential(
                    z, LayeredSlab(Layer(d, 2330.0)), YukawaParams(1.0, lam), C, spec)
                assert report.converged
                closed = _slab_potential(z, d, 2330.0, 1.0, lam, C.G)
                assert report.check_against(closed) <= 1e-13, (z, d, lam)


def test_ring_reduction_against_raw_kernel():
    # the polar-angle integral of a spherical ring over a slab:
    # Int_-1^1 e^((r t - C)/lam) dt = (lam/r) e^((r - C)/lam) (1 - e^(-2r/lam))
    lam, spec = 1e-6, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
    for exponent in range(-3, 4):
        r = lam * 10.0 ** exponent
        height = r + 3e-7  # the ring's lowest point 0.3 lam above the slab
        hints = [(1.0, lam / r)] if lam < 2.0 * r else None
        value, _, _, ok = integrate_adaptive(
            lambda t: math.exp((r * t - height) / lam), -1.0, 1.0, spec, sharp_edges=hints)
        assert ok
        assert value == pytest.approx(_ring_polar_integral(r, height, lam), rel=1e-10), r


def _raw_layered_sphere_slab(cfg, p, q):
    """Layered sphere / slab energy by the raw 2D (r, t) quadrature: the
    polar angle integrated numerically inside the radial integral."""
    sphere, slab, lam = cfg.sphere, cfg.slab, p.lam
    r_core = sphere.core_radius
    r_mid = r_core + sphere.inner_coat.thickness
    r_out = r_mid + sphere.outer_coat.thickness
    centre_height = cfg.separation + r_out
    stack, depth = 0.0, 0.0
    for layer in (slab.top, slab.middle, slab.base):
        stack += layer.density * math.exp(-depth / lam) * -math.expm1(-layer.thickness / lam)
        depth += layer.thickness
    prefactor = -2.0 * math.pi * p.alpha * C.G * lam * lam * stack
    inner_spec = q.tighter()
    total, converged = 0.0, True
    for lo, hi, rho in ((0.0, r_core, sphere.core_density),
                        (r_core, r_mid, sphere.inner_coat.density),
                        (r_mid, r_out, sphere.outer_coat.density)):
        if not hi > lo or rho == 0.0:
            continue

        def ring(r, rho=rho):
            nonlocal converged
            inner, _, _, ok = integrate_adaptive(
                lambda t: math.exp((r * t - centre_height) / lam), -1.0, 1.0, inner_spec,
                sharp_edges=[(1.0, lam / r)])
            converged = converged and ok
            return 2.0 * math.pi * rho * r * r * prefactor * inner

        value, _, _, ok = integrate_adaptive(ring, lo, hi, q, sharp_edges=[(hi, lam)])
        total += value
        converged = converged and ok
    return total, converged


@pytest.mark.parametrize("a,lam,scale", [
    (1e-7, 1e-9, 1.0), (5e-7, 2e-7, 0.5), (2e-6, 1e-5, 2.0), (1e-7, 1e-3, 1.0),
])
def test_layered_sphere_oracle_matches_raw_polar_quadrature(a, lam, scale):
    cfg = LayeredConfig(separation=a, sphere=_layered_sphere(scale), slab=_layered_stack())
    p = YukawaParams(1.0, lam)
    raw, raw_ok = _raw_layered_sphere_slab(cfg, p, _SPEC_2D)
    reduced = oracle_layered_sphere_slab(cfg, p, C, _SPEC_2D)
    assert raw_ok and reduced.converged
    assert reduced.check_against(raw) <= 1e-9


def test_ball_kernel_reduction_against_raw_kernel():
    # exterior potential of a uniform ball under the pair kernel equals
    # -alpha G rho 4 pi lam^2 (R cosh(R/lam) - lam sinh(R/lam)) e^(-s/lam)/s;
    # check by raw 2D quadrature over the ball volume
    radius, rho, lam, s0 = 50e-6, 3000.0, 40e-6, 140e-6

    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300)
    totals = []

    def shell(u):
        def over_angle(t):
            w = math.sqrt(s0 * s0 + u * u - 2.0 * s0 * u * t)
            return math.exp(-w / lam) / w

        inner, _, _, _ = integrate_adaptive(over_angle, -1.0, 1.0, spec)
        return 2.0 * math.pi * u * u * inner

    value, _, _, ok = integrate_adaptive(shell, 0.0, radius, spec)
    assert ok
    raw = -C.G * rho * value
    m_eff = (4.0 * math.pi * rho * lam * lam
             * (radius * math.cosh(radius / lam) - lam * math.sinh(radius / lam)))
    closed = -C.G * m_eff * math.exp(-s0 / lam) / s0
    assert raw == pytest.approx(closed, rel=1e-9)


# ------------------------------------------------------------- two spheres

def test_two_spheres_newton_exact_is_point_mass():
    radius, rho = 50e-6, 3000.0
    d = 2.1 * radius
    exact, epfa = oracle_two_spheres(radius, radius, d, rho, rho, "newton")
    mass = 4.0 / 3.0 * math.pi * radius ** 3 * rho
    assert exact.value == pytest.approx(-C.G * mass * mass / (d * d), rel=1e-14)
    assert epfa.converged


def test_two_spheres_epfa_fails_by_more_than_one_percent():
    radius, rho = 50e-6, 3000.0
    exact, epfa = oracle_two_spheres(radius, radius, 2.1 * radius, rho, rho, "newton")
    assert abs(epfa.value / exact.value - 1.0) > 0.01


def test_two_spheres_epfa_newton_matches_chord_integral():
    # the column construction for Newton has a closed value: the pressure is
    # gap-independent, so F = -2 pi G rho1 rho2 * Int 2 pi s t1 t2 ds
    r1, r2, rho = 40e-6, 60e-6, 3000.0
    exact, epfa = oracle_two_spheres(r1, r2, 3 * r2, rho, rho, "newton")
    shadow = min(r1, r2)

    def chords(s):
        return (2 * math.sqrt(r1 * r1 - s * s)) * (2 * math.sqrt(r2 * r2 - s * s))

    want = float(mpmath.quad(lambda s: 2 * math.pi * float(s) * chords(float(s)),
                             [0, shadow]))
    want *= -2 * math.pi * C.G * rho * rho
    assert epfa.value == pytest.approx(want, rel=1e-9)


def test_two_spheres_yukawa_exact_matches_factorized_form():
    # two uniform balls: U = -alpha G M1 M2 f(R1/lam) f(R2/lam) e^(-d/lam)/d
    # with f(x) = 3 (x cosh x - sinh x)/x^3; the force follows by -d/dd
    radius, rho, lam = 50e-6, 3000.0, 25e-6
    d = 2.2 * radius
    exact, _ = oracle_two_spheres(radius, radius, d, rho, rho, "yukawa",
                                  YukawaParams(1.0, lam))
    mass = 4.0 / 3.0 * math.pi * radius ** 3 * rho
    x = radius / lam
    form = 3.0 * x_cosh_x_minus_sinh_x(x) / x ** 3
    want = (-C.G * mass * mass * form * form * math.exp(-d / lam)
            * (1.0 / (lam * d) + 1.0 / (d * d)))
    assert exact.converged
    assert exact.value == pytest.approx(want, rel=1e-8)


def test_two_spheres_rejects_overlap():
    with pytest.raises(InputError):
        oracle_two_spheres(1e-6, 1e-6, 1.5e-6, 1.0, 1.0, "newton")


# ---------------------------------------------------------------- disk ops

def test_disk_oracle_rejects_infinite_radius():
    with pytest.raises(InputError):
        oracle_disk_point(AxisProbe(1e-7), Disk(math.inf, 3.5e-6, 2330.0), "newton")


def test_disk_oracle_unknown_kernel(reference_disk):
    with pytest.raises(InputError):
        oracle_disk_point(AxisProbe(1e-7), reference_disk, "coulomb")


def test_disk_oracle_deterministic(reference_disk):
    runs = [oracle_disk_point(AxisProbe(1e-7), reference_disk, "yukawa",
                              p=YukawaParams(1.0, 5e-6)) for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("lam", [5e-7, 5e-6, 5e-5])
@pytest.mark.parametrize("kernel,closed_form", [("yukawa", disk_yukawa_force),
                                                ("yukawa_potential", disk_yukawa_potential)])
def test_disk_oracle_on_an_infinitely_thick_disk(kernel, closed_form, lam):
    probe, disk, p = AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0), YukawaParams(1.0, lam)
    report = oracle_disk_point(probe, disk, kernel, p=p)
    assert report.converged
    assert report.check_against(closed_form(probe, disk, p)) < 1e-13


@pytest.mark.parametrize("kernel", ["newton", "power"])
def test_disk_oracle_power_laws_reject_infinite_thickness(kernel):
    with pytest.raises(InputError, match="finite disk thickness"):
        oracle_disk_point(AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0), kernel, n=2.0)
