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
from ypfa.oracle import (_ball_force_coefficient, _column_energy, _disk_layer, _gk_panel,
                         _initial_mesh, _ring_polar_integral, _slab_potential,
                         integrate_adaptive)
from ypfa.verify import _SPEC_1D, _SPEC_2D, _layered_sphere, _layered_stack, _scaled_disk

mpmath.mp.dps = 40

C = PhysicalConstants()


# ------------------------------------------------------------------ engine

def test_engine_polynomial():
    value, err, _, ok = integrate_adaptive(lambda x: x * x, 0.0, 1.0, QuadratureSpec())
    assert ok
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0.0)
    assert err < 1e-12


def test_engine_boundary_layer_with_hint():
    # e^(-x/eps) over [0, 1] with eps = 1e-5: 5 decades of dynamic range
    eps = 1e-5
    value, _, _, ok = integrate_adaptive(lambda x: math.exp(-x / eps), 0.0, 1.0,
                                         QuadratureSpec(), sharp_edges=[(0.0, eps)])
    assert ok
    assert value == pytest.approx(eps, rel=1e-12, abs=0.0)


def test_engine_against_mpmath_oscillatory():
    want = float(mpmath.quad(lambda x: mpmath.cos(40 * x) * mpmath.e ** (-x), [0, 3]))
    value, _, _, ok = integrate_adaptive(lambda x: math.cos(40 * x) * math.exp(-x),
                                         0.0, 3.0, QuadratureSpec())
    assert ok
    assert value == pytest.approx(want, rel=1e-11, abs=0.0)


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


def _count_evals(monkeypatch, run):
    """(result of run(), integrand calls made through integrate_adaptive)."""
    calls = 0
    original = ypfa.oracle.integrate_adaptive

    def counting(f, *args, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(ypfa.oracle, "integrate_adaptive", counting)
    return run(), calls


def _disk_oracle_evals(monkeypatch, kernel, spec, **extra):
    """Integrand calls of a verify disk configuration (z = 100 nm, R_d = 300 um)."""
    report, calls = _count_evals(monkeypatch, lambda: oracle_disk_point(
        AxisProbe(z=1e-7), _scaled_disk(1.0), kernel, q=spec, **extra))
    assert report.converged
    return calls


def test_disk_yukawa_oracle_integrand_evaluations(monkeypatch):
    # the verify disk-Yukawa configuration took 22,290 integrand calls when
    # the hint ladders were topped up with a uniform fill, 2,850 from
    # hint-seeded meshes over the radius r and 1,770 over t = asinh(r/u);
    # with each layer's radial integral in closed form it needs 15
    assert _disk_oracle_evals(monkeypatch, "yukawa", _SPEC_2D,
                              p=YukawaParams(1.0, 5e-6)) == 15


@pytest.mark.parametrize("kernel,spec,n,evals", [("newton", _SPEC_1D, None, 105),
                                                 ("power", _SPEC_2D, 1.0, 105)])
def test_disk_power_law_oracle_integrand_evaluations(monkeypatch, kernel, spec, n, evals):
    # these verify configurations took 33,915 (newton) and 16,185 (power,
    # n = 1) integrand calls with a radial quadrature over r, and 12,450 and
    # 8,220 over t = asinh(r/u)
    assert _disk_oracle_evals(monkeypatch, kernel, spec, n=n) == evals


def test_slicing_equivalence_integrand_evaluations(monkeypatch):
    # the first verify slicing configuration took 23,370 integrand calls while
    # each column's depth integral was taken adaptively; with the column
    # energy in closed form only the slices and the polar angle are integrated
    cfg = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0)
    (horizontal, columns), calls = _count_evals(monkeypatch, lambda: oracle_slicing_equivalence(
        cfg, YukawaParams(1.0, 1e-6), q=_SPEC_1D))
    assert horizontal.converged and columns.converged
    assert calls == 315


def test_layered_stack_oracle_on_an_infinite_base():
    slab, p = LayeredSlab(Layer(INFINITE, 2330.0)), YukawaParams(1.0, 1e-7)
    report = oracle_layered_stack_potential(1e-7, slab, p)
    assert report.converged
    assert report.check_against(layered_slab_potential(1e-7, slab, p)) < 1e-13


def test_layered_epfa_oracle_integrand_evaluations(monkeypatch):
    # the verify layered configuration with the smallest lam and radius took
    # 28,755 integrand calls while the polar angle was integrated
    # numerically; one radial integral per shell region needs 180
    cfg = LayeredConfig(separation=1e-7, sphere=_layered_sphere(0.5), slab=_layered_stack())
    report, calls = _count_evals(monkeypatch, lambda: oracle_layered_sphere_slab(
        cfg, YukawaParams(1.0, 2e-7), q=_SPEC_2D))
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
    error, at every contract tolerance."""
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
        reference = float(-C.G * disk.density * 2.0 * math.pi * lam * double)
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
    assert force == pytest.approx(newton, rel=1e-3, abs=0.0)


def test_slicing_point_mass_limit():
    # R -> 0 at fixed mass: both routes approach m * V(a + R)
    mass, radius, lam = 1e-12, 1e-9, 1e-6
    density = mass / (4.0 / 3.0 * math.pi * radius ** 3)
    cfg = SphereSlabConfig(1e-6, radius, density, 3.5e-6, 2330.0)
    h, v = oracle_slicing_equivalence(cfg, YukawaParams(1.0, lam))
    potential = (-2 * math.pi * C.G * 2330.0 * lam * lam
                 * math.exp(-(1e-6 + radius) / lam) * -math.expm1(-3.5e-6 / lam))
    assert h.value == pytest.approx(mass * potential, rel=1e-5, abs=0.0)
    assert v.value == pytest.approx(mass * potential, rel=1e-5, abs=0.0)


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
    assert value == pytest.approx(2.0 * math.pi * lam * math.exp(-h / lam), rel=1e-10, abs=0.0)


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
        assert value == pytest.approx(_ring_polar_integral(r, height, lam), rel=1e-10, abs=0.0), r


def _raw_disk_radial(kernel, u, n, lam):
    """A disk layer's radial integrand over r at depth u: the point kernel
    with its r Jacobian."""
    u2 = u * u
    if kernel == "newton":
        return lambda r: r * u / (r * r + u2) ** 1.5
    if kernel == "power":
        return lambda r: r * u / math.sqrt(r * r + u2) ** (n + 1.0)
    if kernel == "yukawa":
        def radial(r):
            s2 = r * r + u2
            s = math.sqrt(s2)
            return r * u * math.exp(-s / lam) * (1.0 / (lam * s2) + 1.0 / (s2 * s))
        return radial

    def potential(r):
        s = math.sqrt(r * r + u2)
        return r * math.exp(-s / lam) / s
    return potential


@pytest.mark.parametrize("kernel,n,lam", [("newton", None, None)]
                         + [("power", n, None)
                            for n in (0.5, 1.0, 1.0 + 1e-5, 1.5, 2.0, 2.5, 3.0, 4.0)]
                         + [(k, None, lam) for k in ("yukawa", "yukawa_potential")
                            for lam in (1e-9, 5e-7, 1e-6, 5e-6, 5e-5, 1e-3, 1.0)])
def test_disk_radial_substitution_against_raw_kernel(kernel, n, lam):
    # r dr = s ds turns each radial integral over [0, R_d] into an elementary
    # antiderivative; it must match the r-quadrature of the point kernel from
    # layers far above the disk's radius to far below it. A Yukawa layer
    # deeper than 600 lam is skipped: both sides are e^-600 or below there
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    rd = 300e-6
    for exponent in range(-3, 4):
        u = rd * 10.0 ** exponent
        if lam and u > 600.0 * lam:
            continue
        r_hints = [(0.0, u)] + ([(0.0, math.sqrt(u * lam))] if lam else [])
        raw, _, _, ok = integrate_adaptive(_raw_disk_radial(kernel, u, n, lam), 0.0, rd,
                                           spec, sharp_edges=r_hints)
        assert ok
        assert raw > 0.0
        assert _disk_layer(kernel, u, rd, n, lam) == pytest.approx(raw, rel=1e-12, abs=0.0), u


#: (R, lam, a) of verify.check_slicing_equivalence
VERIFY_SLICING = [(150e-6, 1e-6, 1e-7), (150e-6, 1e-5, 1e-7), (75e-6, 5e-6, 5e-7),
                  (150e-6, 1e-4, 1e-6), (50e-6, 5e-7, 1e-7)]


def test_column_energy_against_depth_quadrature():
    # the EPFA column at polar angle phi spans the chord 2 R cos(phi) from
    # a + R - R cos(phi); its parallel-plate energy is rho times the depth
    # integral of _slab_potential through it, from the axis to near the rim
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    for radius, lam, a in VERIFY_SLICING:
        for phi in (0.0, 0.01, 0.3, 0.8, 1.2, 1.5, 1.5705):
            cos_phi = math.cos(phi)
            gap, chord = a + radius - radius * cos_phi, 2.0 * radius * cos_phi
            depth, _, _, ok = integrate_adaptive(
                lambda z: _slab_potential(z, 3.5e-6, 2330.0, 1.0, lam, C.G),
                gap, gap + chord, spec, sharp_edges=[(gap, lam)])
            assert ok
            closed = _column_energy(gap, chord, 4100.0, 3.5e-6, 2330.0, 1.0, lam, C.G)
            assert closed == pytest.approx(4100.0 * depth, rel=1e-12, abs=0.0), (radius, phi)


def _inner_spec(q):
    """Spec for the inner integrals of a nested reference quadrature: tolerances 0.1 x q's."""
    return QuadratureSpec(q.rel_tol * 0.1, q.abs_tol * 0.1, q.max_subdivisions)


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
    inner_spec = _inner_spec(q)
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
    assert raw == pytest.approx(closed, rel=1e-9, abs=0.0)


# ------------------------------------------------------------- two spheres

def test_two_spheres_newton_exact_is_point_mass():
    radius, rho = 50e-6, 3000.0
    d = 2.1 * radius
    exact, epfa = oracle_two_spheres(radius, radius, d, rho, rho, "newton")
    mass = 4.0 / 3.0 * math.pi * radius ** 3 * rho
    assert exact.value == pytest.approx(-C.G * mass * mass / (d * d), rel=1e-14, abs=0.0)
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
    assert epfa.value == pytest.approx(want, rel=1e-9, abs=0.0)


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
    assert exact.value == pytest.approx(want, rel=1e-8, abs=0.0)


def _nested_ball_ball_force(r1, r2, d, rho1, rho2, p, q):
    """Yukawa force between two uniform balls by 2D quadrature of ball 1's
    exterior kernel over ball 2: shell radius u outside, the cosine t of
    the polar angle inside."""
    lam, inner_spec = p.lam, _inner_spec(q)
    coeff = _ball_force_coefficient(r1, rho1, p.alpha, lam, C.G)
    converged = True

    def shell(u):
        nonlocal converged

        def over_angle(t):
            s = math.sqrt(d * d + u * u + 2.0 * d * u * t)
            return (coeff * math.exp(-s / lam) * (1.0 / (lam * s) + 1.0 / (s * s))
                    * (d + u * t) / s)

        # e^(-s/lam) peaks at t = -1; ds/dt = d u / s there
        hint = [(-1.0, lam * (d - u) / (d * u))] if u > 0.0 else None
        inner, _, _, ok = integrate_adaptive(over_angle, -1.0, 1.0, inner_spec,
                                             sharp_edges=hint)
        converged = converged and ok
        return -rho2 * 2.0 * math.pi * u * u * inner

    value, _, _, ok = integrate_adaptive(shell, 0.0, r2, q, sharp_edges=[(r2, lam)])
    return value, converged and ok


@pytest.mark.parametrize("r1,r2,lam,gap", [
    (50e-6, 30e-6, 60e-6, 5e-6), (30e-6, 50e-6, 60e-6, 30e-6), (50e-6, 30e-6, 10e-6, 3e-6),
    (30e-6, 50e-6, 10e-6, 1e-6), (50e-6, 30e-6, 5e-6, 5e-6), (30e-6, 50e-6, 5e-6, 20e-6),
])
def test_two_spheres_yukawa_point_product_against_nested_quadrature(r1, r2, lam, gap):
    # ball 2 answers ball 1's exterior field as a point: the exact force is
    # the product of the two ball coefficients, checked here against the
    # raw 2D quadrature over ball 2
    p, rho1, rho2 = YukawaParams(1.0, lam), 3000.0, 8000.0
    exact, _ = oracle_two_spheres(r1, r2, r1 + r2 + gap, rho1, rho2, "yukawa", p)
    nested, ok = _nested_ball_ball_force(r1, r2, r1 + r2 + gap, rho1, rho2, p,
                                         QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300))
    assert ok and exact.converged
    assert exact.value == pytest.approx(nested, rel=1e-9, abs=0.0)


def test_two_spheres_yukawa_point_product_far_beyond_the_range():
    # R/lam = 400: each coefficient carries cosh(400) ~ e^400 and e^(-d/lam)
    # is e^(-810), so the plain product of the three is inf * 0
    r1, r2, lam, d, rho1, rho2 = 40e-6, 40e-6, 1e-7, 81e-6, 3000.0, 8000.0
    exact, _ = oracle_two_spheres(r1, r2, d, rho1, rho2, "yukawa", YukawaParams(1.0, lam))

    def coefficient(radius, rho):
        x = mpmath.mpf(radius) / lam
        return 4 * mpmath.pi * rho * lam ** 2 * (radius * mpmath.cosh(x) - lam * mpmath.sinh(x))

    want = (-C.G * coefficient(r1, rho1) * coefficient(r2, rho2) * mpmath.exp(-d / lam)
            * (1 / (lam * d) + 1 / mpmath.mpf(d) ** 2))
    assert exact.value == pytest.approx(float(want), rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("exponent", range(0, 301, 20))
def test_disk_oracle_force_on_a_thick_disk_at_long_range(exponent):
    # the depth ladder must sample u <~ R_d, where the force comes from, at
    # any lam the depth cut 80 lam can reach
    probe, disk = AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0)
    p = YukawaParams(1.0, 10.0 ** exponent)
    report = oracle_disk_point(probe, disk, "yukawa", p=p)
    assert report.converged
    assert report.check_against(disk_yukawa_force(probe, disk, p)) < 1e-12


def test_disk_oracle_potential_on_a_thick_disk_at_long_range():
    # |V| grows about as ln lam; the closed form is checked against the
    # oracle above 1e150 m by the test below
    probe, disk = AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0)
    previous = 0.0
    for exponent in list(range(0, 301, 25)) + [306]:
        p = YukawaParams(1.0, 10.0 ** exponent)
        report = oracle_disk_point(probe, disk, "yukawa_potential", p=p)
        assert report.converged and math.isfinite(report.value), exponent
        if exponent <= 150:
            assert report.check_against(disk_yukawa_potential(probe, disk, p)) < 1e-12
        assert abs(report.value) > previous, exponent
        previous = abs(report.value)


@pytest.mark.parametrize("exponent", [*range(150, 301, 10), 305])
def test_thick_disk_potential_matches_the_oracle_at_long_range(exponent):
    # p/lam underflowed from lam ~ 1e160 m, and |V| fell with lam from there;
    # at 1e305 m the depth ladder ends next to the largest double
    probe, disk = AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0)
    p = YukawaParams(1.0, 10.0 ** exponent)
    report = oracle_disk_point(probe, disk, "yukawa_potential", p=p)
    assert report.converged
    assert report.check_against(disk_yukawa_potential(probe, disk, p)) < 1e-12


@pytest.mark.parametrize("kernel", ["newton", "power", "yukawa", "yukawa_potential"])
def test_disk_oracle_refuses_a_subnormal_probe_height(kernel):
    # R_d/z overflows, and the rim ratio p/u with it
    with pytest.raises(InputError, match="R_d / z"):
        oracle_disk_point(AxisProbe(1e-320), Disk(3e-4, 3.5e-6, 2330.0), kernel,
                          n=2.0, p=YukawaParams(1.0, 5e-6))


@pytest.mark.parametrize("lam", [1e307, math.inf])
def test_disk_oracle_refuses_an_overflowing_depth_cut(lam):
    with pytest.raises(InputError, match="depth range"):
        oracle_disk_point(AxisProbe(1e-7), Disk(3e-4, INFINITE, 2330.0), "yukawa",
                          p=YukawaParams(1.0, lam))
