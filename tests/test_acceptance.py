"""Acceptance criteria.

Each test prints one PASS/FAIL line with its headline number so the suite
doubles as a human-readable report (run with pytest -s or -v). Every
tolerance is pinned here, not configurable.
"""

import math

import pytest

from ypfa import (INFINITE, Disk, Layer, LayeredConfig, LayeredSlab, LayeredSphere,
                  PhysicalConstants, ResidualBound, SphereSlabConfig, SweepGrid, XiInputs,
                  YukawaParams, alpha_limit, eta, eta_delta, layered_epfa_energy,
                  layered_epfa_force, layered_pfa_force, oracle_disk_point,
                  oracle_slicing_equivalence, oracle_sphere_slab_yukawa, oracle_two_spheres,
                  sphere_slab_force_exact, sphere_slab_force_pfa, xi_power, xi_yukawa)
from ypfa.cli import main
from ypfa.disk import AxisProbe
from ypfa.verify import format_report, run_suite, suite_passed
from ypfa.yukawa import phi_direct, phi_series


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_layered_ratio_short_range_value():
    sphere = LayeredSphere(core_radius=151.3e-6, core_density=4100.0,
                           inner_coat=Layer(10e-9, 7140.0),
                           outer_coat=Layer(180e-9, 19280.0))
    slab = LayeredSlab(base=Layer(3.5e-6, 2330.0), middle=Layer(10e-9, 7140.0),
                       top=Layer(210e-9, 19280.0))
    cfg = LayeredConfig(separation=100e-9, sphere=sphere, slab=slab, d2=100.0)
    value = eta_delta(cfg, YukawaParams(1.0, 0.1e-9)).eta_delta
    ok = abs(value - 1.00126) <= 1e-4
    report(1, ok, f"eta_delta(lam=0.1 nm) = {value:.6f}, target 1.00126 +/- 1e-4")


def test_criterion_2_log_ratio_infinite_plane():
    inputs = XiInputs(a=100e-9, sphere_radius=150e-6,
                      disk=Disk(radius=300e-6, thickness=3.5e-6, density=2330.0))
    value = xi_yukawa(inputs, YukawaParams(1.0, 0.1e-6))
    ok = abs(value / 3000.0 - 1.0) <= 1e-9
    report(2, ok, f"ln xi_yukawa = {value!r}, target 3000 to 1e-9 relative")


def test_criterion_3_newtonian_edge_ratio():
    disk = Disk(radius=300e-6, thickness=3.5e-6, density=2330.0)
    inputs = XiInputs(a=100e-9, sphere_radius=150e-6, disk=disk)
    closed = xi_power(inputs, 2.0)
    near = oracle_disk_point(AxisProbe(100e-9), disk, "newton")
    far = oracle_disk_point(AxisProbe(100e-9 + 300e-6), disk, "newton")
    quadrature = near.value / far.value
    ok = (3.0 <= closed <= 4.5 and near.converged and far.converged
          and abs(closed / quadrature - 1.0) <= 1e-6)
    report(3, ok, f"xi_N(N=2) = {closed:.6f} (window [3.0, 4.5]); "
                  f"vs double quadrature {quadrature:.6f}, "
                  f"rel {abs(closed / quadrature - 1.0):.2e} <= 1e-6")


def test_criterion_4_gauss_law_invariance():
    inputs = XiInputs(a=100e-9, sphere_radius=150e-6,
                      disk=Disk(radius=1e6 * 150e-6, thickness=3.5e-6, density=2330.0))
    value = xi_power(inputs, 2.0)
    ok = abs(value - 1.0) <= 1e-5
    report(4, ok, f"|xi_N(N=2, R_d=1e6 R) - 1| = {abs(value - 1.0):.2e} <= 1e-5")


#: (name, configs, tolerance, sense) of every family in the full suite, in order
SUITE_SHAPE = [
    ("slab_slab_pressure", 27, 1e-9, "within"),
    ("sphere_slab_force_exact", 27, 1e-9, "within"),
    ("layered_slab_potential", 9, 1e-9, "within"),
    ("layered_epfa_energy", 27, 1e-6, "within"),
    ("layered_pfa_term_assembly", 9, 1e-13, "within"),
    ("disk_gravity_force", 9, 1e-9, "within"),
    ("disk_power_force", 9, 1e-8, "within"),
    ("disk_power_force_n1", 9, 1e-8, "within"),
    ("disk_power_force_n3", 9, 1e-8, "within"),
    ("disk_yukawa_force", 27, 1e-8, "within"),
    ("disk_yukawa_potential", 27, 1e-8, "within"),
    ("slicing_equivalence", 15, 1e-8, "within"),
    ("two_sphere_epfa_failure", 1, 0.01, "exceeds"),
    ("two_sphere_trend", 5, math.inf, "recorded"),
]


def test_criterion_5_oracle_equivalence_suite():
    results = run_suite()
    # a family or configuration dropped from the suite fails here, not silently
    assert [(r.name, r.configs, r.tolerance, r.sense) for r in results] == SUITE_SHAPE
    ok = suite_passed(results)
    detail = "every closed form matches its independent quadrature"
    print()
    print(format_report(results))
    report(5, ok, detail)


def test_criterion_6_slicing_equivalence():
    configs = [(150e-6, 1e-6, 1e-7), (150e-6, 1e-5, 1e-7), (75e-6, 5e-6, 5e-7),
               (150e-6, 1e-4, 1e-6), (50e-6, 5e-7, 1e-7)]
    worst = 0.0
    converged = True
    for radius, lam, a in configs:
        cfg = SphereSlabConfig(a, radius, 4100.0, 3.5e-6, 2330.0)
        horizontal, columns = oracle_slicing_equivalence(cfg, YukawaParams(1.0, lam))
        converged = converged and horizontal.converged and columns.converged
        worst = max(worst, abs(horizontal.value / columns.value - 1.0))
    ok = converged and worst <= 1e-8
    report(6, ok, f"horizontal vs column slicing: worst rel dev {worst:.2e} <= 1e-8 "
                  f"over {len(configs)} configurations")


def test_criterion_7_two_sphere_construction_fails():
    radius, rho = 50e-6, 3000.0
    exact, epfa = oracle_two_spheres(radius, radius, 2.1 * radius, rho, rho, "newton")
    deviation = abs(epfa.value / exact.value - 1.0)
    ok = epfa.converged and deviation > 0.01
    report(7, ok, f"two equal spheres, gap 0.1R: surface-element force off by "
                  f"{100 * deviation:.1f}% (> 1% required)")


def test_criterion_8_limit_shift_identity():
    geometry = SphereSlabConfig(separation=100e-9, sphere_radius=150e-6,
                                sphere_density=4100.0, slab_thickness=3.5e-6,
                                slab_density=2330.0, d2=INFINITE)
    bounds = ResidualBound(entries=tuple((a, 2e-16) for a in
                                         (100e-9, 200e-9, 450e-9, 1e-6)))
    worst = 0.0
    for lam in SweepGrid(min=10e-9, max=10e-6, points=13).values():
        pfa = alpha_limit(lam, bounds, geometry, "pfa")
        epfa = alpha_limit(lam, bounds, geometry, "epfa")
        ratio = epfa.alpha_bound / pfa.alpha_bound
        want = 1.0 / eta(geometry.sphere_radius, INFINITE, lam).eta
        worst = max(worst, abs(ratio / want - 1.0))
    ok = worst <= 1e-12
    report(8, ok, f"alpha_epfa/alpha_pfa vs 1/eta: worst rel dev {worst:.2e} <= 1e-12")


def test_criterion_9_property_suite():
    failures = []

    # eta in (0, 1], monotone decreasing, 200 log-spaced lambdas
    previous = None
    for i in range(200):
        lam = 1e-9 * (1e6 ** (i / 199.0))
        value = eta(150e-6, INFINITE, lam).eta
        if not (0.0 < value <= 1.0):
            failures.append(f"eta out of (0,1] at lam={lam}")
        if previous is not None and not value < previous:
            failures.append(f"eta not decreasing at lam={lam}")
        previous = value

    # separation independence of eta and eta_delta to 1e-12
    sphere = LayeredSphere(core_radius=150e-6, core_density=4100.0,
                           inner_coat=Layer(10e-9, 7140.0),
                           outer_coat=Layer(180e-9, 19280.0))
    slab = LayeredSlab(base=Layer(3.5e-6, 2330.0), middle=Layer(10e-9, 7140.0),
                       top=Layer(210e-9, 19280.0))
    p = YukawaParams(1.0, 5e-8)
    hom_ratios, lay_ratios = [], []
    for a in (50e-9, 200e-9, 1e-6):
        hom = SphereSlabConfig(a, 150e-6, 4100.0, 3.5e-6, 2330.0, INFINITE)
        hom_ratios.append(sphere_slab_force_exact(hom, p)
                          / sphere_slab_force_pfa(hom, p))
        lay = LayeredConfig(a, sphere, slab, INFINITE)
        lay_ratios.append(layered_epfa_force(lay, p) / layered_pfa_force(lay, p))
    for ratios, name in ((hom_ratios, "eta"), (lay_ratios, "eta_delta")):
        spread = max(ratios) / min(ratios) - 1.0
        if spread > 1e-12:
            failures.append(f"{name} separation dependence {spread:.2e}")

    # series/direct branch agreement in the overlap window
    for i in range(41):
        u = 1e-4 * (100.0 ** (i / 40.0))
        if abs(phi_series(u) / phi_direct(u) - 1.0) > 1e-12:
            failures.append(f"phi branch disagreement at u={u}")

    # uniform-density collapse to 1e-12
    rho = 4100.0
    uniform = LayeredSphere(core_radius=150e-6, core_density=rho,
                            inner_coat=Layer(10e-9, rho), outer_coat=Layer(180e-9, rho))
    merged = LayeredSphere(core_radius=150e-6 + 190e-9, core_density=rho)
    for lam in (5e-8, 1e-6, 1e-4):
        pl = YukawaParams(1.0, lam)
        u1 = layered_epfa_energy(LayeredConfig(1e-7, uniform, slab, INFINITE), pl)
        u2 = layered_epfa_energy(LayeredConfig(1e-7, merged, slab, INFINITE), pl)
        if abs(u1 / u2 - 1.0) > 1e-12:
            failures.append(f"uniform collapse {abs(u1 / u2 - 1):.2e} at lam={lam}")

    # exact linearity under binary scaling (bit-identical)
    cfg = SphereSlabConfig(1e-7, 150e-6, 4100.0, 3.5e-6, 2330.0)
    base = sphere_slab_force_exact(cfg, YukawaParams(1.0, 1e-7))
    if sphere_slab_force_exact(cfg, YukawaParams(4.0, 1e-7)) != 4.0 * base:
        failures.append("force not exactly linear in alpha")
    denser = SphereSlabConfig(1e-7, 150e-6, 2 * 4100.0, 3.5e-6, 2330.0)
    if sphere_slab_force_exact(denser, YukawaParams(1.0, 1e-7)) != 2.0 * base:
        failures.append("force not exactly linear in sphere density")

    ok = not failures
    report(9, ok, "property suite (eta range/monotone, separation independence, "
                  "phi branches, uniform collapse, exact linearity)"
                  + ("" if ok else f": {failures}"))


def test_criterion_10_determinism_across_workers(tmp_path):
    bodies = []
    for workers in (1, 4, 8):
        out = tmp_path / f"det{workers}.csv"
        code = main(["eta-sweep", "--preset", "fig2-left", "--output", str(out),
                     "--workers", str(workers)])
        assert code == 0
        with open(out, "rb") as handle:
            bodies.append(handle.read())
    ok = bodies[0] == bodies[1] == bodies[2]
    report(10, ok, f"fig2-left CSV bodies identical across 1/4/8 workers "
                   f"({len(bodies[0])} bytes)")
