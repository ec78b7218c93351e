"""Closed-form vs quadrature-oracle verification suite.

Each family of closed forms is evaluated on a grid of (separation, lambda,
geometry scale) configurations and compared with the independent adaptive
quadrature of its point kernel. A family passes when every configuration's
relative deviation stays below its tolerance and every oracle run converged.
One family ('two_sphere_epfa_failure') asserts the opposite sense: the
surface-element construction for two spheres must deviate from the exact
sphere-sphere force by more than 1%, since no infinite body restores its
validity there. Purely informational rows ('recorded') never fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (INFINITE, Disk, Layer, LayeredSlab, LayeredSphere, PhysicalConstants,
                   PowerLawParams, YukawaParams)
from .disk import AxisProbe, disk_gravity_force, disk_power_force, disk_yukawa_force, \
    disk_yukawa_potential
from .layered import LayeredConfig, layered_epfa_energy, layered_pfa_force, \
    layered_slab_potential
from .oracle import (OracleReport, QuadratureSpec, oracle_disk_point,
                     oracle_layered_sphere_slab, oracle_layered_stack_potential,
                     oracle_slab_slab_pressure, oracle_slicing_equivalence,
                     oracle_sphere_slab_yukawa, oracle_two_spheres)
from .yukawa import SphereSlabConfig, slab_slab_pressure, sphere_slab_force_exact

_SPEC_1D = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300)
_SPEC_2D = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-300)
#: G of the default constants; every other callee takes them by default
_G = PhysicalConstants().G


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check family."""

    name: str
    tolerance: float
    worst_rel_err: float
    worst_config: str
    configs: int
    converged: bool
    sense: str  # 'within' | 'exceeds' | 'recorded'

    @property
    def passed(self) -> bool:
        if self.sense == "recorded":
            return True
        if not self.converged:
            return False
        if self.sense == "exceeds":
            return self.worst_rel_err > self.tolerance
        return self.worst_rel_err <= self.tolerance


def _family(name, tolerance, pairs, sense="within"):
    """Aggregate (label, closed, report) triples into one CheckResult."""
    # an 'exceeds' family is judged by its LEAST deviating configuration
    worst_err = -math.inf if sense == "exceeds" else 0.0
    worst_label = ""
    converged = True
    count = 0
    for label, closed, report in pairs:
        rel = report.check_against(closed)
        converged = converged and report.converged
        count += 1
        more_critical = rel < worst_err if sense == "exceeds" else rel > worst_err
        if worst_label == "" or more_critical:
            worst_err, worst_label = rel, label
    return CheckResult(name=name, tolerance=tolerance, worst_rel_err=worst_err,
                       worst_config=worst_label, configs=count, converged=converged,
                       sense=sense)


def _scaled_sphere_slab(scale: float) -> SphereSlabConfig:
    return SphereSlabConfig(separation=1e-7, sphere_radius=150e-6 * scale,
                            sphere_density=4100.0, slab_thickness=3.5e-6 * scale,
                            slab_density=2330.0)


def _layered_stack() -> LayeredSlab:
    return LayeredSlab(base=Layer(3.5e-6, 2330.0), middle=Layer(10e-9, 7140.0),
                       top=Layer(210e-9, 19280.0))


def _layered_sphere(scale: float) -> LayeredSphere:
    return LayeredSphere(core_radius=150e-6 * scale, core_density=4100.0,
                         inner_coat=Layer(10e-9, 7140.0),
                         outer_coat=Layer(180e-9, 19280.0))


def _scaled_disk(scale: float) -> Disk:
    return Disk(radius=300e-6 * scale, thickness=3.5e-6 * scale, density=2330.0)


def _grid(quick: bool, separations, lams, scales):
    if quick:
        yield separations[0], lams[len(lams) // 2], scales[len(scales) // 2]
        return
    for a in separations:
        for lam in lams:
            for scale in scales:
                yield a, lam, scale


def check_slab_slab_pressure(quick):
    pairs = []
    combos = [(3.5e-6, INFINITE), (1e-6, 10e-6), (INFINITE, INFINITE)]
    if quick:
        combos = combos[:1]
    for a, lam, _ in _grid(quick, (5e-8, 2e-7, 1e-6), (1e-7, 1e-6, 1e-5), (1.0,)):
        for d1, d2 in combos:
            p = YukawaParams(1.0, lam)
            closed = slab_slab_pressure(a, d1, 2330.0, d2, 4100.0, p)
            report = oracle_slab_slab_pressure(a, d1, 2330.0, d2, 4100.0, p, q=_SPEC_1D)
            pairs.append((f"a={a:g} lam={lam:g} d1={d1:g} d2={d2:g}", closed, report))
    return _family("slab_slab_pressure", 1e-9, pairs)


def check_sphere_slab_exact(quick):
    pairs = []
    for a, lam, scale in _grid(quick, (5e-8, 2e-7, 1e-6), (1e-7, 1e-6, 1e-5), (0.5, 1.0, 2.0)):
        cfg = replace(_scaled_sphere_slab(scale), separation=a)
        p = YukawaParams(1.0, lam)
        closed = sphere_slab_force_exact(cfg, p)
        energy = oracle_sphere_slab_yukawa(cfg, p, q=_SPEC_1D)
        force = replace(energy, value=energy.value / lam,
                        error_estimate=energy.error_estimate / lam)
        pairs.append((f"a={a:g} lam={lam:g} scale={scale:g}", closed, force))
    return _family("sphere_slab_force_exact", 1e-9, pairs)


def check_layered_stack_potential(quick):
    pairs = []
    stack = _layered_stack()
    for z, lam, _ in _grid(quick, (1e-7, 5e-7, 2e-6), (1e-7, 1e-6, 1e-5), (1.0,)):
        p = YukawaParams(1.0, lam)
        closed = layered_slab_potential(z, stack, p)
        report = oracle_layered_stack_potential(z, stack, p, q=_SPEC_1D)
        pairs.append((f"z={z:g} lam={lam:g}", closed, report))
    return _family("layered_slab_potential", 1e-9, pairs)


def check_layered_epfa_energy(quick):
    pairs = []
    stack = _layered_stack()
    for a, lam, scale in _grid(quick, (1e-7, 5e-7, 2e-6), (2e-7, 1e-6, 1e-5), (0.5, 1.0, 2.0)):
        cfg = LayeredConfig(separation=a, sphere=_layered_sphere(scale), slab=stack)
        p = YukawaParams(1.0, lam)
        closed = layered_epfa_energy(cfg, p)
        report = oracle_layered_sphere_slab(cfg, p, q=_SPEC_2D)
        pairs.append((f"a={a:g} lam={lam:g} scale={scale:g}", closed, report))
    return _family("layered_epfa_energy", 1e-6, pairs)


def check_layered_pfa_assembly(quick):
    """Nine-term assembly: the factorized PFA force equals the sum over the
    nine layer pairs of 2 pi R x their slab-slab pressure at the pair's
    standoff (analytic)."""
    pairs = []
    stack = _layered_stack()
    for a, lam, scale in _grid(quick, (1e-7, 5e-7, 2e-6), (1e-8, 1e-6, 1e-4), (1.0,)):
        sphere = _layered_sphere(scale)
        cfg = LayeredConfig(separation=a, sphere=sphere, slab=stack, d2=100.0)
        p = YukawaParams(1.0, lam)
        slab_layers = [(stack.base, stack.top.thickness + stack.middle.thickness),
                       (stack.middle, stack.top.thickness),
                       (stack.top, 0.0)]
        side_layers = [(Layer(cfg.d2, sphere.core_density),
                        sphere.inner_coat.thickness + sphere.outer_coat.thickness),
                       (sphere.inner_coat, sphere.outer_coat.thickness),
                       (sphere.outer_coat, 0.0)]
        # each layer pair contributes 2 pi R E_pp with E_pp = lam * P for a
        # pure Yukawa pressure profile
        total_direct = 0.0
        for layer1, off1 in slab_layers:
            for layer2, off2 in side_layers:
                if layer1.thickness == 0.0 or layer2.thickness == 0.0:
                    pressure = 0.0
                else:
                    pressure = slab_slab_pressure(a + off1 + off2, layer1.thickness,
                                                  layer1.density, layer2.thickness,
                                                  layer2.density, p)
                total_direct += 2.0 * math.pi * sphere.core_radius * lam * pressure
        report = OracleReport(total_direct, 0.0, True)
        pairs.append((f"a={a:g} lam={lam:g} (factorized)", layered_pfa_force(cfg, p), report))
    return _family("layered_pfa_term_assembly", 1e-13, pairs)


def check_disk_gravity(quick):
    pairs = []
    for z, lam, scale in _grid(quick, (1e-7, 5e-7, 2e-6), (0.0,), (0.5, 1.0, 2.0)):
        probe = AxisProbe(z=z)
        disk = _scaled_disk(scale)
        closed = disk_gravity_force(probe, disk)
        report = oracle_disk_point(probe, disk, "newton", q=_SPEC_1D)
        pairs.append((f"z={z:g} scale={scale:g}", closed, report))
    return _family("disk_gravity_force", 1e-9, pairs)


def check_disk_power(quick):
    generic, n1, n3 = [], [], []
    exponents = (1.5, 2.5, 4.0)
    for idx, (z, _lam, scale) in enumerate(
            _grid(quick, (1e-7, 5e-7, 2e-6), (0.0,), (0.5, 1.0, 2.0))):
        probe = AxisProbe(z=z)
        disk = _scaled_disk(scale)
        n = exponents[idx % len(exponents)]
        label = f"z={z:g} scale={scale:g}"
        for exponent, rows, name in ((n, generic, f"{label} n={n:g}"), (1.0, n1, label),
                                     (3.0, n3, label)):
            closed = disk_power_force(probe, disk, PowerLawParams(k=_G, n=exponent))
            report = oracle_disk_point(probe, disk, "power", q=_SPEC_2D, n=exponent)
            rows.append((name, closed, replace(report, value=report.value * _G,
                                               error_estimate=report.error_estimate * _G)))
    return [_family("disk_power_force", 1e-8, generic),
            _family("disk_power_force_n1", 1e-8, n1),
            _family("disk_power_force_n3", 1e-8, n3)]


def check_disk_yukawa(quick):
    forces, potentials = [], []
    for z, lam, scale in _grid(quick, (1e-7, 5e-7, 2e-6), (5e-7, 5e-6, 5e-5), (0.5, 1.0, 2.0)):
        probe = AxisProbe(z=z)
        disk = _scaled_disk(scale)
        p = YukawaParams(1.0, lam)
        label = f"z={z:g} lam={lam:g} scale={scale:g}"
        closed = disk_yukawa_force(probe, disk, p)
        report = oracle_disk_point(probe, disk, "yukawa", q=_SPEC_2D, p=p)
        forces.append((label, closed, report))
        closed = disk_yukawa_potential(probe, disk, p)
        report = oracle_disk_point(probe, disk, "yukawa_potential", q=_SPEC_2D, p=p)
        potentials.append((label, closed, report))
    return [_family("disk_yukawa_force", 1e-8, forces),
            _family("disk_yukawa_potential", 1e-8, potentials)]


def check_slicing_equivalence(quick):
    configs = [(150e-6, 1e-6, 1e-7), (150e-6, 1e-5, 1e-7), (75e-6, 5e-6, 5e-7),
               (150e-6, 1e-4, 1e-6), (50e-6, 5e-7, 1e-7)]
    if quick:
        configs = configs[:1]
    pairs = []
    for radius, lam, a in configs:
        cfg = SphereSlabConfig(separation=a, sphere_radius=radius, sphere_density=4100.0,
                               slab_thickness=3.5e-6, slab_density=2330.0)
        p = YukawaParams(1.0, lam)
        horizontal, columns = oracle_slicing_equivalence(cfg, p, q=_SPEC_1D)
        label = f"R={radius:g} lam={lam:g} a={a:g}"
        # columns-vs-horizontal mutual agreement, then both vs the closed form
        pairs.append((f"{label} (h vs v)", horizontal.value, columns))
        closed_energy = sphere_slab_force_exact(cfg, p) * lam
        pairs.append((f"{label} (closed vs h)", closed_energy, horizontal))
        pairs.append((f"{label} (closed vs v)", closed_energy, columns))
    return _family("slicing_equivalence", 1e-8, pairs)


def check_two_spheres(quick):
    radius, rho, gap = 50e-6, 3000.0, 0.1 * 50e-6
    exact, epfa = oracle_two_spheres(radius, radius, 2 * radius + gap, rho, rho,
                                     "newton", q=_SPEC_1D)
    failure = _family("two_sphere_epfa_failure", 0.01,
                      [(f"gap=0.1R", exact.value, epfa)], sense="exceeds")
    trend = []
    for factor in (2.2, 3.0, 5.0, 10.0):
        exact, epfa = oracle_two_spheres(radius, radius, factor * radius, rho, rho,
                                         "newton", q=_SPEC_1D)
        trend.append((f"d={factor:g}R ratio={epfa.value / exact.value:.6g}",
                      exact.value, epfa))
    p = YukawaParams(1.0, 25e-6)
    exact, epfa = oracle_two_spheres(radius, radius, 2.2 * radius, rho, rho,
                                     "yukawa", p, q=_SPEC_2D)
    trend.append((f"yukawa lam=R/2 ratio={epfa.value / exact.value:.6g}",
                  exact.value, epfa))
    recorded = _family("two_sphere_trend", math.inf, trend, sense="recorded")
    return [failure, recorded]


def run_suite(quick: bool = False) -> list[CheckResult]:
    """Run every check family; returns their results in a fixed order."""
    results: list[CheckResult] = []
    results.append(check_slab_slab_pressure(quick))
    results.append(check_sphere_slab_exact(quick))
    results.append(check_layered_stack_potential(quick))
    results.append(check_layered_epfa_energy(quick))
    results.append(check_layered_pfa_assembly(quick))
    results.append(check_disk_gravity(quick))
    results.extend(check_disk_power(quick))
    results.extend(check_disk_yukawa(quick))
    results.append(check_slicing_equivalence(quick))
    results.extend(check_two_spheres(quick))
    return results


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.sense == "recorded":
            status = "INFO"
        lines.append(f"{status}  {r.name:<28s} configs={r.configs:<3d} "
                     f"worst_rel_err={r.worst_rel_err:.3e} tol={r.tolerance:.1e} "
                     f"({r.sense}) worst at: {r.worst_config}")
    return "\n".join(lines)
