"""Brute-force validation engine: deterministic adaptive quadrature of the
point-pair kernels over spheres, slabs, stacks and disks.

Everything in this module is written from the raw interaction kernels
(Yukawa pair potential -alpha G m1 m2 e^(-s/lam)/s, Newtonian 1/s, power law
1/s^N) and its own geometry parameterizations. It deliberately shares no
numerical code with the closed-form modules: at runtime it imports only
``core``. Each reduction used instead of raw multidimensional quadrature is
derived independently here and validated in tests/test_oracle.py against
the raw quadrature it replaces, so the chain of trust bottoms out at the
point kernels:
- the sheet potential 2 pi alpha G sigma lam e^(-h/lam)
  (test_sheet_potential_reduction_against_raw_kernel) and its integral
  through a slab, _slab_potential (test_slab_potential_against_sheet_quadrature);
- an EPFA column's parallel-plate energy, _column_energy
  (test_column_energy_against_depth_quadrature);
- the uniform-ball exterior kernel (test_ball_kernel_reduction_against_raw_kernel)
  and with it the force between two Yukawa balls as a point product
  (test_two_spheres_yukawa_point_product_against_nested_quadrature);
- a spherical ring's polar-angle integral over a slab, _ring_polar_integral
  (test_ring_reduction_against_raw_kernel);
- a disk layer's radial integral, _disk_layer, elementary in the slant
  distance s since r dr = s ds
  (test_disk_radial_substitution_against_raw_kernel).
Every oracle facing a slab reaches it through _slab_potential; only
oracle_layered_stack_potential, its reference, integrates sheets. No oracle
nests one quadrature inside another: each result is one adaptive integral,
or a sum of independent ones.

The integrator is a worst-interval-first adaptive Gauss-Kronrod 7/15 rule
with |K15 - G7| as the per-panel error estimate. As in QUADPACK's QAG, the
initial mesh is only {lo, hi} plus a geometric ladder at each known boundary
layer, and adaptivity refines from there. Subdivision order is fixed and
the sums are math.fsum, which is correctly rounded and so independent of
panel order: results are bit-reproducible run to run and would remain so
under concurrent panel evaluation.

Sign conventions match the rest of the package: attractive forces/energies
are negative.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .core import G_DEFAULT, Disk, InputError, YukawaParams

if TYPE_CHECKING:  # types only; no closed-form code is executed from here
    from .disk import AxisProbe
    from .layered import LayeredConfig
    from .yukawa import SphereSlabConfig

# Gauss-Kronrod 7/15 nodes on [-1, 1] and weights. Odd-indexed nodes carry
# the embedded Gauss-7 rule.
_GK_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
)
_GK_WEIGHTS_K = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
)
_GK_WEIGHTS_G = (
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
)

#: e^(-x) below this x is negligible against every tolerance in use; used to
#: truncate integrals over INFINITE thicknesses.
_EXP_CUTOFF = 80.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for one oracle evaluation."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-30
    max_subdivisions: int = 10 ** 6

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise InputError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise InputError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class OracleReport:
    """Result of one oracle integration: its value, its error estimate and
    whether the adaptive loop converged (an exact reference has error 0)."""

    value: float
    error_estimate: float
    converged: bool

    def check_against(self, closed_form: float) -> float:
        """Relative deviation of a closed-form value from this oracle value."""
        scale = max(abs(self.value), abs(closed_form))
        if scale == 0.0:
            return 0.0
        return abs(closed_form - self.value) / scale


def _gk_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 application; returns (K15 value, |K15-G7|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    acc_k = 0.0
    acc_g = 0.0
    for node, wk, wg in zip(_GK_NODES, _GK_WEIGHTS_K, _GK_WEIGHTS_G):
        fx = f(mid + half * node)
        acc_k += wk * fx
        acc_g += wg * fx
    return half * acc_k, abs(half * (acc_k - acc_g))


def _initial_mesh(lo: float, hi: float, sharp_edges) -> list[float]:
    """Panel edges for the initial mesh: {lo, hi} plus the hint ladders.

    A plain |K15 - G7| estimate can pass a boundary layer it never sampled,
    so integrands with a known sharp feature get a geometric ladder of
    breakpoints (spacing doubling away from the feature at its decay scale).
    Nothing else is added: an un-hinted integral starts from one panel, as
    in QUADPACK's QAG, and adaptivity refines from there.
    """
    points = {lo, hi}
    if sharp_edges:
        for position, scale in sharp_edges:
            if not scale > 0.0 or math.isinf(scale) or scale >= (hi - lo):
                continue
            step = scale
            while step < 2.0 * (hi - lo):
                for candidate in (position - step, position + step):
                    if lo < candidate < hi:
                        points.add(candidate)
                step *= 2.0
    return sorted(points)


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       spec: QuadratureSpec,
                       sharp_edges=None) -> tuple[float, float, int, bool]:
    """Adaptive 1D quadrature of f over [lo, hi].

    Returns (value, error_estimate, subdivisions, converged). The panel
    with the largest error bound is bisected next (ties broken towards the
    leftmost panel), and both sums are math.fsum, which is correctly rounded
    and so independent of evaluation order. A non-finite error sum, or panel
    values fsum cannot add (inf - inf, overflow), stops at once with
    converged False: bisecting cannot make it finite. The value is then the
    plain sum of the panels from left to right, so it does not depend on
    how they are stored. sharp_edges
    is an optional list of (position, decay scale) hints that seed the
    initial mesh (see _initial_mesh).
    """
    if not hi > lo:
        raise InputError(f"empty integration range [{lo}, {hi}]")

    def panel(a: float, b: float) -> tuple[float, float, float, float]:
        # heap entry of [a, b]: the smallest is the worst panel, ties leftmost
        val, err = _gk_panel(f, a, b)
        return -err, a, b, val

    edges = _initial_mesh(lo, hi, sharp_edges)
    panels = [panel(a, b) for a, b in zip(edges, edges[1:])]
    heapq.heapify(panels)
    rel_tol, abs_tol = spec.rel_tol, spec.abs_tol
    subdivisions = 0
    while True:
        try:
            total_val = math.fsum(entry[3] for entry in panels)
            total_err = -math.fsum(entry[0] for entry in panels)
        except (ValueError, OverflowError):  # inf - inf, or a finite sum past DBL_MAX
            total_val = sum(entry[3] for entry in sorted(panels, key=lambda entry: entry[1]))
            total_err = math.inf
        if not math.isfinite(total_err):
            return total_val, total_err, subdivisions, False
        if total_err <= max(rel_tol * abs(total_val), abs_tol):
            return total_val, total_err, subdivisions, True
        if subdivisions >= spec.max_subdivisions:
            return total_val, total_err, subdivisions, False
        _, a, b, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        heapq.heappush(panels, panel(a, mid))
        heapq.heappush(panels, panel(mid, b))
        subdivisions += 1


def _summed(parts) -> OracleReport:
    """Report for a sum of independent (value, error, subdivisions,
    converged) integrals, added left to right; their error estimates add."""
    values, errors, _, converged = zip(*parts)
    return OracleReport(sum(values), sum(errors), all(converged))


# --------------------------------------------------------------------------
# independently derived reduced kernels
# --------------------------------------------------------------------------

def _slab_potential(z: float, d1: float, rho1: float, alpha: float, lam: float) -> float:
    """Potential per unit test mass, height z above a laterally infinite slab.

    Integrating the pair kernel over an infinite sheet of surface density
    sigma gives -2 pi alpha G sigma lam e^(-h/lam) (substitute
    s^2 = r^2 + h^2 in the radial integral); stacking sheets through the
    slab thickness integrates to the form below. Validated against the raw
    sheet-kernel quadrature of oracle_layered_stack_potential by
    tests/test_oracle.py::test_slab_potential_against_sheet_quadrature.
    """
    return (-2.0 * math.pi * alpha * G_DEFAULT * rho1 * lam * lam
            * math.exp(-z / lam) * -math.expm1(-d1 / lam))


def _column_energy(gap: float, chord: float, rho2: float, d1: float, rho1: float,
                   alpha: float, lam: float) -> float:
    """Energy per unit area (J/m^2) of a column of density rho2 over
    [gap, gap + chord] above a slab: V = _slab_potential is e^(-z/lam) times
    constants, so the column integral is rho2 lam V(gap) (1 - e^(-chord/lam)),
    the parallel-plate energy of a chord-thick layer at that gap."""
    return (rho2 * lam * _slab_potential(gap, d1, rho1, alpha, lam)
            * -math.expm1(-chord / lam))


def _ball_force_coefficient(radius: float, rho: float, alpha: float, lam: float,
                            g: float) -> float:
    """C such that a uniform ball attracts an exterior unit mass at distance s
    with force C e^(-s/lam) (1/(lam s) + 1/s^2).

    From summing spherical shells of the pair kernel:
    C = 4 pi alpha G rho lam^2 (R cosh(R/lam) - lam sinh(R/lam)). Direct
    evaluation loses a few bits for R << lam; oracle configurations keep
    R/lam >= 0.5 (documented precondition).
    """
    x = radius / lam
    if x > 700.0:
        raise InputError("two-sphere oracle needs R/lambda <= 700 (cosh overflow)")
    return (4.0 * math.pi * alpha * g * rho * lam * lam
            * (radius * math.cosh(x) - lam * math.sinh(x)))


def _ring_polar_integral(r: float, height: float, lam: float) -> float:
    """Int_-1^1 e^((r t - height)/lam) dt, for 0 < r <= height.

    The polar-angle integral of a spherical ring of radius r centred at
    height above a slab whose potential decays as e^(-z/lam): the
    antiderivative (lam/r) e^((r t - height)/lam) taken between t = -1 and 1
    is (lam/r) e^((r - height)/lam) (1 - e^(-2r/lam)), with every exponent
    <= 0 (see the module docstring for its validation).
    """
    return lam / r * math.exp((r - height) / lam) * -math.expm1(-2.0 * r / lam)


# --------------------------------------------------------------------------
# sphere above an infinite slab
# --------------------------------------------------------------------------

def oracle_sphere_slab_yukawa(cfg: "SphereSlabConfig", p: YukawaParams,
                              q: QuadratureSpec = QuadratureSpec()) -> OracleReport:
    """Exact sphere-slab Yukawa interaction energy (J) by horizontal slices.

    1D adaptive quadrature of W(z) = rho2 A(z) V(z) with A the slice area and
    V the slab potential; for the purely exponential V the force is
    value/lam.
    """
    a, radius = cfg.separation, cfg.sphere_radius
    centre = a + radius

    def slice_energy(z: float) -> float:
        w = z - centre
        area = math.pi * (radius * radius - w * w)
        return cfg.sphere_density * area * _slab_potential(
            z, cfg.slab_thickness, cfg.slab_density, p.alpha, p.lam)

    val, err, _, ok = integrate_adaptive(slice_energy, a, a + 2.0 * radius, q,
                                         sharp_edges=[(a, p.lam)])
    return OracleReport(val, err, ok)


def oracle_slicing_equivalence(cfg: "SphereSlabConfig", p: YukawaParams,
                               q: QuadratureSpec = QuadratureSpec(),
                               ) -> tuple[OracleReport, OracleReport]:
    """Sphere-slab energy (J) via both volume parameterizations.

    Horizontal slices at constant height z, and vertical columns over the
    sphere's shadow (reduced to 1D in the axial radius by symmetry), each
    column contributing its parallel-plate energy (_column_energy): the
    EPFA construction. Both must agree: the slab potential depends on z only.
    """
    horizontal = oracle_sphere_slab_yukawa(cfg, p, q)

    a, radius = cfg.separation, cfg.sphere_radius

    def column(phi: float) -> float:
        # shadow radius s = R sin(phi): the substitution absorbs the
        # sqrt-type chord edge at the rim into a smooth cos factor
        cos_phi = math.cos(phi)
        energy = _column_energy(a + radius - radius * cos_phi, 2.0 * radius * cos_phi,
                                cfg.sphere_density, cfg.slab_thickness, cfg.slab_density,
                                p.alpha, p.lam)
        return 2.0 * math.pi * radius * radius * math.sin(phi) * cos_phi * energy

    # for lam << R the shadow mass sits below s ~ sqrt(2 R lam)
    val, err, _, ok = integrate_adaptive(column, 0.0, 0.5 * math.pi, q,
                                         sharp_edges=[(0.0, math.sqrt(2.0 * p.lam / radius))])
    return horizontal, OracleReport(val, err, ok)


def oracle_slab_slab_pressure(a: float, d1: float, rho1: float, d2: float,
                              rho2: float, p: YukawaParams,
                              q: QuadratureSpec = QuadratureSpec()) -> OracleReport:
    """Yukawa pressure (Pa) between parallel slabs by one 1D quadrature.

    Slab 1 acts only through its sheet-integrated potential V1
    (_slab_potential), whose force per unit mass -dV1/dz is V1/lam, so the
    pressure is the integral of rho2 V1(a + z2)/lam over slab 2's thickness.
    An INFINITE d2 is truncated at 80 lam (relative tail < 2e-35).
    """
    if not a > 0.0:
        raise InputError(f"gap must be > 0, got {a}")
    lam = p.lam
    val, err, _, ok = integrate_adaptive(
        lambda z2: rho2 * _slab_potential(a + z2, d1, rho1, p.alpha, lam) / lam,
        0.0, min(d2, _EXP_CUTOFF * lam), q, sharp_edges=[(0.0, lam)])
    return OracleReport(val, err, ok)


# --------------------------------------------------------------------------
# layered stack / layered sphere
# --------------------------------------------------------------------------

def _stack_segments(slab) -> list[tuple[float, float, float]]:
    """(depth_from_top, depth_to, density) for the top/middle/base layers."""
    segments = []
    depth = 0.0
    for layer in (slab.top, slab.middle, slab.base):
        if layer.thickness > 0.0:
            segments.append((depth, depth + layer.thickness, layer.density))
            depth += layer.thickness
    return segments


def oracle_layered_stack_potential(z: float, slab, p: YukawaParams,
                                   q: QuadratureSpec = QuadratureSpec()) -> OracleReport:
    """Potential per unit mass (J/kg) at height z above a layered stack.

    1D adaptive quadrature of the sheet kernel through the piecewise-constant
    density profile, one segment per layer. An INFINITE base is truncated
    80 lam below its top (relative tail < 2e-35).
    """
    if not z > 0.0:
        raise InputError(f"height must be > 0, got {z}")
    lam = p.lam
    return _summed(integrate_adaptive(
        lambda depth: (-2.0 * math.pi * p.alpha * G_DEFAULT * density * lam
                       * math.exp(-(z + depth) / lam)),
        lo, min(hi, lo + _EXP_CUTOFF * lam), q, sharp_edges=[(lo, lam)])
        for lo, hi, density in _stack_segments(slab))


def oracle_layered_sphere_slab(cfg: "LayeredConfig", p: YukawaParams,
                               q: QuadratureSpec = QuadratureSpec()) -> OracleReport:
    """Layered sphere / layered slab energy (J) by spherical quadrature.

    For each shell region, integrates rho_j r^2 V(z) over radius r and
    t = cos(theta), where z = a + R_out + r t is the element height above
    the slab top. The stack potential uses this module's sheet-kernel closed
    form, so the t-integral is elementary (_ring_polar_integral) and each
    region is one adaptive integral over r. Every exponent is <= 0, so
    nothing overflows at small lambda.
    """
    sphere, slab = cfg.sphere, cfg.slab
    lam = p.lam
    r_core = sphere.core_radius
    r_mid = r_core + sphere.inner_coat.thickness
    r_out = r_mid + sphere.outer_coat.thickness
    centre_height = cfg.separation + r_out

    # stack potential at the slab top; it decays as e^(-z/lam) above it
    prefactor = math.fsum(_slab_potential(lo, hi - lo, rho, p.alpha, lam)
                          for lo, hi, rho in _stack_segments(slab))

    def region_energy(lo: float, hi: float, rho: float) -> tuple[float, float, int, bool]:
        if not hi > lo or rho == 0.0:
            return 0.0, 0.0, 0, True

        def ring(r: float) -> float:
            # Gauss-Kronrod nodes are interior, so r > 0 here
            return (2.0 * math.pi * rho * r * r * prefactor
                    * _ring_polar_integral(r, centre_height, lam))

        return integrate_adaptive(ring, lo, hi, q, sharp_edges=[(hi, lam)])

    return _summed(region_energy(lo, hi, rho)
                   for lo, hi, rho in ((0.0, r_core, sphere.core_density),
                                       (r_core, r_mid, sphere.inner_coat.density),
                                       (r_mid, r_out, sphere.outer_coat.density)))


# --------------------------------------------------------------------------
# two spheres (no infinite body: the EPFA construction is not exact here)
# --------------------------------------------------------------------------

def oracle_two_spheres(r1: float, r2: float, center_distance: float,
                       rho1: float, rho2: float, kernel: str = "newton",
                       p: YukawaParams | None = None,
                       q: QuadratureSpec = QuadratureSpec(),
                       ) -> tuple[OracleReport, OracleReport]:
    """Force between two spheres: (exact, surface-element construction).

    exact: Newton uses the point-mass theorem G M1 M2 / d^2 as reference.
    Under Yukawa, ball 2 responds to ball 1's exterior field as a point too:
    the force is -C1 B2 e^(-d/lam) (1/(lam d) + 1/d^2) with
    C1 = _ball_force_coefficient(R1, rho1, alpha, lam, G) and
    B2 = _ball_force_coefficient(R2, rho2, 1, lam, 1) (both R/lam >= 0.5).

    epfa: columns through both bodies; each (x, y) of the shadow contributes
    the parallel-slab force per unit area at the local gap with the local
    chord thicknesses, integrated over the shadow. The two disagree for any
    finite bodies: the slab-slab pressure is translation invariant, the true
    field of a sphere is not.
    """
    if not center_distance > r1 + r2:
        raise InputError("spheres must not overlap")
    if kernel not in ("newton", "yukawa"):
        raise InputError(f"unknown two-sphere kernel {kernel!r}")
    if kernel == "yukawa" and p is None:
        raise InputError("yukawa kernel needs YukawaParams")
    d = center_distance

    if kernel == "newton":
        m1 = 4.0 / 3.0 * math.pi * r1 ** 3 * rho1
        m2 = 4.0 / 3.0 * math.pi * r2 ** 3 * rho2
        exact = OracleReport(-G_DEFAULT * m1 * m2 / (d * d), 0.0, True)
    else:
        lam = p.lam
        # e^(-d/lam) = e^(-R1/lam) e^(-R2/lam) e^(-gap/lam): each coefficient
        # takes the factor that cancels its cosh(R/lam), so none overflows
        coeff1 = _ball_force_coefficient(r1, rho1, p.alpha, lam, G_DEFAULT) * math.exp(-r1 / lam)
        coeff2 = _ball_force_coefficient(r2, rho2, 1.0, lam, 1.0) * math.exp(-r2 / lam)
        exact = OracleReport(-coeff1 * coeff2 * math.exp(-(d - r1 - r2) / lam)
                             * (1.0 / (lam * d) + 1.0 / (d * d)), 0.0, True)

    # surface-element (column) construction over the shadow
    shadow = min(r1, r2)
    lam = p.lam if p is not None else 0.0

    def column_force(s: float) -> float:
        chord1 = 2.0 * math.sqrt(max(r1 * r1 - s * s, 0.0))
        chord2 = 2.0 * math.sqrt(max(r2 * r2 - s * s, 0.0))
        if kernel == "newton":
            per_area = -2.0 * math.pi * G_DEFAULT * rho1 * rho2 * chord1 * chord2
        else:
            gap = d - 0.5 * chord1 - 0.5 * chord2
            per_area = (rho2 * _slab_potential(gap, chord1, rho1, p.alpha, lam)
                        * -math.expm1(-chord2 / lam))
        return 2.0 * math.pi * s * per_area

    hints = [(shadow, shadow / 8.0)]  # chord sqrt-edge at the shadow rim
    if kernel == "yukawa":
        reduced = r1 * r2 / (r1 + r2)
        hints.append((0.0, math.sqrt(lam * reduced)))
    val, err, _, ok = integrate_adaptive(column_force, 0.0, shadow, q, sharp_edges=hints)
    epfa = OracleReport(val, err, ok)
    return exact, epfa


# --------------------------------------------------------------------------
# point probe above a finite disk
# --------------------------------------------------------------------------

def _disk_layer(kernel: str, u: float, rd: float, n: float | None,
                lam: float | None) -> float:
    """Radial integral of the raw point kernel over a disk layer at depth u.

    With s = sqrt(u^2+r^2) the slant distance to the ring of radius r,
    r dr = s ds, so each radial integral over [0, R_d] is an elementary
    antiderivative taken between s = u and the rim S = sqrt(u^2+R_d^2):

        newton            u r / s^3                    ->  p/S
        power, N != 1     u r / s^(N+1)                ->  u^(2-N) (1 - e^((1-N) L)) / (N-1)
        power, N = 1      u r / s^2                    ->  u L
        yukawa            u r e^(-s/lam) (1/(lam s^2) + 1/s^3)
                                                       ->  e^(-u/lam) (1 - e^(-(L + p/lam)))
        yukawa_potential  r e^(-s/lam) / s             ->  e^(-u/lam) p (1 - e^(-x))/x,  x = p/lam

    with the rim gap p = S - u written as R_d (R_d/(S + u)) and L = ln(S/u)
    as log1p(p/u), so nothing cancels when R_d << u and no length is squared.
    """
    s = math.hypot(u, rd)
    gap = rd * (rd / (s + u))
    if kernel == "newton":
        return gap / s
    log_ratio = math.log1p(gap / u)
    if kernel == "power":
        if n == 1.0:
            return u * log_ratio
        return u ** (2.0 - n) * -math.expm1((1.0 - n) * log_ratio) / (n - 1.0)
    if kernel == "yukawa":
        return math.exp(-u / lam) * -math.expm1(-(log_ratio + gap / lam))
    x = gap / lam  # yukawa_potential
    return math.exp(-u / lam) * gap * (-math.expm1(-x) / x if x > 0.0 else 1.0)


def oracle_disk_point(probe: "AxisProbe", disk: Disk, kernel: str,
                      q: QuadratureSpec = QuadratureSpec(),
                      n: float | None = None,
                      p: YukawaParams | None = None) -> OracleReport:
    """Force (or potential) on an axis probe by quadrature over the disk depth.

    kernel: 'newton' and 'power' (needs n) integrate the axial force
    component u/s^(N+1); 'yukawa' (needs p) the exact Yukawa force kernel
    u e^(-s/lam) (1/(lam s^2) + 1/s^3); 'yukawa_potential' the pair
    potential e^(-s/lam)/s, returning energy instead of force. Each layer at
    depth u = z - z1 contributes 2 pi times its radial integral, which is
    elementary (_disk_layer), so one adaptive integral over the thickness
    remains. The Yukawa kernels truncate an INFINITE thickness 80 lam below
    the probe (relative tail < 2e-35) and refuse a lam for which that depth
    overflows; the power-law kernels need a finite thickness.
    """
    if math.isinf(disk.radius):
        raise InputError("the quadrature oracle requires a finite disk radius")
    if math.isinf(disk.thickness) and kernel in ("newton", "power"):
        raise InputError(f"the {kernel} quadrature oracle requires a finite disk thickness")
    z = probe.z
    rd, d1 = disk.radius, disk.thickness
    if not rd / z <= 1e300:  # p/u, and L = log1p(p/u) with it, must not overflow
        raise InputError(f"the disk oracle needs R_d / z <= 1e300, got {rd:g} m / {z:g} m")

    if kernel == "newton":
        prefactor = -G_DEFAULT * disk.density
    elif kernel == "power":
        if n is None:
            raise InputError("power kernel needs the exponent n")
        prefactor = -disk.density  # coupling K applied by the caller
    elif kernel in ("yukawa", "yukawa_potential"):
        if p is None:
            raise InputError(f"{kernel} kernel needs YukawaParams")
        prefactor = -p.alpha * G_DEFAULT * disk.density
    else:
        raise InputError(f"unknown disk kernel {kernel!r}")

    yukawa_like = kernel in ("yukawa", "yukawa_potential")
    lam = p.lam if yukawa_like else None
    if yukawa_like:
        d1 = min(d1, _EXP_CUTOFF * lam)
        if not math.isfinite(z + d1):
            raise InputError("the disk oracle's depth range z + min(D1, 80 lam) "
                             f"overflows for lam = {lam:g} m")

    # a Yukawa ladder at scale lam alone would never sample u <~ R_d for a
    # long range, where the force comes from
    outer_scale = min(lam, rd) if yukawa_like else z
    val, err, _, ok = integrate_adaptive(
        lambda u: 2.0 * math.pi * _disk_layer(kernel, u, rd, n, lam), z, z + d1, q,
        sharp_edges=[(z, outer_scale)])
    return OracleReport(prefactor * val, abs(prefactor) * err, ok)
