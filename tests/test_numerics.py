import math
import random

import mpmath
import pytest

import ypfa.numerics
import ypfa.yukawa
from ypfa.numerics import gauss_legendre, one_minus_exp, x_cosh_x_minus_sinh_x
from ypfa.yukawa import PHI_SERIES_SWITCH, phi, phi_direct, phi_series

mpmath.mp.dps = 50


def mp_phi(u):
    u = mpmath.mpf(u)
    return float(1 - 2 / u + mpmath.e ** (-u) * (1 + 2 / u))


def test_one_minus_exp_exact_endpoints():
    assert one_minus_exp(0.0) == 0.0
    assert one_minus_exp(math.inf) == 1.0


def test_x_cosh_x_minus_sinh_x_matches_mpmath():
    for v in (1e-6, 1e-3, 0.1, 0.5, 0.999, 1.0, 2.0, 10.0):
        want = float(mpmath.mpf(v) * mpmath.cosh(v) - mpmath.sinh(v))
        assert x_cosh_x_minus_sinh_x(v) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_series_terminate_when_first_term_underflows():
    # u^2/6 ~ 1e-341 and v^3/3 ~ 1e-361 round to 0.0, the correct result;
    # a strict "term < total * 1e-18" stopping test never held at 0 < 0
    assert phi_series(1e-170) == 0.0
    assert x_cosh_x_minus_sinh_x(1e-120) == 0.0


def test_phi_reference_values():
    # 50-digit evaluation of the defining expression across 12 decades
    for exponent in range(-6, 5):
        u = 10.0 ** exponent
        value, _ = phi(u)
        want = float(mpmath.mpf(1) - 2 / mpmath.mpf(u)
                     + mpmath.e ** (-mpmath.mpf(u)) * (1 + 2 / mpmath.mpf(u)))
        assert value == pytest.approx(want, rel=5e-14, abs=0.0), f"u={u}"


def test_phi_at_u_equals_two():
    value, regime = phi(2.0)
    assert regime == "direct"
    assert value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15, abs=0.0)
    assert value == pytest.approx(0.270670566473225, rel=1e-12, abs=0.0)


def test_phi_series_direct_overlap_window():
    # both branches must agree to 1e-12 across u in [1e-4, 1e-2]
    for i in range(81):
        u = 1e-4 * (100.0 ** (i / 80.0))
        s = phi_series(u)
        d = phi_direct(u)
        assert abs(s / d - 1.0) < 1e-12, f"u={u}: series {s} vs direct {d}"


def test_phi_regime_tag():
    assert phi(PHI_SERIES_SWITCH / 2)[1] == "series_small_u"
    assert phi(PHI_SERIES_SWITCH * 2)[1] == "direct"


def test_phi_branch_jump_at_switch_is_negligible():
    # the two branches evaluated at the same u (the switch point) must agree
    # far below any consumer's tolerance
    u = PHI_SERIES_SWITCH
    assert abs(phi_series(u) / phi_direct(u) - 1.0) < 1e-13


def test_gauss_legendre_rule():
    nodes, weights = gauss_legendre(16)
    assert len(nodes) == 16
    assert math.fsum(weights) == pytest.approx(2.0, rel=1e-14, abs=0.0)
    # exact for polynomials up to degree 31
    for degree in (0, 5, 17, 31):
        estimate = math.fsum(w * x ** degree for x, w in zip(nodes, weights))
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert estimate == pytest.approx(exact, abs=1e-14)


# The series loops as they were before their term ratios came from tables,
# kept as the bit-for-bit reference; each also returns how many ratios it took.

def _reference_x_cosh_x_minus_sinh_x(v):
    if v >= 1.0:
        return v * math.cosh(v) - math.sinh(v), 0
    term = v * v * v / 3.0
    total = term
    k = 1
    while True:
        k += 1
        term *= v * v * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        total += term
        if term <= total * 1e-18:
            return total, k - 1


def _reference_phi_series(u):
    m = 3
    term = u * u / 6.0
    total = term
    while True:
        term *= -u * (m - 1) / ((m - 2) * (m + 1))
        m += 1
        total += term
        if abs(term) <= abs(total) * 1e-18:
            return total, m - 3


def _reference_phi_direct(u):
    if u >= 2.0:
        return 1.0 - 2.0 / u + math.exp(-u) * (1.0 + 2.0 / u)
    return (4.0 / u) * math.exp(-u / 2.0) * _reference_x_cosh_x_minus_sinh_x(u / 2.0)[0]


def _seeded_u_grid():
    """u log-uniform over [1e-6, 10], plus the neighbours of both switches:
    PHI_SERIES_SWITCH (series/direct) and u = 2 (v = 1 in phi_direct)."""
    rng = random.Random(35)
    grid = [10.0 ** rng.uniform(-6.0, 1.0) for _ in range(20_000)]
    for switch in (PHI_SERIES_SWITCH, 2.0):
        below = above = switch
        for _ in range(50):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            grid += [below, above]
        grid.append(switch)
    return grid


def test_series_kernels_equal_their_reference_loops_bit_for_bit():
    for u in _seeded_u_grid():
        assert phi_direct(u) == _reference_phi_direct(u), u
        assert x_cosh_x_minus_sinh_x(u / 2.0) == _reference_x_cosh_x_minus_sinh_x(u / 2.0)[0], u
        if u <= 1.0:
            assert phi_series(u) == _reference_phi_series(u)[0], u
        value, regime = phi(u)
        want = _reference_phi_series(u)[0] if u < PHI_SERIES_SWITCH else _reference_phi_direct(u)
        assert value == want and regime == ("series_small_u" if u < PHI_SERIES_SWITCH
                                            else "direct"), u


def test_series_converge_before_their_tables_end():
    # the largest argument each series takes (v just below 1; u = 1, far
    # above PHI_SERIES_SWITCH) stops on its term test with ratios to spare
    v = math.nextafter(1.0, 0.0)
    assert _reference_x_cosh_x_minus_sinh_x(v)[1] < len(ypfa.numerics._X_COSH_RATIOS) - 5
    assert _reference_phi_series(1.0)[1] < len(ypfa.yukawa._PHI_SERIES_RATIOS) - 5
    assert x_cosh_x_minus_sinh_x(v) == _reference_x_cosh_x_minus_sinh_x(v)[0]
    assert phi_series(1.0) == _reference_phi_series(1.0)[0]


@pytest.mark.parametrize("kernel", [x_cosh_x_minus_sinh_x, phi_direct, phi_series])
def test_series_kernels_return_nan_for_nan(kernel):
    # no term test holds at nan: the loops ran forever before they took
    # their ratios from bounded tables
    assert math.isnan(kernel(math.nan))
