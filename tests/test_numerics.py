import math

import mpmath
import pytest

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
