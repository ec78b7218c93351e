"""Numerically stable scalar primitives shared by the closed-form modules.

These exist because the force formulas mix terms like (1 - e^(-D/lambda))
with D/lambda anywhere between 1e-6 and 1e6, and differences such as
v cosh v - sinh v where the naive form loses most or all significant digits
at one end of the sweep ranges.
"""

from __future__ import annotations

import functools
import math


def one_minus_exp(x: float) -> float:
    """1 - e^(-x) for x >= 0, exact for x == 0 and x == inf."""
    return -math.expm1(-x)


#: (2k, (2k-2)(2k)(2k+1)) for k = 2..31: the integer factors of the ratio of
#: term k to term k-1 of x_cosh_x_minus_sinh_x's series, as floats (exact,
#: far below 2^53). Every v < 1 converges by k = 11; the end of the table
#: stops the sum where no term test can, at nan.
_X_COSH_RATIOS = tuple((float(2 * k), float((2 * k - 2) * (2 * k) * (2 * k + 1)))
                       for k in range(2, 32))


def x_cosh_x_minus_sinh_x(v: float) -> float:
    """v cosh v - sinh v, computed without cancelling the leading v.

    Power series sum_{k>=1} 2k v^(2k+1) / (2k+1)! has positive terms only, so
    it is used wherever it converges quickly (v < 1); the plain form loses
    at most ~2 bits for v >= 1. The series stops once a term is below 1e-18
    of the sum, or at the end of _X_COSH_RATIOS (a nan v returns nan).
    """
    if v >= 1.0:
        return v * math.cosh(v) - math.sinh(v)
    term = v * v * v / 3.0  # k = 1
    total = term
    v2 = v * v
    for two_k, denominator in _X_COSH_RATIOS:
        term *= v2 * two_k / denominator
        total += term
        if term <= total * 1e-18:
            break
    return total


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1].

    Newton iteration on P_n from the cos initial guess; converges to machine
    precision in a handful of steps and is fully deterministic.
    """
    nodes = []
    weights = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p_curr = 1.0, x
            for k in range(2, n + 1):
                p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k - 1) * p_prev) / k
            deriv = n * (x * p_curr - p_prev) / (x * x - 1.0)
            step = p_curr / deriv
            x -= step
            if abs(step) < 1e-16:
                break
        p_prev, p_curr = 1.0, x
        for k in range(2, n + 1):
            p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k - 1) * p_prev) / k
        deriv = n * (x * p_curr - p_prev) / (x * x - 1.0)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * deriv * deriv))
    return tuple(nodes), tuple(weights)
