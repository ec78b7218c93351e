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


def x_cosh_x_minus_sinh_x(v: float) -> float:
    """v cosh v - sinh v, computed without cancelling the leading v.

    Power series sum_{k>=1} 2k v^(2k+1) / (2k+1)! has positive terms only, so
    it is used wherever it converges quickly (v < 1); the plain form loses
    at most ~2 bits for v >= 1.
    """
    if v >= 1.0:
        return v * math.cosh(v) - math.sinh(v)
    term = v * v * v / 3.0  # k = 1
    total = term
    k = 1
    while True:
        k += 1
        # ratio of consecutive terms: v^2 * (2k) / ((2k-2)(2k)(2k+1)) ... keep exact:
        term *= v * v * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        total += term
        if term <= total * 1e-18:
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
