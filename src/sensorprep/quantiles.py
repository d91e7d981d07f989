"""Upper-tail quantiles of the standard normal and F distributions.

Computed rather than table-driven so arbitrary test levels and degrees of
freedom work: CDFs come from math.erfc and a regularized incomplete beta
continued fraction, inverted by bisection to ~1e-12.
"""

from __future__ import annotations

import math

__all__ = ["normal_quantile", "f_quantile", "normal_cdf", "f_cdf", "betainc"]

_MAX_ITER = 300
_EPS = 1e-15


def normal_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # The even and then the odd step of the fraction; convergence is tested after the odd one.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    # Use the symmetry relation on the side where the fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: float, d2: float) -> float:
    """P(F <= x) for an F-distributed variable with (d1, d2) degrees of freedom."""
    if x <= 0.0:
        return 0.0
    return betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))


def _bisect(cdf, target: float, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def normal_quantile(alpha: float) -> float:
    """Upper-alpha critical value of the standard normal: P(Z > c) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _bisect(normal_cdf, 1.0 - alpha, -40.0, 40.0)


def f_quantile(d1: int, d2: int, alpha: float) -> float:
    """Upper-alpha critical value of F(d1, d2): P(F > c) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    target = 1.0 - alpha
    hi = 1.0
    while f_cdf(hi, d1, d2) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError(f"F quantile bracket overflow (d1={d1}, d2={d2}, alpha={alpha})")
    return _bisect(lambda q: f_cdf(q, d1, d2), target, 0.0, hi)
