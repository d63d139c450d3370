"""Shared quadrature and root-finding engine.

`integrate_samples` applies composite-Simpson weights to values already
sampled on a uniform grid (the wavefunction/entropy modules all work on
fixed grids); `bisect` finds roots on a sign-changing bracket.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Input outside the physical/mathematical domain of an operation."""


class NonConvergenceError(RuntimeError):
    """Iteration failed to reach tolerance; carries the last estimate."""

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite-Simpson weights for n uniformly spaced points.

    Odd n is classic Simpson. Even n (odd panel count) closes the last
    three panels with the 3/8 rule so the order-4 accuracy is kept.
    """
    if n < 2:
        raise DomainError("need at least 2 samples")
    if n == 2:
        return np.array([0.5, 0.5]) * h
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
        return w
    if n == 4:
        return np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    # even n: Simpson over the first n-3 points, 3/8 over the last 4
    head = n - 3
    w[0] = w[head - 1] = 1.0
    w[1:head - 1:2] = 4.0
    w[2:head - 1:2] = 2.0
    w *= h / 3.0
    w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def integrate_samples(values: np.ndarray, h: float) -> float | complex:
    """Integral of uniformly sampled values with composite-Simpson weights."""
    values = np.asarray(values)
    w = simpson_weights(values.shape[-1], h)
    return values @ w


def bisect(f, lo: float, hi: float, tol: float = 1e-12, rtol: float = 0.0,
           max_iter: int = 200) -> float:
    """Bisection root of f on a sign-changing bracket [lo, hi].

    The bracket width halves each iteration; stops once it drops below
    max(tol, rtol*|hi|). Raises DomainError without a sign change.
    """
    if not lo < hi:
        raise DomainError("bracket must satisfy lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise DomainError("no sign change on bracket")
    for _ in range(max_iter):
        if hi - lo <= max(tol, rtol * abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)
