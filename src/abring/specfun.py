"""Terminating Gauss hypergeometric series 2F1(a, b; c; s).

Only what the radial eigenfunctions need: real parameters with a or b a
non-positive integer. Bound states always hand us such a parameter, so the
series is a polynomial and the evaluation is a stable forward recurrence on
the term ratio

    t_{k+1} / t_k = (a+k)(b+k) s / ((c+k)(k+1)).

Non-terminating parameters are refused.
"""

from __future__ import annotations

import numpy as np

from .numerics import DomainError

_INT_TOL = 1e-8


def _as_nonpositive_int(x: float) -> int | None:
    """Round x to a non-positive integer if it is one (within tolerance)."""
    k = round(x)
    if k <= 0 and abs(x - k) <= _INT_TOL * max(1.0, abs(x)):
        return int(k)
    return None


def terminating_degree(a: float, b: float) -> int | None:
    """Polynomial degree when a or b is a non-positive integer, else None."""
    degrees = [-k for p in (a, b) if (k := _as_nonpositive_int(p)) is not None]
    return min(degrees) if degrees else None


def hyp2f1(a: float, b: float, c: float, s):
    """Evaluate the terminating series 2F1(a, b; c; s) for scalar or array s.

    a or b must be a non-positive integer; the series is then summed exactly
    as a polynomial of degree min(|a|, |b|), valid for any real s. Raises
    DomainError for non-terminating parameters, or if c hits a non-positive
    integer before the series terminates.
    """
    degree = terminating_degree(a, b)
    if degree is None:
        raise DomainError(f"2F1({a}, {b}; {c}; s) does not terminate: "
                          f"a or b must be a non-positive integer")
    c_int = _as_nonpositive_int(c)
    if c_int is not None and -c_int < degree:
        raise DomainError(f"c={c} hits a non-positive integer before termination")

    s_arr = np.asarray(s, dtype=float)
    total = np.ones_like(s_arr)
    term = np.ones_like(s_arr)
    for k in range(degree):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * s_arr
        total = total + term
    return float(total) if s_arr.ndim == 0 else total
