import math

import numpy as np
import pytest

from abring.numerics import DomainError, bisect, integrate_samples, simpson_weights


@pytest.mark.parametrize("n", [100, 101, 4096, 4097])
def test_simpson_weights_even_and_odd_counts(n):
    x = np.linspace(0.0, math.pi, n)
    w = simpson_weights(n, x[1] - x[0])
    assert abs(np.sin(x) @ w - 2.0) < 1e-7
    assert abs(w.sum() - math.pi) < 1e-12


def test_integrate_samples_matches_weights():
    x = np.linspace(0.0, 1.0, 513)
    y = np.exp(x)
    assert abs(integrate_samples(y, x[1] - x[0]) - (math.e - 1.0)) < 1e-12


def test_order_four_convergence():
    # halving h cuts the composite-Simpson error ~16x on a smooth integrand
    exact = math.sqrt(math.pi) / 2.0 * math.erf(2.0)
    grid_err = []
    for panels in (8, 16):
        x = np.linspace(0.0, 2.0, panels + 1)
        approx = np.exp(-x**2) @ simpson_weights(panels + 1, x[1] - x[0])
        grid_err.append(abs(approx - exact))
    ratio = grid_err[0] / grid_err[1]
    assert 10.0 < ratio < 25.0


def test_bisect_linear():
    assert abs(bisect(lambda x: x - 1.0, 0.0, 2.0) - 1.0) < 1e-12


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-13)
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_bisect_requires_sign_change():
    with pytest.raises(DomainError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_halves_bracket_each_iteration():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    k = 20
    root = bisect(f, 0.0, 2.0, tol=2.0 / 2**k)
    # two endpoint evaluations, then exactly one midpoint per halving
    assert len(calls) == k + 2
    assert abs(root - math.sqrt(2.0)) <= 2.0 / 2**k
