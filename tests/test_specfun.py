import math

import numpy as np
import pytest
from scipy import special

from abring.numerics import DomainError
from abring.specfun import hyp2f1, terminating_degree

S_GRID = np.arange(0.1, 0.95, 0.1)


def test_empty_series_is_one():
    for s in S_GRID:
        assert hyp2f1(0.0, 1.7, 2.3, s) == 1.0


def test_degree_one_polynomial():
    assert abs(hyp2f1(-1.0, 2.0, 4.0, 0.5) - 0.75) < 1e-15
    for s in S_GRID:
        assert abs(hyp2f1(-1.0, 2.0, 4.0, s) - (1.0 - 0.5 * s)) < 1e-15


@pytest.mark.parametrize("a", [-1.0, -2.0, -3.0])
def test_binomial_identity(a):
    # 2F1(a, b; b; s) = (1-s)^(-a) when the series terminates
    for s in S_GRID:
        exact = (1.0 - s) ** (-a)
        assert abs(hyp2f1(a, 3.3, 3.3, s) - exact) <= 1e-12 * abs(exact)


def test_binomial_identity_high_degree_conditioning():
    # alternating sums cancel down from (1+s)^|a|; accuracy tracks that scale
    for s in S_GRID:
        exact = (1.0 - s) ** 5
        err = abs(hyp2f1(-5.0, 3.3, 3.3, s) - exact)
        assert err <= 4.0 * np.spacing((1.0 + s) ** 5)


def test_quadratic_special_case():
    assert abs(hyp2f1(-2.0, 3.0, 3.0, 0.5) - 0.25) < 1e-15


def test_terminating_degree_detection():
    assert terminating_degree(-3.0, 1.5) == 3
    assert terminating_degree(2.0, -1.0) == 1
    assert terminating_degree(-4.0, -2.0) == 2
    assert terminating_degree(1.1, 2.2) is None
    # near-integers from floating arithmetic still terminate
    assert terminating_degree(-2.0 + 1e-12, 5.0) == 2


def test_both_parameters_nonpositive_integers():
    # the shorter termination wins: 2F1(-1, -3; c; s) = 1 + 3s/c
    for s in S_GRID:
        assert abs(hyp2f1(-1.0, -3.0, 2.0, s) - (1.0 + 1.5 * s)) < 1e-14


def test_matches_naive_term_summation():
    # recurrence evaluation vs terms built independently from scratch;
    # agreement to a few ulps of the term-magnitude scale
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        b = float(rng.uniform(0.5, 12.0))
        c = float(rng.uniform(0.5, 12.0))
        s = float(rng.uniform(0.0, 0.95))
        naive = 0.0
        magnitude = 0.0
        for k in range(n + 1):
            term = s**k / math.factorial(k)
            for j in range(k):
                term *= (-n + j) * (b + j) / (c + j)
            naive += term
            magnitude += abs(term)
        value = hyp2f1(float(-n), b, c, s)
        assert abs(value - naive) <= 4.0 * np.spacing(magnitude)


def test_contiguous_relation():
    # c F(a,b;c;s) - c F(a+1,b;c;s) + b s F(a+1,b+1;c+1;s) = 0
    rng = np.random.default_rng(5)
    for a in (-4.0, -3.0, -2.0):
        for _ in range(10):
            b = float(rng.uniform(0.5, 8.0))
            c = float(rng.uniform(1.0, 8.0))
            s = float(rng.uniform(0.05, 0.9))
            t1 = c * hyp2f1(a, b, c, s)
            t2 = -c * hyp2f1(a + 1.0, b, c, s)
            t3 = b * s * hyp2f1(a + 1.0, b + 1.0, c + 1.0, s)
            scale = max(abs(t1), abs(t2), abs(t3))
            assert abs(t1 + t2 + t3) <= 1e-12 * scale


def test_against_scipy_reference():
    rng = np.random.default_rng(17)
    for _ in range(60):
        a = float(-rng.integers(0, 6))
        b = float(rng.uniform(0.2, 6.0))
        c = float(rng.uniform(0.7, 8.0))
        s = float(rng.uniform(0.0, 0.9))
        ref = float(special.hyp2f1(a, b, c, s))
        value = hyp2f1(a, b, c, s)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_array_argument():
    s = np.linspace(0.0, 0.9, 11)
    values = hyp2f1(-2.0, 3.0, 3.0, s)
    np.testing.assert_allclose(values, (1.0 - s) ** 2, rtol=1e-14)


def test_nonterminating_rejects_s_at_one():
    # non-terminating parameters are rejected at every s, 1 included; so is
    # a near-integer a outside the integer tolerance
    for s in (0.0, 0.3, 1.0, np.linspace(0.0, 0.9, 5)):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 1.0, 2.0, s)
    with pytest.raises(DomainError):
        hyp2f1(-2.0 + 1e-6, 1.5, 2.0, 0.3)


def test_singular_c_before_termination_rejected():
    with pytest.raises(DomainError):
        hyp2f1(-4.0, 1.0, -2.0, 0.3)


def test_singular_c_after_termination_allowed():
    # degree-2 polynomial never reaches the pole of c = -5
    value = hyp2f1(-2.0, 1.0, -5.0, 0.3)
    exact = 1.0 - 2.0 * 0.3 / (-5.0) + ((-2.0) * (-1.0) * 1.0 * 2.0 / ((-5.0) * (-4.0) * 2.0)) * 0.09
    assert abs(value - exact) < 1e-14
