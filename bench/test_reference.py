"""Checks of the benchmark's independent reference against closed forms.

Run from the repository root: python3 -m pytest -q bench
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads

GAUSSIAN_ENTROPY = 0.5 * (1.0 + math.log(math.pi))


def test_gaussian_saturates_the_uncertainty_bound():
    # centred far from r = 0 so the half-line cut is e^-144
    centre = 12.0
    psi = lambda r: math.pi**-0.25 * np.exp(-((np.asarray(r) - centre) ** 2) / 2.0)
    out = ref.converged_entropies(psi, ref.position_extent(psi, 2 * centre), k_need=12.0,
                                  tail_power=8.0)
    assert out.s_r == pytest.approx(GAUSSIAN_ENTROPY, abs=1e-9)
    assert out.s_k == pytest.approx(GAUSSIAN_ENTROPY, abs=1e-9)


@pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 1), (2, 1), (3, -2)])
def test_unscreened_limit_spectrum(n, m):
    sp = ref.spectrum(ref.State(delta=1e-6, v1=1.0, n=n, m=m))
    assert sp.exists
    assert sp.energy == pytest.approx(-1.0 / (2.0 * (n + abs(m) + 0.5) ** 2), rel=1e-4)


def test_bisection_matches_the_algebraic_root():
    rng = np.random.default_rng(3)
    b0, b1, b2 = rng.uniform(1, 400, 500), rng.uniform(-2, 5, 500), rng.uniform(0, 100, 500)
    eta, n = rng.uniform(-0.25, 4, 500), rng.integers(0, 6, 500)
    eps, nu = ref.solve_epsilon(b0, b1, b2, eta, n)
    big_n = n + nu
    lam = (b0 + b2 - eta - big_n**2) / (2 * big_n)
    algebraic = np.where((lam > 0) & (lam**2 - eta > 0), lam**2 - eta, np.nan)
    assert np.array_equal(np.isnan(eps), np.isnan(algebraic))
    ok = ~np.isnan(eps)
    assert ok.sum() > 100
    np.testing.assert_allclose(eps[ok], algebraic[ok], rtol=1e-12)


def test_scipy_series_agrees_with_mpmath_where_the_power_series_fails():
    # fault A state: 2F1(-9, a; c; s) with a ~ 200 and s near 1
    state = ref.BoundState(ref.State(delta=0.02, v1=20.0, n=9))
    assert ref.check_series_against_mpmath(state.st, state.sp, state.r_max, points=12) < 1e-12


def test_reference_converges_with_a_one_over_k_momentum_tail():
    # nu = 1/2: psi(0) != 0, so rho_k falls as 1/k^2 and the tail term carries the entropy
    state = ref.BoundState(ref.State(delta=0.1, v1=20.0, n=3))
    assert state.sp.nu == 0.5
    out = state.entropies()
    assert max(out.change_r, out.change_k) < ref.REF_CONVERGED
    assert out.s_k == pytest.approx(4.274, abs=1e-3)


def test_fault_b_window_loses_its_measured_mass():
    state = ref.BoundState(ref.State(delta=0.1, v1=20.0, n=3))
    assert state.mass_outside(40 * 0.1 * state.sp.lam) == pytest.approx(0.0164, abs=5e-4)


def test_extent_grows_past_the_outer_lobe():
    state = ref.BoundState(ref.State.with_phi(1.0, delta=0.018, v1=20.0, b_field=0.3, n=5))
    rho = state.psi(np.linspace(0.0, state.r_max, 4001)) ** 2
    assert rho[-1] <= 1e-20 * rho.max()
    wide = ref.position_entropy(state.psi, 2.0 * state.r_max, 4096)[0]
    assert state.entropies().s_r == pytest.approx(wide, abs=1e-9)


def test_sweep_order_matches_the_documented_crossing():
    rows = workloads.expand({"delta": 0.1}, [(("n", "m"), [(0, 0), (1, 1)]),
                                             (("alpha",), [(0.1,), (0.2,), (0.4,)])])
    assert [(r["n"], r["m"], r["alpha"]) for r in rows] == [
        (0, 0, 0.1), (0, 0, 0.2), (0, 0, 0.4), (1, 1, 0.1), (1, 1, 0.2), (1, 1, 0.4)]
