import math

import numpy as np
import pytest

from abring import model, wavefunction
from abring.numerics import DomainError


def bound_params(**kw):
    phi_ab = kw.pop("phi_ab", 1.0)
    base = dict(delta=0.1, v1=20.0, b_field=1.0, alpha=1.0)
    base.update(kw)
    return model.ModelParams(**base).with_flux(phi_ab)


def shifted_gaussian(center=8.0, sigma=1.0, span=16.0, n=4097):
    r = np.linspace(1e-5, span, n)
    values = (math.pi * sigma**2) ** -0.25 * np.exp(-((r - center) ** 2) / (2 * sigma**2))
    return wavefunction.SampledFunction(r, values, "position")


class TestSampledFunction:
    def test_rejects_short_grid(self):
        with pytest.raises(DomainError):
            wavefunction.SampledFunction(np.array([1.0]), np.array([1.0]))

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(DomainError):
            wavefunction.SampledFunction(np.array([1.0, 1.0, 2.0]), np.zeros(3))

    def test_rejects_unknown_domain(self):
        with pytest.raises(DomainError):
            wavefunction.SampledFunction(np.array([1.0, 2.0]), np.zeros(2), "fourier")

    def test_carries_simpson_weights(self):
        x = np.linspace(0.0, 1.0, 513)
        f = wavefunction.SampledFunction(x, np.exp(x))
        assert abs(f.values @ f.weights - (math.e - 1.0)) < 1e-12
        # built once: copies with new values share them
        assert wavefunction.normalize(f)[0].weights is f.weights
        assert wavefunction.probability_density(f).weights is f.weights

    def test_nonuniform_grid_needs_explicit_weights(self):
        # Simpson weights from the first step gave norm_squared 0.2234 here
        r = np.geomspace(1.0, 10.0, 64)
        exact = math.exp(-1.0) - math.exp(-10.0)
        with pytest.raises(DomainError, match="uniform"):
            wavefunction.SampledFunction(r, np.exp(-r / 2.0))
        trapezoid = np.gradient(r)
        trapezoid[[0, -1]] /= 2.0
        f = wavefunction.SampledFunction(r, np.exp(-r / 2.0), weights=trapezoid)
        assert abs(f.norm_squared() - exact) < 1e-3
        with pytest.raises(DomainError, match="shapes"):
            wavefunction.SampledFunction(r, np.exp(-r / 2.0), weights=trapezoid[1:])


class TestNormalize:
    def test_unit_input_keeps_scale_one(self):
        f = shifted_gaussian()
        _, scale = wavefunction.normalize(f)
        assert abs(scale - 1.0) < 1e-8

    def test_doubled_input_halves(self):
        f = shifted_gaussian()
        doubled = wavefunction.SampledFunction(f.x, 2.0 * f.values, "position")
        _, scale = wavefunction.normalize(doubled)
        assert abs(scale - 0.5) < 1e-10

    def test_idempotent(self):
        psi = wavefunction.radial_eigenfunction(bound_params(), model.QuantumNumbers(0, 0))
        once, _ = wavefunction.normalize(psi)
        _, second_scale = wavefunction.normalize(once)
        assert abs(second_scale - 1.0) < 1e-10

    def test_zero_norm_rejected(self):
        f = wavefunction.SampledFunction(np.linspace(1, 2, 16), np.zeros(16), "position")
        with pytest.raises(DomainError):
            wavefunction.normalize(f)


class TestRadialEigenfunction:
    def test_unit_norm_confirmed_at_doubled_resolution(self):
        # quadrature oracle: the norm integral is already converged at the
        # default resolution, so normalizing at N leaves unit mass at 2N too
        params = bound_params()
        qn = model.QuantumNumbers(0, 0)
        raw = wavefunction.radial_eigenfunction(params, qn, 4096)
        r_max = float(raw.x[-1])
        fine = wavefunction.radial_eigenfunction(params, qn, 8192, r_max=r_max)
        assert abs(raw.norm_squared() / fine.norm_squared() - 1.0) < 1e-8
        psi, _ = wavefunction.normalize(raw)
        assert abs(psi.norm_squared() - 1.0) < 1e-12

    def test_tail_is_negligible(self):
        psi = wavefunction.radial_eigenfunction(bound_params(), model.QuantumNumbers(1, 1))
        density = np.abs(psi.values) ** 2
        assert density[-1] <= 1e-10 * density.max()

    def test_small_r_power_law(self):
        # psi ~ r^(nu - 1/2) near the origin, so the density is integrable;
        # verified by the log-log slope over a genuinely small-r window
        params = bound_params()
        qn = model.QuantumNumbers(0, 0)
        nu = model.energy_closed_form(params, qn).dimensionless.nu
        psi = wavefunction.radial_eigenfunction(params, qn, 4096, r_max=0.02)
        r_lo, r_hi = psi.x[0], psi.x[60]
        v_lo, v_hi = np.real(psi.values[0]), np.real(psi.values[60])
        slope = math.log(v_hi / v_lo) / math.log(r_hi / r_lo)
        assert abs(slope - (nu - 0.5)) < 1e-2

    def test_no_bound_state_carries_reason(self):
        params = model.ModelParams(delta=0.1, v1=1.0, b_field=4.0)
        with pytest.raises(model.NoBoundStateError) as excinfo:
            wavefunction.radial_eigenfunction(params, model.QuantumNumbers(0, 0))
        assert "bound" in excinfo.value.reason

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_node_count_equals_radial_index(self, n):
        psi = wavefunction.radial_eigenfunction(bound_params(), model.QuantumNumbers(n, 0))
        assert wavefunction.count_radial_nodes(psi) == n


class TestProbabilityDensity:
    def test_phase_invariance(self):
        psi, _ = wavefunction.normalize(
            wavefunction.radial_eigenfunction(bound_params(), model.QuantumNumbers(0, 0)))
        rotated = wavefunction.SampledFunction(psi.x, psi.values * np.exp(1j * 0.7), "position")
        rho_a = wavefunction.probability_density(psi)
        rho_b = wavefunction.probability_density(rotated)
        np.testing.assert_allclose(np.real(rho_b.values), np.real(rho_a.values),
                                   rtol=0, atol=1e-15)

    def test_nonnegative_and_unit_mass(self):
        psi, _ = wavefunction.normalize(
            wavefunction.radial_eigenfunction(bound_params(), model.QuantumNumbers(1, 0)))
        rho = wavefunction.probability_density(psi)
        values = np.real(rho.values)
        assert np.all(values >= 0.0)
        assert abs(values @ rho.weights - 1.0) < 1e-8

    def test_peak_moves_inward_as_deficit_parameter_grows(self):
        peaks = []
        for alpha in (0.1, 0.2, 0.4):
            params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0,
                                       alpha=alpha).with_flux(1.0)
            psi, _ = wavefunction.normalize(
                wavefunction.radial_eigenfunction(params, model.QuantumNumbers(0, 0)))
            peaks.append(psi.x[np.argmax(np.abs(psi.values) ** 2)])
        assert peaks[0] > peaks[1] > peaks[2]


class TestTransformedEquationResidual:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (1, 1), (2, 1)])
    def test_reduced_equation_satisfied(self, n, m):
        residual = wavefunction.transformed_equation_residual(
            bound_params(), model.QuantumNumbers(n, m))
        assert residual <= 1e-6
