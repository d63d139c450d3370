import math

import numpy as np
import pytest

from abring import entropy, model, spectral, wavefunction
from abring.numerics import DomainError


def density(x, values):
    return wavefunction.SampledFunction(np.asarray(x), np.asarray(values), "position")


def gaussian_density(center, sigma, span, n=4097):
    x = np.linspace(1e-6, span, n)
    rho = np.exp(-((x - center) / sigma) ** 2) / (sigma * math.sqrt(math.pi))
    return density(x, rho)


def test_uniform_density_on_unit_interval():
    rho = density(np.linspace(0.0, 1.0, 1001), np.ones(1001))
    assert abs(entropy.shannon_position(rho)) < 1e-12


def test_uniform_density_on_double_interval():
    rho = density(np.linspace(0.0, 2.0, 1001), np.full(1001, 0.5))
    assert abs(entropy.shannon_position(rho) - math.log(2.0)) < 1e-12


def test_gaussian_density_entropy():
    rho = gaussian_density(8.0, 1.0, 16.0)
    target = 0.5 * (1.0 + math.log(math.pi))
    assert abs(entropy.shannon_position(rho) - target) < 1e-6


def test_rejects_unnormalized_density():
    rho = density(np.linspace(0.0, 1.0, 101), np.full(101, 1.01))
    with pytest.raises(DomainError):
        entropy.shannon_position(rho)


def test_rejects_negative_density():
    values = np.full(101, 1.0)
    values[50] = -0.5
    with pytest.raises(DomainError):
        entropy.shannon_position(density(np.linspace(0.0, 1.0, 101), values))


def test_domain_tags_are_enforced():
    rho = density(np.linspace(0.0, 1.0, 101), np.ones(101))
    with pytest.raises(DomainError):
        entropy.shannon_momentum(rho)


def test_scale_covariance():
    # rho(r) -> c rho(c r) shifts the entropy by exactly -ln c
    s_wide = entropy.shannon_position(gaussian_density(8.0, 1.0, 16.0))
    s_narrow = entropy.shannon_position(gaussian_density(4.0, 0.5, 8.0))
    assert abs((s_wide - s_narrow) - math.log(2.0)) < 1e-6


def test_entropy_sum_invariant_under_dual_scaling():
    # squeezing position space stretches momentum space; the sum stays put
    def both_entropies(sigma):
        span = 16.0 * sigma
        x = np.linspace(1e-6, span, 4097)
        psi = (math.pi * sigma**2) ** -0.25 * np.exp(
            -((x - span / 2.0) ** 2) / (2.0 * sigma**2))
        f, _ = wavefunction.normalize(wavefunction.SampledFunction(x, psi, "position"))
        s_r = entropy.shannon_position(wavefunction.probability_density(f))
        out = spectral.fourier_transform(f, spectral.MomentumGrid(10.0 / sigma, 4097))
        rho_k = wavefunction.probability_density(out)
        mass = float(np.real(rho_k.values @ rho_k.weights))
        rho_k = wavefunction.SampledFunction(rho_k.x, rho_k.values / mass, "momentum")
        return s_r + entropy.shannon_momentum(rho_k)

    assert abs(both_entropies(1.0) - both_entropies(0.5)) < 1e-5


class TestBbmCheck:
    def test_reference_row(self):
        report = entropy.bbm_check(1.32078, 2.91721)
        assert abs(report.sum - 4.23799) < 5e-5
        assert report.passed
        assert report.margin > 0

    def test_gaussian_saturation_margin(self):
        half = 0.5 * (1.0 + math.log(math.pi))
        report = entropy.bbm_check(half, half)
        assert abs(report.margin) < 1e-12
        assert report.passed

    def test_below_bound_fails(self):
        report = entropy.bbm_check(0.0, 0.0)
        assert not report.passed
        assert report.margin < 0

    def test_sum_stored_exactly(self):
        report = entropy.bbm_check(1.25, -0.125)
        assert report.sum == 1.25 + -0.125

    def test_json_field_names(self):
        payload = entropy.bbm_check(1.0, 2.0, 1e-9, 2e-5).to_json_dict()
        assert set(payload) == {"s_r", "s_k", "sum", "bbm_bound", "margin",
                                "pass", "norm_residual_r", "norm_residual_k"}
        assert payload["pass"] is True
        assert payload["norm_residual_k"] == 2e-5


class TestPipeline:
    def test_composes_and_passes_bound(self):
        params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0).with_flux(1.0)
        report = entropy.entropy_pipeline(params, model.QuantumNumbers(0, 0))
        assert report.passed
        assert report.sum == report.s_r + report.s_k
        assert report.norm_residual_r < 1e-8
        assert report.norm_residual_k < 1e-4

    def test_solves_the_state_once(self, monkeypatch):
        # one closed-form solve feeds the sampler, r_max and the momentum window
        calls = []
        solve = model.energy_closed_form

        def counted(params, qn):
            calls.append(qn)
            return solve(params, qn)

        monkeypatch.setattr(model, "energy_closed_form", counted)
        params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0).with_flux(1.0)
        entropy.entropy_pipeline(params, model.QuantumNumbers(1, 0), 1025, 1025)
        assert calls == [model.QuantumNumbers(1, 0)]

    def test_no_bound_state_propagates(self):
        params = model.ModelParams(delta=0.1, v1=1.0, b_field=4.0)
        with pytest.raises(model.NoBoundStateError):
            entropy.entropy_pipeline(params, model.QuantumNumbers(0, 0))

    @pytest.mark.parametrize("n,m,b_field", [(0, 0, 1.0), (0, 0, 4.0), (1, 1, 4.0)])
    def test_grid_doubling_changes_little(self, n, m, b_field):
        # convergence check at the default resolution, including the shallow
        # strong-field states whose grids stretch the furthest
        params = model.ModelParams(delta=0.1, v1=20.0, b_field=b_field).with_flux(1.0)
        qn = model.QuantumNumbers(n, m)
        coarse = entropy.entropy_pipeline(params, qn, 4096, 4096)
        fine = entropy.entropy_pipeline(params, qn, 8192, 8192)
        assert abs(coarse.s_r - fine.s_r) < 1e-4
        assert abs(coarse.s_k - fine.s_k) < 1e-4
