import math

import numpy as np
import pytest

from abring import entropy, model, spectral, wavefunction
from abring.numerics import DomainError


def gaussian_state(center=8.0, n=4097, span=16.0):
    r = np.linspace(1e-5, span, n)
    values = math.pi**-0.25 * np.exp(-((r - center) ** 2) / 2.0)
    f = wavefunction.SampledFunction(r, values, "position")
    return wavefunction.normalize(f)[0]


def test_gaussian_self_transform_modulus():
    # a unit-width Gaussian transforms to a unit-width Gaussian; the center
    # offset only contributes a phase
    psi = gaussian_state()
    out = spectral.fourier_transform(psi, spectral.MomentumGrid(8.0, 4097))
    expected = math.pi**-0.25 * np.exp(-out.x**2 / 2.0)
    assert np.max(np.abs(np.abs(out.values) - expected)) < 1e-6


def test_modulation_shifts_the_transform():
    psi = gaussian_state()
    grid = spectral.MomentumGrid(8.0, 4097)
    k = grid.abscissae()
    steps = 64
    k0 = steps * (k[1] - k[0])
    modulated = wavefunction.SampledFunction(
        psi.x, psi.values * np.exp(1j * k0 * psi.x), "position")
    base = spectral.fourier_transform(psi, grid)
    shifted = spectral.fourier_transform(modulated, grid)
    np.testing.assert_allclose(shifted.values[steps:], base.values[:-steps],
                               rtol=0, atol=1e-10)


def test_linearity():
    psi_a = gaussian_state(center=6.0)
    psi_b = gaussian_state(center=10.0)
    grid = spectral.MomentumGrid(8.0, 1025)
    mixed = wavefunction.SampledFunction(
        psi_a.x, 0.3 * psi_a.values + 1.7j * psi_b.values, "position")
    out = spectral.fourier_transform(mixed, grid)
    combo = (0.3 * spectral.fourier_transform(psi_a, grid).values
             + 1.7j * spectral.fourier_transform(psi_b, grid).values)
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(out.values - combo)) <= 1e-12 * scale


def test_hermitian_symmetry_for_real_input():
    psi = gaussian_state()
    out = spectral.fourier_transform(psi, spectral.MomentumGrid(6.0, 2049))
    scale = np.max(np.abs(out.values))
    assert np.max(np.abs(out.values[::-1] - np.conj(out.values))) <= 1e-12 * scale


def test_parseval_gaussian_pair():
    psi = gaussian_state()
    grid = spectral.MomentumGrid(8.0, 4097)
    out = spectral.fourier_transform(psi, grid)
    assert spectral.parseval_residual(psi, out) < 1e-8
    assert entropy.state_entropies(psi, grid).norm_residual_k < 1e-8


def test_truncated_window_flags_and_loses_mass():
    # window holding ~90% of the momentum density: residual ~ 0.1, and the
    # entropy report carries the same loss as norm_residual_k
    psi = gaussian_state()
    k90 = 1.1631  # erf(k90) ~ 0.90 for the unit-width |psi~|^2
    grid = spectral.MomentumGrid(k90, 2049)
    out = spectral.fourier_transform(psi, grid)
    residual = spectral.parseval_residual(psi, out)
    assert abs(residual - (1.0 - math.erf(k90))) < 0.01
    assert abs(residual - 0.1) < 0.02
    assert abs(entropy.state_entropies(psi, grid).norm_residual_k - 0.1) < 0.02


def test_parseval_residual_shrinks_with_window():
    psi = gaussian_state()
    residuals = [spectral.parseval_residual(
        psi, spectral.fourier_transform(psi, spectral.MomentumGrid(k, 2049)))
        for k in (1.1631, 2.3262, 4.6524)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_eigenstate_parseval_at_default_grids():
    params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0).with_flux(1.0)
    rep = model.energy_closed_form(params, model.QuantumNumbers(0, 0))
    psi, _ = wavefunction.normalize(
        wavefunction.radial_eigenfunction(params, model.QuantumNumbers(0, 0)))
    grid = spectral.default_momentum_grid(rep.dimensionless.lam, params.delta)
    out = spectral.fourier_transform(psi, grid)
    assert spectral.parseval_residual(psi, out) < 1e-4
    assert entropy.state_entropies(psi, grid).norm_residual_k < 1e-4


def test_rejects_momentum_domain_input():
    k = np.linspace(-1.0, 1.0, 64)
    f = wavefunction.SampledFunction(k, np.exp(-k**2), "momentum")
    with pytest.raises(DomainError):
        spectral.fourier_transform(f, spectral.MomentumGrid(1.0, 64))


def test_momentum_grid_validation():
    for k_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            spectral.MomentumGrid(k_max, 64)
    grid = spectral.MomentumGrid(2.0, 128)
    k = grid.abscissae()
    assert k[0] == -2.0 and k[-1] == 2.0
    np.testing.assert_allclose(k, -k[::-1], atol=0)


def direct_sum(f, grid, chunk=256):
    """The transform as the plain O(N*Nk) Simpson sum, chunked over k."""
    k = grid.abscissae()
    weighted = f.weights * f.values
    out = np.empty(k.size, dtype=complex)
    for i in range(0, k.size, chunk):
        out[i:i + chunk] = np.exp(-1j * np.outer(k[i:i + chunk], f.x)) @ weighted
    return out / math.sqrt(2.0 * math.pi)


def test_chirp_z_matches_the_direct_sum():
    # seeded solved states on grids with N != N_k, odd and even N, and N = 3
    rng = np.random.default_rng(19)
    sizes = [(3, 5), (3, 4), (4, 7), (257, 128), (512, 1025), (1025, 512), (2048, 2049)]
    checked = 0
    while checked < 2 * len(sizes):
        params = model.ModelParams(delta=rng.uniform(0.05, 0.2), v1=rng.uniform(10.0, 30.0),
                                   b_field=rng.uniform(0.0, 2.0),
                                   xi=rng.uniform(-0.5, 1.5), alpha=rng.uniform(0.5, 1.5))
        qn = model.QuantumNumbers(int(rng.integers(0, 4)), int(rng.integers(-1, 2)))
        rep = model.energy_closed_form(params, qn)
        if not rep.exists:
            continue
        n_r, n_k = sizes[checked % len(sizes)]
        psi = wavefunction.radial_eigenfunction(params, qn, n_r)
        grid = spectral.default_momentum_grid(rep.dimensionless.lam, params.delta, n_k)
        reference = direct_sum(psi, grid)
        out = spectral.fourier_transform(psi, grid)
        np.testing.assert_array_equal(out.x, grid.abscissae())
        assert np.max(np.abs(out.values - reference)) <= 1e-9 * np.max(np.abs(reference))
        checked += 1


def test_rejects_nonuniform_position_grid():
    r = np.linspace(1.0, 10.0, 64)
    r[10] += 1e-6 * (r[1] - r[0])
    with pytest.raises(DomainError, match="uniform"):
        wavefunction.SampledFunction(r, np.exp(-r), "position")
    with pytest.raises(DomainError, match="uniform"):
        wavefunction.SampledFunction(np.geomspace(1.0, 10.0, 64), np.exp(-r))
    # a grid that brings its own weights is sampled, but the chirp-z sum needs it uniform
    weighted = wavefunction.SampledFunction(r, np.exp(-r), "position", np.gradient(r))
    with pytest.raises(DomainError, match="uniform"):
        spectral.fourier_transform(weighted, spectral.MomentumGrid(1.0, 64))
