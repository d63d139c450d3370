"""Independent-route checks of the whole computation chain.

A finite-difference eigensolver on the reduced radial Hamiltonian knows
nothing about the closed form, the terminating series, or the quantization
condition; a zero-padded plain DFT of the samples knows nothing about the
chirp-z convolution that evaluates the transform.
Agreement here validates the chain end to end.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from abring import model, spectral, wavefunction


def reduced_potential(params, qn, r):
    """Potential of the reduced radial problem that the closed form solves."""
    beta0, beta1, beta2, eta = model.coupling_constants(params, qn)
    d = params.delta
    s = np.exp(-d * r)
    one = 1.0 - s
    pref = params.hbar**2 / (2.0 * params.mass)
    return pref * d * d * (-beta0 * s / one + (beta1 * s + beta2 * s * s + eta) / one**2)


def fd_spectrum(params, m, n_states, r_out, n_grid):
    r = np.linspace(0.0, r_out, n_grid + 2)[1:-1]
    h = r[1] - r[0]
    w = reduced_potential(params, model.QuantumNumbers(0, m), r)
    kinetic = params.hbar**2 / (2.0 * params.mass * h * h)
    diag = 2.0 * kinetic + w
    off = np.full(len(r) - 1, -kinetic)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    return r, vals, vecs


def default_params():
    return model.ModelParams(delta=0.1, v1=20.0, b_field=1.0).with_flux(1.0)


def test_fd_eigensolver_confirms_closed_form_spectrum():
    params = default_params()
    for m in (0, 1):
        _, coarse, _ = fd_spectrum(params, m, 3, 60.0, 8000)
        _, fine, _ = fd_spectrum(params, m, 3, 60.0, 16000)
        for n in range(3):
            richardson = (4.0 * fine[n] - coarse[n]) / 3.0  # h^2 extrapolation
            closed = model.energy_closed_form(params, model.QuantumNumbers(n, m)).energy
            assert abs(richardson / closed - 1.0) < 1e-8


def test_fd_ground_state_overlaps_analytic_eigenfunction():
    params = default_params()
    qn = model.QuantumNumbers(0, 0)
    r, _, vecs = fd_spectrum(params, 0, 1, 60.0, 16000)
    h = r[1] - r[0]
    psi = wavefunction.radial_eigenfunction(params, qn, 16000, r_max=60.0)
    # the solver works with the reduced function sqrt(2 pi r) * psi
    reduced = np.interp(r, psi.x, np.real(psi.values)) * np.sqrt(2.0 * math.pi * r)
    reduced /= math.sqrt(np.sum(reduced**2) * h)
    ground = vecs[:, 0] / math.sqrt(np.sum(vecs[:, 0] ** 2) * h)
    overlap = abs(np.sum(ground * reduced) * h)
    assert overlap > 1.0 - 1e-10


def test_fft_confirms_direct_quadrature_transform():
    params = default_params()
    psi, _ = wavefunction.normalize(
        wavefunction.radial_eigenfunction(params, model.QuantumNumbers(0, 0), 4096))
    h = psi.x[1] - psi.x[0]
    n_fft = 8 * psi.x.size
    fft_vals = np.fft.fft(np.real(psi.values), n=n_fft) * h / math.sqrt(2.0 * math.pi)
    freqs = np.fft.fftfreq(n_fft, d=h) * 2.0 * math.pi
    fft_vals *= np.exp(-1j * freqs * psi.x[0])  # grid starts at r_min, not 0
    dk = freqs[1] - freqs[0]
    bins = 40
    direct = spectral.fourier_transform(psi, spectral.MomentumGrid(bins * dk, 2 * bins + 1))
    on_grid = np.concatenate([fft_vals[-bins:], fft_vals[:bins + 1]])
    assert np.max(np.abs(direct.values - on_grid)) < 1e-9


def test_unconventional_parameter_regimes_stay_consistent():
    # anti-aligned flux, surplus-angle defect, negative angular label: the
    # bound states that exist still agree with the oracle and obey the bound
    from abring import entropy
    regimes = [
        model.ModelParams(delta=0.1, v1=20.0, b_field=1.0, xi=-0.5),
        model.ModelParams(delta=0.1, v1=20.0, b_field=1.0, alpha=2.5).with_flux(1.0),
    ]
    for params in regimes:
        for m in (-1, 0, 1):
            qn = model.QuantumNumbers(0, m)
            rep = model.energy_closed_form(params, qn)
            if not rep.exists:
                continue
            eps = model.quantization_root_bisection(params, qn)
            assert abs(eps - rep.epsilon) / rep.epsilon < 1e-10
            report = entropy.entropy_pipeline(params, qn, 2049, 2049)
            assert report.passed
