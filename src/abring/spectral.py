"""Position -> momentum transform of sampled wavefunctions.

psi~(k) = (2*pi)**-1/2 * integral psi(r) exp(-i k r) dr, as the
composite-Simpson sum over the position samples at every momentum point
(the position function vanishes for r <= 0, so the half-line samples are
the whole integrand). Both grids are uniform, so the sum is evaluated
exactly by the chirp-z identity j*l = (j**2 + l**2 - (j-l)**2)/2 as one FFT
convolution (Bluestein 1970; Rabiner, Schafer & Rader 1969): no
periodicity artifacts, the same numbers as the direct sum to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError
from .wavefunction import DEFAULT_POINTS, SampledFunction, _uniform_spacing


@dataclass(frozen=True)
class MomentumGrid:
    """Symmetric momentum window [-k_max, k_max] with n_points samples."""

    k_max: float
    n_points: int = DEFAULT_POINTS

    def __post_init__(self):
        if not 0.0 < self.k_max < math.inf:
            raise DomainError("k_max must be positive and finite")
        if self.n_points < 2:
            raise DomainError("need at least 2 momentum points")

    def abscissae(self) -> np.ndarray:
        return np.linspace(-self.k_max, self.k_max, self.n_points)


def default_momentum_grid(decay_exponent: float, delta: float,
                          n_points: int = DEFAULT_POINTS) -> MomentumGrid:
    """Window wide enough for a state with the given large-r decay exponent."""
    return MomentumGrid(40.0 * delta * max(1.0, decay_exponent), n_points)


def fourier_transform(f: SampledFunction, grid: MomentumGrid) -> SampledFunction:
    """Transform position samples to the momentum grid (complex output).

    Evaluates sum_l w_l psi_l exp(-i k_j x_l) / sqrt(2*pi) with Simpson
    weights w. Raises DomainError unless the position grid is uniform, which
    the chirp-z evaluation assumes.
    """
    if f.domain != "position":
        raise DomainError("input must be a position-domain function")
    x, k = f.x, grid.abscissae()
    n, m = x.size, k.size
    dr = _uniform_spacing(x)
    l = np.arange(n)
    # k_j x_l = k_j x_0 + k_0 dr l + theta j l, and theta j l splits into the
    # chirps theta j^2/2, theta l^2/2 and -theta (j-l)^2/2 (chirp-z identity)
    theta = (k[-1] - k[0]) / (m - 1) * dr
    lag = np.arange(1 - n, m)                  # every j - l
    chirp = np.exp(0.5j * theta * (lag * lag))
    pre = f.weights * f.values * np.exp(-1j * k[0] * dr * l) * np.conj(chirp[n - 1::-1])
    size = 1 << (n + m - 2).bit_length()       # >= n + m - 1, so no used lag wraps
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp, size))[n - 1:n - 1 + m]
    post = np.exp(-1j * k * x[0]) * np.conj(chirp[n - 1:]) / math.sqrt(2.0 * math.pi)
    return SampledFunction(k, post * conv, "momentum")
