"""Position -> momentum transform of sampled wavefunctions.

Direct quadrature of psi~(k) = (2*pi)**-1/2 * integral psi(r) exp(-i k r) dr
per momentum point (the position function vanishes for r <= 0, so the
half-line samples are the whole integrand). O(N*Nk) but with exact grid
control and no periodicity artifacts; k evaluations are chunked so the
phase matrix never materializes in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import DomainError, integrate_samples
from .wavefunction import DEFAULT_POINTS, SampledFunction

_CHUNK = 256
MASS_WARN_FRACTION = 0.99  # flag when <99% of |psi~|^2 lands inside the window


@dataclass(frozen=True)
class MomentumGrid:
    """Symmetric momentum window [-k_max, k_max] with n_points samples."""

    k_max: float
    n_points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.k_max <= 0:
            raise DomainError("k_max must be > 0")
        if self.n_points < 2:
            raise DomainError("need at least 2 momentum points")

    def abscissae(self) -> np.ndarray:
        return np.linspace(-self.k_max, self.k_max, self.n_points)


def default_momentum_grid(decay_exponent: float, delta: float,
                          n_points: int = DEFAULT_POINTS) -> MomentumGrid:
    """Window wide enough for a state with the given large-r decay exponent."""
    return MomentumGrid(40.0 * delta * max(1.0, decay_exponent), n_points)


def fourier_transform(f: SampledFunction, grid: MomentumGrid) -> SampledFunction:
    """Transform position samples to the momentum grid.

    Output is complex. If the input is normalized but the momentum window
    captures less than 99% of the transformed mass, the result carries
    truncation_warning=True (enlarge k_max).
    """
    if f.domain != "position":
        raise DomainError("input must be a position-domain function")
    k = grid.abscissae()
    weighted = f.weights() * f.values
    out = np.empty(k.size, dtype=complex)
    for i in range(0, k.size, _CHUNK):
        phase = np.exp(-1j * np.outer(k[i:i + _CHUNK], f.x))
        out[i:i + _CHUNK] = phase @ weighted
    out *= 1.0 / math.sqrt(2.0 * math.pi)

    transformed = SampledFunction(k, out, "momentum")
    warn = (abs(f.norm_squared() - 1.0) <= 1e-6
            and transformed.norm_squared() < MASS_WARN_FRACTION)
    return replace(transformed, truncation_warning=True) if warn else transformed


def parseval_residual(f_pos: SampledFunction, f_mom: SampledFunction) -> float:
    """| integral |psi|^2 dr - integral |psi~|^2 dk | for a transform pair."""
    return abs(f_pos.norm_squared() - f_mom.norm_squared())
