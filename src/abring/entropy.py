"""Shannon differential entropies and the entropic uncertainty check.

S = -integral rho ln rho over the sampled grid, in nats, with the
0*ln 0 = 0 convention (points with rho < 1e-30 contribute nothing).
For any 1-D transform pair the sum S_r + S_k is bounded below by
1 + ln(pi) ~ 2.14473 nats, with equality for Gaussians; `bbm_check`
packages that comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model, spectral, wavefunction
from .numerics import DomainError, NonConvergenceError

BBM_BOUND = 1.0 + math.log(math.pi)
BBM_SLACK = 1e-3
NORM_TOL = 1e-6
DENSITY_FLOOR = 1e-30


@dataclass(frozen=True)
class EntropyReport:
    """Position/momentum entropies and the uncertainty-bound verdict.

    `sum` is stored as s_r + s_k; `passed` means sum >= BBM_BOUND - 1e-3.
    norm_residual_r/_k record how far the respective density was from unit
    mass before any renormalization folded into the pipeline. rho_r/rho_k
    are the normalized densities the entropies were taken over (None when
    the report was assembled from bare numbers); they are not compared and
    not serialized.
    """

    s_r: float
    s_k: float
    sum: float
    bbm_bound: float
    margin: float
    passed: bool
    norm_residual_r: float = 0.0
    norm_residual_k: float = 0.0
    rho_r: wavefunction.SampledFunction | None = field(default=None, compare=False, repr=False)
    rho_k: wavefunction.SampledFunction | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "s_r": self.s_r,
            "s_k": self.s_k,
            "sum": self.sum,
            "bbm_bound": self.bbm_bound,
            "margin": self.margin,
            "pass": self.passed,
            "norm_residual_r": self.norm_residual_r,
            "norm_residual_k": self.norm_residual_k,
        }


def _shannon(rho: wavefunction.SampledFunction, domain: str) -> float:
    if rho.domain != domain:
        raise DomainError(f"expected a {domain}-domain density")
    values = np.real(rho.values)
    if np.any(values < -1e-12):
        raise DomainError("density must be non-negative")
    values = np.maximum(values, 0.0)
    weights = rho.weights
    total = float(values @ weights)
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"density mass {total:.8f} is not 1 within {NORM_TOL:g}")
    live = values > DENSITY_FLOOR
    integrand = np.zeros_like(values)
    integrand[live] = values[live] * np.log(values[live])
    return float(-(integrand @ weights))


def shannon_position(rho: wavefunction.SampledFunction) -> float:
    """Position-space entropy -integral rho ln rho dr (nats; may be negative)."""
    return _shannon(rho, "position")


def shannon_momentum(rho: wavefunction.SampledFunction) -> float:
    """Momentum-space entropy -integral rho ln rho dk (nats)."""
    return _shannon(rho, "momentum")


def bbm_check(s_r: float, s_k: float, norm_residual_r: float = 0.0,
              norm_residual_k: float = 0.0) -> EntropyReport:
    """Assemble the report; passed iff s_r + s_k >= BBM_BOUND - 1e-3."""
    total = s_r + s_k
    margin = total - BBM_BOUND
    return EntropyReport(s_r, s_k, total, BBM_BOUND, margin,
                         margin >= -BBM_SLACK, norm_residual_r, norm_residual_k)


def state_entropies(psi: wavefunction.SampledFunction,
                    grid: spectral.MomentumGrid) -> EntropyReport:
    """Normalize -> S_r, transform -> renormalize -> S_k for one sampled state.

    The report carries the normalized densities rho_r and rho_k. The momentum
    density is renormalized before S_k so the entropy is taken over a genuine
    density even under window truncation; the pre-renormalization deficit is
    reported as norm_residual_k. Any stage failure is re-raised tagged with
    the stage name.
    """
    stage = "normalize-position"
    try:
        psi, _ = wavefunction.normalize(psi)
        rho_r = wavefunction.probability_density(psi)
        mass_r = float(rho_r.values @ rho_r.weights)
        stage = "position-entropy"
        s_r = shannon_position(rho_r)
        stage = "fourier"
        rho_k = wavefunction.probability_density(spectral.fourier_transform(psi, grid))
        stage = "momentum-entropy"
        mass_k = float(rho_k.values @ rho_k.weights)
        if mass_k <= 0.0 or not math.isfinite(mass_k):
            raise DomainError("momentum density has no mass")
        rho_k = replace(rho_k, values=rho_k.values / mass_k)
        s_k = shannon_momentum(rho_k)
    except Exception as exc:
        raise RuntimeError(f"entropy pipeline failed at stage '{stage}': {exc}") from exc
    report = bbm_check(s_r, s_k, abs(mass_r - 1.0), abs(mass_r - mass_k))
    return replace(report, rho_r=rho_r, rho_k=rho_k)


def entropy_pipeline(params: model.ModelParams, qn: model.QuantumNumbers,
                     r_points: int = wavefunction.DEFAULT_POINTS,
                     k_points: int = wavefunction.DEFAULT_POINTS,
                     r_max: float | None = None,
                     k_max: float | None = None) -> EntropyReport:
    """Eigenfunction on the position and momentum grids -> `state_entropies`.

    The only path from a state to its densities and entropies. The state is
    solved once; k_max None picks the window 40*delta*max(1, lam) from that
    solution. NoBoundStateError propagates untouched (sweeps skip those
    points); any other stage failure is re-raised tagged with the stage name.
    """
    stage = "eigenfunction"
    try:
        report = wavefunction._bound_state(params, qn)
        psi = wavefunction._sample(params, report, qn.n, r_points, r_max)
        stage = "fourier"
        grid = (spectral.MomentumGrid(k_max, k_points) if k_max is not None else
                spectral.default_momentum_grid(report.dimensionless.lam, params.delta, k_points))
    except (model.NoBoundStateError, NonConvergenceError):
        raise
    except Exception as exc:
        raise RuntimeError(f"entropy pipeline failed at stage '{stage}': {exc}") from exc
    return state_entropies(psi, grid)
