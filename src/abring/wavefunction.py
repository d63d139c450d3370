"""Radial eigenfunctions, normalization and probability densities.

The bound-state radial function, in the substitution variable
s = exp(-delta*r), is s**lam * (1-s)**nu times a terminating Gauss
series; the full wavefunction adds the (2*pi*r)**-1/2 measure factor
(the unit-modulus azimuthal phase is dropped -- only r carries
information here). Functions are sampled on uniform grids and all
integrals use composite-Simpson weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .numerics import DomainError, simpson_weights
from .specfun import hyp2f1

TWO_PI = 2.0 * math.pi

DEFAULT_POINTS = 4096
TAIL_CUTOFF = 1e-14  # |psi(r_max)|^2 below this fraction of the peak
R_MIN_LENGTHS = 1e-6  # grids start at r_min = R_MIN_LENGTHS/delta, where 1/sqrt(r) is finite
UNIFORM_RTOL = 1e-9  # largest grid-point offset from x0 + l*dx, in units of dx


def _uniform_spacing(x: np.ndarray) -> float:
    """Spacing of a grid uniform to UNIFORM_RTOL, from its endpoints; DomainError otherwise."""
    dx = (x[-1] - x[0]) / (x.size - 1)
    if np.max(np.abs(x - (x[0] + np.arange(x.size) * dx))) > UNIFORM_RTOL * dx:
        raise DomainError("grid must be uniform")
    return dx


@dataclass(frozen=True)
class SampledFunction:
    """Function samples on a strictly increasing grid, with quadrature weights.

    domain is "position" or "momentum"; values may be complex. Only a uniform
    grid may omit weights; it gets composite-Simpson weights, built once and
    kept by `replace`. Package grids are uniform and, for positions, > 0.
    """

    x: np.ndarray
    values: np.ndarray
    domain: str = "position"
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        if x.ndim != 1 or x.size < 2:
            raise DomainError("need a 1-D grid with at least 2 points")
        if v.shape != x.shape or (self.weights is not None and np.shape(self.weights) != x.shape):
            raise DomainError("values, weights and grid shapes differ")
        if np.any(np.diff(x) <= 0):
            raise DomainError("grid must be strictly increasing")
        if self.domain not in ("position", "momentum"):
            raise DomainError(f"unknown domain {self.domain!r}")
        if self.weights is None:
            _uniform_spacing(x)
            object.__setattr__(self, "weights", simpson_weights(x.size, float(x[1] - x[0])))

    def norm_squared(self) -> float:
        return float(np.real(np.abs(self.values) ** 2 @ self.weights))


def _radial_profile(params: model.ModelParams, report: model.BoundStateReport,
                    n: int, r: np.ndarray) -> np.ndarray:
    """Unnormalized psi(r) for an existing bound state."""
    ds = report.dimensionless
    s = np.exp(-params.delta * r)
    a = ds.lam + ds.nu + math.sqrt(ds.epsilon + ds.beta0 + ds.beta2)
    c = 2.0 * ds.lam + 1.0
    series = hyp2f1(-n, a, c, s)
    return (TWO_PI * r) ** -0.5 * series * np.exp(-params.delta * r * ds.lam) * (1.0 - s) ** ds.nu


def auto_r_max(params: model.ModelParams, report: model.BoundStateReport, n: int) -> float:
    """Grid extent where the density has dropped below TAIL_CUTOFF of its peak."""
    ds = report.dimensionless
    r_peak = math.log1p(ds.nu / ds.lam) / params.delta
    r_max = r_peak + math.log(1e16) / (2.0 * params.delta * ds.lam)
    for _ in range(200):
        probe = np.linspace(R_MIN_LENGTHS / params.delta, r_max, 512)
        rho = np.abs(_radial_profile(params, report, n, probe)) ** 2
        if rho[-1] <= TAIL_CUTOFF * rho.max():
            return r_max
        r_max *= 1.25
    return r_max


def _bound_state(params: model.ModelParams, qn: model.QuantumNumbers) -> model.BoundStateReport:
    """The closed-form solution for (params, qn); NoBoundStateError if there is none."""
    report = model.energy_closed_form(params, qn)
    if not report.exists:
        raise model.NoBoundStateError(report.reason)
    return report


def _sample(params: model.ModelParams, report: model.BoundStateReport, n: int,
            n_points: int, r_max: float | None) -> SampledFunction:
    """Sample a solved state's psi(r) on [r_min, r_max] (r_max None: auto_r_max)."""
    if r_max is None:
        r_max = auto_r_max(params, report, n)
    r_min = R_MIN_LENGTHS / params.delta
    if r_max <= r_min:
        raise DomainError(f"r_max must exceed r_min = {R_MIN_LENGTHS:g}/delta")
    r = np.linspace(r_min, r_max, n_points)
    return SampledFunction(r, _radial_profile(params, report, n, r), "position")


def radial_eigenfunction(params: model.ModelParams, qn: model.QuantumNumbers,
                         n_points: int = DEFAULT_POINTS,
                         r_max: float | None = None) -> SampledFunction:
    """Sample the (unnormalized) bound-state wavefunction on a uniform grid.

    The grid runs from r_min = R_MIN_LENGTHS/delta to r_max, auto-chosen so
    the density tail is below TAIL_CUTOFF of its peak. Raises NoBoundStateError
    with the spectrum's rejection reason when the state does not exist.
    """
    return _sample(params, _bound_state(params, qn), qn.n, n_points, r_max)


def normalize(f: SampledFunction):
    """Scale samples to unit L2 norm on their grid.

    Returns (normalized function, applied scale constant). Raises on a
    zero, NaN or infinite norm.
    """
    nsq = f.norm_squared()
    if not math.isfinite(nsq) or nsq <= 0.0:
        raise DomainError("cannot normalize: norm is zero or not finite")
    scale = 1.0 / math.sqrt(nsq)
    return replace(f, values=f.values * scale), scale


def probability_density(f: SampledFunction) -> SampledFunction:
    """Pointwise |psi|^2 as a real sampled function on the same grid."""
    return replace(f, values=np.abs(f.values) ** 2)


def count_radial_nodes(f: SampledFunction, floor: float = 1e-8) -> int:
    """Sign changes of the (real) radial function away from its tiny tails."""
    v = np.real(f.values)
    live = np.abs(v) > floor * np.max(np.abs(v))
    signs = np.sign(v[live])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def transformed_equation_residual(params: model.ModelParams, qn: model.QuantumNumbers,
                                  n_points: int = DEFAULT_POINTS,
                                  s_window: tuple[float, float] = (0.05, 0.9)) -> float:
    """Max pointwise relative residual of the reduced radial equation.

    The radial factor R(s) = sqrt(2*pi*r) * psi(r) of the sampled profile,
    at r = -ln(s)/delta on a uniform grid in s, is pushed through

        R'' + R'/s + [ -(eps+b0+b2)s^2 + (2eps+b0-b1)s - (eps+eta) ]
                     / (s^2 (1-s)^2) * R  =  0

    with 5-point finite differences for R'' and R'. The residual at each
    interior point is normalized by the largest of the three term magnitudes;
    points where |R| has decayed below 1e-6 of its max are excluded (the
    function is numerically zero there).
    """
    report = _bound_state(params, qn)
    ds = report.dimensionless
    s = np.linspace(s_window[0], s_window[1], n_points)
    h = s[1] - s[0]
    r = -np.log(s) / params.delta
    radial = np.sqrt(TWO_PI * r) * _radial_profile(params, report, qn.n, r)

    d2 = (-radial[:-4] + 16 * radial[1:-3] - 30 * radial[2:-2]
          + 16 * radial[3:-1] - radial[4:]) / (12.0 * h * h)
    d1 = (radial[:-4] - 8 * radial[1:-3] + 8 * radial[3:-1] - radial[4:]) / (12.0 * h)
    si = s[2:-2]
    poly = (-(ds.epsilon + ds.beta0 + ds.beta2) * si**2
            + (2.0 * ds.epsilon + ds.beta0 - ds.beta1) * si
            - (ds.epsilon + ds.eta))
    terms = (d2, d1 / si, poly / (si**2 * (1.0 - si) ** 2) * radial[2:-2])
    residual = np.abs(terms[0] + terms[1] + terms[2])
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    live = np.abs(radial[2:-2]) > 1e-6 * np.max(np.abs(radial))
    return float(np.max(residual[live] / scale[live]))
