"""Screened-Coulomb ring model: parameters, effective potential, spectrum.

A charged particle moves in a plane with a conical defect (deficit
parameter alpha), threaded by a flux line (xi, in flux quanta) and an
exponentially screened magnetic field, and bound by the screened Coulomb
well -v1 * exp(-delta*r)/r. After the Greene-Aldrich replacement
1/r**2 -> delta**2/(1 - exp(-delta*r))**2 the radial problem is solvable
in closed form; this module carries both the closed-form spectrum and an
independent bisection oracle on the quantization condition so the two can
be checked against each other.

Default units: hbar = mass = 1, with charge and light speed fixed at 1, so
omega_c equals the field strength b_field and one flux quantum is 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import DomainError, bisect


class NoBoundStateError(RuntimeError):
    """Requested state does not exist; carries the rejection reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters.

    mass        -- effective mass (> 0)
    hbar        -- action quantum (> 0)
    delta       -- screening constant, 1/length (> 0)
    v1          -- screened-Coulomb coupling, energy*length (>= 0)
    b_field     -- magnetic field strength (>= 0); omega_c = b_field/mass
    xi          -- flux through the ring in flux quanta (real; sign = orientation)
    alpha       -- conical deficit parameter (> 0; < 1 means a deficit angle,
                   > 1 accepted as a surplus)
    """

    mass: float = 1.0
    hbar: float = 1.0
    delta: float = 0.1
    v1: float = 1.0
    b_field: float = 0.0
    xi: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        # a chained comparison is False on NaN, so each bound also refuses NaN and inf
        inf = math.inf
        if not (0 < self.mass < inf and 0 < self.hbar < inf):
            raise DomainError("mass and hbar must be finite and > 0")
        if not 0 < self.delta < inf:
            raise DomainError("screening delta must be finite and > 0")
        if not 0 <= self.v1 < inf:
            raise DomainError("coupling v1 must be finite and >= 0")
        if not 0 <= self.b_field < inf:
            raise DomainError("b_field must be finite and >= 0")
        if not 0 < self.alpha < inf:
            raise DomainError("deficit parameter alpha must be finite and > 0")
        if not -inf < self.xi < inf:
            raise DomainError("flux xi must be finite")

    @property
    def omega_c(self) -> float:
        """Cyclotron frequency B/mass (charge and light speed are 1)."""
        return self.b_field / self.mass

    @property
    def flux_quantum(self) -> float:
        """One flux quantum, 2*pi*hbar (charge and light speed are 1)."""
        return 2.0 * math.pi * self.hbar

    def with_flux(self, phi_ab: float) -> "ModelParams":
        """Copy with xi set from a raw flux value phi_ab."""
        return replace(self, xi=phi_ab / self.flux_quantum)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index n >= 0 and integer angular momentum label m."""

    n: int
    m: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("radial index n must be >= 0")


@dataclass(frozen=True)
class DimensionlessSet:
    """Dimensionless constants of the reduced radial problem at energy ratio
    epsilon = -2*mass*E/(hbar*delta)**2.

    beta0 -- well-strength ratio   2*mass*v1/(hbar**2*delta)
    beta1 -- field-angular cross coupling
    beta2 -- field-strength ratio  (mass*omega_c/(hbar*delta))**2
    eta   -- angular barrier constant (m/alpha + xi)**2 - 1/4
    lam   -- large-r decay exponent sqrt(epsilon + eta)   (NaN if complex)
    nu    -- small-r exponent 1/2 + sqrt(1/4 + beta1 + beta2 + eta) (NaN if complex)
    """

    epsilon: float
    beta0: float
    beta1: float
    beta2: float
    eta: float
    lam: float
    nu: float

    @property
    def is_normalizable(self) -> bool:
        return math.isfinite(self.lam) and math.isfinite(self.nu)


@dataclass(frozen=True)
class BoundStateReport:
    """Outcome of the closed-form spectrum for one (params, n, m)."""

    exists: bool
    reason: str = ""
    energy: float = math.nan
    epsilon: float = math.nan
    dimensionless: DimensionlessSet | None = None


def _square(x):
    """x**2 as Python's float ** (libm pow) rounds it, inf where that pow overflows,
    also elementwise on arrays: pow differs from x*x (numpy's x**2) in the last bit
    for about 0.08% of operands. A scalar comes back as a numpy float, so dividing
    by an underflowed square gives inf rather than raising."""
    if isinstance(x, np.ndarray):
        distinct, rows = np.unique(x, return_inverse=True)
        return np.array([_square(v) for v in distinct.tolist()], dtype=float)[rows]
    try:
        return np.float64(float(x) ** 2)
    except OverflowError:
        return np.float64(math.inf)


def _angular_number(m, alpha, xi):
    """m/alpha + xi, the angular number of the barrier constant eta = (m/alpha + xi)**2 - 1/4."""
    return m / alpha + xi


def coupling_constants(params: ModelParams, qn: QuantumNumbers):
    """(beta0, beta1, beta2, eta) for the reduced radial equation; fields may be arrays."""
    mass, hbar, delta = params.mass, params.hbar, params.delta
    wc, alpha, xi, m = params.b_field / mass, params.alpha, params.xi, qn.m
    beta0 = 2.0 * mass * params.v1 / (hbar * hbar * delta)
    beta1 = (2.0 * mass * wc / (hbar * delta)) * (m / _square(alpha) + xi / alpha)
    beta2 = _square(mass * wc / (hbar * delta))
    eta = _square(_angular_number(m, alpha, xi)) - 0.25
    return beta0, beta1, beta2, eta


def dimensionless(params: ModelParams, qn: QuantumNumbers, epsilon: float) -> DimensionlessSet:
    """Dimensionless constants evaluated at the given energy ratio.

    Complex exponents (epsilon + eta < 0 or 1/4 + beta1 + beta2 + eta < 0)
    flag a non-normalizable state by NaN in lam/nu rather than raising.
    """
    beta0, beta1, beta2, eta = coupling_constants(params, qn)
    lam_sq = epsilon + eta
    nu_disc = 0.25 + beta1 + beta2 + eta
    lam = math.sqrt(lam_sq) if lam_sq >= 0.0 else math.nan
    nu = 0.5 + math.sqrt(nu_disc) if nu_disc >= 0.0 else math.nan
    return DimensionlessSet(epsilon, beta0, beta1, beta2, eta, lam, nu)


def energy_from_epsilon(params: ModelParams, epsilon: float) -> float:
    return -_square(params.hbar * params.delta) * epsilon / (2.0 * params.mass)


def effective_potential(params: ModelParams, qn: QuantumNumbers, r):
    """Effective radial potential (exact form, before any approximation).

    Four terms: the screened Coulomb well, the field-angular cross term,
    the screened-field quadratic term, and the angular/centrifugal barrier
    hbar**2/(2*mass) * eta / r**2, with the spectrum's eta.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("effective_potential requires r > 0")
    mass, hbar, delta = params.mass, params.hbar, params.delta
    wc, alpha, xi, m = params.omega_c, params.alpha, params.xi, qn.m
    em = np.exp(-delta * r)
    one_minus = -np.expm1(-delta * r)
    yukawa = -params.v1 * em / r
    cross = hbar * wc * (m / alpha**2 + xi / alpha) * em / (one_minus * r)
    quad = 0.5 * mass * wc * wc * em * em / one_minus**2
    eta = _square(_angular_number(m, alpha, xi)) - 0.25
    barrier = (hbar * hbar / (2.0 * mass)) * eta / r**2
    out = yukawa + cross + quad + barrier
    return float(out) if out.ndim == 0 else out


def greene_aldrich_ratio(delta: float, r):
    """Approximation-to-exact ratio of the 1/r**2 replacement.

    Returns [delta**2/(1-exp(-delta r))**2] / (1/r**2); 1 means exact. Only
    close to 1 for delta*r << 1 -- the replacement is a small-screening tool.
    """
    if delta <= 0.0:
        raise DomainError("delta must be > 0")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be > 0")
    x = delta * r
    out = (x / (-np.expm1(-x))) ** 2
    return float(out) if out.ndim == 0 else out


# indexed by closed_form's code
UNBOUND_REASONS = ("", "small-r exponent complex (angular/field couplings too negative)",
                   "state not bound by the screened well (decay exponent <= 0)",
                   "energy not negative (epsilon <= 0)",
                   "closed form not finite in double precision (overflow or underflow)")


@np.errstate(all="ignore")   # an overflowing row gets code 4, not a RuntimeWarning
def closed_form(params: ModelParams, qn: QuantumNumbers):
    """(reason code, energy, DimensionlessSet) of one state, or of one per row when
    the fields of params and qn are arrays: solves (lam + nu) - sqrt(epsilon+beta0+beta2)
    = -n for epsilon. Code 0 is a bound state; another indexes UNBOUND_REASONS."""
    beta0, beta1, beta2, eta = coupling_constants(params, qn)
    nu_disc = 0.25 + beta1 + beta2 + eta
    root = np.sqrt(np.maximum(nu_disc, 0.0))   # rows with nu_disc < 0 get code 1
    big_n = qn.n + 0.5 + root
    lam = (beta0 + beta2 - eta - big_n * big_n) / (2.0 * big_n)
    epsilon = lam * lam - eta
    energy = energy_from_epsilon(params, epsilon)
    code = np.select([nu_disc < 0.0, lam <= 0.0, epsilon <= 0.0, ~np.isfinite(energy)],
                     [1, 2, 3, 4], 0)
    ds = DimensionlessSet(epsilon, beta0, beta1, beta2, eta, lam, 0.5 + root)
    return code, energy, ds


def energy_closed_form(params: ModelParams, qn: QuantumNumbers) -> BoundStateReport:
    """`closed_form` of one state (n, m); non-existence is reported, never raised."""
    # numpy scalars divide by an underflowed zero to inf (code 4) where floats would raise
    code, energy, ds = closed_form(ModelParams(*map(np.float64, vars(params).values())), qn)
    if code:
        return BoundStateReport(False, UNBOUND_REASONS[code])
    ds = DimensionlessSet(*map(float, vars(ds).values()))
    return BoundStateReport(True, "", float(energy), ds.epsilon, ds)


def quantization_residual(ds: DimensionlessSet, n: int) -> float:
    """Residual (lam + nu) - sqrt(epsilon + beta0 + beta2) + n at ds.epsilon.

    Zero at a bound state; strictly increasing in epsilon on its domain.
    """
    if not ds.is_normalizable:
        raise DomainError("epsilon outside the real-exponent region")
    return (ds.lam + ds.nu) - math.sqrt(ds.epsilon + ds.beta0 + ds.beta2) + n


def quantization_root_bisection(params: ModelParams, qn: QuantumNumbers,
                                rtol: float = 1e-13) -> float | None:
    """Independent oracle: bisect the quantization condition for epsilon.

    Does not use the closed form. The residual is monotone in epsilon and
    tends to n + nu > 0, so the upper bracket edge is grown geometrically
    from beta0 + beta2 until it changes sign. Returns None when no root
    exists (no bound state).
    """
    beta0, _, beta2, eta = coupling_constants(params, qn)

    def residual(eps: float) -> float:
        return quantization_residual(dimensionless(params, qn, eps), qn.n)

    lo = max(0.0, -eta) + 1e-12 * max(1.0, abs(eta))
    if not dimensionless(params, qn, lo).is_normalizable or residual(lo) >= 0.0:
        return None
    hi = max(1.0, beta0 + beta2)
    for _ in range(200):
        if residual(hi) > 0.0:
            break
        hi *= 2.0
    else:
        return None
    return bisect(residual, lo, hi, tol=1e-14, rtol=rtol)
