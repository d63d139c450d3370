"""Independent reference for the screened-Coulomb ring benchmark.

Nothing here imports abring. The coupling constants are written out again
from the model's defining formulas, the energy comes from a vectorised
bisection on the quantization condition (never from its closed-form
solution), the radial function uses scipy's Gauss function 2F1 (spot-checked
against mpmath), the position entropy uses Gauss-Legendre panels, and the
momentum wavefunction comes from a zero-padded numpy FFT with an
Euler-Maclaurin endpoint correction and an analytic power-law tail.

Units follow the program: charge = light speed = 1, so the cyclotron
frequency is b_field/mass and one flux quantum is 2*pi*hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import special

ENTROPY_TOL = 2e-4       # |S_prog - S_ref| allowed, nats
REF_CONVERGED = 1e-6     # the reference's own refinement change must stay below this
K_BODY = 100.0           # kept momentum window, in units of delta*(lam + nu + n + 1)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class State:
    """One (params, n, m) point in the program's input conventions."""

    delta: float
    v1: float
    b_field: float = 0.0
    xi: float = 0.0
    alpha: float = 1.0
    n: int = 0
    m: int = 0
    mass: float = 1.0
    hbar: float = 1.0

    @classmethod
    def with_phi(cls, phi_ab: float, **kw) -> "State":
        hbar = kw.get("hbar", 1.0)
        return cls(xi=phi_ab / (2.0 * math.pi * hbar), **kw)


def couplings(delta, v1, b_field, xi, alpha, m, mass=1.0, hbar=1.0):
    """(beta0, beta1, beta2, eta) of the reduced radial equation; arrays welcome."""
    wc = np.asarray(b_field, dtype=float) / mass
    beta0 = 2.0 * mass * np.asarray(v1, dtype=float) / (hbar * hbar * delta)
    beta1 = 2.0 * mass * wc / (hbar * delta) * (m / alpha**2 + xi / alpha)
    beta2 = (mass * wc / (hbar * delta)) ** 2
    eta = (m / alpha + xi) ** 2 - 0.25
    return beta0, beta1, beta2, eta


def solve_epsilon(beta0, beta1, beta2, eta, n):
    """Energy ratio epsilon from (lam + nu) - sqrt(eps + beta0 + beta2) + n = 0.

    lam = sqrt(eps + eta), nu = 1/2 + sqrt(1/4 + beta1 + beta2 + eta). The
    left side rises monotonically in eps towards n + nu > 0, so a root exists
    iff it is negative at eps_lo = max(0, -eta). Vectorised bisection, then
    the bracket midpoint. Returns (epsilon, nu) with NaN where there is no
    bound state.
    """
    with np.errstate(invalid="ignore"):   # NaN marks rows without a root
        beta0, beta1, beta2, eta, n = np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in (beta0, beta1, beta2, eta, n)))
        disc = 0.25 + beta1 + beta2 + eta
        nu = np.where(disc >= 0.0, 0.5 + np.sqrt(np.maximum(disc, 0.0)), np.nan)
        top = beta0 + beta2

        def g(eps):
            return np.sqrt(eps + eta) + nu + n - np.sqrt(eps + top)

        lo = np.maximum(0.0, -eta)
        exists = g(lo) < 0.0
        lo = np.where(exists, lo, 0.0)
        hi = np.where(exists, np.maximum(1.0, top), 1.0)
        for _ in range(200):
            grow = exists & (g(hi) <= 0.0)
            if not grow.any():
                break
            hi = np.where(grow, hi * 2.0, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = g(mid) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all((hi - lo) <= 4e-16 * hi):
                break
        return np.where(exists, 0.5 * (lo + hi), np.nan), nu


@dataclass(frozen=True)
class Spectrum:
    exists: bool
    energy: float = math.nan
    epsilon: float = math.nan
    lam: float = math.nan
    nu: float = math.nan
    a: float = math.nan        # second 2F1 parameter lam + nu + sqrt(eps + beta0 + beta2)


def spectrum(st: State) -> Spectrum:
    b0, b1, b2, eta = couplings(st.delta, st.v1, st.b_field, st.xi, st.alpha, st.m,
                                st.mass, st.hbar)
    eps, nu = solve_epsilon(b0, b1, b2, eta, st.n)
    eps, nu = float(eps), float(nu)
    if not math.isfinite(eps):
        return Spectrum(False)
    lam = math.sqrt(eps + float(eta))
    energy = -((st.hbar * st.delta) ** 2) * eps / (2.0 * st.mass)
    return Spectrum(True, energy, eps, lam, nu, lam + nu + math.sqrt(eps + float(b0 + b2)))


def effective_potential(st: State, r):
    """Four-term effective radial potential (Yukawa well, field-angular cross
    term, screened-field quadratic term, angular barrier)."""
    r = np.asarray(r, dtype=float)
    wc = st.b_field / st.mass
    em = np.exp(-st.delta * r)
    um = -np.expm1(-st.delta * r)
    ang = st.m / st.alpha**2 + st.xi / st.alpha
    terms = (-st.v1 * em / r,
             st.hbar * wc * ang * em / (um * r),
             0.5 * st.mass * wc * wc * em * em / um**2,
             st.hbar**2 / (2.0 * st.mass) * ((st.m / st.alpha**2 + st.xi) ** 2 - 0.25) / r**2)
    return sum(terms), sum(np.abs(t) for t in terms)


def envelope(st: State, sp: Spectrum, r):
    """r^-1/2 s^lam (1-s)^nu with s = e^{-delta r}, written as
    e^{-delta lam r} ((1-s)/r)^1/2 (1-s)^(nu-1/2) so r = 0 takes its limit."""
    r = np.asarray(r, dtype=float)
    x = st.delta * r
    u = -np.expm1(-x)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_over_r = np.where(r > 0.0, u / np.where(r > 0.0, r, 1.0), st.delta)
    return np.exp(-x * sp.lam) * np.sqrt(u_over_r) * u ** (sp.nu - 0.5)


def series(st: State, sp: Spectrum, s):
    """2F1(-n, a; 2 lam + 1; s) from scipy."""
    return special.hyp2f1(-st.n, sp.a, 2.0 * sp.lam + 1.0, s)


def radial_function(st: State, sp: Spectrum, r):
    """Unnormalised psi(r) = r^-1/2 s^lam (1-s)^nu 2F1(-n, a; 2 lam + 1; s)."""
    return series(st, sp, np.exp(-st.delta * np.asarray(r, dtype=float))) * envelope(st, sp, r)


def check_series_against_mpmath(st: State, sp: Spectrum, r_max: float, points: int = 6) -> float:
    """Largest envelope-weighted gap between scipy's and mpmath's 2F1 on (0, r_max]."""
    r = np.linspace(r_max / points, r_max, points)
    s = np.exp(-st.delta * r)
    with mpmath.workdps(40):
        slow = np.array([float(mpmath.hyp2f1(-st.n, sp.a, 2 * sp.lam + 1, mpmath.mpf(v)))
                         for v in s])
    env = envelope(st, sp, r)
    return float(np.max(np.abs(series(st, sp, s) - slow) * env) / np.max(np.abs(slow) * env))


def position_extent(psi, r_max: float) -> float:
    """Grow r_max from a first guess until |psi|^2 at the edge is 1e-20 of its peak.

    The guess is the large-r decay estimate; the loop matters for excited
    states whose outer lobe sits beyond it.
    """
    for _ in range(60):
        rho = psi(np.linspace(0.0, r_max, 4001)) ** 2
        if np.all(rho[-40:] <= 1e-20 * rho.max()):
            return r_max
        r_max *= 1.5
    raise RuntimeError("reference: no finite extent found")


def _gl_nodes(r_max: float, panels: int):
    edges = np.linspace(0.0, r_max, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half * _GL_X).ravel(), np.tile(_GL_W * half, panels)


def _neg_rho_log_rho(rho):
    out = np.zeros_like(rho)
    live = rho > 0.0
    out[live] = -rho[live] * np.log(rho[live])
    return out


def position_entropy(psi, r_max: float, panels: int) -> tuple[float, float]:
    """(S_r, norm) with rho = psi^2 / norm, Gauss-Legendre panels on [0, r_max]."""
    r, w = _gl_nodes(r_max, panels)
    psi2 = psi(r) ** 2
    norm = float(psi2 @ w)
    return float(_neg_rho_log_rho(psi2 / norm) @ w), norm


def momentum_density(psi, r_max: float, n_r: int, norm: float, pad: int = 4):
    """(k, rho_k) on |k| <= pi/(16 h) from a trapezoid FFT of psi on [0, r_max].

    psi~(k) = (2 pi)^-1/2 int_0^inf psi(r) e^{-ikr} dr. The trapezoid sum
    carries the Euler-Maclaurin h^2/12 f'(0) correction, f = psi e^{-ikr},
    which removes the leading error of the jump at r = 0; the next term,
    (kh)^4/720, is below 3e-6 on the kept window.
    """
    h = r_max / (n_r - 1)
    values = psi(np.arange(n_r) * h)
    samples = values.copy()
    samples[0] *= 0.5
    size = pad * n_r
    spec = np.fft.fftshift(np.fft.fft(samples, size)) * h
    k = np.fft.fftshift(np.fft.fftfreq(size, d=h)) * 2.0 * math.pi
    dpsi0 = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    spec += h * h / 12.0 * (dpsi0 - 1j * k * values[0])
    keep = np.abs(k) <= math.pi / (16.0 * h)
    return k[keep], np.abs(spec[keep]) ** 2 / (2.0 * math.pi * norm)


def _trapezoid(k, values) -> float:
    return float((values.sum() - 0.5 * (values[0] + values[-1])) * (k[1] - k[0]))


def momentum_entropy(psi, tail_power: float, r_max: float, n_r: int, norm: float) -> float:
    """S_k: trapezoid over the window plus the |k|^-p tails beyond it.

    A psi that behaves as r^(nu - 1/2) at the origin has rho_k falling as
    C |k|^-p, p = 2 nu + 1. Parseval fixes the total mass at 1, so the mass
    missing from the window sets C, and the tails' entropy
    int C k^-p (p ln k - ln C) dk follows in closed form.
    """
    k, rho = momentum_density(psi, r_max, n_r, norm)
    s_k = _trapezoid(k, _neg_rho_log_rho(rho))
    missing = 1.0 - _trapezoid(k, rho)
    if missing > 1e-13:
        p, log_k0 = tail_power, math.log(k[-1])
        log_c = math.log(0.5 * missing * (p - 1.0)) + (p - 1.0) * log_k0    # per side
        s_k += missing * (p * log_k0 + p / (p - 1.0) - log_c)
    return s_k


def fft_points(r_max: float, k_need: float) -> int:
    """Samples (a power of two, at least 2^13) so the kept window reaches k_need."""
    n = 8192
    while math.pi * (n - 1) / (16.0 * r_max) < k_need and n < 2**22:
        n *= 2
    return n


@dataclass(frozen=True)
class EntropyRef:
    s_r: float
    s_k: float
    change_r: float        # |S_r| change over the last refinement
    change_k: float        # |S_k| change over the last refinement


def converged_entropies(psi, r_max: float, k_need: float, tail_power: float,
                        panels: int = 64) -> EntropyRef:
    """S_r and S_k of psi on the half line, refined until they stop moving.

    Position side: Gauss-Legendre panels doubled until S_r changes < 1e-9,
    then the extent raised by half again as a check. Momentum side: FFT
    sample count doubled once and the two results compared.
    """
    s_r, _ = position_entropy(psi, r_max, panels)
    while True:
        panels *= 2
        s_r2, norm = position_entropy(psi, r_max, panels)
        if abs(s_r2 - s_r) < 1e-9 or panels > 1 << 16:
            break
        s_r = s_r2
    s_r_wide, _ = position_entropy(psi, 1.5 * r_max, int(1.5 * panels))
    change_r = max(abs(s_r2 - s_r), abs(s_r_wide - s_r2))
    n_r = fft_points(r_max, k_need)
    s_k = momentum_entropy(psi, tail_power, r_max, n_r, norm)
    s_k2 = momentum_entropy(psi, tail_power, r_max, 2 * n_r - 1, norm)
    return EntropyRef(s_r2, s_k2, change_r, abs(s_k2 - s_k))


class BoundState:
    """The model's radial function for one state, with its reference extent."""

    def __init__(self, st: State, sp: Spectrum | None = None):
        self.st = st
        self.sp = sp or spectrum(st)
        if not self.sp.exists:
            raise ValueError(f"reference: no bound state for {st}")
        if 0.0 < self.sp.nu - 0.5 < 1.0:
            raise ValueError("reference: 0 < nu - 1/2 < 1 needs a graded grid, not supported")
        lam = self.sp.lam
        self.r_max = position_extent(self.psi, (math.log1p(self.sp.nu / lam) + 25.0)
                                     / (st.delta * lam))

    def psi(self, r):
        return radial_function(self.st, self.sp, r)

    def density(self, r):
        """Normalised position density psi^2 / int_0^inf psi^2 dr at r."""
        _, norm = position_entropy(self.psi, self.r_max, 512)
        return self.psi(r) ** 2 / norm

    def entropies(self) -> EntropyRef:
        st, sp = self.st, self.sp
        return converged_entropies(self.psi, self.r_max,
                                   K_BODY * st.delta * (sp.lam + sp.nu + st.n + 1.0),
                                   2.0 * sp.nu + 1.0, 64 + 8 * st.n)

    def mass_outside(self, k_window: float) -> float:
        """Share of the momentum density outside [-k_window, k_window]."""
        _, norm = position_entropy(self.psi, self.r_max, 256)
        k, rho = momentum_density(self.psi, self.r_max, fft_points(self.r_max, k_window), norm)
        inside = np.abs(k) <= k_window
        return max(0.0, 1.0 - _trapezoid(k[inside], rho[inside]))
