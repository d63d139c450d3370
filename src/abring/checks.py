"""Built-in verification battery for `abring check`.

A fast, dependency-free subset of the package's acceptance properties:
each check prints one PASS/FAIL line; the battery returns a nonzero exit
code if anything fails. The full gate lives in the pytest suite.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import entropy, model, spectral, wavefunction
from .specfun import hyp2f1


def _gaussian_saturation() -> tuple[bool, str]:
    r = np.linspace(1e-5, 16.0, 4097)
    psi = wavefunction.SampledFunction(
        r, np.pi**-0.25 * np.exp(-((r - 8.0) ** 2) / 2.0), "position")
    rep = entropy.state_entropies(psi, spectral.MomentumGrid(8.0, 2049))
    target = 0.5 * (1.0 + math.log(math.pi))
    ok = abs(rep.s_r - target) < 1e-3 and abs(rep.s_k - target) < 1e-3 \
        and abs(rep.sum - entropy.BBM_BOUND) < 2e-3
    return ok, f"S_r={rep.s_r:.5f} S_k={rep.s_k:.5f} (Gaussian saturates at {target:.5f} each)"


def _coulomb_limit() -> tuple[bool, str]:
    params = model.ModelParams(delta=1e-4, v1=1.0, b_field=0.0, xi=0.0, alpha=1.0)
    worst = 0.0
    for n in (0, 1):
        for m in (0, 1):
            rep = model.energy_closed_form(params, model.QuantumNumbers(n, m))
            target = -1.0 / (2.0 * (n + abs(m) + 0.5) ** 2)
            worst = max(worst, abs(rep.energy / target - 1.0))
    return worst < 1e-3, f"worst relative deviation from the unscreened limit: {worst:.2e}"


def _quantization_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst, tried = 0.0, 0
    while tried < 8:
        params = model.ModelParams(
            delta=rng.uniform(0.02, 0.5), v1=rng.uniform(1.0, 40.0),
            b_field=rng.uniform(0.0, 3.0), xi=rng.uniform(0.0, 1.0),
            alpha=rng.uniform(0.3, 1.5))
        qn = model.QuantumNumbers(int(rng.integers(0, 3)), int(rng.integers(-2, 3)))
        rep = model.energy_closed_form(params, qn)
        if not rep.exists:
            continue
        tried += 1
        eps = model.quantization_root_bisection(params, qn)
        worst = max(worst, abs(eps - rep.epsilon) / rep.epsilon)
    return worst < 1e-10, f"closed form vs bisection, worst relative gap: {worst:.2e}"


def _hypergeometric_identities() -> tuple[bool, str]:
    worst = 0.0
    for s in np.arange(0.1, 0.95, 0.1):
        worst = max(worst, abs(hyp2f1(0.0, 1.7, 2.3, s) - 1.0))
        worst = max(worst, abs(hyp2f1(-1.0, 2.0, 4.0, s) - (1.0 - 0.5 * s)))
        exact = (1.0 - s) ** 3
        worst = max(worst, abs(hyp2f1(-3.0, 2.2, 2.2, s) - exact) / abs(exact))
    return worst < 1e-12, f"series identities, worst relative error: {worst:.2e}"


def _node_counts() -> tuple[bool, str]:
    params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0, alpha=1.0).with_flux(1.0)
    counts = []
    for n in range(4):
        psi = wavefunction.radial_eigenfunction(params, model.QuantumNumbers(n, 0), 2049)
        counts.append(wavefunction.count_radial_nodes(psi))
    return counts == [0, 1, 2, 3], f"interior sign changes for n=0..3: {counts}"


def _bbm_on_sweep() -> tuple[bool, str]:
    worst = math.inf
    for b_field in (1.0, 2.0, 4.0):
        p = model.ModelParams(delta=0.1, v1=20.0, b_field=b_field, alpha=1.0).with_flux(1.0)
        rep = entropy.entropy_pipeline(p, model.QuantumNumbers(0, 0), 2049, 2049)
        worst = min(worst, rep.margin)
    return worst >= -entropy.BBM_SLACK, f"smallest uncertainty-bound margin: {worst:+.5f}"


def run_battery() -> int:
    checks = [
        ("gaussian-saturation", _gaussian_saturation),
        ("coulomb-limit", _coulomb_limit),
        ("quantization-oracle", _quantization_oracle),
        ("hypergeometric-identities", _hypergeometric_identities),
        ("node-counts", _node_counts),
        ("uncertainty-bound", _bbm_on_sweep),
    ]
    failures = 0
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail} [{time.perf_counter() - start:.2f}s]")
    return 1 if failures else 0
