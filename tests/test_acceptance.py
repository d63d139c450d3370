"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7a-7c encode
reference monotonicity directions that this model family provably mirrors
(see the trend notes in the README); they are kept as stated and fail with
the measured sequences in the message.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from abring import entropy, model, spectral, wavefunction
from abring.specfun import hyp2f1

TOL_PRINT = "ACCEPTANCE {num} {status}: {detail}"


def report(num, ok, detail):
    print(TOL_PRINT.format(num=num, status="PASS" if ok else "FAIL", detail=detail))
    return ok


def rows_at(sweep_rows, phi_ab=None, **match):
    """Rows whose params and qn fields equal match; phi_ab is matched as the xi it sets."""
    picked = []
    for params, qn, rep in sweep_rows:
        fields = {**vars(params), **vars(qn)}
        if all(fields[k] == v for k, v in match.items()) and (
                phi_ab is None or params == params.with_flux(phi_ab)):
            picked.append((params, qn, rep))
    return picked


def test_criterion_1_uncertainty_bound_over_sweeps(table1_sweep, table2_sweep):
    rows1, elapsed1 = table1_sweep
    rows2, elapsed2 = table2_sweep
    assert len(rows1) == 15 and len(rows2) == 9  # the reference sweep shapes
    margins = [rep.margin for *_x, rep in rows1 + rows2 if rep is not None]
    bound_count = len(margins)
    worst = min(margins)
    elapsed = elapsed1 + elapsed2
    ok = worst >= -1e-3 and elapsed < 60.0
    assert report(1, ok, f"S_r+S_k >= 2.14473-1e-3 on {bound_count} bound sweep states, "
                         f"worst margin {worst:+.5f}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_gaussian_saturation():
    start = time.perf_counter()
    r = np.linspace(1e-5, 16.0, 4097)
    psi = wavefunction.SampledFunction(
        r, math.pi**-0.25 * np.exp(-((r - 8.0) ** 2) / 2.0), "position")
    psi, _ = wavefunction.normalize(psi)
    s_r = entropy.shannon_position(wavefunction.probability_density(psi))
    out = spectral.fourier_transform(psi, spectral.MomentumGrid(8.0, 2049))
    rho_k = wavefunction.probability_density(out)
    mass = float(np.real(rho_k.values @ rho_k.weights))
    rho_k = wavefunction.SampledFunction(rho_k.x, rho_k.values / mass, "momentum")
    s_k = entropy.shannon_momentum(rho_k)
    elapsed = time.perf_counter() - start
    target = 1.07236
    ok = (abs(s_r - target) <= 1e-3 and abs(s_k - target) <= 1e-3
          and abs(s_r + s_k - 2.14473) <= 2e-3 and elapsed < 1.0)
    assert report(2, ok, f"Gaussian gives S_r={s_r:.5f}, S_k={s_k:.5f}, "
                         f"sum={s_r + s_k:.5f} (minimizer saturates the bound), "
                         f"{elapsed:.2f}s (< 1s)")


def test_criterion_3_unscreened_limit_spectrum():
    params = model.ModelParams(delta=1e-4, v1=1.0, b_field=0.0, xi=0.0, alpha=1.0)
    worst = 0.0
    for n in (0, 1):
        for m in (0, 1):
            rep = model.energy_closed_form(params, model.QuantumNumbers(n, m))
            target = -1.0 / (2.0 * (n + abs(m) + 0.5) ** 2)
            worst = max(worst, abs(rep.energy / target - 1.0))
    ok = worst < 1e-3
    assert report(3, ok, f"delta->0 spectrum matches -1/(2(n+|m|+1/2)^2) "
                         f"within {worst:.2e} (tol 1e-3)")


def test_criterion_4_quantization_oracle_randomized():
    rng = np.random.default_rng(20240808)
    found, worst = 0, 0.0
    while found < 20:
        params = model.ModelParams(
            delta=float(rng.uniform(0.02, 0.5)), v1=float(rng.uniform(1.0, 40.0)),
            b_field=float(rng.uniform(0.0, 3.0)), xi=float(rng.uniform(-1.0, 1.0)),
            alpha=float(rng.uniform(0.3, 1.5)))
        qn = model.QuantumNumbers(int(rng.integers(0, 4)), int(rng.integers(-2, 3)))
        rep = model.energy_closed_form(params, qn)
        if not rep.exists:
            continue
        found += 1
        eps = model.quantization_root_bisection(params, qn)
        worst = max(worst, abs(eps - rep.epsilon) / rep.epsilon)
    ok = worst <= 1e-10
    assert report(4, ok, f"bisection on the quantization condition recovers the "
                         f"closed-form energy ratio on {found} random points, "
                         f"worst relative gap {worst:.2e} (tol 1e-10)")


def test_criterion_5_reduced_equation_residual():
    states = [(0, 0, 1.0, 1.0), (0, 0, 2.0, 1.0), (0, 0, 4.0, 1.0),
              (0, 0, 1.0, 2.0), (0, 0, 1.0, 4.0), (1, 0, 1.0, 1.0), (1, 1, 1.0, 1.0)]
    worst = 0.0
    for n, m, b_field, phi in states:
        params = model.ModelParams(delta=0.1, v1=20.0, b_field=b_field).with_flux(phi)
        worst = max(worst, wavefunction.transformed_equation_residual(
            params, model.QuantumNumbers(n, m)))
    ok = worst <= 1e-6
    assert report(5, ok, f"reduced radial equation residual over {len(states)} "
                         f"states at N=4096: worst {worst:.2e} (tol 1e-6)")


def test_criterion_6_normalization_and_parseval(table1_sweep, table2_sweep):
    rows = table1_sweep[0] + table2_sweep[0]
    worst_r = max(rep.norm_residual_r for *_x, rep in rows if rep is not None)
    worst_k = max(rep.norm_residual_k for *_x, rep in rows if rep is not None)
    ok = worst_r <= 1e-8 and worst_k <= 1e-4
    assert report(6, ok, f"position mass off by <= {worst_r:.1e} (tol 1e-8), "
                         f"momentum mass off by <= {worst_k:.1e} (tol 1e-4) "
                         f"across all bound sweep states")


def _series(rows, field):
    return [getattr(rep, field) for *_x, rep in rows]


def _strictly_decreasing(seq):
    return all(a > b for a, b in zip(seq, seq[1:]))


def _strictly_increasing(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))


def test_criterion_7a_position_entropy_decreasing_in_field(table1_sweep):
    rows = [rows_at(table1_sweep[0], n=0, m=0, b_field=b, phi_ab=1.0)[0]
            for b in (1.0, 2.0, 4.0)]
    s_r = _series(rows, "s_r")
    ok = _strictly_decreasing(s_r)
    assert report("7a", ok, f"S_r along B=1,2,4 at (n,m)=(0,0), phi=1: "
                            f"{s_r[0]:.5f}, {s_r[1]:.5f}, {s_r[2]:.5f} "
                            f"(expected strictly decreasing)")


def test_criterion_7b_position_entropy_decreasing_in_flux(table1_sweep):
    rows = [rows_at(table1_sweep[0], n=0, m=0, b_field=1.0, phi_ab=phi)[0]
            for phi in (1.0, 2.0, 4.0)]
    s_r = _series(rows, "s_r")
    ok = _strictly_decreasing(s_r)
    assert report("7b", ok, f"S_r along phi=1,2,4 at (n,m)=(0,0), B=1: "
                            f"{s_r[0]:.5f}, {s_r[1]:.5f}, {s_r[2]:.5f} "
                            f"(expected strictly decreasing)")


def test_criterion_7c_position_entropy_increasing_in_deficit(table2_sweep):
    rows = [rows_at(table2_sweep[0], n=0, m=0, alpha=a)[0] for a in (0.1, 0.2, 0.4)]
    s_r = _series(rows, "s_r")
    ok = _strictly_increasing(s_r)
    assert report("7c", ok, f"S_r along alpha=0.1,0.2,0.4 at (n,m)=(0,0): "
                            f"{s_r[0]:.5f}, {s_r[1]:.5f}, {s_r[2]:.5f} "
                            f"(expected strictly increasing)")


def test_criterion_7d_momentum_entropy_opposes_position(table1_sweep, table2_sweep):
    axes = {
        "B": [rows_at(table1_sweep[0], n=0, m=0, b_field=b, phi_ab=1.0)[0]
              for b in (1.0, 2.0, 4.0)],
        "phi": [rows_at(table1_sweep[0], n=0, m=0, b_field=1.0, phi_ab=phi)[0]
                for phi in (1.0, 2.0, 4.0)],
        "alpha": [rows_at(table2_sweep[0], n=0, m=0, alpha=a)[0]
                  for a in (0.1, 0.2, 0.4)],
    }
    opposed = {}
    for name, rows in axes.items():
        s_r, s_k = _series(rows, "s_r"), _series(rows, "s_k")
        opposed[name] = all(
            (a2 - a1) * (b2 - b1) < 0
            for (a1, a2), (b1, b2) in zip(zip(s_r, s_r[1:]), zip(s_k, s_k[1:])))
    ok = all(opposed.values())
    assert report("7d", ok, f"S_k moves opposite to S_r along every axis: {opposed}")


def test_criterion_8_hypergeometric_identities():
    worst = 0.0
    for s in np.arange(0.1, 0.95, 0.1):
        for b, c in ((1.7, 2.3), (3.0, 5.5), (0.8, 1.9)):
            worst = max(worst, abs(hyp2f1(0.0, b, c, s) - 1.0))
            exact = 1.0 - (b / c) * s
            worst = max(worst, abs(hyp2f1(-1.0, b, c, s) - exact) / abs(exact))
        for a in (-1.0, -2.0, -3.0):
            exact = (1.0 - s) ** (-a)
            worst = max(worst, abs(hyp2f1(a, 2.6, 2.6, s) - exact) / abs(exact))
    ok = worst <= 1e-12
    assert report(8, ok, f"series identities hold to {worst:.2e} relative (tol 1e-12)")


def test_criterion_9_node_counts():
    params = model.ModelParams(delta=0.1, v1=20.0, b_field=1.0).with_flux(1.0)
    counts = [wavefunction.count_radial_nodes(
        wavefunction.radial_eigenfunction(params, model.QuantumNumbers(n, 0)))
        for n in range(4)]
    ok = counts == [0, 1, 2, 3]
    assert report(9, ok, f"interior sign changes for n=0..3: {counts}")


def test_criterion_10_cli_determinism(fixtures_dir, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "abring", "entropy",
             "--config", str(fixtures_dir / "table1.ini"), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    ok = out_a.read_bytes() == out_b.read_bytes()
    assert report(10, ok, "two runs over fixtures/table1.ini are byte-identical")
