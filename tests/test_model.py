import math
from types import SimpleNamespace

import numpy as np
import pytest

from abring import model
from abring.numerics import DomainError


def make_params(**kw):
    base = dict(mass=1.0, hbar=1.0, delta=1.0, v1=1.0, b_field=0.0, xi=0.0, alpha=1.0)
    base.update(kw)
    return model.ModelParams(**base)


class TestDimensionless:
    def test_zero_field_couplings(self):
        ds = model.dimensionless(make_params(), model.QuantumNumbers(0, 0), 1.0)
        assert ds.beta0 == 2.0
        assert ds.beta1 == 0.0
        assert ds.beta2 == 0.0

    def test_zero_angular_barrier(self):
        for alpha in (0.3, 1.0, 2.5):
            ds = model.dimensionless(make_params(alpha=alpha), model.QuantumNumbers(0, 0), 1.0)
            assert ds.eta == -0.25

    def test_hand_checked_couplings(self):
        # m=1, xi=1, alpha=1/2, omega_c=1: beta1 = 2(1/0.25 + 1/0.5) = 12,
        # eta = (2+1)^2 - 1/4 = 8.75
        params = make_params(b_field=1.0, xi=1.0, alpha=0.5)
        ds = model.dimensionless(params, model.QuantumNumbers(0, 1), 1.0)
        assert abs(ds.beta1 - 12.0) < 1e-14
        assert abs(ds.eta - 8.75) < 1e-14

    def test_complex_exponents_flagged_not_raised(self):
        ds = model.dimensionless(make_params(), model.QuantumNumbers(0, 0), -0.5)
        assert math.isnan(ds.lam)
        assert not ds.is_normalizable


class TestEffectivePotential:
    def test_hand_value(self):
        # zero field and flux: only the screened well and the -1/(8 r^2) barrier
        params = make_params()
        value = model.effective_potential(params, model.QuantumNumbers(0, 0), 1.0)
        assert abs(value - (-math.exp(-1.0) - 0.125)) < 1e-14

    def test_vanishes_at_large_r(self):
        # exponential terms die quickly; the angular barrier decays as 1/r^2
        params = make_params(b_field=2.0, xi=0.5, alpha=0.7, delta=0.5)
        qn = model.QuantumNumbers(0, 1)
        tail = [abs(model.effective_potential(params, qn, r)) for r in (50.0, 200.0, 1e6)]
        assert tail[0] > tail[1] > tail[2]
        assert tail[2] < 1e-8

    def test_field_changes_the_curve(self):
        r = np.linspace(0.2, 20.0, 64)
        qn = model.QuantumNumbers(0, 0)
        curves = [model.effective_potential(make_params(delta=0.1, b_field=b), qn, r)
                  for b in (1.0, 2.0, 4.0)]
        assert not np.allclose(curves[0], curves[1])
        assert not np.allclose(curves[1], curves[2])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            model.effective_potential(make_params(), model.QuantumNumbers(0, 0), 0.0)

    def test_barrier_is_the_spectrum_eta(self):
        # without well and field only the barrier hbar^2 eta / (2 M r^2) is left
        example = make_params(v1=0.0, alpha=0.5, xi=0.3)
        assert model.effective_potential(example, model.QuantumNumbers(0, 1), 1.0) * 2.0 \
            == pytest.approx(5.04, rel=1e-12)
        rng = np.random.default_rng(22)
        r = np.linspace(0.05, 30.0, 9)
        for _ in range(20):
            mass, hbar, delta, alpha = rng.uniform(0.2, 3.0, 4).tolist()
            params = make_params(mass=mass, hbar=hbar, delta=delta, v1=0.0,
                                 xi=rng.uniform(-2.0, 2.0), alpha=alpha)
            qn = model.QuantumNumbers(0, int(rng.integers(-3, 4)))
            eta = model.coupling_constants(params, qn)[3]
            scaled = model.effective_potential(params, qn, r) * 2.0 * mass * r**2 / hbar**2
            assert np.allclose(scaled, eta, rtol=1e-12, atol=1e-12)


class TestGreeneAldrichRatio:
    def test_small_screening_limit(self):
        assert abs(model.greene_aldrich_ratio(1e-8, 1.0) - 1.0) < 1e-6

    def test_reference_values(self):
        assert abs(model.greene_aldrich_ratio(0.01, 1.0) - 1.01004) < 5e-6
        # delta*r ~ 1: replacement off by 2.5x, far outside its validity range
        assert abs(model.greene_aldrich_ratio(0.1, 10.0) - 2.5027) < 1e-4

    def test_monotone_in_delta_r(self):
        x = np.linspace(0.01, 5.0, 200)
        ratio = model.greene_aldrich_ratio(1.0, x)
        assert np.all(np.diff(ratio) > 0)
        assert ratio[0] > 1.0


class TestClosedFormSpectrum:
    def test_unscreened_limit_ground_state(self):
        params = make_params(delta=1e-4)
        rep = model.energy_closed_form(params, model.QuantumNumbers(0, 0))
        assert rep.exists
        assert abs(rep.energy / -2.0 - 1.0) < 1e-3

    def test_unscreened_limit_scaling_with_delta(self):
        # the deviation from the unscreened spectrum shrinks ~linearly in delta
        qn = model.QuantumNumbers(1, 0)
        target = -1.0 / (2.0 * 1.5**2)
        errs = [abs(model.energy_closed_form(make_params(delta=d), qn).energy / target - 1.0)
                for d in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        assert 5.0 < errs[1] / errs[2] < 20.0

    def test_flux_angular_degeneracy_without_defect(self):
        # at alpha=1 the spectrum depends on m and xi only through m+xi
        params_a = make_params(delta=0.1, v1=5.0, b_field=1.0, xi=0.0)
        params_b = make_params(delta=0.1, v1=5.0, b_field=1.0, xi=1.0)
        for n in (0, 1):
            e_a = model.energy_closed_form(params_a, model.QuantumNumbers(n, 1)).energy
            e_b = model.energy_closed_form(params_b, model.QuantumNumbers(n, 0)).energy
            assert e_a == e_b

    def test_transfer_between_m_and_xi(self):
        params = make_params(delta=0.1, v1=8.0, b_field=0.5, xi=2.0)
        shifted = make_params(delta=0.1, v1=8.0, b_field=0.5, xi=0.0)
        e_a = model.energy_closed_form(params, model.QuantumNumbers(0, -1)).energy
        e_b = model.energy_closed_form(shifted, model.QuantumNumbers(0, 1)).energy
        assert e_a == e_b

    def test_nonexistence_is_reported_not_raised(self):
        # strong field, weak well: magnetic zero-point unbinds the state
        rep = model.energy_closed_form(make_params(delta=0.1, v1=1.0, b_field=4.0),
                                       model.QuantumNumbers(0, 0))
        assert not rep.exists
        assert rep.reason
        assert math.isnan(rep.energy)

    def test_complex_small_r_exponent_reported(self):
        # anti-aligned flux on a sharp defect can push the small-r exponent
        # complex: (w+g)^2 + h^2 - g^2 < 0 with g = xi/alpha, h = xi at m=0
        params = make_params(delta=0.1, v1=20.0, b_field=0.1, xi=-1.0, alpha=0.5)
        rep = model.energy_closed_form(params, model.QuantumNumbers(0, 0))
        assert not rep.exists
        assert "complex" in rep.reason

    def test_positive_energy_solution_rejected(self):
        # weak well against an angular barrier: the quantization root lands
        # at epsilon <= 0, i.e. no negative-energy state
        params = make_params(delta=0.1, v1=0.2, b_field=0.0)
        rep = model.energy_closed_form(params, model.QuantumNumbers(0, 1))
        assert not rep.exists
        assert "negative" in rep.reason

    def test_energy_epsilon_round_trip(self):
        params = make_params(delta=0.1, v1=20.0, b_field=1.0)
        rep = model.energy_closed_form(params, model.QuantumNumbers(0, 0))
        assert model.energy_from_epsilon(params, rep.epsilon) == rep.energy


    def test_columns_match_the_scalar_wrapper_bit_for_bit(self):
        # every operand distinct, so a square taken as x*x instead of Python's
        # pow (they differ in about 0.08% of operands) would show
        rng = np.random.default_rng(8)
        size = 5000
        rows = SimpleNamespace(
            mass=rng.uniform(0.5, 2.0, size), hbar=rng.uniform(0.5, 2.0, size),
            delta=rng.uniform(0.02, 0.5, size), v1=rng.uniform(0.5, 40.0, size),
            b_field=rng.uniform(0.0, 3.0, size), xi=rng.uniform(-1.5, 1.5, size),
            alpha=rng.uniform(0.2, 1.5, size), n=rng.integers(0, 4, size),
            m=rng.integers(-2, 3, size))
        code, energy, ds = model.closed_form(rows, rows)
        fields = ("mass", "hbar", "delta", "v1", "b_field", "xi", "alpha")
        for i in range(size):
            params = model.ModelParams(**{k: float(getattr(rows, k)[i]) for k in fields})
            rep = model.energy_closed_form(params, model.QuantumNumbers(int(rows.n[i]),
                                                                        int(rows.m[i])))
            assert rep.reason == model.UNBOUND_REASONS[code[i]]
            if rep.exists:
                assert (rep.energy, rep.epsilon, rep.dimensionless.lam, rep.dimensionless.nu) \
                    == (energy[i], ds.epsilon[i], ds.lam[i], ds.nu[i])
        assert set(code.tolist()) == {0, 1, 2, 3}


class TestQuantizationCondition:
    def test_residual_vanishes_at_closed_form(self):
        params = make_params(delta=0.1, v1=20.0, b_field=1.0, xi=0.2)
        for n in (0, 1, 2):
            rep = model.energy_closed_form(params, model.QuantumNumbers(n, 1))
            assert rep.exists
            assert abs(model.quantization_residual(rep.dimensionless, n)) < 1e-10

    def test_residual_changes_sign_around_root(self):
        params = make_params(delta=0.1, v1=20.0, b_field=1.0)
        qn = model.QuantumNumbers(0, 0)
        rep = model.energy_closed_form(params, qn)
        below = model.dimensionless(params, qn, rep.epsilon * 0.9)
        above = model.dimensionless(params, qn, rep.epsilon * 1.1)
        assert model.quantization_residual(below, 0) < 0
        assert model.quantization_residual(above, 0) > 0

    def test_residual_shifts_by_one_with_n(self):
        params = make_params(delta=0.1, v1=20.0, b_field=1.0)
        ds = model.dimensionless(params, model.QuantumNumbers(0, 0), 5.0)
        r0 = model.quantization_residual(ds, 0)
        r1 = model.quantization_residual(ds, 1)
        assert abs((r1 - r0) - 1.0) < 1e-14

    def test_bisection_oracle_matches_closed_form(self):
        rng = np.random.default_rng(1234)
        found = 0
        while found < 12:
            params = make_params(delta=float(rng.uniform(0.02, 0.5)),
                                 v1=float(rng.uniform(1.0, 40.0)),
                                 b_field=float(rng.uniform(0.0, 3.0)),
                                 xi=float(rng.uniform(0.0, 1.0)),
                                 alpha=float(rng.uniform(0.3, 1.5)))
            qn = model.QuantumNumbers(int(rng.integers(0, 3)), int(rng.integers(-2, 3)))
            rep = model.energy_closed_form(params, qn)
            if not rep.exists:
                continue
            found += 1
            eps = model.quantization_root_bisection(params, qn)
            assert eps is not None
            assert abs(eps - rep.epsilon) / rep.epsilon < 1e-10

    def test_oracle_agrees_about_nonexistence(self):
        params = make_params(delta=0.1, v1=1.0, b_field=4.0)
        qn = model.QuantumNumbers(0, 0)
        assert not model.energy_closed_form(params, qn).exists
        assert model.quantization_root_bisection(params, qn) is None


class TestParamValidation:
    @pytest.mark.parametrize("bad", [dict(mass=0.0), dict(delta=-0.1), dict(v1=-1.0),
                                     dict(alpha=0.0), dict(b_field=-1.0)])
    def test_rejects_invalid_params(self, bad):
        with pytest.raises(DomainError):
            make_params(**bad)

    def test_rejects_nonfinite_params(self):
        fields = ("mass", "hbar", "delta", "v1", "b_field", "xi", "alpha")
        for name in fields:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    make_params(**{name: value})
        with pytest.raises(DomainError):
            make_params().with_flux(math.inf)

    def test_rejects_negative_radial_index(self):
        with pytest.raises(DomainError):
            model.QuantumNumbers(-1, 0)

    def test_flux_quantum_in_natural_units(self):
        assert abs(make_params().flux_quantum - 2.0 * math.pi) < 1e-15
        assert abs(make_params().with_flux(2.0 * math.pi).xi - 1.0) < 1e-15
