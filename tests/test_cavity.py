"""Tests for the dispersive qubit-resonator circuit model."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermoq import cavity, spectra
from thermoq.constants import TWO_PI
from thermoq.errors import DomainError, IllConditionedError, SingularityError

# Electrical parameters of the characterized sample (reference device).
G = TWO_PI * 67e6
E_C = TWO_PI * 315e6
DELTA = TWO_PI * 850e6
KAPPA_I = TWO_PI * 50e3
KAPPA_X = TWO_PI * 8.5e6
KAPPA_A = TWO_PI * 30e3
KAPPA_TOT = KAPPA_I + KAPPA_X + KAPPA_A

# frozen 50-digit evaluations of the closed forms
CHI_REFERENCE = -TWO_PI * 3.109477735e6
LORENTZIAN_PEAK = 3.7099054e-8
N_CRIT_REFERENCE = 40.237247


def make_params(**overrides):
    values = dict(
        omega_q0=TWO_PI * 6.92e9,
        E_c=E_C,
        omega_r=TWO_PI * 6.07e9,
        g=G,
        kappa_i=KAPPA_I,
        kappa_x=KAPPA_X,
        kappa_a=KAPPA_A,
        gamma1_0=TWO_PI * 3.9e6,
        gamma2_ramsey=TWO_PI * 2.1e6,
        gamma2_echo=TWO_PI * 1.9e6,
        gamma1_antenna=TWO_PI * 820e3,
        Z0=50.0,
        E_J0=20e9 * TWO_PI,
    )
    values.update(overrides)
    return cavity.CircuitParams(**values)


class TestCircuitParams:
    def test_derived_quantities(self):
        p = make_params()
        assert p.delta == pytest.approx(DELTA, rel=1e-12)
        assert p.kappa_tot == pytest.approx(KAPPA_TOT, rel=1e-12)
        assert p.chi == pytest.approx(CHI_REFERENCE, rel=1e-9)

    def test_dispersive_guard(self):
        with pytest.raises(Exception):
            make_params(g=TWO_PI * 200e6)  # g/delta = 0.235 > 0.2

    def test_ramsey_below_half_gamma1_warns_only(self):
        with pytest.warns(UserWarning):
            p = make_params(gamma2_ramsey=TWO_PI * 1.5e6)  # below gamma1_0/2 = 1.95 MHz
        assert p.gamma2_ramsey == TWO_PI * 1.5e6

    def test_positive_rates_enforced(self):
        with pytest.raises(Exception):
            make_params(kappa_x=0.0)


class TestDispersiveShift:
    def test_reference_device(self):
        chi = cavity.dispersive_shift(G, E_C, DELTA)
        assert chi == pytest.approx(-TWO_PI * 3.11e6, rel=5e-3)
        assert chi == pytest.approx(CHI_REFERENCE, rel=1e-9)
        assert chi < 0

    def test_vanishing_charging_energy(self):
        assert cavity.dispersive_shift(G, 0.0, DELTA) == 0.0

    def test_algebraic_simplification(self):
        chi = cavity.dispersive_shift(G, E_C, 2 * E_C)
        assert chi == pytest.approx(-G**2 / (2 * E_C), rel=1e-12)

    def test_singularities(self):
        with pytest.raises(SingularityError):
            cavity.dispersive_shift(G, E_C, E_C)
        with pytest.raises(SingularityError):
            cavity.dispersive_shift(G, E_C, 0.0)


class TestLorentzianFilter:
    def test_peak(self):
        omega_r = TWO_PI * 6.07e9
        peak = cavity.lorentzian_filter(omega_r, omega_r, KAPPA_TOT)
        assert peak == pytest.approx(2 / KAPPA_TOT, rel=1e-12)
        assert peak == pytest.approx(LORENTZIAN_PEAK, rel=1e-7)
        assert peak == pytest.approx(3.711e-8, rel=1e-3)

    def test_half_width_points(self):
        omega_r = TWO_PI * 6.07e9
        for sign in (+1, -1):
            v = cavity.lorentzian_filter(omega_r + sign * KAPPA_TOT / 2, omega_r, KAPPA_TOT)
            assert v == pytest.approx(1 / KAPPA_TOT, rel=1e-12)

    def test_integral_is_pi(self):
        omega_r = TWO_PI * 6.07e9
        lo = omega_r - 1e4 * KAPPA_TOT
        hi = omega_r + 1e4 * KAPPA_TOT
        val, _ = quad(
            lambda w: cavity.lorentzian_filter(w, omega_r, KAPPA_TOT),
            lo, hi, points=[omega_r], limit=400,
        )
        assert val == pytest.approx(math.pi, rel=1e-3)


class TestSteadyStatePhotons:
    def test_nan_port_temperature_is_refused(self):
        with pytest.raises(DomainError, match="port temperature must be >= 0, got nan"):
            cavity.ThermalPort("readout", math.nan, KAPPA_X, 0.389)

    def test_single_port_is_attenuated_occupation(self):
        omega = TWO_PI * 6.07e9
        port = cavity.ThermalPort("readout", 1.5, KAPPA_X, 0.389)
        n = cavity.steady_state_photons([port], omega)
        assert n == 0.389 * spectra.bose_occupation(omega, 1.5)

    def test_equal_ports_give_common_value(self):
        omega = TWO_PI * 6.07e9
        T = 0.7
        n_th = spectra.bose_occupation(omega, T)
        ports = [
            cavity.ThermalPort("internal", T, KAPPA_I, 1.0),
            cavity.ThermalPort("readout", T, KAPPA_X, 1.0),
            cavity.ThermalPort("antenna", T, KAPPA_A, 1.0),
        ]
        assert cavity.steady_state_photons(ports, omega) == pytest.approx(n_th, rel=1e-12)

    def test_readout_port_weight(self):
        omega = TWO_PI * 6.07e9
        ports = [
            cavity.ThermalPort("internal", 0.0, KAPPA_I, 1.0),
            cavity.ThermalPort("readout", 1.5, KAPPA_X, 1.0),
            cavity.ThermalPort("antenna", 0.0, KAPPA_A, 1.0),
        ]
        n = cavity.steady_state_photons(ports, omega)
        n_x = spectra.bose_occupation(omega, 1.5)
        assert n / n_x == pytest.approx(0.9907, abs=2e-4)
        assert n / n_x == pytest.approx(KAPPA_X / KAPPA_TOT, rel=1e-12)

    def test_antenna_port_weight(self):
        omega = TWO_PI * 6.07e9
        ports = [
            cavity.ThermalPort("internal", 0.0, KAPPA_I, 1.0),
            cavity.ThermalPort("readout", 0.0, KAPPA_X, 1.0),
            cavity.ThermalPort("antenna", 1.5, KAPPA_A, 1.0),
        ]
        n = cavity.steady_state_photons(ports, omega)
        n_a = spectra.bose_occupation(omega, 1.5)
        assert n / n_a == pytest.approx(3.497e-3, rel=1e-3)

    def test_permutation_invariance(self):
        omega = TWO_PI * 6.07e9
        ports = [
            cavity.ThermalPort("internal", 0.3, KAPPA_I, 1.0),
            cavity.ThermalPort("readout", 1.1, KAPPA_X, 0.389),
            cavity.ThermalPort("antenna", 0.6, KAPPA_A, 0.8),
        ]
        values = {
            cavity.steady_state_photons([ports[i], ports[j], ports[k]], omega)
            for i, j, k in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
        }
        assert len(values) == 1

    def test_convex_bounds(self):
        omega = TWO_PI * 6.07e9
        ports = [
            cavity.ThermalPort("readout", 1.2, KAPPA_X, 0.389),
            cavity.ThermalPort("antenna", 0.4, KAPPA_A, 1.0),
        ]
        weighted = [p.attenuation * spectra.bose_occupation(omega, p.temperature) for p in ports]
        n = cavity.steady_state_photons(ports, omega)
        assert min(weighted) <= n <= max(weighted)

    def test_empty_ports(self):
        with pytest.raises(DomainError):
            cavity.steady_state_photons([], TWO_PI * 6.07e9)


class TestCriticalPhotonNumber:
    def test_reference_device(self):
        n = cavity.critical_photon_number(DELTA, G)
        assert n == pytest.approx(40, abs=1)
        assert n == pytest.approx(N_CRIT_REFERENCE, rel=1e-7)

    def test_simple_ratios(self):
        assert cavity.critical_photon_number(2.0, 1.0) == pytest.approx(1.0)
        assert cavity.critical_photon_number(4.0, 1.0) == pytest.approx(4.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            cavity.critical_photon_number(DELTA, 0.0)


class TestAcStarkShift:
    def test_zero_photons(self):
        chi = CHI_REFERENCE
        assert cavity.ac_stark_shift(0.0, 0.0, chi, (KAPPA_X, KAPPA_A, KAPPA_TOT), 0.389) == 0.0

    def test_per_photon_readout_slope(self):
        chi = cavity.dispersive_shift(G, E_C, DELTA)
        slope = cavity.ac_stark_shift(1.0, 0.0, chi, (KAPPA_X, KAPPA_A, KAPPA_TOT), 0.389)
        assert slope == pytest.approx(-TWO_PI * 2.397e6, rel=1e-3)

    def test_per_photon_antenna_slope(self):
        chi = cavity.dispersive_shift(G, E_C, DELTA)
        slope = cavity.ac_stark_shift(0.0, 1.0, chi, (KAPPA_X, KAPPA_A, KAPPA_TOT), 0.389)
        assert slope == pytest.approx(-TWO_PI * 8.46e3, rel=1e-3)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            cavity.ac_stark_shift(1.0, 0.0, CHI_REFERENCE, (KAPPA_X, KAPPA_A, KAPPA_TOT), 0.0)
        with pytest.raises(DomainError):
            cavity.ac_stark_shift(1.0, 0.0, CHI_REFERENCE, (KAPPA_X, KAPPA_A, KAPPA_TOT), 1.2)


def synthetic_sweep(params, alpha, temps, intercept=0.0, noise_sigma=0.0, rng=None):
    """Stark sweep generated from the model itself (readout port heated)."""
    points = []
    for T in temps:
        n = spectra.bose_occupation(params.omega_r, T)
        shift = cavity.ac_stark_shift(
            n, 0.0, params.chi, (params.kappa_x, params.kappa_a, params.kappa_tot), alpha
        ) + intercept
        if noise_sigma > 0:
            shift += noise_sigma * rng.standard_normal()
        points.append(cavity.StarkSweepPoint(temperature=float(T), delta_omega_q=float(shift)))
    return points


class TestCalibrateAttenuation:
    temps = np.linspace(0.05, 1.5, 15)

    def test_noiseless_round_trip(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, self.temps, intercept=TWO_PI * 1e5)
        res = cavity.calibrate_attenuation(sweep, "readout", params)
        assert res.parameters["alpha"] == pytest.approx(0.389, rel=1e-6)
        assert abs(res.parameters["alpha"] - 0.389) / 0.389 < 0.01

    def test_antenna_round_trip(self):
        params = make_params()
        alpha = 0.389
        points = []
        for T in self.temps:
            n = spectra.bose_occupation(params.omega_r, T)
            shift = 2 * params.chi * alpha * params.kappa_a * n / params.kappa_tot
            points.append(cavity.StarkSweepPoint(float(T), float(shift)))
        res = cavity.calibrate_attenuation(points, "antenna", params, alpha=alpha)
        assert res.parameters["kappa_a"] == pytest.approx(TWO_PI * 30e3, rel=1e-6)

    def test_antenna_requires_alpha(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, self.temps)
        with pytest.raises(DomainError):
            cavity.calibrate_attenuation(sweep, "antenna", params)

    def test_readout_refuses_a_given_alpha(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, self.temps)
        with pytest.raises(DomainError, match="alpha"):
            cavity.calibrate_attenuation(sweep, "readout", params, alpha=0.5)

    def test_too_few_points(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, [0.1, 0.5, 1.0])
        with pytest.raises(DomainError):
            cavity.calibrate_attenuation(sweep, "readout", params)

    def test_degenerate_sweep(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, [1.498, 1.5, 1.502, 1.504])
        with pytest.raises(IllConditionedError):
            cavity.calibrate_attenuation(sweep, "readout", params)

    def test_narrow_span(self):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, [1.1, 1.2, 1.35, 1.5])
        with pytest.raises(DomainError):
            cavity.calibrate_attenuation(sweep, "readout", params)

    def test_recovery_within_three_sigma_under_noise(self):
        params = make_params()
        n_vals = [spectra.bose_occupation(params.omega_r, T) for T in self.temps]
        master = np.random.SeedSequence(424242)
        hits = 0
        n_draws = 100
        for child in master.spawn(n_draws):
            rng = np.random.Generator(np.random.PCG64(child))
            alpha_true = rng.uniform(0.1, 1.0)
            full_scale = abs(
                cavity.ac_stark_shift(
                    max(n_vals), 0.0, params.chi,
                    (params.kappa_x, params.kappa_a, params.kappa_tot), alpha_true,
                )
            )
            sweep = synthetic_sweep(
                params, alpha_true, self.temps, noise_sigma=0.01 * full_scale, rng=rng
            )
            res = cavity.calibrate_attenuation(sweep, "readout", params)
            err = abs(res.parameters["alpha"] - alpha_true)
            if err <= 3 * res.stderr("alpha"):
                hits += 1
        assert hits >= 97

    def test_readout_is_the_least_squares_solution(self):
        params = make_params()
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        sweep = synthetic_sweep(params, 0.389, self.temps, intercept=TWO_PI * 1e5,
                                noise_sigma=TWO_PI * 2e4, rng=rng)
        n_th = np.array([spectra.bose_occupation(params.omega_r, p.temperature)
                         for p in sweep])
        design = np.stack([2 * params.chi * params.kappa_x * n_th / params.kappa_tot,
                           np.ones(n_th.size)], axis=1)
        (alpha, intercept), *_ = np.linalg.lstsq(
            design, [p.delta_omega_q for p in sweep], rcond=None)
        res = cavity.calibrate_attenuation(sweep, "readout", params)
        assert res.parameters["alpha"] == pytest.approx(alpha, rel=1e-12)
        assert res.parameters["intercept"] == pytest.approx(intercept, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.389, 1.5])
    def test_antenna_alpha_must_be_a_power_factor(self, alpha):
        params = make_params()
        sweep = synthetic_sweep(params, 0.389, self.temps)
        with pytest.raises(DomainError):
            cavity.calibrate_attenuation(sweep, "antenna", params, alpha=alpha)

