"""Tests for thermal and second-order noise spectral densities."""

import math

import numpy as np
import pytest

from thermoq import spectra
from thermoq.constants import TWO_PI, hbar, k_B
from thermoq.errors import DomainError

# High-precision reference values, frozen from a 50-digit evaluation of the
# closed forms with the exact CODATA constants.
BOSE_692GHZ_15K = 4.03504355836
THERMAL_607GHZ_15K = 2.07747870228e-23
DC_FIRST_50MK = 6.903245e-25
DC_SECOND_15K = 1.76403045116e-34


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert spectra.bose_occupation(TWO_PI * 6.07e9, 0.0) == 0.0

    def test_analytic_identity_at_unity_ratio(self):
        # hbar*omega = k_B*T  ->  n = 1/(e - 1)
        T = 0.3
        omega = k_B * T / hbar
        assert spectra.bose_occupation(omega, T) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-12
        )

    def test_reference_point(self):
        n = spectra.bose_occupation(TWO_PI * 6.92e9, 1.5)
        assert n == pytest.approx(4.035, abs=1e-3)
        assert n == pytest.approx(BOSE_692GHZ_15K, rel=1e-10)

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 6.07e9
        temps = [0.05, 0.1, 0.3, 0.7, 1.5, 4.0]
        occ = [spectra.bose_occupation(omega, T) for T in temps]
        assert all(b > a for a, b in zip(occ, occ[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            spectra.bose_occupation(0.0, 1.0)
        with pytest.raises(DomainError):
            spectra.bose_occupation(-1.0, 1.0)
        with pytest.raises(DomainError):
            spectra.bose_occupation(TWO_PI * 1e9, -0.1)

    def test_nan_temperature_is_refused(self):
        with pytest.raises(DomainError, match="temperature must be >= 0, got nan"):
            spectra.bose_occupation(TWO_PI * 6e9, math.nan)

    def test_high_temperature_expansion(self):
        # n -> k_B T/(hbar omega) - 1/2 as T -> inf; check at hbar*omega/k_B*T = 1e-4
        T = 1.0
        omega = 1e-4 * k_B * T / hbar
        n = spectra.bose_occupation(omega, T)
        approx = 1e4 - 0.5
        assert abs(n - approx) / n < 1e-3

    def test_deep_quantum_underflow_is_clean(self):
        # hbar*omega/k_B*T ~ 960: must underflow to 0.0, not raise
        assert spectra.bose_occupation(TWO_PI * 1e12, 0.05) == 0.0

    @pytest.mark.parametrize("T", [1e-310, 5e-324])
    def test_temperature_whose_k_b_t_underflows(self, T):
        # k_B*T is 0.0 in double precision: no division by zero
        assert k_B * T == 0.0
        assert spectra.bose_occupation(TWO_PI * 6.07e9, T) == 0.0


class TestThermalPsd:
    def test_vacuum_limit(self):
        omega = TWO_PI * 6.07e9
        assert spectra.thermal_psd(omega, 0.0) == hbar * omega / 2

    def test_quarter_of_short_circuit_density(self):
        for omega, T in [(TWO_PI * 6.07e9, 1.5), (TWO_PI * 1e6, 0.05), (TWO_PI * 5e9, 0.3)]:
            x = hbar * omega / (2 * k_B * T)
            s_sc = 2 * hbar * omega / math.tanh(x)
            assert spectra.thermal_psd(omega, T) == pytest.approx(s_sc / 4, rel=1e-12)

    def test_reference_point(self):
        s = spectra.thermal_psd(TWO_PI * 6.07e9, 1.5)
        assert s == pytest.approx(2.078e-23, rel=1e-3)
        assert s == pytest.approx(THERMAL_607GHZ_15K, rel=1e-10)

    def test_exponential_approach_to_vacuum(self):
        # at hbar*omega/k_B*T = 50 the thermal excess is ~e^-50 of the vacuum term
        T = 0.05
        omega = 50 * k_B * T / hbar
        excess = spectra.thermal_psd(omega, T) - hbar * omega / 2
        assert 0 <= excess < 1e-20 * (hbar * omega / 2)


class TestSecondOrderPsd:
    def test_zero_temperature_limit(self):
        omega = TWO_PI * 8.5e8
        expected = hbar**2 * omega**3 / (12 * math.pi)
        assert spectra.second_order_psd(omega, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_dc_limit_reference(self):
        s = spectra.second_order_psd(TWO_PI * 1.0, 1.5)
        dc = spectra.dc_limits(1.5)[1]
        assert s == pytest.approx(1.764e-34, rel=1e-3)
        assert abs(s - dc) / dc < 1e-8

    def test_dc_convergence(self):
        # hbar*omega/k_B*T = 1e-6: within 1e-5 relative of the dc value
        T = 0.7
        omega = 1e-6 * k_B * T / hbar
        s = spectra.second_order_psd(omega, T)
        dc = spectra.dc_limits(T)[1]
        assert abs(s - dc) / dc < 1e-5

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 6.07e9
        assert spectra.second_order_psd(omega, 1.5) > spectra.second_order_psd(omega, 0.05)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            spectra.second_order_psd(0.0, 1.0)


class TestDcLimits:
    def test_zero_temperature(self):
        assert spectra.dc_limits(0.0) == (0.0, 0.0)

    def test_first_order(self):
        first, _ = spectra.dc_limits(0.05)
        assert first == pytest.approx(DC_FIRST_50MK, rel=1e-12)

    def test_second_order(self):
        _, second = spectra.dc_limits(1.5)
        assert second == pytest.approx(DC_SECOND_15K, rel=1e-10)

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            spectra.dc_limits(-0.1)

    def test_nan_temperature_rejected(self):
        with pytest.raises(DomainError, match="temperature must be >= 0, got nan"):
            spectra.dc_limits(math.nan)


def test_everything_finite_over_working_range():
    omegas = TWO_PI * np.logspace(-4, 12, 33)
    temps = [0.0, 1e-3, 0.05, 0.3, 1.5, 10.0]
    for omega in omegas:
        for T in temps:
            for f in (spectra.bose_occupation, spectra.thermal_psd, spectra.second_order_psd):
                v = f(float(omega), T)
                assert math.isfinite(v), (f.__name__, omega, T)
            assert v >= 0
