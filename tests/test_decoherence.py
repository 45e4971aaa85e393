"""Tests for the relaxation/dephasing rate budget and flux transfer functions."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from thermoq import decoherence
from thermoq.constants import TWO_PI, hbar, k_B
from thermoq.errors import (DomainError, InconsistencyError, SingularityError,
                            UnphysicalSlopeError)

from test_cavity import make_params

OMEGA_Q0 = TWO_PI * 6.92e9

# frozen 50-digit evaluations
GAMMA1_PURCELL_REF = TWO_PI * 52.811765e3
GAMMA_MIX_REF = TWO_PI * 14.267015e3
GAMMA1_SIDEBAND_REF = TWO_PI * 5.7670155e3
S_DELTA_REF = 2.6114315e-28
D1_QUARTER_OVER_WQ0 = -1.3208770003
DEPHASING_1ST_REF = 35.996923          # 1/s at lambda*=1/4, T=0.1 K
DEPHASING_2ND_15K = 44129.261          # 1/s at T=1.5 K
DEPHASING_2ND_50MK = 1.6344171         # 1/s at T=0.05 K
RESIDUAL_REF = TWO_PI * 3.0356882e6
VACUUM_DISPERSIVE_REF = TWO_PI * 3.9443118e6
BROADBAND_SLOPE_REF = TWO_PI * 88.623529e3


def make_geometry(**overrides):
    values = dict(M_a=1.3e-12, L_loop=50e-12, L_a=1e-9, Z0=50.0)
    values.update(overrides)
    return decoherence.CouplingGeometry(**values)


def mp_qubit_frequency(lam, omega_q0):
    """50-digit evaluation of omega_q0 * sqrt(|cos(pi lam)|)."""
    with mp.workdps(50):
        return mp.mpf(omega_q0) * mp.sqrt(abs(mp.cos(mp.pi * mp.mpf(lam))))


class TestQubitFrequency:
    def test_sweet_spot(self):
        assert decoherence.qubit_frequency(0.0, OMEGA_Q0) == OMEGA_Q0

    def test_node(self):
        # cos(pi/2) leaves a ~1e-17 float residue; the node is zero to ~1e-8 relative
        assert decoherence.qubit_frequency(0.5, OMEGA_Q0) < 1e-8 * OMEGA_Q0

    def test_third(self):
        # cos(pi/3) = 1/2
        assert decoherence.qubit_frequency(1 / 3, OMEGA_Q0) == pytest.approx(
            OMEGA_Q0 / math.sqrt(2), rel=1e-12
        )


class TestTransferFunctions:
    def test_sweet_spot(self):
        d1, d2 = decoherence.transfer_functions(0.0, OMEGA_Q0)
        assert d1 == 0.0
        assert d2 == pytest.approx(-math.pi**2 * OMEGA_Q0 / 2, rel=1e-12)
        assert d2 < 0

    def test_quarter_point(self):
        d1, _ = decoherence.transfer_functions(0.25, OMEGA_Q0)
        assert d1 / OMEGA_Q0 == pytest.approx(-1.3210, rel=1e-4)
        assert d1 / OMEGA_Q0 == pytest.approx(D1_QUARTER_OVER_WQ0, rel=1e-9)

    def test_parity(self):
        for lam in (0.1, 0.25, 0.4):
            d1p, d2p = decoherence.transfer_functions(lam, OMEGA_Q0)
            d1m, d2m = decoherence.transfer_functions(-lam, OMEGA_Q0)
            assert d1m == -d1p
            assert d2m == d2p

    def test_singularity_at_half(self):
        for lam in (0.5, -0.5, 0.7):
            with pytest.raises(SingularityError):
                decoherence.transfer_functions(lam, OMEGA_Q0)

    def test_matches_finite_differences(self):
        # central differences of the frequency formula, evaluated at 50
        # digits so the h = 1e-6 truncation error is the only error
        h = mp.mpf("1e-6")
        for lam in np.linspace(-0.45, 0.45, 19):
            d1, d2 = decoherence.transfer_functions(float(lam), OMEGA_Q0)
            with mp.workdps(50):
                lam_mp = mp.mpf(float(lam))
                fp = mp_qubit_frequency(lam_mp + h, OMEGA_Q0)
                fm = mp_qubit_frequency(lam_mp - h, OMEGA_Q0)
                f0 = mp_qubit_frequency(lam_mp, OMEGA_Q0)
                fd1 = (fp - fm) / (2 * h)
                fd2 = (fp - 2 * f0 + fm) / h**2
            if abs(fd1) > 0:
                assert abs(d1 - float(fd1)) / abs(float(fd1)) < 1e-6
            else:
                assert d1 == 0.0
            assert abs(d2 - float(fd2)) / abs(float(fd2)) < 1e-6


class TestComponentRates:
    def test_reference_values(self):
        params = make_params()
        rates = decoherence.component_rates(params, S_DELTA_REF)
        assert rates.gamma1_purcell == pytest.approx(TWO_PI * 53e3, rel=2e-2)
        assert rates.gamma1_purcell == pytest.approx(GAMMA1_PURCELL_REF, rel=1e-7)
        assert rates.gamma_mix == pytest.approx(TWO_PI * 14.3e3, rel=1e-2)
        assert rates.gamma_mix == pytest.approx(GAMMA_MIX_REF, rel=1e-7)
        assert rates.gamma1_sideband == pytest.approx(TWO_PI * 5.8e3, rel=5e-2)
        assert rates.gamma1_sideband == pytest.approx(GAMMA1_SIDEBAND_REF, rel=1e-7)
        assert all(r >= 0 for r in rates)


class TestGamma1AntennaModel:
    def test_vacuum_baseline_exact(self):
        g10 = TWO_PI * 3.9e6
        g1a = TWO_PI * 820e3
        assert decoherence.gamma1_antenna_model(0.0, g10, g1a) == g10

    def test_slope_and_one_photon(self):
        g10 = TWO_PI * 3.9e6
        g1a = TWO_PI * 820e3
        slope = decoherence.gamma1_antenna_model(1.0, g10, g1a) - decoherence.gamma1_antenna_model(0.0, g10, g1a)
        assert slope == pytest.approx(TWO_PI * 1.64e6, rel=1e-12)
        assert decoherence.gamma1_antenna_model(1.0, g10, g1a) == pytest.approx(
            TWO_PI * 5.54e6, rel=1e-12
        )

    def test_matches_tilde_form(self):
        g10, g1a, n = TWO_PI * 3.9e6, TWO_PI * 820e3, 0.37
        tilde = (g10 - g1a) + g1a * (2 * n + 1)
        assert decoherence.gamma1_antenna_model(n, g10, g1a) == pytest.approx(tilde, rel=1e-14)

    def test_inconsistent_rates(self):
        with pytest.raises(InconsistencyError):
            decoherence.gamma1_antenna_model(0.0, TWO_PI * 500e3, TWO_PI * 820e3)

    def test_nan_photon_number_is_refused(self):
        with pytest.raises(DomainError, match="n_a must be >= 0, got nan"):
            decoherence.gamma1_antenna_model(math.nan, TWO_PI * 3.9e6, TWO_PI * 820e3)


class TestGamma1DispersiveModel:
    def rates(self):
        return decoherence.component_rates(make_params(), S_DELTA_REF)

    def test_vacuum_value(self):
        g = decoherence.gamma1_dispersive_model(0.0, 0.0, self.rates(), TWO_PI * 3.9e6)
        assert g == pytest.approx(VACUUM_DISPERSIVE_REF, rel=1e-6)
        assert g == pytest.approx(TWO_PI * 3.944e6, rel=1e-3)

    def test_coherent_drive_slope(self):
        rates = self.rates()
        g10 = TWO_PI * 3.9e6
        slope = decoherence.gamma1_dispersive_model(1.0, 0.0, rates, g10) - \
            decoherence.gamma1_dispersive_model(0.0, 0.0, rates, g10)
        assert slope == pytest.approx(-TWO_PI * 17e3, rel=2e-2)

    def test_broadband_slope(self):
        rates = self.rates()
        g10 = TWO_PI * 3.9e6
        slope = decoherence.gamma1_dispersive_model(1.0, 1.0, rates, g10) - \
            decoherence.gamma1_dispersive_model(0.0, 0.0, rates, g10)
        assert slope == pytest.approx(BROADBAND_SLOPE_REF, rel=1e-6)
        assert slope > 0

    def test_affine_in_each_photon_number(self):
        rates = self.rates()
        g10 = TWO_PI * 3.9e6
        for f in (
            lambda n: decoherence.gamma1_dispersive_model(n, 0.3, rates, g10),
            lambda n: decoherence.gamma1_dispersive_model(0.3, n, rates, g10),
        ):
            d1 = f(1.0) - f(0.0)
            d2 = f(2.0) - f(1.0)
            assert d1 == pytest.approx(d2, rel=1e-9)

    @pytest.mark.parametrize("n_r, n_q, name", [(math.nan, 0.0, "n_r"), (0.0, math.nan, "n_q"),
                                                (-1.0, 0.0, "n_r"), (0.0, -1.0, "n_q")])
    def test_bad_photon_number_is_named(self, n_r, n_q, name):
        with pytest.raises(DomainError, match=f"^{name} must be >= 0, got {n_r + n_q}$"):
            decoherence.gamma1_dispersive_model(n_r, n_q, self.rates(), TWO_PI * 3.9e6)


class TestDeltaGamma1Res:
    def test_zero_and_linearity(self):
        rates = decoherence.component_rates(make_params(), S_DELTA_REF)
        assert decoherence.delta_gamma1_res(0.0, rates) == 0.0
        v2 = decoherence.delta_gamma1_res(2.0, rates)
        v1 = decoherence.delta_gamma1_res(1.0, rates)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
        assert v1 == pytest.approx(-TWO_PI * 17e3, rel=2e-2)

    def test_nan_photon_number_is_refused(self):
        rates = decoherence.component_rates(make_params(), S_DELTA_REF)
        with pytest.raises(DomainError, match="n_r must be >= 0, got nan"):
            decoherence.delta_gamma1_res(math.nan, rates)


class TestInvertSidebandPsd:
    def test_reference_inversion(self):
        chi = make_params().chi
        delta = make_params().delta
        gamma_sb, s_delta = decoherence.invert_sideband_psd(
            -TWO_PI * 17e3, GAMMA_MIX_REF, chi, delta
        )
        assert gamma_sb == pytest.approx(TWO_PI * 5.8e3, rel=5e-2)
        assert s_delta == pytest.approx(2.6e-28, rel=5e-2)
        assert s_delta == pytest.approx(S_DELTA_REF, rel=1e-6)

    def test_boundary_slope(self):
        chi = make_params().chi
        gamma_sb, s_delta = decoherence.invert_sideband_psd(
            -2 * GAMMA_MIX_REF, GAMMA_MIX_REF, chi, TWO_PI * 850e6
        )
        assert gamma_sb == 0.0
        assert s_delta == 0.0

    def test_unphysical_slope(self):
        chi = make_params().chi
        with pytest.raises(UnphysicalSlopeError):
            decoherence.invert_sideband_psd(
                -2.5 * GAMMA_MIX_REF, GAMMA_MIX_REF, chi, TWO_PI * 850e6
            )

    def test_round_trip_with_component_rates(self):
        params = make_params()
        rates = decoherence.component_rates(params, S_DELTA_REF)
        slope = 2 * (rates.gamma1_sideband - rates.gamma_mix)
        gamma_sb, s_delta = decoherence.invert_sideband_psd(
            slope, rates.gamma_mix, params.chi, params.delta
        )
        assert gamma_sb == pytest.approx(rates.gamma1_sideband, rel=1e-12)
        assert s_delta == pytest.approx(S_DELTA_REF, rel=1e-12)


class TestDephasingFirstOrder:
    def test_sweet_spot_and_zero_temperature(self):
        geom = make_geometry()
        assert decoherence.dephasing_first_order(0.7, 0.0, geom, OMEGA_Q0) == 0.0
        assert decoherence.dephasing_first_order(0.0, 0.25, geom, OMEGA_Q0) == 0.0

    def test_reference_point(self):
        geom = make_geometry()
        rate = decoherence.dephasing_first_order(0.1, 0.25, geom, OMEGA_Q0)
        assert rate == pytest.approx(36.0, rel=2e-2)
        assert rate == pytest.approx(DEPHASING_1ST_REF, rel=1e-6)

    def test_dissipation_parameter(self):
        geom = make_geometry()
        alpha = decoherence.first_order_dissipation_param(0.25, geom, OMEGA_Q0)
        assert alpha == pytest.approx(4.3760109e-10, rel=1e-6)
        # cross-check: rate = alpha * 2pi k_B T / hbar
        rate = decoherence.dephasing_first_order(0.1, 0.25, geom, OMEGA_Q0)
        assert rate == pytest.approx(alpha * TWO_PI * k_B * 0.1 / hbar, rel=1e-12)

    def test_nan_temperature_is_refused(self):
        with pytest.raises(DomainError, match="T_a must be >= 0: no rate at temperature nan K"):
            decoherence.dephasing_first_order(math.nan, 0.25, make_geometry(), OMEGA_Q0)


class TestDephasingSecondOrder:
    def test_cubic_scaling(self):
        geom = make_geometry()
        for T in (0.05, 0.3, 0.75):
            r1 = decoherence.dephasing_second_order(T, geom)
            r2 = decoherence.dephasing_second_order(2 * T, geom)
            assert r2 / r1 == pytest.approx(8.0, rel=1e-12)

    def test_reference_values(self):
        geom = make_geometry()
        r = decoherence.dephasing_second_order(1.5, geom)
        assert r == pytest.approx(4.41e4, rel=1e-2)
        assert r == pytest.approx(DEPHASING_2ND_15K, rel=1e-6)
        assert r / TWO_PI == pytest.approx(7.02e3, rel=1e-2)
        assert decoherence.dephasing_second_order(0.05, geom) == pytest.approx(
            DEPHASING_2ND_50MK, rel=1e-6
        )

    def test_nan_temperature_is_refused_by_the_guard(self):
        with pytest.raises(DomainError, match="T_a must be >= 0: no rate at temperature nan K"):
            decoherence.dephasing_second_order(math.nan, make_geometry())

    @pytest.mark.parametrize("T", [1e100, 1e300, math.nan])
    def test_non_finite_rate_names_the_temperature(self, T):
        # (k_B T / hbar)^3 overflows (a bare OverflowError for a float) or is nan
        with pytest.raises(DomainError, match=re.escape(f"at temperature {T} K")):
            decoherence.dephasing_second_order(T, make_geometry())

    @pytest.mark.parametrize("T", [1e100, 1e200, math.nan])
    def test_routes_share_their_domain(self, T):
        # the composed route once returned 1.3e304 at 1e100 K and raised a
        # bare OverflowError at 1e200 K
        geom = make_geometry()
        for route in (lambda: decoherence.dephasing_second_order(T, geom),
                      lambda: decoherence.dephasing_second_order_transfer(T, geom, OMEGA_Q0)):
            with pytest.raises(DomainError, match=re.escape(f"at temperature {T} K")):
                route()

    def test_transfer_route_agrees(self):
        geom = make_geometry()
        for T in np.linspace(0.05, 1.5, 20):
            direct = decoherence.dephasing_second_order(float(T), geom)
            composed = decoherence.dephasing_second_order_transfer(float(T), geom, OMEGA_Q0)
            assert abs(direct - composed) / direct < 1e-12

    def test_suppression_factor(self):
        r = decoherence.suppression_factor(1.5, OMEGA_Q0)
        assert r == pytest.approx((k_B * 1.5 / (hbar * OMEGA_Q0)) ** 2, rel=1e-12)


class TestCouplingGeometry:
    def test_mutual_inductance_bound(self):
        with pytest.raises(InconsistencyError):
            make_geometry(M_a=1e-9, L_loop=50e-12, L_a=1e-12)

    def test_positive(self):
        with pytest.raises(Exception):
            make_geometry(Z0=0.0)


class TestRateBudget:
    def test_reference_budget(self):
        params = make_params()
        geom = make_geometry()
        budget = decoherence.rate_budget(
            params, geom, S_DELTA_REF, 1.5,
            gamma_phi_photon_shot=TWO_PI * 3.9e6,
        )
        assert budget.gamma_phi_0 == pytest.approx(TWO_PI * 150e3, rel=1e-12)
        assert budget.gamma1_residual == pytest.approx(TWO_PI * 3e6, rel=2e-2)
        assert budget.gamma1_residual == pytest.approx(RESIDUAL_REF, rel=1e-6)
        assert budget.gamma_phi_photon_shot == TWO_PI * 3.9e6
        assert budget.gamma_phi_2nd_antenna == pytest.approx(DEPHASING_2ND_15K, rel=1e-6)
        assert budget.gamma1_total == params.gamma1_0
        assert budget.warnings == ()
        assert budget.gamma1_residual == pytest.approx(
            budget.gamma1_0 - budget.gamma1_antenna - budget.gamma1_purcell
            - budget.gamma1_sideband + budget.gamma_mix,
            rel=1e-12,
        )

    def test_negative_residual_warns_in_budget(self):
        params = make_params(gamma1_antenna=TWO_PI * 3.88e6)
        geom = make_geometry()
        budget = decoherence.rate_budget(params, geom, S_DELTA_REF, 0.05)
        assert budget.gamma1_residual < 0
        assert any("residual" in w for w in budget.warnings)
