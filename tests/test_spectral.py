"""Tests for the fluctuation-spectrum estimator and its two model fits.

The estimator is checked against algebraic identities (Parseval, Fourier
basis localization, chi-squared statistics of white noise) and the fits
against zero-noise round trips on their own models plus closed-loop
recovery of injected parameters, so no external reference values are
needed.
"""

import math

import numpy as np
import pytest

from thermoq import spectral, tlssim
from thermoq.constants import TWO_PI, hbar
from thermoq.errors import DomainError
from thermoq.tlssim import TimeSeries

MEAN = TWO_PI * 3.9e6  # typical relaxation-rate level, rad/s


def white_series(n=1200, dt=10.0, sigma=TWO_PI * 215e3, seed=0):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return TimeSeries(0.0, dt, MEAN + sigma * rng.standard_normal(n), seed_used=seed)


def power_law_spectrum(amplitude, beta, floor, omega_lo=TWO_PI * 1e-5,
                       omega_hi=TWO_PI * 5e-2, n=40):
    omegas = np.geomspace(omega_lo, omega_hi, n)
    values = amplitude * omegas ** (-beta) + floor
    return spectral.Spectrum(omegas=omegas, values=values)


class TestSpectrumType:
    def test_requires_increasing_positive_omegas(self):
        with pytest.raises(DomainError):
            spectral.Spectrum(omegas=np.array([2.0, 1.0, 3.0]),
                              values=np.ones(3))
        with pytest.raises(DomainError):
            spectral.Spectrum(omegas=np.array([0.0, 1.0, 2.0]),
                              values=np.ones(3))

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            spectral.Spectrum(omegas=np.array([1.0, 2.0]),
                              values=np.array([1.0, -1.0]))

    def test_bin_counts_default_to_one_point_per_value(self):
        s = power_law_spectrum(1e-30, 1.0, 1e-28, n=12)
        assert s.bin_counts.tolist() == [1] * 12

    def test_carries_normalization_note(self):
        s = power_law_spectrum(1e-30, 1.0, 1e-28)
        assert "one-sided" in s.convention_note.lower()
        assert "hbar" in s.convention_note.lower()


class TestPeriodogram:
    def test_parseval_identity_is_exact(self):
        for n, seed in [(1200, 1), (1201, 2), (128, 3)]:
            ts = white_series(n=n, seed=seed)
            spec = spectral.periodogram(ts)
            df = 1.0 / (n * ts.dt)
            total = np.sum(spec.values) * df
            expected = hbar * np.var(ts.values) / TWO_PI
            assert total == pytest.approx(expected, rel=1e-12)

    def test_constant_series_gives_zero_spectrum(self):
        ts = TimeSeries(0.0, 10.0, np.full(256, MEAN))
        spec = spectral.psd_estimate(ts)
        assert np.all(spec.values == 0.0)

    def test_sinusoid_power_is_localized(self):
        n, dt, k0 = 1024, 1.0, 37
        t = dt * np.arange(n)
        f0 = k0 / (n * dt)
        ts = TimeSeries(0.0, dt, MEAN + 1e3 * np.sin(TWO_PI * f0 * t))
        spec = spectral.periodogram(ts)
        target = np.argmin(np.abs(spec.omegas - TWO_PI * f0))
        assert spec.omegas[target] == pytest.approx(TWO_PI * f0, rel=1e-12)
        assert spec.values[target] > 0.95 * np.sum(spec.values)

    def test_white_noise_floor_level_and_scatter(self):
        sigma, dt = TWO_PI * 215e3, 10.0
        ts = white_series(n=1200, dt=dt, sigma=sigma, seed=7)
        raw = spectral.periodogram(ts)
        floor = (hbar / TWO_PI) * 2 * np.var(ts.values) * dt
        # chi-squared(2) per raw bin: mean ~= floor, variance ~= floor^2
        assert np.mean(raw.values) == pytest.approx(floor, rel=0.10)
        assert np.var(raw.values) / floor**2 == pytest.approx(1.0, abs=0.3)

    def test_binned_integrated_power_matches_variance(self):
        ts = white_series(seed=11)
        spec = spectral.psd_estimate(ts)
        df = 1.0 / (ts.values.size * ts.dt)
        total = np.sum(spec.values * spec.bin_counts) * df
        expected = hbar * np.var(ts.values) / TWO_PI
        assert total == pytest.approx(expected, rel=1e-12)

    def test_at_least_eight_bins_per_decade(self):
        spec = spectral.psd_estimate(white_series(seed=2))
        top = spec.omegas[spec.omegas >= spec.omegas[-1] / 10.0]
        assert top.size >= 8

    def test_mean_invariance_and_quadratic_scaling(self):
        ts = white_series(seed=3)
        shifted = TimeSeries(ts.t0, ts.dt, ts.values + TWO_PI * 1e6)
        scaled = TimeSeries(ts.t0, ts.dt,
                            ts.values.mean() + 3.0 * (ts.values - ts.values.mean()))
        base = spectral.psd_estimate(ts)
        assert np.allclose(spectral.psd_estimate(shifted).values, base.values,
                           rtol=1e-9, atol=0.0)
        assert np.allclose(spectral.psd_estimate(scaled).values, 9.0 * base.values,
                           rtol=1e-9, atol=0.0)

    def test_requires_minimum_length(self):
        with pytest.raises(DomainError):
            spectral.psd_estimate(TimeSeries(0.0, 10.0, np.arange(32, dtype=float)))


class TestKneeFit:
    def test_zero_noise_model_recovery(self):
        for beta, amp, floor in [(1.0, 3e-31, 2e-28), (0.7, 1e-29, 1e-27)]:
            spec = power_law_spectrum(amp, beta, floor)
            fit = spectral.fit_knee_spectrum(spec)
            assert not fit.degenerate
            assert fit.beta == pytest.approx(beta, rel=1e-6)
            assert fit.mu == pytest.approx(floor, rel=1e-6)
            assert fit.amplitude == pytest.approx(amp, rel=1e-5)
            assert fit.amplitude * fit.omega_c ** (-fit.beta) == pytest.approx(
                fit.mu, rel=1e-6)
            assert fit.lr_statistic > spectral.LR_THRESHOLD

    def test_knee_outside_window_is_clamped(self):
        # floor so low that the crossover sits beyond the sampled band
        omega_hi = TWO_PI * 5e-2
        amp = 3e-31
        floor = amp * omega_hi ** (-1.0) / 100.0
        spec = power_law_spectrum(amp, 1.0, floor, omega_hi=omega_hi)
        fit = spectral.fit_knee_spectrum(spec)
        assert fit.omega_c == pytest.approx(fit.fit_window[1])
        assert fit.fit_window[0] <= fit.omega_c <= fit.fit_window[1]

    def test_floorless_power_law_reports_zero_floor(self):
        # A record falling as a power law through the whole window has
        # no resolvable white floor: the fit must land on the mu = 0
        # boundary instead of flagging the spectrum degenerate.
        spec = power_law_spectrum(3e-31, 1.0, 0.0)
        fit = spectral.fit_knee_spectrum(spec)
        assert not fit.degenerate
        assert fit.beta == pytest.approx(1.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(3e-31, rel=1e-5)
        assert 0.0 <= fit.mu < spec.values.min() * 1e-3
        assert fit.omega_c == pytest.approx(fit.fit_window[1])

    def test_pure_white_input_flags_degenerate(self):
        sigma, dt = TWO_PI * 215e3, 10.0
        ts = white_series(n=1200, dt=dt, sigma=sigma, seed=21)
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
        assert fit.degenerate
        floor = (hbar / TWO_PI) * 2 * np.var(ts.values) * dt
        assert fit.mu == pytest.approx(floor, rel=0.10)
        assert math.isnan(fit.beta)
        assert math.isfinite(fit.lr_statistic)

    def test_all_zero_spectrum_flags_degenerate(self):
        ts = TimeSeries(0.0, 10.0, np.full(1200, MEAN))
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
        assert fit.degenerate
        assert fit.mu == 0.0
        assert fit.lr_statistic == 0.0

    def test_singular_fisher_information_gives_nan_errors(self):
        # a parameter that moves no bin's level: I has rank 2 of 3
        grad = np.array([[1.0, 0.5, 0.0], [1.0, 2.0, 0.0], [1.0, -1.0, 0.0]])
        cov = spectral._fisher_covariance(grad, np.array([1, 4, 2]))
        assert cov.shape == (3, 3)
        assert np.isnan(cov).all()

    def test_requires_two_decades(self):
        spec = power_law_spectrum(1e-30, 1.0, 1e-28,
                                  omega_lo=TWO_PI * 1e-3, omega_hi=TWO_PI * 5e-3)
        with pytest.raises(DomainError):
            spectral.fit_knee_spectrum(spec)

    def test_closed_loop_beta_recovery_smoke(self):
        # Generate omega^-1 noise with a knee at 2*pi*1 mHz and check the
        # estimator recovers the injected exponent on seed average.  A
        # single fitted exponent has sigma ~ 0.35 on 1200-point records
        # (the colored branch spans only one decade above a chi-squared
        # noisy floor), so this 12-seed smoke test uses wide bounds; the
        # full 50-seed average at +-0.15 runs in the acceptance suite.
        knee, dt, n = TWO_PI * 1e-3, 10.0, 1200
        sigma = TWO_PI * 215e3
        betas, drops = [], 0
        for child in np.random.SeedSequence(3).spawn(12):
            seed = int(child.generate_state(1)[0])
            ts = tlssim.simulate_phenomenological(MEAN, 1.0, knee, sigma,
                                                  n * dt, dt, seed=seed)
            fit = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
            if fit.degenerate:
                drops += 1
            else:
                betas.append(fit.beta)
        assert len(betas) >= 9
        assert 0.6 <= np.mean(betas) <= 1.6

    def test_beta_invariant_under_time_rescaling(self):
        # Replaying the same record 60x faster shifts every frequency up
        # by 60 and every spectral level down by 60; the fitted exponent
        # must not move and the knee must scale with the axis.  This
        # pins the absence of hidden dt-dependence in the estimator.
        ts = tlssim.simulate_phenomenological(MEAN, 1.0, TWO_PI * 1e-3,
                                              TWO_PI * 215e3, 12000.0, 10.0, seed=0)
        fast = TimeSeries(0.0, ts.dt / 60.0, ts.values)
        fit_slow = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
        fit_fast = spectral.fit_knee_spectrum(spectral.psd_estimate(fast))
        assert not fit_slow.degenerate and not fit_fast.degenerate
        assert fit_fast.beta == pytest.approx(fit_slow.beta, abs=1e-4)
        assert fit_fast.omega_c == pytest.approx(fit_slow.omega_c * 60.0, rel=1e-3)


def phenomenological_spectrum(knee_hz, seed):
    ts = tlssim.simulate_phenomenological(MEAN, 1.0, TWO_PI * knee_hz,
                                          TWO_PI * 215e3, 12000.0, 10.0, seed=seed)
    return spectral.psd_estimate(ts)


def whittle_deviance(spectrum):
    """The knee model's Whittle deviance over (ln A, beta, ln mu), and
    the four starts an earlier multi-start fit took from the spectrum."""
    keep = spectrum.values > 0
    omegas, values = spectrum.omegas[keep], spectrum.values[keep]
    counts = spectrum.bin_counts[keep]
    ln_data, log_omega = np.log(values), np.log(omegas)

    def deviance(p):
        ln_a, beta, ln_mu = p
        u = ln_data - np.logaddexp(ln_a - beta * log_omega, ln_mu)
        return float(np.sum(2 * counts * (np.expm1(u) - u)))

    mu0 = float(np.median(values[omegas >= omegas[-1] / 10.0]))
    ln_a0 = math.log(max(values[0] - mu0, 0.01 * mu0) * omegas[0])
    starts = [[ln_a0 + math.log(a_factor), beta0, math.log(mu0)]
              for a_factor, beta0 in ((1.0, 1.0), (100.0, 1.0), (0.01, 1.0), (1.0, 0.5))]
    return deviance, starts


class TestProfileKneeFit:
    @pytest.mark.parametrize("seed", [0, 2, 3, 4, 5, 6, 7])
    def test_no_start_finds_a_lower_deviance(self, seed):
        # a general-purpose optimizer on the same likelihood and box, from
        # the fitted point and from four spread starts, gains nothing
        optimize = pytest.importorskip("scipy.optimize")
        spectrum = phenomenological_spectrum(1e-3, seed)
        fit = spectral.fit_knee_spectrum(spectrum)
        assert not fit.degenerate and fit.mu > 0
        deviance, starts = whittle_deviance(spectrum)
        fitted = [math.log(fit.amplitude), fit.beta, math.log(fit.mu)]
        d_fit = deviance(fitted)
        for start in [fitted, *starts]:
            found = optimize.minimize(deviance, start, method="L-BFGS-B",
                                      bounds=[(None, None), (0.0, 4.0), (None, None)])
            assert found.fun >= d_fit - 1e-8

    def test_floorless_steeper_than_box(self):
        # both branches share the [0, 4] box: a power law steeper than
        # omega^-4 with no floor fits at the box edge
        spec = power_law_spectrum(3e-40, 5.0, 0.0)
        fit = spectral.fit_knee_spectrum(spec)
        assert not fit.degenerate
        assert fit.beta == 4.0
        assert fit.mu == 0.0
        assert fit.lr_statistic > spectral.LR_THRESHOLD


class TestWhittleMonteCarlo:
    """Detection and error calibration of the knee fit at the paper's
    operating point (beta = 1, knee 1 mHz, N = 1200, dt = 10 s), on seed
    families held out from the estimator's development.  The bounds are
    binomial margins on the nominal rates: 1 % false alarms at the
    chi-squared(2) threshold and 95 % coverage of a 2-sigma error bar."""

    def test_colored_records(self):
        knee, dt, n, sigma = TWO_PI * 1e-3, 10.0, 1200, TWO_PI * 215e3
        fits = []
        for child in np.random.SeedSequence(2027).spawn(100):
            ts = tlssim.simulate_phenomenological(
                MEAN, 1.0, knee, sigma, n * dt, dt,
                seed=int(child.generate_state(1)[0]))
            fits.append(spectral.fit_knee_spectrum(spectral.psd_estimate(ts)))
        colored = [f for f in fits if not f.degenerate]
        beta = np.array([f.beta for f in colored])
        beta_err = np.array([f.beta_err for f in colored])
        omega_c = np.array([f.omega_c for f in colored])
        assert len(fits) - len(colored) <= 10
        assert abs(beta.mean() - 1.0) <= 0.10
        assert beta.std() <= 0.5
        assert np.mean(np.abs(beta - 1.0) <= 2 * beta_err) >= 0.88
        assert np.mean(np.abs(omega_c / knee - 1.0) <= 0.5) >= 0.55

    def test_white_records(self):
        false_alarms = 0
        for child in np.random.SeedSequence(2028).spawn(200):
            rng = np.random.Generator(np.random.PCG64(child))
            ts = TimeSeries(0.0, 10.0, MEAN + TWO_PI * 215e3 * rng.standard_normal(1200))
            false_alarms += not spectral.fit_knee_spectrum(
                spectral.psd_estimate(ts)).degenerate
        assert false_alarms <= 6

    @pytest.mark.parametrize("record", [160, 190])
    def test_white_record_lr_is_not_negative(self, record):
        # two white records whose earlier multi-start fit stopped above the
        # white level's deviance; D_white is a candidate at every beta, so
        # D_min <= D_white and LR >= 0 by construction
        child = np.random.SeedSequence(2028).spawn(200)[record]
        rng = np.random.Generator(np.random.PCG64(child))
        ts = TimeSeries(0.0, 10.0, MEAN + TWO_PI * 215e3 * rng.standard_normal(1200))
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
        assert fit.lr_statistic >= 0.0
        assert fit.degenerate


class TestFloorScalingFit:
    TEMPS = np.array([0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.25, 1.5])
    MU0 = 0.81e-24
    A = 1.1e-25

    def floor_points(self, x, noise=0.0, rng=None):
        mu = self.MU0 + self.A * self.TEMPS ** (2 + x)
        if noise:
            mu = mu * (1 + noise * rng.standard_normal(self.TEMPS.size))
        return list(zip(self.TEMPS, mu))

    def test_zero_noise_recovery(self):
        fit = spectral.fit_white_floor_vs_temp(self.floor_points(x=0.3))
        assert not fit.x_unidentifiable
        assert fit.x == pytest.approx(0.3, abs=1e-6)
        assert fit.mu0 == pytest.approx(self.MU0, rel=1e-6)
        assert fit.a == pytest.approx(self.A, rel=1e-6)

    def test_quadratic_scaling_recovered_under_noise(self):
        # Average 50 noisy floor measurements per temperature before
        # fitting: the temperature exponent is only identifiable once the
        # per-point scatter drops well below the T-dependent term, and
        # averaging trials is how repeated sweeps are combined in practice.
        acc = np.zeros(self.TEMPS.size)
        children = np.random.SeedSequence(2).spawn(50)
        for child in children:
            rng = np.random.Generator(np.random.PCG64(child))
            mu = (self.MU0 + self.A * self.TEMPS ** 2)
            acc += mu * (1 + 0.10 * rng.standard_normal(self.TEMPS.size))
        fit = spectral.fit_white_floor_vs_temp(
            list(zip(self.TEMPS, acc / len(children))))
        assert not fit.x_unidentifiable
        assert abs(fit.x) <= 0.15

    def test_reports_uncertainty_on_x(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4)))
        fit = spectral.fit_white_floor_vs_temp(
            self.floor_points(x=0.0, noise=0.015, rng=rng))
        assert fit.x_err > 0
        assert abs(fit.x) < 4 * fit.x_err

    def test_constant_floor_is_unidentifiable(self):
        points = [(float(t), self.MU0) for t in self.TEMPS]
        fit = spectral.fit_white_floor_vs_temp(points)
        assert fit.x_unidentifiable
        assert fit.mu0 == pytest.approx(self.MU0, rel=1e-9)

    def test_input_span_guards(self):
        with pytest.raises(DomainError):
            spectral.fit_white_floor_vs_temp([(0.1, 1e-24), (0.2, 1e-24),
                                              (0.3, 1e-24)])
        with pytest.raises(DomainError):
            spectral.fit_white_floor_vs_temp([(0.5, 1e-24), (0.6, 1e-24),
                                              (0.7, 1e-24), (0.8, 1e-24)])
