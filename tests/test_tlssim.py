"""Tests for the TLS ensemble Monte Carlo and the phenomenological generator."""

import dataclasses
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from thermoq import cli, config, spectral, tlssim
from thermoq.constants import TWO_PI, hbar
from thermoq.errors import DomainError, NonNormalizableError

OMEGA_Q = TWO_PI * 6.92e9
FIELDS = [field.name for field in dataclasses.fields(tlssim.TlsEnsemble)]


def make_config(**overrides):
    values = dict(n_tls=200)
    values.update(overrides)
    return tlssim.EnsembleConfig(**values)


def make_tls(*switch_rates):
    """One TLS per switching rate, all else alike; no rate, no TLS."""
    def alike(value):
        return np.full(len(switch_rates), value)
    return tlssim.TlsEnsemble(
        epsilon=alike(hbar * OMEGA_Q), delta_t=alike(hbar * OMEGA_Q / 10),
        coupling=alike(TWO_PI * 10e3), linewidth=alike(TWO_PI * 1e9),
        switch_rate=switch_rates, jump=alike(TWO_PI * 1e9),
    )


def _per_sample_values(ensemble, omega_q, T, duration, dt, seed, base_gamma1):
    """gamma1(t) from the same stream, each TLS's level looked up per sample.

    The reference replays the draws of ``simulate_microscopic`` (start
    levels, Poisson counts, uniform switch positions) and counts, for
    every sample, the switches of each TLS at or before it.
    """
    n = int(round(duration / dt))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    up_first = rng.random(ensemble.epsilon.size) < 0.5
    counts = rng.poisson(ensemble.switch_rate * (T / tlssim.T_REF) * duration)
    positions = rng.uniform(0.0, duration / dt, counts.sum())
    per_tls = np.split(positions, np.cumsum(counts)[:-1])
    samples = np.arange(n)
    values = np.full(n, float(base_gamma1))
    params = zip(ensemble.coupling, ensemble.linewidth, ensemble.omega_tls, ensemble.jump)
    for (coupling, linewidth, omega_tls, jump), up, switches in zip(params, up_first, per_tls):
        n_switches = np.searchsorted(np.sort(switches), samples, side="right")
        half = linewidth / 2
        v_up = coupling * half**2 / (half**2 + (omega_q - (omega_tls + jump / 2)) ** 2)
        v_dn = coupling * half**2 / (half**2 + (omega_q - (omega_tls - jump / 2)) ** 2)
        start, other = (v_up, v_dn) if up else (v_dn, v_up)
        values += np.where(n_switches % 2 == 0, start, other)
    return values


def _sample_json_ensemble():
    run = config.load_config(pathlib.Path(__file__).resolve().parent.parent / "sample.json")
    ensemble_seed, dynamics_seed = cli._spawn_seeds(run.seed, 2)
    ensemble = tlssim.sample_ensemble(run.tls, ensemble_seed)
    return run, ensemble, dynamics_seed


class TestTimeSeries:
    def test_invariants(self):
        with pytest.raises(DomainError):
            tlssim.TimeSeries(0.0, 0.0, np.zeros(4))
        with pytest.raises(DomainError):
            tlssim.TimeSeries(0.0, 1.0, np.zeros(1))
        with pytest.raises(DomainError):
            tlssim.TimeSeries(0.0, 1.0, np.array([1.0, math.nan]))

    def test_times(self):
        ts = tlssim.TimeSeries(5.0, 2.0, np.arange(4.0) + 1)
        assert np.array_equal(ts.times, [5.0, 7.0, 9.0, 11.0])


class TestSampleEnsemble:
    def test_deterministic(self):
        a = tlssim.sample_ensemble(make_config(), 1)
        b = tlssim.sample_ensemble(make_config(), 1)
        for field in FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_count_and_derived_frequency(self):
        ensemble = tlssim.sample_ensemble(make_config(n_tls=50), 1)
        for field in FIELDS:
            assert getattr(ensemble, field).shape == (50,)
        assert np.all(ensemble.omega_tls >= ensemble.delta_t / hbar)
        assert np.all(ensemble.omega_tls >= ensemble.epsilon / hbar)

    def test_derived_frequency_is_math_hypot_bit_for_bit(self):
        # the records of every microscopic run rest on these exact values
        ensembles = [_sample_json_ensemble()[1]] + [
            tlssim.sample_ensemble(make_config(n_tls=2000), seed) for seed in (2, 3, 4)]
        for ensemble in ensembles:
            expected = [math.hypot(e, d) / hbar
                        for e, d in zip(ensemble.epsilon.tolist(), ensemble.delta_t.tolist())]
            assert ensemble.omega_tls.tolist() == expected

    def test_constant_fields(self):
        config = make_config(n_tls=30)
        ensemble = tlssim.sample_ensemble(config, 1)
        assert ensemble.coupling.tolist() == [float(config.coupling_scale)] * 30
        assert ensemble.jump.tolist() == [config.jump_fraction * w
                                          for w in ensemble.linewidth.tolist()]

    def test_retained_memory_per_tls(self):
        # six float64 arrays: 48 B per TLS
        n = config.MAX_TLS
        tlssim.sample_ensemble(make_config(n_tls=n), 1)  # warm-up
        tracemalloc.start()
        try:
            ensemble = tlssim.sample_ensemble(make_config(n_tls=n), 1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ensemble.epsilon.size == n
        assert retained / n <= 64

    def test_record_checks_shapes_and_signs(self):
        good = tlssim.sample_ensemble(make_config(n_tls=3), 1)
        arrays = {field: getattr(good, field) for field in FIELDS}
        for field, bad in [("jump", np.ones(2)), ("epsilon", np.ones((3, 1))),
                           ("delta_t", np.ones((3, 1))), ("coupling", 1.0),
                           ("linewidth", np.array([1.0, 0.0, 1.0])),
                           ("switch_rate", np.array([1.0, math.nan, 1.0]))]:
            with pytest.raises(DomainError, match=f"^TlsEnsemble.{field} must hold"):
                tlssim.TlsEnsemble(**{**arrays, field: bad})

    def test_epsilon_underflow_names_x_exponent(self):
        with pytest.raises(DomainError, match="^x_exponent = -0.999999 "):
            tlssim.sample_ensemble(make_config(x_exponent=-0.999999), 1)

    def test_flat_epsilon_distribution_at_x_zero(self):
        config = make_config(n_tls=10_000, x_exponent=0.0)
        ensemble = tlssim.sample_ensemble(config, 3)
        u = ensemble.epsilon / config.epsilon_max
        d = stats.kstest(u, "uniform").statistic
        assert d < 1.628 / math.sqrt(len(u))  # critical value at alpha = 0.01

    def test_log_uniform_tunnel_splitting(self):
        lo = hbar * TWO_PI * 0.1e9
        hi = hbar * TWO_PI * 10e9  # two decades
        config = make_config(n_tls=10_000, delta_range=(lo, hi))
        ensemble = tlssim.sample_ensemble(config, 4)
        deltas = ensemble.delta_t
        frac_first_decade = np.mean(deltas < 10 * lo)
        sigma = math.sqrt(0.25 / len(deltas))
        assert abs(frac_first_decade - 0.5) < 3 * sigma

    def test_switch_rates_within_band(self):
        config = make_config(n_tls=500, rate_decades=(1e-5, 1e-1))
        rates = tlssim.sample_ensemble(config, 1).switch_rate
        assert np.all((1e-5 <= rates) & (rates <= 1e-1))

    def test_non_normalizable_exponent(self):
        with pytest.raises(NonNormalizableError):
            tlssim.sample_ensemble(make_config(x_exponent=-1.0), 1)

    def test_band_must_span_a_decade(self):
        with pytest.raises(DomainError):
            make_config(rate_decades=(1e-2, 5e-2))

    @pytest.mark.parametrize("name", ["n_tls", "coupling_scale", "base_gamma1"])
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_nan_and_negative_scales_are_refused(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be >= 0, got {value}$"):
            dataclasses.replace(make_config(), **{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_zero_coupling_is_refused_unless_the_ensemble_is_empty(self, value):
        with pytest.raises(DomainError,
                           match=f"^coupling_scale must be > 0 for n_tls > 0, got {value}$"):
            make_config(n_tls=1, coupling_scale=value)
        assert make_config(n_tls=0, coupling_scale=value).coupling_scale == 0.0


class TestSimulateMicroscopic:
    def test_empty_ensemble_is_constant_baseline(self):
        base = TWO_PI * 3.9e6
        ts = tlssim.simulate_microscopic(make_tls(), OMEGA_Q, 1.0, 1200.0, 10.0,
                                         seed=7, base_gamma1=base)
        assert np.all(ts.values == base)

    def test_seed_determinism(self):
        ensemble = tlssim.sample_ensemble(make_config(), 1)
        a = tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, 12000.0, 10.0, seed=9)
        b = tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, 12000.0, 10.0, seed=9)
        assert np.array_equal(a.values, b.values)
        c = tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, 12000.0, 10.0, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_never_below_baseline(self):
        base = TWO_PI * 3.9e6
        ensemble = tlssim.sample_ensemble(make_config(base_gamma1=base), 1)
        ts = tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, 12000.0, 10.0,
                                         seed=2, base_gamma1=base)
        assert np.all(ts.values >= base)

    def test_single_tls_telegraph_occupancy(self):
        ts = tlssim.simulate_microscopic(make_tls(0.05), OMEGA_Q, 1.0, 12000.0, 10.0,
                                         seed=21, base_gamma1=0.0)
        levels = np.unique(ts.values)
        assert len(levels) == 2
        frac_high = np.mean(ts.values == levels.max())
        # ~600 switches -> correlation time 10 s -> ~600 effective samples
        assert abs(frac_high - 0.5) < 3 * math.sqrt(0.25 / 600)

    def test_temperature_scales_switching(self):
        tls = make_tls(0.02)

        def n_transitions(T):
            ts = tlssim.simulate_microscopic(tls, OMEGA_Q, T, 50000.0, 10.0,
                                             seed=5, base_gamma1=0.0)
            return np.sum(np.diff(ts.values) != 0)

        assert n_transitions(1.5) > 1.2 * n_transitions(0.5)

    def test_halves_of_long_run_agree(self):
        # Stationarity check: the two halves of a long record share a mean.
        # Telegraph noise is strongly autocorrelated (correlation times up
        # to ~1/(2*rate_min) = 500 s here), so the standard error is taken
        # from block means with blocks much longer than that.
        config = make_config(rate_decades=(1e-3, 1e-1))
        ensemble = tlssim.sample_ensemble(config, 12)
        ts = tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, 1e5, 10.0, seed=13)
        blocks = ts.values.reshape(20, -1).mean(axis=1)  # 5000 s per block
        h1, h2 = blocks[:10], blocks[10:]
        se = math.sqrt(h1.var(ddof=1) / h1.size + h2.var(ddof=1) / h2.size)
        assert abs(h1.mean() - h2.mean()) < 4 * se

    def test_duration_guard(self):
        with pytest.raises(DomainError):
            tlssim.simulate_microscopic(make_tls(), OMEGA_Q, 1.0, 50.0, 10.0, seed=1)

    def test_nan_duration_is_refused(self):
        ensemble = tlssim.sample_ensemble(make_config(), 1)
        with pytest.raises(DomainError, match="duration"):
            tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, math.nan, 10.0, seed=1)

    @pytest.mark.parametrize("n_tls", [0, 200], ids=["empty", "sampled"])
    def test_nan_temperature_is_refused(self, n_tls):
        ensemble = tlssim.sample_ensemble(make_config(n_tls=n_tls), 1)
        with pytest.raises(DomainError, match="temperature"):
            tlssim.simulate_microscopic(ensemble, OMEGA_Q, math.nan, 1200.0, 10.0, seed=1)

    def test_ensemble_produces_one_over_f_spectra(self):
        # Log-uniform switching rates spanning 1e-5..1e-1 Hz superpose
        # Lorentzians into a ~1/omega spectrum across the window of a
        # 1200-sample, dt = 10 s record; the knee fit should place the
        # exponent near 1 for the vast majority of realizations.
        from thermoq import spectral

        in_band = 0
        for child in np.random.SeedSequence(7).spawn(100):
            seed_cfg, seed_dyn = (int(v) for v in child.generate_state(2))
            config = make_config()
            ensemble = tlssim.sample_ensemble(config, seed_cfg)
            ts = tlssim.simulate_microscopic(
                ensemble, OMEGA_Q, 1.0, 12000.0, 10.0, seed_dyn,
                base_gamma1=config.base_gamma1)
            fit = spectral.fit_knee_spectrum(spectral.psd_estimate(ts))
            if not fit.degenerate and 0.7 <= fit.beta <= 1.3:
                in_band += 1
        assert in_band >= 80


class TestSignedSteps:
    """Switches map to samples, and the signed steps equal a per-sample count."""

    @staticmethod
    def one_tls(n, positions):
        return tlssim._telegraph_sum(n, [len(positions)], np.array(positions, dtype=float),
                                     [0.0], [1.0]).tolist()

    def test_switch_on_a_sample_counts_there(self):
        assert self.one_tls(6, [2.0]) == [0, 0, 1, 1, 1, 1]
        assert self.one_tls(4, [0.0]) == [1, 1, 1, 1]

    def test_three_switches_in_one_interval_flip_once(self):
        assert self.one_tls(6, [2.4, 2.2, 2.6]) == [0, 0, 0, 1, 1, 1]
        assert self.one_tls(6, [2.4, 2.2]) == [0] * 6

    def test_switch_past_the_last_sample_is_dropped(self):
        assert self.one_tls(6, [5.5]) == [0] * 6
        assert self.one_tls(6, [9.0, 4.5, 7.0]) == [0, 0, 0, 0, 0, 1]
        assert self.one_tls(4, []) == [0] * 4

    def test_hand_made_switches_of_two_tls(self):
        # TLS 0: on sample 2, three inside (2, 3), one past the end;
        # TLS 1: inside (0, 1) and (3, 4); each block in any order
        positions = np.array([2.2, 0.5, 7.0, 2.0, 2.6, 4.5, 2.4, 3.5, 0.5])
        record = tlssim._telegraph_sum(6, [7, 2], positions, [0.0, 10.0], [1.0, 12.0])
        assert record.tolist() == [0, 3, 2, 3, 1, 0]

    @pytest.mark.parametrize("n_tls, rate_decades, T, duration, dt", [
        (50, (1e-5, 1e-1), 0.0, 12000.0, 10.0),    # T = 0: rate 0, no switches
        (5, (1.0, 10.0), 20.0, 2000.0, 1.0),       # 20-200 switches per interval
        (30, (1e-3, 1e-1), 1.0, 12370.0, 10.0),    # 1237 samples
        (1, (1e-3, 1e-1), 1.0, 12000.0, 10.0),     # a single TLS
        (20, (1e-5, 1e-1), 5.0, 2.0**14 * 10, 10.0),
    ])
    def test_matches_per_sample_reference(self, n_tls, rate_decades, T, duration, dt):
        ensemble = tlssim.sample_ensemble(make_config(
            n_tls=n_tls, rate_decades=rate_decades), 8)
        base = TWO_PI * 3.9e6
        ts = tlssim.simulate_microscopic(ensemble, OMEGA_Q, T, duration, dt,
                                         seed=17, base_gamma1=base)
        expected = _per_sample_values(ensemble, OMEGA_Q, T, duration, dt, 17, base)
        np.testing.assert_allclose(ts.values, expected, rtol=1e-12, atol=0)

    def test_matches_reference_on_sample_json_ensemble(self):
        run, ensemble, seed = _sample_json_ensemble()
        args = (run.circuit.omega_q0, run.campaign.temperature,
                run.campaign.duration, 1.0 / run.campaign.point_rate, seed)
        assert ensemble.epsilon.size == 200
        ts = tlssim.simulate_microscopic(ensemble, *args,
                                         base_gamma1=run.tls.base_gamma1)
        expected = _per_sample_values(ensemble, *args, run.tls.base_gamma1)
        np.testing.assert_allclose(ts.values, expected, rtol=1e-12, atol=0)

    def test_matches_reference_with_switches_past_the_last_sample(self):
        # the record ends at 990 s, 14.9 s before the duration, and a
        # rate of 2/s puts about 30 switches in between
        tls = make_tls(2.0)
        duration, dt, seed = 1004.9, 10.0, 5
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        rng.random(1)
        positions = rng.uniform(0.0, duration / dt, rng.poisson([2.0 * duration]).sum())
        assert np.count_nonzero(positions > 99.0) > 10
        ts = tlssim.simulate_microscopic(tls, OMEGA_Q, 1.0, duration, dt, seed)
        expected = _per_sample_values(tls, OMEGA_Q, 1.0, duration, dt, seed, 0.0)
        assert ts.values.size == 100
        np.testing.assert_allclose(ts.values, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rates", [[0.64], [0.0032] * 200])
    def test_peak_memory_per_switch(self, rates):
        # about 2**18 switches over 2**12 samples, in one TLS or over 200
        ensemble = make_tls(*rates)
        n, dt = 2**12, 100.0
        tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, n * dt, dt, seed=4)  # warm-up
        tracemalloc.start()
        try:
            tlssim.simulate_microscopic(ensemble, OMEGA_Q, 1.0, n * dt, dt, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 8 * n) / 2**18 <= 24


class TestTelegraphSpectrum:
    def test_mean_periodogram_matches_sampled_telegraph_spectrum(self):
        self.check_sampled_spectrum(make_tls(0.02, 0.1, 0.4))

    def test_dense_switching_matches_sampled_telegraph_spectrum(self):
        # 2 to 20 switches per sample interval: only the parity of the
        # switches inside one interval may reach the record
        self.check_sampled_spectrum(make_tls(2.0, 5.0, 20.0))

    @staticmethod
    def check_sampled_spectrum(ensemble):
        # A symmetric telegraph process flipping at rate r between levels
        # mean +/- sigma, sampled every dt, has autocovariance
        # sigma^2 rho^|k| with rho = exp(-2 r dt), so its spectrum is
        # sigma^2 (1 - rho^2) / |1 - rho exp(-i omega dt)|^2 (Machlup
        # 1954, in sampled form: no aliasing term); independent TLS add.
        # The finite record shifts the expected periodogram from this by
        # under 0.6 % at every bin for the slow ensemble and under 1e-5
        # for the dense one (Fejer kernel, computed apart).
        dt, n, n_records, group = 1.0, 4096, 64, 64
        omegas = TWO_PI * np.arange(1, n // 2) / (n * dt)  # Nyquist left out
        expected = np.zeros(omegas.size)
        for coupling, linewidth, omega_tls, jump, rate in zip(
                ensemble.coupling, ensemble.linewidth, ensemble.omega_tls, ensemble.jump,
                ensemble.switch_rate):
            half = linewidth / 2
            centers = omega_tls + np.array([1, -1]) * jump / 2
            v_up, v_dn = coupling * half**2 / (half**2 + (OMEGA_Q - centers) ** 2)
            sigma = (v_up - v_dn) / 2
            rho = math.exp(-2 * rate * dt)
            expected += sigma**2 * (1 - rho**2) / np.abs(1 - rho * np.exp(-1j * omegas * dt)) ** 2
        expected *= (hbar / TWO_PI) * 2 * dt  # one-sided, as spectral.periodogram
        mean = np.zeros(omegas.size)
        for seed in range(n_records):
            ts = tlssim.simulate_microscopic(ensemble, OMEGA_Q, tlssim.T_REF,
                                             n * dt, dt, seed)
            raw = spectral.periodogram(ts)
            assert np.allclose(raw.omegas[:omegas.size], omegas, rtol=1e-12)
            mean += raw.values[:omegas.size] / n_records
        # Per record each bin is expected * chi2_2 / 2; a group of bins
        # averaged over the records is then chi2 to Satterthwaite's
        # effective degrees of freedom.  Two-sided, 1e-3 over all groups.
        m = omegas.size // group * group
        observed = mean[:m].reshape(-1, group).sum(axis=1)
        grouped = expected[:m].reshape(-1, group)
        nu = 2 * n_records * grouped.sum(axis=1) ** 2 / (grouped**2).sum(axis=1)
        alpha = 1e-3 / nu.size
        ratio = observed / grouped.sum(axis=1)
        assert np.all(stats.chi2.ppf(alpha / 2, nu) / nu < ratio)
        assert np.all(ratio < stats.chi2.ppf(1 - alpha / 2, nu) / nu)


class TestSimulatePhenomenological:
    def test_degenerate_constant_series(self):
        mean = TWO_PI * 6.25e6
        ts = tlssim.simulate_phenomenological(mean, 0.0, TWO_PI * 1e-3, 0.0,
                                              12000.0, 10.0, seed=3)
        assert np.all(ts.values == mean)

    def test_seed_determinism(self):
        args = (TWO_PI * 6.25e6, 1.0, TWO_PI * 1e-3, TWO_PI * 300e3, 12000.0, 10.0)
        a = tlssim.simulate_phenomenological(*args, seed=42)
        b = tlssim.simulate_phenomenological(*args, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_relative_scatter_matches_reference_protocol(self):
        # mean 2pi x 6.25 MHz, total sigma 2pi x 320 kHz -> sigma/mean ~= 0.05
        mean = TWO_PI * 6.25e6
        target = TWO_PI * 320e3
        unit = tlssim.phenomenological_sigma(1.0, TWO_PI * 1e-3, 1.0, 12000.0, 10.0)
        white_sigma = target / unit
        ts = tlssim.simulate_phenomenological(mean, 1.0, TWO_PI * 1e-3, white_sigma,
                                              12000.0, 10.0, seed=6)
        ratio = ts.values.std() / ts.values.mean()
        assert ratio == pytest.approx(0.05, abs=0.01)

    def test_sample_variance_matches_configured(self):
        sigma_w = TWO_PI * 300e3
        expected = tlssim.phenomenological_sigma(1.0, TWO_PI * 1e-3, sigma_w, 12000.0, 10.0)
        devs = []
        for seed in range(10):
            ts = tlssim.simulate_phenomenological(0.0, 1.0, TWO_PI * 1e-3, sigma_w,
                                                  12000.0, 10.0, seed=seed)
            devs.append(ts.values.std())
        assert np.mean(devs) == pytest.approx(expected, rel=0.15)

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            tlssim.simulate_phenomenological(0.0, 2.5, TWO_PI * 1e-3, 1.0, 1200.0, 1.0, seed=0)
        with pytest.raises(DomainError):
            tlssim.simulate_phenomenological(0.0, 1.0, TWO_PI * 1e-3, -1.0, 1200.0, 1.0, seed=0)

    def test_nan_white_sigma_is_refused(self):
        with pytest.raises(DomainError, match="white_sigma must be >= 0, got nan"):
            tlssim.simulate_phenomenological(0.0, 1.0, TWO_PI * 1e-3, math.nan, 1200.0, 1.0,
                                             seed=0)
