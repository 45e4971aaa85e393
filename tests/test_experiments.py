"""Tests for relaxation-trace fits and measurement campaigns.

The batched trace fitter is checked against noiseless round trips, Monte
Carlo recovery under binomial shot noise, its two failure masks and
row-by-row independence; the campaign driver against its bookkeeping
contract (point count, trace grid, source lookup, determinism, gap
handling) plus the whiteness of its estimator noise.
"""

import math
import warnings

import numpy as np
import pytest

from thermoq import experiments, spectral
from thermoq.constants import TWO_PI
from thermoq.errors import DomainError, FitError
from thermoq.tlssim import TimeSeries

GAMMA1 = TWO_PI * 3.9e6       # relaxation rate, rad/s
N_AVERAGES = 400_000


def relaxation_times(n=25, span=3.0):
    return np.linspace(0.0, span / GAMMA1, n)


def noisy_relaxation(times, n_averages, seed, rate=GAMMA1):
    """exp(-rate*t) with binomial shot noise of ``n_averages`` trials."""
    return experiments._shot_noise(np.exp(-rate * times), n_averages, seed)


def test_shot_noise_scale_and_bounds():
    times = relaxation_times(n=200)
    n_avg = 1000
    clean = np.exp(-GAMMA1 * times)
    noisy = experiments._shot_noise(clean, n_avg, 3)
    assert np.all((noisy >= 0) & (noisy <= 1))
    dev = np.abs(noisy - clean)
    assert dev.max() <= 5 * math.sqrt(0.25 / n_avg)
    assert dev.max() > 0


def test_shot_noise_seed_determinism():
    p = np.exp(-GAMMA1 * relaxation_times())
    assert np.array_equal(experiments._shot_noise(p, N_AVERAGES, 8),
                          experiments._shot_noise(p, N_AVERAGES, 8))


class TestFitDecayTraces:
    def test_noiseless_round_trip(self):
        times = relaxation_times()
        fits, no_decay, short_span = experiments.fit_decay_traces(
            times, np.exp(-GAMMA1 * times))
        assert not (no_decay[0] or short_span[0])
        assert fits.parameters[0, 0] == pytest.approx(GAMMA1, rel=1e-6)

    def test_shot_noise_recovery_within_five_percent(self):
        times = relaxation_times()
        worst = 0.0
        for child in np.random.SeedSequence(11).spawn(50):
            seed = int(child.generate_state(1)[0])
            fits, no_decay, short_span = experiments.fit_decay_traces(
                times, noisy_relaxation(times, N_AVERAGES, seed))
            assert not (no_decay[0] or short_span[0])
            worst = max(worst, abs(fits.parameters[0, 0] / GAMMA1 - 1.0))
        assert worst < 0.05

    def test_estimator_bias_below_one_percent(self):
        times = relaxation_times()
        rates = []
        for child in np.random.SeedSequence(12).spawn(200):
            seed = int(child.generate_state(1)[0])
            fits, no_decay, short_span = experiments.fit_decay_traces(
                times, noisy_relaxation(times, N_AVERAGES, seed))
            assert not (no_decay[0] or short_span[0])
            rates.append(fits.parameters[0, 0])
        assert abs(np.mean(rates) / GAMMA1 - 1.0) < 0.01

    def test_reports_rate_uncertainty(self):
        times = relaxation_times()
        fits, _, _ = experiments.fit_decay_traces(
            times, noisy_relaxation(times, N_AVERAGES, 5))
        err = fits.stderr("rate")[0]
        assert err > 0
        assert abs(fits.parameters[0, 0] - GAMMA1) < 4 * err

    def test_short_span(self):
        times = np.linspace(0.0, 0.5 / GAMMA1, 25)
        _, no_decay, short_span = experiments.fit_decay_traces(
            times, np.exp(-GAMMA1 * times))
        assert short_span[0] and not no_decay[0]

    def test_flat_trace_has_no_decay(self):
        times = np.linspace(0.0, 1e-6, 25)
        _, no_decay, short_span = experiments.fit_decay_traces(
            times, np.full(25, 0.8))
        assert no_decay[0] and not short_span[0]

    def test_straight_rise_is_a_short_span(self):
        # a straight line is the slow limit of a recovery, a negative
        # amplitude at a small positive rate: too few decay constants
        times = relaxation_times()
        fits, no_decay, short_span = experiments.fit_decay_traces(
            times, np.linspace(0.2, 0.9, times.size))
        assert fits.parameters[0, 1] < 0
        assert short_span[0] and not no_decay[0]

    def test_growing_trace_has_no_decay(self):
        times = relaxation_times()
        _, no_decay, short_span = experiments.fit_decay_traces(
            times, 0.2 + 0.7 * np.exp(GAMMA1 * times / 3.0 - 1.0))
        assert no_decay[0] and not short_span[0]

    def test_unformed_row_has_no_decay(self):
        # a row the loop cannot form is masked, not raised
        times = relaxation_times()
        p_e = np.exp(-GAMMA1 * times)
        p_e[4] = math.nan
        fits, no_decay, short_span = experiments.fit_decay_traces(times, p_e)
        assert not fits.formed[0]
        assert no_decay[0] and not short_span[0]

    @pytest.mark.parametrize("span,short", [(1.4, True), (1.6, False)])
    def test_short_span_threshold(self, span, short):
        # the span rule compares the fitted decay constants with 1.5
        times = relaxation_times(span=span)
        fits, no_decay, short_span = experiments.fit_decay_traces(
            times, np.exp(-GAMMA1 * times))
        assert fits.parameters[0, 0] == pytest.approx(GAMMA1, rel=1e-6)
        assert not no_decay[0]
        assert short_span[0] == short

    def test_offset_and_amplitude_are_fitted(self):
        # readout infidelity: the trace falls from 0.95 towards 0.1
        times = relaxation_times()
        fits, no_decay, short_span = experiments.fit_decay_traces(
            times, 0.1 + 0.85 * np.exp(-GAMMA1 * times))
        assert not (no_decay[0] or short_span[0])
        assert fits.parameters[0] == pytest.approx([GAMMA1, 0.85, 0.1], rel=1e-6)

    def test_one_trace_gives_one_row(self):
        times = relaxation_times()
        fits, no_decay, short_span = experiments.fit_decay_traces(
            times, np.exp(-GAMMA1 * times))
        assert fits.parameters.shape == (1, 3)
        assert no_decay.shape == short_span.shape == (1,)

    def mixed_batch(self):
        """Clean, gap (flat or no significant decay) and wild rows together."""
        times = relaxation_times()
        rows = []
        for i, child in enumerate(np.random.SeedSequence(21).spawn(24)):
            seed = int(child.generate_state(1)[0])
            n_averages = (N_AVERAGES, 40, 4, 1)[i % 4]
            rows.append(noisy_relaxation(times, n_averages, seed,
                                         GAMMA1 * (1.0 + 0.1 * i / 24)))
        rows.append(np.full(times.size, 0.8))
        rows.append(np.linspace(0.2, 0.9, times.size))  # rising: no decay
        grid = np.tile(times, (len(rows) + 1, 1))
        grid[-1] = relaxation_times(span=0.5)  # clean, but too short
        rows.append(np.exp(-GAMMA1 * grid[-1]))
        return grid, np.array(rows)

    def test_rows_fit_independently(self):
        times, p_e = self.mixed_batch()
        fits, no_decay, short_span = experiments.fit_decay_traces(times, p_e)
        outcomes = set()
        for i in range(len(p_e)):
            alone, [alone_no_decay], [alone_short] = experiments.fit_decay_traces(
                times[i], p_e[i])
            assert (no_decay[i], short_span[i]) == (alone_no_decay, alone_short)
            outcomes.add("no decay" if no_decay[i] else
                         "short span" if short_span[i] else "fit")
            if no_decay[i] or short_span[i]:
                continue
            assert alone.parameters[0].tobytes() == fits.parameters[i].tobytes()
            assert alone.covariance[0].tobytes() == fits.covariance[i].tobytes()
            assert alone.n_iterations[0] == fits.n_iterations[i]
        assert outcomes == {"fit", "no decay", "short span"}


def constant_source(rate=GAMMA1):
    return TimeSeries(0.0, 10.0, np.full(1200, rate))


class TestSimulateCampaign:
    def make_config(self, **overrides):
        values = dict(point_rate=0.1, duration=12000.0,
                      n_averages=N_AVERAGES, temperature=0.05)
        values.update(overrides)
        return experiments.CampaignConfig(**values)

    def test_point_count_and_grid(self):
        # 200 minutes at 0.1 Hz -> 1200 campaign points 10 s apart
        result = experiments.simulate_campaign(self.make_config(),
                                               constant_source(), 13)
        assert result.series.values.size == 1200
        assert result.series.t0 == 0.0
        assert result.series.dt == pytest.approx(10.0)
        assert result.gap_indices == ()

    def test_seed_determinism(self):
        a = experiments.simulate_campaign(self.make_config(), constant_source(), 13)
        b = experiments.simulate_campaign(self.make_config(), constant_source(), 13)
        assert np.array_equal(a.series.values, b.series.values)
        c = experiments.simulate_campaign(self.make_config(), constant_source(), 14)
        assert not np.array_equal(a.series.values, c.series.values)

    def test_estimator_noise_floor_and_whiteness(self):
        # A constant true rate isolates pure estimator noise; at the
        # device averaging count it must stay below the observed run-to-
        # run scatter of 2pi x 215 kHz and carry no spectral color.
        result = experiments.simulate_campaign(self.make_config(),
                                               constant_source(), 13)
        values = result.series.values
        assert abs(values.mean() / GAMMA1 - 1.0) < 0.01
        assert values.std() < TWO_PI * 215e3
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(result.series))
        assert fit.degenerate

    def test_gaps_carry_previous_value(self):
        # At tiny averaging counts some traces carry no significant decay;
        # those ticks are recorded as gaps holding the last good estimate.
        config = self.make_config(point_rate=0.1, duration=640.0, n_averages=4)
        result = experiments.simulate_campaign(config, constant_source(), 2)
        assert len(result.gap_indices) > 0
        assert result.series.values.size == 64
        assert np.all(np.isfinite(result.series.values))
        for idx in result.gap_indices:
            if idx > 0:
                assert result.series.values[idx] == result.series.values[idx - 1]

    def test_gap_decisions_are_pinned(self, monkeypatch):
        # the batched fit gaps exactly the ticks that fitting each trace
        # alone gaps, and the gap set of this seed's stream is pinned
        real = experiments.fit_decay_traces
        handed = []

        def capture(times, p_e):
            handed.append((times.copy(), p_e.copy()))
            return real(times, p_e)

        monkeypatch.setattr(experiments, "fit_decay_traces", capture)
        config = self.make_config(point_rate=0.1, duration=640.0, n_averages=4)
        result = experiments.simulate_campaign(config, constant_source(), 2)
        [(times, p_e)] = handed
        serial = []
        for i in range(len(p_e)):
            _, no_decay, short_span = real(times[i], p_e[i])
            if no_decay[0] or short_span[0]:
                serial.append(i)
        assert result.gap_indices == tuple(serial)
        assert result.gap_indices == (
            1, 3, 17, 23, 24, 25, 27, 33, 34, 38, 42, 46, 47, 53, 54, 56)

    @pytest.mark.parametrize("n_averages", [4, 400_000])
    def test_ticks_do_not_depend_on_later_ticks(self, n_averages):
        # the shot noise is drawn tick after tick from one stream, so a
        # short campaign is the head of a long one, values and gaps alike
        short = experiments.simulate_campaign(
            self.make_config(duration=640.0, n_averages=n_averages),
            constant_source(), 2)
        long = experiments.simulate_campaign(
            self.make_config(n_averages=n_averages), constant_source(), 2)
        assert short.series.values.size == 64
        assert long.series.values.size == 1200
        assert np.array_equal(short.series.values, long.series.values[:64])
        assert short.gap_indices == tuple(
            i for i in long.gap_indices if i < 64)

    def test_low_averaging_campaign_raises_no_warning(self):
        # diverging trial steps of wild rows must not spam stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(1, 5):
                config = self.make_config(duration=640.0, n_averages=4)
                experiments.simulate_campaign(config, constant_source(), seed)

    def test_source_lookup_is_zero_order_hold(self):
        # a source sampled on its own, offset grid gives the same campaign
        # as that source held by hand at every campaign tick
        rng = np.random.Generator(np.random.PCG64(7))
        source = TimeSeries(-25.0, 7.3, GAMMA1 * (1.0 + 0.05 * rng.random(500)))
        config = self.make_config(duration=3000.0, n_averages=40)
        held = TimeSeries(0.0, 10.0, np.array([
            source.values[min(max(int((t - source.t0) // source.dt), 0),
                              source.values.size - 1)]
            for t in (10.0 * k for k in range(300))]))
        a = experiments.simulate_campaign(config, source, 13)
        b = experiments.simulate_campaign(config, held, 13)
        assert np.array_equal(a.series.values, b.series.values)
        assert a.gap_indices == b.gap_indices

    def test_trace_grid_spans_three_decay_constants(self, monkeypatch):
        # every tick measures 25 points from 0 to 3 decay constants of its
        # true rate, as fractions of n_averages shots
        real = experiments.fit_decay_traces
        handed = []

        def capture(times, p_e):
            handed.append((times.copy(), p_e.copy()))
            return real(times, p_e)

        monkeypatch.setattr(experiments, "fit_decay_traces", capture)
        rates = GAMMA1 * np.linspace(0.8, 1.2, 64)
        experiments.simulate_campaign(
            self.make_config(duration=640.0, n_averages=40),
            TimeSeries(0.0, 10.0, rates), 13)
        [(times, p_e)] = handed
        assert times.shape == p_e.shape == (64, 25)
        assert np.all(times[:, 0] == 0.0)
        assert times[:, -1] * rates == pytest.approx(np.full(64, 3.0), rel=1e-12)
        assert np.all((p_e >= 0) & (p_e <= 1))
        assert np.array_equal(p_e * 40, np.round(p_e * 40))

    def test_leading_gaps_hold_the_first_good_estimate(self, monkeypatch):
        real = experiments.fit_decay_traces

        def first_two_gap(times, p_e):
            fits, no_decay, short_span = real(times, p_e)
            no_decay[:2] = True
            return fits, no_decay, short_span

        monkeypatch.setattr(experiments, "fit_decay_traces", first_two_gap)
        result = experiments.simulate_campaign(
            self.make_config(duration=640.0), constant_source(), 13)
        values = result.series.values
        assert result.gap_indices == (0, 1)
        assert values[0] == values[1] == values[2]
        assert values[2] != values[3]

    @pytest.mark.parametrize("t0,n", [(500.0, 300), (-25.0, 40)],
                             ids=["starts_late", "ends_early"])
    def test_source_edges_hold_their_end_values(self, t0, n):
        # ticks before a source's first sample take that sample, ticks
        # after its last take the last
        rng = np.random.Generator(np.random.PCG64(3))
        source = TimeSeries(t0, 10.0, GAMMA1 * (1.0 + 0.05 * rng.random(n)))
        config = self.make_config(duration=1500.0, n_averages=40)
        ticks = 10.0 * np.arange(150)
        raw = np.floor((ticks - t0) / 10.0).astype(int)
        assert np.any((raw < 0) | (raw >= n))
        held = TimeSeries(0.0, 10.0, source.values[np.clip(raw, 0, n - 1)])
        a = experiments.simulate_campaign(config, source, 13)
        b = experiments.simulate_campaign(config, held, 13)
        assert np.array_equal(a.series.values, b.series.values)

    def test_rate_step_is_tracked(self):
        # a step in the true rate shows in the fitted series at the tick
        # that crosses it, to within the estimator noise
        rates = np.full(1200, GAMMA1)
        rates[600:] = 1.5 * GAMMA1
        result = experiments.simulate_campaign(
            self.make_config(), TimeSeries(0.0, 10.0, rates), 13)
        values = result.series.values
        assert abs(values[:600].mean() / GAMMA1 - 1.0) < 0.01
        assert abs(values[600:].mean() / (1.5 * GAMMA1) - 1.0) < 0.01

    def test_nan_source_rate(self):
        rates = np.full(1200, GAMMA1)
        rates[7] = math.nan
        with pytest.raises(DomainError):
            experiments.simulate_campaign(self.make_config(),
                                          TimeSeries(0.0, 10.0, rates), 13)

    def test_non_positive_source_rate(self):
        rates = np.full(1200, GAMMA1)
        rates[500:] = 0.0
        with pytest.raises(DomainError):
            experiments.simulate_campaign(self.make_config(),
                                          TimeSeries(0.0, 10.0, rates), 13)

    def test_all_gaps_is_an_error(self, monkeypatch):
        real = experiments.fit_decay_traces

        def no_decay(times, p_e):
            # forced for the all-gaps path
            fits, _, short_span = real(times, p_e)
            return fits, np.ones(len(times), dtype=bool), short_span

        monkeypatch.setattr(experiments, "fit_decay_traces", no_decay)
        config = self.make_config(point_rate=0.1, duration=640.0, n_averages=1)
        with pytest.raises(FitError):
            experiments.simulate_campaign(config, constant_source(), 1)

    def test_config_guards(self):
        with pytest.raises(DomainError):
            self.make_config(point_rate=0.0)
        with pytest.raises(DomainError):
            self.make_config(duration=100.0)  # fewer than 64 points
        with pytest.raises(DomainError):
            self.make_config(n_averages=0)
        with pytest.raises(DomainError):
            self.make_config(temperature=-0.01)

    def test_config_boundaries_are_accepted(self):
        config = self.make_config(duration=640.0, n_averages=1, temperature=0.0)
        assert config.duration * config.point_rate == 64

    @pytest.mark.parametrize("field,message", [
        ("point_rate", "point_rate"), ("duration", "64 points"),
        ("temperature", "temperature"),
        ("n_averages", "n_averages")])
    def test_nan_config_field_is_refused(self, field, message):
        with pytest.raises(DomainError, match=message):
            self.make_config(**{field: math.nan})
