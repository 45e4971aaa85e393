"""Tests for synthetic decay experiments and measurement campaigns.

Trace models are checked against hand-evaluated exponentials, the trace
fitter against noiseless round trips and Monte Carlo recovery under
binomial shot noise, and the campaign driver against its bookkeeping
contract (point count, determinism, gap handling) plus the whiteness of
its estimator noise.
"""

import math
import warnings

import numpy as np
import pytest

from thermoq import experiments, fitting, spectral
from thermoq.constants import TWO_PI
from thermoq.errors import DomainError, FitError, NoDecayError
from thermoq.tlssim import TimeSeries

GAMMA1 = TWO_PI * 3.9e6       # relaxation rate, rad/s
GAMMA2_RAMSEY = TWO_PI * 2.1e6
GAMMA2_ECHO = TWO_PI * 1.9e6
DETUNING = TWO_PI * 5e6
N_AVERAGES = 400_000


def relaxation_times(rate=GAMMA1, n=25, span=3.0):
    return np.linspace(0.0, span / rate, n)


class TestExperimentTrace:
    def test_times_must_ascend_from_zero(self):
        good = np.linspace(0.0, 1e-7, 9)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("relaxation", good + 1e-9,
                                        np.full(9, 0.5), None, None)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("relaxation", good[::-1],
                                        np.full(9, 0.5), None, None)

    def test_probabilities_bounded(self):
        times = np.linspace(0.0, 1e-7, 9)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("relaxation", times,
                                        np.full(9, 1.2), None, None)

    def test_kind_vocabulary(self):
        times = np.linspace(0.0, 1e-7, 9)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("rabi", times, np.full(9, 0.5),
                                        None, None)

    def test_detuning_only_on_ramsey(self):
        times = np.linspace(0.0, 1e-7, 9)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("relaxation", times, np.full(9, 0.5),
                                        DETUNING, None)
        with pytest.raises(DomainError):
            experiments.ExperimentTrace("ramsey", times, np.full(9, 0.5),
                                        None, None)


class TestSimulateTrace:
    def test_relaxation_value_at_one_decay_constant(self):
        t_star = 1.0 / GAMMA1
        times = np.array([0.0, t_star])
        trace = experiments.simulate_trace("relaxation", GAMMA1, None, times)
        assert trace.p_e[0] == pytest.approx(1.0)
        assert trace.p_e[1] == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_ramsey_starts_at_one_and_decays_to_half(self):
        times = np.linspace(0.0, 6.0 / GAMMA2_RAMSEY, 200)
        trace = experiments.simulate_trace("ramsey", GAMMA2_RAMSEY, DETUNING,
                                           times)
        assert trace.p_e[0] == pytest.approx(1.0)
        assert trace.p_e[-1] == pytest.approx(0.5, abs=0.01)
        assert trace.detuning == DETUNING

    def test_ramsey_envelope_time(self):
        # envelope exp(-gamma2*t) crosses 1/e at t = 1/gamma2 = 75.79 ns
        # for gamma2 = 2pi x 2.1 MHz
        t_env = 1.0 / GAMMA2_RAMSEY
        assert t_env == pytest.approx(75.788e-9, rel=1e-4)
        times = np.array([0.0, t_env])
        trace = experiments.simulate_trace("ramsey", GAMMA2_RAMSEY, DETUNING,
                                           times)
        envelope = (2 * trace.p_e[1] - 1) / math.cos(DETUNING * t_env)
        assert envelope == pytest.approx(math.exp(-1), rel=1e-12)

    def test_echo_model(self):
        times = relaxation_times(GAMMA2_ECHO)
        trace = experiments.simulate_trace("echo", GAMMA2_ECHO, None, times)
        expected = 0.5 + 0.5 * np.exp(-GAMMA2_ECHO * times)
        assert np.allclose(trace.p_e, expected, rtol=1e-12)
        assert trace.detuning is None

    def test_shot_noise_scale_and_bounds(self):
        times = relaxation_times(n=200)
        n_avg = 1000
        noisy = experiments.simulate_trace("relaxation", GAMMA1, None, times,
                                           n_averages=n_avg, seed=3)
        clean = experiments.simulate_trace("relaxation", GAMMA1, None, times)
        assert np.all((noisy.p_e >= 0) & (noisy.p_e <= 1))
        dev = np.abs(noisy.p_e - clean.p_e)
        assert dev.max() <= 5 * math.sqrt(0.25 / n_avg)
        assert dev.max() > 0

    def test_seed_determinism(self):
        times = relaxation_times()
        a = experiments.simulate_trace("relaxation", GAMMA1, None, times,
                                       n_averages=N_AVERAGES, seed=8)
        b = experiments.simulate_trace("relaxation", GAMMA1, None, times,
                                       n_averages=N_AVERAGES, seed=8)
        assert np.array_equal(a.p_e, b.p_e)

    def test_rate_guard(self):
        with pytest.raises(DomainError):
            experiments.simulate_trace("relaxation", 0.0, None,
                                       relaxation_times())


class TestFitTrace:
    def test_noiseless_round_trip_all_kinds(self):
        cases = [
            ("relaxation", GAMMA1, None, relaxation_times(GAMMA1)),
            ("ramsey", GAMMA2_RAMSEY, DETUNING,
             np.linspace(0.0, 5.0 / GAMMA2_RAMSEY, 101)),
            ("echo", GAMMA2_ECHO, None, relaxation_times(GAMMA2_ECHO)),
        ]
        for kind, rate, detuning, times in cases:
            trace = experiments.simulate_trace(kind, rate, detuning, times)
            fit = experiments.fit_trace(trace)
            assert fit.parameters["rate"] == pytest.approx(rate, rel=1e-6)
            if kind == "ramsey":
                assert fit.parameters["detuning"] == pytest.approx(
                    detuning, rel=1e-6)

    def test_shot_noise_recovery_within_five_percent(self):
        times = relaxation_times()
        worst = 0.0
        for child in np.random.SeedSequence(11).spawn(50):
            seed = int(child.generate_state(1)[0])
            trace = experiments.simulate_trace("relaxation", GAMMA1, None,
                                               times, n_averages=N_AVERAGES,
                                               seed=seed)
            fit = experiments.fit_trace(trace)
            worst = max(worst, abs(fit.parameters["rate"] / GAMMA1 - 1.0))
        assert worst < 0.05

    def test_estimator_bias_below_one_percent(self):
        times = relaxation_times()
        rates = []
        for child in np.random.SeedSequence(12).spawn(200):
            seed = int(child.generate_state(1)[0])
            trace = experiments.simulate_trace("relaxation", GAMMA1, None,
                                               times, n_averages=N_AVERAGES,
                                               seed=seed)
            rates.append(experiments.fit_trace(trace).parameters["rate"])
        assert abs(np.mean(rates) / GAMMA1 - 1.0) < 0.01

    def test_echo_fits_below_ramsey_on_device_values(self):
        ramsey = experiments.simulate_trace(
            "ramsey", GAMMA2_RAMSEY, DETUNING,
            np.linspace(0.0, 5.0 / GAMMA2_RAMSEY, 101),
            n_averages=N_AVERAGES, seed=14)
        echo = experiments.simulate_trace(
            "echo", GAMMA2_ECHO, None, relaxation_times(GAMMA2_ECHO),
            n_averages=N_AVERAGES, seed=14)
        rate_ramsey = experiments.fit_trace(ramsey).parameters["rate"]
        rate_echo = experiments.fit_trace(echo).parameters["rate"]
        assert rate_echo < rate_ramsey
        assert rate_ramsey == pytest.approx(GAMMA2_RAMSEY, rel=0.02)
        assert rate_echo == pytest.approx(GAMMA2_ECHO, rel=0.02)

    def test_reports_rate_uncertainty(self):
        trace = experiments.simulate_trace("relaxation", GAMMA1, None,
                                           relaxation_times(),
                                           n_averages=N_AVERAGES, seed=5)
        fit = experiments.fit_trace(trace)
        err = fit.stderr("rate")
        assert err > 0
        assert abs(fit.parameters["rate"] - GAMMA1) < 4 * err

    def test_requires_eight_points(self):
        times = np.linspace(0.0, 3.0 / GAMMA1, 7)
        trace = experiments.simulate_trace("relaxation", GAMMA1, None, times)
        with pytest.raises(DomainError):
            experiments.fit_trace(trace)

    def test_requires_decay_span(self):
        times = np.linspace(0.0, 0.5 / GAMMA1, 25)
        trace = experiments.simulate_trace("relaxation", GAMMA1, None, times)
        with pytest.raises(DomainError):
            experiments.fit_trace(trace)

    def test_flat_trace_raises_no_decay(self):
        times = np.linspace(0.0, 1e-6, 25)
        trace = experiments.ExperimentTrace("relaxation", times,
                                            np.full(25, 0.8), None, None)
        with pytest.raises(NoDecayError):
            experiments.fit_trace(trace)

    def test_flat_ramsey_trace_raises_no_decay(self):
        times = np.linspace(0.0, 5.0 / GAMMA2_RAMSEY, 101)
        trace = experiments.ExperimentTrace("ramsey", times, np.full(101, 0.5),
                                            DETUNING, None)
        with pytest.raises(NoDecayError):
            experiments.fit_trace(trace)

    def test_ramsey_goes_through_the_analytic_fit(self):
        times = np.linspace(0.0, 5.0 / GAMMA2_RAMSEY, 101)
        trace = experiments.simulate_trace("ramsey", GAMMA2_RAMSEY, DETUNING, times,
                                           n_averages=N_AVERAGES, seed=15)
        fits = fitting.fit_ramsey(times, trace.p_e, DETUNING)
        assert experiments.fit_trace(trace).parameters == fits.result(0).parameters


class TestFitDecayTraces:
    def mixed_batch(self):
        """Clean, gap (flat or no significant decay) and wild rows together."""
        times = relaxation_times()
        rows = []
        for i, child in enumerate(np.random.SeedSequence(21).spawn(24)):
            seed = int(child.generate_state(1)[0])
            n_averages = (N_AVERAGES, 40, 4, 1)[i % 4]
            rows.append(experiments.simulate_trace(
                "relaxation", GAMMA1 * (1.0 + 0.1 * i / 24), None, times,
                n_averages=n_averages, seed=seed).p_e)
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
            trace = experiments.ExperimentTrace("relaxation", times[i], p_e[i])
            try:
                alone = experiments.fit_trace(trace)
            except NoDecayError:
                assert no_decay[i] and not short_span[i]
                outcomes.add("no decay")
                continue
            except DomainError:
                assert short_span[i] and not no_decay[i]
                outcomes.add("short span")
                continue
            assert not (no_decay[i] or short_span[i])
            outcomes.add("fit")
            row = fits.result(i)
            assert row.parameters == alone.parameters
            assert np.array_equal(row.covariance, alone.covariance)
            assert row.n_iterations == alone.n_iterations
        assert outcomes == {"fit", "no decay", "short span"}

    def test_echo_goes_through_the_batched_fit(self):
        times = relaxation_times(GAMMA2_ECHO)
        trace = experiments.simulate_trace("echo", GAMMA2_ECHO, None, times,
                                           n_averages=N_AVERAGES, seed=3)
        fits, _, _ = experiments.fit_decay_traces(times, trace.p_e)
        assert experiments.fit_trace(trace).parameters == fits.result(0).parameters


def constant_source(rate=GAMMA1):
    return TimeSeries(0.0, 10.0, np.full(1200, rate))


class TestSimulateCampaign:
    def make_config(self, **overrides):
        values = dict(point_rate=0.1, duration=12000.0,
                      n_averages=N_AVERAGES, temperature=0.05, seed=13)
        values.update(overrides)
        return experiments.CampaignConfig(**values)

    def test_point_count_and_grid(self):
        # 200 minutes at 0.1 Hz -> 1200 campaign points 10 s apart
        result = experiments.simulate_campaign(self.make_config(),
                                               constant_source())
        assert result.series.values.size == 1200
        assert result.series.dt == pytest.approx(10.0)
        assert result.gap_indices == ()

    def test_seed_determinism(self):
        a = experiments.simulate_campaign(self.make_config(), constant_source())
        b = experiments.simulate_campaign(self.make_config(), constant_source())
        assert np.array_equal(a.series.values, b.series.values)
        c = experiments.simulate_campaign(self.make_config(seed=14),
                                          constant_source())
        assert not np.array_equal(a.series.values, c.series.values)

    def test_estimator_noise_floor_and_whiteness(self):
        # A constant true rate isolates pure estimator noise; at the
        # device averaging count it must stay below the observed run-to-
        # run scatter of 2pi x 215 kHz and carry no spectral color.
        result = experiments.simulate_campaign(self.make_config(),
                                               constant_source())
        values = result.series.values
        assert abs(values.mean() / GAMMA1 - 1.0) < 0.01
        assert values.std() < TWO_PI * 215e3
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(result.series))
        assert fit.degenerate

    def test_callable_source(self):
        result = experiments.simulate_campaign(
            self.make_config(), lambda t: GAMMA1 * (1.0 + 0.02 * math.sin(t)))
        assert result.series.values.size == 1200

    def test_gaps_carry_previous_value(self):
        # At tiny averaging counts some traces carry no significant decay;
        # those ticks are recorded as gaps holding the last good estimate.
        config = self.make_config(point_rate=0.1, duration=640.0,
                                  n_averages=4, seed=2)
        result = experiments.simulate_campaign(config, constant_source())
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
        config = self.make_config(point_rate=0.1, duration=640.0,
                                  n_averages=4, seed=2)
        result = experiments.simulate_campaign(config, constant_source())
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
            self.make_config(duration=640.0, n_averages=n_averages, seed=2),
            constant_source())
        long = experiments.simulate_campaign(
            self.make_config(n_averages=n_averages, seed=2), constant_source())
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
                config = self.make_config(duration=640.0, n_averages=4,
                                          seed=seed)
                experiments.simulate_campaign(config, constant_source())

    def test_source_lookup_is_zero_order_hold(self):
        # a source sampled on its own, offset grid gives the same campaign
        # as the equivalent scalar callable
        rng = np.random.Generator(np.random.PCG64(7))
        source = TimeSeries(-25.0, 7.3, GAMMA1 * (1.0 + 0.05 * rng.random(500)))

        def held(t):
            index = int((t - source.t0) // source.dt)
            return source.values[min(max(index, 0), source.values.size - 1)]

        config = self.make_config(duration=3000.0, n_averages=40)
        a = experiments.simulate_campaign(config, source)
        b = experiments.simulate_campaign(config, held)
        assert np.array_equal(a.series.values, b.series.values)
        assert a.gap_indices == b.gap_indices

    def test_non_positive_source_rate(self):
        with pytest.raises(DomainError):
            experiments.simulate_campaign(
                self.make_config(), lambda t: GAMMA1 if t < 5000 else 0.0)

    def test_all_gaps_is_an_error(self, monkeypatch):
        real = experiments.fit_decay_traces

        def no_decay(times, p_e):
            # forced for the all-gaps path
            fits, _, short_span = real(times, p_e)
            return fits, np.ones(len(times), dtype=bool), short_span

        monkeypatch.setattr(experiments, "fit_decay_traces", no_decay)
        config = self.make_config(point_rate=0.1, duration=640.0,
                                  n_averages=1, seed=1)
        with pytest.raises(FitError):
            experiments.simulate_campaign(config, constant_source())

    def test_config_guards(self):
        with pytest.raises(DomainError):
            self.make_config(point_rate=0.0)
        with pytest.raises(DomainError):
            self.make_config(duration=100.0)  # fewer than 64 points
        with pytest.raises(DomainError):
            self.make_config(n_averages=0)

    @pytest.mark.parametrize("field,message", [
        ("duration", "64 points"), ("temperature", "temperature"),
        ("n_averages", "n_averages")])
    def test_nan_config_field_is_refused(self, field, message):
        with pytest.raises(DomainError, match=message):
            self.make_config(**{field: math.nan})
