"""Tests for the damped Gauss-Newton least-squares engine."""

import math

import numpy as np
import pytest

from thermoq import fitting
from thermoq.errors import DegenerateDataError, ModelDomainError, RankDeficiencyError


def test_noiseless_decay_exact_data():
    t = np.linspace(0.0, 5.0, 20)
    fits = fitting.fit_decays(t, 3.0 + 2.0 * np.exp(-0.7 * t))
    assert fits.converged[0] and fits.formed[0]
    assert fits.parameters[0] == pytest.approx([0.7, 2.0, 3.0], rel=1e-12)
    assert fits.residual_norm[0] < 1e-10
    # the closed-form start lands close: a few accepted steps, then the
    # rejected trials that end the row
    assert fits.n_iterations[0] <= 20


def test_exponential_decay_matches_log_linear_oracle():
    rate = 2 * math.pi * 3.9e6
    t = np.linspace(0.0, 5e-7, 40)
    y = 0.97 * np.exp(-rate * t)
    fits = fitting.fit_decays(t, y)
    # independent oracle: ordinary least squares on log(y) is exact on
    # noiseless exponential data
    slope, intercept = np.polyfit(t, np.log(y), 1)
    fit_rate, amplitude, offset = fits.parameters[0]
    assert fit_rate == pytest.approx(-slope, rel=1e-8)
    assert amplitude == pytest.approx(math.exp(intercept), rel=1e-8)
    assert abs(offset) < 1e-12


def test_rank_deficiency_on_insensitive_parameter():
    # a flat row starts at amplitude 0, where the rate has no effect
    fits = fitting.fit_decays(np.linspace(0.0, 1.0, 10), np.ones(10))
    assert not fits.formed[0]
    assert isinstance(fits.errors[0], RankDeficiencyError)
    assert "'rate'" in str(fits.errors[0])


def test_non_finite_initial_residual():
    data = np.ones(10)
    data[3] = math.nan
    fits = fitting.fit_decays(np.linspace(0.0, 1.0, 10), data)
    assert not fits.formed[0]
    assert isinstance(fits.errors[0], ModelDomainError)


def test_permutation_equivariance():
    # the same start on permuted points: only the order of the sums differs
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 2.0, 50)
    y = 1.3 * np.exp(-2.1 * x) + 0.01 * rng.standard_normal(x.size)
    perm = rng.permutation(x.size)
    start = fitting._decay_start(x[None], y[None])

    def fit(xs, ys):
        return fitting._levenberg_marquardt(fitting._DecaySums(xs[None], ys[None]),
                                            start.copy(), fitting.DECAY_NAMES)

    res1, res2 = fit(x, y), fit(x[perm], y[perm])
    assert res1.converged[0] and res2.converged[0]
    assert res2.parameters[0] == pytest.approx(res1.parameters[0], rel=1e-9)


def test_covariance_scales_quadratically_with_parameter_rescaling():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 3.0, 40)
    y = 0.2 + 0.7 * np.exp(-1.5 * t) + 0.01 * rng.standard_normal(t.size)
    res1 = fitting.fit_decays(t, y)
    # t -> t/10: same model, rate 10x larger
    res2 = fitting.fit_decays(t / 10.0, y)
    assert res2.parameters[0, 0] == pytest.approx(10 * res1.parameters[0, 0], rel=1e-8)
    assert res2.covariance[0, 0, 0] == pytest.approx(100 * res1.covariance[0, 0, 0],
                                                     rel=1e-6)


def test_time_shift_moves_only_the_amplitude():
    # a shifted clock is the same decay with amplitude*exp(-rate*shift)
    t = np.linspace(0.0, 3.0, 30)
    y = 0.1 + 0.8 * np.exp(-1.3 * t)
    fits = fitting.fit_decays(t + 0.5, y)
    assert fits.parameters[0] == pytest.approx(
        [1.3, 0.8 * math.exp(1.3 * 0.5), 0.1], rel=1e-9)


def test_rate_error_bar_does_not_depend_on_the_data_scale():
    # scaling the data scales amplitude, offset and residuals alike, and
    # leaves the rate and its standard error where they were
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 3.0, 40)
    y = 0.2 + 0.7 * np.exp(-1.5 * t) + 0.01 * rng.standard_normal(t.size)
    fits = fitting.fit_decays(t, y)
    scaled = fitting.fit_decays(t, 8.0 * y)
    assert scaled.parameters[0] == pytest.approx(
        fits.parameters[0] * [1.0, 8.0, 8.0], rel=1e-8)
    assert scaled.stderr("rate")[0] == pytest.approx(fits.stderr("rate")[0], rel=1e-6)


def test_shape_mismatch_is_refused():
    with pytest.raises(ValueError):
        fitting.fit_decays(np.linspace(0.0, 1.0, 10), np.ones((2, 10)))


RATE = 2 * math.pi * 3.9e6


def noisy_decays(n, n_averages, seed):
    """Shot-noise-limited relaxation traces over 3 decay constants each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rates = RATE * (1.0 + 0.05 * rng.standard_normal(n))
    times = np.linspace(0.0, 3.0 / rates, 25, axis=1)
    p = rng.binomial(n_averages, np.exp(-rates[:, None] * times)) / n_averages
    return times, p


class TestFitDecays:
    # the residual norm may exceed SciPy's by at most 1e-12 relative.  At
    # 100 averages a rate 1e-8 away changes the norm by less than its
    # rounding: both fits land up to about 1e-8 from the long-double
    # minimiser, on either side, so the rate bound there is 3e-8.
    @pytest.mark.parametrize("n_averages,seed,rate_rel", [
        (40_000, 3, 1e-7), (100, 41, 3e-8), (1_000, 42, 1e-8), (400_000, 43, 1e-8)])
    def test_rates_match_scipy(self, n_averages, seed, rate_rel):
        optimize = pytest.importorskip("scipy.optimize")
        times, data = noisy_decays(64, n_averages, seed)
        fits = fitting.fit_decays(times, data)
        assert fits.formed.all() and fits.converged.all()
        for t, y, p, err, norm in zip(times, data, fits.parameters, fits.stderr("rate"),
                                      fits.residual_norm):
            def residual(q):
                return q[2] + q[1] * np.exp(-q[0] * t) - y

            def jacobian(q):
                e = np.exp(-q[0] * t)
                return np.stack([-q[1] * t * e, e, np.ones_like(t)], axis=1)

            ref = optimize.least_squares(residual, [1.0 / t[-1], 1.0, 0.0],
                                         jac=jacobian, method="lm", xtol=1e-15,
                                         ftol=1e-15, gtol=1e-15)
            assert ref.success
            assert p[0] == pytest.approx(ref.x[0], rel=rate_rel)
            s2 = 2 * ref.cost / (t.size - 3)
            ref_err = math.sqrt(s2 * np.linalg.inv(ref.jac.T @ ref.jac)[0, 0])
            assert err == pytest.approx(ref_err, rel=1e-5)
            assert norm <= np.linalg.norm(ref.fun) * (1 + 1e-12)

    def test_trial_budget(self):
        # the closed-form start lands near the optimum and the stopping
        # test sees rejected trials too: about 4 trials per row here
        fits = fitting.fit_decays(*noisy_decays(1200, 400_000, 44))
        assert fits.converged.all()
        assert fits.n_iterations.mean() < 6

    @pytest.mark.parametrize("n_averages", [400, 400_000])
    def test_restart_at_the_optimum_stops_at_once(self, n_averages):
        # restarted at its own optimum, a row stops at the first trial,
        # accepted or rejected, that moves it by less than the tolerance:
        # most at once, a few once the damping has shrunk a Gauss-Newton
        # step just above it
        times, data = noisy_decays(1200, n_averages, 9)
        fits = fitting.fit_decays(times, data)
        again = fitting._levenberg_marquardt(fitting._DecaySums(times, data),
                                             fits.parameters.copy(), fitting.DECAY_NAMES)
        assert again.converged.all()
        assert np.median(again.n_iterations) == 1
        assert again.n_iterations.max() <= 5
        assert np.all(again.residual_norm <= fits.residual_norm)
        assert np.allclose(again.parameters[:, 0], fits.parameters[:, 0], rtol=1e-8, atol=0)

    def test_start_is_the_integral_equation_solve(self):
        # the per-trace reference rule: with y less its first point and S
        # its trapezoid integral, least squares of y on (1, t, S) gives
        # -rate, else 2/span; then least squares of y on (1, exp(-rate*t))
        integrate = pytest.importorskip("scipy.integrate")
        times, data = noisy_decays(32, 40, 6)
        data[0] = 0.5                                    # flat: no rate
        data[1] = 0.2 * np.exp(times[1] / times[1, -1])  # rising: rate not positive
        with np.errstate(all="ignore"):
            starts = fitting._decay_start(times, data)
        for t, y, start in zip(times, data, starts):
            shifted = y - y[0]
            area = integrate.cumulative_trapezoid(shifted, t, initial=0.0)
            coef = np.linalg.lstsq(np.stack([np.ones_like(t), t, area], axis=1),
                                   shifted, rcond=None)[0]
            rate = -coef[2] if -coef[2] > 0 else 2.0 / t[-1]
            (offset, amplitude), *_ = np.linalg.lstsq(
                np.stack([np.ones_like(t), np.exp(-rate * t)], axis=1), y, rcond=None)
            assert start == pytest.approx([rate, amplitude, offset], rel=1e-9, abs=1e-12)
        assert starts[0].tolist() == [2.0 / times[0, -1], 0.0, 0.5]
        assert starts[1, 0] == 2.0 / times[1, -1]

    def test_unformed_rows_are_flagged_not_raised(self):
        times, data = noisy_decays(3, 400_000, 4)
        data[0] = 0.8          # flat: the rate has no effect
        data[2, 5] = math.nan  # non-finite residual at the start
        fits = fitting.fit_decays(times, data)
        assert fits.formed.tolist() == [False, True, False]
        alone = fitting.fit_decays(times[1], data[1])
        assert np.array_equal(alone.parameters[0], fits.parameters[1])

    def test_too_few_points(self):
        with pytest.raises(RankDeficiencyError):
            fitting.fit_decays([[0.0, 1.0]], [[1.0, 0.5]])

    def test_stderr_is_the_covariance_diagonal(self):
        fits = fitting.fit_decays(*noisy_decays(5, 1_000, 10))
        assert fits.formed.all()
        for i, name in enumerate(fitting.DECAY_NAMES):
            assert np.array_equal(fits.stderr(name),
                                  np.sqrt(fits.covariance[:, i, i]))

    def test_singular_rows_of_a_stacked_solve(self):
        matrices = np.array([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
        out, singular = fitting._stacked(np.linalg.solve, matrices,
                                         np.ones((3, 3, 1)))
        assert singular.tolist() == [False, True, False]
        assert np.all(out[0] == 0.5) and np.all(out[2] == 1.0)
        assert np.all(np.isnan(out[1]))


def assert_rows_equal_single_fits(fits, single):
    """Each row of ``fits`` equals ``single(i)``, the same row fitted alone."""
    for i in range(len(fits.formed)):
        alone = single(i)
        assert alone.formed[0] == fits.formed[i]
        assert type(alone.errors[0]) is type(fits.errors[i])
        assert alone.parameters[0].tobytes() == fits.parameters[i].tobytes()
        assert alone.covariance[0].tobytes() == fits.covariance[i].tobytes()
        assert alone.residual_norm[0].tobytes() == fits.residual_norm[i].tobytes()
        assert alone.n_iterations[0] == fits.n_iterations[i]
        assert alone.converged[0] == fits.converged[i]


class TestBatchRows:
    def test_rows_equal_single_fits(self):
        # one batch of clean, rank-deficient and non-finite rows; each
        # row must equal fit_decays on that row alone, bit for bit
        t = np.linspace(0.0, 1.0, 30)
        rng = np.random.default_rng(12)
        rates = np.array([3.0, 1.2, 2.5, 9.0, 3.0, 3.0, 5.8])
        data = 2.0 * np.exp(-rates[:, None] * t) + 0.3
        data += 0.02 * rng.standard_normal(data.shape)
        data[2, 7] = math.inf            # non-finite start
        data[4] = 0.8                    # flat: the rate has no effect
        data[5, 4] = math.nan            # non-finite residual at the start
        fits = fitting.fit_decays(np.tile(t, (7, 1)), data)
        assert fits.formed.tolist() == [True, True, False, True, False, False, True]
        assert isinstance(fits.errors[2], ModelDomainError)
        assert isinstance(fits.errors[4], RankDeficiencyError)
        assert isinstance(fits.errors[5], ModelDomainError)
        assert len(set(fits.n_iterations[fits.formed].tolist())) > 1
        assert_rows_equal_single_fits(fits, lambda i: fitting.fit_decays(t, data[i]))

    def test_rows_stop_independently(self):
        # row 0 converges in a few steps; row 1, one point up and the rest
        # at 0, keeps falling as its rate grows, so it uses every trial
        # step unconverged
        t = np.linspace(0.0, 1.0, 10)
        data = np.array([np.exp(-2.0 * t), np.eye(1, 10)[0]])
        fits = fitting.fit_decays(np.tile(t, (2, 1)), data)
        assert fits.converged.tolist() == [True, False]
        assert fits.n_iterations[1] == fitting._MAX_ITER > fits.n_iterations[0]
        assert_rows_equal_single_fits(fits, lambda i: fitting.fit_decays(t, data[i]))

    def test_too_few_residuals_raise_for_the_batch(self):
        with pytest.raises(RankDeficiencyError):
            fitting.fit_decays([[0.0, 1.0]] * 3, [[1.0, 0.5]] * 3)


class TestLinearFit:
    def test_identity_line(self):
        x = np.arange(10.0)
        res = fitting.linear_fit(x, x)
        assert res.parameters["slope"] == pytest.approx(1.0, abs=1e-14)
        assert res.parameters["intercept"] == pytest.approx(0.0, abs=1e-13)

    def test_constant_data(self):
        x = np.arange(8.0)
        res = fitting.linear_fit(x, np.full(8, 4.2))
        assert res.parameters["slope"] == pytest.approx(0.0, abs=1e-14)
        assert res.parameters["intercept"] == pytest.approx(4.2, rel=1e-14)

    def test_degenerate_abscissae(self):
        with pytest.raises(DegenerateDataError):
            fitting.linear_fit(np.ones(5), np.arange(5.0))

    def test_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            fitting.linear_fit([1.0], [2.0])

    def test_two_points_are_exact(self):
        res = fitting.linear_fit([1.0, 3.0], [2.0, 6.0])
        assert res.parameters == {"slope": 2.0, "intercept": 0.0}
        assert res.stderr("slope") == res.stderr("intercept") == 0.0

    def test_covariance_against_closed_form(self):
        rng = np.random.default_rng(6)
        x = np.linspace(1.0, 2.0, 20)
        y = 0.5 - 3.0 * x + 0.1 * rng.standard_normal(x.size)
        res = fitting.linear_fit(x, y)
        xbar, sxx = x.mean(), np.sum((x - x.mean()) ** 2)
        yhat = res.parameters["intercept"] + res.parameters["slope"] * x
        s2 = np.sum((y - yhat) ** 2) / (x.size - 2)
        assert res.param_names == ("slope", "intercept")
        assert res.covariance[0, 1] == res.covariance[1, 0]
        # abscissae right of 0: slope and intercept anticorrelate
        assert res.covariance[0, 1] == pytest.approx(-s2 * xbar / sxx, rel=1e-10)

    def test_standard_errors_against_closed_form(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 1.0, 25)
        y = 1.0 + 2.0 * x + 0.05 * rng.standard_normal(x.size)
        res = fitting.linear_fit(x, y)
        # closed-form OLS standard errors
        n = x.size
        xbar = x.mean()
        sxx = np.sum((x - xbar) ** 2)
        yhat = res.parameters["intercept"] + res.parameters["slope"] * x
        s2 = np.sum((y - yhat) ** 2) / (n - 2)
        assert res.stderr("slope") == pytest.approx(math.sqrt(s2 / sxx), rel=1e-10)
        assert res.stderr("intercept") == pytest.approx(
            math.sqrt(s2 * (1 / n + xbar**2 / sxx)), rel=1e-10
        )

    def test_noisy_photon_slope_recovery(self):
        # synthetic linear sweep: slope 2*gamma1_a = 2pi x 1.64 MHz/photon,
        # per-point scatter 2pi x 215 kHz over n_a in [0, 1]
        slope_true = 2 * math.pi * 1.64e6
        intercept_true = 2 * math.pi * 3.08e6
        sigma = 2 * math.pi * 215e3
        n_a = np.linspace(0.0, 1.0, 30)
        master = np.random.SeedSequence(20260814)
        hits = 0
        for child in master.spawn(50):
            rng = np.random.Generator(np.random.PCG64(child))
            y = intercept_true + slope_true * n_a + sigma * rng.standard_normal(n_a.size)
            res = fitting.linear_fit(n_a, y)
            if abs(res.parameters["slope"] - slope_true) <= 2 * res.stderr("slope"):
                hits += 1
        assert hits >= 45


def floor_points():
    rng = np.random.default_rng(8)
    temps = 0.03 * 10.0 ** np.linspace(0.0, 1.0, 8)
    mus = (2e-29 + 1e-27 * temps ** 2.1) * (1.0 + 0.01 * rng.standard_normal(8))
    return list(zip(temps, mus))


def budget_floor_points(rng):
    """mu0 + a*T^(2+x) at 8 jittered temperatures over 30-300 mK with 1 %
    noise, drawn the way the budget_scan benchmark draws its floor inputs."""
    x = rng.uniform(-0.3, 0.3)
    mu0 = rng.uniform(1.0, 5.0) * 1e-29
    a = rng.uniform(20.0, 50.0) * mu0 / 0.3 ** (2 + x)
    temps = 0.03 * 10.0 ** (np.arange(8) / 7) * (1.0 + rng.uniform(-0.02, 0.02, 8))
    mus = (mu0 + a * temps ** (2 + x)) * (1.0 + 0.01 * rng.standard_normal(8))
    return list(zip(temps, mus))


def floor_problem(points):
    """(residuals, start, names) of mu0 + a*T^(2+x) posed as nonlinear
    least squares in (mu0, a, x), started from the x = 0 curve through the
    two end points."""
    temps, mus = np.array(sorted(points)).T
    a0 = (mus[-1] - mus[0]) / (temps[-1] ** 2 - temps[0] ** 2)
    mu00 = max(mus[0] - a0 * temps[0] ** 2, 0.0)

    def residuals(p):
        mu0, a, x = p
        return mu0 + a * temps ** (2 + x) - mus

    return residuals, [mu00, a0, 0.0], ("mu0", "a", "x")


class TestStoppingRule:
    """A row stops once one trial, accepted or not, moves it and changes
    its residual norm by less than the tolerance."""

    def test_noiseless_decay_trial_count(self, monkeypatch):
        # 7 accepted steps reach the exact decay from the closed-form
        # start; the rejected trials then raise the damping until a trial
        # moves the row by less than the tolerance.  Normal equations are
        # formed at the start, after each accepted step and for the
        # covariance.
        formed = []
        normal_equations = fitting._DecaySums.normal_equations

        def counting(self, q, rows):
            formed.append(len(rows))
            return normal_equations(self, q, rows)

        monkeypatch.setattr(fitting._DecaySums, "normal_equations", counting)
        t = np.linspace(0.0, 1.5, 25)
        fits = fitting.fit_decays(t, 0.05 + 0.9 * np.exp(-2.0 * t))
        trials, accepted = int(fits.n_iterations[0]), len(formed) - 2
        assert (trials, accepted) == (18, 7)
        assert fits.converged[0]
        assert fits.parameters[0] == pytest.approx([2.0, 0.9, 0.05], rel=1e-12)
