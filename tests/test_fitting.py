"""Tests for the damped Gauss-Newton least-squares engine."""

import math
import pathlib

import numpy as np
import pytest

from thermoq import cavity, config, fitting, spectra, spectral
from thermoq.errors import DegenerateDataError, ModelDomainError, RankDeficiencyError


def test_linear_model_exact_data():
    x = np.linspace(0.0, 5.0, 20)
    y = 3.0 + 2.0 * x

    def residual(p):
        return y - (p[0] + p[1] * x)

    res = fitting.least_squares(residual, [0.0, 0.0], names=("intercept", "slope"))
    assert res.converged
    assert res.parameters["intercept"] == pytest.approx(3.0, abs=1e-12)
    assert res.parameters["slope"] == pytest.approx(2.0, abs=1e-12)
    assert res.residual_norm < 1e-10
    # quadratic objective: the damped schedule contracts the residual by
    # >= 1e3 per accepted step, so machine precision needs only a few
    assert res.n_iterations <= 10


def test_exponential_decay_matches_log_linear_oracle():
    rate = 2 * math.pi * 3.9e6
    t = np.linspace(0.0, 5e-7, 40)
    y = 0.97 * np.exp(-rate * t)

    def residual(p):
        return y - p[0] * np.exp(-p[1] * t)

    res = fitting.least_squares(residual, [1.0, 1.0 / 2e-7], names=("amp", "rate"))
    # independent oracle: ordinary least squares on log(y) is exact on
    # noiseless exponential data
    slope, intercept = np.polyfit(t, np.log(y), 1)
    assert res.parameters["rate"] == pytest.approx(-slope, rel=1e-8)
    assert res.parameters["amp"] == pytest.approx(math.exp(intercept), rel=1e-8)


def test_rank_deficiency_on_insensitive_parameter():
    y = np.ones(10)

    def residual(p):
        return y - (p[0] * 0.0 + 1.0)

    with pytest.raises(RankDeficiencyError):
        fitting.least_squares(residual, [1.0])


def test_non_finite_initial_residual():
    def residual(p):
        return np.array([math.nan, 0.0])

    with pytest.raises(ModelDomainError):
        fitting.least_squares(residual, [1.0])


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 2.0, 50)
    y = 1.3 * np.exp(-2.1 * x) + 0.01 * rng.standard_normal(x.size)
    perm = rng.permutation(x.size)

    def make_residual(xs, ys):
        return lambda p: ys - p[0] * np.exp(-p[1] * xs)

    res1 = fitting.least_squares(make_residual(x, y), [1.0, 1.0])
    res2 = fitting.least_squares(make_residual(x[perm], y[perm]), [1.0, 1.0])
    for name in res1.param_names:
        assert res1.parameters[name] == pytest.approx(res2.parameters[name], rel=1e-9)


def test_covariance_scales_quadratically_with_parameter_rescaling():
    rng = np.random.default_rng(7)
    x = np.linspace(0.5, 3.0, 40)
    y = 2.0 * x + 0.1 * rng.standard_normal(x.size)

    res1 = fitting.least_squares(lambda p: y - p[0] * x, [1.0])
    # reparametrize a -> a'/10: same model, parameter 10x larger
    res2 = fitting.least_squares(lambda p: y - (p[0] / 10.0) * x, [10.0])
    assert res2.parameters["p0"] == pytest.approx(10 * res1.parameters["p0"], rel=1e-8)
    assert res2.covariance[0, 0] == pytest.approx(100 * res1.covariance[0, 0], rel=1e-6)


RATE = 2 * math.pi * 3.9e6


def noisy_decays(n, n_averages, seed):
    """Shot-noise-limited relaxation traces over 3 decay constants each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rates = RATE * (1.0 + 0.05 * rng.standard_normal(n))
    times = np.linspace(0.0, 3.0 / rates, 25, axis=1)
    p = rng.binomial(n_averages, np.exp(-rates[:, None] * times)) / n_averages
    return times, p


class TestFitDecays:
    def test_rates_match_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        times, data = noisy_decays(64, 40_000, 3)
        fits = fitting.fit_decays(times, data)
        assert fits.formed.all() and fits.converged.all()
        for t, y, p, err in zip(times, data, fits.parameters, fits.stderr("rate")):
            def residual(q):
                return q[2] + q[1] * np.exp(-q[0] * t) - y

            def jacobian(q):
                e = np.exp(-q[0] * t)
                return np.stack([-q[1] * t * e, e, np.ones_like(t)], axis=1)

            ref = optimize.least_squares(residual, [1.0 / t[-1], 1.0, 0.0],
                                         jac=jacobian, method="lm", xtol=1e-15,
                                         ftol=1e-15, gtol=1e-15)
            assert ref.success
            assert p[0] == pytest.approx(ref.x[0], rel=1e-7)
            s2 = 2 * ref.cost / (t.size - 3)
            ref_err = math.sqrt(s2 * np.linalg.inv(ref.jac.T @ ref.jac)[0, 0])
            assert err == pytest.approx(ref_err, rel=1e-5)

    def test_matches_serial_least_squares(self):
        # the per-trace reference: same model, start and schedule, with
        # finite-difference Jacobians and one fit per trace
        times, data = noisy_decays(16, 400_000, 5)
        fits = fitting.fit_decays(times, data)
        starts = fitting._decay_start(times, data)
        for t, y, start, p in zip(times, data, starts, fits.parameters):
            ref = fitting.least_squares(
                lambda q: q[2] + q[1] * np.exp(-q[0] * t) - y, start)
            assert p[0] == pytest.approx(ref.parameters["p0"], rel=1e-8)

    def test_start_is_the_log_linear_slope(self):
        # the per-trace reference rule: slope of log(p - min) over the
        # points above 5 % of the maximum, else 2/span
        times, data = noisy_decays(32, 40, 6)
        data[0] = 0.5                           # flat: too few points
        data[1] = np.linspace(0.2, 0.9, 25)     # rising: slope not negative
        starts = fitting._decay_start(times, data)
        for t, y, start in zip(times, data, starts):
            decaying = y - y.min()
            sel = decaying > max(decaying.max() * 0.05, 1e-12)
            rate = 2.0 / t[-1]
            if sel.sum() >= 3:
                slope = fitting.linear_fit(
                    t[sel], np.log(decaying[sel])).parameters["slope"]
                rate = -slope if slope < 0 else rate
            assert start == pytest.approx([rate, y[0] - y.min(), y.min()],
                                          rel=1e-12, abs=1e-300)
        assert starts[0, 0] == 2.0 / times[0, -1]
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

    def test_singular_rows_of_a_stacked_solve(self):
        matrices = np.array([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
        out, singular = fitting._stacked(np.linalg.solve, matrices,
                                         np.ones((3, 3, 1)))
        assert singular.tolist() == [False, True, False]
        assert np.all(out[0] == 0.5) and np.all(out[2] == 1.0)
        assert np.all(np.isnan(out[1]))


class TestFitRows:
    def test_rows_equal_single_fits(self):
        # one batch of clean, rank-deficient and non-finite rows; each
        # row must equal least_squares on that row alone
        t = np.linspace(0.0, 1.0, 30)
        rng = np.random.default_rng(12)
        rates = np.array([3.0, 1.2, 2.5, 9.0, 3.0, 3.0, 5.8])
        data = 2.0 * np.exp(-rates[:, None] * t) + 0.3
        data += 0.02 * rng.standard_normal(data.shape)
        data[5, 4] = math.nan            # non-finite residual at the start
        starts = np.tile([1.0, 1.0, 0.0], (7, 1))
        starts[2, 2] = math.nan          # non-finite start
        starts[4, 0] = 0.0               # zero amplitude: the rate has no effect
        names = ("amplitude", "rate", "offset")

        def model(p, rows):
            return p[:, 0:1] * np.exp(-p[:, 1:2] * t) + p[:, 2:3] - data[rows]

        fits = fitting.fit_rows(model, starts, names=names)
        assert fits.formed.tolist() == [True, True, False, True, False, False, True]
        assert isinstance(fits.errors[2], ModelDomainError)
        assert isinstance(fits.errors[4], RankDeficiencyError)
        assert isinstance(fits.errors[5], ModelDomainError)
        assert len(set(fits.n_iterations[fits.formed].tolist())) > 1
        for i, y in enumerate(data):
            def single(p):
                return p[0] * np.exp(-p[1] * t) + p[2] - y

            if not fits.formed[i]:
                with pytest.raises(type(fits.errors[i])):
                    fitting.least_squares(single, starts[i], names=names)
                continue
            alone = fitting.least_squares(single, starts[i], names=names)
            row = fits.result(i)
            assert row.parameters == alone.parameters
            assert row.covariance.tobytes() == alone.covariance.tobytes()
            assert row.n_iterations == alone.n_iterations
            assert row.converged == alone.converged
            assert row.residual_norm == alone.residual_norm

    def test_rows_stop_independently(self):
        # row 0 converges in a few steps; row 1's residual exp(-p x) keeps
        # falling as p grows, so it uses every trial step unconverged
        x = np.linspace(1.0, 2.0, 5)
        data = np.array([np.exp(-2.0 * x), np.zeros(5)])
        fits = fitting.fit_rows(lambda p, rows: np.exp(-p * x) - data[rows],
                                [[1.0], [1.0]])
        assert fits.converged.tolist() == [True, False]
        assert fits.n_iterations[1] == fitting._MAX_ITER > fits.n_iterations[0]
        for i, y in enumerate(data):
            alone = fitting.least_squares(lambda p: np.exp(-p[0] * x) - y, [1.0])
            assert fits.result(i).parameters == alone.parameters
            assert fits.result(i).n_iterations == alone.n_iterations

    def test_too_few_residuals_raise_for_the_batch(self):
        with pytest.raises(RankDeficiencyError):
            fitting.fit_rows(lambda p, rows: p[:, :1] - 1.0, [[1.0, 2.0]] * 3)


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


SAMPLE = config.load_config(pathlib.Path(__file__).resolve().parent.parent / "sample.json")


def stark_sweep(port, noise=0.0):
    """A sample.json Stark sweep at alpha = 0.389 over 15 temperatures,
    heating one port."""
    circuit = SAMPLE.circuit
    rng = np.random.default_rng(0)
    kappas = (circuit.kappa_x, circuit.kappa_a, circuit.kappa_tot)
    points = []
    for temp in np.linspace(0.05, 1.5, 15):
        n = spectra.bose_occupation(circuit.omega_r, float(temp))
        n_x, n_a = (n, 0.0) if port == "readout" else (0.0, n)
        shift = cavity.ac_stark_shift(n_x, n_a, circuit.chi, kappas, 0.389)
        points.append(cavity.StarkSweepPoint(
            float(temp), shift * (1.0 + noise * rng.standard_normal())))
    return points


def floor_points():
    rng = np.random.default_rng(8)
    temps = 0.03 * 10.0 ** np.linspace(0.0, 1.0, 8)
    mus = (2e-29 + 1e-27 * temps ** 2.1) * (1.0 + 0.01 * rng.standard_normal(8))
    return list(zip(temps, mus))


def lm_batches(monkeypatch, fraction, fit):
    """Every batch the LM loop returns while ``fit()`` runs with the given
    collapse fraction; 0 never collapses, which is the old schedule."""
    batches, loop = [], fitting._levenberg_marquardt

    def recording(*args):
        batches.append(loop(*args))
        return batches[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_COLLAPSE_FRACTION", fraction)
        patch.setattr(fitting, "_levenberg_marquardt", recording)
        fit()
    return batches


class TestCollapseExit:
    """Stopping a row once its scaled step cannot move it ends the same
    fits as waiting for the damping to pass 1e30, bit for bit."""

    @pytest.mark.parametrize("fit", [
        lambda: cavity.calibrate_attenuation(stark_sweep("readout"), "readout",
                                             SAMPLE.circuit),
        lambda: cavity.calibrate_attenuation(stark_sweep("readout", noise=0.01),
                                             "readout", SAMPLE.circuit),
        lambda: cavity.calibrate_attenuation(stark_sweep("antenna", noise=0.01),
                                             "antenna", SAMPLE.circuit, alpha=0.389),
        lambda: spectral.fit_white_floor_vs_temp(floor_points()),
        lambda: fitting.fit_decays(*noisy_decays(1200, 400, 9)),
    ], ids=["readout", "noisy-readout", "antenna", "floor", "decays"])
    def test_same_fits_in_no_more_trials(self, monkeypatch, fit):
        old = lm_batches(monkeypatch, 0.0, fit)
        new = lm_batches(monkeypatch, fitting._COLLAPSE_FRACTION, fit)
        assert len(new) == len(old) > 0
        for a, b in zip(new, old):
            assert a.parameters.tobytes() == b.parameters.tobytes()
            assert a.covariance.tobytes() == b.covariance.tobytes()
            assert a.residual_norm.tobytes() == b.residual_norm.tobytes()
            assert np.array_equal(a.formed, b.formed)
            assert np.all(a.n_iterations <= b.n_iterations)
            assert np.all(a.converged >= b.converged)

    def test_noiseless_calibration_trial_count(self, monkeypatch):
        # 10 accepted steps reach alpha = 0.389; the rejected trials then
        # raise the damping from 1e-13 until the step collapses at 1e17,
        # where the old schedule waited for 1e30.  Normal equations are
        # formed at the start, after each accepted step and for the covariance.
        formed = []
        normal_equations = fitting._ForwardDifferences.normal_equations

        def counting(self, q, rows):
            formed.append(len(rows))
            return normal_equations(self, q, rows)

        monkeypatch.setattr(fitting._ForwardDifferences, "normal_equations", counting)

        def fit():
            formed.clear()
            result = cavity.calibrate_attenuation(stark_sweep("readout"), "readout",
                                                  SAMPLE.circuit)
            return result.n_iterations, len(formed) - 2, result.parameters["alpha"]

        trials, accepted, alpha = fit()
        assert (trials, accepted) == (41, 10)
        assert alpha == pytest.approx(0.389, rel=1e-12)
        monkeypatch.setattr(fitting, "_COLLAPSE_FRACTION", 0.0)
        assert fit() == (53, 10, alpha)
