"""Nonlinear least squares: one row-batched Levenberg-Marquardt loop.

Every nonlinear fit runs through ``_levenberg_marquardt`` on one fixed,
reproducible schedule: Marquardt scaling of the damping term, initial
damping 1e-3, damping per row multiplied by 10 on a rejected step and
divided by 10 on an accepted one.  A row converges when its relative
step and relative residual change are both below 1e-10, or when its
step has collapsed.  The scaled step r = |D^1/2 step|, D = diag(J^T J),
bounds each |step_i| by r/sqrt(D_ii) and only shrinks as the damping
grows (More 1978, LNM 630), so once r/sqrt(D_ii) is below an eighth of
the spacing of q_i for every i, no later trial can move q, and the row
stops before its trial point is evaluated.  Where some q_i = 0 that
test cannot pass, and a row whose damping passes 1e30 counts as
collapsed instead.  A row stops after 200 trial steps either way.
Rows stop independently, a row whose fit cannot be formed is flagged
instead of raised, and no row's arithmetic depends on the others, so a
row fitted in a batch equals the same fit alone, bit for bit.  Two
Jacobian providers feed the loop: analytic sums for
offset + amplitude*exp(-rate*t) (``fit_decays``), and forward
differences of step max(1e-8, 1e-8*|q|) for any unconstrained row model
(``fit_rows``, and ``least_squares``, its batch of one).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, ModelDomainError, RankDeficiencyError

_REL_TOL = 1e-10
_MAX_ITER = 200
_DAMPING_0 = 1e-3
# a step bounded by this fraction of q's spacing leaves q unchanged: 1/2
# for rounding to nearest, halved again for the smaller spacing just
# below a power of two and again for rounding in the solve
_COLLAPSE_FRACTION = 0.125
DECAY_NAMES = ("rate", "amplitude", "offset")


@dataclass
class FitResult:
    """Fitted parameters with covariance and convergence diagnostics."""

    parameters: dict[str, float]
    covariance: np.ndarray
    param_names: tuple[str, ...]
    residual_norm: float
    n_iterations: int
    converged: bool

    def stderr(self, name: str) -> float:
        """1-sigma standard error of a named parameter."""
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))


@dataclass(frozen=True)
class Fits:
    """Row-wise results of one batched fit.

    ``parameters`` is (n, k) in ``param_names`` order and ``covariance``
    is (n, k, k).  ``formed`` is False for a row whose fit could not be
    formed, and its other entries are then meaningless; ``errors`` holds
    the ``FitError`` of each row the loop could not form, else None.
    """

    param_names: tuple[str, ...]
    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    formed: np.ndarray
    errors: tuple

    def stderr(self, name: str) -> np.ndarray:
        """1-sigma standard error of a named parameter, for every row."""
        i = self.param_names.index(name)
        return np.sqrt(np.maximum(self.covariance[:, i, i], 0.0))

    def result(self, i: int) -> FitResult:
        """Row ``i`` as a single-fit result."""
        return FitResult(
            parameters=dict(zip(self.param_names, map(float, self.parameters[i]))),
            covariance=self.covariance[i],
            param_names=self.param_names,
            residual_norm=float(self.residual_norm[i]),
            n_iterations=int(self.n_iterations[i]),
            converged=bool(self.converged[i]),
        )


def _stacked(func, matrices, *vectors):
    """Apply a stacked LAPACK call; singular rows come back NaN and flagged."""
    try:
        return func(matrices, *vectors), np.zeros(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full(vectors[0].shape if vectors else matrices.shape, np.nan)
        singular = np.zeros(len(matrices), dtype=bool)
        for i in range(len(matrices)):
            try:
                out[i] = func(matrices[i], *(v[i] for v in vectors))
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _levenberg_marquardt(provider, q, names) -> Fits:
    """Fit every row of the (n, k) start ``q`` through ``provider``.

    For the parameter rows ``q`` of batch rows ``rows`` the provider gives
    ``residuals(q, rows)``, an (r, m) array, and ``normal_equations(q,
    rows)``, J^T J and J^T r; ``norm(x)`` and ``variance(norm, dof)``
    reduce residual rows.  Raises RankDeficiencyError when m < k.
    """
    n, k = q.shape
    errors = np.full(n, None, dtype=object)
    n_trials = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    covariance = np.full((n, k, k), np.nan)

    def stop(mask, error=None):
        """Retire the working rows in ``mask`` at their current point."""
        nonlocal rows, qw, normw, damping, normal, grad, stale
        stopped = rows[mask]
        q[stopped], norm[stopped], n_trials[stopped] = qw[mask], normw[mask], trial
        errors[stopped] = error
        rows, qw, normw, damping, normal, grad, stale = (
            a[~mask] for a in (rows, qw, normw, damping, normal, grad, stale))

    with np.errstate(all="ignore"):
        rows, qw, trial = np.arange(n), q.copy(), 0
        residual = provider.residuals(q, rows)
        m, norm = residual.shape[1], provider.norm(residual)
        del residual  # (n, m): not worth holding through the loop
        if m < k:
            raise RankDeficiencyError(f"{m} residuals cannot constrain {k} parameters")
        normw, damping = norm.copy(), np.full(n, _DAMPING_0)
        normal, grad = np.empty((n, k, k)), np.empty((n, k))
        stale = np.ones(n, dtype=bool)
        stop(~(np.isfinite(q).all(axis=1) & np.isfinite(norm)),
             ModelDomainError("non-finite parameters or residuals at the start"))
        eye = np.eye(k)
        for trial in range(1, _MAX_ITER + 1):
            diag = normal.diagonal(axis1=1, axis2=2)
            if stale.any():
                # normal equations change only where a step was accepted
                s = slice(None) if stale.all() else np.flatnonzero(stale)
                normal[s], grad[s] = provider.normal_equations(qw[s], rows[s])
                stale[:] = False
                finite = np.isfinite(normal).all(axis=(1, 2))
                unusable = ~(finite & (diag > 0).all(axis=1))
                if unusable.any():
                    stop(unusable, [
                        RankDeficiencyError(f"parameter {names[int(np.argmin(d))]!r} "
                                            "has no effect on the residuals")
                        if ok else ModelDomainError("non-finite Jacobian")
                        for d, ok in zip(diag[unusable], finite[unusable])])
                    diag = normal.diagonal(axis1=1, axis2=2)
            if rows.size == 0:
                break
            step, singular = _stacked(
                np.linalg.solve, normal + damping[:, None, None] * (diag[:, :, None] * eye),
                -grad[:, :, None])
            step = step[:, :, 0]
            # a NaN step (singular row) never collapses
            reach = np.sqrt((diag * step**2).sum(axis=1))[:, None] / np.sqrt(diag)
            collapsed = (reach < _COLLAPSE_FRACTION * np.spacing(np.abs(qw))).all(axis=1)
            if singular.any():
                stop(singular, RankDeficiencyError("singular normal equations"))
                step, collapsed = step[~singular], collapsed[~singular]
            if collapsed.any():
                converged[rows[collapsed]] = True
                stop(collapsed)
                step = step[~collapsed]
            if rows.size == 0:
                break
            q_trial = qw + step
            norm_trial = provider.norm(provider.residuals(q_trial, rows))
            # a non-finite trial residual has a NaN or infinite norm
            accept = norm_trial < normw
            damping = np.where(accept, damping / 10.0, damping * 10.0)
            # only a rejected step takes damping past 1e30: a collapse the
            # check above cannot see where some q_i = 0
            done = damping > 1e30
            if accept.any():
                rel_dres = np.abs(normw - norm_trial) / np.maximum(normw, 1e-300)
                close = accept & ((rel_dres < _REL_TOL) | (norm_trial == 0.0))
                if close.any():
                    rel_step = provider.norm(step) / np.maximum(provider.norm(qw), 1e-300)
                    done |= close & ((rel_step < _REL_TOL) | (norm_trial == 0.0))
                np.copyto(qw, q_trial, where=accept[:, None])
                np.copyto(normw, norm_trial, where=accept)
                stale = accept
            if done.any():
                converged[rows[done]] = True
                stop(done)
        stop(np.ones(rows.size, dtype=bool))

        # covariance from the Jacobian at the final point
        rows = np.flatnonzero(np.equal(errors, None))
        if rows.size:
            normal = provider.normal_equations(q[rows], rows)[0]
            inverse, singular = _stacked(np.linalg.inv, normal)
            errors[rows[singular]] = RankDeficiencyError(
                "singular normal equations at the solution")
            variance = provider.variance(norm[rows], max(m - k, 1))
            covariance[rows] = variance[:, None, None] * inverse
    return Fits(param_names=tuple(names), parameters=q, covariance=covariance,
                residual_norm=norm, n_iterations=n_trials, converged=converged,
                formed=np.equal(errors, None), errors=tuple(errors))


@dataclass(frozen=True)
class _ForwardDifferences:
    """A row model with forward-difference Jacobians, all rows at once."""

    model: object

    @staticmethod
    def norm(x):
        # a BLAS dot per row, as np.linalg.norm of that row alone
        return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])

    @staticmethod
    def variance(norm, dof):
        # the scalar power: x**2 and x*x differ in the last bit on some inputs
        return np.array([v**2 / dof for v in norm.tolist()])

    def residuals(self, q, rows):
        return np.asarray(self.model(q, rows), dtype=float)

    def normal_equations(self, q, rows):
        residual = self.residuals(q, rows)
        jac = np.empty(residual.shape + (q.shape[1],))
        steps = np.maximum(1e-8, 1e-8 * np.abs(q))
        for i in range(q.shape[1]):
            shifted = q.copy()
            shifted[:, i] += steps[:, i]
            jac[:, :, i] = (self.residuals(shifted, rows) - residual) / steps[:, i, None]
        jac_t = jac.transpose(0, 2, 1)
        return jac_t @ jac, (jac_t @ residual[:, :, None])[:, :, 0]


def fit_rows(model, initial, *, names=None) -> Fits:
    """Minimize the sum of squared residuals of every row of a batch.

    ``initial`` holds the (n, k) starting parameter rows.  ``model(p,
    rows)`` must return the (r, m) residual rows for the parameter rows
    ``p`` (r, k) of batch rows ``rows``, indices into ``initial`` that
    shrink as rows stop.  ``names`` optionally labels the parameters.
    """
    q = np.array(np.atleast_2d(initial), dtype=float)
    names = tuple(f"p{i}" for i in range(q.shape[1])) if names is None else tuple(names)
    return _levenberg_marquardt(_ForwardDifferences(model), q, names)


def least_squares(model, initial, *, names=None) -> FitResult:
    """Minimize the sum of squared residuals of ``model``.

    ``model(p)`` must return the residual vector.  ``initial`` is the
    starting parameter vector; ``names`` optionally labels the
    parameters.

    Raises RankDeficiencyError when the normal equations are singular
    and ModelDomainError when the model returns non-finite residuals at
    the starting point.
    """
    fits = fit_rows(lambda p, rows: np.atleast_1d(model(p[0]))[None], initial,
                    names=names)
    if not fits.formed[0]:
        raise fits.errors[0]
    return fits.result(0)


def _row_dot(a, b):
    """Dot product of matching rows, without an (n, m) temporary."""
    return np.einsum("ij,ij->i", a, b)


def _decay_start(times, data):
    """Log-linear slope of the part above 5 % of each row's maximum.

    Falls back to 2/span where fewer than 3 points qualify or the slope
    is not negative; amplitude and offset start from the first point and
    the minimum.
    """
    offset = data.min(axis=1)
    decaying = data - offset[:, None]
    sel = decaying > np.maximum(decaying.max(axis=1) * 0.05, 1e-12)[:, None]
    count = sel.sum(axis=1)
    n = np.maximum(count, 1)[:, None]
    # centred abscissae and log ordinates of the selected points, 0 elsewhere
    x = np.where(sel, times, 0.0)
    y = np.log(decaying, where=sel, out=np.zeros_like(decaying))
    np.subtract(x, x.sum(axis=1, keepdims=True) / n, out=x, where=sel)
    np.subtract(y, y.sum(axis=1, keepdims=True) / n, out=y, where=sel)
    sxx = _row_dot(x, x)
    slope = _row_dot(x, y) / np.where(sxx > 0, sxx, 1.0)
    use_slope = (count >= 3) & (sxx > 0) & (slope < 0)
    rate = np.where(use_slope, -slope, 2.0 / times[:, -1])
    return np.stack([rate, data[:, 0] - offset, offset], axis=1)


class _DecaySums:
    """offset + amplitude*exp(-rate*t) on the rows of (times, data), with
    J^T J and J^T r summed from the analytic Jacobian columns
    (-amplitude*t*e, e, 1), e = exp(-rate*t), without forming J."""

    def __init__(self, times, data):
        self.times, self.data = times, data

    norm = staticmethod(lambda x: np.linalg.norm(x, axis=1))
    variance = staticmethod(lambda norm, dof: norm**2 / dof)

    def _rows(self, rows):
        # rows is ascending, so a full set is every row: no copy needed
        if len(rows) == len(self.times):
            return self.times, self.data
        return self.times[rows], self.data[rows]

    def residuals(self, q, rows):
        times, data = self._rows(rows)
        return q[:, 2:3] + q[:, 1:2] * np.exp(-q[:, 0:1] * times) - data

    def normal_equations(self, q, rows):
        times, data = self._rows(rows)
        amplitude = q[:, 1]
        envelope = np.exp(-q[:, 0:1] * times)
        residual = q[:, 2:3] + q[:, 1:2] * envelope - data
        weighted = times * envelope
        normal = np.empty((len(q), 3, 3))
        normal[:, 0, 0] = amplitude**2 * _row_dot(weighted, weighted)
        normal[:, 0, 1] = normal[:, 1, 0] = -amplitude * _row_dot(weighted, envelope)
        normal[:, 0, 2] = normal[:, 2, 0] = -amplitude * weighted.sum(axis=1)
        normal[:, 1, 1] = _row_dot(envelope, envelope)
        normal[:, 1, 2] = normal[:, 2, 1] = envelope.sum(axis=1)
        normal[:, 2, 2] = times.shape[1]
        grad = np.stack([-amplitude * _row_dot(weighted, residual),
                         _row_dot(envelope, residual), residual.sum(axis=1)], axis=1)
        return normal, grad


def fit_decays(times, data) -> Fits:
    """Fit offset + amplitude*exp(-rate*t) to every row of ``data`` at once.

    ``times`` and ``data`` are (n, m); the parameters come in
    ``DECAY_NAMES`` order.  A row without a finite covariance is not
    formed either, since it carries no error bar.
    """
    # C order keeps every row's sums in one order, whatever the batch
    times = np.ascontiguousarray(np.atleast_2d(times), dtype=float)
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=float)
    if times.shape != data.shape:
        raise ValueError("times and data must have the same shape")
    with np.errstate(all="ignore"):
        start = _decay_start(times, data)
    fits = _levenberg_marquardt(_DecaySums(times, data), start, DECAY_NAMES)
    return replace(fits, formed=fits.formed & np.isfinite(fits.covariance).all(axis=(1, 2)))


def linear_fit(x, y) -> FitResult:
    """Ordinary least squares of y = slope*x + intercept with standard errors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise DegenerateDataError("need at least 2 points")
    xbar = float(x.mean())
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateDataError("all abscissae are equal")
    ybar = float(y.mean())
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    norm = float(np.linalg.norm(resid))
    n = x.size
    s2 = norm**2 / max(n - 2, 1)
    var_slope = s2 / sxx
    var_intercept = s2 * (1.0 / n + xbar**2 / sxx)
    cov_si = -s2 * xbar / sxx
    cov = np.array([[var_slope, cov_si], [cov_si, var_intercept]])
    return FitResult(
        parameters={"slope": slope, "intercept": intercept},
        covariance=cov,
        param_names=("slope", "intercept"),
        residual_norm=norm,
        n_iterations=0,
        converged=True,
    )
