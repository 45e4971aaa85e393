"""Shared nonlinear least-squares engine (damped Gauss-Newton).

Levenberg-Marquardt with a fixed, reproducible schedule: Marquardt
scaling of the damping term, damping multiplied by 10 on a rejected
step and divided by 10 on an accepted one, initial damping 1e-3
relative to the diagonal of the normal matrix.  Convergence when the
relative step and the relative residual change are both below 1e-10,
or after 200 trial steps.  Jacobians by forward finite differences
with step max(1e-8, 1e-8*|p|).  Box bounds are supported through a
logistic parameter transform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ModelDomainError, RankDeficiencyError

_REL_TOL = 1e-10
_MAX_ITER = 200
_DAMPING_0 = 1e-3


@dataclass
class FitResult:
    """Fitted parameters with covariance and convergence diagnostics."""

    parameters: dict[str, float]
    covariance: np.ndarray
    param_names: tuple[str, ...]
    residual_norm: float
    n_iterations: int
    converged: bool
    accepted_residual_norms: tuple[float, ...] = ()

    def stderr(self, name: str) -> float:
        """1-sigma standard error of a named parameter."""
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))


def _logistic(q: float) -> float:
    """Overflow-safe logistic: evaluates the saturating branch directly."""
    if q >= 0:
        return 1.0 / (1.0 + math.exp(-min(q, 700.0)))
    eq = math.exp(max(q, -700.0))
    return eq / (1.0 + eq)


class _BoundTransform:
    """Map unbounded internal coordinates to box-bounded parameters.

    p = lo + (hi - lo) * logistic(q) for bounded entries, identity
    otherwise.  Covariances are mapped back by the delta method.
    """

    def __init__(self, bounds, n):
        self.bounds = list(bounds) if bounds is not None else [None] * n
        if len(self.bounds) != n:
            raise ValueError("bounds must have one entry per parameter")

    def to_external(self, q):
        p = np.array(q, dtype=float)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                p[i] = lo + (hi - lo) * _logistic(q[i])
        return p

    def to_internal(self, p):
        q = np.array(p, dtype=float)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                frac = np.clip((p[i] - lo) / (hi - lo), 1e-10, 1 - 1e-10)
                q[i] = np.log(frac / (1.0 - frac))
        return q

    def jacobian_diag(self, q):
        d = np.ones_like(q)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                s = _logistic(q[i])
                d[i] = (hi - lo) * s * (1.0 - s)
        return d


def _finite_difference_jacobian(func, p, r0):
    n, k = r0.size, p.size
    jac = np.empty((n, k))
    for i in range(k):
        step = max(1e-8, 1e-8 * abs(p[i]))
        pi = p.copy()
        pi[i] += step
        ri = func(pi)
        jac[:, i] = (ri - r0) / step
    return jac


def least_squares(model, initial, *, names=None, bounds=None,
                  max_iter=_MAX_ITER) -> FitResult:
    """Minimize the sum of squared residuals of ``model``.

    ``model(p)`` must return the residual vector.  ``initial`` is the
    starting parameter vector; ``names`` optionally labels the
    parameters; ``bounds`` is an optional per-parameter list of (lo, hi)
    or None.

    Raises RankDeficiencyError when the normal equations are singular
    and ModelDomainError when the model returns non-finite residuals at
    the starting point.
    """
    p0 = np.atleast_1d(np.asarray(initial, dtype=float))
    if not np.all(np.isfinite(p0)):
        raise ModelDomainError("initial parameters must be finite")
    k = p0.size
    if names is None:
        names = tuple(f"p{i}" for i in range(k))
    names = tuple(names)

    transform = _BoundTransform(bounds, k)
    func_q = lambda q: np.atleast_1d(
        np.asarray(model(transform.to_external(q)), dtype=float))

    q = transform.to_internal(p0)
    r = func_q(q)
    if not np.all(np.isfinite(r)):
        raise ModelDomainError("model returned non-finite residuals at the initial point")
    if r.size < k:
        raise RankDeficiencyError(
            f"{r.size} residuals cannot constrain {k} parameters"
        )

    norm = float(np.linalg.norm(r))
    accepted = [norm]
    damping = _DAMPING_0
    converged = False
    n_trials = 0
    jac = None

    while n_trials < max_iter:
        if jac is None:
            jac = _finite_difference_jacobian(func_q, q, r)
            if not np.all(np.isfinite(jac)):
                raise ModelDomainError("non-finite Jacobian")
            normal = jac.T @ jac
            grad = jac.T @ r
            diag = np.diag(normal).copy()
            if np.any(diag <= 0):
                bad = names[int(np.argmin(diag))]
                raise RankDeficiencyError(
                    f"parameter {bad!r} has no effect on the residuals"
                )
        n_trials += 1
        try:
            step = np.linalg.solve(normal + damping * np.diag(diag), -grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError("singular normal equations") from exc
        q_trial = q + step
        r_trial = func_q(q_trial)
        norm_trial = float(np.linalg.norm(r_trial))
        if np.all(np.isfinite(r_trial)) and norm_trial < norm:
            rel_step = np.linalg.norm(step) / max(np.linalg.norm(q), 1e-300)
            rel_dres = abs(norm - norm_trial) / max(norm, 1e-300)
            q, r, norm = q_trial, r_trial, norm_trial
            accepted.append(norm)
            damping = max(damping / 10.0, 1e-300)
            jac = None
            if (rel_step < _REL_TOL and rel_dres < _REL_TOL) or norm == 0.0:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e30:
                # step size has collapsed to nothing: treat as converged
                # to the current point
                converged = True
                break

    # covariance from the Jacobian at the final point
    jac = _finite_difference_jacobian(func_q, q, r)
    normal = jac.T @ jac
    dof = max(r.size - k, 1)
    s2 = norm**2 / dof
    try:
        cov_q = s2 * np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular normal equations at the solution") from exc

    g = transform.jacobian_diag(q)
    cov = cov_q * np.outer(g, g)
    p = transform.to_external(q)
    return FitResult(
        parameters=dict(zip(names, map(float, p))),
        covariance=cov,
        param_names=names,
        residual_norm=norm,
        n_iterations=n_trials,
        converged=converged,
        accepted_residual_norms=tuple(accepted),
    )


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
