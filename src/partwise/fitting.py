"""Per-region parameter estimation.

``RegionDesign`` is the one region-fitting kernel: ordinary least squares
for regression (one Cholesky solve of the cached Gram per mask) and
damped-Newton maximum likelihood for the logistic and probit links.
``fit_region`` fits one mask through it, and ``single_class_fit`` holds the
rule for single-class regions, which have no interior maximum.
``RegionDesign.fit_mask`` applies that rule to the intercept mask of such a
region and reports every other mask infeasible, so a single-class region's
menu is its one intercept fit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit, log_ndtr, ndtri

from .model import (
    TASK_LOGISTIC,
    TASK_REGRESSION,
    Dataset,
    RegionFit,
    SingularFitError,
)

# Newton solver controls.  Damping halves the step until the objective
# decreases; the ridge penalty enters only when the Hessian conditioning
# degrades past COND_LIMIT.
MAX_NEWTON_ITER = 100
NEWTON_TOL = 1e-10
RIDGE = 1e-6
COND_LIMIT = 1e12
DEGENERATE_CLIP = 1e-6


def full_design(data: Dataset, rows: np.ndarray) -> np.ndarray:
    """Design matrix ``(1, x_1, .., x_P)`` for the given rows.

    A C-contiguous copy gathered from ``data.design``.
    """
    return np.take(data.design, rows, axis=0)


def _cholesky(A: np.ndarray, scale: float = 0.0) -> tuple[np.ndarray | None, float]:
    """Lower Cholesky factor of ``A`` and a pivot-based condition estimate.

    The estimate is ``(max(largest pivot, scale) / smallest pivot)^2``.
    ``scale`` anchors it to the problem's natural scale, so a uniformly
    collapsing matrix (a flat likelihood under separation) still registers as
    ill conditioned.  Returns ``(None, inf)`` when ``A`` is not numerically
    positive definite.  LAPACK is called directly: only the lower triangle
    of the factor is meaningful, which is all ``dpotrs`` reads.
    """
    L, info = dpotrf(A, lower=1, clean=0)
    if info != 0:
        return None, math.inf
    d = L.diagonal().tolist()
    low = min(d)
    if low <= 0:
        return None, math.inf
    return L, (max(max(d), scale) / low) ** 2


def _solve_spd(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``G b = c`` for symmetric positive definite ``G``.

    Raises SingularFitError when ``G`` is not numerically positive definite
    or its Cholesky pivots indicate rank deficiency.
    """
    L, cond = _cholesky(G)
    if L is None or cond > COND_LIMIT:
        raise SingularFitError("rank-deficient design")
    return dpotrs(L, c, lower=1)[0]


# -- Bernoulli log-likelihoods ------------------------------------------


_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


def logistic_nll(t: np.ndarray, y: np.ndarray) -> float:
    """Negative log-likelihood of the logit link at linear predictor ``t``.

    Equals ``sum_i [log(1 + exp(t_i)) - y_i t_i]``; with 0/1 responses this
    is ``sum_i log(1 + exp(-sign_i t_i))`` for ``sign = 2y - 1``.
    """
    return float(np.sum(np.logaddexp(0.0, -(2.0 * y - 1.0) * t)))


def probit_nll(t: np.ndarray, y: np.ndarray) -> float:
    """Negative log-likelihood of the probit link, tail-safe."""
    return -float(np.sum(log_ndtr((2.0 * y - 1.0) * t)))


def logistic_grad_hess(D, y, t):
    p = expit(t)
    g = D.T @ (p - y)
    w = p * (1.0 - p)
    H = (D * w[:, None]).T @ D
    return g, H


def probit_grad_hess(D, y, t, sign=None, log_cdf=None):
    """Gradient and Hessian of the probit NLL at linear predictor ``t``.

    ``sign`` (``2y - 1``) and ``log_cdf`` (``log_ndtr(sign * t)``) may be
    passed in by a caller that already holds them.
    """
    # With u = sign*t and m = phi(u)/Phi(u): d(nll)/dt = -sign*m and
    # d2(nll)/dt2 = m*(m + u), covering both response values at once.  m is
    # computed in log space for tail stability.
    if sign is None:
        sign = 2.0 * y - 1.0
    u = sign * t
    if log_cdf is None:
        log_cdf = log_ndtr(u)
    m = np.exp(-0.5 * u * u - _HALF_LOG_2PI - log_cdf)
    g = D.T @ (-sign * m)
    w = m * (m + u)
    H = (D * w[:, None]).T @ D
    return g, H


def classification_nll(task: str, t: np.ndarray, y: np.ndarray) -> float:
    if task == TASK_LOGISTIC:
        return logistic_nll(t, y)
    return probit_nll(t, y)


def _newton_glm(D, y, task, beta0=None):
    """Damped Newton minimization of the masked-region Bernoulli NLL.

    Returns ``(beta, nll, converged, stabilized)``.  A ridge penalty
    ``RIDGE * ||beta||^2`` is added once the Hessian conditioning exceeds
    COND_LIMIT; the reported nll never includes the penalty.  Halving a
    rejected step stops once the trial point rounds back to ``beta``: every
    shorter step rounds there too, so no later trial could be accepted.
    """
    s = D.shape[1]
    if s == 0:
        return np.empty(0), classification_nll(task, np.zeros(y.size), y), True, False
    sign = 2.0 * y - 1.0
    if task == TASK_LOGISTIC:
        neg_sign = -sign

        def nll_at(t):
            return float(np.logaddexp(0.0, neg_sign * t).sum()), None

        def grad_hess(t, _log_cdf):
            return logistic_grad_hess(D, y, t)

    else:

        def nll_at(t):
            log_cdf = log_ndtr(sign * t)
            return -float(log_cdf.sum()), log_cdf

        def grad_hess(t, log_cdf):
            return probit_grad_hess(D, y, t, sign, log_cdf)

    beta = np.zeros(s) if beta0 is None else np.array(beta0, dtype=np.float64)
    penalized = False
    t = D @ beta
    nll, log_cdf = nll_at(t)
    f = nll
    converged = False
    hessian_scale = 0.0
    for it in range(MAX_NEWTON_ITER):
        g, H = grad_hess(t, log_cdf)
        if it == 0:
            hessian_scale = float(np.sqrt(np.diag(H).max()))
        if penalized:
            g = g + 2.0 * RIDGE * beta
            H = H + 2.0 * RIDGE * np.eye(s)
        L, cond = _cholesky(H, hessian_scale)
        if not penalized and cond > COND_LIMIT:
            penalized = True
            f = nll + RIDGE * float(beta @ beta)
            g = g + 2.0 * RIDGE * beta
            H = H + 2.0 * RIDGE * np.eye(s)
            L, cond = _cholesky(H, hessian_scale)
        if L is None:
            break
        step = dpotrs(L, g, lower=1)[0]
        scale = 1.0
        accepted = False
        for _ in range(40):
            beta_new = beta - scale * step
            t_new = D @ beta_new
            nll_new, log_cdf_new = nll_at(t_new)
            f_new = nll_new
            if penalized:
                f_new += RIDGE * float(beta_new @ beta_new)
            if f_new < f:
                accepted = True
                break
            if (beta_new == beta).all():
                break
            scale *= 0.5
        if not accepted:
            converged = True
            break
        delta = f - f_new
        beta, t, f, nll, log_cdf = beta_new, t_new, f_new, nll_new, log_cdf_new
        if delta < NEWTON_TOL:
            converged = True
            break
    return beta, nll, converged, penalized or not converged


def single_class_fit(task: str, y: np.ndarray) -> tuple[float, float]:
    """Intercept and NLL of a region whose responses are all 0 or all 1.

    Such a region has no interior maximum-likelihood estimate, so its fit is
    intercept-only at the observed class's probability clipped to
    ``[DEGENERATE_CLIP, 1 - DEGENERATE_CLIP]``.
    """
    p = float(np.clip(y[0], DEGENERATE_CLIP, 1.0 - DEGENERATE_CLIP))
    if task == TASK_LOGISTIC:
        b0 = float(np.log(p / (1.0 - p)))
    else:
        b0 = float(ndtri(p))
    return b0, classification_nll(task, np.full(y.size, b0), y)


class RegionDesign:
    """Cached per-region design for enumerating variable masks.

    A mask is given by the design columns it selects (column 0 is the
    intercept).  For regression the Gram matrix is formed once, so each
    mask costs one small Cholesky solve.  A classification
    region with a single class (``single_class``) has one fit, the
    intercept-only fit of :func:`single_class_fit`; every other mask is
    infeasible there.
    """

    def __init__(self, data: Dataset, rows: np.ndarray, task: str):
        self.task = task
        self.rows = rows
        self.n_r = int(rows.size)
        self.D = full_design(data, rows)
        self.y = data.y[rows]
        if task == TASK_REGRESSION:
            self.G = self.D.T @ self.D
            self.c = self.D.T @ self.y
            self.yty = float(self.y @ self.y)
        self.single_class = (
            task != TASK_REGRESSION and self.n_r > 0 and self.y.min() == self.y.max()
        )

    def fit_mask(self, cols: np.ndarray, ix: tuple):
        """``(beta, fit_stat, stabilized)`` for the mask selecting design
        columns ``cols``, or None if the mask is infeasible.

        ``ix`` is ``np.ix_(cols, cols)``, built once per mask by the caller.
        """
        if self.task == TASK_REGRESSION:
            if cols.size == 0:
                return np.empty(0), self.yty, False
            if cols.size > self.n_r:
                return None
            try:
                beta = _solve_spd(self.G[ix], self.c[cols])
            except SingularFitError:
                return None
            rss = max(self.yty - float(beta @ self.c[cols]), 0.0)
            return beta, rss, False
        if self.single_class:
            if cols.tolist() != [0]:
                return None
            b0, nll = single_class_fit(self.task, self.y)
            return np.array([b0]), nll, True
        beta, nll, _conv, stab = _newton_glm(self.D[:, cols], self.y, self.task)
        return beta, nll, stab


def fit_region(
    data: Dataset, rows: np.ndarray, mask: np.ndarray, task: str
) -> RegionFit:
    """Fit the masked submodel (index 0 = intercept) on one region's rows.

    ``fit_stat`` is the residual sum of squares for regression and the
    negative log-likelihood for the binary links.  Raises SingularFitError
    when a regression design is rank deficient or has more columns than
    rows.  A single-class region returns its intercept-only fit, flagged
    ``stabilized``, whatever ``mask`` asks for.
    """
    data.validate_task(task)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("rows must be nonempty")
    mask = np.asarray(mask, dtype=bool)
    design = RegionDesign(data, rows, task)
    if design.single_class:
        mask = np.zeros(data.P + 1, dtype=bool)
        mask[0] = True
    cols = np.flatnonzero(mask)
    res = design.fit_mask(cols, np.ix_(cols, cols))
    if res is None:
        raise SingularFitError("rank-deficient design")
    beta, stat, stabilized = res
    return RegionFit(mask, beta, stat, stabilized=stabilized)
