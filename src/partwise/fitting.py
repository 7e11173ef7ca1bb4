"""Per-region parameter estimation.

``RegionDesign`` is the one region-fitting kernel: ordinary least squares
for regression (one Cholesky solve of the cached Gram per mask) and
damped-Newton maximum likelihood for the logistic and probit links.
``fit_region`` fits one mask through it, and ``single_class_fit`` holds the
rule for single-class regions, which have no interior maximum.
``RegionDesign.fit_mask`` applies that rule to the intercept mask of such a
region and reports every other mask infeasible, so a single-class region's
menu is its one intercept fit.  The scan solves its least-squares segments
as one stack under the rank rule of the per-mask solve (``solve_spd_stack``).

Damped Newton has two entry points that share one set of rules (warm
start, the ridge switch at COND_LIMIT, step halving, NEWTON_TOL,
MAX_NEWTON_ITER): ``_newton_glm`` fits one design, and
``newton_glm_windows`` fits many row windows of one design at once, in
stacks of at most STACK_SLOTS padded rows, for the scan.
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
# Padded row slots (windows times the longest window) of one chunk of a
# stacked Newton solve: bounds its working arrays to a few hundred kB.
STACK_SLOTS = 8192


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
    ratio = max(max(d), scale) / low
    return L, ratio * ratio  # inf past the float range, as in _stack_cholesky


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


def _signed_nll(logistic, factor, t):
    """``(nll, log_cdf)`` at linear predictor ``t``.

    ``factor`` is ``1 - 2y`` for the logit link and ``2y - 1`` for the
    probit link, whose ``log_cdf = log_ndtr(factor * t)`` its gradient
    reuses (None for the logit link).
    """
    if logistic:
        return float(np.logaddexp(0.0, factor * t).sum()), None
    log_cdf = log_ndtr(factor * t)
    return -float(log_cdf.sum()), log_cdf


def _newton_glm(D, y, task, beta0=None, sign=None):
    """Damped Newton minimization of the masked-region Bernoulli NLL.

    Returns ``(beta, nll, converged, stabilized)``.  A ridge penalty
    ``RIDGE * ||beta||^2`` is added once the Hessian conditioning exceeds
    COND_LIMIT; the reported nll never includes the penalty.  Halving a
    rejected step stops once the trial point rounds back to ``beta``: every
    shorter step rounds there too, so no later trial could be accepted.
    ``sign`` (``2y - 1``) may be passed in by a caller that fits many masks
    of one region.
    """
    s = D.shape[1]
    if s == 0:
        return np.empty(0), classification_nll(task, np.zeros(y.size), y), True, False
    if sign is None:
        sign = 2.0 * y - 1.0
    logistic = task == TASK_LOGISTIC
    factor = -sign if logistic else sign
    beta = np.zeros(s) if beta0 is None else np.array(beta0, dtype=np.float64)
    ridge = None  # 2 * RIDGE * I, built once the penalty is on
    t = D @ beta
    nll, log_cdf = _signed_nll(logistic, factor, t)
    f = nll
    converged = False
    hessian_scale = 0.0
    for it in range(MAX_NEWTON_ITER):
        if logistic:
            g, H = logistic_grad_hess(D, y, t)
        else:
            g, H = probit_grad_hess(D, y, t, sign, log_cdf)
        if it == 0:
            hessian_scale = float(np.sqrt(np.diag(H).max()))
        if ridge is not None:
            g = g + 2.0 * RIDGE * beta
            H = H + ridge
        L, cond = _cholesky(H, hessian_scale)
        if ridge is None and cond > COND_LIMIT:
            ridge = 2.0 * RIDGE * np.eye(s)
            f = nll + RIDGE * float(beta @ beta)
            g = g + 2.0 * RIDGE * beta
            H = H + ridge
            L, cond = _cholesky(H, hessian_scale)
        if L is None:
            break
        step = dpotrs(L, g, lower=1)[0]
        beta_new = beta - step
        scale = 1.0
        accepted = False
        for _ in range(40):
            t_new = D @ beta_new
            nll_new, log_cdf_new = _signed_nll(logistic, factor, t_new)
            f_new = nll_new
            if ridge is not None:
                f_new += RIDGE * float(beta_new @ beta_new)
            if f_new < f:
                accepted = True
                break
            if (beta_new == beta).all():
                break
            scale *= 0.5
            beta_new = beta - scale * step
        if not accepted:
            converged = True
            break
        delta = f - f_new
        beta, t, f, nll, log_cdf = beta_new, t_new, f_new, nll_new, log_cdf_new
        if delta < NEWTON_TOL:
            converged = True
            break
    return beta, nll, converged, ridge is not None or not converged


def _stack_cholesky(H: np.ndarray, scale: np.ndarray):
    """``_cholesky`` over a stack of ``k x k`` matrices.

    The factor is written entry by entry, each entry a vector over the
    stack: ``L[i][j]`` holds entry ``(i, j)``, ``j <= i``, of every factor.
    Returns the factor, the condition estimates, and a flag that is False
    where a matrix is not numerically positive definite (its factor is then
    meaningless and its estimate ``inf``).
    """
    m, k, _ = H.shape
    A = H.transpose(1, 2, 0)
    L = [[None] * k for _ in range(k)]
    ok = np.ones(m, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for j in range(k):
            d = A[j, j]
            for p in range(j):
                d = d - L[j][p] * L[j][p]
            ok &= d > 0.0
            pivot = np.sqrt(np.where(ok, d, 1.0))
            L[j][j] = pivot
            for i in range(j + 1, k):
                v = A[i, j]
                for p in range(j):
                    v = v - L[i][p] * L[j][p]
                L[i][j] = v / pivot
        pivots = [L[j][j] for j in range(k)]
        low, high = np.minimum.reduce(pivots), np.maximum.reduce(pivots)
        cond = (np.maximum(high, scale) / low) ** 2
    cond[~ok] = np.inf
    return L, cond, ok


def _stack_solve(L: list, g: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = g`` for every factor of ``_stack_cholesky``."""
    k = g.shape[1]
    z = []
    for i in range(k):
        v = g[:, i]
        for p in range(i):
            v = v - L[i][p] * z[p]
        z.append(v / L[i][i])
    x = [None] * k
    for i in range(k - 1, -1, -1):
        v = z[i]
        for p in range(i + 1, k):
            v = v - L[p][i] * x[p]
        x[i] = v / L[i][i]
    return np.stack(x, axis=1)


def solve_spd_stack(G: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_solve_spd`` of each system ``G[i] x = c[i]``, as one stack.

    Returns ``(x, solved)``; ``solved`` is False where ``_solve_spd`` would
    raise, and ``x`` is meaningless there (computed without a warning).
    """
    L, cond, _ = _stack_cholesky(G, 0.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return _stack_solve(L, c), cond <= COND_LIMIT


def _stack_nll(logistic, factor, t, valid):
    """``(nll, log_cdf)`` of padded windows, as ``_signed_nll`` gives them
    one at a time, summed over the last axis; ``valid`` is 1 on a window's
    rows and 0 on its padding."""
    if logistic:
        # log(1 + e^x) as max(x, 0) + log1p(e^-|x|), the formula of
        # np.logaddexp(0, x) in vectorized operations (several times faster
        # than logaddexp, equal to it within an ulp).
        x = factor * t
        terms = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        return (terms * valid).sum(axis=-1), None
    log_cdf = log_ndtr(factor * t)
    return -(log_cdf * valid).sum(axis=-1), log_cdf


def _stack_grad_hess(logistic, D, y, sign, t, log_cdf):
    """Per-window gradient and Hessian, as ``logistic_grad_hess`` and
    ``probit_grad_hess`` (``sign`` is ``2y - 1``, read by the probit link
    only); padded rows are zero rows of ``D``."""
    if logistic:
        p = expit(t)
        r = p - y
        w = p * (1.0 - p)
    else:
        u = sign * t
        m = np.exp(-0.5 * u * u - _HALF_LOG_2PI - log_cdf)
        r = -sign * m
        w = m * (m + u)
    g = np.matmul(r[:, None, :], D)[:, 0, :]
    H = np.matmul(D.transpose(0, 2, 1) * w[:, None, :], D)
    return g, H


def stack_chunks(lengths: np.ndarray) -> list[np.ndarray]:
    """Windows grouped into the chunks of one stacked solve, by length.

    Windows are taken shortest first; each chunk holds as many as fit in
    STACK_SLOTS padded row slots (its window count times its longest
    window), and at least one.
    """
    order = np.argsort(lengths, kind="stable")
    sizes = lengths[order]
    chunks = []
    start = 0
    while start < sizes.size:
        rest = sizes[start:]
        fit = np.count_nonzero(np.arange(1, rest.size + 1) * rest <= STACK_SLOTS)
        stop = start + max(1, int(fit))
        chunks.append(order[start:stop])
        start = stop
    return chunks


def newton_glm_windows(D, y, task, lo, hi, beta0):
    """Damped Newton fits of many row windows ``[lo_i, hi_i)`` of one design.

    Every window is fitted under ``_newton_glm``'s rules from its own warm
    start ``beta0[i]``: the ridge switch at COND_LIMIT anchored to its
    first Hessian, up to 40 halvings that stop once the trial rounds back to
    beta, NEWTON_TOL and MAX_NEWTON_ITER.  Windows are padded to a common
    length in chunks of at most STACK_SLOTS row slots (``stack_chunks``);
    each Newton iteration takes batched products and a stacked Cholesky
    over a chunk's unconverged windows.  Returns ``(beta, nll, stabilized)``
    as arrays over the windows.  Each value agrees with ``_newton_glm``'s
    to rounding: sums run in a different order.
    """
    m, k = len(lo), D.shape[1]
    # Row n of the padded arrays is the padding row: a zero design row.
    D_pad = np.concatenate([D, np.zeros((1, k))])
    y_pad = np.concatenate([y, [0.0]])
    sign_pad = 2.0 * y_pad - 1.0
    out = (np.empty((m, k)), np.empty(m), np.zeros(m, dtype=bool))
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    beta0 = np.asarray(beta0, dtype=np.float64)
    for chunk in stack_chunks(hi - lo):
        _newton_stack(
            D_pad, y_pad, sign_pad, task, lo[chunk], hi[chunk], beta0[chunk], chunk, out
        )
    return out


def _newton_stack(D_pad, y_pad, sign_pad, task, lo, hi, beta, where, out):
    """One chunk of ``newton_glm_windows``; results go to ``out[.][where]``.

    Windows leave the stack as they finish.
    """
    logistic = task == TASK_LOGISTIC
    width = int((hi - lo).max())
    rows = lo[:, None] + np.arange(width)
    inside = rows < hi[:, None]
    rows = np.where(inside, rows, len(y_pad) - 1)
    D = D_pad[rows]
    y = y_pad[rows]
    factor = sign_pad[rows]
    if logistic:
        factor = -factor
    valid = inside.astype(np.float64)
    ridge = 2.0 * RIDGE * np.eye(D.shape[2])
    beta = beta.copy()
    t = np.matmul(D, beta[:, :, None])[:, :, 0]
    nll, log_cdf = _stack_nll(logistic, factor, t, valid)
    f = nll.copy()
    penalized = np.zeros(len(lo), dtype=bool)
    for it in range(MAX_NEWTON_ITER):
        g, H = _stack_grad_hess(logistic, D, y, factor, t, log_cdf)
        if it == 0:
            hessian_scale = np.sqrt(np.diagonal(H, axis1=1, axis2=2).max(axis=1))
        if penalized.any():
            g[penalized] += 2.0 * RIDGE * beta[penalized]
            H[penalized] += ridge
        L, cond, factored = _stack_cholesky(H, hessian_scale)
        start = ~penalized & (cond > COND_LIMIT)
        if start.any():
            penalized |= start
            b = beta[start]
            f[start] = nll[start] + RIDGE * np.einsum("ij,ij->i", b, b)
            g[start] += 2.0 * RIDGE * beta[start]
            H[start] += ridge
            L, cond, factored = _stack_cholesky(H, hessian_scale)
        step = _stack_solve(L, g)
        f_old = f.copy()
        accepted = _stack_line_search(
            logistic, D, factor, valid, step, penalized, factored,
            beta, t, nll, f, log_cdf,
        )
        # A rejected step ends the fit as converged, a failed factor as not.
        converged = factored & (~accepted | (f_old - f < NEWTON_TOL))
        done = converged | ~factored
        if it == MAX_NEWTON_ITER - 1:
            done[:] = True
        if not done.any():
            continue
        at = where[done]
        out[0][at] = beta[done]
        out[1][at] = nll[done]
        out[2][at] = penalized[done] | ~converged[done]
        keep = ~done
        if not keep.any():
            return
        where, D, y, factor, valid = (a[keep] for a in (where, D, y, factor, valid))
        beta, t, f, nll = beta[keep], t[keep], f[keep], nll[keep]
        if not logistic:
            log_cdf = log_cdf[keep]
        penalized, hessian_scale = penalized[keep], hessian_scale[keep]


def _stack_line_search(
    logistic, D, factor, valid, step, penalized, search, beta, t, nll, f, log_cdf
):
    """The step halvings of the windows flagged in ``search``, as in
    ``_newton_glm``.

    A window tries ``beta - 2^-r step`` for r = 0..39 and stops at the first
    trial whose objective is below ``f`` (accepted) or that rounds back to
    ``beta``; a trial that rounds back is never evaluated, since its
    objective is ``f``.  Halvings 0 and 1 are tried alone and the rest in
    one block, within STACK_SLOTS row slots.  An accepted trial is written
    over the window's ``beta``, ``t``, ``nll``, ``f`` and ``log_cdf``.
    Returns the accepted flags.
    """
    accepted = np.zeros(len(beta), dtype=bool)
    live = np.flatnonzero(search)
    width = D.shape[1]
    if live.size < len(beta):
        D, factor, valid = D[live], factor[live], valid[live]
    b, s, f0, pen = beta[live], step[live], f[live], penalized[live]
    r = 0
    while live.size and r < 40:
        fit = max(1, STACK_SLOTS // (live.size * width))
        halvings = min(1 if r < 2 else 40 - r, fit)
        scale = np.ldexp(1.0, -np.arange(r, r + halvings))
        trial = b[:, None, :] - scale[:, None] * s[:, None, :]
        back = (trial == b[:, None, :]).all(axis=2)
        # Only trials before every window's first round-back need evaluating.
        need = int(np.where(back.any(axis=1), back.argmax(axis=1), halvings).max())
        ok = np.zeros((live.size, halvings), dtype=bool)
        if need:
            t_trial = np.matmul(trial[:, :need], D.transpose(0, 2, 1))
            nll_trial, lc_trial = _stack_nll(
                logistic, factor[:, None, :], t_trial, valid[:, None, :]
            )
            obj = nll_trial
            if pen.any():
                evaluated = trial[:, :need]
                ridge = RIDGE * np.einsum("ihj,ihj->ih", evaluated, evaluated)
                obj = np.where(pen[:, None], nll_trial + ridge, nll_trial)
            ok[:, :need] = obj < f0[:, None]
        stop = ok | back
        first = stop.argmax(axis=1)
        ended = stop.any(axis=1)
        rows = np.arange(live.size)
        hit = ended & ok[rows, first]
        if hit.any():
            i, h, at = rows[hit], first[hit], live[hit]
            accepted[at] = True
            beta[at], t[at] = trial[i, h], t_trial[i, h]
            nll[at], f[at] = nll_trial[i, h], obj[i, h]
            if not logistic:
                log_cdf[at] = lc_trial[i, h]
        r += halvings
        go = ~ended
        if not go.all():
            live, b, s, f0, pen = live[go], b[go], s[go], f0[go], pen[go]
            D, factor, valid = D[go], factor[go], valid[go]
    return accepted


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
        else:
            self.sign = 2.0 * self.y - 1.0
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
        beta, nll, _conv, stab = _newton_glm(
            self.D[:, cols], self.y, self.task, sign=self.sign
        )
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
