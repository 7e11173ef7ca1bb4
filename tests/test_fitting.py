import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrs
from scipy.special import expit, log_ndtr, ndtr

from partwise import Dataset, SingularFitError, fit_region
from partwise.fitting import (
    COND_LIMIT,
    MAX_NEWTON_ITER,
    NEWTON_TOL,
    RIDGE,
    STACK_SLOTS,
    RegionDesign,
    _cholesky,
    _newton_glm,
    _solve_spd,
    full_design,
    logistic_grad_hess,
    logistic_nll,
    newton_glm_windows,
    probit_grad_hess,
    probit_nll,
    single_class_fit,
    stack_chunks,
)
from partwise.simulate import SETTINGS, generate

LOG2 = float(np.log(2.0))
LINKS = [
    pytest.param("logistic", id="logistic-fit_logistic"),
    pytest.param("probit", id="probit-fit_probit"),
]


def all_rows(d):
    return np.arange(d.n)


def full_mask(d):
    return np.ones(d.P + 1, dtype=bool)


class TestOls:
    def test_exact_interpolation(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        fit = fit_region(d, all_rows(d), full_mask(d), "regression")
        assert fit.beta == pytest.approx([1.0, 2.0], abs=1e-12)
        assert fit.fit_stat == pytest.approx(0.0, abs=1e-12)

    def test_intercept_only_is_mean(self):
        rng = np.random.default_rng(2)
        y = rng.normal(3.0, 1.0, 25)
        d = Dataset(rng.uniform(0, 1, (25, 2)), y)
        mask = np.array([True, False, False])
        fit = fit_region(d, all_rows(d), mask, "regression")
        assert fit.beta == pytest.approx([y.mean()], rel=1e-12)
        assert fit.fit_stat == pytest.approx(float(np.sum((y - y.mean()) ** 2)))

    def test_empty_mask(self):
        y = np.array([1.0, 2.0, -1.0])
        d = Dataset(np.zeros((3, 1)) + [[0.1], [0.2], [0.3]], y)
        fit = fit_region(d, all_rows(d), np.array([False, False]), "regression")
        assert fit.s == 0
        assert fit.fit_stat == pytest.approx(float(y @ y))

    def test_frozen_normal_equations_oracle(self):
        # Expected values computed once with an independent raw-design
        # least-squares solve (numpy lstsq) and frozen here.
        rng = np.random.default_rng(20240811)
        X = rng.uniform(-2.0, 3.0, (12, 3))
        beta_true = np.array([1.5, -0.5, 2.0, 0.25])
        y = beta_true[0] + X @ beta_true[1:] + rng.normal(0, 0.5, 12)
        d = Dataset(X, y)
        fit = fit_region(d, all_rows(d), full_mask(d), "regression")
        expected_beta = [
            1.6892797469163254,
            -0.5553674491316951,
            1.8143899305794784,
            0.25388121622525994,
        ]
        expected_rss = 2.552991730728871
        assert fit.beta == pytest.approx(expected_beta, abs=1e-8)
        assert fit.fit_stat == pytest.approx(expected_rss, abs=1e-8)

    def test_singular_design_raises(self):
        X = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 1, 10)])
        d = Dataset(X, np.arange(10.0))
        with pytest.raises(SingularFitError):
            fit_region(d, all_rows(d), full_mask(d), "regression")

    def test_underdetermined_raises(self):
        d = Dataset(np.random.default_rng(0).uniform(0, 1, (2, 3)), np.zeros(2))
        with pytest.raises(SingularFitError):
            fit_region(d, np.array([0, 1]), full_mask(d), "regression")

    def test_residual_orthogonality_random(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(12, 40))
            X = rng.normal(0, 2, (n, 3))
            y = rng.normal(0, 3, n)
            d = Dataset(X, y)
            fit = fit_region(d, all_rows(d), full_mask(d), "regression")
            D = full_design(d, all_rows(d))[:, fit.mask]
            resid = y - D @ fit.beta
            assert np.abs(D.T @ resid).max() < 1e-6 * np.linalg.norm(y)

    def test_nesting_monotonicity(self):
        for seed in range(15):
            rng = np.random.default_rng(seed + 100)
            X = rng.normal(0, 1, (30, 3))
            y = rng.normal(0, 1, 30)
            d = Dataset(X, y)
            small = np.array([True, True, False, False])
            big = np.array([True, True, True, False])
            f_small = fit_region(d, all_rows(d), small, "regression")
            f_big = fit_region(d, all_rows(d), big, "regression")
            assert f_big.fit_stat <= f_small.fit_stat + 1e-9


class TestLogistic:
    def test_empty_mask_null_deviance(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(0, 1, (40, 2)), (rng.random(40) < 0.5).astype(float))
        fit = fit_region(d, all_rows(d), np.zeros(3, dtype=bool), "logistic")
        assert fit.fit_stat == pytest.approx(40 * LOG2, rel=1e-12)

    def test_separated_region_stabilized(self):
        X = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = (X[:, 0] > 0).astype(float)
        d = Dataset(X, y)
        fit = fit_region(d, all_rows(d), np.array([True, True]), "logistic")
        assert fit.stabilized
        assert np.isfinite(fit.fit_stat)
        assert fit.fit_stat < 30 * LOG2

    def test_constant_response_degenerates(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(0, 1, (20, 2)), np.ones(20))
        fit = fit_region(d, all_rows(d), full_mask(d), "logistic")
        assert fit.mask.tolist() == [True, False, False]
        assert fit.stabilized
        assert 0 <= fit.fit_stat < 1e-3

    @pytest.mark.parametrize("task", ["logistic", "probit"])
    def test_single_class_design_fits_only_the_intercept(self, task):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(0, 1, (20, 2)), np.zeros(20))
        design = RegionDesign(d, all_rows(d), task)
        assert design.single_class
        for mask_int in range(1 << (d.P + 1)):
            cols = np.array([i for i in range(d.P + 1) if mask_int >> i & 1], dtype=np.int64)
            res = design.fit_mask(cols, np.ix_(cols, cols))
            if mask_int == 1:
                assert res[0].size == 1 and res[2]
            else:
                assert res is None
        for mask in (np.zeros(3, dtype=bool), full_mask(d)):
            fit = fit_region(d, all_rows(d), mask, task)
            assert fit.mask.tolist() == [True, False, False]
            assert fit.beta.tolist() == [single_class_fit(task, design.y)[0]]
            assert fit.stabilized

    def test_frozen_optimizer_oracle(self):
        # Expected optimum computed once with an independent backtracking
        # gradient-descent maximizer and frozen here.
        rng = np.random.default_rng(77)
        Xc = rng.normal(0, 1.5, (50, 2))
        bt = np.array([0.3, 1.2, -0.8])
        t = bt[0] + Xc @ bt[1:]
        y = (rng.random(50) < expit(t)).astype(float)
        d = Dataset(Xc, y)
        fit = fit_region(d, all_rows(d), full_mask(d), "logistic")
        assert fit.fit_stat == pytest.approx(28.4285073146989, abs=1e-6)
        assert fit.beta == pytest.approx(
            [0.1075439844567035, 0.5416082177429485, -0.613456768848759],
            abs=1e-4,
        )


class TestProbit:
    def test_null_value(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(0, 1, (32, 2)), (rng.random(32) < 0.5).astype(float))
        fit = fit_region(d, all_rows(d), np.zeros(3, dtype=bool), "probit")
        assert fit.fit_stat == pytest.approx(32 * LOG2, rel=1e-12)

    def test_normal_cdf_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_frozen_optimizer_oracle(self):
        rng = np.random.default_rng(99)
        Xp = rng.normal(0, 1.0, (50, 2))
        bt = np.array([-0.2, 0.9, 0.6])
        tp = bt[0] + Xp @ bt[1:]
        y = (rng.random(50) < ndtr(tp)).astype(float)
        d = Dataset(Xp, y)
        fit = fit_region(d, all_rows(d), full_mask(d), "probit")
        assert fit.fit_stat == pytest.approx(25.642897683446336, abs=1e-6)
        assert fit.beta == pytest.approx(
            [-0.22552310627223365, 0.8761956557806169, 0.6383308872285255],
            abs=1e-4,
        )


def _fd_gradient(fun, beta, eps=1e-6):
    g = np.zeros_like(beta)
    for i in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (fun(up) - fun(dn)) / (2 * eps)
    return g


@pytest.mark.parametrize("link", ["logistic", "probit"])
def test_gradient_matches_finite_differences(link):
    nll = logistic_nll if link == "logistic" else probit_nll
    grad_hess = logistic_grad_hess if link == "logistic" else probit_grad_hess
    for seed in range(10):
        rng = np.random.default_rng(seed)
        D = np.column_stack([np.ones(30), rng.normal(0, 1, (30, 2))])
        y = (rng.random(30) < 0.5).astype(float)
        beta = rng.normal(0, 0.8, 3)
        g, _ = grad_hess(D, y, D @ beta)
        fd = _fd_gradient(lambda b: nll(D @ b, y), beta)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(g - fd) / denom < 1e-5


@pytest.mark.parametrize("link", LINKS)
def test_fit_never_worse_than_null(link):
    for seed in range(12):
        rng = np.random.default_rng(seed + 40)
        X = rng.normal(0, 1.5, (25, 3))
        y = (rng.random(25) < 0.4).astype(float)
        d = Dataset(X, y)
        mask = np.array([True, True, False, True])
        fit = fit_region(d, all_rows(d), mask, link)
        assert fit.fit_stat <= 25 * LOG2 + 1e-9


@pytest.mark.parametrize("link", LINKS)
def test_classification_nesting_monotonicity(link):
    for seed in range(8):
        rng = np.random.default_rng(seed + 77)
        X = rng.normal(0, 1, (40, 3))
        t = 0.5 * X[:, 0] - 0.3 * X[:, 2]
        y = (rng.random(40) < expit(t)).astype(float)
        d = Dataset(X, y)
        small = np.array([True, True, False, False])
        big = np.array([True, True, True, False])
        f_small = fit_region(d, all_rows(d), small, link)
        f_big = fit_region(d, all_rows(d), big, link)
        assert f_big.fit_stat <= f_small.fit_stat + 1e-6


# -- the LAPACK-direct Cholesky against the rule it replaced -----------------


def _reference_cholesky(A, scale=0.0):
    """``np.linalg.cholesky`` plus the pivot-ratio condition estimate."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None, np.inf
    d = np.diag(L)
    if d.min() <= 0:
        return None, np.inf
    return L, float((max(float(d.max()), scale) / d.min()) ** 2)


def _reference_solve(A, b, scale=0.0):
    """Accepted solution of ``A x = b`` by the reference rule, or None."""
    L, cond = _reference_cholesky(A, scale)
    if L is None or cond > COND_LIMIT:
        return None
    return cho_solve((L, True), b)


def _helper_solve(A, b, scale=0.0):
    L, cond = _cholesky(A, scale)
    if L is None or cond > COND_LIMIT:
        return None
    return dpotrs(L, b, lower=1)[0]


def _with_pivots(pivots, seed):
    """SPD matrix ``L L'`` whose Cholesky pivots are ``pivots``."""
    rng = np.random.default_rng(seed)
    k = len(pivots)
    L = np.tril(rng.normal(0, 1, (k, k)), -1) * 1e-3 + np.diag(pivots)
    return L @ L.T


def _spd_cases():
    rng = np.random.default_rng(2024)
    for i in range(300):
        k = 1 + i % 6
        D = rng.normal(0, 1, (k + int(rng.integers(0, 30)), k))
        D *= rng.uniform(1e-2, 1e2, k)
        w = rng.uniform(0.01, 1.0, D.shape[0])
        yield (D * w[:, None]).T @ D, rng.normal(0, 1, k)


class TestCholeskyHelper:
    """Numpy and scipy may each link their own LAPACK build; their factors
    agree to rounding, so solutions match to a relative 1e-10 and every
    accept/reject decision away from the limit matches exactly."""

    def test_spd_matrices(self):
        for A, b in _spd_cases():
            want = _reference_solve(A, b)
            got = _helper_solve(A, b)
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_condition_limit_boundary(self, side, k):
        low = 1.0 / np.sqrt(COND_LIMIT * side)
        A = _with_pivots([1.0] * (k - 1) + [low], seed=k)
        b = np.arange(1.0, k + 1.0)
        _, cond = _cholesky(A)
        assert cond == pytest.approx(_reference_cholesky(A)[1], rel=1e-12)
        assert (cond > COND_LIMIT) == (side > 1.0)
        want = _reference_solve(A, b)
        got = _helper_solve(A, b)
        assert (got is None) == (want is None) == (side > 1.0)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_scale_anchors_the_estimate(self, side):
        # Uniformly small pivots register as ill conditioned only through
        # the anchoring scale, as for a collapsing Newton Hessian.
        A = np.eye(3) * 1e-8
        scale = 1e-4 * np.sqrt(COND_LIMIT * side)
        _, cond = _cholesky(A, scale)
        assert cond == pytest.approx(_reference_cholesky(A, scale)[1], rel=1e-12)
        assert (cond > COND_LIMIT) == (side > 1.0)
        assert _cholesky(A)[1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            -np.eye(3),  # negative definite
            np.diag([1.0, 0.0, 2.0]),  # singular
            np.ones((3, 3)),  # rank one
        ],
    )
    def test_not_positive_definite(self, A):
        assert _reference_cholesky(A) == (None, np.inf)
        assert _cholesky(A) == (None, np.inf)
        with pytest.raises(SingularFitError):
            _solve_spd(A, np.ones(A.shape[0]))


# -- the damped-Newton solver against the loop it was tuned from -------------


def _reference_grad_hess(task, D, y, t):
    if task == "logistic":
        p = expit(t)
        return D.T @ (p - y), (D * (p * (1.0 - p))[:, None]).T @ D
    sign = 2.0 * y - 1.0
    u = sign * t
    m = np.exp(-0.5 * u * u - 0.5 * float(np.log(2.0 * np.pi)) - log_ndtr(u))
    return D.T @ (-sign * m), (D * (m * (m + u))[:, None]).T @ D


def _reference_nll(task, t, y):
    if task == "logistic":
        return float(np.sum(np.logaddexp(0.0, -(2.0 * y - 1.0) * t)))
    return -float(np.sum(log_ndtr((2.0 * y - 1.0) * t)))


def reference_newton(D, y, task, beta0=None):
    """The damped Newton loop as first written: every objective evaluated
    afresh, 40 halvings per rejected step, the final NLL recomputed."""
    s = D.shape[1]
    if s == 0:
        return np.empty(0), _reference_nll(task, np.zeros(y.size), y), True, False
    beta = np.zeros(s) if beta0 is None else np.array(beta0, dtype=np.float64)
    penalized = False

    def objective(b, t):
        val = _reference_nll(task, t, y)
        if penalized:
            val += RIDGE * float(b @ b)
        return val

    t = D @ beta
    f = objective(beta, t)
    converged = False
    hessian_scale = 0.0
    for it in range(MAX_NEWTON_ITER):
        g, H = _reference_grad_hess(task, D, y, t)
        if it == 0:
            hessian_scale = float(np.sqrt(np.diag(H).max())) if s else 0.0
        if penalized:
            g = g + 2.0 * RIDGE * beta
            H = H + 2.0 * RIDGE * np.eye(s)
        L, cond = _cholesky(H, hessian_scale)
        if not penalized and cond > COND_LIMIT:
            penalized = True
            f = objective(beta, t)
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
            f_new = objective(beta_new, t_new)
            if f_new < f:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            converged = True
            break
        delta = f - f_new
        beta, t, f = beta_new, t_new, f_new
        if delta < NEWTON_TOL:
            converged = True
            break
    return beta, _reference_nll(task, t, y), converged, penalized or not converged


def _newton_problems(count=3200, seed=515):
    """Random Newton problems: both links, every popcount, warm starts,
    near-separated responses and regions down to 8 rows.

    The design is cut as the search cuts it: columns by fancy index
    (``D[:, cols]``, Fortran-ordered) or contiguous rows of the full design
    (a scan segment), because BLAS sums in a layout-dependent order.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        task = ("logistic", "probit")[i % 2]
        n = int(rng.choice([8, 9, 12, 20, 40, 80, 200]))
        P = int(rng.integers(1, 5))
        X = rng.uniform(-2.0, 5.0, (n, P)) * rng.choice([0.01, 1.0, 30.0])
        coef = rng.normal(0, 1, P + 1) * rng.choice([0.3, 1.0, 4.0])
        t = coef[0] + X @ coef[1:]
        kind = i % 5
        if kind == 0:  # separated along the linear predictor
            y = (t > np.median(t)).astype(float)
        elif kind == 1:  # one flipped label away from separation
            y = (t > np.median(t)).astype(float)
            y[int(rng.integers(n))] = 1.0 - y[int(rng.integers(n))]
        else:
            y = (rng.random(n) < expit(t)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        D_full = full_design(Dataset(X, y), np.arange(n))
        if i % 7 == 6:
            lo = int(rng.integers(0, n - 7))
            D = D_full[lo:]
            y = y[lo:]
        else:
            cols = np.flatnonzero(rng.random(P + 1) < rng.uniform(0.0, 1.0))
            D = D_full[:, cols]
        beta0 = None
        if i % 3 == 0 and D.shape[1]:
            beta0 = rng.normal(0, 1, D.shape[1])
        yield D, y, task, beta0


def test_newton_matches_reference_bitwise():
    outcomes = {"stabilized": 0, "empty": 0}
    total = 0
    for D, y, task, beta0 in _newton_problems():
        total += 1
        want = reference_newton(D, y, task, beta0)
        got = _newton_glm(D, y, task, beta0)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert got[2:] == want[2:]
        outcomes["stabilized"] += want[3]
        outcomes["empty"] += D.shape[1] == 0
    assert total >= 3000
    # The sample reaches the ridge and the empty design, not only easy fits.
    assert outcomes["stabilized"] >= 300
    assert outcomes["empty"] >= 50


# -- the stacked solver against the scalar one -------------------------------


def _window_problems(link):
    """Row windows of the bundled binary designs in one predictor's sorted
    order, as a scan step sees them, with a warm start each: the whole
    sample's fit (as a scan's first step starts), a cold start, or a
    perturbed fit.  Single-class windows are left out: the scan gives them
    ``single_class_fit``."""
    for setting in ("cls1", "cls2"):
        for seed in range(2):
            rng = np.random.default_rng([seed, 5])
            data = generate(SETTINGS[setting], 300, rng, link=link)
            for j in range(data.P):
                D = full_design(data, data.order[j])
                y = data.y[data.order[j]]
                rng = np.random.default_rng([seed, j, 17])
                lo = rng.integers(0, data.n - 10, 120)
                hi = np.minimum(lo + rng.integers(10, data.n, 120), data.n)
                mixed = [y[a:b].min() != y[a:b].max() for a, b in zip(lo, hi)]
                lo, hi = lo[mixed], hi[mixed]
                whole = _newton_glm(D, y, link)[0]
                beta0 = np.tile(whole, (lo.size, 1))
                beta0[1::3] = 0.0
                beta0[2::3] += rng.normal(0.0, 0.3, (len(beta0[2::3]), D.shape[1]))
                yield D, y, lo, hi, beta0


@pytest.mark.parametrize("link", ["logistic", "probit"])
def test_stacked_newton_matches_scalar(link):
    windows = stabilized = 0
    for D, y, lo, hi, beta0 in _window_problems(link):
        _beta, nll, stab = newton_glm_windows(D, y, link, lo, hi, beta0)
        for i in range(lo.size):
            want = _newton_glm(D[lo[i] : hi[i]], y[lo[i] : hi[i]], link, beta0[i])
            assert stab[i] == want[3]
            # Relative to max(1, |NLL|): a separated window can converge
            # without the ridge to an NLL near 1e-11.
            tol = 1e-7 if want[3] else 1e-12
            assert abs(nll[i] - want[1]) <= tol * max(1.0, abs(want[1]))
            windows += 1
            stabilized += want[3]
    assert windows >= 1000
    # Separated windows reach the ridge, not only easy fits.
    assert stabilized >= 50


def test_stack_chunks_hold_their_slot_cap():
    data = generate(SETTINGS["cls1"], 400, np.random.default_rng(3), link="logistic")
    b = data.cut_positions(0) + 1
    b = b[(b >= 10) & (b <= data.n - 10)]
    lengths = np.concatenate([b, data.n - b])  # a first scan step's windows
    chunks = stack_chunks(lengths)
    assert len(chunks) > 1
    assert sorted(np.concatenate(chunks).tolist()) == list(range(lengths.size))
    for chunk in chunks:
        assert chunk.size * lengths[chunk].max() <= STACK_SLOTS
    # A window longer than the cap is a chunk of its own.
    long = stack_chunks(np.array([5, STACK_SLOTS + 1, 7]))
    assert [c.tolist() for c in long] == [[0, 2], [1]]
