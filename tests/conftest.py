import numpy as np
import pytest

from partwise import ChangePointConfig, Dataset


def random_dataset(seed, n=60, P=3, binary=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 5.0, (n, P))
    if binary:
        t = 0.4 - 0.8 * X[:, 0] + 0.5 * X[:, min(1, P - 1)]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(float)
    else:
        y = 1.0 + X @ rng.normal(0, 1, P) + rng.normal(0, 0.5, n)
    return Dataset(X, y)


def random_config(data, rng, max_breaks=2, max_cuts=2):
    """A valid random configuration built from admissible cut midpoints."""
    breaks = {}
    preds = rng.permutation(data.P)[: int(rng.integers(0, max_breaks + 1))]
    for j in preds:
        cuts = data.cut_positions(int(j))
        if cuts.size == 0:
            continue
        k = int(rng.integers(1, max_cuts + 1))
        chosen = rng.choice(cuts, size=min(k, cuts.size), replace=False)
        breaks[int(j)] = sorted(data.midpoint(int(j), int(c)) for c in chosen)
    return ChangePointConfig(breaks)


def wide_reg1(noise_columns):
    """reg1 at n=400 (``trial_rng(0, 0)``) with extra U(0, 1) noise predictors
    drawn from ``default_rng(100)``."""
    from partwise.simulate import SETTINGS, generate, trial_rng

    base = generate(SETTINGS["reg1"], 400, trial_rng(0, 0))
    noise = np.random.default_rng(100).uniform(0, 1, (400, noise_columns))
    return Dataset(np.column_stack([base.X, noise]), base.y)


@pytest.fixture
def simple_data():
    return random_dataset(1234)
