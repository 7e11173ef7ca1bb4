"""Workload inputs: the fixed fit pools and the seed-drawn prediction batches.

Every dataset is drawn here with numpy from the design tables below, which
restate the bundled ``reg1``/``reg2``/``cls1``/``cls2`` designs of
``partwise.simulate``.  The benchmark does not call the package's own
generator, so a change to that generator cannot change the inputs a commit
is measured on.

Fits use a fixed pool (``POOL_SEED``) and a fixed swarm seed (``FIT_SEED``):
how long one fit takes depends strongly on the draw (reg2 at n=400 ranges
from 1.2 s to 2.7 s over five draws), far beyond any usable bound, and the
pool's mean MDL total serves as a behaviour checksum only while every run
fits the same data.  The ``--seed`` argument draws the held-out rows that
each fitted model predicts, in process and through ``partwise predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

POOL_SEED = 1
FIT_SEED = 3


@dataclass(frozen=True)
class Design:
    """Predictor ranges, true breaks and per-region coefficients."""

    ranges: tuple[tuple[float, float], ...]
    discrete: tuple[int, ...]
    breaks: tuple[tuple[int, tuple[float, ...]], ...]
    betas: tuple[tuple[float, ...], ...]  # per region: intercept, x1..xP


DESIGNS = {
    "reg1": Design(
        ranges=((0, 7), (-5, -1), (5, 12), (-10, -4)),
        discrete=(),
        breaks=((0, (4.0,)), (2, (8.5,))),
        betas=(
            (0.0, 2.0, -2.0, -4.0, 1.0),
            (0.0, 1.5, 1.0, 3.5, -2.0),
            (0.0, -1.5, -4.3, -1.7, -2.6),
            (0.0, -3.0, -1.0, 2.0, 1.0),
        ),
    ),
    "reg2": Design(
        ranges=((4, 8), (-5, 0), (-9, -3), (0, 3)),
        discrete=(),
        breaks=((0, (6.0,)), (3, (1.5,))),
        betas=(
            (0.0, 0.0, 4.2, -4.6, 0.0),
            (0.0, 0.0, -4.2, -4.6, 0.0),
            (0.0, 0.0, 4.2, 4.6, 0.0),
            (0.0, 0.0, -4.2, 4.6, 0.0),
        ),
    ),
    "cls1": Design(
        ranges=((0, 30), (0, 10), (0, 10)),
        discrete=(),
        breaks=((0, (10.0, 20.0)),),
        betas=(
            (0.0, 1.0, -1.5, 0.0),
            (0.0, 1.0, -4.5, 0.0),
            (15.0, -1.0, 2.0, 0.0),
        ),
    ),
    "cls2": Design(
        ranges=((0, 6), (0, 20), (-10, 10)),
        discrete=(0,),
        breaks=((0, (3.0,)), (2, (0.0,))),
        betas=(
            (0.0, 0.0, 2.1, 5.1),
            (0.0, 0.0, 4.0, 2.4),
            (0.0, 0.0, 4.2, -5.0),
            (0.0, 0.0, -2.9, 3.2),
        ),
    ),
}
DESIGN_IDS = {"reg1": 1, "reg2": 2, "cls1": 3, "cls2": 4}


def design_region(design: Design, X: np.ndarray) -> np.ndarray:
    """True region of each row: a value equal to a threshold is in the lower segment."""
    region = np.zeros(X.shape[0], dtype=np.int64)
    stride = 1
    for j, ts in design.breaks:
        seg = np.zeros(X.shape[0], dtype=np.int64)
        for t in ts:
            seg += X[:, j] > t
        region += stride * seg
        stride *= len(ts) + 1
    return region


def draw_X(design: Design, n: int, rng: np.random.Generator) -> np.ndarray:
    cols = []
    for j, (lo, hi) in enumerate(design.ranges):
        if j in design.discrete:
            cols.append(rng.integers(int(lo), int(hi) + 1, n).astype(np.float64))
        else:
            cols.append(rng.uniform(lo, hi, n))
    return np.column_stack(cols)


def draw(design: Design, task: str, n: int, rng: np.random.Generator):
    """``(X, y)``: regional linear mean plus N(0, 1) noise, or Bernoulli draws through the link."""
    X = draw_X(design, n, rng)
    betas = np.asarray(design.betas)[design_region(design, X)]
    mean = betas[:, 0] + np.einsum("ij,ij->i", X, betas[:, 1:])
    if task == "regression":
        return X, mean + rng.standard_normal(n)
    p = expit(mean) if task == "logistic" else ndtr(mean)
    return X, (rng.random(n) < p).astype(np.float64)


@dataclass(frozen=True)
class PoolFit:
    """One dataset of a workload's fixed pool."""

    design: str
    task: str
    n: int
    index: int

    def data(self):
        rng = np.random.default_rng(
            [POOL_SEED, DESIGN_IDS[self.design], self.n, self.index]
        )
        return draw(DESIGNS[self.design], self.task, self.n, rng)


@dataclass(frozen=True)
class Workload:
    """A fixed pool and the steps of one round.

    ``round`` lists the steps in order: ``F<i>`` fits pool dataset ``i`` in
    process; ``C`` refits pool dataset 0 through ``partwise fit``; ``P`` runs
    ``partwise predict`` on dataset 0's held-out rows with its latest model
    document.  After every step each model fitted so far predicts its
    held-out rows in process ``predict_reps`` times.  The steps of a kind are
    spread over the round so that each metric samples the machine at several
    moments: its speed drifts over tens of seconds.
    """

    name: str
    pool: tuple[PoolFit, ...]
    round: str
    holdout_rows: int  # rows of each held-out prediction batch
    predict_reps: int  # in-process predict calls per model after each step
    warmup: tuple[PoolFit, ...]  # small fits run in set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reg-n400",
            pool=(
                PoolFit("reg1", "regression", 400, 0),
                PoolFit("reg1", "regression", 400, 1),
                PoolFit("reg2", "regression", 400, 0),
                PoolFit("reg2", "regression", 400, 1),
            ),
            round="F0 P F1 P F2 C F3 P",
            holdout_rows=20_000,
            predict_reps=10,
            warmup=(PoolFit("reg1", "regression", 60, 1000),),
        ),
        Workload(
            name="glm-n400",
            pool=(
                PoolFit("cls1", "probit", 400, 0),
                PoolFit("cls2", "logistic", 400, 0),
            ),
            round="F0 P C P F1 C P",
            holdout_rows=20_000,
            predict_reps=10,
            warmup=(
                PoolFit("cls1", "probit", 60, 1000),
                PoolFit("cls2", "logistic", 60, 1000),
            ),
        ),
        Workload(
            name="reg-n20k-cli",
            pool=(PoolFit("reg1", "regression", 20_000, 0),),
            round="F0 P C P",
            holdout_rows=200_000,
            predict_reps=5,
            warmup=(PoolFit("reg1", "regression", 60, 1000),),
        ),
    )
}


def holdout_X(fit: PoolFit, entry: int, rows: int, seed: int) -> np.ndarray:
    """Held-out predictor rows for pool entry ``entry``, drawn from ``--seed``."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, DESIGN_IDS[fit.design], entry])
    return draw_X(DESIGNS[fit.design], rows, rng)


def write_csv(path: str, X: np.ndarray, y: np.ndarray | None = None) -> None:
    """Header ``x1..xP[,y]``; floats in shortest round-trip form, so parsing is exact."""
    cols = [f"x{j + 1}" for j in range(X.shape[1])]
    table = X if y is None else np.column_stack([X, y])
    if y is not None:
        cols.append("y")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write("\n".join(",".join(map(repr, row)) for row in table.tolist()))
        fh.write("\n")


def recovered(fit: PoolFit, thresholds: dict[int, list[float]]) -> bool:
    """True break predictors and change-point counts, as the acceptance suite counts recovery."""
    truth = {j: len(ts) for j, ts in DESIGNS[fit.design].breaks}
    return {j: len(ts) for j, ts in thresholds.items() if ts} == truth
