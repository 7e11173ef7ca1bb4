"""
Reading the two-part MDL score
==============================

The criterion totals four code lengths: naming the break predictors,
encoding each predictor's change-point count and segment occupancies,
encoding each region's coefficients, and encoding the residuals.  More
structure costs more bits; it pays only when the residual code shrinks
enough.
"""

import numpy as np

from partwise import (
    ChangePointConfig,
    Dataset,
    induce_partition,
    select_features,
)

rng = np.random.default_rng(7)

############################################################
# Data with one genuine break on x1 at 5

n = 300
X = rng.uniform(0.0, 10.0, (n, 3))
y = np.where(X[:, 0] <= 5.0, 2.0 + 1.0 * X[:, 1], -3.0 - 1.0 * X[:, 1])
y += rng.normal(0.0, 0.8, n)
data = Dataset(X, y)

############################################################
# Score the no-break model, the true break, and an overfitted config

for label, breaks in [
    ("no break", {}),
    ("true break", {0: [5.0]}),
    ("overfitted", {0: [2.5, 5.0, 7.5]}),
]:
    config = ChangePointConfig(breaks)
    grid = induce_partition(data, config)
    sel = select_features(data, "regression", grid)
    b = sel.breakdown
    print(f"{label:>11}: total {b.total:9.2f}  "
          f"(predictors {b.predictor_code:5.2f}, "
          f"per-predictor {b.per_predictor_code:6.2f}, "
          f"regions {b.region_param_code:6.2f}, "
          f"residual {b.residual_code:9.2f})")

############################################################
# The true single break wins: the overfitted grid buys almost no extra
# residual compression but pays for two more change points and twice the
# regions.
