"""Per-region feature selection and post-search adjustment.

``select_features`` chooses every region's variable mask at once, as the
exact minimizer of the total criterion over the regions' menus of mask
fits (on a tie, the choice with fewer columns).  Each menu is reduced once
to its choice path, the entries some weighting of bits against fit can
prefer, and one sweep along all paths finds the minimum for regression,
logistic and probit alike.  Each region's menu is exhaustive for
regression.  For logistic and probit regions it is a bounded walk from the
full mask down that skips every mask whose supersets' likelihoods already
rule it out; the chosen masks are those of full enumeration.
``final_adjust`` enumerates change-point subsets and small threshold shifts
around a search solution and returns the best.

``ConfigScorer`` wraps partition induction + feature selection + MDL into a
single memoized evaluation, keyed by cut positions, so search loops never
score the same configuration twice.  The cached ``ScoredConfig`` is the
search's only record of a scored key: the swarm holds it and
``final_adjust`` returns it.  Region choice paths are memoized too, keyed by
the packed bitmap of the region's rows, and a region's rows are gathered
only when its menu is built.  Its ``score_key`` is also the one
feasibility gate of the search: a key some region of which holds fewer
than P rows scores None, decided in the same pass over the rows that would
build its partition, or with no pass at all when the key has more regions
than n / P.  Threshold values are built only for the
configuration a key describes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fitting import RegionDesign
from .mdl import MdlBreakdown, mdl_score, residual_code_regression
from .model import (
    ChangePointConfig,
    Dataset,
    InvalidConfigError,
    PartitionGrid,
    RegionFit,
    TASK_REGRESSION,
    _region_index,
    partition_grid,
)

EXHAUSTIVE_MASK_LIMIT = 15  # exhaustive 2^(P+1) enumeration up to this many columns
SUBSET_CAP = 12  # beyond this many change points, only single-drop subsets
SHIFT_RADIUS = 3  # final_adjust shifts a cut by up to this many positions
# Slack in the bounded walk for the convergence error of an unpenalized
# Newton fit, by which a subset's NLL may read below its superset's.
BOUND_MARGIN = 1e-6


def _mask_table(n_params: int):
    """All masks as (mask_int, column indices, popcount, lex tuple, ix pair).

    The ``np.ix_(cols, cols)`` pair that cuts a mask's sub-Gram is built here
    once, not on every fit.
    """
    out = []
    for m in range(1 << n_params):
        bools = tuple((m >> i) & 1 for i in range(n_params))
        cols = np.flatnonzero(np.array(bools, dtype=bool))
        out.append((m, cols, len(cols), bools, np.ix_(cols, cols)))
    return out


_MASK_TABLES: dict[int, list] = {}
_WALKS: dict[int, list] = {}


def _masks_for(n_params: int):
    table = _MASK_TABLES.get(n_params)
    if table is None:
        table = _mask_table(n_params)
        _MASK_TABLES[n_params] = table
    return table


def _walk_for(n_params: int):
    """Mask-table entries from the full mask down, by popcount and then by
    mask integer, each paired with its immediate supersets' mask integers."""
    walk = _WALKS.get(n_params)
    if walk is None:
        walk = []
        for entry in sorted(_masks_for(n_params), key=lambda e: (-e[2], e[0])):
            m = entry[0]
            supersets = [m | (1 << i) for i in range(n_params) if not (m >> i) & 1]
            walk.append((entry, supersets))
        _WALKS[n_params] = walk
    return walk


def _stepwise_candidates(current: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Single-bit add/drop neighbours of a mask, as lex tuples."""
    out = []
    for i in range(len(current)):
        flipped = list(current)
        flipped[i] = 1 - flipped[i]
        out.append(tuple(flipped))
    return out


@dataclass
class SelectionResult:
    """Feature-selection outcome for a fixed partition."""

    fits: list[RegionFit]
    breakdown: MdlBreakdown

    @property
    def total(self) -> float:
        return self.breakdown.total


def _bounded_menu(design: RegionDesign, n_params: int) -> list:
    """Fits of one logistic or probit region for every mask that can win.

    A region's value ``s * log2(n_r) / 2 + NLL`` does not depend on the other
    regions, and a mask's NLL is at least that of any of its supersets.  So
    the walk goes from the full mask down, and gives each mask a lower bound:
    the largest NLL among its immediate supersets.  A superset that was
    skipped, or whose fit is stabilized (penalized or not converged), passes
    on its own bound instead.  A mask whose value with that bound exceeds
    the best value so far by more than BOUND_MARGIN is never fitted.  Every
    skipped mask is strictly worse than the best, so the joint choice is
    that of the full menu, ties included.
    """
    half_log2n = 0.5 * math.log2(design.n_r)
    passed = [0.0] * (1 << n_params)  # lower bound each mask hands its subsets
    best = math.inf
    menu = []
    for (mask_int, cols, s, bools, ix), supersets in _walk_for(n_params):
        bound = max((passed[m] for m in supersets), default=-math.inf)
        if s * half_log2n + bound > best + BOUND_MARGIN:
            passed[mask_int] = bound
            continue
        beta, stat, stab = design.fit_mask(cols, ix)
        passed[mask_int] = bound if stab else stat
        best = min(best, s * half_log2n + stat)
        menu.append((s, bools, stat, beta, stab))
    return menu


def _region_menu(design: RegionDesign, n_params: int, exhaustive: bool):
    """Feasible (value-relevant) fits of one region for every candidate mask.

    Returns a list of ``(s, lex, fit_stat, beta, stabilized)`` sorted by
    (s, lex), which is exactly the tie-break order.  Logistic and probit
    regions leave out masks that cannot win (``_bounded_menu``).  A
    single-class region's menu is its one feasible mask, the intercept.
    """
    menu = []
    seen: set[tuple[int, ...]] = set()

    def consider(bools):
        if bools in seen:
            return None
        seen.add(bools)
        cols = np.flatnonzero(np.array(bools, dtype=bool))
        res = design.fit_mask(cols, np.ix_(cols, cols))
        if res is None:
            return None
        beta, stat, stab = res
        entry = (sum(bools), bools, stat, beta, stab)
        menu.append(entry)
        return entry

    if design.single_class:
        consider((1,) + (0,) * (n_params - 1))
    elif exhaustive and design.task != TASK_REGRESSION:
        menu = _bounded_menu(design, n_params)
    elif exhaustive:
        for _, cols, s, bools, ix in _masks_for(n_params):
            res = design.fit_mask(cols, ix)
            if res is None:
                continue
            beta, stat, stab = res
            menu.append((s, bools, stat, beta, stab))
    else:
        # Greedy bidirectional stepwise on fit_stat alone would ignore the
        # (s/2) log2 n_r cost, so step on the per-region MDL contribution.
        half_log2n = 0.5 * math.log2(design.n_r)
        current = tuple([1] * n_params)
        entry = consider(current)
        if entry is None:
            current = tuple([0] * n_params)
            entry = consider(current)
        while True:
            value = entry[0] * half_log2n + entry[2]
            best = None
            for cand in _stepwise_candidates(current):
                e = consider(cand)
                if e is None:
                    continue
                v = e[0] * half_log2n + e[2]
                if v < value and (best is None or v < best[0]):
                    best = (v, cand, e)
            if best is None:
                break
            _, current, entry = best
    menu.sort(key=lambda e: (e[0], e[1]))
    return menu


def _choice_path(menu: list, half_log2n: float) -> list:
    """A region's menu reduced to the entries the joint choice can take.

    An entry costs ``a = s * half_log2n`` bits and has ``fit_stat``; for a
    weight ``lam`` the region prefers the entry with the least ``a + lam *
    fit_stat``.  Only the first least-stat entry of each size can be that
    entry.  The path starts at the least stat (fewest columns on ties) and
    steps to a higher-stat entry with fewer columns, the one with the largest
    switch weight ``lam = (drop in a) / (rise in fit_stat)``, taking the
    nearer entry on equal weights.  Returns ``(lam, a, entry)`` triples, the
    start with ``lam = inf``.  The weights fall along the path; one that
    rounding lifts above its predecessor is clamped to it, so that the sweep
    of ``_joint_choice`` takes a region's steps in path order.
    """
    # The menu is sorted by (s, lex), so min keeps the first of equal stats.
    least = [min(g, key=lambda e: e[2]) for _, g in itertools.groupby(menu, lambda e: e[0])]
    here = min(least, key=lambda e: (e[2], e[0]))
    path = [(math.inf, here[0] * half_log2n, here)]
    while True:
        steps = [((here[0] - e[0]) * half_log2n / (e[2] - here[2]), e[0], e)
                 for e in least if e[0] < here[0] and e[2] > here[2]]
        if not steps:
            return path
        lam, _, here = max(steps, key=lambda t: t[:2])
        path.append((min(lam, path[-1][0]), here[0] * half_log2n, here))


def _joint_choice(paths: list, residual) -> list:
    """The menu entries, one per region, minimizing ``A + residual(S)``.

    ``A`` sums the regions' ``s * log2(n_r) / 2`` and ``S`` their
    ``fit_stat``, both by ``math.fsum``.  Starting with every region at the
    head of its ``_choice_path``, the path steps of all regions are applied
    one at a time in order of ``(-lam, region, step)``, and the last choice
    with the least value is returned: on a tie, the one with fewer columns.

    This is the minimum over the product of the menus whenever ``residual``
    is concave and nondecreasing: the optimum then also minimizes ``A +
    lam* * S`` at ``lam* = residual'(S*)``, region by region, and the sweep
    passes through every such per-region choice.
    """
    at = [0] * len(paths)
    costs = [path[0][1] for path in paths]
    stats = [path[0][2][2] for path in paths]
    steps = sorted(
        (-path[k][0], r, k) for r, path in enumerate(paths) for k in range(1, len(path))
    )
    best, best_at = math.fsum(costs) + residual(math.fsum(stats)), list(at)
    for _, r, k in steps:
        _, costs[r], entry = paths[r][k]
        at[r], stats[r] = k, entry[2]
        value = math.fsum(costs) + residual(math.fsum(stats))
        if value <= best:
            best, best_at = value, list(at)
    return [path[k][2] for path, k in zip(paths, best_at)]


def select_features(
    data: Dataset,
    task: str,
    grid: PartitionGrid,
    region_cache: dict | None = None,
) -> SelectionResult:
    """Choose every region's variable mask by exact total-MDL minimization.

    The criterion is ``A + residual(S)``: ``A`` sums the regions'
    ``s * log2(n_r) / 2`` and ``S`` their ``fit_stat``; ``residual`` is
    ``(n/2) ln(max(S/n, SIGMA2_FLOOR))`` for regression and ``S`` itself for
    logistic and probit.  The masks returned minimize it over the product
    of the region menus, and on a tie the choice with fewer columns wins
    (``_joint_choice``).  This is exact because the residual is concave and
    nondecreasing in ``S``, with one exception: when a key's least
    achievable RSS/n lies below ``SIGMA2_FLOOR``, the floored residual is
    flat there and the choice may miss the minimum.

    When P+1 <= 15 a region's menu covers all ``2^(P+1)`` masks: regression
    fits every one, and logistic and probit skip the masks a likelihood
    bound rules out (``_bounded_menu``), with the same result.  Beyond that
    the menu holds the masks a greedy bidirectional stepwise walk fits.

    ``region_cache`` lets callers reuse a region's choice path, built once
    from its menu, across configurations that share regions.  It is keyed
    by region membership: the packed bitmap of the region's rows, n/8
    bytes, which is exact.  The rows themselves are gathered only on a
    miss.  A single-class region's menu is its one intercept fit, so its
    choice never moves.
    """
    n_params = data.P + 1
    exhaustive = n_params <= EXHAUSTIVE_MASK_LIMIT
    if region_cache is None:
        region_cache = {}

    regression = task == TASK_REGRESSION
    # float is the identity on the summed NLL of the logistic and probit links.
    residual = partial(residual_code_regression, data.n) if regression else float
    paths = []
    for r, count in enumerate(grid.region_counts.tolist()):
        in_r = grid.region_of == r
        ck = np.packbits(in_r).tobytes()
        path = region_cache.get(ck)
        if path is None:
            design = RegionDesign(data, np.flatnonzero(in_r), task)
            menu = _region_menu(design, n_params, exhaustive)
            path = _choice_path(menu, 0.5 * math.log2(count))
            region_cache[ck] = path
        paths.append(path)
    chosen = _joint_choice(paths, residual)

    fits = [
        RegionFit(np.array(bools, dtype=bool), beta, stat, stabilized=stab)
        for _, bools, stat, beta, stab in chosen
    ]
    breakdown = mdl_score(data, grid, fits, task)
    return SelectionResult(fits=fits, breakdown=breakdown)


@dataclass
class ScoredConfig:
    """A configuration together with its feature-selected fit and score."""

    key: tuple
    config: ChangePointConfig
    selection: SelectionResult

    @property
    def total(self) -> float:
        return self.selection.total


class ConfigScorer:
    """Memoized feature-selected MDL evaluation of configurations.

    Keys are tuples of ``(predictor, (cut positions...))`` pairs, ascending.
    Scoring the same key twice returns the cached result, which keeps the
    swarm search cheap once it concentrates.  ``score_key`` is also the
    search's one feasibility gate: an infeasible key scores None, and that
    answer is memoized too.  ``evaluations`` counts the feasible keys scored.
    """

    def __init__(self, data: Dataset, task: str):
        data.validate_task(task)
        self.data = data
        self.task = task
        self.evaluations = 0
        self._cache: dict[tuple, ScoredConfig | None] = {}
        self._region_cache: dict = {}

    # -- key plumbing ------------------------------------------------------

    def key_of_config(self, config: ChangePointConfig) -> tuple:
        return tuple(
            (j, tuple(self.data.cut_of_threshold(j, t) for t in ts))
            for j, ts in config.breaks
        )

    def config_of_key(self, key: tuple) -> ChangePointConfig:
        return ChangePointConfig(
            {j: [self.data.midpoint(j, p) for p in ps] for j, ps in key}
        )

    # -- scoring -----------------------------------------------------------

    def score_key(self, key: tuple) -> ScoredConfig | None:
        """The key's feature-selected score, or None when it is infeasible:
        some region it induces holds fewer than P observations.

        Rows are assigned to regions once per distinct key, and a rejected
        key builds nothing more.  A key with more regions than n / P is
        rejected before that pass: some region must hold fewer than P rows.
        """
        if key in self._cache:
            return self._cache[key]
        R = math.prod(len(ps) + 1 for _, ps in key)
        if R * self.data.P > self.data.n:
            self._cache[key] = None
            return None
        region_of = _region_index(key, self.data.rank)
        region_counts = np.bincount(region_of, minlength=R)
        scored = None
        if int(region_counts.min()) >= self.data.P:
            config = self.config_of_key(key)
            grid = partition_grid(config, region_of, region_counts)
            selection = select_features(
                self.data, self.task, grid, region_cache=self._region_cache
            )
            scored = ScoredConfig(key=key, config=config, selection=selection)
            self.evaluations += 1
        self._cache[key] = scored
        return scored


def final_adjust(
    data: Dataset,
    task: str,
    config: ChangePointConfig,
    scorer: ConfigScorer | None = None,
) -> ScoredConfig:
    """Search subsets and small shifts of ``config``'s change points.

    Every subset of the change points is evaluated (all ``2^m`` subsets up
    to ``SUBSET_CAP`` points, otherwise the full set plus single-drop
    subsets).  Around each subset, each retained threshold is additionally
    shifted one at a time by ``+-1..SHIFT_RADIUS`` order-statistic positions.
    Candidates work on cut positions, and the infeasible ones (``score_key``
    returns None) are skipped.  The feature-selected MDL minimizer is
    returned; the incumbent, which must be feasible, is scored first, so the
    result never scores worse than the input.
    """
    if scorer is None:
        scorer = ConfigScorer(data, task)
    pairs = [(j, p) for j, ps in scorer.key_of_config(config) for p in ps]
    m = len(pairs)
    incumbent_key = _key_from_pairs(pairs)
    best = scorer.score_key(incumbent_key)
    if best is None:
        raise InvalidConfigError("a region holds fewer than P observations")

    if m == 0:
        return best

    if m <= SUBSET_CAP:
        keep_sets = [
            [i for i in range(m) if (mask >> i) & 1] for mask in range(1 << m)
        ]
    else:
        keep_sets = [list(range(m))]
        keep_sets += [
            [i for i in range(m) if i != drop] for drop in range(m)
        ]

    def try_key(key):
        nonlocal best
        sc = scorer.score_key(key)
        if sc is not None and sc.total < best.total:
            best = sc

    for keep in keep_sets:
        kept = [pairs[i] for i in keep]
        try_key(_key_from_pairs(kept))
        for slot in range(len(kept)):
            j, pos = kept[slot]
            for delta in itertools.chain(
                range(-SHIFT_RADIUS, 0), range(1, SHIFT_RADIUS + 1)
            ):
                moved = data.snap_cut(j, pos + delta)
                if moved is None or moved == pos:
                    continue
                variant = kept[:slot] + [(j, moved)] + kept[slot + 1 :]
                if len({p for p in variant}) < len(variant):
                    continue
                try_key(_key_from_pairs(variant))
    return best


def _key_from_pairs(pairs) -> tuple:
    by_pred: dict[int, list[int]] = {}
    for j, pos in sorted(pairs):
        by_pred.setdefault(j, []).append(pos)
    return tuple((j, tuple(sorted(set(ps)))) for j, ps in sorted(by_pred.items()))
