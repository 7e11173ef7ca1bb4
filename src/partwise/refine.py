"""Per-region feature selection and post-search adjustment.

``select_features`` chooses every region's variable mask at once, as the
exact minimizer of the total criterion over the regions' menus of mask
fits (on a tie, the choice with fewer columns).  Each menu is reduced once
to its choice path, the entries some weighting of bits against fit can
prefer, and one sweep along all paths finds the minimum for regression,
logistic and probit alike.  The prices and the residual code come from
``mdl``.  Each region's menu is exhaustive for regression.  For logistic
and probit regions it is a bounded walk from the full mask down that skips
every mask whose supersets' likelihoods already rule it out
(``_bounded_menus``), walked for many regions at once level by level, each
level's mask fits one stacked Newton solve (``_stacked_menus``); the chosen
masks are those of full enumeration.  A mask that selects a predictor
constant over the region is infeasible in every menu.  ``final_adjust``
enumerates change-point subsets and small threshold shifts around a search
solution and returns the best.

``ConfigScorer`` wraps partition induction + feature selection + MDL into a
single memoized evaluation, keyed by cut positions, so search loops never
score the same configuration twice; the cached ``ScoredConfig`` is the
search's only record of a scored key.  ``ConfigScorer.feasible`` is the one
feasibility gate: a key some region of which holds fewer than P rows scores
None.  ``ConfigScorer.score_keys`` scores a batch of keys, and the swarm and
``final_adjust`` propose all their keys before scoring them in one batch.
Region choice paths are memoized, keyed by the packed bitmap of the
region's rows; the menus of the regions a batch misses are built together
by ``_build_paths``, which ``select_features`` calls too, so both score a
partition from the same menus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fitting import (
    RegionDesign, _newton_glm, collinear_columns, newton_glm_gathered
)
from .mdl import MdlBreakdown, coefficient_bits, mdl_score, residual_bits
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
_LEVELS: dict[int, list] = {}


def _masks_for(n_params: int):
    table = _MASK_TABLES.get(n_params)
    if table is None:
        table = _mask_table(n_params)
        _MASK_TABLES[n_params] = table
    return table


def _levels_for(n_params: int):
    """Mask-table entries by popcount from the full mask down, each level
    by mask integer, each entry paired with its immediate supersets' mask
    integers."""
    levels = _LEVELS.get(n_params)
    if levels is None:
        levels = [[] for _ in range(n_params + 1)]
        for entry in _masks_for(n_params):
            m = entry[0]
            supersets = [m | (1 << i) for i in range(n_params) if not (m >> i) & 1]
            levels[n_params - entry[2]].append((entry, supersets))
        _LEVELS[n_params] = levels
    return levels


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


def _bounded_menus(n_rs: list, n_params: int, fit) -> list:
    """Fits of logistic or probit regions for every mask that can win.

    A region's value ``s * log2(n_r) / 2 + NLL`` does not depend on the other
    regions, and a mask's NLL is at least that of any of its supersets.  So
    the walk goes from the full mask down, and gives each mask a lower bound:
    the largest NLL among its immediate supersets.  A superset that was
    skipped, or whose fit is stabilized (penalized or not converged) or
    infeasible, passes on its own bound instead.  A mask whose value with
    that bound exceeds the best value so far by more than BOUND_MARGIN is
    skipped.  Every skipped mask is strictly worse than the best, so the
    joint choice is that of the full menu, ties included.

    The regions, of ``n_rs`` rows each, are walked together one popcount
    level at a time.  ``fit(asked)`` is handed a level's ``(region, mask
    entry)`` pairs: every mask that its region's bound keeps against the
    region's best before the level.  It returns a function that gives the
    ``i``-th pair's ``(beta, fit_stat, stabilized)``, or None for an
    infeasible mask; it may fit them all at once or each when asked.  The
    level is then replayed mask by mask, in mask-integer order, with the
    best updated as it goes, so a mask that an earlier mask of its level
    rules out is skipped and is not asked for.  Each menu is that of a walk
    that fits one mask at a time.  Returns the menus in walk order.
    """
    half = [coefficient_bits(n_r) for n_r in n_rs]
    passed = [[0.0] * (1 << n_params) for _ in n_rs]  # bounds handed to subsets
    best = [math.inf] * len(n_rs)
    menus = [[] for _ in n_rs]
    for level in _levels_for(n_params):
        s = level[0][0][2]
        bounds = [
            [max((pr[m] for m in sups), default=-math.inf) for _, sups in level]
            for pr in passed
        ]
        asked = [
            (r, entry)
            for r, (h, bs) in enumerate(zip(half, bounds))
            for (entry, _), bound in zip(level, bs)
            if not s * h + bound > best[r] + BOUND_MARGIN
        ]
        result = fit(asked)
        at = {(r, entry[0]): i for i, (r, entry) in enumerate(asked)}
        for r, (h, bs) in enumerate(zip(half, bounds)):
            for ((mask_int, _, _, bools, _), _), bound in zip(level, bs):
                res = None
                if not s * h + bound > best[r] + BOUND_MARGIN:
                    res = result(at[r, mask_int])
                if res is None:
                    passed[r][mask_int] = bound
                    continue
                beta, stat, stab = res
                passed[r][mask_int] = bound if stab else stat
                best[r] = min(best[r], s * h + stat)
                menus[r].append((s, bools, stat, beta, stab))
    return menus


def _stacked_menus(data: Dataset, task: str, regions: list) -> list:
    """``_bounded_menus`` of the mixed-class regions with rows ``regions``,
    each level's fits run as one stacked solve.

    The fits with at least one column go to ``newton_glm_gathered``, which
    gathers each one's rows and columns from ``data.design`` chunk by chunk;
    no region design is built.  The empty mask is fitted by ``_newton_glm``,
    and a mask selecting a predictor constant over its region is
    infeasible, as in ``RegionDesign.fit_mask``.
    """
    collinear = [collinear_columns(data, rows) for rows in regions]

    def fit(asked):
        out = [None] * len(asked)
        todo = [i for i, (r, e) in enumerate(asked) if not collinear[r][e[1]].any()]
        if not todo:
            return out.__getitem__
        if asked[todo[0]][1][2] == 0:
            for i in todo:
                y = data.y[regions[asked[i][0]]]
                beta, nll, _conv, stab = _newton_glm(np.empty((y.size, 0)), y, task)
                out[i] = (beta, nll, stab)
            return out.__getitem__
        beta, nll, stab = newton_glm_gathered(
            data.design,
            data.y,
            task,
            [regions[asked[i][0]] for i in todo],
            np.array([asked[i][1][1] for i in todo]),
        )
        for i, b, value, flag in zip(todo, beta, nll.tolist(), stab.tolist()):
            out[i] = (b.copy(), value, flag)
        return out.__getitem__

    return _bounded_menus([rows.size for rows in regions], data.P + 1, fit)


def _region_menu(design: RegionDesign, n_params: int, exhaustive: bool):
    """Feasible (value-relevant) fits of one region, one mask at a time
    through ``design.fit_mask``.

    Returns a list of ``(s, lex, fit_stat, beta, stabilized)`` sorted by
    (s, lex), which is exactly the tie-break order.  An exhaustive menu
    holds every feasible mask; the search sends it regression regions only,
    since mixed-class logistic and probit regions take the bounded walk of
    ``_stacked_menus``.  A stepwise menu holds the masks the walk fits.  A
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
        half_log2n = coefficient_bits(design.n_r)
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
    ``mdl.residual_bits``.  The masks returned minimize it over the product
    of the region menus, and on a tie the choice with fewer columns wins
    (``_joint_choice``).  This is exact because the residual is concave and
    nondecreasing in ``S``, with one exception: when a key's least
    achievable RSS/n lies below ``SIGMA2_FLOOR``, the floored residual is
    flat there and the choice may miss the minimum.

    When P+1 <= 15 a region's menu covers all ``2^(P+1)`` masks: regression
    fits every one, and logistic and probit skip the masks a likelihood
    bound rules out, with the same result.  Beyond that the menu holds the
    masks a greedy bidirectional stepwise walk fits.  The menus are built
    as the search builds them (``_build_paths``).

    ``region_cache`` lets callers reuse a region's choice path across
    configurations that share regions.  It is keyed by the packed bitmap of
    the region's rows, n/8 bytes, which is exact.
    """
    data.validate_task(task)
    if region_cache is None:
        region_cache = {}
    bitmaps = [np.packbits(grid.region_of == r).tobytes() for r in range(grid.R)]
    _build_paths(data, task, dict(zip(bitmaps, grid.region_counts.tolist())), region_cache)
    return _selection(data, task, grid, [region_cache[b] for b in bitmaps])


def _build_paths(data: Dataset, task: str, regions: dict, region_cache: dict) -> None:
    """Choice paths of the regions ``regions`` maps (bitmap to row count)
    that miss ``region_cache``, into it.

    Each region's rows are unpacked from its bitmap.  Mixed-class logistic
    and probit regions with exhaustive menus are walked together
    (``_stacked_menus``); every other region's menu is built on its own by
    ``_region_menu``.
    """
    n_params = data.P + 1
    exhaustive = n_params <= EXHAUSTIVE_MASK_LIMIT
    stacked = {}
    for bitmap, count in regions.items():
        if bitmap in region_cache:
            continue
        bits = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8), count=data.n)
        rows = np.flatnonzero(bits.view(bool))
        if task != TASK_REGRESSION and exhaustive:
            y = data.y[rows]
            if y.min() != y.max():
                stacked[bitmap] = rows
                continue
        menu = _region_menu(RegionDesign(data, rows, task), n_params, exhaustive)
        region_cache[bitmap] = _choice_path(menu, coefficient_bits(count))
    if not stacked:
        return
    menus = _stacked_menus(data, task, list(stacked.values()))
    for (bitmap, rows), menu in zip(stacked.items(), menus):
        menu.sort(key=lambda e: (e[0], e[1]))
        region_cache[bitmap] = _choice_path(menu, coefficient_bits(rows.size))


def _selection(
    data: Dataset, task: str, grid: PartitionGrid, paths: list
) -> SelectionResult:
    """The joint choice over the regions' choice paths, and its score."""
    residual = partial(residual_bits, task, data.n)
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
    swarm search cheap once it concentrates.  ``feasible`` is the search's
    one feasibility gate: an infeasible key scores None, and that answer is
    memoized too.  ``score_keys`` scores a batch of keys at once, so the
    region menus the batch misses are built together.  ``evaluations``
    counts the feasible keys scored.
    """

    def __init__(self, data: Dataset, task: str):
        data.validate_task(task)
        self.data = data
        self.task = task
        self.evaluations = 0
        self._cache: dict[tuple, ScoredConfig | None] = {}
        self._region_cache: dict = {}
        # Feasible keys not scored yet: their region counts and bitmaps.
        self._gated: dict[tuple, tuple] = {}

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

    def feasible(self, key: tuple) -> bool:
        """Whether every region the key induces holds at least P rows.

        Rows are assigned to regions once per distinct key.  A key with more
        regions than n / P is rejected before that pass: some region must
        hold fewer than P rows.  A rejected key is memoized as scoring
        None.  A feasible key keeps its region counts and the packed bitmap
        of each region's rows until it is scored.
        """
        if key in self._cache:
            return self._cache[key] is not None
        if key in self._gated:
            return True
        R = math.prod(len(ps) + 1 for _, ps in key)
        if R * self.data.P > self.data.n:
            self._cache[key] = None
            return False
        region_of = _region_index(key, self.data.rank)
        region_counts = np.bincount(region_of, minlength=R)
        if int(region_counts.min()) < self.data.P:
            self._cache[key] = None
            return False
        bitmaps = [np.packbits(region_of == r).tobytes() for r in range(R)]
        self._gated[key] = (region_counts, bitmaps)
        return True

    def score_keys(self, keys: list) -> list:
        """Each key's feature-selected score, or None for an infeasible key.

        Every key passes ``feasible`` first.  The regions of the batch's new
        feasible keys that miss the region cache have their choice paths
        built together (``_build_paths``), and each new key's selection is
        then finished from the cache.
        """
        for key in keys:
            self.feasible(key)
        fresh = [key for key in dict.fromkeys(keys) if key in self._gated]
        regions = {}
        for key in fresh:
            region_counts, bitmaps = self._gated[key]
            regions.update(zip(bitmaps, region_counts.tolist()))
        _build_paths(self.data, self.task, regions, self._region_cache)
        for key in fresh:
            region_counts, bitmaps = self._gated.pop(key)
            config = self.config_of_key(key)
            grid = partition_grid(config, None, region_counts)
            paths = [self._region_cache[bitmap] for bitmap in bitmaps]
            selection = _selection(self.data, self.task, grid, paths)
            self._cache[key] = ScoredConfig(key=key, config=config, selection=selection)
            self.evaluations += 1
        return [self._cache[key] for key in keys]

    def score_key(self, key: tuple) -> ScoredConfig | None:
        """``score_keys`` of the one key."""
        return self.score_keys([key])[0]


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
    Candidates work on cut positions and are scored in one batch
    (``score_keys``); the infeasible ones score None and are skipped.  The
    feature-selected MDL minimizer is returned, the first in this order on
    equal scores; the incumbent, which must be feasible, is scored first,
    so the result never scores worse than the input.
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

    keys = []
    for keep in keep_sets:
        kept = [pairs[i] for i in keep]
        keys.append(_key_from_pairs(kept))
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
                keys.append(_key_from_pairs(variant))
    for sc in scorer.score_keys(keys):
        if sc is not None and sc.total < best.total:
            best = sc
    return best


def _key_from_pairs(pairs) -> tuple:
    by_pred: dict[int, list[int]] = {}
    for j, pos in sorted(pairs):
        by_pred.setdefault(j, []).append(pos)
    return tuple((j, tuple(sorted(set(ps)))) for j, ps in sorted(by_pred.items()))
