"""Per-region feature selection and post-search adjustment.

``select_features`` cycles region by region, replacing one region's variable
mask with the total-MDL minimizer while all others are held fixed, until a
full cycle changes nothing.  Each region's menu of mask fits is exhaustive
for regression.  For logistic and probit regions it is a bounded walk from
the full mask down that skips every mask whose supersets' likelihoods
already rule it out; the chosen masks are those of full enumeration.
``final_adjust`` enumerates change-point subsets and small threshold shifts
around a search solution and returns the best.

``ConfigScorer`` wraps partition induction + feature selection + MDL into a
single memoized evaluation, keyed by cut positions, so search loops never
score the same configuration twice.  The cached ``ScoredConfig`` is the
search's only record of a scored key: the swarm holds it and
``final_adjust`` returns it.  Region mask menus are memoized too, keyed by
the packed bitmap of the region's rows, and a region's rows are gathered
only when its menu is built.  Its ``score_key`` is also the one
feasibility gate of the search: a key some region of which holds fewer
than P rows scores None, decided in the same pass over the rows that would
build its partition.  Threshold values are built only for the
configuration a key describes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fitting import RegionDesign
from .mdl import MdlBreakdown, SIGMA2_FLOOR, mdl_score
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
MAX_CYCLES = 60
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
    skipped mask is strictly worse than the best, so ``pick`` chooses as it
    would from the full menu, ties included.
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


def select_features(
    data: Dataset,
    task: str,
    grid: PartitionGrid,
    region_cache: dict | None = None,
) -> SelectionResult:
    """Choose each region's variable mask by total-MDL coordinate descent.

    Every region starts from the full mask; regions are visited in index
    order and each takes the mask minimizing the total criterion with the
    other regions fixed.  When P+1 <= 15 the per-region search covers all
    ``2^(P+1)`` masks: regression fits every one, and logistic and probit
    skip the masks a likelihood bound rules out (``_bounded_menu``), with
    the same result.  Beyond that it is greedy bidirectional stepwise.
    Stops after the first cycle with no change.

    ``region_cache`` lets callers reuse the per-mask fit menus across
    configurations that share regions.  It is keyed by region membership:
    the packed bitmap of the region's rows, n/8 bytes, which is exact.  The
    rows themselves are gathered only on a miss.  A single-class region's
    menu is its one intercept fit, so it never moves.
    """
    n_params = data.P + 1
    exhaustive = n_params <= EXHAUSTIVE_MASK_LIMIT
    if region_cache is None:
        region_cache = {}

    menus = []
    half_log2n = []
    for r, count in enumerate(grid.region_counts.tolist()):
        half_log2n.append(0.5 * math.log2(count))
        in_r = grid.region_of == r
        ck = np.packbits(in_r).tobytes()
        menu = region_cache.get(ck)
        if menu is None:
            design = RegionDesign(data, np.flatnonzero(in_r), task)
            menu = _region_menu(design, n_params, exhaustive)
            region_cache[ck] = menu
        menus.append(menu)

    def pick(r, stats):
        """Best menu entry for region r given the other regions' stats."""
        menu = menus[r]
        if task == TASK_REGRESSION:
            other = sum(stats) - stats[r]
            n = data.n
            best = None
            best_val = np.inf
            for entry in menu:
                s, _, stat, _, _ = entry
                sigma2 = max((other + stat) / n, SIGMA2_FLOOR)
                val = s * half_log2n[r] + 0.5 * n * math.log(sigma2)
                if val < best_val:
                    best_val = val
                    best = entry
            return best
        best = None
        best_val = np.inf
        for entry in menu:
            s, _, stat, _, _ = entry
            val = s * half_log2n[r] + stat
            if val < best_val:
                best_val = val
                best = entry
        return best

    R = grid.R
    chosen = [max(menu, key=lambda e: e[0]) for menu in menus]
    stats = [entry[2] for entry in chosen]

    for _ in range(MAX_CYCLES):
        changed = False
        for r in range(R):
            entry = pick(r, stats)
            if entry is not chosen[r]:
                changed = True
                chosen[r] = entry
                stats[r] = entry[2]
        if not changed:
            break

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
        key builds nothing more.
        """
        if key in self._cache:
            return self._cache[key]
        region_of = _region_index(key, self.data.rank)
        R = math.prod(len(ps) + 1 for _, ps in key)
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
