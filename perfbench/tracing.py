"""Tracing hooks for the benchmark's traced run.

Hooks wrap the functions and methods at each module boundary of partwise
from outside the package.  A function imported by name is patched at every
name it is looked up by (``partwise.estimator.scan_candidates`` as well as
``partwise.scan.scan_candidates``); a method is patched once on its class,
which every lookup shares.  The hooks are installed only around traced
operations.  A hook whose target no longer exists is listed in
``Tracer.absent`` and the run goes on without it.

A span hook records ``[label, start, end, parent, leaf seconds]`` in memory
for each call.  The innermost layers run tens of thousands of times per fit
(one OLS fit per mask, one Newton solve, one scan segment), so their hooks
only add up calls and seconds per label: a span per call would cost as much
as the work it times.  A span's self time is its duration less its child
spans and the leaf calls made directly under it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

SPAN, LEAF, COUNT, SCORE_KEY, SELECT = "span", "leaf", "count", "score_key", "select"

# (module, attribute path, label, kind)
HOOKS = (
    ("partwise", "fit_model", "fit", SPAN),
    ("partwise.estimator", "fit_model", "fit", SPAN),
    ("partwise.cli", "fit_model", "fit", SPAN),
    ("partwise.estimator", "scan_candidates", "scan", SPAN),
    ("partwise.scan", "scan_candidates", "scan", SPAN),
    ("partwise.scan", "_RegressionSegments.stat", "scan.segment", LEAF),
    ("partwise.scan", "_BinarySegments.stat", "scan.segment", LEAF),
    ("partwise.estimator", "run_bpso", "bpso", SPAN),
    ("partwise.bpso", "run_bpso", "bpso", SPAN),
    ("partwise.bpso", "init_swarm", "bpso.init", SPAN),
    ("partwise.bpso", "_advance", "bpso.advance", SPAN),
    ("partwise.bpso", "mutate", "bpso.mutate", SPAN),
    ("partwise.bpso", "_refresh_gbest", "bpso.refresh", SPAN),
    ("partwise.bpso", "_make_particle", "bpso.particle", COUNT),
    ("partwise.estimator", "ConfigScorer.score_key", "refine.score_key", SCORE_KEY),
    ("partwise.refine", "ConfigScorer.score_key", "refine.score_key", SCORE_KEY),
    ("partwise.refine", "select_features", "refine.select_features", SELECT),
    ("partwise.refine", "_region_menu", "refine.region_menu", SPAN),
    ("partwise.refine", "RegionDesign.__init__", "refine.region_design", COUNT),
    ("partwise.fitting", "RegionDesign.__init__", "refine.region_design", COUNT),
    ("partwise.estimator", "final_adjust", "refine.final_adjust", SPAN),
    ("partwise.refine", "final_adjust", "refine.final_adjust", SPAN),
    ("partwise.refine", "RegionDesign.fit_mask", "fitting.fit_mask", LEAF),
    ("partwise.fitting", "RegionDesign.fit_mask", "fitting.fit_mask", LEAF),
    ("partwise.fitting", "_newton_glm", "fitting.newton", LEAF),
    ("partwise.scan", "_newton_glm", "fitting.newton", LEAF),
    ("partwise.fitting", "logistic_grad_hess", "fitting.newton_iter", COUNT),
    ("partwise.fitting", "probit_grad_hess", "fitting.newton_iter", COUNT),
    ("partwise.refine", "mdl_score", "mdl.score", SPAN),
    ("partwise.mdl", "mdl_score", "mdl.score", SPAN),
    ("partwise", "predict", "estimator.predict", SPAN),
    ("partwise.estimator", "predict", "estimator.predict", SPAN),
    ("partwise.cli", "predict", "estimator.predict", SPAN),
    ("partwise.estimator", "assign_regions", "model.assign_regions", SPAN),
    ("partwise.model", "assign_regions", "model.assign_regions", SPAN),
    ("partwise.cli", "load_table", "io.load_table", SPAN),
    ("partwise.io", "load_table", "io.load_table", SPAN),
    ("partwise.cli", "save_model", "io.save_model", SPAN),
    ("partwise.io", "save_model", "io.save_model", SPAN),
    ("partwise.cli", "load_model", "io.load_model", SPAN),
    ("partwise.io", "load_model", "io.load_model", SPAN),
    ("partwise.cli", "_cmd_fit", "cli.fit", SPAN),
    ("partwise.cli", "_cmd_predict", "cli.predict", SPAN),
)


LAYER_UNITS = {
    "scan.s": "s",
    "scan.segments_fitted": "count",
    "bpso.init_s": "s",
    "bpso.iterations": "count",
    "bpso.particles_scored": "count",
    "bpso.iter_s": "s",
    "refine.configs_scored": "count",
    "refine.config_cache_hit_ratio": "ratio",
    "refine.select_features_s": "s",
    "refine.region_menus_built": "count",
    "refine.region_cache_hit_ratio": "ratio",
    "refine.final_adjust_s": "s",
    "refine.final_adjust_passes": "count",
    "fitting.masks_fitted": "count",
    "fitting.mask_fit_s": "s",
    "fitting.newton_calls": "count",
    "fitting.newton_iters": "count",
    "fitting.newton_s": "s",
    "mdl.scores": "count",
    "mdl.score_s": "s",
    "model.assign_regions_s": "s",
    "estimator.predict_s": "s",
    "io.load_table_s": "s",
    "io.save_model_s": "s",
    "io.load_model_s": "s",
    "cli.startup_s": "s",
    "cli.predict_write_s": "s",
    "trace.fit_overhead_pct": "%",
    "trace.cli_fit_overhead_pct": "%",
    "trace.hooks_absent": "count",
}


class Tracer:
    """Records spans, leaf totals and counts while the hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # label -> [calls, seconds]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[list] = []
        self._leaf_depth = 0

    @contextmanager
    def active(self, hooks=HOOKS):
        """Install the hooks for the duration of the block.

        Outside the block the package runs unpatched, so untraced operations
        pay nothing for the tracer.
        """
        saved, done = [], set()
        for module_name, path, label, kind in hooks:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{module_name}.{path}")
                continue
            if (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            setattr(owner, attr, self._wrap(original, label, kind))
            saved.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, label, kind):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        if kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == LEAF:
            totals = self.leaves.setdefault(label, [0, 0.0])

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                tracer._leaf_depth += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tracer._leaf_depth -= 1
                    totals[0] += 1
                    totals[1] += dt
                    if stack and not tracer._leaf_depth:
                        stack[-1][4] += dt

            return timed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if kind == SELECT:
                grid = args[2] if len(args) > 2 else kwargs.get("grid")
                counts["refine.region_lookup"] += getattr(grid, "R", 0)
            if kind == SCORE_KEY:
                before = getattr(args[0], "evaluations", None)
            # [label, start, end, parent index, leaf seconds, own index]
            rec = [label, 0.0, 0.0, stack[-1][5] if stack else -1, 0.0, len(spans)]
            stack.append(rec)
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if kind == SCORE_KEY:
                    counts["refine.score_call"] += 1
                    if before is not None and args[0].evaluations > before:
                        counts["refine.score_miss"] += 1

        return spanned

    def dump(self) -> dict:
        return {
            "spans": [rec[:5] for rec in self.spans],
            "leaves": {k: v for k, v in self.leaves.items() if v[0]},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def merge(parts: list[dict]) -> dict:
    """Concatenate the traces of several processes, re-basing parent indices."""
    spans: list[list] = []
    leaves: dict[str, list] = {}
    counts: Counter = Counter()
    absent: set[str] = set()
    for part in parts:
        base = len(spans)
        spans += [
            [label, s, e, p + base if p >= 0 else -1, leaf]
            for label, s, e, p, leaf in part["spans"]
        ]
        for label, (calls, seconds) in part["leaves"].items():
            total = leaves.setdefault(label, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        counts.update(part["counts"])
        absent.update(part["absent"])
    return {"spans": spans, "leaves": leaves, "counts": dict(counts), "absent": sorted(absent)}


def label_stats(spans: list[list]) -> dict[str, list]:
    """Per span label: ``[calls, inclusive seconds, self seconds]``.

    Inclusive time counts only spans with no ancestor of the same label, so a
    layer that calls itself through another lookup is not counted twice.
    """
    covered = [leaf for _, _, _, _, leaf in spans]
    for label, s, e, parent, _ in spans:
        if parent >= 0:
            covered[parent] += e - s
    stats: dict[str, list] = {}
    for i, (label, s, e, parent, _) in enumerate(spans):
        st = stats.setdefault(label, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += e - s - covered[i]
        p = parent
        while p >= 0 and spans[p][0] != label:
            p = spans[p][3]
        if p < 0:
            st[1] += e - s
    return stats


def layer_metrics(trace: dict, fits: int, batches: int, cli_predicts: int) -> dict[str, float]:
    """Per-layer figures: per fit unless the name says otherwise (see README)."""
    stats = label_stats(trace["spans"])
    for label, (n, seconds) in trace["leaves"].items():
        stats[label] = [n, seconds, seconds]
    counts = trace["counts"]

    def calls(label):
        return stats.get(label, [0, 0.0, 0.0])[0]

    def incl(label):
        return stats.get(label, [0, 0.0, 0.0])[1]

    def self_time(label):
        return stats.get(label, [0, 0.0, 0.0])[2]

    def per(value, base):
        return value / base if base else 0.0

    iterations = calls("bpso.advance")
    iter_self = sum(self_time(x) for x in ("bpso.advance", "bpso.mutate", "bpso.refresh"))
    score_calls = counts.get("refine.score_call", 0)
    lookups = counts.get("refine.region_lookup", 0)
    return {
        "scan.s": per(incl("scan"), fits),
        "scan.segments_fitted": per(calls("scan.segment"), fits),
        "bpso.init_s": per(incl("bpso.init"), fits),
        "bpso.iterations": per(iterations, fits),
        "bpso.particles_scored": per(counts.get("bpso.particle", 0), fits),
        "bpso.iter_s": per(iter_self, iterations),
        "refine.configs_scored": per(counts.get("refine.score_miss", 0), fits),
        "refine.config_cache_hit_ratio": per(
            score_calls - counts.get("refine.score_miss", 0), score_calls
        ),
        "refine.select_features_s": per(incl("refine.select_features"), fits),
        "refine.region_menus_built": per(calls("refine.region_menu"), fits),
        "refine.region_cache_hit_ratio": per(
            lookups - counts.get("refine.region_design", 0), lookups
        ),
        "refine.final_adjust_s": per(incl("refine.final_adjust"), fits),
        "refine.final_adjust_passes": per(calls("refine.final_adjust"), fits),
        "fitting.masks_fitted": per(calls("fitting.fit_mask"), fits),
        "fitting.mask_fit_s": per(incl("fitting.fit_mask"), fits),
        "fitting.newton_calls": per(calls("fitting.newton"), fits),
        "fitting.newton_iters": per(counts.get("fitting.newton_iter", 0), fits),
        "fitting.newton_s": per(incl("fitting.newton"), fits),
        "mdl.scores": per(calls("mdl.score"), fits),
        "mdl.score_s": per(incl("mdl.score"), fits),
        "model.assign_regions_s": per(incl("model.assign_regions"), batches),
        "estimator.predict_s": per(incl("estimator.predict"), batches),
        "io.load_table_s": per(incl("io.load_table"), calls("io.load_table")),
        "io.save_model_s": per(incl("io.save_model"), calls("io.save_model")),
        "io.load_model_s": per(incl("io.load_model"), calls("io.load_model")),
        "cli.predict_write_s": per(self_time("cli.predict"), cli_predicts),
    }
