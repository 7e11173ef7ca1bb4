"""Partition-wise regression and classification estimated by MDL.

The package fits axis-aligned grid partitions of the predictor space, each
region carrying its own linear, logistic, or probit submodel.  The number of
change points, their locations, and each region's variable subset are all
chosen by minimizing a two-part minimum-description-length criterion, with a
greedy univariate scan seeding a binary particle swarm search.
"""

import importlib

# Each public name's home module.  The names resolve on first access
# (PEP 562), so a process loads only the modules it uses: ``partwise
# predict`` never imports the search or ``scipy.linalg``.
_HOMES = {
    "partwise.bpso": (
        "BpsoParams",
        "BpsoResult",
        "SwarmState",
        "init_swarm",
        "mutate",
        "run_bpso",
        "update_particle_bit",
        "update_velocity",
    ),
    "partwise.estimator": ("FitOutcome", "FitParams", "fit_model"),
    "partwise.fitting": ("fit_region",),
    "partwise.io": ("load_model", "load_table", "save_model", "split_response"),
    "partwise.mdl": ("MdlBreakdown", "mdl_score"),
    "partwise.model": (
        "ChangePointConfig",
        "Dataset",
        "FittedModel",
        "InputError",
        "InvalidConfigError",
        "PartitionGrid",
        "PartwiseError",
        "RegionFit",
        "SchemaError",
        "SingularFitError",
        "TASK_LOGISTIC",
        "TASK_PROBIT",
        "TASK_REGRESSION",
        "assign_region",
        "assign_regions",
        "induce_partition",
        "predict",
        "predict_labels",
    ),
    "partwise.refine": (
        "ConfigScorer",
        "ScoredConfig",
        "SelectionResult",
        "final_adjust",
        "select_features",
    ),
    "partwise.scan": ("scan_candidates",),
    "partwise.simulate": (
        "SETTINGS",
        "SimSetting",
        "TrialResult",
        "evaluate_trial",
        "generate",
        "run_trial",
        "run_trials",
        "summarize_trials",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (
    "bpso", "cli", "estimator", "fitting", "io", "mdl", "model", "refine", "scan", "simulate",
)

__version__ = "0.1.0"

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name in _HOME_OF:
        value = getattr(importlib.import_module(_HOME_OF[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
