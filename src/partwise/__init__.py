"""Partition-wise regression and classification estimated by MDL.

The package fits axis-aligned grid partitions of the predictor space, each
region carrying its own linear, logistic, or probit submodel.  The number of
change points, their locations, and each region's variable subset are all
chosen by minimizing a two-part minimum-description-length criterion, with a
greedy univariate scan seeding a binary particle swarm search.
"""

from .bpso import (
    BpsoParams,
    BpsoResult,
    Particle,
    SwarmState,
    init_swarm,
    mutate,
    run_bpso,
    update_particle_bit,
    update_velocity,
)
from .estimator import FitOutcome, FitParams, fit_model, predict, predict_labels
from .fitting import fit_region
from .io import load_model, load_table, save_model, split_response
from .mdl import MdlBreakdown, mdl_score
from .model import (
    ChangePointConfig,
    Dataset,
    FittedModel,
    InputError,
    InvalidConfigError,
    PartitionGrid,
    PartwiseError,
    RegionFit,
    SchemaError,
    SingularFitError,
    TASK_LOGISTIC,
    TASK_PROBIT,
    TASK_REGRESSION,
    assign_region,
    assign_regions,
    induce_partition,
)
from .refine import ConfigScorer, ScoredConfig, SelectionResult, final_adjust, select_features
from .scan import scan_candidates
from .simulate import (
    SETTINGS,
    SimSetting,
    TrialResult,
    evaluate_trial,
    generate,
    run_trial,
    run_trials,
    summarize_trials,
)

__version__ = "0.1.0"

__all__ = [
    "BpsoParams",
    "BpsoResult",
    "ChangePointConfig",
    "ConfigScorer",
    "Dataset",
    "FitOutcome",
    "FitParams",
    "FittedModel",
    "InputError",
    "InvalidConfigError",
    "MdlBreakdown",
    "Particle",
    "PartitionGrid",
    "PartwiseError",
    "RegionFit",
    "SETTINGS",
    "SchemaError",
    "ScoredConfig",
    "SelectionResult",
    "SimSetting",
    "SingularFitError",
    "SwarmState",
    "TASK_LOGISTIC",
    "TASK_PROBIT",
    "TASK_REGRESSION",
    "TrialResult",
    "assign_region",
    "assign_regions",
    "evaluate_trial",
    "final_adjust",
    "fit_model",
    "fit_region",
    "generate",
    "induce_partition",
    "init_swarm",
    "load_model",
    "load_table",
    "mdl_score",
    "mutate",
    "predict",
    "predict_labels",
    "run_bpso",
    "run_trial",
    "run_trials",
    "save_model",
    "scan_candidates",
    "select_features",
    "split_response",
    "summarize_trials",
    "update_particle_bit",
    "update_velocity",
]
