"""Command-line interface: ``partwise fit | predict | simulate``.

Exit codes: 0 success, 2 input/validation error or a file that cannot be
read or written, 3 search non-convergence (the model file is still written).

``predict`` needs only the model, its document format and table ingestion;
``fit`` and ``simulate`` import the search when they run, so a predict does
not pay for loading it.

Model documents are JSON with version tag ``partwise-v1`` and fields
``task``, ``n_obs``, ``response``, ``columns``, ``thresholds`` (column name
to ascending threshold list), ``region_fits`` (per region: ``mask``,
``beta``, ``fit_stat``, ``stabilized``), the ``mdl`` breakdown,
``sigma2_hat`` (null for classification), and ``converged``.  Floats carry
17 significant digits so load/re-serialize round trips are byte identical;
see :mod:`partwise.io`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .io import (
    align_columns,
    load_model,
    load_table,
    save_model,
    split_response,
)
from .model import (
    CLASSIFICATION_TASKS,
    InputError,
    PartwiseError,
    TASKS,
    predict,
    probability_labels,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def __getattr__(name):
    # ``partwise.cli.fit_model`` still names the fit, loaded on first access
    # (PEP 562); ``_cmd_fit`` calls ``partwise.estimator.fit_model`` itself.
    if name == "fit_model":
        from .estimator import fit_model

        return fit_model
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partwise",
        description="Partition-wise regression and classification by MDL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a delimited table")
    fit.add_argument("--data", required=True, help="input table path")
    fit.add_argument("--response", required=True, help="response column name")
    fit.add_argument("--task", required=True, choices=TASKS)
    fit.add_argument("--max-cp-per-predictor", type=int, default=3)
    fit.add_argument("--min-segment", type=int, default=None,
                     help="min observations per 1-D segment (default max(P+2,10))")
    fit.add_argument("--swarm-size", type=int, default=100)
    fit.add_argument("--max-iter", type=int, default=200)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--delim", default=",")
    fit.add_argument("--out", required=True, help="model document path")

    pred = sub.add_parser("predict", help="apply a saved model to new rows")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--delim", default=",")
    pred.add_argument("--out", required=True, help="predictions path")

    sim = sub.add_parser("simulate", help="run a bundled simulation setting")
    sim.add_argument("--setting", required=True,
                     help="name of a bundled simulation design "
                          "(cls1, cls2, reg1, reg2; an unknown name lists them)")
    sim.add_argument("--n", type=int, default=400)
    sim.add_argument("--sigma", type=float, default=None,
                     help="noise sd for regression settings")
    sim.add_argument("--link", choices=CLASSIFICATION_TASKS, default=None,
                     help="link for classification settings")
    sim.add_argument("--trials", type=int, default=50)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes for the trials")
    sim.add_argument("--out", default=None,
                     help="optional path for the per-trial table")
    return parser


def _report_lines(outcome) -> list[str]:
    model = outcome.model
    lines = ["== partwise fit report =="]
    lines.append(f"task: {model.task}    n: {model.n_obs}    converged: {model.converged}")
    lines.append(f"configurations scored: {outcome.evaluations} "
                 f"(bpso iterations: {outcome.bpso_iterations})")
    if model.config.B == 0:
        lines.append("change points: none (single region)")
    else:
        lines.append("change points:")
        for j, ts in model.config.breaks:
            vals = ", ".join(f"{t:.6g}" for t in ts)
            lines.append(f"  {model.column_names[j]}: {vals}")
    lines.append(f"regions: {model.config.num_regions}")
    for r, fit in enumerate(model.region_fits):
        names = ("(intercept)",) + model.column_names
        chosen = [names[i] for i in np.flatnonzero(fit.mask)]
        coefs = ", ".join(
            f"{nm}={b:.6g}" for nm, b in zip(chosen, fit.beta)
        ) or "(empty model)"
        extra = "  [stabilized]" if fit.stabilized else ""
        lines.append(f"  region {r + 1}: {coefs}{extra}")
    b = model.mdl
    lines.append("mdl breakdown:")
    lines.append(f"  predictor_code:     {b.predictor_code:.6f}")
    lines.append(f"  per_predictor_code: {b.per_predictor_code:.6f}")
    lines.append(f"  region_param_code:  {b.region_param_code:.6f}")
    lines.append(f"  residual_code:      {b.residual_code:.6f}")
    lines.append(f"  total:              {b.total:.6f}")
    if model.sigma2_hat is not None:
        lines.append(f"sigma2_hat: {model.sigma2_hat:.6g}")
    return lines


def _cmd_fit(args) -> int:
    from .bpso import BpsoParams
    from .estimator import FitParams, fit_model

    header, table = load_table(args.data, args.delim)
    data, response = split_response(header, table, args.response)
    data.validate_task(args.task)
    params = FitParams(
        max_cp_per_predictor=args.max_cp_per_predictor,
        min_segment=args.min_segment,
        swarm=BpsoParams(swarm_size=args.swarm_size, max_iter=args.max_iter),
        seed=args.seed,
    )
    # Open --out before the search, so that a path that cannot be written
    # fails at once; a fit that fails leaves no new file behind.
    created = not os.path.exists(args.out)
    with open(args.out, "a"):
        pass
    try:
        outcome = fit_model(data, args.task, params, response_name=response)
        save_model(outcome.model, args.out)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    print("\n".join(_report_lines(outcome)))
    if not outcome.bpso_converged:
        print("warning: search hit max-iter without converging", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    header, table = load_table(args.data, args.delim)
    X = align_columns(header, table, model.column_names)
    preds = predict(model, X)
    # One format over Python floats: numpy scalars formatted one by one
    # cost twice as much and give the same digits.
    if model.task in CLASSIFICATION_TASKS:
        cells = [0] * (2 * preds.size)
        cells[::2] = preds.tolist()
        cells[1::2] = probability_labels(preds).tolist()
        text = "probability,label\n" + ("%.17g,%d\n" * preds.size) % tuple(cells)
    else:
        text = "prediction\n" + ("%.17g\n" * preds.size) % tuple(preds.tolist())
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {preds.size} predictions to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .simulate import SETTINGS, run_trials, summarize_trials, trial_table

    if args.setting not in SETTINGS:
        raise InputError(
            f"unknown --setting {args.setting!r}; choose from {', '.join(sorted(SETTINGS))}"
        )
    setting = SETTINGS[args.setting]
    if setting.is_regression:
        noise = f"sigma={args.sigma if args.sigma is not None else setting.noise_sigma}"
        if args.link:
            raise PartwiseError(f"--link does not apply to {args.setting}")
    else:
        noise = f"link={args.link or setting.link}"
        if args.sigma is not None:
            raise PartwiseError(f"--sigma does not apply to {args.setting}")
    results = run_trials(
        args.setting,
        args.n,
        args.trials,
        seed=args.seed,
        sigma=args.sigma,
        link=args.link,
        threads=args.threads,
    )
    table = trial_table(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(table) + "\n")
    else:
        print("\n".join(table))
    summary = summarize_trials(args.setting, args.n, noise, results)
    print("\n".join(summary.to_rows()))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_simulate(args)
    except (PartwiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
