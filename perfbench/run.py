"""Fit benchmark for partwise.

    python3 perfbench/run.py --workload reg-n400 --seed 1 --seconds 10 --trace 0

Runs whole rounds of one workload (see ``workloads.py``) for at least
``--seconds``, one operation at a time, checks every fit, model document and
prediction with ``checks.py``, and prints a JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced round, then traced rounds, and reports the per-layer metrics and
the tracing overhead.  Python and BLAS run one thread each, and the
``partwise`` child processes run one at a time.  The package is loaded from
``src/`` of the checkout this file sits in.
"""

import os
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PARTWISE_THREADS", None)

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
from tracing import LAYER_UNITS, Tracer, layer_metrics, merge
from workloads import FIT_SEED, WORKLOADS, holdout_X, recovered, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # this process's set-up plus two set-up-only child processes
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "mdl_bits": "bits",
    "predict_rows_per_s": "rows/s",
    "cli_fit_s": "s",
    "cli_predict_rows_per_s": "rows/s",
    "fit_peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(cmd: list[str], log_path: Path):
    """Run one child to its end: ``(exit code, wall seconds, peak RSS in MB)``.

    The wall time runs from just before the process is started to its exit;
    the peak RSS is the kernel's figure for that child alone.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env())
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


class Entry:
    """One pool dataset with its held-out rows and what its fits produced."""

    def __init__(self, pw, fit, position, holdout_rows, seed):
        self.fit = fit
        self.name = f"{fit.design}/{fit.task}/n{fit.n}/#{fit.index}"
        self.X, self.y = fit.data()
        self.data = pw.Dataset(self.X, self.y)
        self.Xh = holdout_X(fit, position, holdout_rows, seed)
        self.doc: bytes | None = None
        self.mdl_total = None
        self.recovered = None
        self.model = None  # latest fitted model and its plain reading
        self.pm = None
        self.preds = None  # its first predictions, checked independently


class Bench:
    """Set-up and rounds of one workload; collects samples and check failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        import partwise

        self.pw = partwise
        self.wl = workload
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.entries = [
            Entry(partwise, fit, i, workload.holdout_rows, seed)
            for i, fit in enumerate(workload.pool)
        ]
        cli = self.entries[0]
        self.train_csv = workdir / "train.csv"
        self.holdout_csv = workdir / "holdout.csv"
        write_csv(self.train_csv, cli.X, cli.y)
        write_csv(self.holdout_csv, cli.Xh)
        # The warm-up runs every stage of a fit once, and so fills lazy tables
        # such as refine._MASK_TABLES; its search is cut short, because a full
        # search on few rows scores hundreds of configurations.
        warmup = partwise.FitParams(
            max_cp_per_predictor=1,
            swarm=partwise.BpsoParams(swarm_size=3, max_iter=1),
            seed=FIT_SEED,
        )
        for fit in workload.warmup:
            X, y = fit.data()
            outcome = partwise.fit_model(partwise.Dataset(X, y), fit.task, warmup)
            partwise.predict(outcome.model, X)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples = defaultdict(list)  # (phase, metric, entry) -> values
        self.traced_ops = defaultdict(int)
        self.child_traces: list[dict] = []
        self.model_path: Path | None = None  # latest document of pool dataset 0

    # -- bookkeeping -------------------------------------------------------

    def _check(self, what: str, failures: list[str]) -> None:
        for msg in failures:
            self.failures.append(f"{what}: {msg}")
            print(f"CHECK FAILED {what}: {msg}", file=sys.stderr)

    def _op_failed(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"OPERATION FAILED {what}: {detail}", file=sys.stderr)

    def _round_trip(self, what: str, path: Path) -> None:
        """A saved document reloads and re-serializes byte for byte."""
        again = path.with_suffix(".again.json")
        self.pw.save_model(self.pw.load_model(str(path)), str(again))
        if again.read_bytes() != path.read_bytes():
            self._check(what, ["reloaded document does not re-serialize byte for byte"])

    # -- operations --------------------------------------------------------

    def _fit(self, i: int, entry: Entry, phase: str, tracer) -> None:
        pw = self.pw
        params = pw.FitParams(seed=FIT_SEED)
        self.attempted += 1
        try:
            with _active(tracer):
                t0 = time.perf_counter()
                outcome = pw.fit_model(entry.data, entry.fit.task, params)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises counts as failed
            self._op_failed(f"fit {entry.name}", repr(exc))
            return
        self.samples[phase, "fit_s", i].append(elapsed)
        if tracer is not None:
            self.traced_ops["fits"] += 1
        model = outcome.model
        pm = checks.from_fitted(model)
        self._check(f"fit {entry.name}", checks.check_model(pm, entry.X, entry.y))
        path = self.workdir / f"fit{i}.json"
        pw.save_model(model, str(path))
        doc = path.read_bytes()
        if entry.doc is None:
            entry.doc = doc
            entry.mdl_total = pm.mdl["total"]
            entry.recovered = recovered(entry.fit, pm.thresholds)
        elif doc != entry.doc:
            self._check(f"fit {entry.name}", ["refit with the same seed is not byte-identical"])
        self._round_trip(f"document {entry.name}", path)
        if i == 0:
            self.model_path = path
        entry.model, entry.pm, entry.preds = model, pm, None

    def _predict_burst(self, phase: str, tracer) -> None:
        """A few in-process predicts with every model fitted so far.

        A burst follows every step of a round, so the predict rate samples
        the whole run rather than a fraction of a second after each fit.
        """
        for i, entry in enumerate(self.entries):
            if entry.model is None:
                continue
            for _ in range(self.wl.predict_reps):
                self.attempted += 1
                try:
                    with _active(tracer):
                        t0 = time.perf_counter()
                        preds = self.pw.predict(entry.model, entry.Xh)
                        elapsed = time.perf_counter() - t0
                except Exception as exc:
                    self._op_failed(f"predict {entry.name}", repr(exc))
                    continue
                self.samples[phase, "predict_rows_per_s", i].append(entry.Xh.shape[0] / elapsed)
                if tracer is not None:
                    self.traced_ops["batches"] += 1
                if entry.preds is None:
                    entry.preds = preds
                    self._check(
                        f"predict {entry.name}",
                        checks.check_predictions(entry.pm, entry.Xh, preds),
                    )
                elif not np.array_equal(preds, entry.preds):
                    self._check(f"predict {entry.name}", ["repeated predictions differ"])

    def _cli(self, args: list[str], name: str, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "partwise.cli", *args]
            return run_child(cmd, self.workdir / f"{name}.log"), None
        trace_path = self.workdir / f"{name}.trace.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), repr(time.time()), *args]
        result = run_child(cmd, self.workdir / f"{name}.log")
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        return result, trace

    def _cli_fit(self, phase: str, tracer) -> None:
        entry = self.entries[0]
        model_path = self.workdir / "cli-model.json"
        args = [
            "fit", "--data", str(self.train_csv), "--response", "y",
            "--task", entry.fit.task, "--seed", str(FIT_SEED), "--out", str(model_path),
        ]
        self.attempted += 1
        (code, wall, rss), trace = self._cli(args, "cli-fit", tracer)
        if code != 0:
            self._op_failed(f"partwise fit {entry.name}", f"exit {code}: {_tail(self.workdir / 'cli-fit.log')}")
            return
        self.samples[phase, "cli_fit_s", 0].append(wall)
        self.samples[phase, "fit_peak_rss_mb", 0].append(rss)
        if trace is not None:
            self.child_traces.append(trace)
            self.traced_ops["fits"] += 1
        doc = model_path.read_bytes()
        what = f"partwise fit {entry.name}"
        if entry.doc is not None and doc != entry.doc:
            self._check(what, ["document differs from the in-process fit with the same seed"])
        pm = checks.from_document(json.loads(doc))
        self._check(what, checks.check_model(pm, entry.X, entry.y))
        self._round_trip(what, model_path)
        self.model_path = model_path

    def _cli_predict(self, phase: str, tracer) -> None:
        entry = self.entries[0]
        model_path = self.model_path
        self.attempted += 1
        if model_path is None:
            self._op_failed("partwise predict", "no model document to predict with")
            return
        out = self.workdir / "cli-predictions.csv"
        args = ["predict", "--model", str(model_path), "--data", str(self.holdout_csv), "--out", str(out)]
        (code, wall, _), trace = self._cli(args, "cli-predict", tracer)
        what = f"partwise predict {entry.name}"
        if code != 0:
            self._op_failed(what, f"exit {code}: {_tail(self.workdir / 'cli-predict.log')}")
            return
        rows = entry.Xh.shape[0]
        self.samples[phase, "cli_predict_rows_per_s", 0].append(rows / wall)
        if trace is not None:
            self.child_traces.append(trace)
            self.traced_ops["batches"] += 1
            self.traced_ops["cli_predicts"] += 1
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        pm = checks.from_document(json.loads(model_path.read_bytes()))
        labels = table[:, 1] if pm.task != "regression" else None
        self._check(what, checks.check_predictions(pm, entry.Xh, table[:, 0], labels))

    def run_round(self, tracer=None) -> None:
        """The workload's steps, in order (see ``workloads.Workload``).

        With a tracer every fit runs untraced and then traced, back to back,
        so the tracing overhead compares neighbouring runs of the same work
        and the machine's drift in speed largely cancels.
        """
        phases = [("plain", None)] if tracer is None else [("plain", None), ("traced", tracer)]
        for step in self.wl.round.split():
            if step == "P":
                self._cli_predict(*phases[-1])
            else:
                for phase, tr in phases:
                    if step == "C":
                        self._cli_fit(phase, tr)
                    else:
                        i = int(step[1:])
                        self._fit(i, self.entries[i], phase, tr)
            self._predict_burst(*phases[-1])

    def run_rounds(self, seconds: float, tracer=None) -> None:
        t0 = time.perf_counter()
        while True:
            self.run_round(tracer)
            if time.perf_counter() - t0 >= seconds:
                return

    # -- figures -----------------------------------------------------------

    def per_entry(self, phase: str, metric: str) -> float:
        """Mean over pool entries of each entry's median."""
        meds = [
            statistics.median(v)
            for (ph, m, _), v in self.samples.items()
            if ph == phase and m == metric and v
        ]
        return statistics.fmean(meds) if meds else 0.0

    def end_to_end(self, setup_samples: list[float]) -> dict[str, float]:
        totals = [e.mdl_total for e in self.entries if e.mdl_total is not None]
        return {
            "setup_s": statistics.median(setup_samples),
            "fit_s": self.per_entry("plain", "fit_s"),
            "mdl_bits": statistics.fmean(totals) if totals else 0.0,
            "predict_rows_per_s": self.per_entry("plain", "predict_rows_per_s"),
            "cli_fit_s": self.per_entry("plain", "cli_fit_s"),
            "cli_predict_rows_per_s": self.per_entry("plain", "cli_predict_rows_per_s"),
            "fit_peak_rss_mb": self.per_entry("plain", "fit_peak_rss_mb"),
        }


def _active(tracer):
    """Enable the tracer, if any, around one operation."""
    return nullcontext() if tracer is None else tracer.active()


def _setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh process: a child that sets up and exits."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    log = workdir / "setup-probe.log"
    code, _, _ = run_child(cmd, log)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {_tail(log)}")
    return json.loads(log.read_text().splitlines()[-1])["setup_s"]


def _traced_figures(bench: Bench, seconds: int, trace_path: Path) -> dict[str, float]:
    """Per-layer figures of the traced operations, and the tracing overhead."""
    tracer = Tracer()
    bench.run_rounds(seconds, tracer)
    trace = merge([tracer.dump()] + bench.child_traces)
    ops = bench.traced_ops
    metrics = layer_metrics(trace, ops["fits"], ops["batches"], ops["cli_predicts"])
    startups = [t["startup_s"] for t in bench.child_traces]
    metrics["cli.startup_s"] = statistics.fmean(startups) if startups else 0.0

    def overhead(metric):
        plain, traced = bench.per_entry("plain", metric), bench.per_entry("traced", metric)
        return 100.0 * (traced / plain - 1.0) if plain else 0.0

    metrics["trace.fit_overhead_pct"] = overhead("fit_s")
    metrics["trace.cli_fit_overhead_pct"] = overhead("cli_fit_s")
    metrics["trace.hooks_absent"] = len(trace["absent"])
    for name in trace["absent"]:
        print(f"trace hook absent: {name}", file=sys.stderr)
    with open(trace_path, "w") as fh:
        json.dump(dict(trace, metrics=metrics), fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "partwise" / "__init__.py").is_file():
        print(f"error: no partwise package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = _traced_figures(bench, args.seconds, trace_path)
            units = LAYER_UNITS
        else:
            setups = [setup_s] + [
                _setup_probe(args.workload, args.seed, workdir)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            bench.run_rounds(args.seconds)
            metrics = bench.end_to_end(setups)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, e in enumerate(bench.entries):
        fits = bench.samples["plain", "fit_s", i]
        print(
            f"{e.name}: fit {statistics.median(fits) if fits else float('nan'):.3f} s, "
            f"mdl total {e.mdl_total!r}, true design recovered: {e.recovered}",
            file=sys.stderr,
        )
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    correct = not bench.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
