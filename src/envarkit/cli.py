"""Batch front-end: simulate, fit, evaluate, and benchmark subcommands.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure. The log level is taken from the ``ENVAR_KIT_LOG`` environment
variable. Identical manifests and seeds produce byte-identical summary files;
wall-clock timings go to a separate (non-deterministic) sidecar.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .envar_optimizer import (
    EnvarConfig,
    RestartOutcome,
    default_config,
    envar_descents,
    solve_envar,
)
from .eqvar_gds import fit_eqvar_gds
from .errors import DataFormatError, DimensionError, EnvarKitError
from .eval_metrics import binarize_cumulative, centralities, score
from .formats import (
    FORMAT_VERSION,
    KNOWN_METHODS,
    ExperimentManifest,
    MetricsConfig,
    load_manifest,
    read_model_json,
    read_series_csv,
    read_truth_json,
    score_report_to_dict,
    write_json,
    write_model_json,
    write_series_csv,
    write_truth_json,
)
from .model_core import StructuralModel, TimeSeries, _reduced_form
from .reduced_estimation import (
    OlsFit,
    canonical_representative,
    center,
    fit_ols,
)

logger = logging.getLogger("envarkit.cli")

# ScoreReport fields, read by name into each summary row
_METRIC_COLUMNS = (
    "sf_oad", "obs_oad", "pearson_phi", "pearson_sigma_u", "pearson_a0", "pearson_a1",
)
SUMMARY_COLUMNS = ("p", "sigma_std", "method", "episode", *_METRIC_COLUMNS, "error")
# the descent's record in fit_report.json: every RestartOutcome field but its
# best iterate and its trace
_RESTART_REPORT_FIELDS = tuple(f.name for f in fields(RestartOutcome)
                               if f.name not in ("q", "c", "objective", "trace"))
# per (p, sigma_std, method): each metric's mean, standard error and count
AGGREGATE_COLUMNS = (
    "p", "sigma_std", "method",
    *(f"{col}_{stat}" for col in _METRIC_COLUMNS for stat in ("mean", "sem", "n")),
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _metrics_config(args, *names: str) -> MetricsConfig:
    """The settings of the flags ``names``; a value out of range is a usage error."""
    metrics = MetricsConfig()
    for name in names:
        try:
            metrics = replace(metrics, **{name: getattr(args, name)})
        except DimensionError as exc:
            raise UsageError(f"--{name.replace('_', '-')}: {exc}") from None
    return metrics


def _preprocess(ts: TimeSeries, do_center: bool, do_detrend: bool, do_zscore: bool) -> TimeSeries:
    if do_center:
        ts = center(ts)
    values = ts.values
    if do_detrend:
        # imported here: scipy.signal costs every other command ~0.16 s of start-up
        from scipy.signal import detrend

        values = detrend(values, axis=1, type="linear")
    if do_zscore:
        stds = values.std(axis=1, keepdims=True)
        if np.any(stds <= 0.0):
            raise DataFormatError("cannot z-score: a row has zero variance")
        values = values / stds
    scale = 1.0 + float(np.max(np.abs(values)))
    centered = bool(np.max(np.abs(values.mean(axis=1))) <= 1e-9 * scale)
    return TimeSeries(values=values, centered=centered)


def _baseline_model(
    fit: OlsFit, method: str, metrics: MetricsConfig
) -> tuple[StructuralModel, dict]:
    """A baseline's model from an OLS fit, and its details for the fit report;
    ``metrics`` gives ``eqvar-gds`` its ``alpha``."""
    if method == "ols-only":
        cr = canonical_representative(fit)
        return StructuralModel(a0=np.eye(cr.p) - cr.b_can, a1=cr.gamma_can, sigma=1.0), {}
    if method == "eqvar-gds":
        gds = fit_eqvar_gds(fit, alpha=metrics.alpha)
        model = StructuralModel(a0=gds.a0_hat, a1=gds.a1_hat, sigma=1.0)
        return model, {"ordering": list(gds.ordering), "alpha": gds.alpha}
    raise UsageError(f"unknown method {method!r}")


def _fit_method(
    ts: TimeSeries, method: str, metrics: MetricsConfig, envar_cfg: EnvarConfig | None,
) -> tuple[StructuralModel, dict]:
    """Fit one method on a preprocessed series; returns the model and a report.
    ``metrics`` gives ``ridge_tau`` and, for ``eqvar-gds``, ``alpha``;
    ``envar_cfg`` is read for ``envar`` only."""
    fit = fit_ols(ts, ridge_tau=metrics.ridge_tau)
    report: dict = {
        "phi_hat": fit.phi_hat,
        "sigma_u_hat": fit.sigma_u_hat,
        "n_eff": fit.n_eff,
        "ridge_tau": fit.ridge_tau,
    }
    if method == "envar":
        solution = solve_envar(canonical_representative(fit), envar_cfg)
        model = solution.model
        report.update(
            objective=solution.objective,
            diag_residual=solution.diag_residual,
            c_hat=solution.c_hat,
            objective_trace=solution.objective_trace,
            restarts=[{name: getattr(r, name) for name in _RESTART_REPORT_FIELDS}
                      for r in solution.restarts],
            orthogonality_residual=float(
                np.linalg.norm(solution.q_hat.T @ solution.q_hat - np.eye(ts.p), "fro")),
        )
    else:
        model, details = _baseline_model(fit, method, metrics)
        report.update(details)
    # induced reduced form, recorded without the stability gate so unit-root
    # edge cases still produce a report
    phi, sigma_u = _reduced_form(model.b, model.a1, model.sigma**2)
    report.update(model_phi=phi, model_sigma_u=sigma_u,
                  phi_residual=float(np.max(np.abs(phi - fit.phi_hat))),
                  sigma_u_residual=float(np.max(np.abs(sigma_u - fit.sigma_u_hat))))
    return model, report


# ------------------------------------------------------------------ simulate


def _manifest_and_output(args) -> tuple[ExperimentManifest, Path]:
    """The manifest of ``--manifest`` at the ``--seed`` override, if given, and
    the output root, ``--output`` or the manifest's, created."""
    manifest = load_manifest(args.manifest)
    if args.seed is not None:
        manifest = replace(manifest, generator=replace(manifest.generator, seed=args.seed))
    if not (args.output or manifest.output_dir):
        raise DataFormatError(f"{args.manifest}: no 'output_dir', and no --output given")
    out_root = Path(args.output or manifest.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    return manifest, out_root


def cmd_simulate(args) -> int:
    manifest, out_root = _manifest_and_output(args)
    for cell in manifest.cells():
        inst = cell.instance()
        run_dir = out_root / cell.name
        run_dir.mkdir(parents=True, exist_ok=True)
        write_series_csv(run_dir / "series.csv", inst.series)
        write_truth_json(run_dir / "truth_model.json", inst, seed=cell.generator.seed)
        write_json(
            run_dir / "instance_meta.json",
            {
                "format_version": FORMAT_VERSION,
                "generator": asdict(cell.generator),
                "episode": cell.episode,
                "fresh_graph": manifest.fresh_graph,
            },
        )
        logger.info("wrote %s", run_dir)
    return 0


# ----------------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    metrics = _metrics_config(args, "ridge_tau", "alpha")
    steps = {} if args.max_steps is None else {"max_steps": args.max_steps}
    try:
        EnvarConfig(**steps)  # the flag's range holds whatever the method
    except DimensionError as exc:
        raise UsageError(f"--max-steps: {exc}") from None
    # refused before the fit if its nearest existing ancestor (itself included)
    # is a file, and made only after it, so a failed fit leaves no directory
    out_dir = Path(args.output)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"not a directory: {existing}")
    ts = read_series_csv(args.series)
    ts = _preprocess(ts, args.center, args.detrend, args.zscore)
    envar_cfg = (
        replace(default_config(ts.p, seed=args.seed), **steps) if args.method == "envar" else None
    )
    model, report = _fit_method(ts, args.method, metrics, envar_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_model_json(out_dir / "model.json", model, method=args.method)
    write_json(out_dir / "fit_report.json", {"format_version": FORMAT_VERSION, **report})
    logger.info("wrote %s", out_dir / "model.json")
    return 0


# ------------------------------------------------------------------ evaluate


def _score_payload(
    model: StructuralModel, truth, metrics: MetricsConfig, method: str
) -> dict:
    """The ``score.json`` payload of ``model`` against a ground truth, at the
    ``eta`` and ``binarize_mass`` of ``metrics``."""
    report = score(model, truth, eta=metrics.eta, method_name=method)
    adjacency = binarize_cumulative(model, metrics.binarize_mass)
    return score_report_to_dict(report, centralities(adjacency), metrics.binarize_mass)


def cmd_evaluate(args) -> int:
    metrics = _metrics_config(args, "eta", "binarize_mass")
    model, meta = read_model_json(args.model)
    truth = read_truth_json(args.truth)
    if model.p != truth.model.p:
        raise DataFormatError(
            f"{args.model} is {model.p}-dim but {args.truth} is {truth.model.p}-dim"
        )
    payload = _score_payload(model, truth, metrics, str(meta.get("method", "")))
    out = Path(args.output)
    if out.is_dir():
        out = out / "score.json"
    write_json(out, payload)
    logger.info("wrote %s", out)
    return 0


# ----------------------------------------------------------------- benchmark


# The most entries in the descent batch of one benchmark task, where each fit
# holds p². At small p a descent step costs mostly per-call overhead, paid once
# per batch step however wide the batch, and the saving fades as p grows: two
# fits as one batch took 0.55x the time of one after the other at p = 5,
# 0.69x at p = 25, 0.85x at p = 50 and 0.99-1.04x at p = 75 and 100 (2 vCPUs,
# one BLAS thread). So a task batches 4 fits at p = 50 and one from p = 75 up.
BATCH_ENTRIES = 10_000


def _benchmark_tasks(manifest: ExperimentManifest, out_root: Path, jobs: int) -> list[tuple]:
    """The manifest's cells as benchmark tasks: runs of consecutive cells of one
    p, in grid order. A task holds at most ``BATCH_ENTRIES`` // p² cells
    (but at least one cell) and at most ⌈cells of that p / jobs⌉ cells, so
    ``jobs`` workers share the cells of every p."""
    by_p: dict[int, list] = {}
    for cell in manifest.cells():
        by_p.setdefault(cell.generator.p, []).append(cell)
    tasks = []
    for p, cells in by_p.items():
        under_cap = BATCH_ENTRIES // (p * p)
        per_worker = -(-len(cells) // jobs)  # the ceiling
        size = max(1, min(under_cap, per_worker))
        tasks += [(cells[i:i + size], manifest.method_metrics, out_root)
                  for i in range(0, len(cells), size)]
    return tasks


@contextmanager
def _timed(rows):
    """Share the block's time equally among ``rows``' ``wall_ms``; an
    EnvarKitError it raises becomes each row's error and ends the block."""
    started = time.perf_counter()
    try:
        yield
    except EnvarKitError as exc:
        for row in rows:
            row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        share = (time.perf_counter() - started) * 1000.0 / len(rows)
        for row in rows:
            row["wall_ms"] += share


def _write_run(row: dict, run_dir: Path, method: str, metrics: MetricsConfig,
               model: StructuralModel, truth) -> None:
    """Score ``model`` as ``evaluate`` does, write the run directory and put the
    scores in ``row``. Scored before the directory exists, so a failed run
    leaves none."""
    payload = _score_payload(model, truth, metrics, method)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_model_json(run_dir / "model.json", model, method=method)
    write_json(run_dir / "score.json", payload)
    row.update((col, payload[col]) for col in _METRIC_COLUMNS)


def _benchmark_task(task: tuple) -> list[dict]:
    """Fit every method on a chunk of cells of one p and score each fit, with
    the method's settings, as ``fit`` and ``evaluate`` do; writes the run
    directories under ``out_root`` and returns the summary rows.

    Each cell's series is generated, centered and fit by OLS once, and every
    baseline runs from that fit; only the cell's canonical representative and
    truth are kept for ENVAR. The ENVAR fits of all the chunk's cells then
    descend as one batch. A row's ``wall_ms`` is its method's own work plus an
    equal share of its cell's generation and OLS fit and, for ENVAR, an equal
    share of the chunk's descent."""
    cells, method_metrics, out_root = task
    rows, envar_runs = [], []
    for cell in cells:
        cell_rows = {
            method: {"p": cell.generator.p, "sigma_std": cell.generator.sigma_std,
                     "method": method, "episode": cell.episode,
                     **dict.fromkeys(_METRIC_COLUMNS), "error": "", "wall_ms": 0.0}
            for method in method_metrics
        }
        rows += cell_rows.values()
        with _timed(cell_rows.values()):
            inst = cell.instance()
            truth = replace(inst, series=None)
            # a baseline's params set its alpha only, so every method fits at
            # the manifest's ridge_tau
            fit = fit_ols(center(inst.series), ridge_tau=method_metrics["envar"].ridge_tau)
        if cell_rows["envar"]["error"]:
            continue
        for method, metrics in method_metrics.items():
            if method != "envar":
                with _timed([cell_rows[method]]):
                    model, _ = _baseline_model(fit, method, metrics)
                    _write_run(cell_rows[method], out_root / "runs" / cell.name / method,
                               method, metrics, model, truth)
        with _timed([cell_rows["envar"]]):
            envar_runs.append((cell, canonical_representative(fit), truth, cell_rows["envar"]))
        # the series would otherwise stay alive into the next cell and, for the
        # last cell, through the chunk's descent
        del inst, fit

    started = time.perf_counter()
    outcomes = envar_descents([(cr, cell.envar) for cell, cr, _, _ in envar_runs])
    share = (time.perf_counter() - started) * 1000.0 / max(len(envar_runs), 1)
    for (cell, cr, truth, row), outcome in zip(envar_runs, outcomes):
        row["wall_ms"] += share
        with _timed([row]):
            # cfg positional: perfbench/spans.py reads it there
            model = solve_envar(cr, cell.envar, outcome=outcome).model
            _write_run(row, out_root / "runs" / cell.name / "envar", "envar",
                       method_metrics["envar"], model, truth)
    return rows


def _write_rows(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean and standard error over episodes per (p, sigma_std, method)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["p"], row["sigma_std"], row["method"]), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        stats = []
        for col in _METRIC_COLUMNS:
            values = [row[col] for row in members if row[col] is not None]
            if values:
                mean = float(np.mean(values))
                sem = (
                    float(np.std(values, ddof=1) / np.sqrt(len(values)))
                    if len(values) > 1
                    else 0.0
                )
            else:
                mean = None
                sem = None
            stats += [mean, sem, len(values)]
        out.append(dict(zip(AGGREGATE_COLUMNS, (*key, *stats))))
    return out


def cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    manifest, out_root = _manifest_and_output(args)
    tasks = _benchmark_tasks(manifest, out_root, args.jobs)
    # a pool starts all its workers at once, so no more than there are tasks
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for chunk in pool.map(_benchmark_task, tasks) for row in chunk]
    else:
        rows = [row for task in tasks for row in _benchmark_task(task)]
    rows.sort(key=lambda r: (r["p"], r["sigma_std"], r["method"], r["episode"]))
    _write_rows(out_root / "summary.csv", SUMMARY_COLUMNS, rows)
    _write_rows(
        out_root / "timings.csv",
        ("p", "sigma_std", "method", "episode", "wall_ms"),
        rows,
    )
    _write_rows(
        out_root / "aggregate.csv", AGGREGATE_COLUMNS,
        _aggregate([r for r in rows if not r["error"]]),
    )
    failures = sum(1 for r in rows if r["error"])
    logger.info(
        "benchmark complete: %d runs, %d failures, summary at %s",
        len(rows), failures, out_root / "summary.csv",
    )
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> _Parser:
    """A new parser of the command line; ``main`` builds one per process."""
    parser = _Parser(prog="envar-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate ground-truth instances from a manifest")
    sim.add_argument("--manifest", required=True)
    sim.add_argument("--output", default=None, help="override the manifest output_dir")
    sim.add_argument("--seed", type=int, default=None, help="override the generator seed")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="estimate a structural model from a series CSV")
    fit.add_argument("--series", required=True)
    fit.add_argument("--method", choices=KNOWN_METHODS, default="envar")
    fit.add_argument("--output", default=".")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--ridge-tau", dest="ridge_tau", type=float,
                     default=MetricsConfig.ridge_tau)
    fit.add_argument("--alpha", type=float, default=MetricsConfig.alpha)
    fit.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    fit.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    fit.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=False)
    fit.add_argument("--zscore", action=argparse.BooleanOptionalAction, default=False)
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="score an estimated model against a truth record")
    ev.add_argument("--model", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--output", default="score.json")
    ev.add_argument("--eta", type=float, default=MetricsConfig.eta)
    ev.add_argument("--binarize-mass", dest="binarize_mass", type=float,
                    default=MetricsConfig.binarize_mass)
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("benchmark", help="simulate, fit every method, and score over a grid")
    bench.add_argument("--manifest", required=True)
    bench.add_argument("--output", default=None, help="override the manifest output_dir")
    bench.add_argument("--seed", type=int, default=None, help="override the generator seed")
    bench.add_argument("--jobs", type=int, default=1)
    bench.set_defaults(func=cmd_benchmark)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # a value that is not a level name, such as BASIC_FORMAT, means WARNING
    level = getattr(logging, os.environ.get("ENVAR_KIT_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: input too large for memory: {exc}", file=sys.stderr)
        return 2
    except EnvarKitError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
