"""envar-kit benchmark: one workload per run, tracing off or on.

    python3 perfbench/run.py --workload batch-mid --seed 1 --seconds 40 --trace 0

Run it from the repository root; it uses the package under ``src/`` as is
(nothing to build). ``--trace 0`` times set-up in fresh interpreters, runs the
workload's passes in a worker process and reports the end-to-end metrics, in
seconds at the reference host speed (``hostspeed.py``).
``--trace 1`` runs one untraced and one traced pass plus the direct layer calls,
and for ``batch-mid`` one untraced ``--jobs 2`` pool pass, and reports the
per-layer metrics, including the tracing overhead. Report
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Records of the
run are left in ``perfbench/out/<workload>-seed<n>-trace<t>/``. See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import at_reference  # noqa: E402
from spans import WRITERS, self_times  # noqa: E402
from workloads import THREAD_VARS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 4
# every run must end within 180 s; leave room for set-up and reporting
TIME_LIMIT_S = 170.0
KEEP = ("result.json", "spans.json", "trace_report.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "synth.generate_instance.ms": "ms",
    "model_core.stationary_covariance.ms": "ms",
    "reduced_estimation.fit_ols.ms": "ms",
    "reduced_estimation.canonical_representative.ms": "ms",
    "envar_optimizer.solve_envar.ms": "ms",
    "envar_optimizer.us_per_step": "us",
    "envar_optimizer.steps": "count",
    "envar_optimizer.restarts_at_budget": "count",
    "envar_optimizer.useful_step_ratio": "ratio",
    "eqvar_gds.fit_eqvar_gds.ms": "ms",
    "eval_metrics.score.ms": "ms",
    "eval_metrics.binarize_centralities.ms": "ms",
    "formats.write_series_csv.ms": "ms",
    "formats.read_series_csv.ms": "ms",
    "formats.json_io.ms": "ms",
    "formats.bytes_written": "bytes",
    "cli.command.ms": "ms",
    "cell_ms": "ms",
    "parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "quality.sf_oad_mean": "score",
}

_JSON_IO = {
    "formats.write_json", "formats.read_json", "formats.write_model_json",
    "formats.read_model_json", "formats.write_truth_json", "formats.read_truth_json",
    "formats.load_manifest",
}
_WRITERS = {f"formats.{name}" for name in WRITERS}


def worker_env(workload, root: Path) -> dict:
    """Thread discipline: the workload with a pool pass pins every BLAS/OpenMP
    pool to one thread, in all its passes, so pool workers x threads <= nproc;
    serial workloads drop inherited thread variables and run with the library
    defaults."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if workload.pool_jobs > 1:
        env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def _time_left(started: float) -> float:
    return TIME_LIMIT_S - (time.perf_counter() - started)


def measure_setup(workload, seed: int, out: Path, env: dict, started: float) -> list[dict]:
    """Fresh interpreters that import envarkit and load the inputs: the
    seconds each took and the host speed sampled while it ran (hostspeed.py).

    The first set-up is not counted: it may compile bytecode and fill the
    page cache, which a user pays once, not per interpreter start."""
    runs = []
    for i in range(SETUP_REPEATS + 1):
        cmd = [sys.executable, str(HERE / "setup_once.py"), "--workload", workload.name,
               "--seed", str(seed), "--out", str(out / f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=_time_left(started))
        seconds = time.perf_counter() - t0
        runs.append({"wall_s": seconds, "speed": json.loads(proc.stdout)["speed"]})
    return runs[1:]


def end_to_end_metrics(record: dict, setups: list[dict]) -> dict:
    """Times are medians of seconds at the reference host speed (hostspeed.py)."""
    passes = record["passes"]
    return {
        "setup_s": statistics.median(at_reference(s["wall_s"], s["speed"]) for s in setups),
        "wall_s": statistics.median(at_reference(p["wall_s"], p["host_speed"]) for p in passes),
        "peak_rss_mb": record["peak_rss_mb"],
    }


class SpanIndex:
    """Spans grouped by name; a metric reads the traced pass's spans, or the
    direct layer calls' spans where the pass makes no such call."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}

    def select(self, names, prefer: str = "pass") -> list[dict]:
        names = {names} if isinstance(names, str) else set(names)
        chosen = [s for s in self.spans if s["name"] in names and s["phase"] == prefer]
        if not chosen:
            chosen = [s for s in self.spans if s["name"] in names]
        return chosen

    def outermost(self, names) -> list[dict]:
        """Spans of ``names`` not nested in another span of the same layer."""
        out = []
        for s in self.select(names):
            parent = self.by_id.get(s["parent"])
            if parent is None or parent["layer"] != s["layer"]:
                out.append(s)
        return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _mean_ms(spans: list[dict]) -> float:
    return 1000.0 * sum(map(_duration, spans)) / len(spans) if spans else 0.0


def per_layer_metrics(record: dict, spans: list[dict]) -> dict:
    untraced, traced = record["passes"][:2]
    # the pool pass where the workload has one, else the traced pass
    last = record["passes"][-1]
    idx = SpanIndex(spans)
    solves = idx.select("envar_optimizer.solve_envar")
    steps = sum(s["steps"] for s in solves)
    binarize = idx.select("eval_metrics.binarize_cumulative")
    centr = idx.select("eval_metrics.centralities")
    cells_ms = [c["ms"] for c in traced["cells"]]
    return {
        "synth.generate_instance.ms": _mean_ms(idx.select("synth.generate_instance")),
        "model_core.stationary_covariance.ms":
            _mean_ms(idx.select("model_core.stationary_covariance", prefer="probe")),
        "reduced_estimation.fit_ols.ms": _mean_ms(idx.select("reduced_estimation.fit_ols")),
        "reduced_estimation.canonical_representative.ms":
            _mean_ms(idx.select("reduced_estimation.canonical_representative")),
        "envar_optimizer.solve_envar.ms": _mean_ms(solves),
        "envar_optimizer.us_per_step":
            1e6 * sum(map(_duration, solves)) / steps if steps else 0.0,
        "envar_optimizer.steps": steps,
        "envar_optimizer.restarts_at_budget": sum(s["restarts_at_budget"] for s in solves),
        "envar_optimizer.useful_step_ratio":
            sum(s["useful_steps"] for s in solves) / steps if steps else 0.0,
        "eqvar_gds.fit_eqvar_gds.ms": _mean_ms(idx.select("eqvar_gds.fit_eqvar_gds")),
        "eval_metrics.score.ms": _mean_ms(idx.select("eval_metrics.score")),
        "eval_metrics.binarize_centralities.ms":
            1000.0 * sum(map(_duration, binarize + centr)) / len(binarize) if binarize else 0.0,
        "formats.write_series_csv.ms": _mean_ms(idx.select("formats.write_series_csv")),
        "formats.read_series_csv.ms": _mean_ms(idx.select("formats.read_series_csv")),
        "formats.json_io.ms": _mean_ms(idx.outermost(_JSON_IO)),
        "formats.bytes_written": sum(s["bytes"] for s in idx.outermost(_WRITERS)),
        "cli.command.ms": _mean_ms(idx.select("cli.main")),
        "cell_ms": statistics.mean(cells_ms),
        "parallel_efficiency":
            sum(c["ms"] for c in last["cells"]) / (1000.0 * last["jobs"] * last["wall_s"]),
        "trace.overhead_ratio": at_reference(traced["wall_s"], traced["host_speed"])
        / at_reference(untraced["wall_s"], untraced["host_speed"]) - 1.0,
        "quality.sf_oad_mean": traced["quality"]["sf_oad_mean"],
    }


def trace_report(spans: list[dict]) -> dict:
    """Self time per layer and per function, and per-p means, of the traced pass."""
    selfs = self_times(spans)
    by_layer: dict[str, float] = {}
    by_function: dict[str, dict] = {}
    by_p: dict[str, dict] = {}
    for s in spans:
        if s["phase"] == "pass":
            by_layer[s["layer"]] = by_layer.get(s["layer"], 0.0) + 1000.0 * selfs[s["id"]]
            entry = by_function.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += 1000.0 * _duration(s)
            entry["self_ms"] += 1000.0 * selfs[s["id"]]
        if "p" in s:
            cell = by_p.setdefault(s["name"], {}).setdefault(
                f"{s['phase']} p={s['p']}", {"calls": 0, "ms": 0.0, "steps": 0})
            cell["calls"] += 1
            cell["ms"] += 1000.0 * _duration(s)
            cell["steps"] += s.get("steps", 0)
    for per_p in by_p.values():
        for cell in per_p.values():
            cell["mean_ms"] = cell["ms"] / cell["calls"]
            if cell["steps"]:
                cell["us_per_step"] = 1000.0 * cell["ms"] / cell["steps"]
    commands: dict[str, list[float]] = {}
    for s in spans:
        if s["name"] == "cli.main" and "command" in s:
            commands.setdefault(s["command"], []).append(1000.0 * _duration(s))
    return {
        "self_ms_by_layer": by_layer,
        "functions": by_function,
        "by_p": by_p,
        "cli_command_ms": {k: statistics.mean(v) for k, v in commands.items()},
        "traces": len({s["trace"] for s in spans}),
        "spans": len(spans),
    }


def _cell_ms_by_method(cells: list[dict]) -> dict:
    methods: dict[str, list[float]] = {}
    for c in cells:
        methods.setdefault(c["method"], []).append(c["ms"])
    return {m: statistics.mean(v) for m, v in methods.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "envarkit" / "__init__.py").is_file():
        print(f"no envarkit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = worker_env(workload, root)

    try:
        setups = [] if args.trace else measure_setup(workload, args.seed, out, env, started)
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        subprocess.run(cmd, env=env, check=True, timeout=_time_left(started))
    except subprocess.CalledProcessError as exc:
        print(f"worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1

    record = json.loads((out / "result.json").read_text(encoding="utf-8"))
    passes = record["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for message in p["messages"]:
            print(f"FAILED {message}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"passes {len(passes)}: raw wall_s {[round(p['wall_s'], 3) for p in passes]}"
          f" jobs {[p['jobs'] for p in passes]}")
    print(f"host speed {[round(p['host_speed'], 3) for p in passes if 'host_speed' in p]}")
    if setups:
        print(f"setup: raw s {[round(s['wall_s'], 3) for s in setups]}"
              f" host speed {[round(s['speed'], 3) for s in setups]}")
    print(f"cell_ms by method {_cell_ms_by_method(passes[0]['cells'])}")
    print(f"quality {json.dumps(passes[0]['quality'], sort_keys=True)}")
    print(f"digest {passes[0]['digest']}")

    if args.trace:
        spans = json.loads((out / "spans.json").read_text(encoding="utf-8"))
        report = trace_report(spans)
        (out / "trace_report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
        for layer, ms in sorted(report["self_ms_by_layer"].items()):
            print(f"self_ms {layer} {ms:.3f}")
        for name, per_p in sorted(report["by_p"].items()):
            for key, cell in sorted(per_p.items()):
                extra = f" us_per_step {cell['us_per_step']:.2f}" if "us_per_step" in cell else ""
                print(f"by_p {name} {key} mean_ms {cell['mean_ms']:.3f}"
                      f" calls {cell['calls']}{extra}")
        for command, ms in sorted(report["cli_command_ms"].items()):
            print(f"cli.command.ms.{command} {ms:.3f}")
        values = per_layer_metrics(record, spans)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end_metrics(record, setups)
        units = END_TO_END_UNITS

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    correct = failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values()
    )
    for entry in out.iterdir():
        if entry.name not in KEEP:
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
