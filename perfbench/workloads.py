"""The workloads and the worker process that runs their passes.

``run.py`` starts this file as a fresh interpreter with ``PYTHONPATH=src`` and
the workload's BLAS thread settings, so those settings hold before numpy loads:

    python3 perfbench/workloads.py --workload batch-mid --seed 1 \
        --seconds 40 --trace 0 --out perfbench/out/batch-mid-seed1-trace0

A pass runs the workload's whole pinned job once, under the workload's
host-speed sampler (``hostspeed.py``), which records how fast the host ran
during it. Untraced, the worker repeats passes on the same inputs while the
next one still fits in ``--seconds`` and writes ``result.json``. Traced, it
runs one untraced pass, then one pass and the direct layer calls (``probe``)
under ``spans.Tracer``, then, for a workload with a process pool, one
untraced pool pass; it also writes ``spans.json``.
Every pass must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import numpy as np  # noqa: E402
from hostspeed import SpeedSampler, descent_probe, loop_probe  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cli():
    import envarkit.cli

    return envarkit.cli


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _row_key(row: dict) -> str:
    return f"p{row['p']}_s{float(row['sigma_std']):g}_e{row['episode']}_{row['method']}"


def _mean(values):
    return sum(values) / len(values) if values else None


# -------------------------------------------------------------------- batch-mid


@dataclass(frozen=True)
class BatchMid:
    """``envar-kit benchmark --jobs 1`` on a pinned manifest, all three methods.

    ENVAR takes ~99% of the time; at p = 5 a step is bound by interpreter
    overhead, at p = 25 by matmul cost. The manifest caps ENVAR at 800 steps
    per restart so a pass takes about 5 s and a run holds several passes to
    take the median of. The traced run adds one ``--jobs 2`` pass through
    the CLI process pool (``pool_jobs``); on two shared vCPUs its wall time
    flips between two levels for minutes at a time, so it is not timed as a
    gated pass.
    """

    name: str = "batch-mid"
    p_values: tuple[int, ...] = (5, 25)
    episodes: int = 2
    t_len: int = 1000
    envar_overrides: tuple[tuple[str, int], ...] = (("max_steps", 800),)
    jobs: int = 1
    pool_jobs: int = 2
    speed_probe = staticmethod(descent_probe)

    def manifest(self, seed: int) -> dict:
        return {
            "format_version": "envar-kit/1",
            "generator": {"p": self.p_values[0], "t_len": self.t_len, "sigma_std": 0.0,
                          "seed": seed, "episodes": self.episodes},
            "grid": {"p": list(self.p_values), "sigma_std": [0.0]},
            "envar": dict(self.envar_overrides),
            "baselines": [{"name": "eqvar-gds", "params": {"alpha": 0.05}},
                          {"name": "ols-only", "params": {}}],
            "metrics": {"eta": 1.0, "binarize_mass": 0.85, "alpha": 0.05, "ridge_tau": 0.0},
            "output_dir": "bench_out",
        }

    def prepare(self, seed: int, out: Path) -> dict:
        cli = _cli()
        path = out / "manifest.json"
        cli.write_json(path, self.manifest(seed))
        manifest = cli.load_manifest(path)
        expected = {
            (p, s, m, e)
            for p in manifest.grid_p for s in manifest.grid_sigma_std
            for m in manifest.methods() for e in range(manifest.generator.episodes)
        }
        return {"seed": seed, "manifest": path, "loaded": manifest, "expected": expected}

    def run_pass(self, inputs: dict, pass_dir: Path, jobs: int | None = None) -> dict:
        cli = _cli()
        jobs = jobs or self.jobs
        out = pass_dir / "bench"
        started = time.perf_counter()
        code = cli.main(["benchmark", "--manifest", str(inputs["manifest"]),
                         "--output", str(out), "--jobs", str(jobs)])
        wall = _elapsed(started)

        expected = inputs["expected"]
        if code != 0 or not (out / "summary.csv").exists():
            return {"wall_s": wall, "jobs": jobs, "ops": len(expected),
                    "failed": sorted(map(str, expected)),
                    "messages": [f"benchmark exited {code}"], "cells": [], "quality": {},
                    "digest": ""}
        problems = checks.summary_errors(out / "summary.csv", expected)
        problems.update(self._envar_problems(inputs, out))
        rows = _read_csv(out / "summary.csv")
        timings = {_row_key(r): float(r["wall_ms"]) for r in _read_csv(out / "timings.csv")}
        cells = [{"key": _row_key(r), "p": int(r["p"]), "method": r["method"],
                  "ms": timings[_row_key(r)],
                  "sf_oad": float(r["sf_oad"]) if r["sf_oad"] else None} for r in rows]
        scored = [c["sf_oad"] for c in cells if c["sf_oad"] is not None]
        by_method = {m: [c["sf_oad"] for c in cells if c["method"] == m and c["sf_oad"] is not None]
                     for m in ("envar", "eqvar-gds")}
        quality = {
            "sf_oad_mean": _mean(scored),
            "envar_sf_oad_mean": _mean(by_method["envar"]),
            "gds_sf_oad_mean": _mean(by_method["eqvar-gds"]),
        }
        return {
            "wall_s": wall, "jobs": jobs, "ops": len(expected), "failed": sorted(problems),
            "messages": [f"{key}: {m}" for key, ms in problems.items() for m in ms],
            "cells": cells, "quality": quality,
            "digest": hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(),
        }

    def _envar_problems(self, inputs: dict, out: Path) -> dict[str, list[str]]:
        """Each ENVAR model reproduces its cell's fitted (phi, sigma_u), and its
        Q = (I - A0) B_can^-1 / sigma is orthogonal. The fit is recomputed from
        the manifest's instance, as the benchmark command fitted it, once: the
        first pass is never traced, so these calls leave no spans."""
        import envarkit as ek

        manifest = inputs["loaded"]
        fits = inputs.setdefault("fits", {})
        problems = {}
        for p in manifest.grid_p:
            for sigma in manifest.grid_sigma_std:
                for episode in range(manifest.generator.episodes):
                    cell = (p, sigma, "envar", episode)
                    path = out / "runs" / f"p{p}_s{sigma:g}_e{episode}" / "envar" / "model.json"
                    try:
                        model = json.loads(path.read_text(encoding="utf-8"))
                    except (OSError, ValueError) as exc:
                        problems[str(cell)] = [f"unreadable model: {exc}"]
                        continue
                    if cell not in fits:
                        cfg = replace(manifest.generator, p=p, sigma_std=sigma)
                        fit = ek.fit_ols(ek.center(ek.generate_instance(cfg, episode).series))
                        fits[cell] = (fit, ek.canonical_representative(fit).b_can)
                    fit, b_can = fits[cell]
                    a0 = np.asarray(model["a0"])
                    q = (np.eye(p) - a0) @ np.linalg.inv(b_can) / model["sigma"]
                    errors = checks.envar_errors(
                        a0, np.asarray(model["a1"]), model["sigma"], q,
                        fit.phi_hat, fit.sigma_u_hat)
                    if errors:
                        problems[str(cell)] = errors
        return problems

    def probe(self, inputs: dict, pass_dir: Path, probe_dir: Path) -> None:
        """The benchmark command writes no series: time the series CSV round
        trip, and the stationary-covariance solve, on the manifest's instances."""
        import envarkit as ek

        manifest = inputs["loaded"]
        probe_dir.mkdir(parents=True, exist_ok=True)
        for p in manifest.grid_p:
            for sigma in manifest.grid_sigma_std:
                cfg = replace(manifest.generator, p=p, sigma_std=sigma)
                for episode in range(cfg.episodes):
                    inst = ek.generate_instance(cfg, episode)
                    ek.stationary_covariance(ek.ReducedForm(phi=inst.phi, sigma_u=inst.sigma_u))
                    path = probe_dir / f"p{p}_s{sigma:g}_e{episode}.csv"
                    ek.formats.write_series_csv(path, inst.series)
                    ek.formats.read_series_csv(path)


# ---------------------------------------------------------------- large-p-chain


@dataclass(frozen=True)
class LargePChain:
    """File-based simulate -> fit (eqvar-gds, ols-only) -> evaluate at large p.

    No ENVAR: the Lyapunov solve in generation, the greedy baseline and the
    series CSV round trip carry the time.
    """

    name: str = "large-p-chain"
    p_values: tuple[int, ...] = (40, 50, 60)
    t_len: int = 1000
    methods: tuple[str, ...] = ("eqvar-gds", "ols-only")
    probe_steps: int = 50
    pool_jobs: int = 0
    # a probe that calls BLAS from the timer handler, while the library's own
    # threads run, slowed this workload threefold; a Python loop does not
    speed_probe = staticmethod(loop_probe)

    def prepare(self, seed: int, out: Path) -> dict:
        cli = _cli()
        path = out / "manifest.json"
        cli.write_json(path, {
            "format_version": "envar-kit/1",
            "generator": {"p": self.p_values[0], "t_len": self.t_len, "sigma_std": 0.0,
                          "seed": seed, "episodes": 1},
            "grid": {"p": list(self.p_values), "sigma_std": [0.0]},
            "baselines": [{"name": m, "params": {}} for m in self.methods],
            "output_dir": "sim_out",
        })
        cli.load_manifest(path)
        return {"seed": seed, "manifest": path}

    def run_pass(self, inputs: dict, pass_dir: Path) -> dict:
        cli = _cli()
        sim = pass_dir / "sim"
        codes = {}
        ms = {}
        started = time.perf_counter()
        codes["simulate"] = cli.main(["simulate", "--manifest", str(inputs["manifest"]),
                                      "--output", str(sim)])
        for p in self.p_values:
            run_dir = sim / f"p{p}_s0_e0"
            for method in self.methods:
                key = f"p{p}_{method}"
                fit_dir = pass_dir / "fits" / key
                cell_start = time.perf_counter()
                codes[f"fit {key}"] = cli.main([
                    "fit", "--series", str(run_dir / "series.csv"), "--method", method,
                    "--output", str(fit_dir)])
                codes[f"evaluate {key}"] = cli.main([
                    "evaluate", "--model", str(fit_dir / "model.json"),
                    "--truth", str(run_dir / "truth_model.json"),
                    "--output", str(fit_dir / "score.json")])
                ms[key] = 1000.0 * _elapsed(cell_start)
        wall = _elapsed(started)

        messages = [f"{cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        failed = [cmd for cmd, code in codes.items() if code != 0]
        cells = []
        for p in self.p_values:
            for method in self.methods:
                key = f"p{p}_{method}"
                fit_dir = pass_dir / "fits" / key
                try:
                    score = json.loads((fit_dir / "score.json").read_text())
                    errors = checks.finite_errors("sf_oad", score["sf_oad"])
                    if method == "eqvar-gds":
                        model = json.loads((fit_dir / "model.json").read_text())
                        report = json.loads((fit_dir / "fit_report.json").read_text())
                        errors += checks.lower_triangular_errors(model["a0"], report["ordering"])
                except (OSError, KeyError, ValueError) as exc:
                    score, errors = {"sf_oad": None}, [f"unreadable output: {exc}"]
                if errors:
                    failed.append(key)
                    messages += [f"{key}: {e}" for e in errors]
                cells.append({"key": key, "p": p, "method": method, "ms": ms[key],
                              "sf_oad": score["sf_oad"]})
        gds = [c["sf_oad"] for c in cells if c["method"] == "eqvar-gds" and c["sf_oad"] is not None]
        scored = [c["sf_oad"] for c in cells if c["sf_oad"] is not None]
        quality = {"sf_oad_mean": _mean(scored), "gds_sf_oad_mean": _mean(gds)}
        return {
            "wall_s": wall, "jobs": 1, "ops": len(codes) + len(cells),
            "failed": sorted(set(failed)),
            "messages": messages, "cells": cells, "quality": quality,
            "digest": _digest([[c["key"], repr(c["sf_oad"])] for c in cells]),
        }

    def probe(self, inputs: dict, pass_dir: Path, probe_dir: Path) -> None:
        """No descent runs in the chain: time a short, fixed-budget ENVAR
        descent on each chain instance's canonical representative, so the
        per-step cost at large p is measured, plus the direct
        stationary-covariance solve on each instance's reduced form."""
        import envarkit as ek

        sim = pass_dir / "sim"
        for p in self.p_values:
            run_dir = sim / f"p{p}_s0_e0"
            inst = ek.formats.read_truth_json(run_dir / "truth_model.json")
            ek.stationary_covariance(ek.ReducedForm(phi=inst.phi, sigma_u=inst.sigma_u))
            ts = ek.formats.read_series_csv(run_dir / "series.csv")
            cr = ek.canonical_representative(ek.fit_ols(ek.center(ts)))
            cfg = replace(ek.default_config(p, seed=inputs["seed"]), restarts=1,
                          max_steps=self.probe_steps)
            ek.solve_envar(cr, cfg)


WORKLOADS = {w.name: w for w in (BatchMid(), LargePChain())}


# ----------------------------------------------------------------- environment


def environment(seed: int) -> dict:
    """Versions, BLAS build, cores, thread variables, commit and seed."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    head = Path(".git/HEAD")
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------- worker


def _sampled_pass(workload, inputs: dict, pass_dir: Path) -> dict:
    """One pass under the host-speed sampler; the record gets the host speed."""
    with SpeedSampler(workload.speed_probe) as sampler:
        record = workload.run_pass(inputs, pass_dir)
    record["host_speed"] = sampler.speed()
    return record


def execute(workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run the passes of one benchmark run and return the worker's record."""
    out.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(seed, out)
    passes = []
    spans = []
    if trace:
        from spans import Tracer

        passes.append(_sampled_pass(workload, inputs, out / "pass0"))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(_sampled_pass(workload, inputs, out / "pass1"))
            tracer.phase = "probe"
            workload.probe(inputs, out / "pass1", out / "probe")
        finally:
            tracer.uninstall()
        spans = tracer.spans
        if workload.pool_jobs > 1:
            passes.append(workload.run_pass(inputs, out / "pool", jobs=workload.pool_jobs))
    else:
        started = time.perf_counter()
        while True:
            passes.append(_sampled_pass(workload, inputs, out / f"pass{len(passes)}"))
            if _elapsed(started) + passes[-1]["wall_s"] > seconds:
                break
    first = passes[0]["digest"]
    for i, record in enumerate(passes[1:], start=1):
        if record["digest"] != first:
            record["messages"].append(f"pass {i} outputs differ from pass 0")
            record["failed"] = sorted(set(record["failed"]) | {f"pass{i}-determinism"})
    return {
        "workload": workload.name,
        "passes": passes,
        "spans": spans,
        "peak_rss_mb": peak_rss_mb(),
        "environment": environment(seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = execute(workload, args.seed, args.seconds, bool(args.trace), out)
    spans = record.pop("spans")
    if args.trace:
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (out / "result.json").write_text(json.dumps(record, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
