"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v``.
All randomness is seeded, so outcomes are reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from envarkit import (
    GeneratorConfig,
    OrbitElement,
    StructuralModel,
    align_obs,
    align_sf,
    default_config,
    empirical_orbit_member,
    envar_descents,
    fit_eqvar_gds,
    generate_instance,
    gram_orthogonal_factor,
    orbit_transform,
    score,
    simulate,
    solve_envar,
    stationary_covariance,
    to_reduced_form,
)
from envarkit.cli import main
from envarkit.eval_metrics import gated_pearson
from envarkit.reduced_estimation import canonical_representative, center, fit_ols

from conftest import random_admissible, random_orthogonal
from oracles import brute_force_alignment, sample_cov_standard_errors


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def within(self) -> bool:
        return self.elapsed < self.limit


def test_criterion_1_closed_form_matches_oracle():
    budget = Budget(60.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m_ref = random_admissible(2, rng)
        m_test = random_admissible(2, rng)
        for eta in (0.0, 1.0):
            closed = align_obs(m_ref, m_test, eta=eta).value
            oracle = brute_force_alignment(m_ref, m_test, eta=eta)
            worst = max(worst, abs(closed - oracle))
        worst = max(
            worst, abs(align_sf(m_ref, m_test).value - brute_force_alignment(m_ref, m_test, 0.0))
        )
    ok = worst <= 1e-5 and budget.within()
    report(1, "closed form vs brute-force oracle", ok,
           f"max |diff| {worst:.2e}, {budget.elapsed:.1f}s")
    assert worst <= 1e-5
    assert budget.within()


def test_criterion_2_orbit_zero_discrepancy():
    budget = Budget(30.0)
    rng = np.random.default_rng(202)
    worst_obs = 0.0
    worst_sf = 0.0
    for p in (2, 3, 5, 10):
        for _ in range(50):
            m = random_admissible(p, rng)
            e = OrbitElement(q=random_orthogonal(p, rng), c=float(rng.uniform(0.3, 3.0)))
            member = orbit_transform(m, e)  # sigma' = c sigma by construction
            worst_obs = max(worst_obs, align_obs(m, member, eta=1.0).value)
            resigma = StructuralModel(member.a0, member.a1, float(rng.uniform(0.2, 5.0)))
            worst_sf = max(worst_sf, align_sf(m, resigma).value)
    ok = worst_obs <= 1e-8 and worst_sf <= 1e-8 and budget.within()
    report(2, "orbit members score zero", ok,
           f"obs {worst_obs:.2e}, sf {worst_sf:.2e}, {budget.elapsed:.1f}s")
    assert worst_obs <= 1e-8
    assert worst_sf <= 1e-8
    assert budget.within()


def _relative_error(value: np.ndarray, target: np.ndarray) -> float:
    denom = max(np.linalg.norm(target, "fro"), np.finfo(float).tiny)
    return float(np.linalg.norm(value - target, "fro") / denom)


def test_criterion_3_canonical_exactness():
    budget = Budget(10.0)
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        p = int(rng.integers(2, 5))
        m = random_admissible(p, rng)
        ts = center(simulate(m, 150, seed=3000 + i))
        fit = fit_ols(ts)
        cr = canonical_representative(fit)
        worst = max(worst, _relative_error(np.linalg.solve(cr.b_can, cr.gamma_can), fit.phi_hat))
        worst = max(worst, _relative_error(cr.sigma_u_hat, fit.sigma_u_hat))
        for _ in range(2):
            e = OrbitElement(q=random_orthogonal(p, rng), c=float(rng.uniform(0.3, 3.0)))
            rf = to_reduced_form(empirical_orbit_member(cr, e))
            worst = max(worst, _relative_error(rf.phi, fit.phi_hat))
            worst = max(worst, _relative_error(rf.sigma_u, fit.sigma_u_hat))
    ok = worst <= 1e-9 and budget.within()
    report(3, "canonical representative exactness", ok,
           f"max rel err {worst:.2e}, {budget.elapsed:.1f}s")
    assert worst <= 1e-9
    assert budget.within()


def test_criterion_4_gram_factorization_round_trip():
    budget = Budget(5.0)
    rng = np.random.default_rng(404)
    worst_defect = 0.0
    worst_recon = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        c_mat = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
        q0 = random_orthogonal(p, rng)
        scale = float(rng.uniform(0.3, 3.0))
        d_mat = scale * q0 @ c_mat
        q = gram_orthogonal_factor(c_mat, d_mat, scale**2)
        worst_defect = max(
            worst_defect, float(np.linalg.norm(q.T @ q - np.eye(p), "fro"))
        )
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm(d_mat - scale * q @ c_mat, "fro"))
            / float(np.linalg.norm(d_mat, "fro")),
        )
    ok = worst_defect <= 1e-8 and worst_recon <= 1e-8 and budget.within()
    report(4, "Gram factorization round trip", ok,
           f"defect {worst_defect:.2e}, recon {worst_recon:.2e}, {budget.elapsed:.1f}s")
    assert worst_defect <= 1e-8
    assert worst_recon <= 1e-8
    assert budget.within()


def test_criterion_5_envar_preserves_the_law():
    budget = Budget(300.0)
    worst_phi = 0.0
    worst_su = 0.0
    worst_orth = 0.0
    # the ten instances of each p descend as one batch; each solution is
    # bitwise the one of its own descent
    for p, seeds in ((5, range(10)), (10, range(10, 20))):
        fits = [
            fit_ols(center(generate_instance(
                GeneratorConfig(p=p, t_len=1000, seed=500 + i), episode=0).series))
            for i in seeds
        ]
        problems = [(canonical_representative(fit), default_config(p, seed=i))
                    for fit, i in zip(fits, seeds)]
        for fit, (cr, cfg), outcome in zip(fits, problems, envar_descents(problems)):
            solution = solve_envar(cr, cfg, outcome=outcome)
            rf = to_reduced_form(solution.model)
            scale_phi = 1.0 + float(np.max(np.abs(fit.phi_hat)))
            scale_su = 1.0 + float(np.max(np.abs(fit.sigma_u_hat)))
            worst_phi = max(worst_phi, float(np.max(np.abs(rf.phi - fit.phi_hat))) / scale_phi)
            worst_su = max(worst_su,
                           float(np.max(np.abs(rf.sigma_u - fit.sigma_u_hat))) / scale_su)
            worst_orth = max(
                worst_orth,
                float(np.linalg.norm(solution.q_hat.T @ solution.q_hat - np.eye(p), "fro")),
            )
    ok = max(worst_phi, worst_su) <= 1e-8 and worst_orth <= 1e-8 and budget.within()
    report(5, "selected representative induces the fitted law", ok,
           f"phi {worst_phi:.2e}, sigma_u {worst_su:.2e}, orth {worst_orth:.2e}, "
           f"{budget.elapsed:.0f}s")
    assert worst_phi <= 1e-8
    assert worst_su <= 1e-8
    assert worst_orth <= 1e-8
    assert budget.within()


def _run_benchmark_cell(p, sigma_std, episodes, base_seed):
    """sf-discrepancies for the sparse selector and the greedy baseline. The
    episodes' ENVAR fits descend as one batch."""
    cfg = GeneratorConfig(p=p, t_len=1000, sigma_std=sigma_std, seed=base_seed)
    instances = [generate_instance(cfg, episode=ep) for ep in range(episodes)]
    fits = [fit_ols(center(inst.series)) for inst in instances]
    problems = [(canonical_representative(fit), default_config(p, seed=1000 + ep))
                for ep, fit in enumerate(fits)]
    envar_vals, gds_vals, pearson_vals = [], [], []
    for inst, fit, (cr, envar_cfg), outcome in zip(
        instances, fits, problems, envar_descents(problems)
    ):
        solution = solve_envar(cr, envar_cfg, outcome=outcome)
        envar_vals.append(score(solution.model, inst, method_name="envar").sf_oad)
        gds = fit_eqvar_gds(fit, alpha=0.05)
        gds_model = StructuralModel(gds.a0_hat, gds.a1_hat, 1.0)
        gds_vals.append(score(gds_model, inst, method_name="eqvar-gds").sf_oad)
        pearson_vals.append(gated_pearson(inst.phi, fit.phi_hat).r)
    return envar_vals, gds_vals, pearson_vals


def test_criterion_6_and_7_benchmark_ordering_and_recovery():
    budget = Budget(600.0)
    envar_vals, gds_vals, pearson_vals = _run_benchmark_cell(
        p=5, sigma_std=0.0, episodes=5, base_seed=2026
    )
    mean_envar = float(np.mean(envar_vals))
    mean_gds = float(np.mean(gds_vals))
    ok6 = mean_envar < mean_gds and budget.within()
    report(6, "sparse selector beats greedy baseline (mean sf discrepancy)", ok6,
           f"envar {mean_envar:.4f} < gds {mean_gds:.4f}, {budget.elapsed:.0f}s")
    assert mean_envar < mean_gds

    n_good = sum(1 for r in pearson_vals if r is not None and r > 0.9)
    # long-run consistency oracle: a T=1e5 refit pins the estimator to the truth
    cfg = GeneratorConfig(p=5, t_len=1000, sigma_std=0.0, seed=2026)
    inst = generate_instance(cfg, episode=0)
    long_series = center(simulate(inst.model, 100_000, seed=777))
    long_fit = fit_ols(long_series)
    long_err = float(np.max(np.abs(long_fit.phi_hat - inst.phi)))
    ok7 = n_good >= 4 and long_err < 0.05 and budget.within()
    report(7, "gated transition-matrix correlation exceeds 0.9", ok7,
           f"{n_good}/5 episodes, long-run max err {long_err:.3f}")
    assert n_good >= 4
    assert long_err < 0.05
    assert budget.within()


def test_criterion_8_graceful_degradation():
    budget = Budget(900.0)
    medians = []
    for sigma_std in (0.0, 0.075, 0.15):
        envar_vals, _, _ = _run_benchmark_cell(
            p=5, sigma_std=sigma_std, episodes=5, base_seed=2026
        )
        medians.append(float(np.median(envar_vals)))
    ok = medians[0] <= medians[1] <= medians[2] and budget.within()
    report(8, "discrepancy degrades gracefully in the violation knob", ok,
           "medians " + " <= ".join(f"{v:.4f}" for v in medians)
           + f", {budget.elapsed:.0f}s")
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[0] == min(medians)
    assert budget.within()


PAPER_GRID = Path(__file__).resolve().parents[1] / "manifests" / "paper_grid.json"


def test_criterion_11_paper_claims_hold_at_p15(tmp_path):
    """Criteria 6 and 8 on the paper grid's p = 15 cells, as
    ``manifests/paper_grid.json`` defines them (its seed and 5 episodes), at
    sigma_std 0 and 0.15: ENVAR's mean sf discrepancy is below eqvar-gds's in
    each, and not higher at sigma_std 0 than at 0.15."""
    budget = Budget(120.0)
    payload = json.loads(PAPER_GRID.read_text())
    payload["grid"] = {"p": [15], "sigma_std": [0.0, 0.15]}
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    assert main(["benchmark", "--manifest", str(manifest_path), "--output", str(out_dir)]) == 0
    with open(out_dir / "aggregate.csv", newline="", encoding="utf-8") as handle:
        means = {(float(row["sigma_std"]), row["method"]): float(row["sf_oad_mean"])
                 for row in csv.DictReader(handle) if int(row["sf_oad_n"]) == 5}
    envar = [means[sigma, "envar"] for sigma in (0.0, 0.15)]
    gds = [means[sigma, "eqvar-gds"] for sigma in (0.0, 0.15)]
    beats = all(e < g for e, g in zip(envar, gds))
    ok = beats and envar[0] <= envar[1] and budget.within()
    report(11, "p = 15: sparse selector beats greedy baseline and degrades gracefully", ok,
           ", ".join(f"sigma_std {sigma:g}: envar {e:.4f} < gds {g:.4f}"
                     for sigma, e, g in zip((0.0, 0.15), envar, gds))
           + f"; envar {envar[0]:.4f} <= {envar[1]:.4f}, {budget.elapsed:.0f}s")
    assert beats
    assert envar[0] <= envar[1]
    assert budget.within()


def test_criterion_9_simulation_matches_stationary_law():
    budget = Budget(30.0)
    a0 = np.array([[0.0, 0.3], [-0.2, 0.0]])
    a1 = np.array([[0.5, 0.1], [0.0, 0.4]])
    m = StructuralModel(a0, a1, 1.0)
    rf = to_reduced_form(m)
    law = stationary_covariance(rf)
    t_len = 50_000
    se = sample_cov_standard_errors(rf.phi, rf.sigma_u, t_len)
    worst_z = 0.0
    for seed in range(10):
        ts = simulate(m, t_len, seed=seed)
        sample = ts.values @ ts.values.T / t_len
        worst_z = max(worst_z, float(np.max(np.abs(sample - law.sigma_x) / se)))
    ok = worst_z <= 3.0 and budget.within()
    report(9, "Monte Carlo covariance within 3 standard errors", ok,
           f"max |z| {worst_z:.2f}, {budget.elapsed:.1f}s")
    assert worst_z <= 3.0
    assert budget.within()


def test_criterion_10_benchmark_determinism(tmp_path):
    manifest_payload = {
        "format_version": "envar-kit/1",
        "generator": {"p": 3, "t_len": 120, "seed": 7, "episodes": 2,
                      "edge_prob": 0.3},
        "envar": {"max_steps": 300},
        "baselines": [{"name": "eqvar-gds", "params": {}},
                      {"name": "ols-only", "params": {}}],
        "metrics": {"eta": 1.0, "binarize_mass": 0.85, "alpha": 0.05},
        "output_dir": "unused",
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_payload))

    outputs = []
    for label, jobs in (("run1", 1), ("run2", 1), ("run4", 4)):
        out_dir = tmp_path / label
        code = main([
            "benchmark", "--manifest", str(manifest_path),
            "--output", str(out_dir), "--jobs", str(jobs),
        ])
        assert code == 0
        outputs.append({
            "summary": (out_dir / "summary.csv").read_bytes(),
            "aggregate": (out_dir / "aggregate.csv").read_bytes(),
        })
    same_rerun = outputs[0]["summary"] == outputs[1]["summary"]
    same_jobs = outputs[0]["summary"] == outputs[2]["summary"]
    same_agg = (
        outputs[0]["aggregate"] == outputs[1]["aggregate"] == outputs[2]["aggregate"]
    )
    ok = same_rerun and same_jobs and same_agg
    report(10, "benchmark outputs byte-identical across reruns and jobs", ok,
           f"rerun {same_rerun}, jobs4 {same_jobs}")
    assert same_rerun
    assert same_jobs
    assert same_agg
