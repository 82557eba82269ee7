"""Per-operation correctness checks. Each returns a list of failure messages.

Each computes the property it verifies (the induced reduced form,
orthogonality, triangularity, finiteness) with plain numpy rather than
through envarkit, so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# acceptance criterion 5: the ENVAR model reproduces the fitted reduced form and
# Q stays orthogonal, both to 1e-8
LAW_TOL = 1e-8
ORTH_TOL = 1e-8

_SUMMARY_FINITE = ("sf_oad", "obs_oad")
_SUMMARY_OPTIONAL = ("pearson_phi", "pearson_sigma_u", "pearson_a0", "pearson_a1")


def reduced_form(a0: np.ndarray, a1: np.ndarray, sigma: float):
    """``(phi, sigma_u)`` induced by ``(A0, A1, sigma)``."""
    b = np.eye(a0.shape[0]) - a0
    phi = np.linalg.solve(b, a1)
    b_inv = np.linalg.inv(b)
    sigma_u = sigma**2 * (b_inv @ b_inv.T)
    return phi, 0.5 * (sigma_u + sigma_u.T)


def envar_errors(a0, a1, sigma, q_hat, phi_hat, sigma_u_hat) -> list[str]:
    """The ENVAR model ``(a0, a1, sigma)`` induces the fitted (phi, sigma_u) and
    its orthogonal factor ``q_hat`` is orthogonal."""
    phi, sigma_u = reduced_form(np.asarray(a0), np.asarray(a1), sigma)
    err_phi = np.max(np.abs(phi - phi_hat)) / (1.0 + np.max(np.abs(phi_hat)))
    err_su = np.max(np.abs(sigma_u - sigma_u_hat)) / (1.0 + np.max(np.abs(sigma_u_hat)))
    q = np.asarray(q_hat)
    orth = np.linalg.norm(q.T @ q - np.eye(q.shape[0]), "fro")
    errors = []
    if not err_phi <= LAW_TOL:
        errors.append(f"phi not reproduced: relative error {err_phi:.3e}")
    if not err_su <= LAW_TOL:
        errors.append(f"sigma_u not reproduced: relative error {err_su:.3e}")
    if not orth <= ORTH_TOL:
        errors.append(f"Q not orthogonal: ||Q^T Q - I||_F = {orth:.3e}")
    return errors


def lower_triangular_errors(a0, ordering) -> list[str]:
    """``a0`` permuted by ``ordering`` is strictly lower-triangular."""
    a0 = np.asarray(a0, dtype=float)
    order = list(ordering)
    if sorted(order) != list(range(a0.shape[0])):
        return [f"ordering {order} is not a permutation of 0..{a0.shape[0] - 1}"]
    permuted = a0[np.ix_(order, order)]
    upper = np.triu(permuted)
    if np.any(upper != 0.0):
        return [f"a0 has {int(np.count_nonzero(upper))} entries on or above the diagonal"]
    return []


def finite_errors(label: str, value) -> list[str]:
    if value is None or not math.isfinite(value):
        return [f"{label} is not finite: {value!r}"]
    return []


def summary_errors(path, expected_cells: set[tuple]) -> dict[str, list[str]]:
    """``summary.csv`` has each expected cell once, no error, finite metrics.

    Cells are ``(p, sigma_std, method, episode)`` tuples. Returns the failure
    messages keyed by cell, under ``"summary"`` for missing or extra rows.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    problems: dict[str, list[str]] = {}
    seen = []
    for row in rows:
        cell = (int(row["p"]), float(row["sigma_std"]), row["method"], int(row["episode"]))
        seen.append(cell)
        errors = [f"error {row['error']!r}"] if row["error"] else []
        for col in _SUMMARY_FINITE:
            errors += finite_errors(col, float(row[col]) if row[col] else None)
        for col in _SUMMARY_OPTIONAL:
            if row[col]:
                errors += finite_errors(col, float(row[col]))
        if errors:
            problems[str(cell)] = errors
    if sorted(seen) != sorted(expected_cells):
        problems["summary"] = [
            f"cells missing {sorted(expected_cells - set(seen))}, "
            f"{len(seen) - len(set(seen) & expected_cells)} unexpected or repeated"
        ]
    return problems
