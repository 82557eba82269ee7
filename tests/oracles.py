"""Independent reference computations the closed forms are checked against.

Nothing here shares code paths with the library's alignment or stationary-law
implementations: the alignment oracle scans an explicit rotation/reflection
grid with exact per-orthogonal scale minimization, the covariance oracles sum
the defining series or solve the vectorized Kronecker system, the
sampling-error oracle evaluates the Gaussian fourth-moment formula, the
greedy-baseline oracle runs one least-squares regression per candidate node,
the file-format oracles write, read and convert one value at a time, and the
reduced-form and series oracles keep the separate scalar-noise and per-node
formulas and the sampler's earlier loop, one fresh state per step. The ENVAR
step oracles keep the descent's earlier arithmetic: fresh temporaries for the
objective, a concatenated ``(K, log c)`` gradient checked entry by entry, and
an Adam update that allocates each intermediate.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

import numpy as np
from scipy import stats

from envarkit import ReducedForm, StructuralModel, TimeSeries, stationary_covariance
from envarkit._seeding import sub_rng
from envarkit.envar_optimizer import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ANNEAL_EVERY, ANNEAL_FACTOR, C_BOUNDS, CONVERGENCE_TOL,
    GRAD_CLIP, LEARN_RATE, NONFINITE_OBJECTIVE, PATIENCE, STOP_REASONS, RestartOutcome, _skew,
    cayley, cayley_adjoint,
)
from envarkit.errors import DataFormatError


def brute_force_alignment(
    m_ref: StructuralModel,
    m_test: StructuralModel,
    eta: float,
    n_grid: int = 100_000,
) -> float:
    """Grid minimum of ||S' - cQS||_F^2 + eta (sigma' - c sigma)^2 for p = 2.

    Scans ``n_grid`` rotation angles plus the reflected branch; for each
    orthogonal candidate the optimal positive scale of the convex quadratic in
    ``c`` is used exactly (the infimum as c -> 0 when the vertex is negative).
    """
    assert m_ref.p == 2 and m_test.p == 2
    s_ref = np.hstack([m_ref.b, m_ref.a1])
    s_test = np.hstack([m_test.b, m_test.a1])
    cross = s_ref @ s_test.T
    theta = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)
    rotations = np.empty((n_grid, 2, 2))
    rotations[:, 0, 0] = ct
    rotations[:, 0, 1] = -st
    rotations[:, 1, 0] = st
    rotations[:, 1, 1] = ct
    reflections = np.empty((n_grid, 2, 2))
    reflections[:, 0, 0] = ct
    reflections[:, 0, 1] = st
    reflections[:, 1, 0] = st
    reflections[:, 1, 1] = -ct
    base = float(np.sum(s_test**2)) + eta * m_test.sigma**2
    denom = float(np.sum(s_ref**2)) + eta * m_ref.sigma**2
    best = np.inf
    for qs in (rotations, reflections):
        traces = np.einsum("nij,ji->n", qs, cross)
        numer = traces + eta * m_ref.sigma * m_test.sigma
        values = np.where(numer > 0.0, base - numer**2 / denom, base)
        best = min(best, float(values.min()))
    return best


def truncated_lyapunov(
    phi: np.ndarray, sigma_u: np.ndarray, n_terms: int = 200
) -> np.ndarray:
    """Partial sum of sum_k phi^k sigma_u (phi^k)^T."""
    p = phi.shape[0]
    total = np.zeros((p, p))
    power = np.eye(p)
    for _ in range(n_terms + 1):
        total += power @ sigma_u @ power.T
        power = power @ phi
    return total


def kron_lyapunov(phi: np.ndarray, sigma_u: np.ndarray) -> np.ndarray:
    """Solve (I - phi kron phi) vec(X) = vec(sigma_u), the p^2 x p^2 system."""
    p = phi.shape[0]
    lhs = np.eye(p * p) - np.kron(phi, phi)
    vec = np.linalg.solve(lhs, sigma_u.reshape(-1, order="F"))
    return vec.reshape(p, p, order="F")


def reference_reduced_form(
    b: np.ndarray, a1: np.ndarray, sigma
) -> tuple[np.ndarray, np.ndarray]:
    """``(B^{-1} a1, sigma_u)`` by two separate formulas, each symmetrized.

    A scalar noise scale gives ``sigma^2 (B^{-1} B^{-T})``; a vector of per-node
    scales gives ``B^{-1} diag(sigmas^2) B^{-T}``.
    """
    b_inv = np.linalg.solve(b, np.eye(b.shape[0]))
    if np.ndim(sigma) == 0:
        sigma_u = sigma**2 * (b_inv @ b_inv.T)
    else:
        sigma_u = b_inv @ np.diag(np.asarray(sigma) ** 2) @ b_inv.T
    return np.linalg.solve(b, a1), 0.5 * (sigma_u + sigma_u.T)


def reference_instance_series(
    a0: np.ndarray, a1: np.ndarray, seed: int, episode: int, sigma_nom: float,
    sigma_std: float, t_len: int, burn_in: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node noise scales and series of a generated instance, drawn step by step.

    Replays the generator's noise stream of the first structure attempt: the
    per-node scales, then the series of ``reference_series``.
    """
    p = a0.shape[0]
    rng = sub_rng(seed, 0x6E6F69, episode, 0)
    sigmas = np.maximum(sigma_nom + sigma_std * rng.standard_normal(p), 0.05 * sigma_nom)
    return sigmas, reference_series(np.eye(p) - a0, a1, sigmas, rng, t_len, burn_in)


def reference_simulate(m: StructuralModel, t_len: int, seed: int, burn_in: int) -> np.ndarray:
    """``simulate``'s series drawn step by step, its one noise scale given to every node."""
    sigmas = np.full(m.p, m.sigma)
    return reference_series(m.b, m.a1, sigmas, np.random.default_rng(seed), t_len, burn_in)


def reference_series(
    b: np.ndarray, a1: np.ndarray, sigmas: np.ndarray, rng: np.random.Generator,
    t_len: int, burn_in: int,
) -> np.ndarray:
    """A stationary start from the per-node ``sigma_u`` of ``reference_reduced_form``,
    the scaled shocks, and the recursion ``x_t = B^{-1}(a1 x_{t-1} + e_t)`` one
    step at a time into a fresh state, with ``burn_in`` leading steps dropped."""
    p = b.shape[0]
    phi, sigma_u = reference_reduced_form(b, a1, sigmas)
    sigma_x = stationary_covariance(ReducedForm(phi=phi, sigma_u=sigma_u)).sigma_x
    x = np.linalg.cholesky(sigma_x) @ rng.standard_normal(p)
    shocks = sigmas[:, None] * rng.standard_normal((p, burn_in + t_len))
    b_inv = np.linalg.solve(b, np.eye(p))
    trans, driven = b_inv @ a1, b_inv @ shocks
    out = np.empty((p, burn_in + t_len))
    for t in range(burn_in + t_len):
        x = trans @ x + driven[:, t]
        out[:, t] = x
    return out[:, burn_in:]


def _conditional_variance(target: np.ndarray, predictors: np.ndarray | None) -> float:
    """Residual variance of ``target`` after projecting onto ``predictors`` rows."""
    n = target.shape[0]
    if predictors is None or predictors.shape[0] == 0:
        resid = target
    else:
        coef, *_ = np.linalg.lstsq(predictors.T, target, rcond=None)
        resid = target - predictors.T @ coef
    return float(resid @ resid) / n


def regression_greedy(u: np.ndarray, alpha: float) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy minimum-conditional-variance order and pruned a0 by regressions.

    Each step regresses every remaining residual row on the selected rows and
    picks the smallest residual variance (strict ``<``, so the smallest index
    wins ties); each node's coefficients then come from its own least-squares
    fit, pruned by per-coefficient two-sided t-tests at level ``alpha``.
    """
    p, n = u.shape
    ordering: list[int] = []
    remaining = list(range(p))
    while remaining:
        selected_rows = u[ordering] if ordering else None
        best_node = -1
        best_var = np.inf
        for node in remaining:
            cond_var = _conditional_variance(u[node], selected_rows)
            if cond_var < best_var:
                best_var = cond_var
                best_node = node
        ordering.append(best_node)
        remaining.remove(best_node)

    a0_hat = np.zeros((p, p))
    for position in range(1, p):
        node = ordering[position]
        parents = ordering[:position]
        x = u[parents].T
        target = u[node]
        coef, *_ = np.linalg.lstsq(x, target, rcond=None)
        resid = target - x @ coef
        df = n - position - 1
        s2 = float(resid @ resid) / df
        gram_inv = np.linalg.pinv(x.T @ x)
        se = np.sqrt(np.maximum(s2 * np.diag(gram_inv), 0.0))
        for j, parent in enumerate(parents):
            if se[j] <= 0.0:
                continue
            t_stat = coef[j] / se[j]
            p_value = 2.0 * stats.t.sf(abs(t_stat), df)
            if p_value < alpha:
                a0_hat[node, parent] = coef[j]
    return tuple(ordering), a0_hat


def autocovariances(
    phi: np.ndarray, sigma_u: np.ndarray, max_lag: int
) -> np.ndarray:
    """Gamma(h) = phi^h Gamma(0) for h = 0..max_lag, Gamma(0) from the series sum."""
    gamma0 = truncated_lyapunov(phi, sigma_u, n_terms=2000)
    out = np.empty((max_lag + 1,) + gamma0.shape)
    out[0] = gamma0
    for h in range(1, max_lag + 1):
        out[h] = phi @ out[h - 1]
    return out


def sample_cov_standard_errors(
    phi: np.ndarray, sigma_u: np.ndarray, t_len: int, max_lag: int = 500
) -> np.ndarray:
    """Asymptotic SE of each entry of the sample lag-0 covariance at length T.

    Gaussian fourth-moment formula:
    Var(G_ij) = (1/T) sum_h [Gamma_ii(h) Gamma_jj(h) + Gamma_ij(h) Gamma_ji(h)]
    with the sum over h = -max_lag..max_lag and Gamma(-h) = Gamma(h)^T.
    """
    p = phi.shape[0]
    gammas = autocovariances(phi, sigma_u, max_lag)
    # explicit loops keep the formula recognizable
    var = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            total = 0.0
            for h in range(-max_lag, max_lag + 1):
                g = gammas[h] if h >= 0 else gammas[-h].T
                total += g[i, i] * g[j, j] + g[i, j] * g[j, i]
            var[i, j] = total / t_len
    return np.sqrt(var)


def reference_jsonify(obj: Any) -> Any:
    """Element-by-element conversion to plain JSON types, NaN/inf to None.

    Arrays are walked value by value through ``tolist``; booleans are tested
    before integers, since ``bool`` is a subclass of ``int``.
    """
    if isinstance(obj, dict):
        return {str(k): reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def reference_write_series_csv(path: Path | str, ts: TimeSeries) -> None:
    """Series CSV through ``csv.writer``, one ``repr(float(v))`` per value."""
    values = np.asarray(ts.values)
    p, t_len = values.shape
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(p)])
        for t in range(t_len):
            writer.writerow([t + 1] + [repr(float(v)) for v in values[:, t]])


def reference_read_series_csv(path: Path | str) -> TimeSeries:
    """Series CSV reader with one ``np.isfinite`` call per value."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if not header or header[0] != "t" or len(header) < 2:
            raise DataFormatError(f"{path}: header must be 't,x1,...,xp', got {header}")
        expected = ["t"] + [f"x{i + 1}" for i in range(len(header) - 1)]
        if header != expected:
            raise DataFormatError(f"{path}: header must be {expected}, got {header}")
        p = len(header) - 1
        columns: list[list[float]] = []
        prev_t = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != p + 1:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {p + 1} fields, got {len(row)}"
                )
            try:
                t_val = float(row[0])
                vals = [float(v) for v in row[1:]]
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: non-numeric value") from None
            if prev_t is not None and t_val <= prev_t:
                raise DataFormatError(f"{path}: line {lineno}: time index must increase")
            if not all(np.isfinite(v) for v in vals):
                raise DataFormatError(f"{path}: line {lineno}: non-finite value")
            prev_t = t_val
            columns.append(vals)
    if len(columns) < 2:
        raise DataFormatError(f"{path}: need at least 2 time steps, got {len(columns)}")
    return TimeSeries(values=np.asarray(columns, dtype=float).T, centered=False)


def reference_value_and_grads(objective, q: np.ndarray, c: np.ndarray):
    """The ENVAR objective's value, ``Q``-gradient and ``c``-gradient, each
    intermediate a fresh array, and ``[G | H]``, its transpose and the l1
    weights rebuilt from the objective's fields."""
    p = q.shape[-1]
    gh = np.concatenate((objective.g_mat, objective.h_mat), axis=-1)
    off = objective.w_off[:, None, None] * (1.0 - np.eye(p))
    weights = np.concatenate((off, np.broadcast_to(objective.w_lag[:, None, None], off.shape)),
                             axis=-1)
    diag = np.arange(p)
    mn = q @ gh
    diag_m = np.diagonal(mn, axis1=-2, axis2=-1).copy()
    d = c[..., None] * diag_m - 1.0
    grad_mn = np.sign(mn)
    grad_mn *= weights
    mn *= grad_mn
    l1 = mn.reshape(len(mn), -1).sum(axis=-1)
    total = c * l1 + objective.w_diag * (d * d).sum(axis=-1)
    grad_mn *= c[..., None, None]
    grad_mn[..., diag, diag] += 2.0 * objective.w_diag[..., None] * c[..., None] * d
    grad_c = l1 + 2.0 * objective.w_diag * (d * diag_m).sum(axis=-1)
    return total, grad_mn @ np.ascontiguousarray(np.swapaxes(gh, -1, -2)), grad_c


def reference_minimize_orbit_objective(objective, k0, *, max_steps):
    """``minimize_orbit_objective`` as one allocating step: the gradient is
    concatenated, tested for finiteness entry by entry and squared twice (for
    the stop record and the clip), and Adam rebinds each moment and iterate."""
    objective = objective.take(slice(None))
    log_lo, log_hi = np.log(C_BOUNDS[0]), np.log(C_BOUNDS[1])
    n_restarts, p = k0.shape[0], k0.shape[-1]
    last_step = int(max_steps.max())
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / p))
    trace = np.empty((n_restarts, last_step))
    best_obj = np.full(n_restarts, np.inf)
    best_q = np.full((n_restarts, p, p), np.nan)
    best_c = np.full(n_restarts, np.nan)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    stop_step = np.zeros(n_restarts, dtype=int)
    stop_reason = np.zeros(n_restarts, dtype=int)
    final_grad_norm = np.zeros(n_restarts)
    live = np.arange(n_restarts)
    theta = np.zeros((n_restarts, p * p + 1))
    theta[:, :-1] = k0.reshape(n_restarts, -1)
    m_theta = np.zeros_like(theta)
    v_theta = np.zeros_like(theta)

    for step in range(1, last_step + 1):
        q, a_inv = cayley(theta[:, :-1].reshape(-1, p, p))
        c = np.exp(theta[:, -1])
        values, grad_q, grad_c = objective.value_and_grads(q, c)
        trace[live, step - 1] = values
        last_improve[live[values < best_obj[live] - CONVERGENCE_TOL]] = step
        better = values < best_obj[live]
        best_obj[live[better]] = values[better]
        best_q[live[better]] = q[better]
        best_c[live[better]] = c[better]
        best_step[live[better]] = step
        stalled = step - last_improve[live]
        grad_k = _skew(cayley_adjoint(a_inv, grad_q)).reshape(len(live), -1)
        grad = np.concatenate((grad_k, (grad_c * c)[:, None]), axis=1)

        hits = (~np.isfinite(values), stalled >= PATIENCE, step == max_steps[live],
                ~np.isfinite(grad).all(axis=-1))
        stop = np.logical_or.reduce(hits)
        if stop.any():
            stopped = live[stop]
            stop_step[stopped] = step
            stop_reason[stopped] = np.argmax(np.array(hits)[:, stop], axis=0)
            final_grad_norm[stopped] = np.sqrt((grad[stop] ** 2).sum(axis=-1))
            if stop.all():
                break
            keep = ~stop
            live, theta, m_theta, v_theta, stalled, grad = (
                a[keep] for a in (live, theta, m_theta, v_theta, stalled, grad))
            objective = objective.take(keep)

        anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
        if anneal.any():
            rows = live[anneal]
            lr[rows] *= ANNEAL_FACTOR
            anneals[rows] += 1

        grad *= (GRAD_CLIP / np.maximum(np.sqrt((grad * grad).sum(axis=-1)), GRAD_CLIP))[:, None]
        m_theta = ADAM_BETA1 * m_theta + (1.0 - ADAM_BETA1) * grad
        v_theta = ADAM_BETA2 * v_theta + (1.0 - ADAM_BETA2) * grad**2
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        theta = theta - lr[live, None] * (m_theta / bias1) / (np.sqrt(v_theta / bias2) + ADAM_EPS)
        theta[:, -1] = np.clip(theta[:, -1], log_lo, log_hi)

    reasons = [STOP_REASONS[i] for i in stop_reason]
    return [RestartOutcome(q=best_q[r], c=float(best_c[r]), objective=float(best_obj[r]),
                           trace=trace[r, :stop_step[r] - (reasons[r] == NONFINITE_OBJECTIVE)],
                           steps=int(stop_step[r]), best_step=int(best_step[r]),
                           stop_reason=reasons[r], anneals=int(anneals[r]),
                           final_grad_norm=float(final_grad_norm[r]))
            for r in range(n_restarts)]
