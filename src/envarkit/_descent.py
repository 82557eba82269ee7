"""First-order descent over orbit parameters ``(Q, c)``, for a batch of restarts.

``Q`` is the Cayley transform ``(I - K/2)^{-1} (I + K/2)`` of a skew-symmetric
parameter ``K``, so every evaluated point is orthogonal; ``c`` lives in the
logarithmic domain and is clamped to ``C_BOUNDS`` after each update. Updates use
adaptive-moment (Adam) steps on subgradients, with global gradient-norm
clipping.

Each step makes one batched inverse of ``I - K/2``, and from it ``Q`` and the
adjoint derivative of the map that takes the ``Q``-gradient to the
``K``-gradient (Wen & Yin, *Math. Program.* 142, 2013). The map reaches no
``Q`` with eigenvalue -1; a caller that needs those folds a diagonal +-1 factor
into the objective's base (Helfrich et al., ICML 2018).

Independent restarts are stacked as ``(R, p, p)`` arrays and stepped together;
a restart that stops leaves the batch. Every per-restart quantity is computed
slice by slice (batched LAPACK/BLAS calls, elementwise updates, row-wise
reductions), so a restart's iterates are bitwise the same alone or in a batch.

The objective is

    f(Q, c) = w_off * c * ||offdiag(Q G)||_1
            + w_lag * c * ||Q H||_1
            + w_diag * ||diag(c Q G) - 1||_2^2

Note ``||offdiag(I - c Q G)||_1 == c * ||offdiag(Q G)||_1`` for ``c > 0``, so
the first term equals the off-diagonal penalty on the contemporaneous matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import OptimizerDivergedError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Step size at p = 5; a descent at dimension p starts at LEARN_RATE * 5 / p.
LEARN_RATE = 5e-3
# Bound on the global norm of each step's (K, log c) gradient.
GRAD_CLIP = 1.0
# A restart stops once its best objective has not improved by CONVERGENCE_TOL
# for PATIENCE consecutive steps.
CONVERGENCE_TOL = 1e-9
PATIENCE = 500
# The interval that holds ``c``.
C_BOUNDS = (1e-3, 1e3)

# Fixed-rate Adam stalls in a noise ball of radius ~ learn_rate around a
# minimum; annealing on plateau lets runs reach the tight residuals the
# postconditions require. Deterministic: driven only by the objective trace.
ANNEAL_EVERY = 100
ANNEAL_FACTOR = 0.3


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the trailing two axes, one contiguous row-wise sum per matrix."""
    return x.reshape(*x.shape[:-2], -1).sum(axis=-1)


def _diagonal(m: np.ndarray) -> np.ndarray:
    return np.diagonal(m, axis1=-2, axis2=-1)


def _offdiag(m: np.ndarray) -> np.ndarray:
    """Copy of each matrix in a stack with its diagonal set to zero."""
    off = m.copy()
    idx = np.arange(m.shape[-1])
    off[..., idx, idx] = 0.0
    return off


@dataclass(frozen=True)
class OrbitObjective:
    """Weights and fixed matrices defining the descent problem of each restart.

    ``g_mat`` and ``h_mat`` are ``(p, p)`` matrices or ``(R, p, p)`` stacks with
    one matrix per restart; the weights are shared by all restarts.
    """

    g_mat: np.ndarray
    h_mat: np.ndarray
    w_off: float = 0.0
    w_lag: float = 0.0
    w_diag: float = 0.0

    def take(self, rows) -> OrbitObjective:
        """The objective of a subset of the restarts."""
        return replace(self, g_mat=self.g_mat[rows], h_mat=self.h_mat[rows])

    def value_and_grads(self, q: np.ndarray, c):
        """Objective, its three terms, and subgradients w.r.t. ``Q`` and ``c`` (sign(0) = 0).

        Returns the values, the unweighted terms ``||offdiag(Q G)||_1``,
        ``||Q H||_1`` and ``||diag(c Q G) - 1||_2^2`` (zero where the weight is
        zero) and the ``c``-gradients, each of shape ``q.shape[:-2]``, and the
        ``Q``-gradient stack, of the shape of ``q``.
        """
        c = np.asarray(c, dtype=float)
        m = q @ self.g_mat
        grad_m = np.zeros_like(m)
        grad_n = None
        grad_c = np.zeros(q.shape[:-2])
        total = np.zeros(q.shape[:-2])
        s_off = l1 = hollow = np.zeros(q.shape[:-2])
        if self.w_off:
            off = _offdiag(m)
            s_off = _sum2(np.abs(off))
            total += self.w_off * c * s_off
            grad_m += (self.w_off * c)[..., None, None] * np.sign(off)
            grad_c += self.w_off * s_off
        if self.w_lag:
            n_mat = q @ self.h_mat
            l1 = _sum2(np.abs(n_mat))
            total += self.w_lag * c * l1
            grad_n = (self.w_lag * c)[..., None, None] * np.sign(n_mat)
            grad_c += self.w_lag * l1
        if self.w_diag:
            diag_m = _diagonal(m)
            d = c[..., None] * diag_m - 1.0
            hollow = (d * d).sum(axis=-1)
            total += self.w_diag * hollow
            idx = np.arange(q.shape[-1])
            grad_m[..., idx, idx] += 2.0 * self.w_diag * c[..., None] * d
            grad_c += 2.0 * self.w_diag * (d * diag_m).sum(axis=-1)
        grad_q = grad_m @ np.swapaxes(self.g_mat, -1, -2)
        if grad_n is not None:
            grad_q += grad_n @ np.swapaxes(self.h_mat, -1, -2)
        return total, (s_off, l1, hollow), grad_q, grad_c


def cayley(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley transform ``Q = (I - K/2)^{-1} (I + K/2)`` of each skew ``K`` in a stack.

    Returns ``Q`` and ``A^{-1}``, ``A = I - K/2``. Since ``I + K/2 = 2I - A``,
    ``Q = 2 A^{-1} - I``: one batched inverse and no product.
    """
    eye = np.eye(k.shape[-1])
    a_inv = np.linalg.inv(eye - 0.5 * k)
    return 2.0 * a_inv - eye, a_inv


def cayley_adjoint(a_inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the derivative of the Cayley map at ``K`` applied to ``G``.

    ``dQ = A^{-1} dK A^{-1}``, so the adjoint is ``A^{-T} G A^{-T}``, which is
    ``(1/2) A^{-T} G (I + Q)^T``.
    """
    a_inv_t = np.swapaxes(a_inv, -1, -2)
    return a_inv_t @ g @ a_inv_t


@dataclass(frozen=True)
class DescentResult:
    """Best iterate of one restart, with why and when its descent stopped.

    ``stop_reason`` is ``"patience"`` (no improvement by the tolerance for
    ``PATIENCE`` steps) or ``"budget"`` (``max_steps`` reached); ``best_step``
    is the step that evaluated the best iterate; ``anneals`` counts the
    step-size decays.
    """

    q: np.ndarray
    c: float
    objective: float
    trace: tuple[float, ...]
    steps: int
    best_step: int
    stop_reason: str
    anneals: int


def _skew(w: np.ndarray) -> np.ndarray:
    return 0.5 * (w - np.swapaxes(w, -1, -2))


def minimize_orbit_objective(
    objective: OrbitObjective,
    k0: np.ndarray,
    *,
    max_steps: int,
) -> list[DescentResult]:
    """Run Adam on a batch of ``(K, log c)`` restarts and return each one's best iterate.

    ``k0`` is an ``(R, p, p)`` stack of starts and ``objective`` holds the
    matching ``(R, p, p)`` stacks; results come back in restart order. A
    restart stops after ``max_steps`` or once its best objective has not
    improved by ``CONVERGENCE_TOL`` over ``PATIENCE`` consecutive steps. During
    a plateau its step size decays every ``ANNEAL_EVERY`` stalled steps so the
    iterate can settle below the fixed-rate noise floor.

    Raises ``OptimizerDivergedError`` naming the lowest-index restart whose
    objective or gradient became non-finite, with that restart's trace.
    """
    log_lo, log_hi = np.log(C_BOUNDS[0]), np.log(C_BOUNDS[1])
    k = _skew(np.array(k0, dtype=float))
    n_restarts = k.shape[0]
    # every restart starts at c = 1
    log_c = np.zeros(n_restarts)
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / k.shape[-1]))
    m_k = np.zeros_like(k)
    v_k = np.zeros_like(k)
    m_c = np.zeros(n_restarts)
    v_c = np.zeros(n_restarts)
    # batch row -> restart index; rows stay in restart order as restarts leave
    ids = np.arange(n_restarts)

    trace = np.empty((n_restarts, max_steps))
    best_obj = np.full(n_restarts, np.inf)
    best_q = np.empty_like(k)
    best_logc = np.empty(n_restarts)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    results: list[DescentResult | None] = [None] * n_restarts

    def diverged(rows: np.ndarray, what: str, step: int, steps_kept: int):
        r = int(ids[rows][0])
        return OptimizerDivergedError(
            f"restart {r}: {what} became non-finite at step {step}",
            trace=trace[r, :steps_kept].tolist(),
        )

    for step in range(1, max_steps + 1):
        q, a_inv = cayley(k)
        c = np.exp(log_c)
        values, _, grad_q, grad_c = objective.value_and_grads(q, c)
        finite = np.isfinite(values)
        if not finite.all():
            raise diverged(~finite, "objective", step, step - 1)
        trace[ids, step - 1] = values
        best_so_far = best_obj[ids]
        last_improve[ids[values < best_so_far - CONVERGENCE_TOL]] = step
        better = values < best_so_far
        rows = ids[better]
        best_obj[rows] = values[better]
        best_q[rows] = q[better]
        best_logc[rows] = log_c[better]
        best_step[rows] = step
        stalled = step - last_improve[ids]

        patient = stalled >= PATIENCE
        stop = patient | (step == max_steps)
        if stop.any():
            for row in np.flatnonzero(stop):
                r = int(ids[row])
                results[r] = DescentResult(
                    q=best_q[r].copy(),
                    c=float(np.exp(best_logc[r])),
                    objective=float(best_obj[r]),
                    trace=tuple(trace[r, :step].tolist()),
                    steps=step,
                    best_step=int(best_step[r]),
                    stop_reason="patience" if patient[row] else "budget",
                    anneals=int(anneals[r]),
                )
            if stop.all():
                break
            keep = ~stop
            ids, k, log_c, lr, m_k, v_k, m_c, v_c = (
                a[keep] for a in (ids, k, log_c, lr, m_k, v_k, m_c, v_c)
            )
            a_inv, grad_q, grad_c, c, stalled = (
                a[keep] for a in (a_inv, grad_q, grad_c, c, stalled)
            )
            objective = objective.take(keep)

        anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
        lr = np.where(anneal, lr * ANNEAL_FACTOR, lr)
        anneals[ids[anneal]] += 1

        grad_k = _skew(cayley_adjoint(a_inv, grad_q))
        grad_logc = grad_c * c
        finite = np.isfinite(grad_k).all(axis=(1, 2)) & np.isfinite(grad_logc)
        if not finite.all():
            raise diverged(~finite, "gradient", step, step)

        total_norm = np.sqrt(_sum2(grad_k**2) + grad_logc**2)
        scale = GRAD_CLIP / np.maximum(total_norm, GRAD_CLIP)
        grad_k = grad_k * scale[:, None, None]
        grad_logc = grad_logc * scale

        m_k = ADAM_BETA1 * m_k + (1.0 - ADAM_BETA1) * grad_k
        v_k = ADAM_BETA2 * v_k + (1.0 - ADAM_BETA2) * grad_k**2
        m_c = ADAM_BETA1 * m_c + (1.0 - ADAM_BETA1) * grad_logc
        v_c = ADAM_BETA2 * v_c + (1.0 - ADAM_BETA2) * grad_logc**2
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        k = k - lr[:, None, None] * (m_k / bias1) / (np.sqrt(v_k / bias2) + ADAM_EPS)
        log_c = log_c - lr * (m_c / bias1) / (np.sqrt(v_c / bias2) + ADAM_EPS)
        log_c = np.clip(log_c, log_lo, log_hi)

    return results


def random_skew(p: int, rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    """Skew-symmetric start: entrywise N(0, scale^2), antisymmetrized."""
    return _skew(rng.normal(0.0, scale, size=(p, p)))


def random_signs(p: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal of independent +-1 entries, as a vector."""
    return np.where(rng.random(p) < 0.5, -1.0, 1.0)
