"""First-order descent over orbit parameters ``(Q, c)``, for a batch of restarts.

``Q`` is the Cayley transform ``(I - K/2)^{-1} (I + K/2)`` of a skew-symmetric
parameter ``K``, so every evaluated point is orthogonal; ``c`` lives in the
logarithmic domain and is clamped to ``C_BOUNDS`` after each update. Updates use
adaptive-moment (Adam) steps on subgradients, with global gradient-norm
clipping.

Each step inverts ``I - K/2`` once per restart, in place with LAPACK
``getrf``/``getri``, and reads from that inverse ``Q`` and the adjoint
derivative of the map that takes the ``Q``-gradient to the ``K``-gradient (Wen
& Yin, *Math. Program.* 142, 2013). The map reaches no ``Q`` with eigenvalue
-1; a caller that needs those folds a diagonal +-1 factor into the objective's
base (Helfrich et al., ICML 2018). Each restart's ``(K, log c)`` is one row of
one array, so one set of Adam moments, one gradient norm and one clip serve
both.

Independent restarts are stacked as ``(R, p, p)`` arrays and stepped together;
a restart that stops leaves the batch. Every per-restart quantity is computed
slice by slice (per-matrix LAPACK/BLAS calls, elementwise updates, row-wise
reductions), so a restart's iterates are bitwise the same alone or in a batch.

The objective is

    f(Q, c) = w_off * c * ||offdiag(Q G)||_1
            + w_lag * c * ||Q H||_1
            + w_diag * ||diag(c Q G) - 1||_2^2

Note ``||offdiag(I - c Q G)||_1 == c * ||offdiag(Q G)||_1`` for ``c > 0``, so
the first term equals the off-diagonal penalty on the contemporaneous matrix.
Both l1 terms are one weighted sum over ``Q [G | H]``, so a step makes one
product for the value and one for the ``Q``-gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf
from scipy.linalg.lapack import dgetri as _getri

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


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable strided view of the leading diagonal of each C-ordered ``(p, n)``
    matrix in a stack, ``n >= p``."""
    return x.reshape(*x.shape[:-2], -1)[..., :: x.shape[-1] + 1]


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

    @cached_property
    def gh(self) -> np.ndarray:
        """``[G | H]``, one ``(p, 2p)`` block per restart."""
        return np.concatenate(np.broadcast_arrays(self.g_mat, self.h_mat), axis=-1)

    @cached_property
    def gh_t(self) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(self.gh, -1, -2))

    @cached_property
    def weights(self) -> np.ndarray:
        """``[w_off (1 - I) | w_lag]``: the l1 weight of each entry of ``Q [G | H]``."""
        p = self.gh.shape[-2]
        return np.hstack([self.w_off * (1.0 - np.eye(p)), np.full((p, p), float(self.w_lag))])

    def take(self, rows) -> OrbitObjective:
        """The objective of a subset of the restarts."""
        return replace(self, g_mat=self.g_mat[rows], h_mat=self.h_mat[rows])

    def value_and_grads(self, q: np.ndarray, c):
        """Objective and its subgradients w.r.t. ``Q`` and ``c`` (sign(0) = 0).

        Returns the values and the ``c``-gradients, each of shape
        ``q.shape[:-2]``, and the ``Q``-gradient stack, of the shape of ``q``.
        Both l1 terms are one weighted sum over ``Q [G | H]``, so a term whose
        weight is zero adds zero to the value and to the subgradients.
        """
        c = np.asarray(c, dtype=float)
        mn = q @ self.gh
        diag_m = _diagonal(mn).copy()
        d = c[..., None] * diag_m - 1.0
        # w * sign(MN) is the l1 subgradient at c = 1, and w * sign(MN) * MN = w |MN|;
        # both are made in place, since fresh temporaries of this size cost page faults
        grad_mn = np.sign(mn)
        grad_mn *= self.weights
        mn *= grad_mn
        l1 = _sum2(mn)
        total = c * l1 + self.w_diag * (d * d).sum(axis=-1)
        grad_mn *= c[..., None, None]
        _diagonal(grad_mn)[...] += 2.0 * self.w_diag * c[..., None] * d
        grad_c = l1 + 2.0 * self.w_diag * (d * diag_m).sum(axis=-1)
        return total, grad_mn @ self.gh_t, grad_c


class ZeroPivotError(np.linalg.LinAlgError):
    """``I - K/2`` of the matrix at ``row`` of a stack has an exactly zero pivot."""

    def __init__(self, row: int):
        super().__init__(f"I - K/2 of matrix {row} has a zero pivot")
        self.row = row


def cayley(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley transform ``Q = (I - K/2)^{-1} (I + K/2)`` of each skew ``K`` in a stack.

    Returns ``Q`` and ``A^{-1}``, ``A = I - K/2``. Since ``I + K/2 = 2I - A``,
    ``Q = 2 A^{-1} - I``: one inverse per matrix and no product. Each inverse
    is LAPACK ``getrf``/``getri`` in place. A C-ordered ``A`` is ``A^T`` in
    Fortran order, and ``(A^T)^{-1}`` in Fortran order is ``A^{-1}`` in C
    order, so no copy is made.

    Raises ``ZeroPivotError`` naming the first matrix whose ``A`` has an exactly
    zero pivot.
    """
    a_inv = np.multiply(k, -0.5, order="C")
    _diagonal(a_inv)[...] += 1.0
    for row, a in enumerate(a_inv.reshape(-1, *k.shape[-2:])):
        lu, piv, info = _getrf(a.T, overwrite_a=True)
        if info > 0:
            raise ZeroPivotError(row)
        _getri(lu, piv, overwrite_lu=True)
    q = 2.0 * a_inv
    _diagonal(q)[...] -= 1.0
    return q, a_inv


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
    objective or gradient became non-finite, or whose ``I - K/2`` met a zero
    pivot, with that restart's trace.
    """
    log_lo, log_hi = np.log(C_BOUNDS[0]), np.log(C_BOUNDS[1])
    k0 = _skew(np.array(k0, dtype=float))
    n_restarts, p = k0.shape[0], k0.shape[-1]
    # each row is one restart's (K, log c); every restart starts at c = 1
    theta = np.zeros((n_restarts, p * p + 1))
    theta[:, :-1] = k0.reshape(n_restarts, -1)
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / p))
    m_theta = np.zeros_like(theta)
    v_theta = np.zeros_like(theta)
    # batch row -> restart index; rows stay in restart order as restarts leave
    ids = np.arange(n_restarts)

    trace = np.empty((n_restarts, max_steps))
    best_obj = np.full(n_restarts, np.inf)
    best_q = np.empty_like(k0)
    best_logc = np.empty(n_restarts)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    results: list[DescentResult | None] = [None] * n_restarts

    def diverged(rows: np.ndarray, what: str, step: int, steps_kept: int):
        r = int(ids[rows][0])
        return OptimizerDivergedError(
            f"restart {r}: {what} at step {step}",
            trace=trace[r, :steps_kept].tolist(),
        )

    for step in range(1, max_steps + 1):
        log_c = theta[:, -1]
        try:
            q, a_inv = cayley(theta[:, :-1].reshape(-1, p, p))
        except ZeroPivotError as exc:
            raise diverged([exc.row], "I - K/2 met a zero pivot", step, step - 1) from None
        c = np.exp(log_c)
        values, grad_q, grad_c = objective.value_and_grads(q, c)
        finite = np.isfinite(values)
        if not finite.all():
            raise diverged(~finite, "objective became non-finite", step, step - 1)
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
            ids, theta, lr, m_theta, v_theta = (
                a[keep] for a in (ids, theta, lr, m_theta, v_theta)
            )
            a_inv, grad_q, grad_c, c, stalled = (
                a[keep] for a in (a_inv, grad_q, grad_c, c, stalled)
            )
            objective = objective.take(keep)

        anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
        lr = np.where(anneal, lr * ANNEAL_FACTOR, lr)
        anneals[ids[anneal]] += 1

        grad_k = _skew(cayley_adjoint(a_inv, grad_q)).reshape(len(ids), -1)
        grad = np.concatenate((grad_k, (grad_c * c)[:, None]), axis=1)
        finite = np.isfinite(grad).all(axis=-1)
        if not finite.all():
            raise diverged(~finite, "gradient became non-finite", step, step)

        grad *= (GRAD_CLIP / np.maximum(np.sqrt((grad * grad).sum(axis=-1)), GRAD_CLIP))[:, None]
        m_theta = ADAM_BETA1 * m_theta + (1.0 - ADAM_BETA1) * grad
        v_theta = ADAM_BETA2 * v_theta + (1.0 - ADAM_BETA2) * grad**2
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        theta = theta - lr[:, None] * (m_theta / bias1) / (np.sqrt(v_theta / bias2) + ADAM_EPS)
        theta[:, -1] = np.clip(theta[:, -1], log_lo, log_hi)

    return results


def random_skew(p: int, rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    """Skew-symmetric start: entrywise N(0, scale^2), antisymmetrized."""
    return _skew(rng.normal(0.0, scale, size=(p, p)))


def random_signs(p: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal of independent +-1 entries, as a vector."""
    return np.where(rng.random(p) < 0.5, -1.0, 1.0)
