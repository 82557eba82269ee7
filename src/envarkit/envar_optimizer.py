"""Sparse normalized-representative selection (ENVAR) over the empirical orbit.

The estimator searches the class ``{(I - cQ b_can, cQ gamma_can, c)}`` for a
member whose contemporaneous and lagged matrices are entrywise sparse while the
diagonal of ``cQ b_can`` is softly pulled to one:

    minimize  lambda0 ||offdiag(I - cQ b_can)||_1 / norm_a0
            + lambda1 ||cQ gamma_can||_1 / norm_a1
            + (mu/2) ||diag(cQ b_can) - 1||_2^2 / norm_hollow

over orthogonal ``Q`` and ``c`` in ``C_BOUNDS``. The three normalization
constants are the raw term values at a fixed random orthogonal baseline and
``c = 1``. Since ``||offdiag(I - cQG)||_1 == c ||offdiag(QG)||_1`` for
``c > 0``, both l1 terms are one weighted sum over ``Q [G | H]`` with
``G = b_can`` and ``H = gamma_can``, so a step makes one product for the value
and one for the ``Q``-gradient.

``Q`` is the Cayley transform ``(I - K/2)^{-1} (I + K/2)`` of a skew-symmetric
``K``, so every iterate is orthogonal; ``c`` is optimized in the log domain and
clamped to ``C_BOUNDS``. Each step inverts ``I - K/2`` once per restart, in
place with LAPACK ``getrf``/``getri``, and reads from that inverse both ``Q``
and the adjoint derivative that takes the ``Q``-gradient to the ``K``-gradient
(Wen & Yin, *Math. Program.* 142, 2013). Each restart's ``(K, log c)`` is one
row of one array, stepped by Adam with global gradient-norm clipping. The map
reaches no ``Q`` with eigenvalue -1; every restart after the first folds a
random diagonal +-1 matrix into its base ``[G | H]`` (Helfrich et al., ICML
2018), which makes those rotations, and the reflections, reachable.

All restarts descend together as one ``(R, p, p)`` batch, and a restart that
stops leaves it. Every per-restart quantity is computed slice by slice
(per-matrix LAPACK/BLAS calls, elementwise updates, row-wise reductions), so a
restart's iterates are bitwise the same alone or in a batch. Because every
iterate is an orbit member, every candidate (and the returned solution)
induces the fitted reduced form exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf
from scipy.linalg.lapack import dgetri as _getri

from ._seeding import sub_rng
from .equivalence import _orbit_member
from .errors import OptimizerDivergedError
from .model_core import StructuralModel, _check_fields, _freeze_fields, _setting
from .reduced_estimation import CanonicalRepresentative

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

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class EnvarConfig:
    """Hyperparameters for the sparse-representative search."""

    lambda0: float = 1.0
    lambda1: float = 1.0
    mu: float = 7.5
    max_steps: int = 5000
    seed: int = 0
    restarts: int = 4

    def __post_init__(self):
        weight = (lambda v: v >= 0, ">= 0")
        count = (lambda v: v >= 1, ">= 1")
        _check_fields(self, {"lambda0": weight, "lambda1": weight, "mu": weight,
                             "max_steps": count, "restarts": count})


def default_config(p: int, seed: int = 0) -> EnvarConfig:
    """Dimension-dependent defaults for the penalized search.

    The hollowness weight steps down with dimension (7.5 up to 25 nodes, 5.0 up
    to 75, 2.5 beyond); larger graphs get a longer step budget.
    """
    p = _setting("p", p, lambda v: v >= 1, ">= 1", integer=True)
    if p <= 25:
        mu = 7.5
    elif p <= 75:
        mu = 5.0
    else:
        mu = 2.5
    return EnvarConfig(mu=mu, max_steps=10_000 if p > 10 else 5000, seed=seed)


@dataclass(frozen=True)
class NormConstants:
    """Per-term normalizations sampled at a fixed random orthogonal baseline."""

    offdiag: float
    lag: float
    hollow: float
    fallbacks: tuple[str, ...]


@dataclass(frozen=True)
class RestartOutcome:
    """Best iterate of one restart, with why and when its descent stopped.

    ``stop_reason`` is ``"patience"`` (no improvement by the tolerance for
    ``PATIENCE`` steps) or ``"budget"`` (``max_steps`` reached); ``best_step``
    is the step that evaluated the best iterate; ``anneals`` counts the
    step-size decays. In ``EnvarSolution.restarts``, ``q`` has the restart's
    sign matrix folded in.
    """

    q: np.ndarray
    c: float
    objective: float
    trace: tuple[float, ...]
    steps: int
    best_step: int
    stop_reason: str
    anneals: int

    def __post_init__(self):
        _freeze_fields(self)


@dataclass(frozen=True)
class EnvarSolution:
    """Selected sparse representative and the optimization record."""

    model: StructuralModel
    q_hat: np.ndarray
    c_hat: float
    objective: float
    objective_trace: tuple[float, ...]
    diag_residual: float
    restart_index: int
    restarts: tuple[RestartOutcome, ...]
    norms: NormConstants

    def __post_init__(self):
        _freeze_fields(self)


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
    w_off: float
    w_lag: float
    w_diag: float

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
        A term whose weight is zero adds zero to the value and to the
        subgradients.
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


def _skew(w: np.ndarray) -> np.ndarray:
    return 0.5 * (w - np.swapaxes(w, -1, -2))


def minimize_orbit_objective(
    objective: OrbitObjective,
    k0: np.ndarray,
    *,
    max_steps: int,
) -> list[RestartOutcome]:
    """Run Adam on a batch of ``(K, log c)`` restarts and return each one's best iterate.

    ``k0`` is an ``(R, p, p)`` stack of skew starts and ``objective`` holds the
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
    n_restarts, p = k0.shape[0], k0.shape[-1]
    # every array below is indexed by batch row, and all are compacted together
    # as restarts leave; ids names each row's restart, in restart order
    ids = np.arange(n_restarts)
    # each row is one restart's (K, log c); every restart starts at c = 1
    theta = np.zeros((n_restarts, p * p + 1))
    theta[:, :-1] = k0.reshape(n_restarts, -1)
    m_theta = np.zeros_like(theta)
    v_theta = np.zeros_like(theta)
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / p))
    trace = np.empty((n_restarts, max_steps))
    best_obj = np.full(n_restarts, np.inf)
    best_q = np.empty((n_restarts, p, p))
    best_c = np.empty(n_restarts)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    results: list[RestartOutcome | None] = [None] * n_restarts

    def diverged(row: int, what: str, step: int, steps_kept: int):
        return OptimizerDivergedError(
            f"restart {ids[row]}: {what} at step {step}", trace=trace[row, :steps_kept].tolist()
        )

    for step in range(1, max_steps + 1):
        try:
            q, a_inv = cayley(theta[:, :-1].reshape(-1, p, p))
        except ZeroPivotError as exc:
            raise diverged(exc.row, "I - K/2 met a zero pivot", step, step - 1) from None
        c = np.exp(theta[:, -1])
        values, grad_q, grad_c = objective.value_and_grads(q, c)
        finite = np.isfinite(values)
        if not finite.all():
            raise diverged(np.argmin(finite), "objective became non-finite", step, step - 1)
        trace[:, step - 1] = values
        last_improve[values < best_obj - CONVERGENCE_TOL] = step
        better = values < best_obj
        best_obj[better] = values[better]
        best_q[better] = q[better]
        best_c[better] = c[better]
        best_step[better] = step
        stalled = step - last_improve

        patient = stalled >= PATIENCE
        stop = patient | (step == max_steps)
        if stop.any():
            for row in np.flatnonzero(stop):
                results[ids[row]] = RestartOutcome(
                    q=best_q[row],
                    c=float(best_c[row]),
                    objective=float(best_obj[row]),
                    trace=tuple(trace[row, :step].tolist()),
                    steps=step,
                    best_step=int(best_step[row]),
                    stop_reason="patience" if patient[row] else "budget",
                    anneals=int(anneals[row]),
                )
            if stop.all():
                break
            keep = ~stop
            (ids, theta, m_theta, v_theta, lr, trace, best_obj, best_q, best_c, best_step,
             last_improve, anneals, a_inv, grad_q, grad_c, c, stalled) = (
                a[keep] for a in (ids, theta, m_theta, v_theta, lr, trace, best_obj, best_q,
                                  best_c, best_step, last_improve, anneals, a_inv, grad_q,
                                  grad_c, c, stalled)
            )
            objective = objective.take(keep)

        anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
        lr = np.where(anneal, lr * ANNEAL_FACTOR, lr)
        anneals += anneal

        grad_k = _skew(cayley_adjoint(a_inv, grad_q)).reshape(len(ids), -1)
        grad = np.concatenate((grad_k, (grad_c * c)[:, None]), axis=1)
        finite = np.isfinite(grad).all(axis=-1)
        if not finite.all():
            raise diverged(np.argmin(finite), "gradient became non-finite", step, step)

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


def _baseline_orthogonal(p: int, seed: int) -> np.ndarray:
    """Fixed random orthogonal matrix from a sub-seed of the config seed."""
    rng = sub_rng(seed, 0x6E6F726D)
    mat = rng.standard_normal((p, p))
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _orbit_objective(
    cr: CanonicalRepresentative, cfg: EnvarConfig, norms: NormConstants, signs: np.ndarray
) -> OrbitObjective:
    """The selection objective of each restart, with its sign matrix folded into the base."""
    return OrbitObjective(
        g_mat=signs[:, :, None] * cr.b_can,
        h_mat=signs[:, :, None] * cr.gamma_can,
        w_off=cfg.lambda0 / norms.offdiag,
        w_lag=cfg.lambda1 / norms.lag,
        w_diag=0.5 * cfg.mu / norms.hollow,
    )


def norm_constants(cr: CanonicalRepresentative, cfg: EnvarConfig) -> NormConstants:
    """Raw term values at the baseline projection and ``c = 1``.

    Terms that vanish at the baseline fall back to 1.0 and are flagged rather
    than silently dividing by zero.
    """
    q0 = _baseline_orthogonal(cr.p, cfg.seed)
    m = q0 @ cr.b_can
    diag_m = np.diag(m)
    raw = {
        "offdiag": float(np.abs(m - np.diag(diag_m)).sum()),
        "lag": float(np.abs(q0 @ cr.gamma_can).sum()),
        "hollow": float(np.sum((diag_m - 1.0) ** 2)),
    }
    return NormConstants(
        **{name: value if value >= _NORM_FLOOR else 1.0 for name, value in raw.items()},
        fallbacks=tuple(name for name, value in raw.items() if value < _NORM_FLOOR),
    )


def solve_envar(cr: CanonicalRepresentative, cfg: EnvarConfig) -> EnvarSolution:
    """Minimize the penalized objective over the empirical orbit.

    Runs ``cfg.restarts`` independent descents from random skew starts, stepped
    together as one batch (the first with no sign fold, the others each with
    a random one), and returns the lowest-objective solution, ties broken by
    restart index. The assembled model is
    ``(I - c_hat q_hat b_can, c_hat q_hat gamma_can, c_hat)``.
    """
    p = cr.p
    norms = norm_constants(cr, cfg)
    signs, starts = [], []
    for r in range(cfg.restarts):
        rng = sub_rng(cfg.seed, 0x656E7672, r)
        signs.append(np.ones(p) if r == 0 else np.where(rng.random(p) < 0.5, -1.0, 1.0))
        starts.append(random_skew(p, rng))
    results = minimize_orbit_objective(
        _orbit_objective(cr, cfg, norms, np.array(signs)),
        k0=np.array(starts),
        max_steps=cfg.max_steps,
    )
    outcomes = [
        replace(result, q=result.q @ np.diag(s)) for result, s in zip(results, signs)
    ]
    best_index = min(range(len(outcomes)), key=lambda i: (outcomes[i].objective, i))
    best = outcomes[best_index]
    # diag(a0) = 1 - diag(c Q b_can) exactly, so its norm is the diagonal residual
    model = _orbit_member(cr.b_can, cr.gamma_can, 1.0, best.q, best.c)
    return EnvarSolution(
        model=model,
        q_hat=best.q,
        c_hat=best.c,
        objective=best.objective,
        objective_trace=best.trace,
        diag_residual=float(np.linalg.norm(np.diag(model.a0))),
        restart_index=best_index,
        restarts=tuple(outcomes),
        norms=norms,
    )
