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
reaches the rotations without eigenvalue -1 only, so the search stays among
the ``Q`` with determinant +1; a fit descends one restart by default.

All restarts descend together as one ``(R, p, p)`` batch, which a restart
leaves when it stops. Every per-restart array, the iterates and their Adam
moments as well as the record (step size, trace, best iterate, counters), is
kept in live order and compacted together at a stop, where each stopped
restart's record becomes its ``RestartOutcome``. Each row carries its own fixed
matrices and weights under one shared step budget, so one batch can hold the
restarts of several fits of one ``p``, ``max_steps`` and ``restarts``
(``envar_descents``). Every per-restart quantity is computed slice by slice
(per-matrix LAPACK/BLAS calls, elementwise updates, row-wise reductions), so a
restart's iterates are bitwise the same alone or in any batch. Because every iterate is an orbit member, every
candidate (and the returned solution) induces the fitted reduced form exactly.

A step makes only the calls its arithmetic needs. The objective evaluates into
a workspace of ``(R, p, 2p)`` buffers; the Cayley transform, its adjoint and
Adam write into buffers that are made, with their views, once per compaction;
the ``(K, log c)`` gradient fills one array, whose one squared norm per row
serves the stop tests, the clip and the stop record. Scalar tests guard the
masks: the per-row stop tests run only when the budget ends, a restart may have
stalled ``PATIENCE`` steps, or a value or norm is not finite; the anneal mask
only when a restart may have stalled ``ANNEAL_EVERY`` steps; the clip only when
a norm exceeds ``GRAD_CLIP``. Each operation keeps the operands and order of
the plain formulas, so outputs are bitwise those of an allocating step that
runs every test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf
from scipy.linalg.lapack import dgetri as _getri

from ._seeding import sub_rng
from .equivalence import _orbit_member
from .errors import DimensionError, OptimizerDivergedError
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

# The stop reasons of a restart whose objective or gradient became non-finite.
NONFINITE_OBJECTIVE = "objective became non-finite"
NONFINITE_GRADIENT = "gradient became non-finite"
# Every stop reason, in the order a step checks them; a restart that meets
# several at one step stops for the first.
STOP_REASONS = (NONFINITE_OBJECTIVE, "patience", "budget", NONFINITE_GRADIENT)


@dataclass(frozen=True)
class EnvarConfig:
    """Hyperparameters for the sparse-representative search."""

    lambda0: float = 1.0
    lambda1: float = 1.0
    mu: float = 7.5
    max_steps: int = 5000
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        weight = (lambda v: v >= 0, ">= 0")
        # a descent's trace is (R, max_steps); 10**6 is 100 times the largest
        # default budget
        _check_fields(self, {"lambda0": weight, "lambda1": weight, "mu": weight,
                             "max_steps": (lambda v: 1 <= v <= 10**6, "in [1, 1000000]"),
                             "restarts": (lambda v: 1 <= v <= 1000, "in [1, 1000]")})


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
    ``PATIENCE`` steps), ``"budget"`` (``max_steps`` reached), or
    ``NONFINITE_OBJECTIVE`` or ``NONFINITE_GRADIENT`` at step ``steps``, after
    ``steps - 1`` or ``steps`` traced values; ``best_step`` is the step that
    evaluated the best iterate; ``anneals`` counts the step-size decays;
    ``final_grad_norm`` is the norm of the unclipped ``(K, log c)`` gradient
    at the stop step.
    """

    q: np.ndarray
    c: float
    objective: float
    trace: np.ndarray
    steps: int
    best_step: int
    stop_reason: str
    anneals: int
    final_grad_norm: float

    def __post_init__(self):
        _freeze_fields(self)


@dataclass(frozen=True)
class EnvarSolution:
    """Selected sparse representative and the optimization record."""

    model: StructuralModel
    q_hat: np.ndarray
    c_hat: float
    objective: float
    objective_trace: np.ndarray
    diag_residual: float
    restart_index: int
    restarts: tuple[RestartOutcome, ...]
    norms: NormConstants

    def __post_init__(self):
        _freeze_fields(self)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable strided view of the leading diagonal of each C-ordered ``(p, n)``
    matrix in a stack, ``n >= p``."""
    return x.reshape(*x.shape[:-2], -1)[..., :: x.shape[-1] + 1]


@dataclass(frozen=True)
class OrbitObjective:
    """Weights and fixed matrices defining the descent problem of each restart.

    Every field holds one entry per restart: ``g_mat`` and ``h_mat`` are
    ``(R, p, p)`` stacks and ``w_off``, ``w_lag`` and ``w_diag`` are ``(R,)``
    arrays.
    """

    g_mat: np.ndarray
    h_mat: np.ndarray
    w_off: np.ndarray
    w_lag: np.ndarray
    w_diag: np.ndarray

    @cached_property
    def gh(self) -> np.ndarray:
        """``[G | H]``, one ``(p, 2p)`` block per restart."""
        return np.concatenate((self.g_mat, self.h_mat), axis=-1)

    @cached_property
    def gh_t(self) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(self.gh, -1, -2))

    @cached_property
    def weights(self) -> np.ndarray:
        """``[w_off (1 - I) | w_lag]``: the l1 weight of each entry of ``Q [G | H]``,
        one ``(p, 2p)`` block per restart."""
        off = self.w_off[:, None, None] * (1.0 - np.eye(self.gh.shape[-2]))
        lag = np.broadcast_to(self.w_lag[:, None, None], off.shape)
        return np.concatenate((off, lag), axis=-1)

    @cached_property
    def workspace(self) -> tuple[np.ndarray, ...]:
        """``2 w_diag`` and the buffers every evaluation reuses: ``Q [G | H]``
        with its diagonal and flat ``(R, 2p^2)`` views, and its subgradient
        with its diagonal view."""
        mn, grad_mn = np.empty_like(self.gh), np.empty_like(self.gh)
        return (2.0 * self.w_diag, mn, _diagonal(mn), mn.reshape(len(mn), -1),
                grad_mn, _diagonal(grad_mn))

    def take(self, rows) -> OrbitObjective:
        """The objective of a subset of the restarts, with nothing cached."""
        return replace(self, **{f.name: getattr(self, f.name)[rows]
                                for f in fields(OrbitObjective)})

    def value_and_grads(self, q: np.ndarray, c: np.ndarray):
        """Objective and its subgradients w.r.t. ``Q`` and ``c`` (sign(0) = 0).

        ``q`` is an ``(R, p, p)`` stack and ``c`` an ``(R,)`` array, one entry
        per restart. Returns the ``(R,)`` values, the ``(R, p, p)``
        ``Q``-gradient stack and the ``(R,)`` ``c``-gradients, all fresh arrays.
        A term whose weight is zero adds zero to the value and to the subgradients.
        """
        w_diag2, mn, mn_diag, mn_flat, grad_mn, grad_diag = self.workspace
        np.matmul(q, self.gh, out=mn)
        diag_m = mn_diag.copy()
        d = c[..., None] * diag_m - 1.0
        # w * sign(MN) is the l1 subgradient at c = 1, and w * sign(MN) * MN = w |MN|
        np.sign(mn, out=grad_mn)
        grad_mn *= self.weights
        mn *= grad_mn
        l1 = np.add.reduce(mn_flat, -1)
        total = c * l1 + self.w_diag * np.add.reduce(d * d, -1)
        grad_mn *= c[..., None, None]
        grad_diag += (w_diag2 * c)[..., None] * d
        grad_c = l1 + w_diag2 * np.add.reduce(d * diag_m, -1)
        return total, grad_mn @ self.gh_t, grad_c


class CayleyBuffers(NamedTuple):
    """Reusable outputs of ``cayley`` and ``cayley_adjoint`` for a stack of one
    shape, with the views they write through: the diagonals of ``Q`` and
    ``A^{-1}``, each ``A^{-1}`` as the Fortran-ordered ``A^{-T}`` that LAPACK
    inverts in place, the stack ``A^{-T}`` and the adjoint's two products."""

    q: np.ndarray
    a_inv: np.ndarray
    q_diag: np.ndarray
    a_inv_diag: np.ndarray
    a_inv_fortran: tuple[np.ndarray, ...]
    a_inv_t: np.ndarray
    a_inv_t_g: np.ndarray
    adj: np.ndarray

    @classmethod
    def empty(cls, shape) -> CayleyBuffers:
        q, a_inv, a_inv_t_g, adj = (np.empty(shape) for _ in range(4))
        a_inv_t = np.swapaxes(a_inv, -1, -2)
        return cls(q, a_inv, _diagonal(q), _diagonal(a_inv),
                   tuple(a_inv_t.reshape(-1, *shape[-2:])), a_inv_t, a_inv_t_g, adj)


def cayley(k: np.ndarray, out: CayleyBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cayley transform ``Q = (I - K/2)^{-1} (I + K/2)`` of each skew ``K`` in a stack.

    Returns ``Q`` and ``A^{-1}``, ``A = I - K/2``. Since ``I + K/2 = 2I - A``,
    ``Q = 2 A^{-1} - I``: one inverse per matrix and no product. Each inverse
    is LAPACK ``getrf``/``getri`` in place. A C-ordered ``A`` is ``A^T`` in
    Fortran order, and ``(A^T)^{-1}`` in Fortran order is ``A^{-1}`` in C
    order, so no copy is made. ``out``, a ``CayleyBuffers`` of ``k``'s shape,
    receives both results if given; otherwise they are fresh arrays.

    A matrix whose ``A`` has an exactly zero pivot, which no finite skew ``K``
    gives, gets a NaN inverse and ``Q``.
    """
    buf = CayleyBuffers.empty(k.shape) if out is None else out
    np.multiply(k, -0.5, out=buf.a_inv)
    np.add(buf.a_inv_diag, 1.0, out=buf.a_inv_diag)
    for a in buf.a_inv_fortran:
        lu, piv, info = _getrf(a, overwrite_a=True)
        if info > 0:
            a[...] = np.nan
        else:
            _getri(lu, piv, overwrite_lu=True)
    np.multiply(buf.a_inv, 2.0, out=buf.q)
    np.subtract(buf.q_diag, 1.0, out=buf.q_diag)
    return buf.q, buf.a_inv


def cayley_adjoint(a_inv: np.ndarray, g: np.ndarray,
                   out: CayleyBuffers | None = None) -> np.ndarray:
    """Adjoint of the derivative of the Cayley map at ``K`` applied to ``G``.

    ``dQ = A^{-1} dK A^{-1}``, so the adjoint is ``A^{-T} G A^{-T}``, which is
    ``(1/2) A^{-T} G (I + Q)^T``. ``out``, if given, is the ``CayleyBuffers``
    that holds ``a_inv``; the products then fill its buffers.
    """
    if out is None:
        a_inv_t, a_inv_t_g, adj = np.swapaxes(a_inv, -1, -2), None, None
    else:
        a_inv_t, a_inv_t_g, adj = out.a_inv_t, out.a_inv_t_g, out.adj
    return np.matmul(np.matmul(a_inv_t, g, out=a_inv_t_g), a_inv_t, out=adj)


def _skew(w: np.ndarray) -> np.ndarray:
    return 0.5 * (w - np.swapaxes(w, -1, -2))


def _step_buffers(theta: np.ndarray, grad: np.ndarray, lr: np.ndarray, p: int):
    """What a descent step writes through, made once per compaction: the
    ``(R, p, p)`` and ``log c`` views of ``theta`` and of ``grad``, ``lr`` as a
    column, the ``cayley`` buffers with the adjoint's transpose, Adam's update
    and the improvement mask with its ``(R, 1, 1)`` view."""
    n = len(theta)
    cay = CayleyBuffers.empty((n, p, p))
    better = np.empty(n, dtype=bool)
    return (theta[:, :-1].reshape(n, p, p), theta[:, -1], grad[:, :-1].reshape(n, p, p),
            grad[:, -1], lr[:, None], cay, np.swapaxes(cay.adj, -1, -2),
            np.empty_like(theta), better, better[:, None, None])


def minimize_orbit_objective(
    objective: OrbitObjective,
    k0: np.ndarray,
    *,
    max_steps: int,
) -> list[RestartOutcome]:
    """Run Adam on a batch of ``(K, log c)`` restarts and return each one's best iterate.

    ``k0`` is an ``(R, p, p)`` stack of skew starts, ``objective`` holds the
    matching rows and ``max_steps`` is the step budget every restart shares;
    results come back in restart order. A restart stops after the budget or
    once its best objective has not improved by ``CONVERGENCE_TOL`` over
    ``PATIENCE`` consecutive steps. During a plateau its step size decays
    every ``ANNEAL_EVERY`` stalled steps so the iterate can settle below the
    fixed-rate noise floor.

    A restart also stops when its objective (``NONFINITE_OBJECTIVE``) or its
    gradient (``NONFINITE_GRADIENT``) becomes non-finite; a step checks the
    reasons in ``STOP_REASONS`` order.

    Every per-restart array is kept in live order, row ``i`` for the restart
    ``live[i]``: the iterates and their Adam moments, and the record (step
    size, trace, best iterate, counters). A stop moves each stopped restart's
    record into its ``RestartOutcome`` and compacts the rest together. A step
    tests scalars before masks: the per-row stop tests run only when the
    budget ends, some restart may have stalled ``PATIENCE`` steps, or a value
    or gradient norm is not finite; the anneal mask only when some restart may
    have stalled ``ANNEAL_EVERY`` steps; and the clip only when some norm
    exceeds ``GRAD_CLIP``, since below it the factor is exactly 1.
    """
    # the descent steps its own view of the caller's rows, so what it caches
    # on the full batch ([G | H], its transpose, the weights, the workspace) is
    # freed at the first compaction even while the caller still holds ``objective``
    objective = objective.take(slice(None))
    log_lo, log_hi = np.log(C_BOUNDS[0]), np.log(C_BOUNDS[1])
    n_restarts, p = k0.shape[0], k0.shape[-1]
    outcomes = [None] * n_restarts
    live = np.arange(n_restarts)
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / p))
    trace = np.empty((n_restarts, max_steps))
    best_obj = np.full(n_restarts, np.inf)
    # NaN until a finite objective is seen, which a restart may never see
    best_q = np.full((n_restarts, p, p), np.nan)
    best_c = np.full(n_restarts, np.nan)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    # theta[i] is (K, log c), starting at c = 1; grad is its gradient, written
    # in place each step
    theta = np.zeros((n_restarts, p * p + 1))
    theta[:, :-1] = k0.reshape(n_restarts, -1)
    m_theta = np.zeros_like(theta)
    v_theta = np.zeros_like(theta)
    grad = np.empty_like(theta)
    k, log_c, grad_k, grad_log_c, lr_col, cay, adj_t, update, better, better_q = (
        _step_buffers(theta, grad, lr, p))
    # a lower bound of min(last_improve), refreshed once a restart may have
    # stalled ANNEAL_EVERY steps, so exact wherever the anneal or patience
    # tests read it
    floor = 0

    for step in range(1, max_steps + 1):
        q, a_inv = cayley(k, cay)
        c = np.exp(log_c)
        values, grad_q, grad_c = objective.value_and_grads(q, c)
        trace[:, step - 1] = values
        np.copyto(last_improve, step, where=values < best_obj - CONVERGENCE_TOL)
        np.less(values, best_obj, out=better)
        np.copyto(best_obj, values, where=better)
        np.copyto(best_q, q, where=better_q)
        np.copyto(best_c, c, where=better)
        np.copyto(best_step, step, where=better)
        np.subtract(cayley_adjoint(a_inv, grad_q, cay), adj_t, out=grad_k)
        grad_k *= 0.5  # the skew part of the adjoint
        np.multiply(grad_c, c, out=grad_log_c)
        # one squared norm per row serves the stop tests, the stop record and
        # the clip
        norm2 = np.add.reduce(np.multiply(grad, grad, out=update), -1)
        norm2_max = np.maximum.reduce(norm2)
        if step - floor >= ANNEAL_EVERY:
            floor = int(last_improve.min())

        # a Python sum of finite values is finite or overflows to inf, without
        # a warning; a NaN or infinite value or norm makes it non-finite
        if (step == max_steps or step - floor >= PATIENCE
                or not math.isfinite(sum(values.tolist()) + float(norm2_max))):
            # a finite gradient's square can overflow, so then read the entries
            bad_grad = ~np.isfinite(norm2)
            if bad_grad.any():
                bad_grad = ~np.isfinite(grad).all(axis=-1)
            # the rows each reason stops, in STOP_REASONS order
            hits = (~np.isfinite(values), step - last_improve >= PATIENCE,
                    np.full(len(values), step == max_steps), bad_grad)
            stop = reduce(np.logical_or, hits)
            if stop.any():
                # each stopped row's first reason
                first = np.argmax(np.array(hits)[:, stop], axis=0)
                for i, reason in zip(np.flatnonzero(stop), [STOP_REASONS[j] for j in first]):
                    outcomes[live[i]] = RestartOutcome(
                        q=best_q[i], c=float(best_c[i]), objective=float(best_obj[i]),
                        # a non-finite objective is not traced
                        trace=trace[i, :step - (reason == NONFINITE_OBJECTIVE)], steps=step,
                        best_step=int(best_step[i]), stop_reason=reason,
                        anneals=int(anneals[i]), final_grad_norm=float(np.sqrt(norm2[i])))
                if stop.all():
                    break
                keep = ~stop
                (live, lr, trace, best_obj, best_q, best_c, best_step, last_improve, anneals,
                 theta, m_theta, v_theta, grad, norm2) = (
                    a[keep] for a in (live, lr, trace, best_obj, best_q, best_c, best_step,
                                      last_improve, anneals, theta, m_theta, v_theta, grad,
                                      norm2))
                objective = objective.take(keep)
                k, log_c, grad_k, grad_log_c, lr_col, cay, adj_t, update, better, better_q = (
                    _step_buffers(theta, grad, lr, p))

        if step - floor >= ANNEAL_EVERY:
            stalled = step - last_improve
            anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
            if anneal.any():
                lr[anneal] *= ANNEAL_FACTOR
                anneals[anneal] += 1

        # NaN compares false, so a NaN maximum also takes the clip
        if not norm2_max <= GRAD_CLIP * GRAD_CLIP:
            grad *= (GRAD_CLIP / np.maximum(np.sqrt(norm2), GRAD_CLIP))[:, None]
        # Adam in place, each product in the order of m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g^2, theta -= lr (m / bias1) / (sqrt(v / bias2) + eps)
        m_theta *= ADAM_BETA1
        m_theta += np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
        v_theta *= ADAM_BETA2
        v_theta += np.multiply(np.square(grad, out=grad), 1.0 - ADAM_BETA2, out=grad)
        np.divide(m_theta, 1.0 - ADAM_BETA1**step, out=update)
        update *= lr_col
        denom = np.sqrt(np.divide(v_theta, 1.0 - ADAM_BETA2**step, out=grad), out=grad)
        denom += ADAM_EPS
        update /= denom
        theta -= update
        np.minimum(np.maximum(log_c, log_lo, out=log_c), log_hi, out=log_c)

    return outcomes


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


def _batch(problems):
    """The objective and skew starts of the restarts of all ``problems``, as one
    batch in order.

    Each restart draws its start from its own sub-seed and adds one row: its
    fit's ``G``, ``H`` and three weights."""
    rows = []
    for cr, cfg in problems:
        norms = norm_constants(cr, cfg)
        weights = (cfg.lambda0 / norms.offdiag, cfg.lambda1 / norms.lag,
                   0.5 * cfg.mu / norms.hollow)
        rows += [(cr.b_can, cr.gamma_can, *weights,
                  random_skew(cr.p, sub_rng(cfg.seed, 0x656E7672, r)))
                 for r in range(cfg.restarts)]
    *columns, starts = (np.array(column) for column in zip(*rows))
    return OrbitObjective(*columns), starts


def envar_descents(problems) -> list[tuple[RestartOutcome, ...]]:
    """Descend the restarts of several ``(cr, cfg)`` fits of one shape as one batch.

    The fits share ``p``, ``cfg.max_steps`` and ``cfg.restarts`` (or a
    ``DimensionError`` is raised) and may differ in data, seed and weights.
    Returns one entry per problem, in order: its ``RestartOutcome``s in restart
    order. A diverged restart keeps its non-finite ``stop_reason`` and finite
    trace; its fit's ``solve_envar`` raises. A restart's iterates are bitwise
    the same in any batch, so each entry is what the problem's own descent
    gives.
    """
    problems = list(problems)
    if not problems:
        return []
    if len({(cr.p, cfg.max_steps, cfg.restarts) for cr, cfg in problems}) > 1:
        raise DimensionError("envar_descents needs fits of one p, max_steps and restarts")
    _, cfg = problems[0]
    results = minimize_orbit_objective(*_batch(problems), max_steps=cfg.max_steps)
    # a fit's restarts are contiguous in the batch
    return [tuple(results[i:i + cfg.restarts]) for i in range(0, len(results), cfg.restarts)]


def solve_envar(
    cr: CanonicalRepresentative, cfg: EnvarConfig, *, outcomes=None
) -> EnvarSolution:
    """Minimize the penalized objective over the empirical orbit.

    Runs ``cfg.restarts`` descents from random skew starts, each to its own
    stop, and returns the lowest-objective solution, ties broken by restart
    index. The assembled model is
    ``(I - c_hat q_hat b_can, c_hat q_hat gamma_can, c_hat)``.

    ``outcomes``, if given, is the entry of ``(cr, cfg)`` in what an
    ``envar_descents`` call over it returned; the restarts then do not descend
    again, and the solution is bitwise the one of a lone descent. Without
    ``outcomes`` the restarts descend here, as one batch of their own. If a
    restart diverged, raises an ``OptimizerDivergedError`` naming, with its
    step and trace, the first to diverge: the earliest step, at one step an
    objective fault before a gradient fault, then the lowest index.
    """
    if outcomes is None:
        (outcomes,) = envar_descents([(cr, cfg)])
    diverged = [(r.steps, STOP_REASONS.index(r.stop_reason), i) for i, r in enumerate(outcomes)
                if r.stop_reason in (NONFINITE_OBJECTIVE, NONFINITE_GRADIENT)]
    if diverged:
        step, _, i = min(diverged)
        raise OptimizerDivergedError(f"restart {i}: {outcomes[i].stop_reason} at step {step}",
                                     trace=outcomes[i].trace.tolist())
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
        norms=norm_constants(cr, cfg),
    )
