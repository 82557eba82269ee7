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

All restarts descend together as one ``(R, p, p)`` batch of live state, which a
restart leaves when it stops; its record stays in restart order. Each row
carries its own fixed matrices, weights and step budget, so one batch can hold
the restarts of several fits of one dimension (``envar_descents``). Every
per-restart quantity is computed slice by slice (per-matrix LAPACK/BLAS calls,
elementwise updates, row-wise reductions), so a restart's iterates are bitwise
the same alone or in any batch. Because every iterate is an orbit member, every
candidate (and the returned solution) induces the fitted reduced form exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

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
        # a descent's trace is (R, max_steps); 10**6 is 100 times the largest
        # default budget and 1000 is 250 times the default restart count
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
    evaluated the best iterate; ``anneals`` counts the step-size decays. In
    ``EnvarSolution.restarts``, where no restart diverged (such a fit raises),
    ``q`` has the restart's sign matrix folded in.
    """

    q: np.ndarray
    c: float
    objective: float
    trace: np.ndarray
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
    objective_trace: np.ndarray
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

    def take(self, rows) -> OrbitObjective:
        """The objective of a subset of the restarts."""
        return replace(self, **{f.name: getattr(self, f.name)[rows]
                                for f in fields(OrbitObjective)})

    def value_and_grads(self, q: np.ndarray, c: np.ndarray):
        """Objective and its subgradients w.r.t. ``Q`` and ``c`` (sign(0) = 0).

        ``q`` is an ``(R, p, p)`` stack and ``c`` an ``(R,)`` array, one entry
        per restart. Returns the ``(R,)`` values, the ``(R, p, p)``
        ``Q``-gradient stack and the ``(R,)`` ``c``-gradients. A term whose
        weight is zero adds zero to the value and to the subgradients.
        """
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
        _diagonal(grad_mn)[...] += 2.0 * self.w_diag[..., None] * c[..., None] * d
        grad_c = l1 + 2.0 * self.w_diag * (d * diag_m).sum(axis=-1)
        return total, grad_mn @ self.gh_t, grad_c


def cayley(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley transform ``Q = (I - K/2)^{-1} (I + K/2)`` of each skew ``K`` in a stack.

    Returns ``Q`` and ``A^{-1}``, ``A = I - K/2``. Since ``I + K/2 = 2I - A``,
    ``Q = 2 A^{-1} - I``: one inverse per matrix and no product. Each inverse
    is LAPACK ``getrf``/``getri`` in place. A C-ordered ``A`` is ``A^T`` in
    Fortran order, and ``(A^T)^{-1}`` in Fortran order is ``A^{-1}`` in C
    order, so no copy is made.

    A matrix whose ``A`` has an exactly zero pivot, which no finite skew ``K``
    gives, gets a NaN inverse and ``Q``.
    """
    a_inv = np.multiply(k, -0.5, order="C")
    _diagonal(a_inv)[...] += 1.0
    for a in a_inv.reshape(-1, *k.shape[-2:]):
        lu, piv, info = _getrf(a.T, overwrite_a=True)
        if info > 0:
            a[...] = np.nan
        else:
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
    max_steps: np.ndarray,
) -> list[RestartOutcome]:
    """Run Adam on a batch of ``(K, log c)`` restarts and return each one's best iterate.

    ``k0`` is an ``(R, p, p)`` stack of skew starts, ``objective`` holds the
    matching rows and ``max_steps`` is the ``(R,)`` array of step budgets;
    results come back in restart order. A restart stops after its budget or
    once its best objective has not improved by ``CONVERGENCE_TOL`` over
    ``PATIENCE`` consecutive steps. During a plateau its step size decays
    every ``ANNEAL_EVERY`` stalled steps so the iterate can settle below the
    fixed-rate noise floor.

    A restart also stops when its objective (``NONFINITE_OBJECTIVE``) or its
    gradient (``NONFINITE_GRADIENT``) becomes non-finite; a step checks the
    objective, then patience, budget and the gradient.

    Each restart's record (trace, best iterate, step size, counters) stays in
    restart order; a stop compacts only the live state: the iterates, their
    Adam moments and ``live``, which names each row's restart.
    """
    log_lo, log_hi = np.log(C_BOUNDS[0]), np.log(C_BOUNDS[1])
    n_restarts, p = k0.shape[0], k0.shape[-1]
    last_step = int(max_steps.max())
    # the record, in restart order
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / p))
    trace = np.empty((n_restarts, last_step))
    best_obj = np.full(n_restarts, np.inf)
    # NaN until a finite objective is seen, which a restart may never see
    best_q = np.full((n_restarts, p, p), np.nan)
    best_c = np.full(n_restarts, np.nan)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    results: list[RestartOutcome | None] = [None] * n_restarts
    # the live state: theta[i] is restart live[i]'s (K, log c), starting at c = 1
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

        # each stop reason and the rows it stops, in the order they are checked
        reasons = {
            NONFINITE_OBJECTIVE: ~np.isfinite(values),
            "patience": stalled >= PATIENCE,
            "budget": step == max_steps[live],
            NONFINITE_GRADIENT: ~np.isfinite(grad).all(axis=-1),
        }
        stop = np.logical_or.reduce(list(reasons.values()))
        if stop.any():
            for row, r in zip(np.flatnonzero(stop), live[stop]):
                reason = next(name for name, hit in reasons.items() if hit[row])
                results[r] = RestartOutcome(
                    q=best_q[r],
                    c=float(best_c[r]),
                    objective=float(best_obj[r]),
                    trace=trace[r, :step - (reason == NONFINITE_OBJECTIVE)],
                    steps=step,
                    best_step=int(best_step[r]),
                    stop_reason=reason,
                    anneals=int(anneals[r]),
                )
            if stop.all():
                break
            keep = ~stop
            live, theta, m_theta, v_theta, stalled, grad = (
                a[keep] for a in (live, theta, m_theta, v_theta, stalled, grad))
            objective = objective.take(keep)

        anneal = live[(stalled > 0) & (stalled % ANNEAL_EVERY == 0)]
        lr[anneal] *= ANNEAL_FACTOR
        anneals[anneal] += 1

        grad *= (GRAD_CLIP / np.maximum(np.sqrt((grad * grad).sum(axis=-1)), GRAD_CLIP))[:, None]
        m_theta = ADAM_BETA1 * m_theta + (1.0 - ADAM_BETA1) * grad
        v_theta = ADAM_BETA2 * v_theta + (1.0 - ADAM_BETA2) * grad**2
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        theta = theta - lr[live, None] * (m_theta / bias1) / (np.sqrt(v_theta / bias2) + ADAM_EPS)
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
    batch in order, and each problem's ``(R, p)`` sign vectors.

    Each restart draws its sign vector and start from its own sub-seed (a
    fit's first restart has no sign fold, the others each a random one) and
    adds one row: its signed ``G`` and ``H`` and its fit's three weights."""
    rows, signs = [], []
    for cr, cfg in problems:
        norms = norm_constants(cr, cfg)
        weights = (cfg.lambda0 / norms.offdiag, cfg.lambda1 / norms.lag,
                   0.5 * cfg.mu / norms.hollow)
        fit_signs = []
        for r in range(cfg.restarts):
            rng = sub_rng(cfg.seed, 0x656E7672, r)
            sign = np.ones(cr.p) if r == 0 else np.where(rng.random(cr.p) < 0.5, -1.0, 1.0)
            fit_signs.append(sign)
            rows.append((sign[:, None] * cr.b_can, sign[:, None] * cr.gamma_can, *weights,
                         random_skew(cr.p, rng)))
        signs.append(np.array(fit_signs))
    *columns, starts = (np.array(column) for column in zip(*rows))
    return OrbitObjective(*columns), starts, signs


def envar_descents(problems) -> list[tuple[RestartOutcome, ...] | OptimizerDivergedError]:
    """Descend the restarts of several ``(cr, cfg)`` fits of one dimension as one batch.

    Returns one entry per problem, in order: its ``RestartOutcome``s in restart
    order, with each restart's sign matrix folded into ``q``, or, if a restart
    diverged, an ``OptimizerDivergedError`` naming, with its step and trace,
    the first to diverge: the earliest step, at one step an objective fault
    before a gradient fault, then the lowest index within the fit. A restart's
    iterates are bitwise the same in any batch, so each entry is what the
    problem's own descent gives.
    """
    problems = list(problems)
    if not problems:
        return []
    if len({cr.p for cr, _ in problems}) > 1:
        raise DimensionError("envar_descents needs fits of one dimension p")
    batch, starts, signs = _batch(problems)
    counts = [cfg.restarts for _, cfg in problems]
    results = minimize_orbit_objective(
        batch, starts, max_steps=np.repeat([cfg.max_steps for _, cfg in problems], counts)
    )
    entries = []
    for end, fit_signs in zip(np.cumsum(counts), signs):
        outcomes = results[end - len(fit_signs):end]
        diverged = [(r.steps, r.stop_reason == NONFINITE_GRADIENT, i)
                    for i, r in enumerate(outcomes)
                    if r.stop_reason in (NONFINITE_OBJECTIVE, NONFINITE_GRADIENT)]
        if diverged:
            step, _, i = min(diverged)
            entries.append(OptimizerDivergedError(
                f"restart {i}: {outcomes[i].stop_reason} at step {step}",
                trace=outcomes[i].trace.tolist()))
        else:
            entries.append(tuple(replace(r, q=r.q @ np.diag(sign))
                                 for r, sign in zip(outcomes, fit_signs)))
    return entries


def solve_envar(
    cr: CanonicalRepresentative, cfg: EnvarConfig, *, outcomes=None
) -> EnvarSolution:
    """Minimize the penalized objective over the empirical orbit.

    Runs ``cfg.restarts`` independent descents from random skew starts (the
    first with no sign fold, the others each with a random one) and returns
    the lowest-objective solution, ties broken by restart index. The
    assembled model is ``(I - c_hat q_hat b_can, c_hat q_hat gamma_can, c_hat)``.

    ``outcomes``, if given, is the entry of ``(cr, cfg)`` in what an
    ``envar_descents`` call over it returned; the restarts then do not descend
    again, and the solution is bitwise the one of a lone descent. An
    ``OptimizerDivergedError`` entry is raised. Without ``outcomes`` the
    restarts descend here, as one batch of their own.
    """
    if outcomes is None:
        (outcomes,) = envar_descents([(cr, cfg)])
    if isinstance(outcomes, OptimizerDivergedError):
        raise outcomes
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
