"""Sparse normalized-representative selection over the empirical orbit.

The estimator searches the class ``{(I - cQ b_can, cQ gamma_can, c)}`` for a
member whose contemporaneous and lagged matrices are entrywise sparse while the
diagonal of ``cQ b_can`` is softly pulled to one:

    minimize  lambda0 ||offdiag(I - cQ b_can)||_1 / norm_a0
            + lambda1 ||cQ gamma_can||_1 / norm_a1
            + (mu/2) ||diag(cQ b_can) - 1||_2^2 / norm_hollow

over orthogonal ``Q`` and ``c`` in a wide compact interval. ``Q`` is the Cayley
transform ``(I - K/2)^{-1} (I + K/2)`` of a skew-symmetric parameter ``K``,
evaluated with its adjoint derivative from one LAPACK ``getrf``/``getri``
inverse per restart and step, so it is orthogonal at every step. The transform
reaches no ``Q`` with eigenvalue -1; the random diagonal sign matrix that each
later restart folds into its base covers those. ``c`` is optimized in the log
domain. All restarts descend together as one batch. The three normalization
constants are the raw term values at a fixed random orthogonal baseline and
``c = 1``.
Because every iterate is an orbit member, every candidate (and the returned
solution) induces the fitted reduced form exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._descent import (
    DescentResult,
    OrbitObjective,
    minimize_orbit_objective,
    random_signs,
    random_skew,
)
from ._seeding import sub_rng
from .equivalence import _orbit_member
from .errors import DimensionError
from .model_core import StructuralModel
from .reduced_estimation import CanonicalRepresentative

_NORM_FLOOR = 1e-12
_INIT_SCALE = 0.1


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
        for name, least in (("lambda0", 0), ("lambda1", 0), ("mu", 0),
                            ("max_steps", 1), ("restarts", 1)):
            value = getattr(self, name)
            if value < least:
                raise DimensionError(f"{name} must be >= {least}, got {value!r}")


def default_config(p: int, seed: int = 0) -> EnvarConfig:
    """Dimension-dependent defaults for the penalized search.

    The hollowness weight steps down with dimension (7.5 up to 25 nodes, 5.0 up
    to 75, 2.5 beyond); larger graphs get a longer step budget.
    """
    if p < 1:
        raise DimensionError(f"p must be >= 1, got {p}")
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


# Best iterate of one restart, with its stopping telemetry; ``q`` has the
# restart's sign matrix folded in.
RestartOutcome = DescentResult


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
    together as one batch (the first restart searches the rotation component
    directly; later restarts fold a random diagonal sign matrix into the base so
    reflections, and the rotations with eigenvalue -1 that the Cayley map
    misses, are reachable) and returns the lowest-objective solution, ties
    broken by restart index. The assembled model is
    ``(I - c_hat q_hat b_can, c_hat q_hat gamma_can, c_hat)``.
    """
    p = cr.p
    norms = norm_constants(cr, cfg)
    signs, starts = [], []
    for r in range(cfg.restarts):
        rng = sub_rng(cfg.seed, 0x656E7672, r)
        signs.append(np.ones(p) if r == 0 else random_signs(p, rng))
        starts.append(random_skew(p, rng, _INIT_SCALE))
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
