"""Greedy conditional-variance baseline for contemporaneous structure.

Works on the reduced-form residuals: nodes are ordered greedily by minimal
conditional variance given the already-selected nodes, each node's
contemporaneous coefficients are estimated by regressing its residual on its
predecessors and pruning insignificant coefficients, and the lagged matrix is
recovered algebraically as ``a1_hat = (I - a0_hat) phi_hat``.

The greedy order is a Cholesky factorisation of the residual covariance that
pivots on the smallest remaining diagonal (the top-down equal-variance
procedure of Chen, Drton and Wang, 2019), and every regression and its
t-statistics are read from the inverse of that factor, so the whole baseline
costs O(n p^2 + p^3)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import stdtr

from .errors import DimensionError, RankError
from .model_core import TimeSeries, _freeze_fields, _setting
from .reduced_estimation import OlsFit

_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class GdsResult:
    """Inferred ordering, pruned contemporaneous matrix, and lagged matrix.

    ``ordering`` lists 0-based node indices; permuting rows and columns of
    ``a0_hat`` by it gives a strictly lower-triangular matrix.
    """

    ordering: tuple[int, ...]
    a0_hat: np.ndarray
    a1_hat: np.ndarray
    alpha: float

    def __post_init__(self):
        _freeze_fields(self)


def fit_eqvar_gds(ts: TimeSeries, fit: OlsFit, alpha: float = 0.05) -> GdsResult:
    """Estimate ``(ordering, a0_hat, a1_hat)`` from a fitted reduced form.

    ``alpha`` is the two-sided t-test level used to prune regression
    coefficients; ties in conditional variance break toward the smallest node
    index, making the procedure deterministic.
    """
    if not ts.centered:
        raise DimensionError("series must be centered (see center())")
    alpha = _setting("alpha", alpha, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    u = np.asarray(fit.residuals)
    p, n = u.shape
    if ts.p != p:
        raise DimensionError(f"series has {ts.p} rows but fit has {p}")

    # Pivoted Cholesky of S = u u^T / n: the Schur complement's diagonal holds
    # each remaining node's variance given the nodes already eliminated.
    schur = u @ u.T / n
    chol = np.zeros((p, p))
    ordering: list[int] = []
    remaining = list(range(p))
    for k in range(p):
        # argmin over the ascending list keeps the smallest node index on ties
        node = remaining[int(np.argmin(schur[remaining, remaining]))]
        cond_var = schur[node, node]
        if cond_var <= _VARIANCE_FLOOR:
            raise RankError(
                f"conditional variance of node {node} is {cond_var:.3e}; "
                "residuals are numerically degenerate"
            )
        ordering.append(node)
        remaining.remove(node)
        pivot = np.sqrt(cond_var)
        col = schur[remaining, node] / pivot
        chol[node, k] = pivot
        chol[remaining, k] = col
        schur[np.ix_(remaining, remaining)] -= np.outer(col, col)

    # In elimination order S = L L^T. Row k of M = L^{-1} is the regression of
    # node k on its predecessors, scaled: coefficients -M[k, :k] / M[k, k] and
    # residual variance 1 / M[k, k]^2. The predecessors' inverse Gram diagonal
    # is the column sum of M^2 over rows 0..k-1.
    order = np.asarray(ordering)
    inv = solve_triangular(chol[order], np.eye(p), lower=True)
    inv_gram_diag = np.cumsum(inv**2, axis=0)
    a0_hat = np.zeros((p, p))
    for position in range(1, p):
        df = n - position - 1
        if df < 1:
            raise RankError(f"too few residual samples (n={n}) for {position} regressors")
        row = inv[position, :position]
        coef = -row / inv[position, position]
        # t = coef / se with se^2 = (n resid_var / df) (n S_PP)^{-1}_jj
        t_stat = -row * np.sqrt(df / inv_gram_diag[position - 1, :position])
        p_value = 2.0 * stdtr(df, -np.abs(t_stat))
        keep = p_value < alpha
        a0_hat[order[position], order[:position][keep]] = coef[keep]

    a1_hat = (np.eye(p) - a0_hat) @ fit.phi_hat
    return GdsResult(
        ordering=tuple(ordering), a0_hat=a0_hat, a1_hat=a1_hat, alpha=alpha
    )
