"""Equivalence-aware scoring, graph binarization, and nodal centralities.

The headline metric is the scale-free alignment discrepancy from an estimate to
the ground-truth equivalence class; raw Frobenius error between structural
matrices would penalize representatives that generate the identical law.
Pearson correlations between estimated and true parameters are reported only
when significant at the 0.05 level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .equivalence import align_obs, align_sf
from .errors import DimensionError
from .model_core import StructuralModel, _freeze_fields, _setting, to_reduced_form
from .synth import GroundTruthInstance

SIGNIFICANCE_LEVEL = 0.05


@dataclass(frozen=True)
class PearsonGate:
    """A correlation and its p-value; ``r`` is None when not significant."""

    r: float | None
    p_value: float


@dataclass(frozen=True)
class ScoreReport:
    """All per-run metrics for one (method, instance) pair.

    Correlations are None exactly when their p-value is >= 0.05 (or undefined);
    the ungated p-values are kept alongside.
    """

    sf_oad: float
    obs_oad: float
    pearson_phi: float | None
    pearson_sigma_u: float | None
    pearson_a0: float | None
    pearson_a1: float | None
    p_value_phi: float
    p_value_sigma_u: float
    p_value_a0: float
    p_value_a1: float
    method_name: str
    p: int
    episode: int


@dataclass(frozen=True)
class CentralityReport:
    """In-degree, out-degree, and their difference per node."""

    in_degree: np.ndarray
    out_degree: np.ndarray
    net_flow: np.ndarray

    def __post_init__(self):
        _freeze_fields(self)


def gated_pearson(x: np.ndarray, y: np.ndarray) -> PearsonGate:
    """Pearson r with a two-sided t-test p-value, nulled when p >= 0.05.

    Degenerate inputs (fewer than 3 entries or zero variance on either side)
    yield ``(None, nan)``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    m = x.size
    if m != y.size:
        raise DimensionError(f"size mismatch: {x.size} vs {y.size}")
    if m < 3 or np.std(x) == 0.0 or np.std(y) == 0.0:
        return PearsonGate(r=None, p_value=float("nan"))
    r = float(np.corrcoef(x, y)[0, 1])
    r = max(-1.0, min(1.0, r))
    df = m - 2
    if abs(r) >= 1.0:
        p_value = 0.0
    else:
        t_stat = r * np.sqrt(df / (1.0 - r * r))
        p_value = float(2.0 * stdtr(df, -abs(t_stat)))
    gated = r if p_value < SIGNIFICANCE_LEVEL else None
    return PearsonGate(r=gated, p_value=p_value)


def _offdiag(mat: np.ndarray) -> np.ndarray:
    p = mat.shape[0]
    mask = ~np.eye(p, dtype=bool)
    return mat[mask]


def score(
    estimate: StructuralModel,
    truth: GroundTruthInstance,
    eta: float = 1.0,
    method_name: str = "",
) -> ScoreReport:
    """Score an estimated structural model against the generating instance.

    The alignment discrepancies use the truth as the reference class (error
    from the estimate to the class); correlations compare transition matrices,
    residual covariances, contemporaneous off-diagonals, and lagged matrices.
    """
    if estimate.p != truth.model.p:
        raise DimensionError(
            f"estimate is {estimate.p}-dim but truth is {truth.model.p}-dim"
        )
    sf = align_sf(truth.model, estimate)
    obs = align_obs(truth.model, estimate, eta=eta)
    est_rf = to_reduced_form(estimate)
    phi_gate = gated_pearson(truth.phi, est_rf.phi)
    sigma_gate = gated_pearson(truth.sigma_u, est_rf.sigma_u)
    a0_gate = gated_pearson(_offdiag(truth.model.a0), _offdiag(estimate.a0))
    a1_gate = gated_pearson(truth.model.a1, estimate.a1)
    return ScoreReport(
        sf_oad=sf.value,
        obs_oad=obs.value,
        pearson_phi=phi_gate.r,
        pearson_sigma_u=sigma_gate.r,
        pearson_a0=a0_gate.r,
        pearson_a1=a1_gate.r,
        p_value_phi=phi_gate.p_value,
        p_value_sigma_u=sigma_gate.p_value,
        p_value_a0=a0_gate.p_value,
        p_value_a1=a1_gate.p_value,
        method_name=method_name,
        p=estimate.p,
        episode=truth.episode_index,
    )


def _binarize_one(mat: np.ndarray, mass: float) -> np.ndarray:
    """Retain the smallest |value|-descending prefix covering ``mass`` of the total."""
    absval = np.abs(mat)
    p, q = absval.shape
    rows, cols = np.divmod(np.arange(p * q), q)
    flat = absval.ravel()
    # primary key: |value| descending; ties broken by (row, col) ascending
    order = np.lexsort((cols, rows, -flat))
    csum = np.cumsum(flat[order])
    total = csum[-1]
    out = np.zeros((p, q), dtype=np.int8)
    if total <= 0.0:
        return out
    keep = int(np.searchsorted(csum, mass * total, side="left")) + 1
    kept = order[:keep]
    out[rows[kept], cols[kept]] = 1
    return out


def binarize_cumulative(m: StructuralModel, mass: float) -> np.ndarray:
    """Union of the binarized contemporaneous and lagged matrices.

    Each matrix is binarized separately by ranking entries by absolute value
    and keeping the smallest prefix whose absolute sum reaches ``mass`` of the
    matrix total. The contemporaneous diagonal is excluded (no instantaneous
    self-loops); lagged self-loops are allowed.
    """
    mass = _setting("mass", mass, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    a0 = np.array(m.a0, copy=True)
    np.fill_diagonal(a0, 0.0)
    bin0 = _binarize_one(a0, mass)
    bin1 = _binarize_one(np.asarray(m.a1), mass)
    return np.maximum(bin0, bin1)


def centralities(adj: np.ndarray) -> CentralityReport:
    """Degrees under the convention that entry (i, j) != 0 means j -> i.

    The in-degree of node i sums row i; the out-degree of node j sums column
    j; net flow is out-degree minus in-degree and always sums to zero.
    """
    arr = np.asarray(adj)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise DimensionError("adjacency must be binary (entries 0 or 1)")
    arr = arr.astype(np.int64)
    in_degree = arr.sum(axis=1)
    out_degree = arr.sum(axis=0)
    return CentralityReport(
        in_degree=in_degree,
        out_degree=out_degree,
        net_flow=out_degree - in_degree,
    )
