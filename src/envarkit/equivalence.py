"""Observational and scale-free equivalence orbits and alignment discrepancies.

Two admissible structural models generate the same stationary observed law
exactly when one is an orbit transform of the other: ``B' = c Q B``,
``a1' = c Q a1``, ``sigma' = c sigma`` for orthogonal ``Q`` and ``c > 0``.
The alignment discrepancies measure squared distance from a test model to the
orbit of a reference model, minimized in closed form over ``(Q, c)`` via the
singular values of ``S S'^T`` where ``S = [B | a1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .model_core import (
    _ORTHOGONALITY_TOL,
    StructuralModel,
    _check_square,
    _freeze_fields,
    _require_admissible,
    _setting,
    to_reduced_form,
)

# Relative singular-value gap below which optimal aligners are flagged non-unique.
_SV_GAP_RTOL = 1e-8
# Roundoff clamp: provably nonnegative discrepancies this close to zero snap to 0.
_VALUE_CLAMP = 1e-9
# Nuclear norms at or below this are treated as exactly zero (infimum as c -> 0).
_ALPHA_ZERO = 1e-12


@dataclass(frozen=True)
class OrbitElement:
    """An orthogonal matrix and positive scale acting on structural equations."""

    q: np.ndarray
    c: float

    def __post_init__(self):
        q = _check_square(self.q, "q")
        defect = float(np.linalg.norm(q.T @ q - np.eye(q.shape[0]), "fro"))
        if defect > _ORTHOGONALITY_TOL:
            raise DimensionError(f"q has orthogonality defect {defect:.3e}")
        object.__setattr__(self, "c", _setting("c", self.c, lambda v: v > 0.0, "> 0"))
        _freeze_fields(self)


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal discrepancy and its attaining transform.

    ``unique_q`` is False when the aligning orthogonal matrix is not unique
    (repeated or zero singular values); ``infimum_not_attained`` marks the
    degenerate scale-free case where the infimum is only approached as c -> 0.
    """

    value: float
    q_star: np.ndarray
    c_star: float
    alpha: float
    unique_q: bool
    infimum_not_attained: bool = False

    def __post_init__(self):
        _freeze_fields(self)


class SfEquivalence(NamedTuple):
    equivalent: bool
    scale: float


def stacked(m: StructuralModel) -> np.ndarray:
    """Stack a model as the ``p x 2p`` array ``[B | a1]``."""
    return np.hstack([m.b, m.a1])


def _orbit_member(
    b: np.ndarray, a1: np.ndarray, sigma: float, q: np.ndarray, c: float
) -> StructuralModel:
    """The member ``(I - c Q B, c Q a1, c sigma)`` of the orbit of ``(B, a1, sigma)``.

    No dimension, orthogonality or admissibility checks: callers check first.
    """
    return StructuralModel(
        a0=np.eye(b.shape[0]) - c * (q @ b), a1=c * (q @ a1), sigma=c * sigma
    )


def orbit_transform(m: StructuralModel, e: OrbitElement) -> StructuralModel:
    """Apply ``(Q, c)``: returns ``(I - c Q B, c Q a1, c sigma)``.

    The output induces the same reduced form, hence is admissible whenever the
    input is.
    """
    _require_admissible(m)
    if e.q.shape[0] != m.p:
        raise DimensionError(f"orbit element is {e.q.shape[0]}-dim, model is {m.p}-dim")
    return _orbit_member(m.b, m.a1, m.sigma, e.q, e.c)


def obs_equivalent(m1: StructuralModel, m2: StructuralModel, tol: float = 1e-8) -> bool:
    """True iff the induced ``(phi, sigma_u)`` pairs agree entrywise within tol."""
    tol = _setting("tol", tol, lambda v: v >= 0.0, ">= 0")
    rf1, rf2 = to_reduced_form(m1), to_reduced_form(m2)
    return bool(
        np.max(np.abs(rf1.phi - rf2.phi)) <= tol
        and np.max(np.abs(rf1.sigma_u - rf2.sigma_u)) <= tol
    )


def sf_equivalent(
    m1: StructuralModel, m2: StructuralModel, tol: float = 1e-8
) -> SfEquivalence:
    """Check equality of laws up to a global amplitude; returns the scale ``a``.

    ``a`` is estimated as ``trace(sigma_u') / trace(sigma_u)``; equivalence
    requires equal ``phi`` within tol and ``sigma_u' = a sigma_u`` within tol
    relative max-abs.
    """
    tol = _setting("tol", tol, lambda v: v >= 0.0, ">= 0")
    rf1, rf2 = to_reduced_form(m1), to_reduced_form(m2)
    scale = float(np.trace(rf2.sigma_u) / np.trace(rf1.sigma_u))
    phi_ok = bool(np.max(np.abs(rf1.phi - rf2.phi)) <= tol)
    denom = max(float(np.max(np.abs(rf2.sigma_u))), np.finfo(float).tiny)
    cov_ok = bool(np.max(np.abs(rf2.sigma_u - scale * rf1.sigma_u)) / denom <= tol)
    return SfEquivalence(equivalent=phi_ok and cov_ok, scale=scale)


def _svd_cross(s_ref: np.ndarray, s_test: np.ndarray):
    cross = s_ref @ s_test.T
    u, gamma, vt = np.linalg.svd(cross)
    alpha = float(gamma.sum())
    scale = gamma[0] if gamma[0] > 0.0 else 1.0
    repeated = bool(np.any(np.diff(gamma) > -_SV_GAP_RTOL * scale)) if gamma.size > 1 else False
    has_zero = bool(np.any(gamma <= _SV_GAP_RTOL * scale))
    q_star = vt.T @ u.T
    return alpha, q_star, not (repeated or has_zero)


def _clamp(value: float) -> float:
    if value < 0.0 and value >= -_VALUE_CLAMP:
        return 0.0
    return value


def align_obs(
    m_ref: StructuralModel, m_test: StructuralModel, eta: float = 1.0
) -> AlignmentResult:
    """One-sided discrepancy from ``m_test`` to the orbit of ``m_ref``.

    Minimizes ``||S' - c Q S||_F^2 + eta (sigma' - c sigma)^2`` over orthogonal
    ``Q`` and ``c > 0``, in closed form: with ``alpha = ||S S'^T||_*``,

        value = ||S'||_F^2 + eta sigma'^2
                - (alpha + eta sigma sigma')^2 / (||S||_F^2 + eta sigma^2).

    The infimum transforms the reference stack; ``m_test`` supplies ``S'``.
    """
    if m_ref.p != m_test.p:
        raise DimensionError(f"dimension mismatch: {m_ref.p} vs {m_test.p}")
    eta = _setting("eta", eta, lambda v: v >= 0.0, ">= 0")
    s_ref, s_test = stacked(m_ref), stacked(m_test)
    alpha, q_star, unique_q = _svd_cross(s_ref, s_test)
    s_ref_sq = float(np.sum(s_ref**2))
    s_test_sq = float(np.sum(s_test**2))
    denom = s_ref_sq + eta * m_ref.sigma**2
    numer = alpha + eta * m_ref.sigma * m_test.sigma
    if denom <= np.finfo(float).tiny or numer <= _ALPHA_ZERO:
        return AlignmentResult(
            value=_clamp(s_test_sq + eta * m_test.sigma**2),
            q_star=q_star,
            c_star=0.0,
            alpha=alpha,
            unique_q=unique_q,
            infimum_not_attained=True,
        )
    value = _clamp(s_test_sq + eta * m_test.sigma**2 - numer**2 / denom)
    return AlignmentResult(
        value=value, q_star=q_star, c_star=numer / denom, alpha=alpha, unique_q=unique_q
    )


def align_sf(m_ref: StructuralModel, m_test: StructuralModel) -> AlignmentResult:
    """Scale-free discrepancy: ``align_obs`` with the noise term dropped.

    ``value = ||S'||_F^2 - alpha^2 / ||S||_F^2``. When ``alpha`` vanishes the
    infimum ``||S'||_F^2`` is approached as ``c -> 0`` and is flagged as not
    attained (``c_star`` reported as 0).
    """
    return align_obs(m_ref, m_test, eta=0.0)
