"""OLS estimation of the reduced form and the canonical class representative.

Given a centered series, the least-squares transition estimate is
``phi_hat = Y Z^T (Z Z^T)^{-1}`` with ``Y`` the columns 2..T and ``Z`` the
columns 1..T-1; the residual covariance is the ridge-stabilized outer product
of the residuals. The canonical representative anchors the set of structural
models inducing ``(phi_hat, sigma_u_hat)``: ``b_can`` is the upper-triangular
Cholesky factor of the precision matrix and ``gamma_can = b_can phi_hat``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky

from .equivalence import OrbitElement, _orbit_member
from .errors import DimensionError, NotPositiveDefiniteError, RankError
from .model_core import StructuralModel, TimeSeries, _freeze_fields, _reduced_form, _setting

logger = logging.getLogger("envarkit.reduced_estimation")

# Relative smallest-singular-value threshold for the Gram matrix Z Z^T.
_GRAM_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class OlsFit:
    """Least-squares reduced-form estimate with its residuals.

    ``ridge_tau`` records the diagonal regularization actually applied to the
    residual covariance (possibly auto-selected).
    """

    phi_hat: np.ndarray
    sigma_u_hat: np.ndarray
    n_eff: int
    residuals: np.ndarray
    ridge_tau: float

    def __post_init__(self):
        _freeze_fields(self)

    @property
    def p(self) -> int:
        return self.phi_hat.shape[0]


@dataclass(frozen=True)
class CanonicalRepresentative:
    """Base point of the empirical equivalence class.

    ``b_can`` is upper triangular with ``b_can^T b_can = omega_u_hat`` and
    positive diagonal; ``b_can^{-1} gamma_can`` reproduces ``phi_hat``.
    """

    b_can: np.ndarray
    gamma_can: np.ndarray
    omega_u_hat: np.ndarray

    def __post_init__(self):
        _freeze_fields(self)

    @property
    def p(self) -> int:
        return self.b_can.shape[0]

    @property
    def sigma_u_hat(self) -> np.ndarray:
        return _reduced_form(self.b_can, self.gamma_can, 1.0)[1]


def center(ts: TimeSeries) -> TimeSeries:
    """Remove each row's empirical mean."""
    if ts.t_len < 2:
        raise DimensionError(f"centering needs T >= 2, got T={ts.t_len}")
    values = ts.values - ts.values.mean(axis=1, keepdims=True)
    return TimeSeries(values=values, centered=True)


def fit_ols(ts: TimeSeries, ridge_tau: float = 0.0) -> OlsFit:
    """Least-squares fit of the lag-one transition and residual covariance.

    The ridge applies only to the residual covariance, never to the Gram
    matrix; when ``ridge_tau`` is 0 and the plain covariance is not positive
    definite, a fallback of ``1e-8 * trace / p`` is applied with a warning.
    """
    if not ts.centered:
        raise DimensionError("series must be centered before fitting (see center())")
    ridge_tau = _setting("ridge_tau", ridge_tau, lambda v: v >= 0.0, ">= 0")
    p, t_len = ts.p, ts.t_len
    if t_len < 3:
        raise DimensionError(f"need T >= 3 observations, got T={t_len}")
    if t_len < 5 * p:
        logger.warning("short series: T=%d < 5p=%d; estimates may be unstable", t_len, 5 * p)
    y = ts.values[:, 1:]
    z = ts.values[:, :-1]
    n = t_len - 1
    gram = z @ z.T
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[0] <= 0.0 or svals[-1] <= _GRAM_RANK_RTOL * svals[0]:
        raise RankError(
            "Z Z^T is numerically singular; a longer series (or fewer variables) "
            "is needed for the least-squares fit"
        )
    phi_hat = np.linalg.solve(gram, z @ y.T).T
    residuals = y - phi_hat @ z
    sigma_u_hat = residuals @ residuals.T / n
    sigma_u_hat = 0.5 * (sigma_u_hat + sigma_u_hat.T)
    applied_tau = ridge_tau
    if ridge_tau > 0.0:
        sigma_u_hat = sigma_u_hat + ridge_tau * np.eye(p)
    if not _is_pd(sigma_u_hat):
        if ridge_tau == 0.0:
            # trace can be exactly zero on noiseless data; floor the fallback
            applied_tau = max(1e-8 * float(np.trace(sigma_u_hat)) / p, 1e-12)
            logger.warning(
                "residual covariance not positive definite; applying ridge %.3e",
                applied_tau,
            )
            sigma_u_hat = sigma_u_hat + applied_tau * np.eye(p)
        if not _is_pd(sigma_u_hat):
            raise NotPositiveDefiniteError(
                "residual covariance is not positive definite even after "
                f"ridge {applied_tau:.3e}; increase ridge_tau"
            )
    return OlsFit(
        phi_hat=phi_hat,
        sigma_u_hat=sigma_u_hat,
        n_eff=n,
        residuals=residuals,
        ridge_tau=applied_tau,
    )


def _is_pd(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def canonical_from_reduced(
    phi: np.ndarray, sigma_u: np.ndarray
) -> CanonicalRepresentative:
    """Canonical representative directly from reduced-form parameters."""
    phi = np.asarray(phi, dtype=float)
    sigma_u = np.asarray(sigma_u, dtype=float)
    p = phi.shape[0]
    # both factorizations: a sigma_u PD only to roundoff can give a non-PD precision
    try:
        omega = cho_solve(cho_factor(sigma_u, lower=True), np.eye(p))
        omega = 0.5 * (omega + omega.T)
        b_can = cholesky(omega, lower=False)  # LAPACK's diagonal is positive
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("sigma_u must be positive definite") from None
    return CanonicalRepresentative(
        b_can=b_can, gamma_can=b_can @ phi, omega_u_hat=omega
    )


def canonical_representative(fit: OlsFit) -> CanonicalRepresentative:
    """Canonical representative of the class fitted by ``fit_ols``."""
    return canonical_from_reduced(fit.phi_hat, fit.sigma_u_hat)


def empirical_orbit_member(
    cr: CanonicalRepresentative, e: OrbitElement
) -> StructuralModel:
    """The class member at ``(Q, c)``: ``(I - c Q b_can, c Q gamma_can, c)``.

    Every member induces the fitted ``(phi_hat, sigma_u_hat)`` exactly.
    """
    if e.q.shape[0] != cr.p:
        raise DimensionError(f"orbit element is {e.q.shape[0]}-dim, representative is {cr.p}-dim")
    return _orbit_member(cr.b_can, cr.gamma_can, 1.0, e.q, e.c)
