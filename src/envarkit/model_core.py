"""Structural and reduced-form VAR(1) types and stationary-law computations.

A structural model is the triple ``(a0, a1, sigma)`` of contemporaneous
effects, lag-one effects, and the common structural noise standard deviation.
Writing ``B = I - a0``, an admissible model induces the reduced form
``phi = B^{-1} a1`` with residual covariance ``sigma_u = sigma^2 B^{-1} B^{-T}``,
which together determine the stationary law of the observed process.

All types are immutable after construction and all operations are pure
functions of their inputs plus an explicit seed, so they are safe to call
concurrently. Every value type in the package holds its array fields as
read-only float copies, stored by the one helper ``_freeze_fields``
(``TimeSeries`` first makes its C-order copy), and numeric settings are
checked by ``_setting``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import (
    AdmissibilityError,
    DimensionError,
    FactorizationError,
    NotPositiveDefiniteError,
    StabilityError,
)


# Smallest/largest singular value ratio below which B is treated as singular.
_INV_RANK_TOL = 1e-10
# Maximum absolute asymmetry allowed in covariance inputs.
_SYMMETRY_TOL = 1e-10
# Relative Frobenius residual accepted for stationary covariances.
_LYAPUNOV_TOL = 1e-8
# Frobenius defect allowed in ``Q^T Q - I``.
_ORTHOGONALITY_TOL = 1e-8


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_square(m: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionError(f"{name} must have dimension >= 1")
    if not np.isfinite(arr).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    try:  # an integer beyond the float range is not finite as a float
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _setting(name: str, value, ok, what: str, integer: bool = False):
    """``value`` as an int (``integer``) or a float if it is a finite number of
    that kind with ``ok(value)`` (None: any); else a DimensionError that names
    it, such as ``p must be an integer >= 1, got 2.5``."""
    if _is_real(value) and (_is_int(value) or not integer):
        x = int(value) if integer else float(value)
        if ok is None or ok(x):
            return x
    kind = f"{'an integer' if integer else 'a finite number'} {what}".rstrip()
    raise DimensionError(f"{name} must be {kind}, got {value!r}")


def _check_fields(obj, ranges: dict) -> None:
    """``_setting`` on each field of dataclass ``obj`` in declaration order: an
    ``int`` field as an integer, in its ``ranges[name] = (ok, what)`` if any."""
    for f in fields(obj):
        ok, what = ranges.get(f.name, (None, ""))
        _setting(f.name, getattr(obj, f.name), ok, what, integer=f.type in (int, "int"))


def _freeze_fields(obj) -> None:
    """Store each ``np.ndarray`` field of dataclass ``obj`` as a read-only float copy."""
    for f in fields(obj):
        if f.type in (np.ndarray, "np.ndarray"):
            object.__setattr__(obj, f.name, _freeze(getattr(obj, f.name)))


@dataclass(frozen=True)
class StructuralModel:
    """Structural VAR(1) parameters ``(a0, a1, sigma)``.

    ``a0`` holds contemporaneous effects with entry (i, j) meaning j -> i
    within the same sampling interval; ``a1`` holds lag-one effects; ``sigma``
    is the common structural noise standard deviation. Admissibility and
    normalization are checkable predicates, not constructor requirements.
    """

    a0: np.ndarray
    a1: np.ndarray
    sigma: float

    def __post_init__(self):
        a0 = _check_square(self.a0, "a0")
        a1 = _check_square(self.a1, "a1")
        if a0.shape != a1.shape:
            raise DimensionError(
                f"a0 and a1 must have the same shape, got {a0.shape} and {a1.shape}"
            )
        object.__setattr__(self, "sigma", _setting("sigma", self.sigma, lambda v: v > 0.0, "> 0"))
        _freeze_fields(self)

    @property
    def p(self) -> int:
        return self.a0.shape[0]

    @property
    def b(self) -> np.ndarray:
        """Contemporaneous system matrix ``B = I - a0``."""
        return np.eye(self.p) - self.a0


@dataclass(frozen=True)
class ReducedForm:
    """Reduced-form parameters: transition matrix and residual covariance."""

    phi: np.ndarray
    sigma_u: np.ndarray

    def __post_init__(self):
        phi = _check_square(self.phi, "phi")
        sigma_u = _check_square(self.sigma_u, "sigma_u")
        if phi.shape != sigma_u.shape:
            raise DimensionError(
                f"phi and sigma_u must match, got {phi.shape} and {sigma_u.shape}"
            )
        asym = float(np.max(np.abs(sigma_u - sigma_u.T)))
        if asym > _SYMMETRY_TOL:
            raise DimensionError(
                f"sigma_u asymmetry {asym:.3e} exceeds tolerance {_SYMMETRY_TOL:.0e}"
            )
        object.__setattr__(self, "sigma_u", 0.5 * (sigma_u + sigma_u.T))
        try:
            np.linalg.cholesky(self.sigma_u)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("sigma_u is not positive definite") from None
        _freeze_fields(self)

    @property
    def p(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class StationaryLaw:
    """Lag-0 covariance and lag-1 cross-covariance of the stationary process."""

    sigma_x: np.ndarray
    gamma1: np.ndarray

    def __post_init__(self):
        _freeze_fields(self)


@dataclass(frozen=True)
class TimeSeries:
    """A ``p x T`` observation matrix; columns are consecutive time steps."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise DimensionError(f"series must be a 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DimensionError("series contains non-finite entries")
        # C order: readers and scipy.signal.detrend hand back F-ordered arrays,
        # on which fit_ols would sum in another order than on an in-memory series
        object.__setattr__(self, "values", _freeze(np.ascontiguousarray(arr)))
        object.__setattr__(self, "centered", bool(self.centered))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def t_len(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an admissibility check, with per-condition diagnostics."""

    admissible: bool
    reasons: tuple[str, ...]
    b_condition: float
    phi_spectral_radius: float

    def __bool__(self) -> bool:
        return self.admissible


def spectral_radius(m: np.ndarray) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    arr = _check_square(m, "matrix")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def is_normalized(m: StructuralModel, tol: float = 1e-12) -> bool:
    """True when ``diag(a0) = 0`` entrywise, i.e. ``diag(B) = 1``."""
    tol = _setting("tol", tol, lambda v: v >= 0.0, ">= 0")
    return bool(np.max(np.abs(np.diag(m.a0))) <= tol)


def is_admissible(m: StructuralModel) -> AdmissibilityReport:
    """Check invertibility of ``B`` and stability of ``B^{-1} a1``.

    Returns a report that is truthy iff all conditions hold; ``reasons`` names
    each failed condition.
    """
    reasons: list[str] = []
    b = m.b
    svals = np.linalg.svd(b, compute_uv=False)
    b_condition = float(svals[-1] / svals[0]) if svals[0] > 0.0 else 0.0
    rho = float("nan")
    if b_condition <= _INV_RANK_TOL:
        reasons.append("B singular")
    else:
        rho = spectral_radius(np.linalg.solve(b, m.a1))
        if rho >= 1.0:
            reasons.append("unstable")
    return AdmissibilityReport(
        admissible=not reasons,
        reasons=tuple(reasons),
        b_condition=b_condition,
        phi_spectral_radius=rho,
    )


def _require_admissible(m: StructuralModel) -> AdmissibilityReport:
    report = is_admissible(m)
    if not report:
        raise AdmissibilityError(
            f"model is not admissible: {', '.join(report.reasons)}", diagnostics=report
        )
    return report


def _reduced_form(
    b: np.ndarray, a1: np.ndarray, noise_var
) -> tuple[np.ndarray, np.ndarray]:
    """``(B^{-1} a1, B^{-1} diag(d) B^{-T})`` for structural noise variances ``d``.

    ``noise_var`` is one variance shared by all nodes or a length-p vector of
    per-node variances. ``sigma_u`` is formed as ``(B^{-1} * d) @ B^{-T}`` and
    symmetrized after the product to remove roundoff asymmetry, so downstream
    Cholesky factorizations see an exactly symmetric matrix. No admissibility
    gate: callers that need one check it first.
    """
    b_inv = np.linalg.solve(b, np.eye(b.shape[0]))
    sigma_u = (b_inv * noise_var) @ b_inv.T
    return np.linalg.solve(b, a1), 0.5 * (sigma_u + sigma_u.T)


def to_reduced_form(m: StructuralModel) -> ReducedForm:
    """Map an admissible structural model to ``(phi, sigma_u)``."""
    _require_admissible(m)
    phi, sigma_u = _reduced_form(m.b, m.a1, m.sigma**2)
    return ReducedForm(phi=phi, sigma_u=sigma_u)


def is_stable(rf: ReducedForm) -> bool:
    """True when the reduced-form transition matrix has spectral radius < 1."""
    return spectral_radius(rf.phi) < 1.0


def stationary_covariance(rf: ReducedForm) -> StationaryLaw:
    """Solve ``sigma_x = phi sigma_x phi^T + sigma_u`` for the stationary law.

    Solved exactly by ``scipy.linalg.solve_discrete_lyapunov``: the vectorized
    linear system below dimension 10, and from 10 up a bilinear transform to a
    continuous equation solved by Bartels-Stewart on the Schur form, in
    O(p^3). The returned ``gamma1`` is ``phi @ sigma_x``.
    """
    rho = spectral_radius(rf.phi)
    if rho >= 1.0:
        raise StabilityError(f"phi has spectral radius {rho:.6f} >= 1")
    phi, sigma_u = rf.phi, rf.sigma_u
    sigma_x = solve_discrete_lyapunov(phi, sigma_u)
    sigma_x = 0.5 * (sigma_x + sigma_x.T)
    residual = np.linalg.norm(sigma_x - phi @ sigma_x @ phi.T - sigma_u, "fro")
    bound = _LYAPUNOV_TOL * (1.0 + np.linalg.norm(sigma_u, "fro"))
    if residual > bound:
        raise StabilityError(
            f"stationary covariance residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return StationaryLaw(sigma_x=sigma_x, gamma1=phi @ sigma_x)


def _sample(
    b: np.ndarray,
    a1: np.ndarray,
    noise_sd,
    t_len: int,
    burn_in: int,
    rng: np.random.Generator,
) -> TimeSeries:
    """``t_len`` steps of ``x_t = B^{-1}(a1 x_{t-1} + e_t)`` from a stationary start.

    ``e_t ~ N(0, diag(noise_sd)^2)``, with ``noise_sd`` one standard deviation
    shared by all nodes or a length-p vector of per-node ones. The initial
    state is one draw from the stationary law, the shocks follow it in the
    same stream, and ``burn_in`` leading samples are discarded. No
    admissibility gate.
    """
    phi, sigma_u = _reduced_form(b, a1, noise_sd**2)
    sigma_x = stationary_covariance(ReducedForm(phi=phi, sigma_u=sigma_u)).sigma_x
    p = sigma_x.shape[0]
    try:
        chol = np.linalg.cholesky(sigma_x)
    except np.linalg.LinAlgError:
        # PD in exact arithmetic; nudge out of a borderline numerical failure.
        jitter = 1e-12 * (1.0 + np.trace(sigma_x) / p)
        chol = np.linalg.cholesky(sigma_x + jitter * np.eye(p))
    x = chol @ rng.standard_normal(p)
    shocks = np.reshape(noise_sd, (-1, 1)) * rng.standard_normal((p, burn_in + t_len))
    b_inv = np.linalg.solve(b, np.eye(p))
    trans, driven = b_inv @ a1, b_inv @ shocks
    path = np.empty(shocks.shape)
    for t in range(shocks.shape[1]):
        x = trans @ x + driven[:, t]
        path[:, t] = x
    return TimeSeries(values=path[:, burn_in:], centered=False)


def simulate(m: StructuralModel, t_len: int, seed: int, burn_in: int = 100) -> TimeSeries:
    """Draw ``t_len`` steps of the stationary process defined by ``m``.

    The recursion is ``x_t = B^{-1}(a1 x_{t-1} + e_t)`` with
    ``e_t ~ N(0, sigma^2 I)`` i.i.d.; the initial state is drawn from the
    stationary law and ``burn_in`` leading samples are discarded. A fixed seed
    gives bit-identical output.
    """
    _require_admissible(m)
    t_len = _setting("t_len", t_len, lambda v: v >= 2, ">= 2", integer=True)
    burn_in = _setting("burn_in", burn_in, lambda v: v >= 0, ">= 0", integer=True)
    seed = _setting("seed", seed, lambda v: v >= 0, ">= 0", integer=True)
    return _sample(m.b, m.a1, m.sigma, t_len, burn_in, np.random.default_rng(seed))


def gram_orthogonal_factor(
    c_mat: np.ndarray,
    d_mat: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Recover the orthogonal ``Q`` with ``D = sqrt(lam) Q C`` from matching Grams.

    Requires ``D^T D = lam * C^T C`` within 1e-8 relative Frobenius; returns
    ``Q = lam^{-1/2} D C^{-1}`` and verifies its orthogonality defect.
    """
    c = _check_square(c_mat, "c_mat")
    d = _check_square(d_mat, "d_mat")
    if c.shape != d.shape:
        raise DimensionError(f"shape mismatch: {c.shape} vs {d.shape}")
    lam = _setting("lam", lam, lambda v: v > 0.0, "> 0")
    gram_c = lam * (c.T @ c)
    gram_d = d.T @ d
    denom = max(np.linalg.norm(gram_c, "fro"), np.finfo(float).tiny)
    mismatch = float(np.linalg.norm(gram_d - gram_c, "fro") / denom)
    if mismatch > 1e-8:
        raise FactorizationError(
            f"Gram mismatch {mismatch:.3e} exceeds 1e-8: D^T D != lambda * C^T C"
        )
    q = np.linalg.solve(c.T, d.T).T / math.sqrt(lam)
    defect = float(np.linalg.norm(q.T @ q - np.eye(q.shape[0]), "fro"))
    if defect > _ORTHOGONALITY_TOL:
        raise FactorizationError(
            f"recovered factor has orthogonality defect {defect:.3e}"
        )
    return q
