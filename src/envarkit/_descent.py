"""First-order descent over orbit parameters ``(Q, c)``, for a batch of restarts.

``Q`` is the matrix exponential of a skew-symmetric parameter ``K``, so every
evaluated point is exactly orthogonal; ``c`` lives in the logarithmic domain and
is clamped to a compact interval after each update. Updates use adaptive-moment
(Adam) steps on subgradients, with global gradient-norm clipping.

Each step makes one spectral decomposition of ``K``, and from it ``Q`` and the
adjoint Fréchet derivative of the exponential that maps the ``Q``-gradient to
the ``K``-gradient, through the Daleckii-Krein divided differences (Higham,
*Functions of Matrices*, 2008, §3.2). There are two kernels:

- below ``REAL_SCHUR_MIN_DIM``, one batched Hermitian eigendecomposition
  ``1j K = U diag(w) U^H``, with ``Q = Re(U diag(e^{-iw}) U^H)``;
- from ``REAL_SCHUR_MIN_DIM`` up, the real Schur form ``K = W diag(theta_j J) W^T``
  (Ward & Gray, ACM TOMS 4:278, 1978): a Householder reduction to skew
  tridiagonal form and one SVD of a half-size bidiagonal, after which every
  matrix product is real.

Independent restarts are stacked as ``(R, p, p)`` arrays and stepped together;
a restart that stops leaves the batch. Every per-restart quantity is computed
slice by slice (batched LAPACK/BLAS calls, elementwise updates, row-wise
reductions), so a restart's iterates are bitwise the same alone or in a batch.

The objective family covers both the sparse-representative selection and the
plain diagonal-normalization search:

    f(Q, c) = w_off * c * ||offdiag(Q G)||_1
            + w_lag * c * ||Q H||_1
            + w_diag * ||diag(c Q G) - 1||_2^2

Note ``||offdiag(I - c Q G)||_1 == c * ||offdiag(Q G)||_1`` for ``c > 0``, so
the first term equals the off-diagonal penalty on the contemporaneous matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgehrd, dorghr

from .errors import OptimizerDivergedError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Step size at p = 5; a descent at dimension p starts at LEARN_RATE * 5 / p.
LEARN_RATE = 5e-3
# Bound on the global norm of each step's (K, log c) gradient.
GRAD_CLIP = 1.0
# A restart stops once its best objective has not improved by the caller's
# tolerance for this many consecutive steps.
PATIENCE = 500

# Fixed-rate Adam stalls in a noise ball of radius ~ learn_rate around a
# minimum; annealing on plateau lets runs reach the tight residuals the
# postconditions require. Deterministic: driven only by the objective trace.
ANNEAL_EVERY = 100
ANNEAL_FACTOR = 0.3

# Smallest p stepped with the real Schur kernel. Time of a whole step kernel
# (decomposition, expm and adjoint), complex over real, with one BLAS thread on
# a 2-vCPU host (repeat runs agree to about 20%): for four restarts 0.6 at
# p = 5, 0.8-1.0 at p = 12, 1.1-1.7 at p = 14-16, 1.7-1.9 at p = 20 and 2.1-2.4
# from p = 25 to 100; for one restart the crossover lies near p = 18-20. Below
# it the real kernel's per-restart LAPACK calls cost more than they save.
REAL_SCHUR_MIN_DIM = 16


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the trailing two axes, one contiguous row-wise sum per matrix."""
    return x.reshape(*x.shape[:-2], -1).sum(axis=-1)


def _diagonal(m: np.ndarray) -> np.ndarray:
    return np.diagonal(m, axis1=-2, axis2=-1)


def _offdiag(m: np.ndarray) -> np.ndarray:
    """Copy of each matrix in a stack with its diagonal set to zero."""
    off = m.copy()
    idx = np.arange(m.shape[-1])
    off[..., idx, idx] = 0.0
    return off


def _ht(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(u, -1, -2))


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

    def take(self, rows) -> OrbitObjective:
        """The objective of a subset of the restarts."""
        return replace(self, g_mat=self.g_mat[rows], h_mat=self.h_mat[rows])

    def value_and_grads(self, q: np.ndarray, c):
        """Objective, its three terms, and subgradients w.r.t. ``Q`` and ``c`` (sign(0) = 0).

        Returns the values, the unweighted terms ``||offdiag(Q G)||_1``,
        ``||Q H||_1`` and ``||diag(c Q G) - 1||_2^2`` (zero where the weight is
        zero) and the ``c``-gradients, each of shape ``q.shape[:-2]``, and the
        ``Q``-gradient stack, of the shape of ``q``.
        """
        c = np.asarray(c, dtype=float)
        m = q @ self.g_mat
        grad_m = np.zeros_like(m)
        grad_n = None
        grad_c = np.zeros(q.shape[:-2])
        total = np.zeros(q.shape[:-2])
        s_off = l1 = hollow = np.zeros(q.shape[:-2])
        if self.w_off:
            off = _offdiag(m)
            s_off = _sum2(np.abs(off))
            total += self.w_off * c * s_off
            grad_m += (self.w_off * c)[..., None, None] * np.sign(off)
            grad_c += self.w_off * s_off
        if self.w_lag:
            n_mat = q @ self.h_mat
            l1 = _sum2(np.abs(n_mat))
            total += self.w_lag * c * l1
            grad_n = (self.w_lag * c)[..., None, None] * np.sign(n_mat)
            grad_c += self.w_lag * l1
        if self.w_diag:
            diag_m = _diagonal(m)
            d = c[..., None] * diag_m - 1.0
            hollow = (d * d).sum(axis=-1)
            total += self.w_diag * hollow
            idx = np.arange(q.shape[-1])
            grad_m[..., idx, idx] += 2.0 * self.w_diag * c[..., None] * d
            grad_c += 2.0 * self.w_diag * (d * diag_m).sum(axis=-1)
        grad_q = grad_m @ np.swapaxes(self.g_mat, -1, -2)
        if grad_n is not None:
            grad_q += grad_n @ np.swapaxes(self.h_mat, -1, -2)
        return total, (s_off, l1, hollow), grad_q, grad_c


def _expi_divided_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Phi_jk = (e^{i a_j} - e^{i b_k}) / (i (a_j - b_k))`` for stacks of vectors.

    Evaluated in the product form ``e^{i (a_j + b_k) / 2} sinc((a_j - b_k) / 2)``,
    which has no cancellation when ``a_j`` and ``b_k`` are close or equal.
    """
    gap = a[..., :, None] - b[..., None, :]
    return (np.exp(0.5j * a)[..., :, None] * np.exp(0.5j * b)[..., None, :]
            * np.sinc(gap / (2.0 * np.pi)))


def skew_eig(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral form of a stack of real skew-symmetric ``K``: ``1j K = U diag(w) U^H``."""
    return np.linalg.eigh(1j * k)


def expm_from_eig(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``expm(K) = Re(U diag(e^{-iw}) U^H)`` from the spectral form of ``K``."""
    return ((u * np.exp(-1j * w)[..., None, :]) @ _ht(u)).real


def expm_adjoint_from_eig(w: np.ndarray, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint Fréchet derivative of ``expm`` at ``K`` applied to ``G``.

    Equals ``expm_frechet(K.T, G)``. With the eigenvalues ``i w`` of ``K.T`` it
    is ``Re(U (Phi o (U^H G U)) U^H)``, where ``Phi`` holds the divided
    differences of ``e^{i w}``.
    """
    uh = _ht(u)
    phi = _expi_divided_differences(w, w)
    return (u @ (phi * (uh @ g @ u)) @ uh).real


def _tridiagonalize(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal ``Z`` and the subdiagonal of the skew tridiagonal ``Z^T K Z``, per matrix."""
    p = k.shape[-1]
    if p < 3:  # already tridiagonal; ``dorghr`` rejects p = 1
        return np.broadcast_to(np.eye(p), k.shape), np.diagonal(k, -1, -2, -1)
    flat = k.reshape(-1, p, p)
    z = np.empty_like(flat)
    sub = np.empty((flat.shape[0], p - 1))
    for i, ki in enumerate(flat):
        h, tau, _ = dgehrd(ki)
        sub[i] = np.diagonal(h, -1)
        z[i], _ = dorghr(h, tau)
    return z.reshape(k.shape), sub.reshape(k.shape[:-2] + (p - 1,))


def skew_schur(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form of a stack of real skew-symmetric ``K``.

    Returns the angles ``theta`` (``(..., n)``, ``n = ceil(p / 2)``, all
    ``>= 0``) and a basis ``W = [X | Y]`` (``(..., p, 2n)``) with
    ``K x_j = -theta_j y_j`` and ``K y_j = theta_j x_j``: ``K`` acts on each
    pair ``(x_j, y_j)`` as the 2x2 block ``theta_j J``, ``J = [[0, 1], [-1, 0]]``.
    For odd ``p`` the last ``y`` is a zero column and its angle is zero, so
    ``[X | Y]`` is orthogonal apart from that column.

    ``dgehrd``/``dorghr`` reduce each ``K`` to the skew tridiagonal
    ``T = Z^T K Z`` with subdiagonal ``e``. ``T`` couples only even to odd
    indices, through the ``n x floor(p / 2)`` lower bidiagonal ``B`` with
    ``B_jj = -e_2j`` and ``B_j,j-1 = e_2j-1``, so the SVD ``B = U S V^T`` gives
    ``X = Z_even U``, ``Y = Z_odd V`` and ``theta = S``.
    """
    p = k.shape[-1]
    n, m = (p + 1) // 2, p // 2
    lead = k.shape[:-2]
    z, sub = _tridiagonalize(k)
    b = np.zeros(lead + (n * m,))
    b[..., 0::m + 1] = -sub[..., 0::2]
    b[..., m::m + 1] = sub[..., 1::2]
    u, s, vh = np.linalg.svd(b.reshape(lead + (n, m)))
    theta = np.zeros(lead + (n,))
    theta[..., :m] = s
    w = np.zeros(lead + (p, 2 * n))
    w[..., :n] = z[..., 0::2] @ u
    w[..., n:n + m] = z[..., 1::2] @ np.swapaxes(vh, -1, -2)
    return theta, w


def expm_from_schur(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``expm(K) = W diag(e^{theta_j J}) W^T`` from the real Schur form of ``K``."""
    n = theta.shape[-1]
    x, y = w[..., :n], w[..., n:]
    cos, sin = np.cos(theta)[..., None, :], np.sin(theta)[..., None, :]
    rotated = np.concatenate([x * cos - y * sin, x * sin + y * cos], axis=-1)
    return rotated @ np.swapaxes(w, -1, -2)


def expm_adjoint_from_schur(theta: np.ndarray, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint Fréchet derivative of ``expm`` at ``K`` applied to ``G``, in real arithmetic.

    Equals ``expm_frechet(K.T, G)`` and ``W L(W^T G W) W^T``, where ``L`` acts
    on each 2x2 block ``E`` of ``W^T G W``. ``E`` is the sum of a part that
    commutes with ``J``, read as the complex number
    ``(E11 + E22) / 2 + i (E12 - E21) / 2``, and a part that anticommutes with
    it, read as ``(E11 - E22) / 2 + i (E12 + E21) / 2``; ``E11 + i E12`` and
    ``E22 - i E21`` are their sum and difference. In block ``(j, k)``, ``L``
    multiplies the first part by the divided difference of ``e^{i a}`` at
    ``(-theta_j, -theta_k)`` and the second by the one at ``(theta_j, -theta_k)``.
    """
    n = theta.shape[-1]
    wt = np.swapaxes(w, -1, -2)
    e = wt @ g @ w
    phi = _expi_divided_differences(np.concatenate([-theta, theta], axis=-1), -theta)
    e11_e12 = e[..., :n, :n] + 1j * e[..., :n, n:]
    e22_e21 = e[..., n:, n:] - 1j * e[..., n:, :n]
    commuting = phi[..., :n, :] * (0.5 * (e11_e12 + e22_e21))
    anticommuting = phi[..., n:, :] * (0.5 * (e11_e12 - e22_e21))
    top, bottom = commuting + anticommuting, commuting - anticommuting
    f = np.empty_like(e)
    f[..., :n, :n], f[..., :n, n:] = top.real, top.imag
    f[..., n:, n:], f[..., n:, :n] = bottom.real, -bottom.imag
    return w @ f @ wt


class StepKernel(NamedTuple):
    """A spectral decomposition of skew ``K`` and the ``expm`` and adjoint read from it."""

    decompose: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    expm: Callable[[np.ndarray, np.ndarray], np.ndarray]
    expm_adjoint: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


COMPLEX_KERNEL = StepKernel(skew_eig, expm_from_eig, expm_adjoint_from_eig)
REAL_KERNEL = StepKernel(skew_schur, expm_from_schur, expm_adjoint_from_schur)


def step_kernel(p: int) -> StepKernel:
    """The faster kernel at dimension ``p`` (see ``REAL_SCHUR_MIN_DIM``)."""
    return REAL_KERNEL if p >= REAL_SCHUR_MIN_DIM else COMPLEX_KERNEL


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
    convergence_tol: float,
    c_bounds: tuple[float, float],
) -> list[DescentResult]:
    """Run Adam on a batch of ``(K, log c)`` restarts and return each one's best iterate.

    ``k0`` is an ``(R, p, p)`` stack of starts and ``objective`` holds the
    matching ``(R, p, p)`` stacks; results come back in restart order. A
    restart stops after ``max_steps`` or once its best objective has not
    improved by ``convergence_tol`` over ``PATIENCE`` consecutive steps. During
    a plateau its step size decays every ``ANNEAL_EVERY`` stalled steps so the
    iterate can settle below the fixed-rate noise floor.

    Raises ``OptimizerDivergedError`` naming the lowest-index restart whose
    objective or gradient became non-finite, with that restart's trace.
    """
    log_lo, log_hi = np.log(c_bounds[0]), np.log(c_bounds[1])
    k = _skew(np.array(k0, dtype=float))
    n_restarts = k.shape[0]
    # every restart starts at c = 1, clipped into the bounds
    log_c = np.clip(np.zeros(n_restarts), log_lo, log_hi)
    lr = np.full(n_restarts, LEARN_RATE * (5.0 / k.shape[-1]))
    m_k = np.zeros_like(k)
    v_k = np.zeros_like(k)
    m_c = np.zeros(n_restarts)
    v_c = np.zeros(n_restarts)
    # batch row -> restart index; rows stay in restart order as restarts leave
    ids = np.arange(n_restarts)

    trace = np.empty((n_restarts, max_steps))
    best_obj = np.full(n_restarts, np.inf)
    best_q = np.empty_like(k)
    best_logc = np.empty(n_restarts)
    best_step = np.zeros(n_restarts, dtype=int)
    last_improve = np.zeros(n_restarts, dtype=int)
    anneals = np.zeros(n_restarts, dtype=int)
    results: list[DescentResult | None] = [None] * n_restarts

    def diverged(rows: np.ndarray, what: str, step: int, steps_kept: int):
        r = int(ids[rows][0])
        return OptimizerDivergedError(
            f"restart {r}: {what} became non-finite at step {step}",
            trace=trace[r, :steps_kept].tolist(),
        )

    kernel = step_kernel(k.shape[-1])
    for step in range(1, max_steps + 1):
        angles, basis = kernel.decompose(k)
        q = kernel.expm(angles, basis)
        c = np.exp(log_c)
        values, _, grad_q, grad_c = objective.value_and_grads(q, c)
        finite = np.isfinite(values)
        if not finite.all():
            raise diverged(~finite, "objective", step, step - 1)
        trace[ids, step - 1] = values
        best_so_far = best_obj[ids]
        last_improve[ids[values < best_so_far - convergence_tol]] = step
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
            ids, k, log_c, lr, m_k, v_k, m_c, v_c = (
                a[keep] for a in (ids, k, log_c, lr, m_k, v_k, m_c, v_c)
            )
            angles, basis, grad_q, grad_c, c, stalled = (
                a[keep] for a in (angles, basis, grad_q, grad_c, c, stalled)
            )
            objective = objective.take(keep)

        anneal = (stalled > 0) & (stalled % ANNEAL_EVERY == 0)
        lr = np.where(anneal, lr * ANNEAL_FACTOR, lr)
        anneals[ids[anneal]] += 1

        grad_k = _skew(kernel.expm_adjoint(angles, basis, grad_q))
        grad_logc = grad_c * c
        finite = np.isfinite(grad_k).all(axis=(1, 2)) & np.isfinite(grad_logc)
        if not finite.all():
            raise diverged(~finite, "gradient", step, step)

        total_norm = np.sqrt(_sum2(grad_k**2) + grad_logc**2)
        scale = GRAD_CLIP / np.maximum(total_norm, GRAD_CLIP)
        grad_k = grad_k * scale[:, None, None]
        grad_logc = grad_logc * scale

        m_k = ADAM_BETA1 * m_k + (1.0 - ADAM_BETA1) * grad_k
        v_k = ADAM_BETA2 * v_k + (1.0 - ADAM_BETA2) * grad_k**2
        m_c = ADAM_BETA1 * m_c + (1.0 - ADAM_BETA1) * grad_logc
        v_c = ADAM_BETA2 * v_c + (1.0 - ADAM_BETA2) * grad_logc**2
        bias1 = 1.0 - ADAM_BETA1**step
        bias2 = 1.0 - ADAM_BETA2**step
        k = k - lr[:, None, None] * (m_k / bias1) / (np.sqrt(v_k / bias2) + ADAM_EPS)
        log_c = log_c - lr * (m_c / bias1) / (np.sqrt(v_c / bias2) + ADAM_EPS)
        log_c = np.clip(log_c, log_lo, log_hi)

    return results


def random_skew(p: int, rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    """Skew-symmetric start: entrywise N(0, scale^2), antisymmetrized."""
    return _skew(rng.normal(0.0, scale, size=(p, p)))


def random_signs(p: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal of independent +-1 entries, as a vector."""
    return np.where(rng.random(p) < 0.5, -1.0, 1.0)
