from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve

from envarkit import (
    StructuralModel,
    align_sf,
    canonical_from_reduced,
    default_config,
    solve_envar,
    to_reduced_form,
)
from envarkit.envar_optimizer import (
    ANNEAL_EVERY,
    CONVERGENCE_TOL,
    GRAD_CLIP,
    NONFINITE_GRADIENT,
    NONFINITE_OBJECTIVE,
    PATIENCE,
    STOP_REASONS,
    CayleyBuffers,
    OrbitObjective,
    cayley,
    cayley_adjoint,
    envar_descents,
    minimize_orbit_objective,
    random_skew,
)
from envarkit import envar_optimizer
from envarkit._seeding import sub_rng
from envarkit.envar_optimizer import _batch, _skew, norm_constants
from envarkit.errors import DimensionError, OptimizerDivergedError
from envarkit.reduced_estimation import canonical_representative, center, fit_ols
from envarkit.synth import GeneratorConfig, generate_instance

from conftest import random_admissible
from oracles import reference_minimize_orbit_objective, reference_value_and_grads
from envarkit.model_core import simulate


def make_fitted_representative(p: int, seed: int):
    rng = np.random.default_rng(seed)
    m = random_admissible(p, rng)
    fit = fit_ols(center(simulate(m, 800, seed=seed + 1)))
    return canonical_representative(fit), fit


class TestDefaultConfig:
    def test_small_dimension(self):
        cfg = default_config(5)
        assert cfg.mu == 7.5
        assert cfg.lambda0 == 1.0 and cfg.lambda1 == 1.0
        assert cfg.max_steps == 5000

    def test_medium_dimension(self):
        cfg = default_config(50)
        assert cfg.mu == 5.0
        assert cfg.max_steps == 10_000

    def test_large_dimension(self):
        cfg = default_config(100)
        assert cfg.mu == 2.5

    def test_boundaries(self):
        assert default_config(25).mu == 7.5
        assert default_config(26).mu == 5.0
        assert default_config(75).mu == 5.0
        assert default_config(76).mu == 2.5

    @pytest.mark.parametrize("p", [0, 2.5, np.nan, True, "5"])
    def test_rejects_bad_p(self, p):
        with pytest.raises(DimensionError, match="^p must be an integer >= 1"):
            default_config(p)

    @pytest.mark.parametrize("p", [1, 5, 25, 100])
    def test_one_restart_by_default(self, p):
        assert default_config(p).restarts == 1

    def test_numpy_integer_p_accepted(self):
        assert default_config(np.int64(30), seed=np.int64(2)) == default_config(30, seed=2)

    def test_invalid_config_rejected(self):
        with pytest.raises(DimensionError, match="mu"):
            replace(default_config(5), mu=-1.0)
        for restarts in (0, 1001):
            with pytest.raises(DimensionError, match="restarts"):
                replace(default_config(5), restarts=restarts)
        for name, value in (("lambda0", np.nan), ("lambda1", np.nan), ("mu", np.inf)):
            with pytest.raises(DimensionError, match=f"^{name} must be a finite number"):
                replace(default_config(5), **{name: value})


def _objective_value(q, c, cr, cfg):
    """The selection objective at ``(Q, c)``, as the descent evaluates it."""
    objective, _ = _batch([(cr, replace(cfg, restarts=1))])
    value, _, _ = objective.value_and_grads(np.asarray(q)[None], np.array([c]))
    return float(value[0])


class TestObjective:
    def test_zero_at_clean_identity(self):
        cr = canonical_from_reduced(np.zeros((4, 4)), np.eye(4))
        cfg = default_config(4)
        assert _objective_value(np.eye(4), 1.0, cr, cfg) == 0.0

    def test_doubled_scale_raw_diag_term(self):
        p = 4
        cr = canonical_from_reduced(np.zeros((p, p)), np.eye(p))
        cfg = default_config(p)
        norms = norm_constants(cr, cfg)
        value = _objective_value(np.eye(p), 2.0, cr, cfg)
        assert value * norms.hollow == pytest.approx(cfg.mu * p / 2.0)

    def test_matches_term_by_term_recomputation(self):
        cr, _ = make_fitted_representative(3, seed=0)
        cfg = default_config(3, seed=5)
        rng = np.random.default_rng(1)
        k = random_skew(3, rng, 0.4)
        q = expm(k)
        c = 1.37
        norms = norm_constants(cr, cfg)
        value = _objective_value(q, c, cr, cfg)
        m = q @ cr.b_can
        off = m - np.diag(np.diag(m))
        t_off = cfg.lambda0 * c * np.abs(off).sum() / norms.offdiag
        t_lag = cfg.lambda1 * c * np.abs(q @ cr.gamma_can).sum() / norms.lag
        t_hollow = 0.5 * cfg.mu * np.sum((c * np.diag(m) - 1.0) ** 2) / norms.hollow
        assert value == pytest.approx(t_off + t_lag + t_hollow, abs=1e-12)
        off_only = replace(cfg, lambda1=0.0, mu=0.0)
        assert _objective_value(q, c, cr, off_only) == pytest.approx(
            t_off, abs=1e-12
        )

    def test_norm_fallback_flagged_for_zero_lag(self):
        cr = canonical_from_reduced(np.zeros((3, 3)), np.eye(3))
        norms = norm_constants(cr, default_config(3))
        assert "lag" in norms.fallbacks
        assert norms.lag == 1.0

    def test_scale_degeneracy_guard(self):
        # without the diagonal penalty the sparsity objective vanishes as c -> 0
        cr, _ = make_fitted_representative(3, seed=2)
        cfg = replace(default_config(3), mu=0.0)
        tiny = _objective_value(np.eye(3), 1e-6, cr, cfg)
        unit = _objective_value(np.eye(3), 1.0, cr, cfg)
        assert tiny < unit
        assert tiny == pytest.approx(1e-6 * unit, rel=1e-9)


def _three_term_reference(objective, q, c):
    """Value and subgradients of the objective, one restart and one term at a
    time, skipping a term whose weight is zero."""
    p = q.shape[-1]
    m = q @ objective.g_mat
    n_mat = q @ objective.h_mat
    value = np.zeros(len(q))
    grad_m = np.zeros_like(m)
    grad_n = np.zeros_like(n_mat)
    grad_c = np.zeros(len(q))
    for r in range(len(q)):
        w_off, w_lag, w_diag = objective.w_off[r], objective.w_lag[r], objective.w_diag[r]
        if w_off:
            off = m[r] - np.diag(np.diag(m[r]))
            value[r] += w_off * c[r] * np.abs(off).sum()
            grad_m[r] += w_off * c[r] * np.sign(off)
            grad_c[r] += w_off * np.abs(off).sum()
        if w_lag:
            value[r] += w_lag * c[r] * np.abs(n_mat[r]).sum()
            grad_n[r] += w_lag * c[r] * np.sign(n_mat[r])
            grad_c[r] += w_lag * np.abs(n_mat[r]).sum()
        if w_diag:
            d = c[r] * np.diag(m[r]) - 1.0
            value[r] += w_diag * np.sum(d**2)
            grad_m[r][np.diag_indices(p)] += 2.0 * w_diag * c[r] * d
            grad_c[r] += 2.0 * w_diag * np.sum(d * np.diag(m[r]))
    grad_q = grad_m @ np.swapaxes(objective.g_mat, -1, -2)
    grad_q += grad_n @ np.swapaxes(objective.h_mat, -1, -2)
    return value, grad_q, grad_c


class TestFusedObjective:
    """``value_and_grads`` makes one weighted sum over ``Q [G | H]``; it must
    agree with the three separate terms, each row with its own weights, a zero
    weight included."""

    @pytest.mark.parametrize("zero", [None, "w_off", "w_lag", "w_diag"])
    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_matches_three_term_formula(self, p, zero):
        rng = np.random.default_rng(300 + p)
        n = 3
        weights = {"w_off": np.array([0.7, 0.2, 1.1]), "w_lag": np.array([0.4, 0.9, 0.3]),
                   "w_diag": np.array([1.3, 0.6, 2.0])}
        if zero is not None:
            weights[zero][1] = 0.0
        g_mat = rng.normal(size=(n, p, p))
        g_mat[0, 0, -1] = 0.0  # an exact zero of Q G at Q = I: sign(0) = 0
        objective = OrbitObjective(
            g_mat=g_mat, h_mat=rng.normal(size=(n, p, p)), **weights
        )
        k = np.array([random_skew(p, rng, 0.5) for _ in range(n)])
        k[0] = 0.0
        q, _ = cayley(k)
        c = np.exp(rng.normal(0.0, 0.3, size=n))
        value, grad_q, grad_c = objective.value_and_grads(q, c)
        ref_value, ref_grad_q, ref_grad_c = _three_term_reference(objective, q, c)
        np.testing.assert_allclose(value, ref_value, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(grad_q, ref_grad_q, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad_c, ref_grad_c, rtol=1e-13, atol=1e-13)

    def test_zero_weight_term_adds_nothing(self):
        rng = np.random.default_rng(310)
        p = 4
        base = OrbitObjective(
            g_mat=rng.normal(size=(2, p, p)), h_mat=rng.normal(size=(2, p, p)),
            w_off=np.zeros(2), w_lag=np.zeros(2), w_diag=np.zeros(2),
        )
        q, _ = cayley(np.array([random_skew(p, rng, 0.5) for _ in range(2)]))
        value, grad_q, grad_c = base.value_and_grads(q, np.array([0.8, 1.9]))
        assert not value.any() and not grad_q.any() and not grad_c.any()


class TestDescentGradients:
    def test_matches_finite_differences(self):
        """On a batch of one restart."""
        rng = np.random.default_rng(3)
        p = 4
        objective = OrbitObjective(
            g_mat=rng.normal(size=(1, p, p)),
            h_mat=rng.normal(size=(1, p, p)),
            w_off=np.array([0.7]),
            w_lag=np.array([0.4]),
            w_diag=np.array([1.3]),
        )

        def value(q, c):
            return objective.value_and_grads(q[None], np.array([c]))[0][0]

        k = random_skew(p, rng, 0.3)
        log_c = 0.2
        (q,), a_inv = cayley(k[None])
        c = float(np.exp(log_c))
        (value_qc,), grad_q, (grad_c,) = objective.value_and_grads(q[None], np.array([c]))
        m = q @ objective.g_mat[0]
        expected_terms = (
            np.abs(m - np.diag(np.diag(m))).sum(),
            np.abs(q @ objective.h_mat[0]).sum(),
            np.sum((c * np.diag(m) - 1.0) ** 2),
        )
        expected_value = (
            0.7 * c * expected_terms[0] + 0.4 * c * expected_terms[1] + 1.3 * expected_terms[2]
        )
        assert value_qc == pytest.approx(expected_value, abs=1e-12)
        grad_k = _skew_part(cayley_adjoint(a_inv, grad_q)[0])
        eps = 1e-7
        for i in range(p):
            for j in range(i + 1, p):
                direction = np.zeros((p, p))
                direction[i, j] = eps
                direction[j, i] = -eps
                fd = (
                    value(cayley((k + direction)[None])[0][0], c)
                    - value(cayley((k - direction)[None])[0][0], c)
                ) / (2 * eps)
                assert fd == pytest.approx(grad_k[i, j] - grad_k[j, i], abs=1e-6)
        fd_c = (
            value(q, float(np.exp(log_c + eps)))
            - value(q, float(np.exp(log_c - eps)))
        ) / (2 * eps)
        assert fd_c == pytest.approx(grad_c * c, abs=1e-6)


def _relative_error(a, b):
    norm = np.linalg.norm(b)
    return np.linalg.norm(a - b) / norm if norm > 0 else np.linalg.norm(a)


def _skew_part(a):
    return 0.5 * (a - a.T)


class TestDescentKernel:
    """The Cayley map ``Q = (I - K/2)^{-1} (I + K/2)`` and its adjoint derivative."""

    def _check(self, k, g):
        q, a_inv = cayley(k)
        adj = cayley_adjoint(a_inv, g)
        eye = np.eye(k.shape[-1])
        for r in range(k.shape[0]):
            a = eye - 0.5 * k[r]
            assert _relative_error(q[r], solve(a, eye + 0.5 * k[r])) <= 1e-12
            # <G, dQ> = <(1/2) (I - K/2)^{-T} G (I + Q)^T, dK>
            oracle = 0.5 * solve(a.T, g[r] @ (eye + q[r]).T)
            assert _relative_error(adj[r], oracle) <= 1e-12
            defect = np.linalg.norm(q[r].T @ q[r] - eye, "fro")
            assert defect <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 15, 16, 25, 50, 51])
    def test_matches_scipy_oracle(self, p):
        rng = np.random.default_rng(100 + p)
        scales = (0.0, 0.1, 1.0, 3.0)
        k = np.array([random_skew(p, rng, scale) for scale in scales])
        g = rng.normal(size=(len(scales), p, p))
        assert not k[0].any()
        self._check(k, g)

    def test_repeated_eigenvalue_pairs(self):
        rng = np.random.default_rng(8)
        blocks = [np.kron(np.eye(copies), random_skew(size, rng, scale))
                  for size, copies, scale in ((2, 3, 1.0), (3, 4, 3.0), (5, 5, 0.5))]
        for k in blocks:
            g = rng.normal(size=k.shape)
            self._check(k[None], g[None])

    def test_exactly_zero_rotation_angles(self):
        """A nonzero skew block beside a zero block, for even and odd sizes of each."""
        rng = np.random.default_rng(9)
        for size, zeros in ((4, 3), (5, 4), (9, 9)):
            k = np.zeros((size + zeros, size + zeros))
            k[:size, :size] = random_skew(size, rng, 1.0)
            g = rng.normal(size=k.shape)
            self._check(k[None], g[None])

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_adjoint_matches_central_differences(self, p):
        """Entry (i, j) of the adjoint is the derivative of <G, Q(K)> along E_ij."""
        rng = np.random.default_rng(200 + p)
        k = random_skew(p, rng, 1.0)
        g = rng.normal(size=(p, p))
        (adj,) = cayley_adjoint(cayley(k[None])[1], g[None])
        eps = 1e-6
        for i in range(p):
            for j in range(p):
                step = np.zeros((p, p))
                step[i, j] = eps
                fd = (np.sum(g * cayley((k + step)[None])[0][0])
                      - np.sum(g * cayley((k - step)[None])[0][0])) / (2 * eps)
                assert fd == pytest.approx(adj[i, j], abs=1e-8)


def _batch_problem(p, rng):
    """Four restarts on one fitted representative; restart 2 starts at an exact
    minimum (value 0, zero gradient) so it stops on patience while the others run."""
    cr, _ = make_fitted_representative(p, seed=20)
    norms = norm_constants(cr, default_config(p))
    signs = np.array([np.ones(p), -np.ones(p), np.ones(p), np.r_[-1.0, np.ones(p - 1)]])
    g_mat = signs[:, :, None] * cr.b_can
    h_mat = signs[:, :, None] * cr.gamma_can
    g_mat[2], h_mat[2] = np.eye(p), np.zeros((p, p))
    k0 = np.array([random_skew(p, rng) for _ in range(4)])
    k0[2] = 0.0
    objective = OrbitObjective(
        g_mat=g_mat, h_mat=h_mat, w_off=np.full(4, 1.0 / norms.offdiag),
        w_lag=np.full(4, 1.0 / norms.lag), w_diag=np.full(4, 3.75 / norms.hollow),
    )
    return objective, k0


def _descend(objective, k0, steps=PATIENCE + 100):
    """The descent of the restarts of ``objective`` with a budget of ``steps``."""
    return minimize_orbit_objective(objective, k0, max_steps=steps)


def _assert_same_outcome(x, y):
    assert np.array_equal(x.q, y.q)
    assert np.array_equal(x.trace, y.trace)
    assert (x.c, x.objective, x.steps, x.best_step, x.stop_reason, x.anneals,
            x.final_grad_norm) == (y.c, y.objective, y.steps, y.best_step, y.stop_reason,
                                   y.anneals, y.final_grad_norm)


@dataclass(frozen=True)
class _NanAfter(OrbitObjective):
    """Reports ``value`` (NaN by default) as the objective of the flagged
    restarts from evaluation ``after + 1`` on."""

    flagged: np.ndarray = None
    after: int = 0
    calls: list = field(default_factory=list)
    value: float = np.nan

    def take(self, rows):
        return replace(super().take(rows), flagged=self.flagged[rows])

    def value_and_grads(self, q, c):
        total, grad_q, grad_c = super().value_and_grads(q, c)
        self.calls.append(None)
        if len(self.calls) > self.after:
            total = np.where(self.flagged, self.value, total)
        return total, grad_q, grad_c


@dataclass(frozen=True)
class _NanGradAfter(_NanAfter):
    """As ``_NanAfter``, and reports ``grad_value`` (NaN by default) as the
    ``c``-gradient of the ``grad_flagged`` restarts from evaluation
    ``grad_after + 1`` on."""

    grad_flagged: np.ndarray = None
    grad_after: int = 0
    grad_value: float = np.nan

    def take(self, rows):
        return replace(super().take(rows), grad_flagged=self.grad_flagged[rows])

    def value_and_grads(self, q, c):
        total, grad_q, grad_c = super().value_and_grads(q, c)
        if len(self.calls) > self.grad_after:
            grad_c = np.where(self.grad_flagged, self.grad_value, grad_c)
        return total, grad_q, grad_c


class TestBatchedDescent:
    @pytest.mark.parametrize("p", [1, 4, 20])
    def test_restart_is_bitwise_independent_of_batch(self, p):
        objective, k0 = _batch_problem(p, np.random.default_rng(21))
        batch = _descend(objective, k0)
        assert batch[2].stop_reason == "patience"
        assert batch[2].steps == PATIENCE + 1
        assert all(batch[r].steps > batch[2].steps for r in (0, 1, 3))
        for r in range(4):
            (alone,) = _descend(objective.take([r]), k0[r:r + 1])
            assert np.array_equal(alone.trace, batch[r].trace)
            assert np.array_equal(alone.q, batch[r].q)
            assert alone.c == batch[r].c
            assert alone.steps == batch[r].steps
            assert alone.best_step == batch[r].best_step
            assert alone.stop_reason == batch[r].stop_reason
            assert alone.anneals == batch[r].anneals

    def test_final_grad_norm_is_the_unclipped_norm_at_the_stop(self):
        """A one-step budget stops every restart at its start, c = 1, where
        the (K, log c) gradient is read directly from the objective."""
        objective, k0 = _batch_problem(4, np.random.default_rng(24))
        q, a_inv = cayley(k0)
        _, grad_q, grad_c = objective.value_and_grads(q, np.ones(4))
        grad_k = _skew(cayley_adjoint(a_inv, grad_q))
        expected = np.sqrt((grad_k**2).sum(axis=(1, 2)) + grad_c**2)
        assert expected.max() > 1.0  # past GRAD_CLIP, so clipping would show
        outcomes = _descend(objective, k0, 1)
        np.testing.assert_allclose([o.final_grad_norm for o in outcomes], expected,
                                   rtol=1e-13)

    def test_solve_envar_restart_zero_unchanged_by_batch_size(self):
        cr, _ = make_fitted_representative(3, seed=22)
        cfg = replace(default_config(3, seed=2), max_steps=300)
        alone = solve_envar(cr, cfg).restarts[0]
        batched = solve_envar(cr, replace(cfg, restarts=4)).restarts[0]
        assert np.array_equal(alone.trace, batched.trace)
        assert np.array_equal(alone.q, batched.q)
        assert alone.c == batched.c

    def test_divergence_names_restart_and_carries_its_trace(self):
        """Restart 3's objective is NaN from step 31: it stops there with the
        30 finite values, and the other restarts run on untouched."""
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        flagged = np.array([False, False, False, True])
        poisoned = _NanAfter(**vars(objective), flagged=flagged, after=30)
        batch = _descend(poisoned, k0)
        assert (batch[3].stop_reason, batch[3].steps) == (NONFINITE_OBJECTIVE, 31)
        (alone,) = _descend(objective.take([3]), k0[3:], 30)
        assert np.array_equal(batch[3].trace, alone.trace)
        assert len(batch[3].trace) == 30
        assert np.array_equal(batch[3].q, alone.q) and batch[3].best_step == alone.best_step
        clean = _descend(objective, k0)
        for r in range(3):
            _assert_same_outcome(batch[r], clean[r])

    def test_divergence_at_the_first_step_has_no_iterate(self):
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        flagged = np.array([True, False, False, False])
        (first, *_) = _descend(_NanAfter(**vars(objective), flagged=flagged, after=0), k0, 50)
        assert (first.stop_reason, first.steps, len(first.trace)) == (NONFINITE_OBJECTIVE, 1, 0)
        assert np.isnan(first.q).all() and np.isnan(first.c) and first.objective == np.inf

    def test_nonfinite_gradient_names_restart_and_carries_its_trace(self):
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        flagged = np.array([False, True, False, True])
        poisoned = _NanGradAfter(**vars(objective), flagged=np.zeros(4, dtype=bool),
                                 grad_flagged=flagged, grad_after=30)
        batch = _descend(poisoned, k0)
        clean = _descend(objective, k0)
        for r in range(4):
            if not flagged[r]:
                _assert_same_outcome(batch[r], clean[r])
                continue
            assert (batch[r].stop_reason, batch[r].steps) == (NONFINITE_GRADIENT, 31)
            (alone,) = _descend(objective.take([r]), k0[r:r + 1], 31)
            assert np.array_equal(batch[r].trace, alone.trace)
            assert len(batch[r].trace) == 31
            assert np.array_equal(batch[r].q, alone.q) and batch[r].best_step == alone.best_step


class TestGradientFiniteness:
    def test_infinite_c_gradient_stops_the_restart(self):
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        poisoned = _NanGradAfter(**vars(objective), flagged=np.zeros(4, dtype=bool),
                                 grad_flagged=np.arange(4) == 1, grad_after=30,
                                 grad_value=np.inf)
        batch = _descend(poisoned, k0)
        assert (batch[1].stop_reason, batch[1].steps) == (NONFINITE_GRADIENT, 31)
        assert batch[1].final_grad_norm == np.inf

    def test_finite_gradient_with_an_overflowing_square_does_not(self):
        """A ``c``-gradient of 1e200 is finite, but its square is not: the
        restart runs to its budget, each such step's gradient clipped to zero."""
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        poisoned = _NanGradAfter(**vars(objective), flagged=np.zeros(4, dtype=bool),
                                 grad_flagged=np.arange(4) == 1, grad_after=30,
                                 grad_value=1e200)
        with np.errstate(over="ignore"):
            batch = _descend(poisoned, k0, 60)
        assert (batch[1].stop_reason, batch[1].steps) == ("budget", 60)
        assert batch[1].final_grad_norm == np.inf
        assert np.isfinite(batch[1].trace).all()


# The step budget of ``_mixed_batch``: past PATIENCE, so a restart may stop on
# patience before it
MIXED_STEPS = 700


def _mixed_batch(p):
    """Nine restarts of three fits at dimension ``p`` that differ in data, seed
    and weights, three restarts each; fit 2's first restart (row 6) starts at
    an exact minimum, so it stops on patience while others run to the
    budget. Returns the objective and the starts."""
    base = replace(default_config(p), restarts=3, max_steps=MIXED_STEPS)
    problems = [
        (make_fitted_representative(p, seed=30)[0], replace(base, seed=1)),
        (make_fitted_representative(p, seed=31)[0],
         replace(base, seed=2, lambda0=1.25, mu=3.0)),
        (canonical_from_reduced(np.zeros((p, p)), np.eye(p)),
         replace(base, seed=4, lambda1=0.5)),
    ]
    objective, starts = _batch(problems)
    starts[6] = 0.0
    return objective, starts


def _bits(x):
    """Shape and bytes of an array or float, so NaN equals NaN and -0.0 is not 0.0."""
    x = np.asarray(x)
    return x.shape, x.tobytes()


def _matches_reference(make_objective, starts, max_steps):
    """The outcomes of the descent of ``make_objective()``, each field
    asserted bitwise equal to those of the allocating reference descent."""
    got = minimize_orbit_objective(make_objective(), starts, max_steps=max_steps)
    want = reference_minimize_orbit_objective(make_objective(), starts,
                                              max_steps=np.full(len(starts), max_steps))
    assert len(got) == len(want) == len(starts)
    for x, y in zip(got, want):
        for name in ("q", "trace", "c", "objective", "final_grad_norm"):
            assert _bits(getattr(x, name)) == _bits(getattr(y, name)), name
        assert (x.steps, x.best_step, x.stop_reason, x.anneals) == (
            y.steps, y.best_step, y.stop_reason, y.anneals)
    return got


def _start_grad_norms(objective, starts):
    """The unclipped (K, log c) gradient norm of each restart at its first step."""
    q, a_inv = cayley(starts)
    _, grad_q, grad_c = objective.value_and_grads(q, np.ones(len(starts)))
    grad_k = _skew(cayley_adjoint(a_inv, grad_q))
    return np.sqrt((grad_k**2).sum(axis=(1, 2)) + grad_c**2)


def _anneal_steps(trace):
    """The steps at which a restart with this objective trace anneals."""
    best, last_improve, steps = np.inf, 0, []
    for step, value in enumerate(trace, start=1):
        if value < best - CONVERGENCE_TOL:
            last_improve = step
        best = min(best, value)
        stalled = step - last_improve
        if stalled > 0 and stalled % ANNEAL_EVERY == 0:
            steps.append(step)
    return steps


class TestStepMatchesReference:
    """The in-place step is bitwise the allocating one of ``oracles``."""

    @pytest.mark.parametrize("p", [1, 3, 25])
    def test_every_outcome_field(self, p):
        """Restart 4's objective is NaN from step 41 and restart 5's gradient
        from step 61; the others stop by budget or patience, and some anneal."""
        objective, starts = _mixed_batch(p)
        rows = np.arange(len(starts))

        def poisoned():
            return _NanGradAfter(**vars(objective), flagged=rows == 4, after=40,
                                 grad_flagged=rows == 5, grad_after=60)

        got = _matches_reference(poisoned, starts, MIXED_STEPS)
        assert {o.stop_reason for o in got} == set(STOP_REASONS)
        assert any(o.anneals for o in got)

    def test_every_outcome_field_when_one_row_clips(self):
        """At the first step restart 0's gradient norm is above GRAD_CLIP and
        the others' below it, so one row of the step is clipped."""
        objective, starts = _mixed_batch(3)
        objective, starts = objective.take([0, 1, 3]), starts[[0, 1, 3]]
        scale = np.array([3.0, 1e-3, 1e-3])
        objective = replace(objective, w_off=objective.w_off * scale,
                            w_lag=objective.w_lag * scale, w_diag=objective.w_diag * scale)
        norms = _start_grad_norms(objective, starts)
        assert norms[0] > GRAD_CLIP > norms[1:].max()
        got = _matches_reference(lambda: objective, starts, 300)
        assert [o.steps for o in got] == [300, 300, 300]

    def test_every_outcome_field_when_a_row_anneals_as_another_stops(self):
        """The second row anneals at the step the first row's objective turns
        NaN, so it is annealed in the row that the first row's stop compacts
        it into."""
        objective, starts = _mixed_batch(3)
        (alone,) = _descend(objective.take([0]), starts[:1], MIXED_STEPS)
        first_anneal = _anneal_steps(alone.trace)[0]
        assert first_anneal < alone.steps

        def poisoned():
            return _NanAfter(**vars(objective.take([1, 0])), flagged=np.array([True, False]),
                             after=first_anneal - 1)

        got = _matches_reference(poisoned, starts[[1, 0]], MIXED_STEPS)
        assert (got[0].steps, got[0].stop_reason) == (first_anneal, NONFINITE_OBJECTIVE)
        assert _anneal_steps(got[1].trace)[0] == first_anneal
        _assert_same_outcome(got[1], alone)

    def test_every_outcome_field_with_a_one_step_budget(self):
        objective, starts = _mixed_batch(3)
        got = _matches_reference(lambda: objective, starts, 1)
        assert [(o.steps, len(o.trace), o.stop_reason) for o in got] == [
            (1, 1, "budget")] * len(starts)

    def test_every_outcome_field_when_finite_values_sum_to_infinity(self):
        """From step 31, restarts 0 and 2 report 1e308: each value is finite,
        but their sum is not, so a step runs the per-row stop tests, which
        stop no one before the budget."""
        objective, starts = _mixed_batch(3)
        objective, starts = objective.take([0, 1, 3]), starts[[0, 1, 3]]

        def huge():
            return _NanAfter(**vars(objective), flagged=np.array([True, False, True]),
                             after=30, value=1e308)

        got = _matches_reference(huge, starts, 80)
        assert [(o.steps, o.stop_reason) for o in got] == [(80, "budget")] * 3
        for o in (got[0], got[2]):
            assert (o.trace[30:] == 1e308).all() and o.best_step <= 30

    @pytest.mark.parametrize("p", [1, 3, 25])
    def test_value_and_grads(self, p):
        """Rows with a zero weight and an exact zero of ``Q G`` included."""
        rng = np.random.default_rng(400 + p)
        objective, starts = _mixed_batch(p)
        objective = replace(objective, w_lag=np.where(np.arange(9) == 2, 0.0, objective.w_lag))
        q, _ = cayley(starts)
        c = np.exp(rng.normal(0.0, 0.3, size=len(q)))
        for _ in range(2):  # the second call reuses the first's workspace
            got = objective.value_and_grads(q, c)
            for x, y in zip(got, reference_value_and_grads(objective, q, c)):
                assert _bits(x) == _bits(y)


class TestWorkspace:
    def test_results_are_fresh_arrays(self):
        objective, k0 = _batch_problem(5, np.random.default_rng(25))
        q, _ = cayley(k0)
        first = objective.value_and_grads(q, np.full(4, 0.9))
        kept = [a.copy() for a in first]
        second = objective.value_and_grads(cayley(-k0)[0], np.full(4, 1.3))
        buffers = objective.workspace
        for i, x in enumerate(first + second):
            for y in (first + second)[i + 1:] + buffers:
                assert not np.shares_memory(x, y)
        for x, y in zip(first, kept):
            assert np.array_equal(x, y)

    def test_one_row_take_gives_that_row(self):
        objective, k0 = _batch_problem(5, np.random.default_rng(26))
        objective = objective.take([0, 1, 3])
        q, _ = cayley(k0[[0, 1, 3]])
        c = np.array([0.8, 1.1, 1.7])
        whole = objective.value_and_grads(q, c)
        row = objective.take([1]).value_and_grads(q[1:2], c[1:2])
        for x, y in zip(whole, row):
            assert np.array_equal(x[1:2], y)


def _descent_problems():
    """Four p = 3 fits of three restarts and one step budget that differ in
    data, seed and weights; restarts stop by patience and by budget."""
    base = replace(default_config(3), restarts=3, max_steps=2500)
    return [
        (make_fitted_representative(3, seed=30)[0], replace(base, seed=1)),
        (make_fitted_representative(3, seed=31)[0],
         replace(base, seed=2, lambda0=1.25, mu=3.0)),
        (make_fitted_representative(3, seed=32)[0], replace(base, seed=3)),
        (canonical_from_reduced(np.zeros((3, 3)), np.eye(3)),
         replace(base, seed=4, lambda1=0.5)),
    ]


def _assert_same_solution(a, b):
    assert a.restart_index == b.restart_index
    assert np.array_equal(a.model.a0, b.model.a0)
    assert np.array_equal(a.model.a1, b.model.a1)
    assert a.model.sigma == b.model.sigma
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert len(a.restarts) == len(b.restarts)
    for x, y in zip(a.restarts, b.restarts):
        _assert_same_outcome(x, y)


class TestEnvarDescents:
    """Several fits of one p descend as one batch; each fit's solution is
    bitwise the one of its own descent."""

    def test_batch_reproduces_each_lone_solve(self):
        """Restarts leave the batch out of restart order (patience stops at
        different steps, then the budget); each one's record is still the one
        its trace implies."""
        problems = _descent_problems()
        batched = envar_descents(problems)
        assert len(batched) == len(problems)
        steps = [r.steps for outcomes in batched for r in outcomes]
        assert steps != sorted(steps)
        reasons = set()
        for (cr, cfg), outcomes in zip(problems, batched):
            solution = solve_envar(cr, cfg, outcomes=outcomes)
            _assert_same_solution(solution, solve_envar(cr, cfg))
            assert len(solution.restarts) == cfg.restarts
            assert [(r.stop_reason, r.best_step, r.anneals, r.steps) for r in outcomes] == (
                _replay_stopping_rule([r.trace for r in outcomes], PATIENCE, CONVERGENCE_TOL,
                                      cfg.max_steps))
            for r in outcomes:
                assert r.trace[r.best_step - 1] == r.objective
            reasons.update(r.stop_reason for r in solution.restarts)
        assert reasons == {"patience", "budget"}

    def test_replaced_objectives_are_freed(self, monkeypatch):
        """A compaction frees the objective it replaces, with what was cached
        on it, and the batch objective the caller builds caches nothing."""
        stepped, built = [], []
        real_step, real_batch = OrbitObjective.value_and_grads, envar_optimizer._batch

        def tracked(self, q, c):
            if not stepped or stepped[-1]() is not self:
                assert all(ref() is None for ref in stepped)
                stepped.append(weakref.ref(self))
            return real_step(self, q, c)

        def kept(problems):
            built.append(real_batch(problems))
            return built[-1]

        monkeypatch.setattr(OrbitObjective, "value_and_grads", tracked)
        monkeypatch.setattr(envar_optimizer, "_batch", kept)
        envar_descents(_descent_problems())
        assert len(stepped) >= 3
        ((objective, _),) = built
        assert not {"gh", "gh_t", "weights", "w_diag2", "workspace"} & vars(objective).keys()

    def test_mixed_dimensions_are_refused(self):
        """Fits that differ in ``p``, ``max_steps`` or ``restarts`` are refused."""
        for field in ("p", "max_steps", "restarts"):
            shapes = [{"p": 3, "max_steps": 300, "restarts": 2} for _ in range(2)]
            shapes[1][field] += 1
            problems = [(make_fitted_representative(shape["p"], seed=33)[0],
                         replace(default_config(shape["p"]), max_steps=shape["max_steps"],
                                 restarts=shape["restarts"]))
                        for shape in shapes]
            with pytest.raises(DimensionError, match="one p, max_steps and restarts"):
                envar_descents(problems)
        assert envar_descents([]) == []

    def test_divergence_stays_with_its_problem(self, monkeypatch):
        """Problem 1's restarts report NaN from their 31st step, in any batch."""
        problems = _descent_problems()
        alone = [solve_envar(cr, cfg) for cr, cfg in problems]
        cr, cfg = problems[1]
        poisoned_w_off = cfg.lambda0 / norm_constants(cr, cfg).offdiag
        real = envar_optimizer.minimize_orbit_objective

        def poisoned(objective, k0, **kwargs):
            flagged = objective.w_off == poisoned_w_off
            return real(_NanAfter(**vars(objective), flagged=flagged, after=30), k0, **kwargs)

        monkeypatch.setattr(envar_optimizer, "minimize_orbit_objective", poisoned)
        with pytest.raises(OptimizerDivergedError) as lone:
            solve_envar(cr, cfg)
        assert str(lone.value) == "restart 0: objective became non-finite at step 31"
        batched = envar_descents(problems)
        assert (batched[1][0].stop_reason, batched[1][0].steps) == (NONFINITE_OBJECTIVE, 31)
        with pytest.raises(OptimizerDivergedError) as raised:
            solve_envar(cr, cfg, outcomes=batched[1])
        assert str(raised.value) == str(lone.value)
        assert np.array_equal(raised.value.trace, lone.value.trace)
        for i in (0, 2, 3):
            _assert_same_solution(solve_envar(*problems[i], outcomes=batched[i]), alone[i])

    def test_first_divergence_is_the_earliest_step(self, monkeypatch):
        """Restart 2's gradient is NaN from step 30 and restart 0's objective
        from step 31; both traces hold 30 values, and the error is the one
        of step 30."""
        cr, cfg = _descent_problems()[0]
        real = envar_optimizer.minimize_orbit_objective

        def poisoned(objective, k0, **kwargs):
            rows = np.arange(len(k0))
            return real(_NanGradAfter(**vars(objective), flagged=rows == 0, after=30,
                                      grad_flagged=rows == 2, grad_after=29), k0, **kwargs)

        monkeypatch.setattr(envar_optimizer, "minimize_orbit_objective", poisoned)
        with pytest.raises(OptimizerDivergedError) as err:
            solve_envar(cr, cfg)
        assert str(err.value) == "restart 2: gradient became non-finite at step 30"
        monkeypatch.setattr(envar_optimizer, "minimize_orbit_objective", real)
        (clean,) = envar_descents([(cr, replace(cfg, max_steps=30))])
        assert np.array_equal(err.value.trace, clean[2].trace)

    def test_two_divergences_each_stay_with_their_problem(self, monkeypatch):
        """Problem 1's objective is NaN from step 31 and problem 3's gradient
        from step 41, in any batch."""
        problems = _descent_problems()
        alone = [solve_envar(cr, cfg) for cr, cfg in problems]
        w_obj, w_grad = (cfg.lambda0 / norm_constants(cr, cfg).offdiag
                         for cr, cfg in (problems[1], problems[3]))
        real = envar_optimizer.minimize_orbit_objective

        def poisoned(objective, k0, **kwargs):
            return real(_NanGradAfter(**vars(objective), flagged=objective.w_off == w_obj,
                                      after=30, grad_flagged=objective.w_off == w_grad,
                                      grad_after=40), k0, **kwargs)

        monkeypatch.setattr(envar_optimizer, "minimize_orbit_objective", poisoned)
        batched = envar_descents(problems)
        for i, reason, message in (
            (1, NONFINITE_OBJECTIVE, "restart 0: objective became non-finite at step 31"),
            (3, NONFINITE_GRADIENT, "restart 0: gradient became non-finite at step 41"),
        ):
            with pytest.raises(OptimizerDivergedError) as lone:
                solve_envar(*problems[i])
            assert str(lone.value) == message
            assert batched[i][0].stop_reason == reason
            with pytest.raises(OptimizerDivergedError) as raised:
                solve_envar(*problems[i], outcomes=batched[i])
            assert str(raised.value) == message
            assert raised.value.trace == lone.value.trace
        for i in (0, 2):
            _assert_same_solution(solve_envar(*problems[i], outcomes=batched[i]), alone[i])


class TestZeroPivot:
    def test_cayley_names_the_singular_matrix(self):
        """A matrix whose I - K/2 is singular gets a NaN inverse and Q; the
        others are unaffected."""
        k = np.zeros((3, 2, 2))
        k[1] = 2.0 * np.eye(2)  # I - K/2 = 0
        q, a_inv = cayley(k)
        assert np.isnan(q[1]).all() and np.isnan(a_inv[1]).all()
        assert np.array_equal(q[[0, 2]], np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert np.array_equal(a_inv[[0, 2]], q[[0, 2]])

    def test_buffers_give_the_same_bytes(self):
        """``cayley`` and ``cayley_adjoint`` write the bytes they return
        without buffers into them, the singular matrix's NaN row included,
        over what a previous call left there."""
        rng = np.random.default_rng(27)
        k = np.array([random_skew(4, rng, 0.5) for _ in range(3)])
        k[1] = 2.0 * np.eye(4)  # I - K/2 = 0
        g = rng.normal(size=k.shape)
        q, a_inv = cayley(k)
        adj = cayley_adjoint(a_inv, g)
        assert np.isnan(q[1]).all() and np.isfinite(q[[0, 2]]).all()
        buffers = CayleyBuffers.empty(k.shape)
        for kk in (k[::-1].copy(), k):
            got = cayley(kk, buffers)
            assert got[0] is buffers.q and got[1] is buffers.a_inv
            got_adj = cayley_adjoint(got[1], g, buffers)
            assert got_adj is buffers.adj
        for x, y in zip((q, a_inv, adj), (*got, got_adj)):
            assert _bits(x) == _bits(y)

    def test_descent_names_restart_and_carries_its_trace(self, monkeypatch):
        """A singular I - K/2 in batch row 2, after restart 2 has left, is
        restart 3's: it stops as a non-finite objective, with a clean trace."""
        objective, k0 = _batch_problem(4, np.random.default_rng(23))
        after = PATIENCE + 10
        (clean,) = _descend(objective.take([3]), k0[3:], after)
        calls = []

        def singular_after(k, *args, **kwargs):
            calls.append(None)
            if len(calls) == after + 1:
                assert len(k) == 3
                k = k.copy()
                k[2] = 2.0 * np.eye(k.shape[-1])  # I - K/2 = 0
            return cayley(k, *args, **kwargs)

        monkeypatch.setattr(envar_optimizer, "cayley", singular_after)
        batch = _descend(objective, k0)
        assert (batch[3].stop_reason, batch[3].steps) == (NONFINITE_OBJECTIVE, after + 1)
        assert np.array_equal(batch[3].trace, clean.trace)


def _replay_stopping_rule(traces, patience, tol, max_steps):
    """Stop reason, best step, anneal count and step count of each restart,
    implied by its objective trace alone."""
    def replay(trace):
        best, best_step, last_improve, anneals = np.inf, 0, 0, 0
        for step, value in enumerate(trace, start=1):
            if value < best - tol:
                last_improve = step
            if value < best:
                best, best_step = value, step
            stalled = step - last_improve
            if stalled >= patience:
                return "patience", best_step, anneals, step
            if step == max_steps:
                return "budget", best_step, anneals, step
            if stalled > 0 and stalled % ANNEAL_EVERY == 0:
                anneals += 1
        raise AssertionError("trace ended before a stopping rule fired")

    return [replay(trace) for trace in traces]


class TestSolveEnvar:
    def test_restart_telemetry_matches_trace(self):
        cr, _ = make_fitted_representative(3, seed=24)
        reasons = set()
        for max_steps in (300, 5000):
            cfg = replace(default_config(3, seed=6), restarts=4, max_steps=max_steps)
            outcomes = solve_envar(cr, cfg).restarts
            assert [(o.stop_reason, o.best_step, o.anneals, o.steps) for o in outcomes] == (
                _replay_stopping_rule([o.trace for o in outcomes], PATIENCE, CONVERGENCE_TOL,
                                      max_steps))
            for outcome in outcomes:
                assert outcome.trace[outcome.best_step - 1] == outcome.objective
                reasons.add(outcome.stop_reason)
        assert reasons == {"patience", "budget"}

    def test_restarts_are_unfolded_starts_and_the_winner_is_the_lowest(self):
        """Each of a 3-restart fit's restarts descends the fit's own ``[G | H]``
        from its own random start, to its own stop, and stays among the
        rotations; the winner is the lowest (objective, restart index)."""
        cr, _ = make_fitted_representative(4, seed=14)
        cfg = replace(default_config(4, seed=7), restarts=3, max_steps=600)
        objective, starts = _batch([(cr, cfg)])
        for r in range(3):
            assert np.array_equal(objective.g_mat[r], cr.b_can)
            assert np.array_equal(objective.h_mat[r], cr.gamma_can)
            assert np.array_equal(starts[r],
                                  random_skew(4, sub_rng(cfg.seed, 0x656E7672, r)))
        solution = solve_envar(cr, cfg)
        for r, outcome in enumerate(solution.restarts):
            (alone,) = minimize_orbit_objective(objective.take([r]), starts[r:r + 1],
                                                max_steps=cfg.max_steps)
            _assert_same_outcome(outcome, alone)
            assert np.linalg.det(outcome.q) > 0.0
        objectives = [o.objective for o in solution.restarts]
        assert len(set(objectives)) == 3
        assert solution.restart_index == int(np.argmin(objectives))
        best = solution.restarts[solution.restart_index]
        worst = solution.restarts[int(np.argmax(objectives))]
        for outcomes, index in (((worst, best, best), 1), ((best, worst, best), 0)):
            assert solve_envar(cr, cfg, outcomes=outcomes).restart_index == index

    def test_trivial_instance_reaches_zero(self):
        cr = canonical_from_reduced(np.zeros((4, 4)), np.eye(4))
        solution = solve_envar(cr, default_config(4, seed=2))
        assert solution.objective <= 1e-6

    def test_determinism(self):
        cr, _ = make_fitted_representative(3, seed=4)
        cfg = replace(default_config(3, seed=9), max_steps=600)
        a = solve_envar(cr, cfg)
        b = solve_envar(cr, cfg)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert a.objective == b.objective
        assert np.array_equal(a.model.a0, b.model.a0)
        assert np.array_equal(a.q_hat, b.q_hat)

    @pytest.mark.parametrize("p", [3, 20])
    def test_reduced_form_preserved_for_every_restart(self, p):
        cr, fit = make_fitted_representative(p, seed=6)
        cfg = replace(default_config(p, seed=1), restarts=3, max_steps=800)
        solution = solve_envar(cr, cfg)
        for outcome in solution.restarts:
            member = StructuralModel(
                a0=np.eye(p) - outcome.c * (outcome.q @ cr.b_can),
                a1=outcome.c * (outcome.q @ cr.gamma_can),
                sigma=outcome.c,
            )
            rf = to_reduced_form(member)
            scale = 1.0 + np.max(np.abs(fit.phi_hat))
            assert np.max(np.abs(rf.phi - fit.phi_hat)) <= 1e-8 * scale
            assert np.max(np.abs(rf.sigma_u - fit.sigma_u_hat)) <= 1e-8 * (
                1.0 + np.max(np.abs(fit.sigma_u_hat))
            )
            assert np.linalg.norm(outcome.q.T @ outcome.q - np.eye(p), "fro") <= 1e-8

    @settings(max_examples=12, deadline=None)
    @given(p=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    def test_smallest_dimensions_keep_reduced_form_and_orthogonality(self, p, seed):
        cr, fit = make_fitted_representative(p, seed=seed)
        solution = solve_envar(cr, replace(default_config(p, seed=seed), max_steps=300))
        for q, c in [(o.q, o.c) for o in solution.restarts] + [
            (solution.q_hat, solution.c_hat)
        ]:
            member = StructuralModel(
                a0=np.eye(p) - c * (q @ cr.b_can), a1=c * (q @ cr.gamma_can), sigma=c
            )
            rf = to_reduced_form(member)
            assert np.max(np.abs(rf.phi - fit.phi_hat)) <= 1e-8
            assert np.max(np.abs(rf.sigma_u - fit.sigma_u_hat)) <= 1e-8
            assert np.linalg.norm(q.T @ q - np.eye(p), "fro") <= 1e-12

    def test_exact_orthogonality_of_parameterization(self):
        rng = np.random.default_rng(7)
        for scale in (0.1, 1.0, 3.0):
            (q,), _ = cayley(random_skew(6, rng, scale)[None])
            assert np.linalg.norm(q.T @ q - np.eye(6), "fro") <= 1e-8

    def test_best_so_far_monotone_and_restart_dominance(self):
        cr, _ = make_fitted_representative(3, seed=8)
        cfg = replace(default_config(3, seed=3), restarts=4, max_steps=500)
        solution = solve_envar(cr, cfg)
        running = np.minimum.accumulate(np.asarray(solution.objective_trace))
        assert np.all(np.diff(running) <= 0.0)
        finals = [outcome.objective for outcome in solution.restarts]
        assert solution.objective <= min(finals) + 1e-15
        assert solution.restart_index == int(np.argmin(finals))

    def test_smoothed_trace_nonincreasing(self):
        # 50-step moving average decreases up to Adam noise-ball wiggle
        cr, _ = make_fitted_representative(4, seed=10)
        solution = solve_envar(cr, replace(default_config(4, seed=4), max_steps=2000))
        trace = np.asarray(solution.objective_trace)
        kernel = np.ones(50) / 50.0
        smooth = np.convolve(trace, kernel, mode="valid")
        assert np.max(np.diff(smooth)) <= 1e-4

    def test_objective_of_returned_params_matches(self):
        cr, _ = make_fitted_representative(3, seed=12)
        cfg = replace(default_config(3, seed=5), max_steps=700)
        solution = solve_envar(cr, cfg)
        assert solution.norms == norm_constants(cr, cfg)
        assert _objective_value(solution.q_hat, solution.c_hat, cr, cfg) == solution.objective

    def test_exact_class_instance_selects_sparse_member(self):
        # noiseless canonical representative built from the exact reduced form
        inst = generate_instance(GeneratorConfig(p=5, t_len=1000, seed=11), episode=0)
        cr = canonical_from_reduced(inst.phi, inst.sigma_u)
        cfg = default_config(5, seed=1)
        solution = solve_envar(cr, cfg)
        canonical_model = StructuralModel(
            a0=np.eye(5) - cr.b_can, a1=cr.gamma_can, sigma=1.0
        )
        # the solution stays in the exact class, so it can do no worse than the
        # canonical member against the truth class
        sol_sf = align_sf(inst.model, solution.model).value
        can_sf = align_sf(inst.model, canonical_model).value
        assert sol_sf <= can_sf + 1e-8
        # soft normalization at paper defaults leaves an O(0.1) residual
        assert solution.diag_residual <= 0.5
        # a stiff hollowness weight drives the diagonal to one
        stiff = solve_envar(cr, replace(cfg, mu=7.5e3, max_steps=8000))
        assert stiff.diag_residual <= 1e-3
