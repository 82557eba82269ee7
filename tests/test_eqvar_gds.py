from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import hadamard

from envarkit import fit_eqvar_gds
from envarkit.errors import DimensionError, RankError
from envarkit.reduced_estimation import OlsFit, center, fit_ols
from envarkit.synth import GeneratorConfig, generate_instance

from oracles import regression_greedy


def make_fit(residuals: np.ndarray, phi_hat: np.ndarray | None = None) -> OlsFit:
    """A ridge-0 fit whose covariance is the plain residual Gram ``u u^T / n``."""
    p, n = residuals.shape
    if phi_hat is None:
        phi_hat = np.zeros((p, p))
    return OlsFit(
        phi_hat=phi_hat, sigma_u_hat=residuals @ residuals.T / n, n_eff=n, ridge_tau=0.0
    )


def ols_residuals(ts, fit: OlsFit) -> np.ndarray:
    """The residuals ``y - phi_hat z`` of a fit to the centered series ``ts``."""
    return ts.values[:, 1:] - fit.phi_hat @ ts.values[:, :-1]


class TestOrdering:
    def test_chain_recovered(self):
        # residuals u = B^{-1} e with a single contemporaneous edge 0 -> 1
        rng = np.random.default_rng(0)
        n = 100_000
        coef = 0.8
        e = rng.standard_normal((2, n))
        u = np.empty_like(e)
        u[0] = e[0]
        u[1] = coef * u[0] + e[1]
        result = fit_eqvar_gds(make_fit(u), alpha=0.05)
        assert result.ordering == (0, 1)
        assert result.a0_hat[1, 0] == pytest.approx(coef, abs=0.05)
        assert result.a0_hat[0, 1] == 0.0

    def test_three_node_chain(self):
        rng = np.random.default_rng(1)
        n = 100_000
        e = rng.standard_normal((3, n))
        u = np.empty_like(e)
        u[0] = e[0]
        u[1] = 0.7 * u[0] + e[1]
        u[2] = 0.5 * u[1] + e[2]
        result = fit_eqvar_gds(make_fit(u), alpha=0.05)
        assert result.ordering == (0, 1, 2)
        assert result.a0_hat[1, 0] == pytest.approx(0.7, abs=0.05)
        assert result.a0_hat[2, 1] == pytest.approx(0.5, abs=0.05)

    def test_independent_residuals_mostly_pruned(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 20_000))
        result = fit_eqvar_gds(make_fit(u), alpha=0.05)
        false_positives = int(np.count_nonzero(result.a0_hat))
        # 6 tested edges at alpha=0.05: expect ~0.3 false positives
        assert false_positives <= 3
        assert np.max(np.abs(result.a0_hat)) <= 0.1

    def test_single_node(self):
        u = np.random.default_rng(3).standard_normal((1, 100))
        phi = np.array([[0.4]])
        result = fit_eqvar_gds(make_fit(u, phi), alpha=0.05)
        assert result.ordering == (0,)
        assert result.a0_hat[0, 0] == 0.0
        np.testing.assert_allclose(result.a1_hat, phi)

    def test_degenerate_residuals_raise(self):
        u = np.zeros((2, 100))
        u[0] = np.random.default_rng(4).standard_normal(100)
        u[1] = u[0]  # exactly collinear
        with pytest.raises(RankError):
            fit_eqvar_gds(make_fit(u), alpha=0.05)

    def test_alpha_bounds(self):
        u = np.random.default_rng(5).standard_normal((2, 100))
        with pytest.raises(DimensionError):
            fit_eqvar_gds(make_fit(u), alpha=0.0)
        for alpha in (np.nan, np.inf, True, "0.05"):
            with pytest.raises(DimensionError, match="^alpha must be a finite number in"):
                fit_eqvar_gds(make_fit(u), alpha=alpha)

    def test_too_few_samples_raise(self):
        u = np.random.default_rng(10).standard_normal((5, 5))
        with pytest.raises(RankError, match=r"\(n=5\) for 4 regressors"):
            fit_eqvar_gds(make_fit(u), alpha=0.05)

    def test_exact_tie_picks_smallest_index(self):
        # orthogonal +-1 rows: every conditional variance is exactly 1.0 at
        # every step, under any relabelling
        u = hadamard(64)[1:7].astype(float)
        for perm in ([0, 1, 2, 3, 4, 5], [3, 5, 1, 0, 4, 2]):
            result = fit_eqvar_gds(make_fit(u[perm]), alpha=0.05)
            assert result.ordering == (0, 1, 2, 3, 4, 5)
            assert not np.any(result.a0_hat)

    @pytest.mark.parametrize("p", [5, 25, 50])
    def test_matches_regression_reference(self, p):
        inst = generate_instance(GeneratorConfig(p=p, t_len=1000, seed=3), 0)
        ts = center(inst.series)
        fit = fit_ols(ts)
        result = fit_eqvar_gds(fit, alpha=0.05)
        ordering, a0_ref = regression_greedy(ols_residuals(ts, fit), alpha=0.05)
        assert result.ordering == ordering
        np.testing.assert_array_equal(result.a0_hat != 0.0, a0_ref != 0.0)
        assert np.max(np.abs(result.a0_hat - a0_ref)) <= 1e-10

    def test_pruning_matches_regression_reference_at_small_n(self):
        # at n = 30 many t-tests sit near the threshold, so a wrong standard
        # error flips some pruning decisions
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = np.eye(6) - np.tril(rng.uniform(-0.6, 0.6, (6, 6)), k=-1)
            u = np.linalg.solve(b, rng.standard_normal((6, 30)))
            result = fit_eqvar_gds(make_fit(u), alpha=0.05)
            ordering, a0_ref = regression_greedy(u, alpha=0.05)
            assert result.ordering == ordering
            np.testing.assert_array_equal(result.a0_hat != 0.0, a0_ref != 0.0)
            assert np.max(np.abs(result.a0_hat - a0_ref)) <= 1e-10


class TestCovariancePath:
    def test_ridge_reaches_gds(self):
        # gds orders and prunes on the ridged covariance every method sees:
        # a ridge as large as the covariance's trace washes out most edges
        ts = center(generate_instance(GeneratorConfig(p=10, t_len=1000, seed=3), 0).series)
        plain = fit_ols(ts)
        ridged = fit_ols(ts, ridge_tau=float(np.trace(plain.sigma_u_hat)))
        kept_plain = np.count_nonzero(fit_eqvar_gds(plain).a0_hat)
        kept_ridged = np.count_nonzero(fit_eqvar_gds(ridged).a0_hat)
        assert kept_ridged < kept_plain

    @pytest.mark.parametrize("p", [5, 25])
    def test_ridge_zero_fit_is_the_residual_gram(self, p):
        # at ridge 0 the fitted covariance is bitwise the residual Gram, so gds
        # on the fit equals gds on that Gram formed here from the series
        ts = center(generate_instance(GeneratorConfig(p=p, t_len=400, seed=2), 0).series)
        fit = fit_ols(ts)
        gram_fit = make_fit(ols_residuals(ts, fit), fit.phi_hat)
        assert np.array_equal(fit.sigma_u_hat, gram_fit.sigma_u_hat)
        result, expected = fit_eqvar_gds(fit), fit_eqvar_gds(gram_fit)
        assert result.ordering == expected.ordering
        assert np.array_equal(result.a0_hat, expected.a0_hat)
        assert np.array_equal(result.a1_hat, expected.a1_hat)


class TestResultInvariants:
    def make_result(self, seed: int = 6, p: int = 4, n: int = 5000):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((p, n)) * rng.uniform(0.8, 1.2)
        b = np.eye(p)
        for i in range(1, p):
            for j in range(i):
                if rng.random() < 0.5:
                    b[i, j] = -rng.uniform(-0.8, 0.8)
        u = np.linalg.solve(b, e)
        phi_hat = rng.normal(0, 0.2, (p, p))
        return fit_eqvar_gds(make_fit(u, phi_hat), alpha=0.05), phi_hat

    def test_zero_diagonal_and_triangular_under_ordering(self):
        result, _ = self.make_result()
        assert np.all(np.diag(result.a0_hat) == 0.0)
        perm = list(result.ordering)
        permuted = result.a0_hat[np.ix_(perm, perm)]
        assert np.allclose(permuted, np.tril(permuted, k=-1))

    def test_algebraic_consistency_with_phi(self):
        result, phi_hat = self.make_result(seed=7)
        p = phi_hat.shape[0]
        recovered = np.linalg.solve(np.eye(p) - result.a0_hat, result.a1_hat)
        assert np.max(np.abs(recovered - phi_hat)) <= 1e-8

    def test_a1_identity(self):
        result, phi_hat = self.make_result(seed=8)
        p = phi_hat.shape[0]
        expected = (np.eye(p) - result.a0_hat) @ phi_hat
        assert np.max(np.abs(result.a1_hat - expected)) <= 1e-10

    def test_label_permutation_equivariance(self):
        # relabeling nodes and undoing the permutation reproduces the result
        rng = np.random.default_rng(9)
        p, n = 3, 50_000
        e = rng.standard_normal((p, n))
        u = np.empty_like(e)
        u[0] = e[0]
        u[1] = 0.6 * u[0] + e[1]
        u[2] = -0.4 * u[0] + 0.3 * u[1] + e[2]
        phi_hat = rng.normal(0, 0.2, (p, p))
        base = fit_eqvar_gds(make_fit(u, phi_hat), alpha=0.05)
        perm = np.array([2, 0, 1])
        u_perm = u[perm]
        phi_perm = phi_hat[np.ix_(perm, perm)]
        shuffled = fit_eqvar_gds(make_fit(u_perm, phi_perm), alpha=0.05)
        inverse = np.argsort(perm)
        restored_a0 = shuffled.a0_hat[np.ix_(inverse, inverse)]
        np.testing.assert_allclose(restored_a0, base.a0_hat, atol=1e-10)
