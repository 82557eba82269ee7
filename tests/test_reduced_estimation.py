from __future__ import annotations

import numpy as np
import pytest

from envarkit import (
    OrbitElement,
    StructuralModel,
    TimeSeries,
    canonical_from_reduced,
    canonical_representative,
    center,
    empirical_orbit_member,
    fit_ols,
    gram_orthogonal_factor,
    simulate,
    to_reduced_form,
)
from envarkit.errors import DimensionError, NotPositiveDefiniteError, RankError

from conftest import random_admissible, random_orthogonal


class TestCenter:
    def test_constant_series_becomes_zero(self):
        ts = TimeSeries(values=np.full((2, 5), 3.0))
        out = center(ts)
        assert out.centered
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_centered_series_unchanged(self):
        values = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        out = center(TimeSeries(values=values))
        np.testing.assert_allclose(out.values, values, atol=1e-12)

    def test_simple_row(self):
        out = center(TimeSeries(values=np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.values, [[-1.0, 0.0, 1.0]])

    def test_row_means_vanish(self):
        rng = np.random.default_rng(0)
        out = center(TimeSeries(values=rng.normal(5.0, 2.0, (3, 50))))
        assert np.max(np.abs(out.values.mean(axis=1))) <= 1e-12


class TestFitOls:
    def test_noiseless_recursion_recovers_phi(self):
        rng = np.random.default_rng(1)
        phi = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]])
        x = np.empty((3, 12))
        x[:, 0] = rng.normal(size=3)
        for t in range(1, 12):
            x[:, t] = phi @ x[:, t - 1]
        fit = fit_ols(TimeSeries(values=x, centered=True), ridge_tau=1e-10)
        np.testing.assert_allclose(fit.phi_hat, phi, atol=1e-10)
        np.testing.assert_allclose(fit.sigma_u_hat, 1e-10 * np.eye(3), atol=1e-12)
        assert fit.ridge_tau == 1e-10

    def test_iid_data_large_t(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 50_000))
        ts = center(TimeSeries(values=x))
        fit = fit_ols(ts)
        assert np.max(np.abs(fit.phi_hat)) <= 0.05
        assert np.max(np.abs(fit.sigma_u_hat - np.eye(2))) <= 0.05

    def test_geometric_sequence(self):
        ts = TimeSeries(values=np.array([[1.0, 0.5, 0.25, 0.125]]), centered=True)
        fit = fit_ols(ts)
        assert fit.phi_hat[0, 0] == pytest.approx(0.5)
        assert fit.n_eff == 3

    def test_requires_centered_flag(self):
        with pytest.raises(DimensionError, match="center"):
            fit_ols(TimeSeries(values=np.zeros((2, 10)), centered=False))

    @pytest.mark.parametrize("ridge_tau", [-1e-3, np.nan, np.inf, 10**400, True, "1"],
                             ids=["negative", "nan", "inf", "huge-int", "bool", "str"])
    def test_rejects_bad_ridge_tau(self, ridge_tau):
        ts = TimeSeries(values=np.array([[1.0, 0.5, 0.25, 0.125]]), centered=True)
        with pytest.raises(DimensionError, match="^ridge_tau must be a finite number >= 0"):
            fit_ols(ts, ridge_tau=ridge_tau)

    def test_numpy_ridge_tau_accepted(self):
        ts = TimeSeries(values=np.array([[1.0, 0.5, 0.25, 0.125]]), centered=True)
        fit = fit_ols(ts, ridge_tau=np.float32(0.5))
        assert type(fit.ridge_tau) is float and fit.ridge_tau == 0.5

    def test_singular_gram_raises(self):
        # T < p forces a rank-deficient Z Z^T
        ts = TimeSeries(values=np.array([[1.0, 0.0, 1.0]] * 4), centered=True)
        with pytest.raises(RankError, match="longer series"):
            fit_ols(ts)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        m = random_admissible(3, rng)
        ts = center(simulate(m, 500, seed=4))
        fit = fit_ols(ts)
        y = ts.values[:, 1:]
        z = ts.values[:, :-1]
        residual = (y - fit.phi_hat @ z) @ z.T
        bound = 1e-8 * np.linalg.norm(y, "fro") * np.linalg.norm(z, "fro")
        assert np.linalg.norm(residual, "fro") <= bound

    def test_residual_covariance_identity(self):
        rng = np.random.default_rng(5)
        m = random_admissible(2, rng)
        ts = center(simulate(m, 300, seed=6))
        fit = fit_ols(ts, ridge_tau=0.01)
        recon = fit.residuals @ fit.residuals.T / fit.n_eff + 0.01 * np.eye(2)
        np.testing.assert_allclose(fit.sigma_u_hat, recon, atol=1e-12)
        assert np.max(np.abs(fit.sigma_u_hat - fit.sigma_u_hat.T)) <= 1e-12

    def test_consistency_improves_with_t(self):
        # median max-abs error over seeds decreases along T = 1e3, 1e4, 1e5
        rng_models = np.random.default_rng(7)
        m = random_admissible(3, rng_models)
        rf = to_reduced_form(m)
        medians = []
        for t_len in (1000, 10_000, 100_000):
            errors = []
            for seed in range(20):
                ts = center(simulate(m, t_len, seed=100 + seed))
                fit = fit_ols(ts)
                errors.append(np.max(np.abs(fit.phi_hat - rf.phi)))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]


class TestCanonicalRepresentative:
    def test_identity_covariance(self):
        phi = np.array([[0.3, 0.1], [0.0, 0.2]])
        cr = canonical_from_reduced(phi, np.eye(2))
        np.testing.assert_allclose(cr.b_can, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cr.gamma_can, phi, atol=1e-12)

    def test_scaled_identity(self):
        cr = canonical_from_reduced(np.zeros((3, 3)), 4.0 * np.eye(3))
        np.testing.assert_allclose(cr.b_can, 0.5 * np.eye(3), atol=1e-12)

    def test_round_trip_random_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            root = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            sigma_u = root @ root.T
            cr = canonical_from_reduced(rng.normal(size=(3, 3)) * 0.2, sigma_u)
            b_inv = np.linalg.inv(cr.b_can)
            np.testing.assert_allclose(b_inv @ b_inv.T, sigma_u, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("sigma_u", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite: the first factorization fails
        # PD to roundoff only: its precision matrix fails the second
        np.array([[1.0, 1.0], [1.0, 1.0 + 3e-16]]),
    ], ids=["indefinite", "roundoff-pd"])
    def test_rejects_non_positive_definite(self, sigma_u):
        with pytest.raises(NotPositiveDefiniteError, match="sigma_u must be positive definite"):
            canonical_from_reduced(np.zeros((2, 2)), sigma_u)

    def test_invariants_from_fit(self):
        rng = np.random.default_rng(9)
        m = random_admissible(3, rng)
        fit = fit_ols(center(simulate(m, 400, seed=10)))
        cr = canonical_representative(fit)
        # upper-triangular with positive diagonal
        assert np.allclose(cr.b_can, np.triu(cr.b_can))
        assert np.all(np.diag(cr.b_can) > 0)
        gram = cr.b_can.T @ cr.b_can
        rel = np.linalg.norm(gram - cr.omega_u_hat, "fro") / np.linalg.norm(
            cr.omega_u_hat, "fro"
        )
        assert rel <= 1e-8
        np.testing.assert_allclose(
            np.linalg.solve(cr.b_can, cr.gamma_can), fit.phi_hat, rtol=1e-8, atol=1e-10
        )

    def test_canonical_model_induces_fit(self):
        rng = np.random.default_rng(11)
        m = random_admissible(4, rng)
        fit = fit_ols(center(simulate(m, 600, seed=12)))
        cr = canonical_representative(fit)
        canonical_model = StructuralModel(
            a0=np.eye(4) - cr.b_can, a1=cr.gamma_can, sigma=1.0
        )
        rf = to_reduced_form(canonical_model)
        np.testing.assert_allclose(rf.phi, fit.phi_hat, atol=1e-9)
        np.testing.assert_allclose(rf.sigma_u, fit.sigma_u_hat, atol=1e-9)


class TestEmpiricalOrbitMember:
    def test_identity_element_is_canonical(self):
        rng = np.random.default_rng(13)
        m = random_admissible(3, rng)
        fit = fit_ols(center(simulate(m, 400, seed=14)))
        cr = canonical_representative(fit)
        member = empirical_orbit_member(cr, OrbitElement(q=np.eye(3), c=1.0))
        np.testing.assert_allclose(member.a0, np.eye(3) - cr.b_can, atol=1e-14)
        np.testing.assert_allclose(member.a1, cr.gamma_can, atol=1e-14)
        assert member.sigma == 1.0

    def test_members_reproduce_reduced_form(self):
        rng = np.random.default_rng(15)
        m = random_admissible(3, rng)
        fit = fit_ols(center(simulate(m, 400, seed=16)))
        cr = canonical_representative(fit)
        for _ in range(5):
            e = OrbitElement(
                q=random_orthogonal(3, rng), c=float(rng.uniform(0.3, 3.0))
            )
            rf = to_reduced_form(empirical_orbit_member(cr, e))
            assert np.max(np.abs(rf.phi - fit.phi_hat)) <= 1e-9
            assert np.max(np.abs(rf.sigma_u - fit.sigma_u_hat)) <= 1e-9

    def test_distinct_elements_distinct_structures(self):
        rng = np.random.default_rng(17)
        m = random_admissible(3, rng)
        fit = fit_ols(center(simulate(m, 400, seed=18)))
        cr = canonical_representative(fit)
        m1 = empirical_orbit_member(cr, OrbitElement(q=np.eye(3), c=1.0))
        m2 = empirical_orbit_member(cr, OrbitElement(q=random_orthogonal(3, rng), c=1.0))
        assert np.max(np.abs(m1.a0 - m2.a0)) > 1e-3
        rf1, rf2 = to_reduced_form(m1), to_reduced_form(m2)
        np.testing.assert_allclose(rf1.phi, rf2.phi, atol=1e-9)
        np.testing.assert_allclose(rf1.sigma_u, rf2.sigma_u, atol=1e-9)

    def test_orbit_completeness_via_gram_factor(self):
        # any model inducing the fitted pair decomposes against b_can
        rng = np.random.default_rng(19)
        m = random_admissible(3, rng)
        fit = fit_ols(center(simulate(m, 400, seed=20)))
        cr = canonical_representative(fit)
        e = OrbitElement(q=random_orthogonal(3, rng), c=1.3)
        member = empirical_orbit_member(cr, e)
        q = gram_orthogonal_factor(cr.b_can, member.b, member.sigma**2)
        np.testing.assert_allclose(q, e.q, atol=1e-8)
        np.testing.assert_allclose(member.sigma * q @ cr.b_can, member.b, atol=1e-8)
