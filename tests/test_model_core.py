from __future__ import annotations

import importlib
import pkgutil
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import envarkit
from envarkit import (
    AlignmentResult,
    CanonicalRepresentative,
    CentralityReport,
    EnvarConfig,
    EnvarSolution,
    GdsResult,
    GeneratorConfig,
    GroundTruthInstance,
    OlsFit,
    OrbitElement,
    ReducedForm,
    StationaryLaw,
    StructuralModel,
    TimeSeries,
    gram_orthogonal_factor,
    is_admissible,
    is_normalized,
    is_stable,
    orbit_transform,
    simulate,
    spectral_radius,
    stationary_covariance,
    to_reduced_form,
)
from envarkit.errors import (
    AdmissibilityError,
    DimensionError,
    FactorizationError,
    NotPositiveDefiniteError,
    StabilityError,
)
from envarkit.envar_optimizer import NormConstants, RestartOutcome
from envarkit.formats import MetricsConfig
from envarkit.model_core import BURN_IN, _reduced_form

from conftest import random_admissible, random_orthogonal
from oracles import (
    kron_lyapunov, reference_reduced_form, reference_simulate, truncated_lyapunov,
)


class TestSpectralRadius:
    def test_scaled_identity(self):
        assert spectral_radius(0.5 * np.eye(3)) == pytest.approx(0.5)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_complex_pair(self):
        # characteristic polynomial x^2 + 0.25: roots +-0.5i
        assert spectral_radius(np.array([[0.0, 1.0], [-0.25, 0.0]])) == pytest.approx(0.5)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestAdmissibility:
    def test_simple_admissible(self):
        m = StructuralModel(a0=np.zeros((3, 3)), a1=0.5 * np.eye(3), sigma=1.0)
        report = is_admissible(m)
        assert report
        assert report.reasons == ()

    def test_singular_b(self):
        m = StructuralModel(a0=np.eye(2), a1=np.zeros((2, 2)), sigma=1.0)
        report = is_admissible(m)
        assert not report
        assert "B singular" in report.reasons

    def test_unstable(self):
        m = StructuralModel(a0=np.zeros((2, 2)), a1=1.2 * np.eye(2), sigma=1.0)
        report = is_admissible(m)
        assert not report
        assert "unstable" in report.reasons
        assert report.phi_spectral_radius == pytest.approx(1.2)

    def test_sigma_must_be_positive_at_construction(self):
        with pytest.raises(DimensionError):
            StructuralModel(a0=np.zeros((2, 2)), a1=np.zeros((2, 2)), sigma=0.0)
        # a string or a bool was once stored as a float
        for sigma in ("2", True, -1.0, np.nan, np.inf):
            with pytest.raises(DimensionError, match="^sigma must be a finite number > 0"):
                StructuralModel(a0=np.zeros((2, 2)), a1=np.zeros((2, 2)), sigma=sigma)
        m = StructuralModel(a0=np.zeros((2, 2)), a1=np.zeros((2, 2)), sigma=np.float32(2.0))
        assert type(m.sigma) is float and m.sigma == 2.0

    def test_normalized_predicate(self):
        rng = np.random.default_rng(0)
        m = random_admissible(3, rng)
        assert is_normalized(m)
        bad = StructuralModel(a0=0.1 * np.eye(2), a1=np.zeros((2, 2)), sigma=1.0)
        assert not is_normalized(bad)
        # a NaN tolerance once made every model non-normalized
        for tol in (np.nan, -1.0, True, "0"):
            with pytest.raises(DimensionError, match="^tol must be a finite number >= 0"):
                is_normalized(m, tol=tol)
        assert is_normalized(m, tol=np.float32(1e-12))


class TestReducedForm:
    def test_identity_b(self):
        a1 = np.array([[0.2, 0.1], [0.0, -0.3]])
        m = StructuralModel(a0=np.zeros((2, 2)), a1=a1, sigma=1.5)
        rf = to_reduced_form(m)
        np.testing.assert_allclose(rf.phi, a1)
        np.testing.assert_allclose(rf.sigma_u, 2.25 * np.eye(2))

    def test_single_offdiagonal_entry(self):
        # B = [[1, -0.5], [0, 1]]; sigma_u = B^{-1} B^{-T} computed by hand
        a0 = np.array([[0.0, 0.5], [0.0, 0.0]])
        m = StructuralModel(a0=a0, a1=np.zeros((2, 2)), sigma=1.0)
        rf = to_reduced_form(m)
        b_inv = np.array([[1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(rf.sigma_u, b_inv @ b_inv.T, atol=1e-14)
        np.testing.assert_allclose(rf.phi, np.zeros((2, 2)), atol=1e-14)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_admissible(3, rng)
            e = OrbitElement(q=random_orthogonal(3, rng), c=float(rng.uniform(0.3, 3.0)))
            rf1 = to_reduced_form(m)
            rf2 = to_reduced_form(orbit_transform(m, e))
            assert np.max(np.abs(rf1.phi - rf2.phi)) <= 1e-9
            assert np.max(np.abs(rf1.sigma_u - rf2.sigma_u)) <= 1e-9

    def test_inadmissible_raises_with_diagnostics(self):
        m = StructuralModel(a0=np.eye(2), a1=np.zeros((2, 2)), sigma=1.0)
        with pytest.raises(AdmissibilityError) as err:
            to_reduced_form(m)
        assert "B singular" in err.value.diagnostics.reasons

    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_single_map_matches_reference_formulas(self, p, per_node):
        rng = np.random.default_rng(40 + p)
        m = random_admissible(p, rng)
        sigma = rng.uniform(0.5, 2.0, p) if per_node else m.sigma
        phi, sigma_u = _reduced_form(m.b, m.a1, sigma**2)
        ref_phi, ref_sigma_u = reference_reduced_form(m.b, m.a1, sigma)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(sigma_u, sigma_u.T)
        if per_node:
            # multiplying by the zeros of diag(sigmas^2) adds nothing: same bits
            assert np.array_equal(sigma_u, ref_sigma_u)
        else:
            # the scalar is applied before the product instead of after it
            scale = np.max(np.abs(ref_sigma_u))
            np.testing.assert_allclose(sigma_u, ref_sigma_u, rtol=0, atol=1e-14 * scale)
            rf = to_reduced_form(m)
            assert np.array_equal(rf.phi, phi) and np.array_equal(rf.sigma_u, sigma_u)

    def test_constructor_rejects_asymmetric_covariance(self):
        with pytest.raises(DimensionError):
            ReducedForm(phi=np.zeros((2, 2)), sigma_u=np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_constructor_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefiniteError):
            ReducedForm(phi=np.zeros((2, 2)), sigma_u=np.diag([1.0, -1.0]))


class TestStationaryCovariance:
    def test_zero_phi(self):
        sigma_u = np.array([[2.0, 0.3], [0.3, 1.0]])
        law = stationary_covariance(ReducedForm(phi=np.zeros((2, 2)), sigma_u=sigma_u))
        np.testing.assert_allclose(law.sigma_x, sigma_u)
        np.testing.assert_allclose(law.gamma1, np.zeros((2, 2)))

    def test_scalar_geometric_series(self):
        law = stationary_covariance(
            ReducedForm(phi=np.array([[0.5]]), sigma_u=np.array([[1.0]]))
        )
        assert law.sigma_x[0, 0] == pytest.approx(4.0 / 3.0)

    def test_against_truncated_series(self):
        rng = np.random.default_rng(3)
        m = random_admissible(3, rng)
        rf = to_reduced_form(m)
        law = stationary_covariance(rf)
        oracle = truncated_lyapunov(rf.phi, rf.sigma_u, n_terms=200)
        np.testing.assert_allclose(law.sigma_x, oracle, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(law.gamma1, rf.phi @ law.sigma_x)

    def test_residual_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_admissible(4, rng)
            rf = to_reduced_form(m)
            law = stationary_covariance(rf)
            residual = np.linalg.norm(
                law.sigma_x - rf.phi @ law.sigma_x @ rf.phi.T - rf.sigma_u, "fro"
            )
            assert residual <= 1e-8 * (1.0 + np.linalg.norm(rf.sigma_u, "fro"))

    @pytest.mark.parametrize("p", [1, 3, 12, 40])
    def test_matches_kron_system(self, p):
        rng = np.random.default_rng(5 + p)
        rf = to_reduced_form(random_admissible(p, rng))
        law = stationary_covariance(rf)
        oracle = kron_lyapunov(rf.phi, rf.sigma_u)
        np.testing.assert_allclose(
            law.sigma_x, oracle, rtol=1e-10, atol=1e-12 * np.max(np.abs(oracle))
        )

    def test_large_p_matches_truncated_series(self):
        # spectral radius <= 0.9, so 400 terms of the series are exact to roundoff
        rng = np.random.default_rng(75)
        rf = to_reduced_form(random_admissible(75, rng))
        law = stationary_covariance(rf)
        oracle = truncated_lyapunov(rf.phi, rf.sigma_u, n_terms=400)
        np.testing.assert_allclose(
            law.sigma_x, oracle, rtol=1e-10, atol=1e-12 * np.max(np.abs(oracle))
        )

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            stationary_covariance(
                ReducedForm(phi=1.01 * np.eye(2), sigma_u=np.eye(2))
            )

    def test_is_stable(self):
        assert is_stable(ReducedForm(phi=0.9 * np.eye(2), sigma_u=np.eye(2)))
        assert not is_stable(ReducedForm(phi=1.1 * np.eye(2), sigma_u=np.eye(2)))


class TestSimulate:
    def test_iid_case_sample_covariance(self):
        m = StructuralModel(a0=np.zeros((2, 2)), a1=np.zeros((2, 2)), sigma=1.5)
        ts = simulate(m, 40_000, seed=1)
        sample = ts.values @ ts.values.T / ts.t_len
        np.testing.assert_allclose(sample, 2.25 * np.eye(2), atol=0.08)

    def test_near_zero_noise_limit(self):
        m = StructuralModel(a0=np.zeros((2, 2)), a1=0.5 * np.eye(2), sigma=1e-120)
        ts = simulate(m, 50, seed=2)
        assert np.max(np.abs(ts.values)) <= 1e-100

    def test_determinism(self):
        rng = np.random.default_rng(6)
        m = random_admissible(3, rng)
        a = simulate(m, 200, seed=42, burn_in=50)
        b = simulate(m, 200, seed=42, burn_in=50)
        assert a.values.tobytes() == b.values.tobytes()
        c = simulate(m, 200, seed=43, burn_in=50)
        assert a.values.tobytes() != c.values.tobytes()

    @pytest.mark.parametrize("p", [1, 5])
    @pytest.mark.parametrize("burn_in", [0, BURN_IN])
    def test_matches_step_by_step_reference_bitwise(self, p, burn_in):
        m = random_admissible(p, np.random.default_rng(30 + p))
        ts = simulate(m, 120, seed=9, burn_in=burn_in)
        assert ts.values.flags.c_contiguous
        assert ts.values.tobytes() == reference_simulate(m, 120, 9, burn_in).tobytes()
        if burn_in == BURN_IN:
            assert simulate(m, 120, seed=9).values.tobytes() == ts.values.tobytes()

    def test_rejects_short_series(self):
        m = StructuralModel(a0=np.zeros((2, 2)), a1=np.zeros((2, 2)), sigma=1.0)
        with pytest.raises(DimensionError):
            simulate(m, 1, seed=0)
        # a fractional or infinite length was once truncated or overflowed
        for t_len in (2.9, np.inf, 10**400, True):
            with pytest.raises(DimensionError, match="^t_len must be an integer >= 2"):
                simulate(m, t_len, seed=0)
        for burn_in in (-1, 1.5):
            with pytest.raises(DimensionError, match="^burn_in must be an integer >= 0"):
                simulate(m, 5, seed=0, burn_in=burn_in)
        assert simulate(m, np.int64(5), seed=0).values.tobytes() == \
            simulate(m, 5, seed=0).values.tobytes()
        # a bool seed once ran as seed 1, a negative one raised from numpy
        for seed in (1.5, -1, True, "1"):
            with pytest.raises(DimensionError, match="^seed must be an integer >= 0"):
                simulate(m, 10, seed=seed)
        assert simulate(m, 10, seed=np.int64(3)).values.tobytes() == \
            simulate(m, 10, seed=3).values.tobytes()

    def test_gamma1_regression_recovers_phi(self):
        # empirical lag-1 moment times inverse lag-0 moment approaches phi
        rng = np.random.default_rng(7)
        m = random_admissible(3, rng)
        rf = to_reduced_form(m)
        ts = simulate(m, 50_000, seed=8)
        x = ts.values
        g0 = x[:, :-1] @ x[:, :-1].T / (x.shape[1] - 1)
        g1 = x[:, 1:] @ x[:, :-1].T / (x.shape[1] - 1)
        phi_emp = g1 @ np.linalg.inv(g0)
        assert np.max(np.abs(phi_emp - rf.phi)) <= 0.05


# one valid instance of each config with a range check
_CONFIGS = (EnvarConfig(), GeneratorConfig(p=3, t_len=10), MetricsConfig())
_CONFIG_FIELDS = [(cfg, f) for cfg in _CONFIGS for f in fields(cfg)]
_FIELD_IDS = [f"{type(cfg).__name__}.{f.name}" for cfg, f in _CONFIG_FIELDS]


class TestEverySetting:
    """Every config field, including one added later, goes through the one
    type-and-range check."""

    @pytest.mark.parametrize(("cfg", "field"), _CONFIG_FIELDS, ids=_FIELD_IDS)
    def test_rejects_non_numbers(self, cfg, field):
        bad = [np.nan, np.inf, -np.inf, 10**400, True, "1"]
        if field.type in (int, "int"):
            bad.append(2.5)
        for value in bad:
            with pytest.raises(DimensionError, match=f"^{field.name} must be "):
                replace(cfg, **{field.name: value})

    @pytest.mark.parametrize(("cfg", "field"), _CONFIG_FIELDS, ids=_FIELD_IDS)
    def test_accepts_numpy_scalars(self, cfg, field):
        value = getattr(cfg, field.name)
        scalar = np.int64(value) if field.type in (int, "int") else np.float32(value)
        assert getattr(replace(cfg, **{field.name: scalar}), field.name) == scalar


class TestGramOrthogonalFactor:
    def test_identity_case(self):
        c = np.array([[2.0, 1.0], [0.0, 1.0]])
        q = gram_orthogonal_factor(c, c, 1.0)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-12)

    def test_rotation_times_two(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        rot = random_orthogonal(3, rng)
        d = 2.0 * rot @ c
        q = gram_orthogonal_factor(c, d, 4.0)
        np.testing.assert_allclose(q, rot, atol=1e-8)

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            q0 = random_orthogonal(4, rng)
            lam = 1.7**2
            d = 1.7 * q0 @ c
            q = gram_orthogonal_factor(c, d, lam)
            np.testing.assert_allclose(q, q0, atol=1e-8)
            assert np.linalg.norm(q.T @ q - np.eye(4), "fro") <= 1e-8
            np.testing.assert_allclose(np.sqrt(lam) * q @ c, d, atol=1e-8)

    def test_gram_mismatch_rejected(self):
        c = np.eye(2)
        d = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(FactorizationError, match="Gram mismatch"):
            gram_orthogonal_factor(c, d, 1.0)

    def test_rejects_bad_lam(self):
        c = np.array([[2.0, 1.0], [0.0, 1.0]])
        for lam in ("2", True, 0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DimensionError, match="^lam must be a finite number > 0"):
                gram_orthogonal_factor(c, c, lam)
        assert np.array_equal(gram_orthogonal_factor(c, c, np.float32(1.0)),
                              gram_orthogonal_factor(c, c, 1.0))


def _model() -> dict:
    return dict(a0=np.zeros((2, 2)), a1=0.5 * np.eye(2), sigma=1.0)


def _restart() -> dict:
    return dict(q=np.eye(2), c=1.0, objective=0.5, trace=np.array([0.5]), steps=1,
                best_step=1, stop_reason="budget", anneals=0, final_grad_norm=0.0)


# a small valid argument set for each value type with an array field
_VALUE_TYPES = {
    StructuralModel: _model,
    ReducedForm: lambda: dict(phi=0.5 * np.eye(2), sigma_u=np.eye(2)),
    StationaryLaw: lambda: dict(sigma_x=np.eye(2), gamma1=0.5 * np.eye(2)),
    TimeSeries: lambda: dict(values=np.ones((2, 3))),
    OrbitElement: lambda: dict(q=np.eye(2), c=1.0),
    AlignmentResult: lambda: dict(value=0.0, q_star=np.eye(2), c_star=1.0, alpha=2.0,
                                  unique_q=True),
    OlsFit: lambda: dict(phi_hat=0.5 * np.eye(2), sigma_u_hat=np.eye(2), n_eff=3,
                         residuals=np.ones((2, 3)), ridge_tau=0.0),
    CanonicalRepresentative: lambda: dict(b_can=np.eye(2), gamma_can=0.5 * np.eye(2),
                                          omega_u_hat=np.eye(2)),
    GroundTruthInstance: lambda: dict(model=StructuralModel(**_model()),
                                      per_node_sigmas=np.ones(2), series=None, episode_index=0),
    CentralityReport: lambda: dict(in_degree=np.array([1, 0]), out_degree=np.array([0, 1]),
                                   net_flow=np.array([-1, 1])),
    GdsResult: lambda: dict(ordering=(0, 1), a0_hat=np.zeros((2, 2)), a1_hat=np.eye(2),
                            alpha=0.05),
    RestartOutcome: _restart,
    EnvarSolution: lambda: dict(model=StructuralModel(**_model()), q_hat=np.eye(2), c_hat=1.0,
                                objective=0.5, objective_trace=np.array([0.5]),
                                diag_residual=0.0, restart_index=0,
                                restarts=(RestartOutcome(**_restart()),),
                                norms=NormConstants(1.0, 1.0, 1.0, ())),
}


def _array_fields(cls) -> list[str]:
    return [f.name for f in fields(cls) if "ndarray" in str(f.type)]


def test_every_value_type_freezes_its_arrays():
    """Every dataclass in the package with an array field, including one added
    later, holds read-only copies of its arrays. OrbitObjective holds the
    descent's working matrices, not a result."""
    found = set()
    for info in pkgutil.iter_modules(envarkit.__path__):
        module = importlib.import_module(f"envarkit.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__
            and _array_fields(obj) and obj.__name__ != "OrbitObjective"
        )
    assert found == set(_VALUE_TYPES)
    for cls, make in _VALUE_TYPES.items():
        kwargs = make()
        obj = cls(**kwargs)
        for name in _array_fields(cls):
            stored = getattr(obj, name)
            assert not stored.flags.writeable, f"{cls.__name__}.{name}"
            before = stored.copy()
            kwargs[name][...] = 7
            assert np.array_equal(getattr(obj, name), before), f"{cls.__name__}.{name}"
