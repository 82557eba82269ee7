from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import stdtr

from envarkit import (
    OrbitElement,
    StructuralModel,
    align_obs,
    align_sf,
    binarize_cumulative,
    centralities,
    is_admissible,
    orbit_transform,
    score,
)
from envarkit.errors import DimensionError
from envarkit.eval_metrics import gated_pearson
from envarkit.synth import GeneratorConfig, GroundTruthInstance, generate_instance

from conftest import random_admissible, random_orthogonal
from test_equivalence import _alignment_pairs


def make_truth(seed: int = 0, p: int = 4, sigma_std: float = 0.0) -> GroundTruthInstance:
    cfg = GeneratorConfig(p=p, t_len=64, sigma_std=sigma_std, seed=seed)
    return generate_instance(cfg, episode=0)


class TestScore:
    def test_perfect_estimate(self):
        truth = make_truth(seed=1)
        report = score(truth.model, truth, method_name="self")
        assert report.sf_oad == pytest.approx(0.0, abs=1e-10)
        assert report.obs_oad == pytest.approx(0.0, abs=1e-10)
        assert report.pearson_phi == pytest.approx(1.0)
        assert report.pearson_a1 == pytest.approx(1.0)
        assert report.method_name == "self"
        assert report.p == 4
        assert report.episode == 0

    def test_orbit_member_scores_zero_sf(self):
        truth = make_truth(seed=2)
        rng = np.random.default_rng(3)
        member = orbit_transform(
            truth.model, OrbitElement(q=random_orthogonal(4, rng), c=1.7)
        )
        report = score(member, truth)
        assert report.sf_oad <= 1e-8
        assert report.pearson_phi == pytest.approx(1.0)

    def test_random_model_phi_gated_or_small(self):
        truth = make_truth(seed=4, p=5)
        rng = np.random.default_rng(5)
        independent = random_admissible(5, rng)
        report = score(independent, truth)
        assert report.sf_oad > 1e-4
        if report.pearson_phi is not None:
            assert abs(report.pearson_phi) < 0.9

    def test_dimension_mismatch(self):
        truth = make_truth(seed=6, p=3)
        rng = np.random.default_rng(7)
        with pytest.raises(DimensionError):
            score(random_admissible(4, rng), truth)

    def test_rejects_nan_eta(self):
        truth = make_truth(seed=6, p=3)
        with pytest.raises(DimensionError, match="^eta must be"):
            score(truth.model, truth, eta=np.nan)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("m_ref, m_test", [
        pytest.param(*param.values, id=param.id) for param in _alignment_pairs()
        if all(is_admissible(m) for m in param.values)
    ])
    def test_discrepancies_are_the_alignments_bitwise(self, m_ref, m_test, eta):
        truth = GroundTruthInstance(
            model=m_ref, per_node_sigmas=np.full(m_ref.p, m_ref.sigma), series=None,
            episode_index=0,
        )
        report = score(m_test, truth, eta=eta)
        sf, obs = align_sf(m_ref, m_test), align_obs(m_ref, m_test, eta=eta)
        assert np.float64(report.sf_oad).tobytes() == np.float64(sf.value).tobytes()
        assert np.float64(report.obs_oad).tobytes() == np.float64(obs.value).tobytes()

    def test_heteroscedastic_truth_uses_generating_law(self):
        truth = make_truth(seed=8, p=3, sigma_std=0.2)
        report = score(truth.model, truth)
        # the model induces sigma^2 B^-1 B^-T, not the per-node law, so the
        # sigma_u correlation compares against the actual generating covariance
        assert report.sf_oad == pytest.approx(0.0, abs=1e-10)
        assert report.p_value_sigma_u < 0.05


class TestGatedPearson:
    def test_gate_nulls_insignificant(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        gate = gated_pearson(x, y)
        assert (gate.r is None) == (not gate.p_value < 0.05)

    def test_perfect_correlation(self):
        x = np.arange(10.0)
        gate = gated_pearson(x, 2.0 * x + 1.0)
        assert gate.r == pytest.approx(1.0)
        assert gate.p_value < 1e-30

    def test_degenerate_inputs(self):
        gate = gated_pearson(np.ones(5), np.arange(5.0))
        assert gate.r is None
        assert np.isnan(gate.p_value)

    def test_matches_t_distribution(self):
        from scipy import stats

        rng = np.random.default_rng(10)
        for m in (3, 4, 10, 30, 400):
            x = rng.standard_normal(m)
            y = 0.5 * x + rng.standard_normal(m)
            gate = gated_pearson(x, y)
            r = float(np.corrcoef(x, y)[0, 1])
            t = r * np.sqrt((m - 2) / (1 - r * r))
            assert gate.p_value == float(2 * stats.t.sf(abs(t), m - 2))

    def test_bitwise_the_corrcoef_gate(self):
        """The gate is the one built on ``np.std`` and ``np.corrcoef``, bit for
        bit: the same degenerate verdict, r and p-value. The inputs include
        constant sides, a constant 0.1 whose mean has roundoff, mostly-zero
        sides and scales from 1e-8 to 1e8."""
        rng = np.random.default_rng(12)
        cases = [(np.ones(5), np.arange(5.0)), (np.arange(4.0), np.zeros(4)),
                 (np.zeros(3), np.zeros(3)), (np.full(3, 0.1), np.arange(3.0)),
                 (np.full(7, 1e-8), rng.standard_normal(7))]
        for m in (3, 4, 25, 300):
            for scale in (1e-8, 1.0, 1e8):
                x = rng.standard_normal(m) * scale
                y = 0.3 * x + rng.standard_normal(m) * scale
                cases += [(x, y), (x, np.where(rng.random(m) < 0.7, 0.0, y))]
        for x, y in cases:
            gate = gated_pearson(x, y)
            if np.std(x) == 0.0 or np.std(y) == 0.0:
                assert gate.r is None and np.isnan(gate.p_value)
                continue
            r = max(-1.0, min(1.0, float(np.corrcoef(x, y)[0, 1])))
            df = len(x) - 2
            p_value = 0.0 if abs(r) >= 1.0 else float(
                2.0 * stdtr(df, -abs(r * np.sqrt(df / (1.0 - r * r)))))
            # repr tells -0.0 from 0.0 and prints every bit of a float
            assert repr((gate.r, gate.p_value)) == repr((r if p_value < 0.05 else None, p_value))


class TestStudentTail:
    """``stdtr(df, -x)`` is the whole of ``scipy.stats.t.sf(x, df)``."""

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 30, 997, 10**6])
    def test_stdtr_equals_stats_t_sf_bitwise(self, df):
        from scipy import stats

        edges = np.array([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300,
                          np.inf, -np.inf, np.nan])
        x = np.concatenate([edges, np.linspace(-50.0, 50.0, 1001),
                            np.geomspace(1e-12, 1e12, 995)])
        assert stdtr(df, -x).tobytes() == stats.t.sf(x, df).tobytes()
        two_sided = 2.0 * stdtr(df, -np.abs(x))
        assert two_sided.tobytes() == (2.0 * stats.t.sf(np.abs(x), df)).tobytes()


class TestBinarize:
    def test_full_mass_keeps_support(self):
        rng = np.random.default_rng(11)
        m = random_admissible(4, rng)
        adj = binarize_cumulative(m, mass=1.0)
        a0 = np.array(m.a0)
        np.fill_diagonal(a0, 0.0)
        support = ((a0 != 0) | (np.asarray(m.a1) != 0)).astype(int)
        np.testing.assert_array_equal(adj, support)

    def test_dominant_entry_survives(self):
        a1 = np.diag([3.0, 1.0, 1.0, 1.0])
        m = StructuralModel(a0=np.zeros((4, 4)), a1=a1, sigma=1.0)
        adj = binarize_cumulative(m, mass=0.5)
        expected = np.zeros((4, 4), dtype=int)
        expected[0, 0] = 1
        np.testing.assert_array_equal(adj, expected)

    def test_equal_values_are_kept_in_row_col_order(self):
        a1 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
        m = StructuralModel(a0=np.zeros((3, 3)), a1=a1, sigma=1.0)
        # the prefix reaching each mass: (2, 2), then (0, 1), (1, 0) and (2, 1)
        for mass, kept in ((0.3, [(2, 2)]), (0.5, [(2, 2), (0, 1)]),
                           (0.7, [(2, 2), (0, 1), (1, 0)]),
                           (0.9, [(2, 2), (0, 1), (1, 0), (2, 1)])):
            expected = np.zeros((3, 3), dtype=int)
            expected[tuple(zip(*kept))] = 1
            np.testing.assert_array_equal(binarize_cumulative(m, mass), expected)

    def test_all_zero(self):
        m = StructuralModel(np.zeros((3, 3)), np.zeros((3, 3)), 1.0)
        np.testing.assert_array_equal(binarize_cumulative(m, 0.85), np.zeros((3, 3)))

    def test_rejects_bad_mass(self):
        m = StructuralModel(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        with pytest.raises(DimensionError):
            binarize_cumulative(m, 0.0)
        with pytest.raises(DimensionError):
            binarize_cumulative(m, 1.1)
        for mass in (np.nan, np.inf, True, "1"):
            with pytest.raises(DimensionError, match="^mass must be a finite number in"):
                binarize_cumulative(m, mass)

    def test_contemporaneous_diagonal_excluded(self):
        a0 = np.array([[0.9, 0.1], [0.0, 0.9]])  # diagonal entries dominate
        m = StructuralModel(a0=a0, a1=np.zeros((2, 2)), sigma=1.0)
        adj = binarize_cumulative(m, mass=1.0)
        assert adj[0, 0] == 0 and adj[1, 1] == 0
        assert adj[0, 1] == 1

    @settings(max_examples=50, deadline=None)
    @given(
        mat=arrays(np.float64, (3, 3), elements=st.floats(-5, 5, allow_nan=False)),
        masses=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    )
    def test_monotone_in_mass(self, mat, masses):
        m = StructuralModel(a0=np.zeros((3, 3)), a1=mat, sigma=1.0)
        lo, hi = sorted(masses)
        adj_lo = binarize_cumulative(m, lo)
        adj_hi = binarize_cumulative(m, hi)
        assert np.all(adj_lo <= adj_hi)


class TestCentralities:
    def test_single_edge_direction(self):
        adj = np.zeros((3, 3), dtype=int)
        adj[2, 1] = 1  # column 1 -> row 2, i.e. node 1 -> node 2
        report = centralities(adj)
        np.testing.assert_array_equal(report.in_degree, [0, 0, 1])
        np.testing.assert_array_equal(report.out_degree, [0, 1, 0])
        np.testing.assert_array_equal(report.net_flow, [0, 1, -1])

    def test_empty_graph(self):
        report = centralities(np.zeros((4, 4), dtype=int))
        assert np.all(report.in_degree == 0)
        assert np.all(report.out_degree == 0)

    def test_complete_digraph(self):
        adj = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        report = centralities(adj)
        np.testing.assert_array_equal(report.in_degree, [2, 2, 2])
        np.testing.assert_array_equal(report.out_degree, [2, 2, 2])
        np.testing.assert_array_equal(report.net_flow, [0, 0, 0])

    def test_rejects_non_binary(self):
        with pytest.raises(DimensionError):
            centralities(np.full((2, 2), 0.5))

    @settings(max_examples=50, deadline=None)
    @given(adj=arrays(np.int8, (4, 4), elements=st.integers(0, 1)))
    def test_net_flow_conserved(self, adj):
        report = centralities(adj)
        assert int(report.net_flow.sum()) == 0
        np.testing.assert_array_equal(
            report.net_flow, report.out_degree - report.in_degree
        )
