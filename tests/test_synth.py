from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from envarkit import (
    GeneratorConfig,
    generate_instance,
    is_admissible,
    spectral_radius,
)
from envarkit.errors import DimensionError
from envarkit.formats import load_manifest

from oracles import reference_instance_series, reference_reduced_form

PAPER_GRID = Path(__file__).resolve().parents[1] / "manifests" / "paper_grid.json"


def _paper_manifest():
    return load_manifest(PAPER_GRID)


class TestGenerateInstance:
    def test_empty_graph(self):
        cfg = GeneratorConfig(p=3, t_len=50, edge_prob=0.0, seed=0)
        inst = generate_instance(cfg, episode=0)
        np.testing.assert_allclose(inst.model.a0, 0.0)
        np.testing.assert_allclose(inst.model.a1, 0.0)
        # i.i.d. Gaussian series
        assert inst.series.values.shape == (3, 50)

    def test_equal_variance_setting(self):
        cfg = GeneratorConfig(p=4, t_len=20, sigma_std=0.0, seed=1)
        inst = generate_instance(cfg, episode=2)
        np.testing.assert_array_equal(inst.per_node_sigmas, np.ones(4))

    def test_default_instance_invariants(self):
        cfg = GeneratorConfig(p=5, t_len=1000, edge_prob=0.3, seed=2)
        inst = generate_instance(cfg, episode=0)
        assert np.all(np.diag(inst.model.a0) == 0.0)
        assert spectral_radius(inst.model.a0) <= 0.85 + 1e-12
        assert spectral_radius(inst.phi) <= 0.85 + 1e-12
        assert is_admissible(inst.model)
        assert inst.series.t_len == 1000
        # one rescale of a1 brings rho(phi) under the cap, at every size and density
        for p in (2, 10, 50, 100):
            for edge_prob in (0.3, 1.0):
                cfg = GeneratorConfig(p=p, t_len=10, edge_prob=edge_prob, seed=2)
                inst = generate_instance(cfg, episode=0)
                assert spectral_radius(inst.model.a0) <= 0.85
                assert spectral_radius(inst.phi) <= 0.85

    def test_seed_episode_determinism(self):
        cfg = GeneratorConfig(p=4, t_len=100, seed=3)
        a = generate_instance(cfg, episode=1)
        b = generate_instance(cfg, episode=1)
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.model.a0.tobytes() == b.model.a0.tobytes()
        c = generate_instance(cfg, episode=2)
        assert a.series.values.tobytes() != c.series.values.tobytes()

    def test_fixed_graph_mode(self):
        cfg = GeneratorConfig(p=4, t_len=100, seed=4)
        a = generate_instance(cfg, episode=3, graph_episode=0)
        b = generate_instance(cfg, episode=0)
        np.testing.assert_array_equal(a.model.a0, b.model.a0)
        np.testing.assert_array_equal(a.model.a1, b.model.a1)
        assert a.series.values.tobytes() != b.series.values.tobytes()

    def test_rejects_bad_episode(self):
        cfg = GeneratorConfig(p=3, t_len=10, seed=4)
        # a fraction or a string was once run as another episode, and a
        # negative one wrote a truth file that could not be read back
        for episode in (1.5, "1", -1, True):
            with pytest.raises(DimensionError, match="^episode must be an integer >= 0"):
                generate_instance(cfg, episode)
        for graph_episode in (0.7, -1, True):
            with pytest.raises(DimensionError, match="^graph_episode must be an integer >= 0"):
                generate_instance(cfg, 1, graph_episode=graph_episode)
        a = generate_instance(cfg, np.int64(1), graph_episode=np.int64(0))
        b = generate_instance(cfg, 1, graph_episode=0)
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.episode_index == 1

    def test_graphs_coupled_across_sigma_std(self):
        # same (seed, episode) with different sigma_std keeps the same graph
        base = GeneratorConfig(p=5, t_len=50, sigma_std=0.0, seed=5)
        bumped = GeneratorConfig(p=5, t_len=50, sigma_std=0.1, seed=5)
        a = generate_instance(base, episode=0)
        b = generate_instance(bumped, episode=0)
        np.testing.assert_array_equal(a.model.a0, b.model.a0)
        np.testing.assert_array_equal(a.model.a1, b.model.a1)
        assert not np.array_equal(a.per_node_sigmas, b.per_node_sigmas)

    def test_edge_density(self):
        cfg = GeneratorConfig(p=25, t_len=10, edge_prob=0.3, seed=6)
        freq = []
        for episode in range(500):
            inst = generate_instance(cfg, episode)
            freq.append(np.count_nonzero(inst.model.a1) / 625.0)
        assert abs(np.mean(freq) - 0.3) <= 0.02

    def test_sigma_truncation_is_rare(self):
        cfg = GeneratorConfig(p=100, t_len=10, sigma_std=0.15, seed=7)
        floor = 0.05
        n_at_floor = 0
        for episode in range(100):
            inst = generate_instance(cfg, episode)
            n_at_floor += int(np.count_nonzero(inst.per_node_sigmas == floor))
        assert n_at_floor == 0  # ~6.3 sigma event per draw

    @pytest.mark.parametrize("p", [2, 5, 50])
    @pytest.mark.parametrize("sigma_std", [0.0, 0.075])
    def test_matches_per_node_reference_bitwise(self, p, sigma_std):
        cfg = GeneratorConfig(p=p, t_len=200, sigma_std=sigma_std, seed=12)
        inst = generate_instance(cfg, episode=1)
        b, a1 = np.eye(p) - inst.model.a0, inst.model.a1
        phi, sigma_u = reference_reduced_form(b, a1, inst.per_node_sigmas)
        assert np.array_equal(inst.phi, phi)
        assert np.array_equal(inst.sigma_u, sigma_u)
        sigmas, series = reference_instance_series(
            inst.model.a0, a1, cfg.seed, 1, cfg.sigma_nom, sigma_std, cfg.t_len
        )
        assert np.array_equal(inst.per_node_sigmas, sigmas)
        assert inst.series.values.tobytes() == series.tobytes()

    def test_invalid_config(self):
        with pytest.raises(DimensionError):
            GeneratorConfig(p=3, t_len=10, edge_prob=1.5)
        with pytest.raises(DimensionError):
            GeneratorConfig(p=3, t_len=10, spectral_cap=1.0)
        with pytest.raises(DimensionError):
            GeneratorConfig(p=3, t_len=10, weight_low=1.0, weight_high=-1.0)
        for name, value in (("sigma_std", np.inf), ("sigma_nom", np.inf),
                            ("weight_high", np.inf), ("weight_low", -np.inf)):
            with pytest.raises(DimensionError, match=f"^{name} must be a finite number"):
                GeneratorConfig(p=3, t_len=10, **{name: value})


class TestBenchmarkGrid:
    """The paper's evaluation grid, as the committed manifest the CLI runs."""

    @staticmethod
    def _grid():
        """The generator config of each (p, sigma_std) point, in run order."""
        return [cell.generator for cell in _paper_manifest().cells() if cell.episode == 0]

    def test_grid_size(self):
        grid = self._grid()
        assert len(grid) == 35

    def test_every_config_has_five_episodes(self):
        assert all(cfg.episodes == 5 for cfg in self._grid())

    def test_first_config(self):
        first = self._grid()[0]
        assert first.p == 5
        assert first.t_len == 1000
        assert first.sigma_std == 0.0

    def test_dimension_and_noise_axes(self):
        grid = self._grid()
        assert sorted({cfg.p for cfg in grid}) == [5, 10, 15, 25, 50, 75, 100]
        assert sorted({cfg.sigma_std for cfg in grid}) == [0.0, 0.025, 0.075, 0.1, 0.15]

    def test_every_method_runs_on_every_cell(self):
        manifest = _paper_manifest()
        assert manifest.methods() == ("envar", "eqvar-gds", "ols-only")
        assert len(manifest.cells()) == 175
