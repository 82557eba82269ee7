"""Synthetic ground-truth generation for the benchmark protocol.

Supports of the contemporaneous and lagged matrices are independent
Erdos-Renyi draws, weights are uniform, and both the contemporaneous matrix and
the induced transition matrix are rescaled under a spectral-radius cap. The
heteroscedasticity knob draws per-node noise standard deviations around a
nominal value; at ``sigma_std = 0`` the equal-variance setting is recovered
exactly. Instances are fully determined by ``(seed, episode)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import sub_rng
from .errors import GenerationError
from .model_core import (
    StructuralModel,
    TimeSeries,
    _check_fields,
    _freeze_fields,
    _reduced_form,
    _sample,
    _setting,
    spectral_radius,
)

BURN_IN = 100
_MAX_SUPPORT_RETRIES = 20
# keep a hair inside the cap so rescaling never lands exactly on the boundary
_RESCALE_SLACK = 0.999
_SIGMA_FLOOR_FRACTION = 0.05
_INVERTIBILITY_RTOL = 1e-10


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator hyperparameters for one benchmark cell."""

    p: int
    t_len: int
    edge_prob: float = 0.3
    weight_low: float = -1.0
    weight_high: float = 1.0
    spectral_cap: float = 0.85
    sigma_nom: float = 1.0
    sigma_std: float = 0.0
    seed: int = 0
    episodes: int = 5

    def __post_init__(self):
        _check_fields(self, {
            "p": (lambda v: v >= 1, ">= 1"),
            "t_len": (lambda v: v >= 2, ">= 2"),
            "edge_prob": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            # checked after weight_low, which is then a number
            "weight_high": (lambda v: v > self.weight_low, "> weight_low"),
            "spectral_cap": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            "sigma_nom": (lambda v: v > 0.0, "> 0"),
            "sigma_std": (lambda v: v >= 0.0, ">= 0"),
            "episodes": (lambda v: v >= 1, ">= 1"),
        })


@dataclass(frozen=True)
class GroundTruthInstance:
    """A generated model, its per-node noise scales, and one simulated episode.

    ``series`` is None for instances rebuilt from a persisted truth record in
    score-only contexts; the generator always fills it.
    """

    model: StructuralModel
    per_node_sigmas: np.ndarray
    series: TimeSeries | None
    episode_index: int

    def __post_init__(self):
        _freeze_fields(self)

    @property
    def phi(self) -> np.ndarray:
        return _reduced_form(self.model.b, self.model.a1, self.per_node_sigmas**2)[0]

    @property
    def sigma_u(self) -> np.ndarray:
        """Residual covariance of the generating law (heteroscedastic-aware)."""
        return _reduced_form(self.model.b, self.model.a1, self.per_node_sigmas**2)[1]


def _draw_structure(cfg: GeneratorConfig, rng: np.random.Generator):
    """One support + weight draw, rescaled under the spectral cap.

    Returns ``(a0, a1)`` or None when ``I - a0`` is numerically singular.
    """
    p = cfg.p
    support0 = rng.random((p, p)) < cfg.edge_prob
    np.fill_diagonal(support0, False)
    support1 = rng.random((p, p)) < cfg.edge_prob
    weights0 = rng.uniform(cfg.weight_low, cfg.weight_high, size=(p, p))
    weights1 = rng.uniform(cfg.weight_low, cfg.weight_high, size=(p, p))
    a0 = np.where(support0, weights0, 0.0)
    a1 = np.where(support1, weights1, 0.0)

    rho0 = spectral_radius(a0)
    if rho0 > cfg.spectral_cap:
        a0 = a0 * (cfg.spectral_cap / rho0 * _RESCALE_SLACK)
    b = np.eye(p) - a0
    svals = np.linalg.svd(b, compute_uv=False)
    if svals[-1] <= _INVERTIBILITY_RTOL * svals[0]:
        return None
    # phi = B^{-1} a1 is linear in a1, so one rescale brings rho(phi) under the cap
    rho = spectral_radius(np.linalg.solve(b, a1))
    if rho > cfg.spectral_cap:
        a1 = a1 * (cfg.spectral_cap / rho * _RESCALE_SLACK)
    return a0, a1


def generate_instance(
    cfg: GeneratorConfig, episode: int, graph_episode: int | None = None
) -> GroundTruthInstance:
    """Generate the ground truth and series for one episode.

    ``graph_episode`` pins the structure draw to another episode's stream so a
    fixed graph can be replayed with fresh noise; by default each episode draws
    a fresh graph. Output is deterministic in ``(seed, episode)``.
    """
    episode = _setting("episode", episode, lambda v: v >= 0, ">= 0", integer=True)
    g_episode = episode if graph_episode is None else _setting(
        "graph_episode", graph_episode, lambda v: v >= 0, ">= 0", integer=True
    )
    for attempt in range(_MAX_SUPPORT_RETRIES):
        rng_graph = sub_rng(cfg.seed, 0x677261, g_episode, attempt)
        drawn = _draw_structure(cfg, rng_graph)
        if drawn is None:
            continue
        a0, a1 = drawn

        rng_noise = sub_rng(cfg.seed, 0x6E6F69, episode, attempt)
        z = rng_noise.standard_normal(cfg.p)
        sigmas = np.maximum(
            cfg.sigma_nom + cfg.sigma_std * z,
            _SIGMA_FLOOR_FRACTION * cfg.sigma_nom,
        )

        model = StructuralModel(a0=a0, a1=a1, sigma=cfg.sigma_nom)
        return GroundTruthInstance(
            model=model,
            per_node_sigmas=sigmas,
            series=_sample(model.b, model.a1, sigmas, cfg.t_len, BURN_IN, rng_noise),
            episode_index=episode,
        )
    raise GenerationError(
        f"could not draw an invertible structure in {_MAX_SUPPORT_RETRIES} attempts "
        f"(p={cfg.p}, edge_prob={cfg.edge_prob})"
    )
