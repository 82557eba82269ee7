"""Versioned on-disk formats: series CSV, model/truth/score JSON, manifests.

JSON artifacts carry ``format_version`` and are written on one line with
sorted keys so a rerun with the same inputs produces byte-identical files.
Floats serialize via their shortest round-trip representation, so
write-then-read is exact. A non-finite float is refused; the one undefined
value written, a NaN p-value in ``score.json``, is written as null by
``score_report_to_dict``.

A series CSV is read in one pass, parsed by one ``np.loadtxt`` call and
checked as whole arrays; only a file that this parse refuses is read again,
line by line, to name its first faulty line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from ._seeding import sub_seed
from .envar_optimizer import EnvarConfig, default_config
from .errors import DataFormatError, DimensionError
from .model_core import StructuralModel, TimeSeries, _check_fields, _is_int, _is_real
from .synth import GeneratorConfig, GroundTruthInstance, generate_instance

FORMAT_VERSION = "envar-kit/1"


def _plain(obj: Any) -> Any:
    """The ``default`` hook of ``write_json``: numpy arrays and scalars as
    Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: Path | str, payload: dict) -> None:
    """Write ``payload`` as one line with sorted keys and a final newline.

    A non-finite float raises ``ValueError`` and writes nothing.
    """
    text = json.dumps(payload, sort_keys=True, allow_nan=False, default=_plain)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: Path | str) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object at top level")
    return payload


def _require_version(payload: dict, path: Path | str) -> None:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: format_version is {version!r}, expected {FORMAT_VERSION!r}"
        )


def _matrix(payload: dict, key: str, path: Path | str) -> np.ndarray:
    if key not in payload:
        raise DataFormatError(f"{path}: missing field {key!r}")
    value = payload[key]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # numpy reads "0.5" and true as numbers, so each entry's type is checked
    entries = [value]
    for _ in range(0 if arr is None else arr.ndim):
        entries = [v for row in entries for v in row]
    if arr is None or not {type(v) for v in entries} <= {int, float}:
        raise DataFormatError(f"{path}: field {key!r} is not numeric")
    return arr


def _require(ok: bool, where: str, what: str, value) -> None:
    if not ok:
        raise DataFormatError(f"{where} must be {what}, got {value!r}")


def _structural_model(payload: dict, path: Path | str) -> StructuralModel:
    """The ``a0``, ``a1`` and ``sigma`` of a model or truth file."""
    a0, a1 = _matrix(payload, "a0", path), _matrix(payload, "a1", path)
    if "sigma" not in payload:
        raise DataFormatError(f"{path}: missing field 'sigma'")
    sigma = payload["sigma"]
    _require(_is_real(sigma) and sigma > 0, f"{path}: 'sigma'", "a positive finite number", sigma)
    try:
        return StructuralModel(a0=a0, a1=a1, sigma=sigma)
    except DimensionError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- series CSV


def _series_header(p: int) -> list[str]:
    return ["t"] + [f"x{i + 1}" for i in range(p)]


def write_series_csv(path: Path | str, ts: TimeSeries) -> None:
    """Header ``t,x1,...,xp``; one row per time step, 1-based time index.

    Values are written as ``repr`` of a Python float, the shortest text that
    reads back to the same double.
    """
    values = np.asarray(ts.values, dtype=float)
    p = values.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_series_header(p)) + "\n")
        handle.writelines(
            ",".join((str(t), *map(repr, row))) + "\n"
            for t, row in enumerate(values.T.tolist(), start=1)
        )


def read_series_csv(path: Path | str) -> TimeSeries:
    """The series of a CSV with header ``t,x1,...,xp``, one time step per line.

    The file is parsed in one pass: one ``np.loadtxt`` call reads the body, and
    whole-array checks confirm one row of p + 1 numbers per line, a strictly
    increasing ``t``, finite values and at least 2 rows. Only when that parse
    fails does a line-by-line ``csv`` scan run: it raises ``DataFormatError``
    naming the first faulty line, or returns its own parse of a file that
    ``csv`` reads and ``loadtxt`` does not, such as one with quoted fields.
    Both parsers round correctly, so an accepted file gives the same values
    either way.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    values = _parse_series(path)
    if values is None:
        values = _scan_series(path)
    return TimeSeries(values=values, centered=False)


def _parse_series(path: Path) -> np.ndarray | None:
    """The ``(p, T)`` values of a well-formed series CSV, or None."""
    try:
        # universal newlines read \r\n and \r as \n, so the text splits into
        # lines where csv splits it
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None
    # loadtxt strips \x1c-\x1f around a number, and float() refuses them
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    # a final line end leaves an empty string after it; an unterminated last
    # line is a line, as csv reads it
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) < 3:
        return None
    header, body = lines[0], lines[1:]
    p = header.count(",")
    # loadtxt skips a blank line, which the row count then catches, but warns
    # when no line is left, so a blank first line goes to the scan
    if p < 1 or header != ",".join(_series_header(p)) or not body[0]:
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    t = table[:, 0]
    if table.shape != (len(body), p + 1) or not np.isfinite(table).all():
        return None
    if not (t[1:] > t[:-1]).all():
        return None
    return table[:, 1:].T


def _scan_series(path: Path) -> np.ndarray:
    """The ``(p, T)`` values of a series CSV, read one line at a time by
    ``csv``; a ``DataFormatError`` names the first faulty line."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            if not header or header[0] != "t" or len(header) < 2:
                raise DataFormatError(f"{path}: header must be 't,x1,...,xp', got {header}")
            expected = _series_header(len(header) - 1)
            if header != expected:
                raise DataFormatError(f"{path}: header must be {expected}, got {header}")
            p = len(header) - 1
            columns: list[list[float]] = []
            prev_t = None
            for lineno, row in enumerate(reader, start=2):
                if len(row) != p + 1:
                    raise DataFormatError(
                        f"{path}: line {lineno}: expected {p + 1} fields, got {len(row)}"
                    )
                try:
                    t_val = float(row[0])
                    vals = list(map(float, row[1:]))
                except ValueError:
                    raise DataFormatError(f"{path}: line {lineno}: non-numeric value") from None
                if prev_t is not None and t_val <= prev_t:
                    raise DataFormatError(f"{path}: line {lineno}: time index must increase")
                if not (math.isfinite(t_val) and all(map(math.isfinite, vals))):
                    raise DataFormatError(f"{path}: line {lineno}: non-finite value")
                prev_t = t_val
                columns.append(vals)
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text") from None
    if len(columns) < 2:
        raise DataFormatError(f"{path}: need at least 2 time steps, got {len(columns)}")
    return np.asarray(columns, dtype=float).T


# -------------------------------------------------------------- model files


def write_model_json(path: Path | str, model: StructuralModel, method: str = "") -> None:
    write_json(path, {"format_version": FORMAT_VERSION, **asdict(model), "method": method})


def read_model_json(path: Path | str) -> tuple[StructuralModel, dict]:
    payload = read_json(path)
    _require_version(payload, path)
    return _structural_model(payload, path), payload


def write_truth_json(path: Path | str, inst: GroundTruthInstance, seed: int) -> None:
    write_json(path, {
        "format_version": FORMAT_VERSION,
        **asdict(inst.model),
        "per_node_sigmas": inst.per_node_sigmas,
        "seed": seed,
        "episode": inst.episode_index,
    })


def read_truth_json(path: Path | str) -> GroundTruthInstance:
    payload = read_json(path)
    _require_version(payload, path)
    model = _structural_model(payload, path)
    sigmas = _matrix(payload, "per_node_sigmas", path)
    _require(
        sigmas.shape == (model.p,) and bool(np.all((sigmas > 0) & np.isfinite(sigmas))),
        f"{path}: 'per_node_sigmas'", f"{model.p} positive finite numbers",
        payload["per_node_sigmas"],
    )
    episode = payload.get("episode", 0)
    _require(_is_int(episode) and episode >= 0, f"{path}: 'episode'",
             "a non-negative integer", episode)
    return GroundTruthInstance(
        model=model, per_node_sigmas=sigmas, series=None, episode_index=episode
    )


# ----------------------------------------------------------------- manifest


# the params each baseline reads from its manifest entry
_BASELINE_PARAMS = {"eqvar-gds": {"alpha"}, "ols-only": set()}
KNOWN_METHODS = ("envar", *_BASELINE_PARAMS)


@dataclass(frozen=True)
class MetricsConfig:
    """Scoring and baseline settings: a manifest's ``metrics`` section, and the
    ``fit`` and ``evaluate`` flags of the same names."""

    eta: float = 1.0
    binarize_mass: float = 0.85
    alpha: float = 0.05
    ridge_tau: float = 0.0

    def __post_init__(self):
        _check_fields(self, {
            "eta": (lambda v: v >= 0, ">= 0"),
            "binarize_mass": (lambda v: 0 < v <= 1, "in (0, 1]"),
            "alpha": (lambda v: 0 < v < 1, "in (0, 1)"),
            "ridge_tau": (lambda v: v >= 0, ">= 0"),
        })


@dataclass(frozen=True)
class Cell:
    """One ``(p, sigma_std, episode)`` point of a manifest's grid."""

    generator: GeneratorConfig  # at the cell's p and sigma_std
    episode: int
    graph_episode: int | None
    envar: EnvarConfig
    name: str  # of the cell's run directory

    def instance(self) -> GroundTruthInstance:
        return generate_instance(self.generator, self.episode, graph_episode=self.graph_episode)


@dataclass(frozen=True)
class ExperimentManifest:
    """Everything one benchmark needs, in a single serializable record.

    ``grid_p`` and ``grid_sigma_std`` expand the base generator config into a
    benchmark grid; both default to the base config's single values.
    ``fresh_graph`` draws a new graph each episode (the default); when False
    the episode-0 graph is reused with fresh noise.
    """

    generator: GeneratorConfig
    envar_overrides: dict
    # each method's settings, in run order: ENVAR first, with the manifest's
    # ``metrics``; a baseline with those and its manifest entry's params applied
    method_metrics: dict[str, MetricsConfig]
    output_dir: str | None  # None where the manifest leaves it to --output
    grid_p: tuple[int, ...]
    grid_sigma_std: tuple[float, ...]
    fresh_graph: bool = True

    def methods(self) -> tuple[str, ...]:
        return tuple(self.method_metrics)

    def cells(self) -> tuple[Cell, ...]:
        """The grid, p-major, then sigma_std, then episode. A cell's ENVAR
        config is ``default_config`` at its p with the overrides applied,
        seeded from the generator seed and the cell's coordinates; its run
        directory is ``p{p}_s{sigma_std:g}_e{episode}``."""
        cells = []
        for p in self.grid_p:
            for sigma_std in self.grid_sigma_std:
                generator = replace(self.generator, p=p, sigma_std=sigma_std)
                for episode in range(generator.episodes):
                    seed = sub_seed(generator.seed, p, int(round(sigma_std * 1e9)), episode)
                    cells.append(Cell(
                        generator=generator,
                        episode=episode,
                        graph_episode=None if self.fresh_graph else 0,
                        envar=replace(default_config(p, seed=seed), **self.envar_overrides),
                        name=f"p{p}_s{format(sigma_std, 'g')}_e{episode}",
                    ))
        return tuple(cells)


_MANIFEST_KEYS = {
    "format_version", "generator", "grid", "envar", "baselines", "metrics",
    "output_dir", "fresh_graph",
}


def _known_keys(raw: dict, known: set, where: str) -> None:
    unknown = set(raw) - known
    if unknown:
        raise DataFormatError(f"{where}: unknown fields {sorted(unknown)}")


def _section(raw, where: str, cls, names=None, base=None):
    """Build ``cls`` from one manifest object, or ``base`` with the object's
    fields replaced if given. Its keys must be fields of ``cls`` (of ``names``
    if given), with every field that has no default. ``cls`` checks each
    value's type and range, with a message that starts with the field's name,
    so a bad value reads ``{where}.eta must be ...``."""
    if not isinstance(raw, dict):
        raise DataFormatError(f"{where} must be an object, got {raw!r}")
    known = {f.name: f for f in fields(cls) if names is None or f.name in names}
    _known_keys(raw, set(known), where)
    missing = [name for name, f in known.items() if name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise DataFormatError(f"{where} needs {missing}")
    try:
        return cls(**raw) if base is None else replace(base, **raw)
    except DimensionError as exc:
        raise DataFormatError(f"{where}.{exc}") from None


def manifest_from_dict(payload: dict, source: str = "<manifest>") -> ExperimentManifest:
    _require_version(payload, source)
    _known_keys(payload, _MANIFEST_KEYS, source)
    generator = _section(payload.get("generator"), f"{source}: generator", GeneratorConfig)
    envar_raw = payload.get("envar", {})
    _section(envar_raw, f"{source}: envar", EnvarConfig)
    metrics = _section(payload.get("metrics", {}), f"{source}: metrics", MetricsConfig)

    baselines = payload.get("baselines", [])
    _require(isinstance(baselines, list), f"{source}: baselines", "a list", baselines)
    method_metrics = {"envar": metrics}
    for i, spec in enumerate(baselines):
        where = f"{source}: baselines[{i}]"
        if not isinstance(spec, dict) or "name" not in spec:
            raise DataFormatError(f"{where} needs a 'name'")
        _known_keys(spec, {"name", "params"}, where)
        name = str(spec["name"])
        if name in method_metrics:
            raise DataFormatError(
                f"{where}: {name!r} already runs; list each baseline once, and not "
                "'envar', which always runs"
            )
        if name not in _BASELINE_PARAMS:
            raise DataFormatError(
                f"{where}: unknown method {name!r}; known: {sorted(_BASELINE_PARAMS)}"
            )
        method_metrics[name] = _section(
            spec.get("params", {}), f"{where}.params", MetricsConfig,
            _BASELINE_PARAMS[name], base=metrics,
        )

    grid_raw = payload.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise DataFormatError(f"{source}: 'grid' must be an object")
    _known_keys(grid_raw, {"p", "sigma_std"}, f"{source}: grid")
    grid_p = grid_raw.get("p", [generator.p])
    grid_sigma_std = grid_raw.get("sigma_std", [generator.sigma_std])
    _require(isinstance(grid_p, (list, tuple)) and all(map(_is_int, grid_p)),
             f"{source}: grid.p", "a list of integers", grid_p)
    _require(isinstance(grid_sigma_std, (list, tuple)) and all(map(_is_real, grid_sigma_std)),
             f"{source}: grid.sigma_std", "a list of finite numbers", grid_sigma_std)
    if not grid_p or not grid_sigma_std:
        raise DataFormatError(f"{source}: grid lists must be non-empty")
    # a repeated value would run its cells twice: into the same run directory,
    # or for 0.0 and -0.0 into two names for one instance
    for key, values in (("p", grid_p), ("sigma_std", grid_sigma_std)):
        if len(set(values)) < len(values):
            raise DataFormatError(f"{source}: grid.{key} lists a value twice: {values!r}")

    # optional: the commands take --output in its place
    output_dir = payload.get("output_dir")
    if "output_dir" in payload:
        _require(isinstance(output_dir, str) and output_dir != "", f"{source}: output_dir",
                 "a non-empty string", output_dir)

    # earlier files wrote this flag as 0/1
    fresh_graph = payload.get("fresh_graph", True)
    if not isinstance(fresh_graph, int) or fresh_graph not in (0, 1):
        raise DataFormatError(
            f"{source}: 'fresh_graph' must be true or false, got {fresh_graph!r}"
        )

    manifest = ExperimentManifest(
        generator=generator,
        envar_overrides=dict(envar_raw),
        method_metrics=method_metrics,
        output_dir=output_dir,
        grid_p=tuple(grid_p),
        grid_sigma_std=tuple(map(float, grid_sigma_std)),
        fresh_graph=bool(fresh_graph),
    )
    try:
        cells = manifest.cells()
    except DimensionError as exc:
        raise DataFormatError(f"{source}: grid.{exc}") from None
    # a run directory names sigma_std to six significant digits, so two
    # values that agree that far would write into one directory
    named = {}
    for cell in cells:
        sigma_std = named.setdefault(cell.name, cell.generator.sigma_std)
        if sigma_std != cell.generator.sigma_std:
            raise DataFormatError(
                f"{source}: grid.sigma_std values {sigma_std!r} and "
                f"{cell.generator.sigma_std!r} share the run directory {cell.name!r}"
            )
    return manifest


def load_manifest(path: Path | str) -> ExperimentManifest:
    return manifest_from_dict(read_json(path), source=str(path))


# -------------------------------------------------------------- score files


def score_report_to_dict(report, centrality, binarize_mass: float) -> dict:
    """The ``score.json`` payload: the fields of ``report``, its ``p_value_*``
    fields gathered into ``p_values``, and those of ``centrality`` under
    ``centralities``."""
    payload = asdict(report)
    p_values = {key: payload.pop(key) for key in list(payload) if key.startswith("p_value_")}
    return {
        "format_version": FORMAT_VERSION,
        **payload,
        # a p-value is NaN where the correlation is undefined; JSON has null
        "p_values": {key.removeprefix("p_value_"): None if math.isnan(value) else value
                     for key, value in p_values.items()},
        "centralities": asdict(centrality),
        "binarize_mass": binarize_mass,
    }
