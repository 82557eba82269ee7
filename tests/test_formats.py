"""Series CSV and JSON artifacts: rejections, the fresh_graph flag, and
byte-for-byte agreement with the one-value-at-a-time reference code."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envarkit import TimeSeries
from envarkit.errors import DataFormatError
from envarkit.formats import (
    load_manifest,
    manifest_from_dict,
    read_series_csv,
    write_json,
    write_series_csv,
)

from oracles import reference_jsonify, reference_read_series_csv, reference_write_series_csv


def _raised(reader, path: Path) -> str:
    with pytest.raises(DataFormatError) as info:
        reader(path)
    return str(info.value)


class TestReadSeriesRejections:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1,x2\n1,0.5,0.5\n2,nan,0.5\n", "line 3: non-finite value"),
            ("t,x1,x2\n1,0.5,0.5\n2,0.5,inf\n", "line 3: non-finite value"),
            ("t,x1,x2\n1,-inf,0.5\n2,0.5,0.5\n", "line 2: non-finite value"),
            ("t,x1,x2\n1,0.5,0.5\n2,0.5,abc\n", "line 3: non-numeric value"),
            ("t,x1\n1,0.5\nx,0.5\n", "line 3: non-numeric value"),
            ("", "empty file"),
            ("t,x1,x2\n1,0.5,0.5\n", "need at least 2 time steps, got 1"),
            # two faults: the earlier line is reported, whatever its kind
            ("t,x1\n1,0.5\n2,nan\n3,abc\n", "line 3: non-finite value"),
            ("t,x1\n1,0.5\n2,abc\n3,nan\n", "line 3: non-numeric value"),
            ("t,x1\n1,0.5\n2,inf\n2,0.5\n", "line 3: non-finite value"),
            ("t,x1\n1,0.5\n2,0.5,0.5\n3,nan\n", "line 3: expected 2 fields, got 3"),
            # two faults on one line: field count, then parsing, then time, then finiteness
            ("t,x1\n2,0.5\n1,nan\n", "line 3: time index must increase"),
            ("t,x1\n2,0.5\n1,abc\n", "line 3: non-numeric value"),
        ],
    )
    def test_message_names_the_first_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        got = _raised(read_series_csv, path)
        assert got == f"{path}: {message}"
        assert got == _raised(reference_read_series_csv, path)

    # the reference reader accepts a non-finite time index, so these are not
    # compared against it
    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1\nnan,0.5\n2,0.5\n", "line 2: non-finite value"),
            ("t,x1\n1,0.5\nnan,0.5\n", "line 3: non-finite value"),
            ("t,x1\n1,0.5\n2,0.5\ninf,0.5\n", "line 4: non-finite value"),
            ("t,x1\ninf,0.5\n2,0.5\n", "line 2: non-finite value"),
            # time is checked before finiteness, so -inf after 1 does not increase
            ("t,x1\n1,0.5\n-inf,0.5\n", "line 3: time index must increase"),
        ],
    )
    def test_non_finite_time_index(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert _raised(read_series_csv, path) == f"{path}: {message}"

    def test_not_utf8_names_the_file(self, tmp_path, capsys):
        from envarkit.cli import main

        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,x1\n1,0.5\n2,\xff\n")
        assert _raised(read_series_csv, path) == f"{path}: not UTF-8 text"
        assert main(["fit", "--series", str(path), "--method", "ols-only",
                     "--output", str(tmp_path)]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
_EDGES = np.array([[-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]])


class TestSeriesMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 50)),
            elements=st.one_of(_FINITE, st.sampled_from([-0.0, 5e-324, 1e308, -1e308])),
        )
    )
    @example(_EDGES)
    @example(np.vstack([_EDGES, -_EDGES]))
    def test_bytes_and_round_trip(self, values):
        ts = TimeSeries(values=values)
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
            write_series_csv(ours, ts)
            reference_write_series_csv(ref, ts)
            assert ours.read_bytes() == ref.read_bytes()
            back = read_series_csv(ours)
            assert back.values.shape == values.shape
            # bitwise, so -0.0 and subnormals are checked too
            assert back.values.tobytes() == values.tobytes()
            assert back.values.tobytes() == reference_read_series_csv(ours).values.tobytes()

    # inputs on which loadtxt and csv could part: each is either refused by
    # both readers with one message or read by both to the same bits
    @pytest.mark.parametrize(
        "text",
        [
            "t,x1\n1,0.5\n\n2,0.5\n",
            "t,x1\n1,0.5\n2,0.5\n\n",
            "t,x1\n\n1,0.5\n2,0.5\n",
            "t,x1\n\n\n",
            "t,x1\n1,0.5\n \t\n2,0.5\n",
            't,x1\n1,"0.5"\n2,0.5\n',
            "t,x1\r\n1,0.5\r\n2,0.5\r\n",
            "t,x1\r1,0.5\r2,0.5\r",
            "t,x1\r\n1,0.5\n2,0.5\n",
            "t,x1\n1,0.5\n2,0.5",
            "t,x1\n1,1_0\n2,0.5\n",
            "t,x1,x2\n1,+1E5,-0.0\n2,5e-324,1e308\n",
            "t,x1\n1, 0.5\n2,0.5 \n",
            "t,x1\n1,\t0.5\n2,\xa00.5\xa0\n",
            # line separators to str.splitlines, not to csv
            "t,x1\n1,0.5\u20282,0.5\n3,0.5\n",
            "t,x1\n1,0.5\x0c2,0.5\n3,0.5\n",
            "t,x1\n1,0.5\x1c2,0.5\n3,0.5\n",
            # whitespace to numpy's float parser, not to float()
            "t,x1\n\x1c1,0.5\n2,0.5\n",
            "t,x1\n1,0.5\x1f\n2,0.5\n",
            "t,x1\n1,0.5#c\n2,0.5\n",
            "t,x1\n1,0.5,\n2,0.5,\n",
            "t,x1\n1,0x10\n2,0.5\n",
            "t,x1\n1,\uff15\n2,0.5\n",
        ],
    )
    def test_unusual_input_matches_reference(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = reference_read_series_csv(path).values
        except DataFormatError as exc:
            assert _raised(read_series_csv, path) == str(exc)
        else:
            got = read_series_csv(path).values
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def _written_text(obj) -> str:
    """The text ``write_json`` writes for ``obj``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(path, obj)
        return path.read_bytes().decode("utf-8")


def _reference_text(obj) -> str:
    """What ``json.dumps`` writes for the reference conversion of ``obj``."""
    return json.dumps(reference_jsonify(obj), sort_keys=True, allow_nan=False) + "\n"


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_ARRAYS = arrays(
    st.sampled_from([np.float64, np.float32]),
    st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
    elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
)
_INT_ARRAYS = arrays(
    st.sampled_from([np.int64, np.int8, np.uint16]),
    st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
)
_BOOL_ARRAYS = arrays(np.bool_, st.lists(st.integers(0, 4), max_size=3).map(tuple))
_SCALARS = st.one_of(
    _FINITE_FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    _FINITE_FLOATS.map(np.float64),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.booleans().map(np.bool_),
)
_LEAVES = st.one_of(_SCALARS, _FLOAT_ARRAYS, _INT_ARRAYS, _BOOL_ARRAYS)
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


class TestJsonifyMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_NESTED)
    @example(np.array([1.0, -0.0, 5e-324, 1e308]))
    @example(np.array(2.5))
    @example(np.array(True))
    @example(np.zeros((0, 3)))
    @example(np.float32(0.1))
    @example({"flags": np.array([True, False]), "n": np.int64(3), "ok": True})
    def test_same_values_and_types(self, obj):
        assert _written_text(obj) == _reference_text(obj)

    def test_bools_and_numpy_scalars_keep_their_types(self):
        payload = {"x": np.array([[1.0, 0.5], [-0.0, 2.0]]), "flag": True,
                   "flags": np.array([False, True]), "count": np.int64(2)}
        assert json.loads(_written_text(payload)) == {
            "x": [[1.0, 0.5], [-0.0, 2.0]], "flag": True,
            "flags": [False, True], "count": 2,
        }


class TestWriteJsonMatchesJsonDumps:
    @settings(max_examples=200, deadline=None)
    @given(_NESTED)
    @example({"m": np.arange(6.0).reshape(2, 3), "empty": [], "none": {}, "s": "é\"\n"})
    @example([[1.0, 2], [True, None], 5e-324, -0.0, 1e300])
    def test_file_bytes(self, obj):
        payload = {"x": obj, "format_version": "envar-kit/1"}
        text = _written_text(payload)
        assert text == _reference_text(payload)
        assert text.count("\n") == 1 and text.endswith("\n")

    @pytest.mark.parametrize("obj", [
        float("nan"), [1.0, float("inf")], {"a": [[0.5], [float("-inf")]]},
        np.float64("-inf"), np.float32("nan"), np.array([[1.0], [np.nan]]),
    ])
    def test_non_finite_float_raises_value_error(self, tmp_path, obj):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": obj})
        assert not path.exists()

    def test_unknown_type_raises_type_error(self):
        with pytest.raises(TypeError):
            _written_text({"a": [object()]})


def _manifest_payload(**over) -> dict:
    payload = {
        "format_version": "envar-kit/1",
        "generator": {"p": 3, "t_len": 50, "seed": 1, "episodes": 1},
        "output_dir": "out",
    }
    payload.update(over)
    return payload


class TestFreshGraphFlag:
    def test_round_trip_keeps_false(self, tmp_path):
        payload = _manifest_payload(fresh_graph=False)
        assert manifest_from_dict(payload).fresh_graph is False
        path = tmp_path / "manifest.json"
        write_json(path, payload)
        assert json.loads(path.read_text())["fresh_graph"] is False
        assert load_manifest(path).fresh_graph is False

    @pytest.mark.parametrize("raw, expected", [(True, True), (False, False), (1, True), (0, False)])
    def test_json_bool_and_legacy_integers_accepted(self, raw, expected):
        assert manifest_from_dict(_manifest_payload(fresh_graph=raw)).fresh_graph is expected

    def test_default_is_true(self):
        assert manifest_from_dict(_manifest_payload()).fresh_graph is True

    @pytest.mark.parametrize("raw", ["false", "true", 2, -1, 1.0, None, [False]])
    def test_other_values_rejected(self, raw):
        with pytest.raises(DataFormatError, match="fresh_graph"):
            manifest_from_dict(_manifest_payload(fresh_graph=raw))


_MISSING = object()


def _evaluate_exit(tmp_path: Path, capsys, truth: dict | None = None, model: dict | None = None):
    """Exit code and stderr of ``evaluate`` on a p = 3 truth/model pair with overrides."""
    from envarkit.cli import main

    base = {"format_version": "envar-kit/1", "a0": np.zeros((3, 3)).tolist(),
            "a1": (0.5 * np.eye(3)).tolist(), "sigma": 1.0}
    truth_payload = {**base, "per_node_sigmas": [1.0, 1.0, 1.0], "seed": 0, "episode": 0}
    truth_payload.update(truth or {})
    model_payload = {**base, "method": "ols-only", **(model or {})}
    for name, payload in (("truth.json", truth_payload), ("model.json", model_payload)):
        (tmp_path / name).write_text(
            json.dumps({k: v for k, v in payload.items() if v is not _MISSING})
        )
    code = main(["evaluate", "--model", str(tmp_path / "model.json"),
                 "--truth", str(tmp_path / "truth.json"),
                 "--output", str(tmp_path / "score.json")])
    return code, capsys.readouterr().err


class TestTruthAndModelRejections:
    def test_valid_pair_scores(self, tmp_path, capsys):
        assert _evaluate_exit(tmp_path, capsys) == (0, "")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("per_node_sigmas", [1.0]),
            ("per_node_sigmas", [[1.0, 1.0, 1.0]]),
            ("per_node_sigmas", [1.0, -1.0, 1.0]),
            ("per_node_sigmas", [1.0, None, 1.0]),
            ("per_node_sigmas", [1.0, 0.0, 1.0]),
            ("sigma", "abc"),
            ("sigma", None),
            ("sigma", -1.0),
            ("sigma", _MISSING),
            ("episode", "x"),
            ("episode", -1),
            ("episode", 1.5),
            ("a0", [[None, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            ("a0", [[0.0]]),
            ("a0", [["0.5", 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            ("a1", [[0.5, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 0.5]]),
            ("a1", [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 10**400]]),
            ("per_node_sigmas", [1.0, "1.0", 1.0]),
            ("per_node_sigmas", [1.0, True, 1.0]),
        ],
    )
    def test_bad_truth_field_exits_2(self, tmp_path, capsys, field, value):
        code, err = _evaluate_exit(tmp_path, capsys, truth={field: value})
        assert code == 2
        assert "data error" in err and field in err

    @pytest.mark.parametrize("value", ["abc", None, 0.0, float("inf"), True, 10**400, _MISSING])
    def test_bad_model_sigma_exits_2(self, tmp_path, capsys, value):
        code, err = _evaluate_exit(tmp_path, capsys, model={"sigma": value})
        assert code == 2
        assert "'sigma'" in err

    @pytest.mark.parametrize("field, entry", [("a0", "0.0"), ("a1", True)])
    def test_non_number_model_entry_exits_2(self, tmp_path, capsys, field, entry):
        matrix = np.zeros((3, 3)).tolist()
        matrix[2][1] = entry
        code, err = _evaluate_exit(tmp_path, capsys, model={field: matrix})
        assert code == 2
        assert f"field {field!r} is not numeric" in err

    def test_model_not_utf8_exits_2(self, tmp_path, capsys):
        from envarkit.cli import main

        assert _evaluate_exit(tmp_path, capsys) == (0, "")
        model = tmp_path / "model.json"
        model.write_bytes(model.read_bytes().replace(b"ols-only", b"ols-\xff"))
        assert main(["evaluate", "--model", str(model), "--truth", str(tmp_path / "truth.json"),
                     "--output", str(tmp_path / "score.json")]) == 2
        assert f"data error: {model}: not UTF-8 text" in capsys.readouterr().err

    def test_truth_episode_read_back(self, tmp_path):
        from envarkit.formats import read_truth_json

        path = tmp_path / "truth.json"
        path.write_text(json.dumps({
            "format_version": "envar-kit/1", "a0": [[0.0]], "a1": [[0.5]], "sigma": 2.0,
            "per_node_sigmas": [1.5], "episode": 4,
        }))
        truth = read_truth_json(path)
        assert truth.episode_index == 4 and truth.model.sigma == 2.0
        assert np.array_equal(truth.per_node_sigmas, [1.5])


class TestManifestRejections:
    @pytest.mark.parametrize(
        "over, field",
        [
            ({"grid": {"p": ["abc"]}}, "grid.p"),
            ({"grid": {"p": 3}}, "grid.p"),
            ({"grid": {"p": [0]}}, "grid"),
            ({"grid": {"sigma_std": ["x"]}}, "grid.sigma_std"),
            ({"grid": {"sigma_std": [-0.1]}}, "grid"),
            ({"metrics": {"eta": "x"}}, "metrics.eta"),
            ({"metrics": {"eta": -1.0}}, "metrics.eta"),
            ({"metrics": {"eta": 10**400}}, "metrics.eta"),
            ({"metrics": {"binarize_mass": 1.5}}, "metrics.binarize_mass"),
            ({"metrics": {"alpha": 0.0}}, "metrics.alpha"),
            ({"metrics": {"ridge_tau": -1e-3}}, "metrics.ridge_tau"),
            ({"baselines": [{"name": "eqvar-gds", "params": {"alpha": "x"}}]},
             "baselines[0].params.alpha"),
            ({"baselines": [{"name": "eqvar-gds", "params": {"alpha": 1.0}}]},
             "baselines[0].params.alpha"),
            ({"baselines": [{"name": "eqvar-gds", "params": "abc"}]}, "baselines[0].params"),
            ({"envar": {"max_steps": "x"}}, "envar.max_steps"),
            ({"envar": {"max_steps": 2.5}}, "envar.max_steps"),
            ({"envar": {"restarts": 0}}, "restarts"),
            ({"envar": {"c_min": 10.0, "c_max": 1.0}}, "c_min"),
            ({"envar": {"mu": None}}, "envar.mu"),
            ({"generator": {"p": 3, "t_len": 50.0}}, "generator.t_len"),
            ({"generator": {"p": 3, "t_len": 50, "edge_prob": True}}, "generator.edge_prob"),
            # each method runs once per cell, and ENVAR always runs
            ({"baselines": [{"name": "ols-only"}, {"name": "envar"}]}, "baselines[1]"),
            ({"baselines": [{"name": "ols-only"}, {"name": "ols-only"}]}, "baselines[1]"),
            ({"baselines": [{"name": "eqvar-gds", "params": {"alpha": 0.01}},
                            {"name": "eqvar-gds", "params": {"alpha": 0.1}}]}, "baselines[1]"),
            # only eqvar-gds reads a param, alpha
            ({"baselines": [{"name": "ols-only", "params": {"alpha": 0.5, "foo": "bar"}}]},
             "baselines[0].params"),
            ({"baselines": [{"name": "eqvar-gds", "params": {"alpha": 0.5, "foo": 1}}]},
             "baselines[0].params"),
            # a misspelt key would otherwise leave its section at the default
            ({"grids": {"p": [5, 10]}, "baseline": [{"name": "ols-only"}]}, "'grids'"),
            ({"baseline": [{"name": "ols-only"}]}, "'baseline'"),
            ({"baselines": [{"name": "eqvar-gds", "param": {"alpha": 0.5}}]}, "'param'"),
            # a repeated grid value would run its cells twice
            ({"grid": {"p": [2, 2]}}, "grid.p"),
            ({"grid": {"sigma_std": [0.0, -0.0]}}, "grid.sigma_std"),
            # run directories name sigma_std to six significant digits
            ({"grid": {"sigma_std": [0.1234567, 0.1234568]}},
             "grid.sigma_std values 0.1234567 and 0.1234568"),
            # a descent holds an (R, max_steps) trace
            ({"envar": {"max_steps": 10**12}}, "envar.max_steps"),
            # and a fit descends once
            ({"envar": {"restarts": 2}}, "envar.restarts"),
            # a string would otherwise be read one character at a time
            ({"baselines": None}, "baselines must be a list"),
            ({"baselines": 5}, "baselines must be a list"),
            ({"baselines": True}, "baselines must be a list"),
            ({"baselines": "x"}, "baselines must be a list"),
            # optional, but a non-empty string where given
            ({"output_dir": ""}, "output_dir"),
            ({"output_dir": None}, "output_dir"),
            ({"output_dir": ["out"]}, "output_dir"),
        ],
    )
    def test_rejected_at_load(self, over, field):
        with pytest.raises(DataFormatError, match=field.replace("[", r"\[").replace("]", r"\]")):
            manifest_from_dict(_manifest_payload(**over))

    def test_benchmark_exits_2_on_wrong_type(self, tmp_path, capsys):
        from envarkit.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps(_manifest_payload(envar={"max_steps": "x"})))
        assert main(["benchmark", "--manifest", str(path), "--output", str(tmp_path)]) == 2
        assert "envar.max_steps" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_benchmark_exits_2_on_non_utf8(self, tmp_path, capsys):
        from envarkit.cli import main

        path = tmp_path / "m.json"
        path.write_bytes(json.dumps(_manifest_payload()).encode().replace(b"envar-kit/1", b"\xff"))
        assert main(["benchmark", "--manifest", str(path), "--output", str(tmp_path)]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("Example manifest:", 1)[1].split("```json\n", 1)[1]
        path = tmp_path / "manifest.json"
        path.write_text(example.split("```", 1)[0], encoding="utf-8")
        manifest = load_manifest(path)
        assert manifest.methods() == ("envar", "eqvar-gds", "ols-only")
        assert len(manifest.cells()) == 2 * 3 * manifest.generator.episodes

    def test_valid_values_accepted(self):
        manifest = manifest_from_dict(_manifest_payload(
            grid={"p": [2, 3], "sigma_std": [0, 0.075]},
            envar={"max_steps": 10, "restarts": 1, "mu": 2},
            metrics={"eta": 0.0, "binarize_mass": 1.0, "alpha": 0.1, "ridge_tau": 0},
            baselines=[{"name": "eqvar-gds", "params": {"alpha": 0.01}}],
        ))
        assert manifest.grid_p == (2, 3)
        assert manifest.grid_sigma_std == (0.0, 0.075)
        assert all(isinstance(v, float) for v in manifest.grid_sigma_std)
        assert manifest.envar_overrides == {"max_steps": 10, "restarts": 1, "mu": 2}
