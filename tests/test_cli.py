from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from envarkit import (
    StructuralModel,
    TimeSeries,
    canonical_representative,
    center,
    default_config,
    empirical_orbit_member,
    fit_ols,
    solve_envar,
    to_reduced_form,
)
from envarkit import cli, envar_optimizer, formats
from envarkit.cli import _preprocess, main
from envarkit.equivalence import OrbitElement
from envarkit.errors import DataFormatError
from envarkit.formats import (
    load_manifest,
    read_model_json,
    read_series_csv,
    read_truth_json,
    write_model_json,
    write_series_csv,
    write_truth_json,
)
from envarkit.synth import GeneratorConfig, generate_instance

from conftest import random_admissible
from test_envar_optimizer import _NanAfter


def poison_descents(monkeypatch, flagged):
    """Make the ENVAR descent report NaN objectives from step 31 on for the
    batch rows ``flagged(rows)`` picks from ``rows = arange(batch size)``."""
    real = envar_optimizer.minimize_orbit_objective

    def poisoned(objective, k0, **kwargs):
        flags = flagged(np.arange(len(k0)))
        return real(_NanAfter(**vars(objective), flagged=flags, after=30), k0, **kwargs)

    monkeypatch.setattr(envar_optimizer, "minimize_orbit_objective", poisoned)


def write_manifest(path: Path, output_dir: Path, **over) -> Path:
    payload = {
        "format_version": "envar-kit/1",
        "generator": {"p": 3, "t_len": 120, "seed": 7, "episodes": 2,
                      "edge_prob": 0.3},
        "envar": {"max_steps": 300},
        "baselines": [{"name": "eqvar-gds", "params": {}},
                      {"name": "ols-only", "params": {}}],
        "metrics": {"eta": 1.0, "binarize_mass": 0.85, "alpha": 0.05},
        "output_dir": str(output_dir),
    }
    payload.update(over)
    path.write_text(json.dumps(payload))
    return path


class TestSeriesRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = TimeSeries(values=rng.normal(size=(3, 40)))
        path = tmp_path / "series.csv"
        write_series_csv(path, ts)
        back = read_series_csv(path)
        np.testing.assert_array_equal(back.values, ts.values)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b\n1,0,0\n2,0,0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_series_csv(path)

    def test_row_length_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2\n1,0.0,0.0\n2,0.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_series_csv(path)

    def test_time_must_increase(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,0.0\n1,0.5\n")
        with pytest.raises(DataFormatError, match="increase"):
            read_series_csv(path)


class TestModelRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_admissible(3, rng)
        path = tmp_path / "model.json"
        write_model_json(path, m, method="envar")
        back, meta = read_model_json(path)
        np.testing.assert_array_equal(back.a0, m.a0)
        np.testing.assert_array_equal(back.a1, m.a1)
        assert back.sigma == m.sigma
        assert meta["method"] == "envar"
        assert set(json.loads(path.read_text())) == {"format_version", "a0", "a1", "sigma",
                                                     "method"}
        truth_path = tmp_path / "truth_model.json"
        write_truth_json(truth_path, generate_instance(GeneratorConfig(p=3, t_len=50, seed=1),
                                                       episode=2), seed=1)
        assert set(json.loads(truth_path.read_text())) == {
            "format_version", "a0", "a1", "sigma", "per_node_sigmas", "seed", "episode",
        }

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": "other/9", "a0": [[0]],
                                    "a1": [[0]], "sigma": 1.0}))
        with pytest.raises(DataFormatError, match="format_version"):
            read_model_json(path)


class TestSimulateCommand:
    def test_minimal_manifest(self, tmp_path):
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path / "m.json", out,
            generator={"p": 2, "t_len": 10, "seed": 1, "episodes": 1},
        )
        assert main(["simulate", "--manifest", str(manifest)]) == 0
        run_dir = out / "p2_s0_e0"
        series = read_series_csv(run_dir / "series.csv")
        assert series.values.shape == (2, 10)
        truth = read_truth_json(run_dir / "truth_model.json")
        assert truth.model.p == 2

    def test_five_episodes_make_five_directories(self, tmp_path):
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path / "m.json", out,
            generator={"p": 2, "t_len": 10, "seed": 1, "episodes": 5},
        )
        assert main(["simulate", "--manifest", str(manifest)]) == 0
        assert sorted(d.name for d in out.iterdir()) == [
            f"p2_s0_e{k}" for k in range(5)
        ]

    @pytest.mark.parametrize("fresh_graph", [True, False])
    def test_instance_meta_writes_fresh_graph_as_boolean(self, tmp_path, fresh_graph):
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path / "m.json", out,
            generator={"p": 2, "t_len": 10, "seed": 1, "episodes": 1},
            fresh_graph=fresh_graph,
        )
        assert main(["simulate", "--manifest", str(manifest)]) == 0
        text = (out / "p2_s0_e0" / "instance_meta.json").read_text()
        assert f'"fresh_graph": {json.dumps(fresh_graph)},' in text
        assert json.loads(text)["fresh_graph"] is fresh_graph

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path / "m.json", out,
            generator={"p": 2, "t_len": 10, "seed": 1, "episodes": 1},
        )
        main(["simulate", "--manifest", str(manifest)])
        first = (out / "p2_s0_e0" / "series.csv").read_bytes()
        main(["simulate", "--manifest", str(manifest)])
        assert (out / "p2_s0_e0" / "series.csv").read_bytes() == first

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_input_too_large_for_memory_exits_2(self, tmp_path, capsys, monkeypatch, command):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(formats, "generate_instance", too_large)
        manifest = write_manifest(tmp_path / "m.json", tmp_path / "out")
        assert main([command, "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            "data error: input too large for memory: Unable to allocate 74.5 GiB\n")


class TestFitCommand:
    def test_ols_only_recovers_phi_on_noiseless_data(self, tmp_path):
        # quarter-turn rotation: the trajectory is periodic with exact zero
        # mean over whole periods, so centering leaves the recursion intact
        phi = np.array([[0.0, -1.0], [1.0, 0.0]])
        x = np.empty((2, 28))
        x[:, 0] = [1.0, 0.25]
        for t in range(1, 28):
            x[:, t] = phi @ x[:, t - 1]
        write_series_csv(tmp_path / "series.csv", TimeSeries(values=x))
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"),
            "--method", "ols-only", "--output", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        np.testing.assert_allclose(np.asarray(report["phi_hat"]), phi, atol=1e-8)

    def test_envar_fit_passes_postconditions(self, tmp_path):
        inst = generate_instance(GeneratorConfig(p=3, t_len=200, seed=2), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"), "--method", "envar",
            "--output", str(tmp_path), "--max-steps", "400",
        ])
        assert code == 0
        model, _ = read_model_json(tmp_path / "model.json")
        report = json.loads((tmp_path / "fit_report.json").read_text())
        rf = to_reduced_form(model)
        np.testing.assert_allclose(
            rf.phi, np.asarray(report["phi_hat"]), atol=1e-8
        )
        np.testing.assert_allclose(
            rf.sigma_u, np.asarray(report["sigma_u_hat"]), atol=1e-8
        )

    def test_missing_file_exits_2(self, capsys):
        assert main(["fit", "--series", "no-such-file.csv"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert main(["fit", "--series", "x.csv", "--method", "bogus"]) == 1

    def test_zscore_flag(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(2.0, 5.0, size=(2, 200))
        write_series_csv(tmp_path / "series.csv", TimeSeries(values=values))
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"), "--method", "ols-only",
            "--output", str(tmp_path), "--zscore",
        ])
        assert code == 0

    def test_detrend_equals_fit_on_scipy_detrended_series(self, tmp_path):
        from scipy.signal import detrend

        rng = np.random.default_rng(5)
        trend = np.outer([0.5, -1.0, 2.0], np.arange(150) / 150.0)
        values = rng.normal(0.0, 1.0, size=(3, 150)) + trend
        write_series_csv(tmp_path / "series.csv", TimeSeries(values=values))
        for name, flags in (("detrended", ["--detrend"]), ("raw", [])):
            code = main(["fit", "--series", str(tmp_path / "series.csv"),
                         "--method", "ols-only", "--output", str(tmp_path / name),
                         *flags])
            assert code == 0
        model, _ = read_model_json(tmp_path / "detrended" / "model.json")
        # centering is on by default and runs first
        series = read_series_csv(tmp_path / "series.csv")
        manual = detrend(center(series).values, axis=1, type="linear")
        # scipy hands back F order; the fitted series is stored in C order
        assert _preprocess(series, True, True, False).values.flags.c_contiguous
        cr = canonical_representative(fit_ols(TimeSeries(values=manual, centered=True)))
        expected = empirical_orbit_member(cr, OrbitElement(q=np.eye(3), c=1.0))
        assert np.array_equal(model.a0, expected.a0)
        assert np.array_equal(model.a1, expected.a1)
        assert model.sigma == expected.sigma
        raw, _ = read_model_json(tmp_path / "raw" / "model.json")
        assert not np.allclose(raw.a1, model.a1)

    @pytest.mark.parametrize("p", [5, 40])
    def test_csv_fit_is_bitwise_the_in_memory_fit(self, tmp_path, p):
        inst = generate_instance(GeneratorConfig(p=p, t_len=400, seed=3), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        assert read_series_csv(tmp_path / "series.csv").values.flags.c_contiguous
        code = main(["fit", "--series", str(tmp_path / "series.csv"),
                     "--method", "ols-only", "--output", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        in_memory = fit_ols(_preprocess(inst.series, True, False, False))
        assert np.array_equal(np.asarray(report["phi_hat"]), in_memory.phi_hat)
        assert np.array_equal(np.asarray(report["sigma_u_hat"]), in_memory.sigma_u_hat)

    def test_envar_report_carries_restart_telemetry(self, tmp_path):
        inst = generate_instance(GeneratorConfig(p=3, t_len=200, seed=2), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"), "--method", "envar",
            "--output", str(tmp_path), "--max-steps", "300", "--seed", "4",
        ])
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        cr = canonical_representative(fit_ols(center(inst.series)))
        solution = solve_envar(cr, replace(default_config(3, seed=4), max_steps=300))
        assert report["restarts"] == [
            {"steps": r.steps, "best_step": r.best_step,
             "stop_reason": r.stop_reason, "anneals": r.anneals,
             "final_grad_norm": r.final_grad_norm}
            for r in solution.restarts
        ]
        assert len(report["restarts"]) == 1
        assert "restart_index" not in report

    @pytest.mark.parametrize("method", ["envar", "eqvar-gds", "ols-only"])
    def test_report_carries_criterion_5_residuals(self, tmp_path, method):
        """Every report holds max |phi - phi_hat| and max |Sigma_u - Sigma_u_hat|
        of the pairs it records; an ENVAR report also holds ||Q^T Q - I||_F,
        and its three residuals are at roundoff."""
        inst = generate_instance(GeneratorConfig(p=4, t_len=300, seed=5), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        assert main(["fit", "--series", str(tmp_path / "series.csv"), "--method", method,
                     "--output", str(tmp_path), "--max-steps", "400"]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        for name, model_key, fitted_key in (("phi_residual", "model_phi", "phi_hat"),
                                            ("sigma_u_residual", "model_sigma_u",
                                             "sigma_u_hat")):
            gap = np.max(np.abs(np.asarray(report[model_key]) - np.asarray(report[fitted_key])))
            assert report[name] == float(gap)
        assert ("orthogonality_residual" in report) == (method == "envar")
        if method == "envar":
            for name in ("phi_residual", "sigma_u_residual", "orthogonality_residual"):
                assert 0.0 <= report[name] <= 1e-8

    def test_diverged_envar_fit_exits_3(self, tmp_path, capsys, monkeypatch):
        inst = generate_instance(GeneratorConfig(p=3, t_len=200, seed=2), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        poison_descents(monkeypatch, lambda rows: rows == 0)
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"), "--method", "envar",
            "--output", str(tmp_path / "out"), "--max-steps", "300",
        ])
        assert code == 3
        assert capsys.readouterr().err == ("numerical error: OptimizerDivergedError: "
                                           "objective became non-finite at step 31\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["envar", "eqvar-gds", "ols-only"])
    def test_rank_deficient_fit_exits_3_leaving_no_output(self, tmp_path, capsys, method):
        x = np.random.default_rng(6).normal(size=(2, 100))
        write_series_csv(tmp_path / "series.csv", TimeSeries(values=np.vstack([x, x.sum(0)])))
        code = main(["fit", "--series", str(tmp_path / "series.csv"), "--method", method,
                     "--output", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical error: RankError: ")
        assert not (tmp_path / "out").exists()

    def test_uncentered_data_without_centering_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        values = rng.normal(5.0, 1.0, size=(2, 50))
        write_series_csv(tmp_path / "series.csv", TimeSeries(values=values))
        code = main([
            "fit", "--series", str(tmp_path / "series.csv"), "--method", "ols-only",
            "--output", str(tmp_path), "--no-center",
        ])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_truth_scores_zero(self, tmp_path):
        inst = generate_instance(GeneratorConfig(p=3, t_len=50, seed=4), episode=0)
        from envarkit.formats import write_truth_json

        write_truth_json(tmp_path / "truth.json", inst, seed=4)
        write_model_json(tmp_path / "model.json", inst.model, method="self")
        out = tmp_path / "score.json"
        code = main([
            "evaluate", "--model", str(tmp_path / "model.json"),
            "--truth", str(tmp_path / "truth.json"), "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sf_oad"] == pytest.approx(0.0, abs=1e-10)
        assert "centralities" in payload
        assert payload["binarize_mass"] == 0.85

    def test_undefined_p_value_is_written_as_null(self, tmp_path):
        # at p = 2, a0 has two off-diagonal entries: too few for a correlation
        model = StructuralModel(a0=np.zeros((2, 2)), a1=0.5 * np.eye(2), sigma=1.0)
        (tmp_path / "truth.json").write_text(json.dumps({
            "format_version": "envar-kit/1", "a0": model.a0.tolist(),
            "a1": model.a1.tolist(), "sigma": 1.0, "per_node_sigmas": [1.0, 1.0],
        }))
        write_model_json(tmp_path / "model.json", model, method="self")
        out = tmp_path / "score.json"
        assert main(["evaluate", "--model", str(tmp_path / "model.json"),
                     "--truth", str(tmp_path / "truth.json"), "--output", str(out)]) == 0
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        p_values = json.loads(text)["p_values"]
        assert p_values["a0"] is None
        assert p_values["a1"] == 0.0

    def test_orbit_transformed_truth_scores_near_zero(self, tmp_path):
        from envarkit import OrbitElement, orbit_transform
        from envarkit.formats import write_truth_json
        from conftest import random_orthogonal

        inst = generate_instance(GeneratorConfig(p=3, t_len=50, seed=5), episode=0)
        rng = np.random.default_rng(6)
        member = orbit_transform(
            inst.model, OrbitElement(q=random_orthogonal(3, rng), c=1.6)
        )
        write_truth_json(tmp_path / "truth.json", inst, seed=5)
        write_model_json(tmp_path / "model.json", member, method="orbit")
        out = tmp_path / "score.json"
        code = main([
            "evaluate", "--model", str(tmp_path / "model.json"),
            "--truth", str(tmp_path / "truth.json"), "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sf_oad"] <= 1e-8
        assert set(payload) == {
            "format_version", "sf_oad", "obs_oad", "pearson_phi", "pearson_sigma_u",
            "pearson_a0", "pearson_a1", "p_values", "method_name", "p", "episode",
            "centralities", "binarize_mass",
        }
        assert set(payload["p_values"]) == {"phi", "sigma_u", "a0", "a1"}
        assert set(payload["centralities"]) == {"in_degree", "out_degree", "net_flow"}

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        (tmp_path / "model.json").write_text("{}")
        (tmp_path / "truth.json").write_text("{}")
        code = main([
            "evaluate", "--model", str(tmp_path / "model.json"),
            "--truth", str(tmp_path / "truth.json"),
        ])
        assert code == 2

    def test_dimension_mismatch_exits_2_naming_both_files(self, tmp_path, capsys):
        from envarkit.formats import write_truth_json

        truth = generate_instance(GeneratorConfig(p=4, t_len=50, seed=4), episode=0)
        estimate = generate_instance(GeneratorConfig(p=3, t_len=50, seed=4), episode=0)
        write_truth_json(tmp_path / "truth_model.json", truth, seed=4)
        write_model_json(tmp_path / "model.json", estimate.model, method="self")
        code = main([
            "evaluate", "--model", str(tmp_path / "model.json"),
            "--truth", str(tmp_path / "truth_model.json"),
            "--output", str(tmp_path / "score.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "3-dim" in err and "4-dim" in err
        assert "model.json" in err and "truth_model.json" in err
        assert not (tmp_path / "score.json").exists()


class TestLogLevel:
    """``ENVAR_KIT_LOG`` names a level; any other value means WARNING. Run in a
    fresh interpreter, since ``logging.basicConfig`` acts only once."""

    @pytest.mark.parametrize(
        "value, logged", [("info", True), ("basic_format", False), ("no-such-level", False)]
    )
    def test_value_sets_level_or_falls_back(self, tmp_path, value, logged):
        import os
        import subprocess
        import sys

        import envarkit
        from envarkit.formats import write_truth_json

        inst = generate_instance(GeneratorConfig(p=3, t_len=50, seed=4), episode=0)
        write_truth_json(tmp_path / "truth.json", inst, seed=4)
        write_model_json(tmp_path / "model.json", inst.model, method="self")
        src = str(Path(envarkit.__file__).resolve().parents[1])
        env = dict(os.environ, ENVAR_KIT_LOG=value, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "envarkit.cli", "evaluate",
             "--model", str(tmp_path / "model.json"), "--truth", str(tmp_path / "truth.json"),
             "--output", str(tmp_path / "score.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert ("wrote" in done.stderr) == logged
        assert (tmp_path / "score.json").exists()


class TestFlagRanges:
    """A flag outside the range its manifest field must keep is a usage error."""

    @pytest.fixture
    def files(self, tmp_path):
        from envarkit.formats import write_truth_json

        inst = generate_instance(GeneratorConfig(p=3, t_len=50, seed=4), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        write_truth_json(tmp_path / "truth.json", inst, seed=4)
        write_model_json(tmp_path / "model.json", inst.model, method="self")
        return tmp_path

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("fit", ["--max-steps", "0"]),
            ("fit", ["--max-steps", "1000000000000"]),
            ("fit", ["--method", "ols-only", "--max-steps", "0"]),
            ("fit", ["--method", "eqvar-gds", "--max-steps", "0"]),
            ("fit", ["--method", "eqvar-gds", "--alpha", "2"]),
            ("evaluate", ["--eta", "-1"]),
            ("evaluate", ["--binarize-mass", "2"]),
        ],
        ids=["max-steps", "max-steps-unbounded", "max-steps-ols-only", "max-steps-eqvar-gds",
             "alpha", "eta", "binarize-mass"],
    )
    def test_out_of_range_flag_exits_1(self, files, capsys, command, flags):
        if command == "fit":
            inputs = ["--series", str(files / "series.csv")]
        else:
            inputs = ["--model", str(files / "model.json"), "--truth", str(files / "truth.json")]
        code = main([command, *inputs, "--output", str(files / "out"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flags[-2] in err
        assert not (files / "out").exists()


class TestOutputBlockedByAFile:
    """An ``--output`` that is, or lies below, an existing file is a data error."""

    @pytest.mark.parametrize(
        "command, below",
        [("simulate", False), ("simulate", True), ("fit", False), ("fit", True),
         ("evaluate", True), ("benchmark", False), ("benchmark", True)],
    )
    def test_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch, command, below):
        from envarkit.formats import write_truth_json

        inst = generate_instance(GeneratorConfig(p=3, t_len=50, seed=4), episode=0)
        write_series_csv(tmp_path / "series.csv", inst.series)
        write_truth_json(tmp_path / "truth.json", inst, seed=4)
        write_model_json(tmp_path / "model.json", inst.model, method="self")
        manifest = write_manifest(tmp_path / "m.json", tmp_path / "unused")
        inputs = {
            "simulate": ["--manifest", str(manifest)],
            "fit": ["--series", str(tmp_path / "series.csv"), "--method", "ols-only"],
            "evaluate": ["--model", str(tmp_path / "model.json"),
                         "--truth", str(tmp_path / "truth.json")],
            "benchmark": ["--manifest", str(manifest)],
        }[command]
        blocker = tmp_path / "afile"
        blocker.write_text("")
        output = blocker / "sub" if below else blocker

        def no_fit(*args, **kwargs):
            raise AssertionError("the output was checked only after a fit")

        # the output is refused before anything is fit
        monkeypatch.setattr(cli, "fit_ols", no_fit)
        assert main([command, *inputs, "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(blocker) in err
        assert blocker.read_text() == ""


class TestBenchmarkCommand:
    def test_small_grid_row_counts(self, tmp_path):
        out = tmp_path / "bench"
        manifest = write_manifest(tmp_path / "m.json", out)
        assert main(["benchmark", "--manifest", str(manifest)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["p", "sigma_std", "method", "episode"]
        assert "wall_ms" not in header
        # 1 p x 1 sigma x 2 episodes x 3 methods
        assert len(lines) == 1 + 6
        timing_lines = (out / "timings.csv").read_text().splitlines()
        assert timing_lines[0].split(",")[-1] == "wall_ms"
        assert len(timing_lines) == 1 + 6
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 1 + 3  # one row per method
        # each metric cell is the repr of its run's score.json value, empty for null
        with open(out / "summary.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                run = out / "runs" / f"p3_s0_e{row['episode']}" / row["method"]
                payload = json.loads((run / "score.json").read_text())
                for col in cli._METRIC_COLUMNS:
                    value = payload[col]
                    assert row[col] == ("" if value is None else repr(value))
        # aggregate SEM is the sample standard deviation over episodes / sqrt(n)
        sf_col = header.index("sf_oad")
        method_col = header.index("method")
        envar_sf = [
            float(line.split(",")[sf_col])
            for line in lines[1:]
            if line.split(",")[method_col] == "envar"
        ]
        agg_header = agg[0].split(",")
        agg_envar = next(
            line.split(",") for line in agg[1:] if line.split(",")[2] == "envar"
        )
        mean = float(agg_envar[agg_header.index("sf_oad_mean")])
        sem = float(agg_envar[agg_header.index("sf_oad_sem")])
        assert mean == pytest.approx(np.mean(envar_sf), rel=1e-12)
        assert sem == pytest.approx(
            np.std(envar_sf, ddof=1) / np.sqrt(len(envar_sf)), rel=1e-12
        )

    def test_more_jobs_than_tasks_is_byte_identical(self, tmp_path):
        # 2 p x 3 episodes: per p, one task of 3 cells at --jobs 1, tasks of 2
        # and 1 cells at --jobs 2, and one cell per task at --jobs 3 and 8
        # (6 tasks for 8 workers)
        outputs = {}
        for jobs in (1, 2, 3, 8):
            out = tmp_path / f"jobs{jobs}"
            manifest = write_manifest(
                tmp_path / f"m{jobs}.json", out, grid={"p": [3, 4]},
                generator={"p": 3, "t_len": 120, "seed": 7, "episodes": 3, "edge_prob": 0.3},
            )
            assert main(["benchmark", "--manifest", str(manifest),
                         "--jobs", str(jobs)]) == 0
            files = sorted(out.glob("runs/*/*/*.json"))
            files += [out / "summary.csv", out / "aggregate.csv"]
            outputs[jobs] = {str(f.relative_to(out)): f.read_bytes() for f in files}
        # a model.json and a score.json per run: 6 cells x 3 methods
        assert len(outputs[1]) == 2 * 18 + 2
        assert outputs[1] == outputs[2] == outputs[3] == outputs[8]

    def test_tasks_are_chunks_of_one_p_within_the_batch_cap(self, tmp_path):
        manifest = load_manifest(write_manifest(
            tmp_path / "m.json", tmp_path / "o", grid={"p": [5, 50], "sigma_std": [0.0, 0.075]},
            generator={"p": 5, "t_len": 120, "seed": 7, "episodes": 3},
        ))
        # 4 fits x 50^2 fill the cap, so a p = 50 task holds at most 4 cells
        assert cli.BATCH_ENTRIES == 4 * 50**2
        for jobs, p5_sizes, p50_sizes in ((1, [6], [4, 2]), (2, [3, 3], [3, 3]),
                                          (4, [2, 2, 2], [2, 2, 2]), (8, [1] * 6, [1] * 6)):
            tasks = cli._benchmark_tasks(manifest, tmp_path, jobs)
            chunks = [cells for cells, _, _ in tasks]
            assert [c for cells in chunks for c in cells] == list(manifest.cells())
            assert all(len({c.generator.p for c in cells}) == 1 for cells in chunks)
            sizes = {p: [len(cells) for cells in chunks if cells[0].generator.p == p]
                     for p in (5, 50)}
            assert sizes == {5: p5_sizes, 50: p50_sizes}

    @pytest.mark.parametrize("jobs, workers", [(64, 6), (2, 2)])
    def test_pool_has_at_most_one_worker_per_task(self, tmp_path, monkeypatch, jobs, workers):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        # 3 p x 2 episodes: 6 one-cell tasks from --jobs 2 up
        manifest = write_manifest(tmp_path / "m.json", tmp_path / "out", grid={"p": [3, 4, 5]})
        assert main(["benchmark", "--manifest", str(manifest), "--jobs", str(jobs)]) == 0
        assert started == [workers]

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_output_flag_stands_in_for_a_missing_output_dir(
        self, tmp_path, capsys, monkeypatch, command
    ):
        manifest = write_manifest(tmp_path / "m.json", tmp_path / "unused",
                                  generator={"p": 2, "t_len": 30, "seed": 1, "episodes": 1},
                                  envar={"max_steps": 20, "restarts": 1})
        payload = json.loads(manifest.read_text())
        del payload["output_dir"]
        manifest.write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        assert main([command, "--manifest", str(manifest)]) == 2
        assert "'output_dir'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        assert main([command, "--manifest", str(manifest), "--output", "out"]) == 0
        assert (tmp_path / "out" / ("summary.csv" if command == "benchmark" else "p2_s0_e0")
                ).exists()

    def test_manifest_validation_errors(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"format_version": "envar-kit/1"}))
        assert main(["benchmark", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "generator" in err

    def test_a_second_restart_is_refused(self, tmp_path, capsys):
        """A fit descends once, so a manifest may set ``envar.restarts`` to 1 only."""
        manifest = write_manifest(tmp_path / "m.json", tmp_path / "o", envar={"restarts": 2})
        assert main(["benchmark", "--manifest", str(manifest)]) == 2
        assert "envar.restarts must be an integer equal to 1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_baseline_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json", tmp_path / "o",
            baselines=[{"name": "dynotears", "params": {}}],
        )
        assert main(["benchmark", "--manifest", str(manifest)]) == 2

    def test_manifest_round_trip(self, tmp_path):
        manifest_path = write_manifest(tmp_path / "m.json", tmp_path / "o")
        manifest = load_manifest(manifest_path)
        assert manifest.generator.p == 3
        assert manifest.methods() == ("envar", "eqvar-gds", "ols-only")
        assert manifest.grid_p == (3,)
        assert manifest.method_metrics["envar"].binarize_mass == 0.85

    def test_partial_failure_records_error_rows(self, tmp_path):
        # T = 3 makes the Gram matrix rank deficient at p = 3: every run errors
        out = tmp_path / "bench"
        manifest = write_manifest(
            tmp_path / "m.json", out,
            generator={"p": 3, "t_len": 3, "seed": 1, "episodes": 1},
        )
        assert main(["benchmark", "--manifest", str(manifest)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        header = lines[0].split(",")
        error_col = header.index("error")
        for line in lines[1:]:
            assert "RankError" in line.split(",")[error_col]

    def test_divergence_stays_with_its_cell(self, tmp_path, monkeypatch):
        """Cell 1 of a 3-cell chunk diverges: only its ENVAR row has the error,
        and every other run is the bytes of an unpatched run."""
        generator = {"p": 3, "t_len": 120, "seed": 7, "episodes": 3, "edge_prob": 0.3}
        outputs = {}
        for poisoned in (False, True):
            out = tmp_path / str(poisoned)
            manifest = write_manifest(tmp_path / "m.json", out, generator=generator)
            if poisoned:
                # one batch row per cell, in cell order
                poison_descents(monkeypatch, lambda rows: rows == 1)
            assert main(["benchmark", "--manifest", str(manifest)]) == 0
            outputs[poisoned] = {str(f.relative_to(out)): f.read_bytes()
                                 for f in sorted(out.glob("runs/*/*/*.json"))}
        with open(tmp_path / "True" / "summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9
        errors = {(r["method"], r["episode"]): r["error"] for r in rows if r["error"]}
        assert errors == {("envar", "1"): "OptimizerDivergedError: "
                                          "objective became non-finite at step 31"}
        clean = outputs[False]
        assert len(clean) == 2 * 9
        assert outputs[True] == {name: data for name, data in clean.items()
                                 if not name.startswith("runs/p3_s0_e1/envar/")}

    def test_cell_is_fit_then_evaluate(self, tmp_path):
        """Each run directory holds what ``fit`` and ``evaluate`` write from
        the files ``simulate`` writes, at the manifest's settings."""
        manifest = write_manifest(
            tmp_path / "m.json", tmp_path / "unused",
            grid={"p": [3, 4]},
            envar={"max_steps": 50},
            baselines=[{"name": "eqvar-gds", "params": {"alpha": 0.2}}, {"name": "ols-only"}],
            metrics={"eta": 0.5, "binarize_mass": 0.6, "ridge_tau": 1e-3},
        )
        sim, bench, check = tmp_path / "sim", tmp_path / "bench", tmp_path / "check"
        assert main(["simulate", "--manifest", str(manifest), "--output", str(sim)]) == 0
        assert main(["benchmark", "--manifest", str(manifest), "--output", str(bench)]) == 0
        cells = sorted(d.name for d in sim.iterdir())
        assert cells == ["p3_s0_e0", "p3_s0_e1", "p4_s0_e0", "p4_s0_e1"]
        fit_flags = {"eqvar-gds": ["--alpha", "0.2"], "ols-only": []}
        for cell in cells:
            for method in ("envar", "eqvar-gds", "ols-only"):
                run, out = bench / "runs" / cell / method, check / cell / method
                out.mkdir(parents=True)
                assert main(["evaluate", "--model", str(run / "model.json"),
                             "--truth", str(sim / cell / "truth_model.json"),
                             "--eta", "0.5", "--binarize-mass", "0.6",
                             "--output", str(out)]) == 0
                assert (out / "score.json").read_bytes() == (run / "score.json").read_bytes()
                if method in fit_flags:
                    assert main(["fit", "--series", str(sim / cell / "series.csv"),
                                 "--method", method, "--ridge-tau", "1e-3",
                                 *fit_flags[method], "--output", str(out)]) == 0
                    assert (out / "model.json").read_bytes() == (run / "model.json").read_bytes()
