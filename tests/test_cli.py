import copy
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from copaug import experiment
from copaug.cli import main
from copaug.dataset import LevelGrid, generate_surrogate, load_profiles, save_profiles
from copaug.emulator import MLPLayout, init_mlp, save_mlp
from copaug.experiment import make_config, run_pipeline
from copaug.multicop import CopulaSpec, fit_synth_model, load_model, save_model
from copaug.radiation import radiate_set

TINY = {
    "master_seed": 11,
    "data": {"n_profiles": 120, "n_levels": 6},
    "copulas": {"kinds": ["gaussian"]},
    "augmentation": {"factors": [1], "generation_repeats": 2},
    "training": {"repeats": 2, "hidden": [8], "epochs": 4, "patience": 4, "batch_size": 32},
    "evaluation": {"projection_iterations": 4, "depth_curves": 12},
}


def assert_numeric_table(path):
    """Every cell of a written CSV reads as a float, except the label columns."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    assert rows, path
    for row in rows:
        assert len(row) == len(header), path
        for name, cell in zip(header, row):
            if name not in ("case", "statistic") and not (name == "generation" and cell == "-"):
                float(cell)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    return path


class TestGenData:
    def test_writes_and_reports_shape(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert "120 rows, 18 columns" in capsys.readouterr().out
        assert len(load_profiles(out, LevelGrid(6))) == 120

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(a)])
        main(["gen-data", "--config", str(tiny_config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(a)])
        main(["gen-data", "--config", str(tiny_config), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_writes_data_path_for_the_pipeline(self, tiny_config, tmp_path, capsys):
        # Without --out the surrogate goes to data.path, which need not exist yet;
        # the pipeline reading it scores exactly as the one generating it.
        data = tmp_path / "prof.csv"
        with_path = tmp_path / "with-path.json"
        with_path.write_text(json.dumps(dict(TINY, data=dict(TINY["data"], path=str(data)))))
        assert main(["gen-data", "--config", str(with_path)]) == 0
        assert capsys.readouterr().out == f"wrote {data}: 120 rows, 18 columns\n"
        for cfg, out in ((with_path, "read"), (tiny_config, "generated")):
            assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "read" / "results.csv").read_bytes() == (
            tmp_path / "generated" / "results.csv").read_bytes()


class TestFit:
    def test_gaussian_artifact_shape(self, tiny_config, tmp_path):
        out = tmp_path / "model.json"
        assert main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(out)]) == 0
        model = load_model(out)
        assert model.kind == "gaussian"
        assert model.d == 18
        assert model.copula.R.shape == (max(model.ranking) + 1,) * 2

    def test_vine_truncation_respected(self, tmp_path):
        cfg = dict(TINY)
        cfg["copulas"] = {"kinds": ["vine"], "truncation": 2,
                          "catalogue": ["gaussian", "clayton"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "vine.json"
        assert main(["fit", "--config", str(cfg_path), "--kind", "vine", "--out", str(out)]) == 0
        model = load_model(out)
        for tree in model.copula.trees[2:]:
            assert all(edge.copula.family.value == "independence" for edge in tree)

    @pytest.mark.parametrize("kind,truncation,digest", [
        ("gaussian", 2, "0dcbc4c0b3175165c2405551a87b6de214c7d1a0aa7386750f6f8a874a87a229"),
        ("vine", 2, "e98dd0b606b29fbfc167b989a04e86cae2a95f6c856b8e379e0a222069df0408"),
    ], ids=["gaussian-2", "vine-2"])
    def test_fit_matches_recorded_sha256(self, tmp_path, kind, truncation, digest):
        # Recorded when the copula came to cover one column per distinct
        # ranking (format 3); any change to a fitted theta, nu or loglik
        # changes the bytes.  The vine's was re-recorded when the fit became
        # Kendall tau inversion: every fitted theta moved, and the edge
        # histogram went from frank 1, gaussian 10, gumbel 6, joe 2, student 10
        # to frank 1, gaussian 9, gumbel 7, joe 6, student 8.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"master_seed": 11, "data": {"n_profiles": 300, "n_levels": 20},
                                        "copulas": {"truncation": truncation}}))
        out = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg_path), "--kind", kind, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind,truncation,digest", [
        ("gaussian", 2, "642a7e96060695dccde5c1b49d06435d70a80d0924b2c6c2d00af7da0caa55c3"),
        ("vine", 2, "376e80ce27ad658816bd10a2eddc94ca6716b7b8b5e709f39da7ddda9906359d"),
    ], ids=["gaussian-2", "vine-2"])
    def test_sample_matches_recorded_sha256(self, tmp_path, kind, truncation, digest):
        # The 200 profiles `copaug sample` draws from the model pinned above:
        # any change to the simulated uniforms or the quantile maps changes the bytes.
        # The vine's was re-recorded when the Gumbel and Joe h-inverse became a
        # Newton iteration: 549 of its 12,000 values moved, by 6.4e-14 relative at most.
        # It was re-recorded again with the model above, for Brent's method
        # (4,057 values moved, by 5.7e-5 at most), and for Kendall tau
        # inversion (4,200 values moved).
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"master_seed": 11, "data": {"n_profiles": 300, "n_levels": 20},
                                        "copulas": {"truncation": truncation}}))
        model, out = tmp_path / "model.json", tmp_path / "synth.csv"
        assert main(["fit", "--config", str(cfg_path), "--kind", kind, "--out", str(model)]) == 0
        assert main(["sample", "--config", str(cfg_path), "--model", str(model),
                     "--count", "200", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_vine_summary_counts_every_edge(self, tmp_path, capsys):
        # The summary counts families from the fitted trees 1..k plus the
        # independence edges past k; it must match a count over all trees.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY, copulas={"kinds": ["vine"], "truncation": 2})))
        out = tmp_path / "vine.json"
        assert main(["fit", "--config", str(cfg_path), "--kind", "vine", "--out", str(out)]) == 0
        vine = load_model(out).copula
        assert vine.truncation == 2 and len(vine.trees) > 2
        counts = Counter(e.copula.family.value for tree in vine.trees for e in tree)
        hist = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        assert capsys.readouterr().out.rstrip("\n").endswith(f", truncation 2, edges: {hist}")

    def test_refit_identical_bytes(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(a)])
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_reseeds_the_split(self, tiny_config, tmp_path):
        # With the profiles read from a file, the seed moves only the split.
        data = tmp_path / "data.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
        cfg = tmp_path / "from_file.json"
        cfg.write_text(json.dumps(dict(TINY, data={"path": str(data), "n_levels": 6})))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--config", str(cfg), "--kind", "gaussian", "--out", str(a)])
        main(["fit", "--config", str(cfg), "--seed", "99", "--kind", "gaussian", "--out", str(b)])
        assert json.loads(a.read_text())["marginals"] != json.loads(b.read_text())["marginals"]


class TestSampleRadiateTrainEval:
    def test_full_command_chain(self, tiny_config, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        synth = tmp_path / "synth.csv"
        assert main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "40", "--out", str(synth)]) == 0
        assert len(load_profiles(synth, LevelGrid(6))) == 40

        synth_rad = tmp_path / "synth_rad.csv"
        assert main(["radiate", "--config", str(tiny_config), "--input", str(synth),
                     "--out", str(synth_rad)]) == 0
        radiated = load_profiles(synth_rad, LevelGrid(6))
        assert radiated.fluxes is not None and radiated.fluxes.shape == (40, 7)

        data = tmp_path / "data.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
        data_rad = tmp_path / "data_rad.csv"
        main(["radiate", "--config", str(tiny_config), "--input", str(data), "--out", str(data_rad)])

        mlp = tmp_path / "mlp.json"
        assert main(["train", "--config", str(tiny_config), "--train", str(data_rad),
                     "--val", str(synth_rad), "--out", str(mlp)]) == 0

        metrics = tmp_path / "metrics.csv"
        assert main(["eval", "--config", str(tiny_config), "--model", str(mlp),
                     "--test", str(data_rad), "--case", "demo", "--out", str(metrics)]) == 0
        lines = metrics.read_text().strip().split("\n")
        assert lines[0] == "case,generation,repeat,mb,mae"
        assert lines[1].startswith("demo,")
        assert_numeric_table(metrics)
        assert_numeric_table(tmp_path / "metrics_levels.csv")

        # Re-evaluating is deterministic.
        metrics2 = tmp_path / "metrics2.csv"
        main(["eval", "--config", str(tiny_config), "--model", str(mlp),
              "--test", str(data_rad), "--case", "demo", "--out", str(metrics2)])
        assert metrics.read_text().split("\n")[1] == metrics2.read_text().split("\n")[1]

    def test_train_model_matches_recorded_bytes(self, tiny_config, tmp_path):
        # sha256 recorded before the pipeline and `train` shared one training
        # routine; a changed seed label or recipe changes the bytes.
        data, rad, mlp = tmp_path / "data.csv", tmp_path / "rad.csv", tmp_path / "mlp.json"
        main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
        main(["radiate", "--config", str(tiny_config), "--input", str(data), "--out", str(rad)])
        assert main(["train", "--config", str(tiny_config), "--train", str(rad), "--val", str(rad),
                     "--case", "pin", "--out", str(mlp)]) == 0
        assert hashlib.sha256(mlp.read_bytes()).hexdigest() == (
            "848d9135654e617b0359de7741b4f7f67ee814d5a73791006e37fcdcbcb8a23b")

    def test_eval_rejects_case_label_that_breaks_the_table(self, tiny_config, tmp_path, capsys):
        test = tmp_path / "test.csv"
        save_profiles(test, radiate_set(generate_surrogate(20, LevelGrid(6), 3)))
        mlp = tmp_path / "mlp.json"
        save_mlp(mlp, init_mlp(MLPLayout(18, (8,), 7), 1))
        metrics = tmp_path / "metrics.csv"
        code = main(["eval", "--config", str(tiny_config), "--model", str(mlp), "--test", str(test),
                     "--case", "demo,x", "--out", str(metrics)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:invalid: table cell 'demo,x'")
        assert not metrics.exists()

    def test_missing_file_io_error(self, tiny_config, tmp_path, capsys):
        code = main(["radiate", "--config", str(tiny_config), "--input",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_non_utf8_profile_file_names_the_file(self, tiny_config, tmp_path, capsys):
        data, out = tmp_path / "data.csv", tmp_path / "x.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
        data.write_bytes(data.read_text().encode("utf-16"))  # starts ff fe
        code = main(["radiate", "--config", str(tiny_config), "--input", str(data), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error:schema: {data}: 'utf-8' codec can't decode byte 0xff in position 0")
        assert not out.exists()

    def test_unradiated_train_file_rejected(self, tiny_config, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
        code = main(["train", "--config", str(tiny_config), "--train", str(data),
                     "--val", str(data), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:invalid:")

    def test_old_model_format_schema_error(self, tiny_config, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        doc = json.loads(model.read_text())
        doc["version"] = 1
        model.write_text(json.dumps(doc))
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:schema:") and "version 1" in err

    def test_format_2_model_schema_error(self, tiny_config, tmp_path, capsys):
        # A format-2 artifact fitted the copula on every active column and
        # carried "d" where format 3 carries the ranking map.
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "vine", "--out", str(model)])
        doc = json.loads(model.read_text())
        del doc["ranking"]
        doc.update(version=2, d=len(doc["columns"]))
        model.write_text(json.dumps(doc))
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == ("error:schema: unsupported model format version 2: "
                                           "this build reads version 3; refit the model\n")
        assert not (tmp_path / "s.csv").exists()


    @pytest.mark.parametrize("edit", ["asymmetric", "not-pd"])
    def test_bad_gaussian_correlation_schema_error(self, tiny_config, tmp_path, capsys, edit):
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        doc = json.loads(model.read_text())
        dc = max(doc["ranking"]) + 1  # copula columns, one per ranking
        R = np.asarray(doc["correlation"]).reshape(dc, dc)
        if edit == "asymmetric":
            R[0, 1] += 0.01
        else:
            R = np.full((dc, dc), -0.9)
            np.fill_diagonal(R, 1.0)
        doc["correlation"] = R.ravel().tolist()
        model.write_text(json.dumps(doc))
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:schema: correlation: ")
        assert not (tmp_path / "s.csv").exists()

    def test_ragged_marginals_schema_error(self, tiny_config, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        doc = json.loads(model.read_text())
        del doc["marginals"][0][5:]
        model.write_text(json.dumps(doc))
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:schema: marginals: ")
        assert not (tmp_path / "s.csv").exists()

    def test_columns_not_a_level_grid_schema_error(self, tiny_config, tmp_path, capsys):
        # 3k + 1 columns with a marginal row each used to fail in sampling's
        # split into T, p and tauc blocks, as error:invalid.
        model = tmp_path / "model.json"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        doc = json.loads(model.read_text())
        doc["columns"].append("T_99")
        doc["marginals"].append(doc["marginals"][0])
        model.write_text(json.dumps(doc))
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:schema: columns: expected T_1..T_k")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("count", [-1, 0])
    def test_sample_count_below_one_rejected(self, tiny_config, tmp_path, capsys, count):
        model, out = tmp_path / "model.json", tmp_path / "s.csv"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", str(count), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error:invalid: sample count must be >= 1, got {count}\n"
        assert not out.exists()

    def test_truncated_model_names_the_file(self, tiny_config, tmp_path, capsys):
        model, out = tmp_path / "model.json", tmp_path / "s.csv"
        main(["fit", "--config", str(tiny_config), "--kind", "gaussian", "--out", str(model)])
        model.write_text(model.read_text()[:200])
        code = main(["sample", "--config", str(tiny_config), "--model", str(model),
                     "--count", "5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error:schema: {model}: ")
        assert not out.exists()

    def test_truncated_mlp_names_the_file(self, tiny_config, tmp_path, capsys):
        test, mlp, out = tmp_path / "test.csv", tmp_path / "mlp.json", tmp_path / "m.csv"
        save_profiles(test, radiate_set(generate_surrogate(20, LevelGrid(6), 3)))
        save_mlp(mlp, init_mlp(MLPLayout(18, (8,), 7), 1))
        mlp.write_text(mlp.read_text()[:100])
        code = main(["eval", "--config", str(tiny_config), "--model", str(mlp), "--test", str(test),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error:schema: {mlp}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "mlp.json", "test.csv"]

    def test_malformed_mlp_schema_error(self, tiny_config, tmp_path, capsys):
        mlp = tmp_path / "mlp.json"
        save_mlp(mlp, init_mlp(MLPLayout(18, (8,), 7), 1))
        doc = json.loads(mlp.read_text())
        doc["weights"][0] = [[0.0] * 8] * 17
        mlp.write_text(json.dumps(doc))
        code = main(["eval", "--config", str(tiny_config), "--model", str(mlp),
                     "--test", str(tmp_path / "test.csv"), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error:schema: weights[0]: expected shape (18, 8), got (17, 8)")


class TestPipeline:
    def test_row_completeness_and_labels(self, tmp_path):
        cfg = make_config(TINY)
        result = run_pipeline(cfg, tmp_path / "run")
        # baseline repeats + kinds * factors * (generation * training repeats)
        assert len(result.rows) == 2 + 1 * 1 * (2 * 2)
        cases = {r[0] for r in result.rows}
        assert cases == {"baseline", "gaussian-1x"}

    def test_labels_the_real_data_once(self, tmp_path, monkeypatch):
        # One radiate_set call on all 120 profiles before the split, then one
        # per generation on its 48 synthetic rows.
        sizes = []
        real = experiment.radiate_set
        monkeypatch.setattr(experiment, "radiate_set", lambda s, *a: sizes.append(len(s)) or real(s, *a))
        run_pipeline(make_config(TINY), tmp_path / "run")
        assert sizes == [120, 48, 48]

    def test_data_path_fluxes_are_relabelled(self, tmp_path):
        # Wrong flux columns in a data.path file give the results of the
        # same profiles without flux columns: the pipeline labels them anew.
        profiles = experiment.surrogate_set(make_config(TINY))
        files = {"bare": profiles, "wrong": profiles.with_fluxes(np.ones((len(profiles), 7)))}
        results = []
        for name, data in files.items():
            save_profiles(tmp_path / f"{name}.csv", data)
            cfg = dict(TINY, data=dict(TINY["data"], path=str(tmp_path / f"{name}.csv")))
            run_pipeline(make_config(cfg), tmp_path / name)
            results.append((tmp_path / name / "results.csv").read_bytes())
        assert results[0] == results[1]

    def test_header_only_data_file_fails(self, tmp_path, capsys):
        data, cfg = tmp_path / "empty.csv", tmp_path / "cfg.json"
        data.write_text(",".join(LevelGrid(6).input_labels()) + "\n")
        cfg.write_text(json.dumps(dict(TINY, data=dict(TINY["data"], path=str(data)))))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error:invalid: cannot split an empty ProfileSet\n"

    def test_outputs_present(self, tmp_path):
        run_pipeline(make_config(TINY), tmp_path / "run")
        out = tmp_path / "run"
        for name in ("results.csv", "summary.csv", "manifest.json",
                     "projection_gaussian-1x.csv", "error_quantiles_baseline.csv",
                     "depth_errors_baseline.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_hash" in manifest
        for rel in manifest["files"]:
            assert (out / rel).exists()
            assert_numeric_table(out / rel)

    def test_end_to_end_determinism(self, tmp_path):
        cfg = make_config(TINY)
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        for name in ("results.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_isolation_between_cases(self, tmp_path):
        # Adding a factor must not change the rows of the existing case.
        base = run_pipeline(make_config(TINY), tmp_path / "one")
        extended = dict(TINY)
        extended["augmentation"] = {"factors": [1, 2], "generation_repeats": 2}
        more = run_pipeline(make_config(extended), tmp_path / "two")
        keep = [r for r in more.rows if r[0] in ("baseline", "gaussian-1x")]
        assert keep == base.rows

    def test_cli_pipeline_call(self, tiny_config, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 0
        assert "result rows" in capsys.readouterr().out

    def test_failing_case_skipped_others_continue(self):
        # An unknown kind fails at load; the two tests below pin per-case
        # failures (truncation 0 and factors below 1).
        cfg = dict(TINY, copulas={"kinds": ["bogus", "gaussian"]})
        with pytest.raises(ValueError, match="^config: copulas: kind must be 'gaussian' or 'vine', got 'bogus'"):
            make_config(cfg)

    def test_failing_fit_fails_each_factor(self, tmp_path, capsys):
        cfg = dict(TINY, copulas={"kinds": ["vine", "gaussian"], "truncation": 0},
                   augmentation={"factors": [1, 2], "generation_repeats": 1})
        result = run_pipeline(make_config(cfg), tmp_path / "run")
        reason = "truncation level must be >= 1"
        assert result.failures == [("vine-1x", reason), ("vine-2x", reason)]
        assert {r[0] for r in result.rows} == {"baseline", "gaussian-1x", "gaussian-2x"}
        err = capsys.readouterr().err
        assert f"case vine-1x failed: {reason}" in err and f"case vine-2x failed: {reason}" in err

    def test_factor_below_one_fails_its_case(self, tmp_path, capsys):
        cfg = dict(TINY, augmentation={"factors": [0, -1, 1], "generation_repeats": 1})
        result = run_pipeline(make_config(cfg), tmp_path / "run")
        reason = "augmentation factor must be >= 1"
        assert result.failures == [("gaussian-0x", reason), ("gaussian--1x", reason)]
        assert {r[0] for r in result.rows} == {"baseline", "gaussian-1x"}
        assert f"case gaussian-0x failed: {reason}" in capsys.readouterr().err

    def test_results_match_recorded_sha256(self, tmp_path):
        # Recorded when the copula came to cover one column per distinct
        # ranking; seeds, row order and formatting must not move.  Re-recorded
        # when the likelihood search became Brent's method and again when the
        # vine fit became Kendall tau inversion: each time only the vine rows
        # moved, the baseline and Gaussian rows kept every byte.
        cfg = dict(TINY, copulas={"kinds": ["gaussian", "vine"], "truncation": 2})
        run_pipeline(make_config(cfg), tmp_path / "run")
        digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                   for name in ("results.csv", "summary.csv")}
        assert digests == {
            "results.csv": "9b51810b8e60de1dd170b732577bfe0434730e9243a389491744d7c7bdd27103",
            "summary.csv": "d294b7cd6c6cdde1ef7c6aa436f0a656d485b212ead6f121803a692a43833c54",
        }

    def test_failed_replace_keeps_results(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        run_pipeline(make_config(TINY), out)
        before = (out / "results.csv").read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "results.csv":
                raise OSError("interrupted")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="interrupted"):
            run_pipeline(make_config(dict(TINY, master_seed=12)), out)
        assert (out / "results.csv").read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    def test_rerun_removes_stale_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_pipeline(make_config(TINY), out)
        run_pipeline(make_config(dict(TINY, augmentation={"factors": [2], "generation_repeats": 2})), out)
        assert not list(out.glob("*gaussian-1x*"))
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert "projection_gaussian-2x.csv" in listed
        assert sorted(p.name for p in out.iterdir()) == sorted([*listed, "manifest.json"])
        assert "projection_gaussian-1x.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", ['{"files": "r"}', '{"files": ["../x.csv", "sub/x.csv", "sub"]}',
                                          '{"files": ["x.csv", 3]}', '{"files": ["x.csv"', '["x.csv"]'])
    def test_rerun_keeps_files_a_bad_manifest_names(self, tmp_path, manifest):
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "x.csv", out / "r", out / "x.csv", out / "sub" / "x.csv"]
        for path in kept:
            path.write_text("keep\n")
        (out / "manifest.json").write_text(manifest)
        run_pipeline(make_config(TINY), out)
        assert all(path.exists() for path in kept)

    def test_synthetic_sets_not_written(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(make_config(TINY), out)
        assert not (out / "cache").exists()
        reports = [f"{report}_{case}.csv" for case in ("baseline", "gaussian-1x")
                   for report in ("error_quantiles", "depth_errors")]
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted(listed) == sorted(["results.csv", "summary.csv", "projection_gaussian-1x.csv", *reports])
        assert sorted(p.name for p in out.iterdir()) == sorted([*listed, "manifest.json"])

    def test_leftover_synthetic_file_ignored(self, tmp_path):
        # Earlier versions kept each synthetic set under cache/, by this
        # name for TINY's generation 0, and read it back on a rerun.
        old = tmp_path / "old" / "cache"
        old.mkdir(parents=True)
        (old / "gaussian-1x-gen0-aa91d8dbadc0.csv").write_text("garbage\n1,2,3\n")
        again = run_pipeline(make_config(TINY), tmp_path / "old")
        fresh = run_pipeline(make_config(TINY), tmp_path / "fresh")
        assert again.failures == []
        assert again.rows == fresh.rows

    def test_rerun_into_same_directory_repeats_rows(self, tmp_path):
        cfg = make_config(TINY)
        a = run_pipeline(cfg, tmp_path / "same")
        b = run_pipeline(cfg, tmp_path / "same")
        assert a.rows == b.rows

    def test_cache_keyed_by_synthesis_inputs(self, tmp_path):
        # A run into a directory another master seed left behind must
        # give the rows of a run into an empty directory.
        reseeded = dict(TINY, master_seed=12)
        run_pipeline(make_config(TINY), tmp_path / "shared")
        stale = run_pipeline(make_config(reseeded), tmp_path / "shared")
        fresh = run_pipeline(make_config(reseeded), tmp_path / "fresh")
        assert stale.rows == fresh.rows

    def test_master_seed_changes_every_run(self, tmp_path):
        a = run_pipeline(make_config(TINY), tmp_path / "a")
        reseeded = dict(TINY)
        reseeded["master_seed"] = 12
        b = run_pipeline(make_config(reseeded), tmp_path / "b")
        metrics_a = {(r[0], r[1], r[2]): (r[3], r[4]) for r in a.rows}
        metrics_b = {(r[0], r[1], r[2]): (r[3], r[4]) for r in b.rows}
        assert set(metrics_a) == set(metrics_b)
        assert all(metrics_a[k] != metrics_b[k] for k in metrics_a)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tipo": 1}))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1


@pytest.mark.parametrize("config, message", [
    ({"training": 5}, "training: expected an object"),
    ({"data": {"n_levels": None}}, "data.n_levels: expected an integer"),
    ([1, 2], "top level: expected an object"),
    ({"training": {"hidden": "abc"}}, "training.hidden: expected a list of integers"),
    ({"training": {"epochs": True}}, "training.epochs: expected an integer"),
    ({"evaluation": {"depth_curves": "x"}}, "evaluation.depth_curves: expected an integer"),
    ({"copulas": {"kinds": ["vine"], "truncation": "x"}},
     "copulas.truncation: expected an integer or null"),
    ({"data": {"path": 3}}, "data.path: expected a string or null"),
    ({"split": {"train": "0.4"}}, "split.train: expected a number"),
    ({"training": {"epoch": 5}}, "unknown keys: ['training.epoch']"),
    ({"radiation": {"diffusivity": float("nan")}}, "radiation.diffusivity: expected a finite number"),
    ({"split": {"val": -0.2}}, "split: val fraction must be positive"),
    ({"training": {"epochs": 10, "patience": 11}}, "training: patience must not exceed the epoch limit"),
    ({"training": {"learning_rate": 0}}, "training: learning_rate, huber_delta and adam_eps must be positive"),
    ({"training": {"adam_eps": -1e-8}}, "training: learning_rate, huber_delta and adam_eps must be positive"),
    ({"training": {"beta1": -0.9}}, "training: beta1 and beta2 must lie in [0, 1)"),
    ({"radiation": {"diffusivity": 0}}, "radiation: radiation constants must be positive (tau_g >= 0)"),
    ({"data": {"n_levels": 0}}, "data: n_full must be >= 1, got 0"),
    ({"copulas": {"catalogue": ["gaussian", "normal"]}}, "copulas: 'normal' is not a valid Family"),
    ({"copulas": {"kinds": ["gaussian", "bogus"]}}, "copulas: kind must be 'gaussian' or 'vine', got 'bogus'"),
    ({"training": {"hidden": [0]}}, "training: all layer widths must be >= 1, got (18, 0, 7)"),
    ({"data": {"n_profiles": 0}}, "data: n_profiles must be >= 1, got 0"),
    ({"evaluation": {"projection_iterations": 0}}, "evaluation: projection_iterations must be >= 1, got 0"),
    ({"evaluation": {"depth_curves": -1}}, "evaluation: depth_curves must be >= 0, got -1"),
    ({"training": {"repeats": 0}}, "training: repeats must be >= 1, got 0"),
    ({"augmentation": {"generation_repeats": 0}}, "augmentation: generation_repeats must be >= 1, got 0"),
    ({"copulas": {"kinds": ["gaussian", "vine", "gaussian"]}},
     "copulas: kinds must be distinct, got ['gaussian', 'vine', 'gaussian']"),
    ({"augmentation": {"factors": [1, 1]}}, "augmentation: factors must be distinct, got [1, 1]"),
])
def test_malformed_config_fails_at_load(tmp_path, capsys, config, message):
    def merged(base, fault):
        if not (isinstance(base, dict) and isinstance(fault, dict)):
            return fault
        return {**base, **{key: merged(base.get(key), value) for key, value in fault.items()}}

    # Faults go into the desk-size TINY config, so one that loads by mistake
    # runs a small pipeline instead of the full default experiment.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(merged(TINY, config)))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error:invalid: config: {message}\n"
    assert not out.exists()


def test_split_without_test_rows_fails_invalid(tmp_path, capsys):
    # 0.5 and 0.5 of 40 profiles round to all 40 rows; none is left to score on.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, data={"n_profiles": 40, "n_levels": 6},
                                    split={"train": 0.5, "val": 0.5, "test": 1e-10})))
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error:invalid: split fractions leave no room for the test set\n"


@pytest.mark.parametrize("command, p_top", [("fit", 0.0), ("radiate", -50.0)])
def test_nonpositive_pressure_file_fails_schema(tmp_path, capsys, command, p_top):
    # Pressures that increase but start at or below zero must fail the file
    # check: a copula artifact fitted on them would not load for sampling.
    cfg = {"master_seed": 11, "data": {"n_profiles": 200, "n_levels": 3}}
    data = tmp_path / "data.csv"
    (tmp_path / "gen.json").write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(data)]) == 0
    header, *rows = data.read_text().splitlines()
    cells = rows[3].split(",")
    cells[header.split(",").index("p_1")] = repr(p_top)
    rows[3] = ",".join(cells)
    data.write_text("\n".join([header, *rows]) + "\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, data={"path": str(data), "n_levels": 3})))
    out = tmp_path / "out.json"
    args = {"fit": ["--kind", "gaussian"], "radiate": ["--input", str(data)]}[command]
    assert main([command, "--config", str(path), *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error:schema: {data}: row 3: pressure must be positive everywhere\n")
    assert not out.exists()


def test_show_config_and_default_hash_match_recorded_sha256(capsys):
    # Recorded when each stage default moved into its stage type; a changed
    # default, key or key order changes these.
    assert main(["show-config"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "b94b2f96b919f2d8ac087761d59f82e5c86caa9accc096cc02c5858657c5e82f")
    assert make_config({}).config_hash() == (
        "e96b81ac7b9f4ef366947309534d05c35b3fd2b4afe4a905773e429e82de7653")


def test_truncated_config_names_the_file(tiny_config, tmp_path, capsys):
    tiny_config.write_text(tiny_config.read_text()[:40])
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(tiny_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error:invalid: config: {tiny_config}: ")
    assert not out.exists()


def test_config_shares_nothing_with_the_defaults(monkeypatch):
    # A copy, so that a shared list edited here cannot leak into later tests.
    monkeypatch.setattr(experiment, "_DEFAULTS", copy.deepcopy(experiment._DEFAULTS))
    make_config({}).raw["augmentation"]["factors"].append(99)
    again = make_config({})
    assert again.factors == (1, 5, 10)
    assert again.config_hash() == "e96b81ac7b9f4ef366947309534d05c35b3fd2b4afe4a905773e429e82de7653"


def test_config_shares_nothing_with_the_overrides():
    doc = {"augmentation": {"factors": [2]}}
    cfg = make_config(doc)
    digest = cfg.config_hash()
    doc["augmentation"]["factors"].append(3)
    assert cfg.raw["augmentation"]["factors"] == [2] and cfg.config_hash() == digest


def test_config_accepts_json_types():
    cfg = make_config({"data": {"path": None}, "copulas": {"truncation": None, "kinds": []},
                       "training": {"learning_rate": 1, "hidden": [4, 3]}})
    assert cfg.raw["training"]["learning_rate"] == 1 and cfg.layout.hidden == (4, 3)
    assert [spec.truncation for spec in make_config({"copulas": {"truncation": 3}}).copulas] == [3, 3]


@pytest.mark.parametrize("kind", ["mlp", "copula"])
def test_failed_replace_keeps_model_json(tmp_path, monkeypatch, kind):
    path = tmp_path / "model.json"
    path.write_text("previous model\n")
    if kind == "mlp":
        model, save = init_mlp(MLPLayout(18, (8,), 7), 1), save_mlp
    else:
        model, save = fit_synth_model(generate_surrogate(40, LevelGrid(3), 1), CopulaSpec()), save_model

    def crash(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="interrupted"):
        save(path, model)
    assert path.read_text() == "previous model\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
