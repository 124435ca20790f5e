import json
import logging
import sys
from pathlib import Path

import pytest
import yaml

from dataprice.cli import (ConfigError, config_hash, load_config, main,
                           up_to_date)

STAGES = ["ingest", "featurize", "select", "train", "evaluate", "explain",
          "curve", "report"]


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "out_dir": str(tmp_path / "run"),
        "data": {"synthetic": 40},
        "representations": ["bow"],
        "families": ["linear", "gbt"],
        "select": {"representation": "bow", "m": 5},
        "train": {"representation": "bow", "family": "gbt"},
        "explain": {"rows": 5, "background_rows": 10, "n_samples": 64},
        "curve": {"representation": "bow", "family": "gbt",
                  "m_values": [1, 2]},
        "hyperparameters": {"gbt": {"n_rounds": 5},
                            "forest": {"n_trees": 3}},
    }
    for k, v in overrides.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path, cfg


def run(stage, config, *extra):
    return main([stage, "--config", str(config), *extra])


# ---------------------------------------------------------- config loading ---

class TestLoadConfig:
    def test_unknown_family_cites_field_path(self, tmp_path):
        path, _ = write_config(tmp_path, families=["linear", "gbt", "catboost"])
        with pytest.raises(ConfigError, match=r"families\[2\]: unknown family 'catboost'"):
            load_config(path)

    def test_unknown_representation_cites_field_path(self, tmp_path):
        path, _ = write_config(tmp_path, representations=["bow", "glove"])
        with pytest.raises(ConfigError, match=r"representations\[1\]"):
            load_config(path)

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("out_dir: x\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_bad_task(self, tmp_path):
        path, _ = write_config(tmp_path, target={"task": "ranking"})
        with pytest.raises(ConfigError, match="target.task"):
            load_config(path)

    def test_bad_m_values(self, tmp_path):
        path, _ = write_config(tmp_path,
                               curve={"representation": "bow", "family": "gbt",
                                      "m_values": [5, 2]})
        with pytest.raises(ConfigError, match="m_values"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_unknown_hyperparameter_key(self, tmp_path):
        path, _ = write_config(tmp_path, hyperparameters={"max_term": 30})
        with pytest.raises(ConfigError, match=r"hyperparameters\.max_term: unknown"):
            load_config(path)

    def test_unknown_family_hyperparameter(self, tmp_path):
        # a typo must not silently run the default n_rounds
        path, _ = write_config(tmp_path, hyperparameters={"gbt": {"n_round": 5}})
        with pytest.raises(ConfigError, match=r"hyperparameters\.gbt\.n_round: unknown"):
            load_config(path)
        assert run("evaluate", path) == 1

    @pytest.mark.parametrize("hp, message", [
        ({"max_terms": "abc"}, r"hyperparameters\.max_terms: must be an integer"),
        ({"gbt": {"n_rounds": 0.5}}, r"hyperparameters\.gbt\.n_rounds: must be an integer"),
        ({"gbt": {"n_rounds": True}}, r"hyperparameters\.gbt\.n_rounds: must be an integer"),
        ({"svr": {"epsilon": "0.1"}}, r"hyperparameters\.svr\.epsilon: must be a number"),
        ({"svm": {"C": False}}, r"hyperparameters\.svm\.C: must be a number"),
        ({"svm": {"kernel": 3}}, r"hyperparameters\.svm\.kernel: must be a string"),
        ({"mlp": {"hidden": []}}, r"hyperparameters\.mlp\.hidden: must be a non-empty list"),
        ({"mlp": {"hidden": [16, 0]}}, r"hyperparameters\.mlp\.hidden: must be a non-empty"),
        ({"mlp": {"hidden": 32}}, r"hyperparameters\.mlp\.hidden: must be a non-empty"),
        ({"gbt": 5}, r"hyperparameters\.gbt: must be a mapping"),
        # forests no longer take a thread count; the CV grid runs on processes
        ({"forest": {"n_threads": 2}}, r"hyperparameters\.forest\.n_threads: unknown key"),
    ])
    def test_hyperparameter_value_of_wrong_type(self, tmp_path, hp, message):
        # a wrong value must not surface later as a runtime failure (exit 2)
        # or as grid cells that all fail while the stage exits 0
        path, _ = write_config(tmp_path, hyperparameters=hp)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert run("featurize", path) == 1
        assert run("evaluate", path) == 1

    @pytest.mark.parametrize("stage, section, message", [
        # select kept 3 features and exited 0
        ("select", {"select": {"m": 2.5}}, r"select\.m: must be an integer"),
        # select exited 2 with a str/int TypeError
        ("select", {"select": {"n_bins": "x"}}, r"select\.n_bins: must be an integer"),
        # explain exited 1 with no field path
        ("explain", {"explain": {"rows": "abc"}}, r"explain\.rows: must be an integer"),
        ("ingest", {"data": {"synthetic": "40"}}, r"data\.synthetic: must be null or an integer"),
        ("ingest", {"data": {"path": 3}}, r"data\.path: must be null or a string"),
        ("train", {"train": {"family": None}}, r"train\.family: must be a string"),
        ("annotate", {"annotate": {"timeout": "30"}}, r"annotate\.timeout: must be a number"),
        ("select", {"select": 5}, r"select: must be a mapping"),
        # featurize and evaluate exited 1 with no field path; threads now
        # sizes a process pool
        ("evaluate", {"threads": "x"}, r"threads: must be an integer >= 1"),
        ("evaluate", {"threads": 0}, r"threads: must be an integer >= 1"),
        ("evaluate", {"threads": True}, r"threads: must be an integer >= 1"),
        # ingest exited 2 with a path TypeError
        ("ingest", {"out_dir": 5}, r"out_dir: must be a string"),
    ])
    def test_run_value_of_wrong_type(self, tmp_path, stage, section, message):
        path, _ = write_config(tmp_path, **section)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert run(stage, path) == 1

    def test_run_values_of_the_default_types_load(self, tmp_path):
        path, _ = write_config(
            tmp_path, data={"synthetic": None, "path": "x.csv"},
            annotate={"input": "raw.csv", "endpoint": None, "timeout": 5,
                      "cache_dir": "cache"})
        cfg = load_config(path)
        assert cfg["annotate"]["timeout"] == 5
        assert cfg["data"]["path"] == "x.csv"

    def test_hyperparameter_values_of_the_default_types_load(self, tmp_path):
        hp = {"max_terms": 50, "svm": {"C": 10, "kernel": "linear", "tol": 0.01},
              "svr": {"epsilon": 0.2}, "mlp": {"hidden": [16, 8]},
              "forest": {"n_trees": 10}}
        path, _ = write_config(tmp_path, hyperparameters=hp)
        assert load_config(path)["hyperparameters"]["svm"]["C"] == 10

    def test_benchmark_hyperparameters_load(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import worker
        for hp in (worker.PIPELINE_REG["hyperparameters"],
                   worker.GRID_TIERS["hyperparameters"],
                   dict(worker.PIPELINE_REG["hyperparameters"],
                        **worker.SMOKE_HYPERPARAMETERS)):
            path, _ = write_config(tmp_path, hyperparameters=hp)
            load_config(path)

    def test_defaults_filled_in(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg["cv"]["k"] == 5
        assert cfg["threads"] == 1


class TestConfigHash:
    def test_threads_not_part_of_identity(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        other = dict(cfg, threads=8)
        assert config_hash(cfg) == config_hash(other)

    def test_seed_changes_hash(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert config_hash(cfg) != config_hash(dict(cfg, seed=8))


# ----------------------------------------------------------- full pipeline ---

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    config, raw = write_config(tmp)
    for stage in STAGES:
        assert run(stage, config) == 0, "stage %s failed" % stage
    return tmp, config, Path(raw["out_dir"])


class TestPipeline:
    def test_all_artifacts_written(self, pipeline):
        _, _, out = pipeline
        expected = ["products.jsonl", "descriptive_stats.csv",
                    "features_bow.csv", "features_structured.csv",
                    "selection_bow.csv", "model_bow_gbt.json",
                    "report_regression.csv", "report_regression.txt",
                    "importance.csv", "beeswarm.csv", "curve_bow_gbt.csv",
                    "report/SUMMARY.txt", "report/report_regression.csv"]
        for f in expected:
            assert (out / f).exists(), f

    def test_manifests_written_per_stage(self, pipeline):
        _, _, out = pipeline
        for stage in STAGES:
            mpath = out / ("%s.manifest.json" % stage)
            assert mpath.exists()
            manifest = json.loads(mpath.read_text())
            assert manifest["stage"] == stage
            assert manifest["config_hash"]

    def test_rerun_is_idempotent_and_byte_identical(self, pipeline, caplog):
        _, config, out = pipeline
        watched = ["products.jsonl", "features_bow.csv", "selection_bow.csv",
                   "model_bow_gbt.json", "report_regression.csv",
                   "curve_bow_gbt.csv"]
        before = {f: (out / f).read_bytes() for f in watched}
        with caplog.at_level(logging.INFO, logger="dataprice"):
            for stage in STAGES:
                assert run(stage, config) == 0
        assert caplog.text.count("up-to-date") == len(STAGES)
        for f in watched:
            assert (out / f).read_bytes() == before[f]

    def test_report_reassembles_when_a_source_changes_or_appears(self, tmp_path, caplog):
        config, raw = write_config(tmp_path)
        out = Path(raw["out_dir"])
        for stage in ["ingest", "featurize", "evaluate", "curve", "report"]:
            assert run(stage, config) == 0
        edited = (out / "report_regression.csv").read_text() + "# edited\n"
        (out / "report_regression.csv").write_text(edited)
        with caplog.at_level(logging.INFO, logger="dataprice"):
            assert run("report", config) == 0
        assert "report: up-to-date" not in caplog.text
        assert (out / "report" / "report_regression.csv").read_text() == edited
        # a newly produced optional artifact is a new source
        assert run("train", config) == 0 and run("explain", config) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="dataprice"):
            assert run("report", config) == 0
        assert "report: up-to-date" not in caplog.text
        assert (out / "report" / "importance.csv").exists()

    def test_thread_cap_does_not_invalidate_artifacts(self, pipeline, caplog):
        _, config, out = pipeline
        with caplog.at_level(logging.INFO, logger="dataprice"):
            assert run("evaluate", config, "--threads", "4") == 0
        assert "evaluate: up-to-date" in caplog.text

    def test_report_summary_lists_artifacts(self, pipeline):
        _, _, out = pipeline
        summary = (out / "report" / "SUMMARY.txt").read_text()
        assert "config hash:" in summary
        assert "report_regression.csv" in summary

    def test_selection_csv_well_formed(self, pipeline):
        _, _, out = pipeline
        lines = (out / "selection_bow.csv").read_text().splitlines()
        assert len(lines) == 1 + 5  # header + m selected features


@pytest.mark.parametrize("family", ["linear", "mlp", "svm"])
def test_explain_classifier_with_kernel_method(tmp_path, family):
    config, raw = write_config(tmp_path, target={"task": "classification"},
                               train={"representation": "bow", "family": family})
    out = Path(raw["out_dir"])
    for stage in ["ingest", "featurize", "train", "explain"]:
        assert run(stage, config) == 0, "stage %s failed" % stage
    assert (out / "importance.csv").exists()
    assert len((out / "beeswarm.csv").read_text().splitlines()) > 1


class TestFailureModes:
    def test_missing_artifact_names_prior_stage(self, tmp_path, caplog):
        config, _ = write_config(tmp_path)
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            code = run("featurize", config)
        assert code == 1
        assert "run `dataprice ingest` first" in caplog.text

    def test_train_before_featurize(self, tmp_path, caplog):
        config, _ = write_config(tmp_path)
        assert run("ingest", config) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("train", config) == 1
        assert "run `dataprice featurize` first" in caplog.text

    def test_invalid_config_exits_1(self, tmp_path):
        config, _ = write_config(tmp_path, families=["catboost"])
        assert run("ingest", config) == 1

    def test_ingest_needs_data_source(self, tmp_path, caplog):
        config, _ = write_config(tmp_path, data={"synthetic": None})
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("ingest", config) == 1
        assert "data.path" in caplog.text

    def test_annotate_needs_input(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert run("annotate", config) == 1

    def test_report_refuses_mismatched_config_hash(self, tmp_path, caplog):
        config, raw = write_config(tmp_path)
        for stage in ["ingest", "featurize", "evaluate", "curve"]:
            assert run(stage, config) == 0
        # same artifacts, different identity
        config2, _ = write_config(tmp_path, seed=8,
                                  out_dir=raw["out_dir"])
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("report", config2) == 1
        assert "different configuration" in caplog.text

    @pytest.mark.parametrize("stage, output", [("select", "selection_bow.csv"),
                                               ("train", "model_bow_gbt.json")])
    def test_refuses_features_of_another_config(self, tmp_path, caplog, stage, output):
        config, raw = write_config(tmp_path, hyperparameters={"max_terms": 300})
        for st in ["ingest", "featurize"]:
            assert run(st, config) == 0
        # the features keep their 300-term vocabulary under a 20-term config
        config, _ = write_config(tmp_path, hyperparameters={"max_terms": 20})
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run(stage, config) == 1
        assert ("featurize artifacts were produced with a different "
                "configuration; rerun `dataprice featurize`") in caplog.text
        assert not (Path(raw["out_dir"]) / output).exists()

    def test_explain_refuses_model_of_another_config(self, tmp_path, caplog):
        config, raw = write_config(tmp_path)
        for st in ["ingest", "featurize", "train"]:
            assert run(st, config) == 0
        config, _ = write_config(tmp_path, explain={"rows": 3})
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("explain", config) == 1
        assert ("train artifacts were produced with a different "
                "configuration; rerun `dataprice train`") in caplog.text
        assert not (Path(raw["out_dir"]) / "importance.csv").exists()

    def test_explain_refuses_features_of_another_config(self, tmp_path, caplog):
        config, raw = write_config(tmp_path, hyperparameters={"max_terms": 300})
        for st in ["ingest", "featurize", "train"]:
            assert run(st, config) == 0
        # the features are refitted under another config after training
        (tmp_path / "other").mkdir()
        other, _ = write_config(tmp_path / "other", out_dir=raw["out_dir"],
                                hyperparameters={"max_terms": 20})
        assert run("featurize", other) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("explain", config) == 1
        assert ("featurize artifacts were produced with a different "
                "configuration; rerun `dataprice featurize`") in caplog.text
        assert not (Path(raw["out_dir"]) / "importance.csv").exists()

    def test_report_before_evaluate(self, tmp_path, caplog):
        config, _ = write_config(tmp_path)
        assert run("ingest", config) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("report", config) == 1
        assert "run `dataprice evaluate` first" in caplog.text

    def test_bad_threads_flag(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert run("ingest", config, "--threads", "0") == 1

    def test_runtime_failure_exits_2(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the output directory should go")
        config, _ = write_config(tmp_path, out_dir=str(blocker))
        assert run("ingest", config) == 2


class TestUpToDate:
    def test_missing_manifest(self, tmp_path):
        assert not up_to_date(tmp_path, "ingest", "abc", [])

    def test_input_change_invalidates(self, tmp_path, caplog):
        config, raw = write_config(tmp_path)
        out = Path(raw["out_dir"])
        assert run("ingest", config) == 0
        assert run("featurize", config) == 0
        # rewriting the corpus invalidates the featurize manifest
        text = (out / "products.jsonl").read_text().splitlines()
        (out / "products.jsonl").write_text("\n".join(text[:-1]) + "\n")
        with caplog.at_level(logging.INFO, logger="dataprice"):
            assert run("featurize", config) == 0
        assert "featurize: up-to-date" not in caplog.text


class TestThreadsInvariance:
    def test_reports_byte_identical_across_thread_counts(self, tmp_path):
        outputs = {}
        for threads in ("1", "3"):
            sub = tmp_path / ("t%s" % threads)
            sub.mkdir()
            config, raw = write_config(sub, families=["forest"])
            for stage in ["ingest", "featurize", "evaluate"]:
                assert run(stage, config, "--threads", threads) == 0
            outputs[threads] = (Path(raw["out_dir"])
                                / "report_regression.csv").read_bytes()
        assert outputs["1"] == outputs["3"]
