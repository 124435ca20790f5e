import copy
import json
import logging
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dataprice import cli
from dataprice.cli import (_RULES, DEFAULT_RUN, ConfigError, config_hash,
                           load_config, main, up_to_date)
from dataprice.corpus import load_products, save_products
from dataprice.evaluate import DEFAULT_CONFIG, FAMILIES, REPRESENTATIONS
from dataprice.synth import generate_products

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
        ({"svm": {"kernel": "poly"}}, r"hyperparameters\.svm\.kernel: unknown kernel 'poly'"),
        # evaluate logged every mlp cell as a cell failure and exited 0
        ({"mlp": {"lr": float("inf")}}, r"hyperparameters\.mlp\.lr: must be a number > 0, got inf"),
    ])
    def test_hyperparameter_value_of_wrong_type(self, tmp_path, hp, message):
        # a wrong value must not surface later as a runtime failure (exit 2)
        # or as grid cells that all fail while the stage exits 0
        path, _ = write_config(tmp_path, hyperparameters=hp)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert run("featurize", path) == 1
        assert run("evaluate", path) == 1

    @pytest.mark.parametrize("hp, message", [
        # evaluate logged every gbt cell as a cell failure and exited 0
        ({"gbt": {"n_rounds": 0}}, r"hyperparameters\.gbt\.n_rounds: must be >= 1, got 0"),
        ({"gbt": {"n_rounds": -3}}, r"hyperparameters\.gbt\.n_rounds: must be >= 1"),
        ({"forest": {"n_trees": 0}}, r"hyperparameters\.forest\.n_trees: must be >= 1, got 0"),
        ({"gbt": {"lam": -0.5}}, r"hyperparameters\.gbt\.lam: must be >= 0, got -0\.5"),
        # evaluate logged every svm cell as a cell failure and exited 0
        ({"svr": {"C": 0}}, r"hyperparameters\.svr\.C: must be > 0, got 0"),
        # these loaded and every stage exited 0
        ({"mlp": {"lr": -1}}, r"hyperparameters\.mlp\.lr: must be > 0, got -1"),
        ({"gbt": {"learning_rate": -1}},
         r"hyperparameters\.gbt\.learning_rate: must be > 0, got -1"),
        ({"cart": {"max_depth": -1}}, r"hyperparameters\.cart\.max_depth: must be >= 0, got -1"),
        ({"svr": {"max_iter": 0}}, r"hyperparameters\.svr\.max_iter: must be >= 1, got 0"),
        # featurize exited 1 with the fitter's message, naming no key
        ({"lda": {"n_topics": 0}}, r"hyperparameters\.lda\.n_topics: must be >= 1, got 0"),
        ({"max_terms": 5}, r"hyperparameters\.lda\.n_topics: must be at most "
                           r"hyperparameters\.max_terms, 5, got 8"),
    ])
    def test_hyperparameter_below_its_lower_bound(self, tmp_path, hp, message):
        path, _ = write_config(tmp_path, hyperparameters=hp)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert run("evaluate", path) == 1

    @pytest.mark.parametrize("explain, message", [
        # explained every row but the last and exited 0
        ({"rows": -1}, r"explain\.rows: must be >= 1, got -1"),
        ({"rows": 0}, r"explain\.rows: must be >= 1, got 0"),
        # wrote NaN importances and exited 0
        ({"background_rows": 0}, r"explain\.background_rows: must be >= 1, got 0"),
        ({"background_rows": -2}, r"explain\.background_rows: must be >= 1"),
        # put all the attribution on the last column and exited 0
        ({"n_samples": 0}, r"explain\.n_samples: must be >= 2, got 0"),
        ({"n_samples": 1}, r"explain\.n_samples: must be >= 2, got 1"),
        ({"n_samples": -8}, r"explain\.n_samples: must be >= 2"),
    ])
    def test_explain_value_below_its_lower_bound(self, tmp_path, explain, message):
        path, _ = write_config(tmp_path, explain=explain)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert run("explain", path) == 1

    def test_explain_values_at_their_lower_bounds_load(self, tmp_path):
        bounds = {"rows": 1, "background_rows": 1, "n_samples": 2,
                  "keyword_dims": 0, "top_k": 1}
        path, _ = write_config(tmp_path, explain=bounds)
        assert load_config(path)["explain"] == bounds

    def test_hyperparameters_at_their_lower_bounds_load(self, tmp_path):
        # a bound "> 0" is met by the least positive float
        least = 5e-324
        hp = {"max_terms": 2,
              "word2vec": {"d": 1, "window": 1, "epochs": 1, "lr": least,
                           "negatives": 0},
              "lda": {"n_topics": 1, "iterations": 1, "beta": least},
              "bertopic": {"reduce_dims": 1, "n_clusters": 1},
              "linear": {"ridge": 0}, "logistic": {"lr": least, "epochs": 1},
              "mlp": {"hidden": [1], "epochs": 1, "lr": least, "batch_size": 1},
              "cart": {"max_depth": 0, "min_leaf": 1},
              "svm": {"C": least, "gamma": 0, "tol": 0},
              "svr": {"C": least, "epsilon": 0, "gamma": 0, "max_iter": 1},
              "forest": {"n_trees": 1, "max_depth": 0, "min_leaf": 1},
              "gbt": {"n_rounds": 1, "learning_rate": least, "lam": 0,
                      "max_depth": 0, "min_leaf": 1}}
        path, _ = write_config(tmp_path, hyperparameters=hp)
        assert load_config(path)["hyperparameters"] == hp

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
        ("ingest", {"data": {"synthetic": 0}}, r"data\.synthetic: must be >= 2, got 0"),
        ("ingest", {"data": {"format": "xml"}}, r"data\.format: unknown format 'xml'"),
        # select exited 1 with the fitter's message, naming no key
        ("select", {"select": {"m": 0}}, r"select\.m: must be >= 1, got 0"),
        # a misspelt key silently ran its default
        ("select", {"select": {"mm": 5}}, r"select\.mm: unknown key"),
        ("ingest", {"representation": ["bow"]}, r"representation: unknown key"),
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


# ------------------------------------------------------------ config rules ---

SCHEMA = dict(DEFAULT_RUN, hyperparameters=DEFAULT_CONFIG)

# every representation and family, on hyperparameters that make a run short
CHEAP = {
    "seed": 3, "data": {"synthetic": 20},
    "representations": list(REPRESENTATIONS), "families": list(FAMILIES),
    "select": {"m": 3},
    "hyperparameters": {
        "max_terms": 30, "word2vec": {"d": 4, "epochs": 1},
        "lda": {"n_topics": 2, "iterations": 5},
        "bertopic": {"reduce_dims": 2, "n_clusters": 2},
        "logistic": {"epochs": 20}, "mlp": {"hidden": [4], "epochs": 5},
        "svr": {"max_iter": 50}, "forest": {"n_trees": 2}, "gbt": {"n_rounds": 2},
    },
}


def schema_default(path: str):
    node = SCHEMA
    for key in path.split("."):
        node = node[key]
    return node


def leaves(node: dict, at: str = ""):
    for key, value in node.items():
        where = "%s.%s" % (at, key) if at else key
        if isinstance(value, dict):
            yield from leaves(value, where)
        else:
            yield where, value


def mutations(path: str) -> list:
    """(value, must_fail) pairs for the key at path. A value of a wrong type
    or outside the choices must fail; the bound and one step to either side
    of it may load or fail."""
    rule, default = _RULES[path], schema_default(path)
    many = isinstance(default, list)
    real = isinstance(default[0] if many else default, float)
    if isinstance(rule, str):
        limit = float(rule.split()[1]) if real else int(rule.split()[1])
        step = 1e-6 if real else 1
        may, must = [limit - step, limit, limit + step], ["x", True]
        must += [float("inf")] if real else [2.5]
    else:
        may, must = [], ["nope", 3, True]
    if many:
        may, must = [[v] for v in may], [[v] for v in must] + [[], "x"]
    return [(v, False) for v in may] + [(v, True) for v in must]


def check_mutation(path: str, value, must_fail: bool, task: str, tmp: Path):
    """CHEAP with one key set to value either fails to load with an error
    that names the key, or runs ingest ... evaluate with every stage
    exiting 0 and no cell failing."""
    cfg = copy.deepcopy(CHEAP)
    cfg.update(out_dir=str(tmp / "run"), target={"task": task})
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    config = tmp / "run.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    try:
        load_config(config)
    except ConfigError as exc:
        assert path in str(exc)
        return
    assert not must_fail, "%s: %r loaded" % (path, value)
    # data.synthetic sizes the data, which the run holds at 20 listings
    stages = ["ingest"] if path == "data.synthetic" else [
        "ingest", "featurize", "select", "train", "evaluate"]
    assert [run(stage, config) for stage in stages] == [0] * len(stages)
    if "evaluate" in stages:
        report = (tmp / "run" / ("report_%s.txt" % cfg["target"]["task"])).read_text()
        assert "cell failures" not in report


class TestConfigRules:
    def test_every_numeric_default_has_a_rule(self):
        numeric = [path for path, value in leaves(SCHEMA)
                   if isinstance(value, (int, float))
                   or isinstance(value, list) and isinstance(value[0], int)]
        assert sorted(set(numeric) - set(_RULES)) == []

    def test_every_rule_names_a_key(self):
        for path in _RULES:
            schema_default(path)

    def test_defaults_keep_their_rules(self, tmp_path):
        path, _ = write_config(tmp_path, seed=0, hyperparameters=DEFAULT_CONFIG)
        load_config(path)

    def test_readme_config_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```yaml\n# run.yaml\n")[1]
        path = tmp_path / "run.yaml"
        path.write_text(block.split("```")[0], encoding="utf-8")
        assert load_config(path)["hyperparameters"]["gbt"] == {"n_rounds": 30}

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(_RULES)).flatmap(
               lambda path: st.tuples(st.just(path), st.sampled_from(mutations(path)))),
           st.sampled_from(["regression", "classification"]))
    def test_a_mutated_key_fails_at_load_or_runs_clean(self, mutation, task):
        path, (value, must_fail) = mutation
        with tempfile.TemporaryDirectory() as tmp:
            check_mutation(path, value, must_fail, task, Path(tmp))


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

    def test_report_leaves_out_another_configs_artifacts(self, tmp_path):
        # keywords explained under word2vec are not this bow run's
        small = {"word2vec": {"d": 8, "epochs": 1}, "gbt": {"n_rounds": 5}}
        for rep in ["word2vec", "bow"]:
            config, raw = write_config(tmp_path, hyperparameters=small,
                                       representations=["bow", "word2vec"],
                                       train={"representation": rep})
            for stage in STAGES:
                assert run(stage, config) == 0, "stage %s failed" % stage
            report = Path(raw["out_dir"]) / "report"
            assert ((report / "embedding_keywords.csv").exists()
                    == (rep == "word2vec"))
            assert (("embedding_keywords.csv" in (report / "SUMMARY.txt").read_text())
                    == (rep == "word2vec"))
        assert (report / "importance.csv").exists()

    @pytest.mark.parametrize("select, train, written", [
        ("tfidf", "word2vec", ["features_tfidf.csv", "embedding_word2vec.txt",
                               "features_word2vec.csv"]),
        ("bow", "bow", ["features_bow.csv"]),
    ])
    def test_featurize_writes_only_what_select_and_train_read(self, tmp_path, select,
                                                              train, written):
        config, raw = write_config(
            tmp_path, representations=list(REPRESENTATIONS),
            select={"representation": select}, train={"representation": train},
            hyperparameters={"word2vec": {"d": 8, "epochs": 1}})
        out = Path(raw["out_dir"])
        for stage in ["ingest", "featurize"]:
            assert run(stage, config) == 0
        outputs = written + ["features_structured.csv"]
        manifest = json.loads((out / "featurize.manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted(
            outputs + ["descriptive_stats.csv", "featurize.manifest.json",
                       "ingest.manifest.json", "products.jsonl"])

    def test_featurize_fits_one_table_for_word2vec_and_bertopic(self, tmp_path,
                                                              monkeypatch):
        config, raw = write_config(
            tmp_path, select={"representation": "word2vec"},
            train={"representation": "bertopic"},
            hyperparameters={"word2vec": {"d": 8, "epochs": 1},
                             "bertopic": {"n_clusters": 3}})
        calls, real = [], cli._fit_embedding_table

        def fit_embedding_table(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_fit_embedding_table", fit_embedding_table)
        for stage in ["ingest", "featurize"]:
            assert run(stage, config) == 0
        assert len(calls) == 1
        manifest = json.loads((Path(raw["out_dir"]) / "featurize.manifest.json")
                              .read_text())
        assert manifest["outputs"] == [
            "embedding_word2vec.txt", "features_word2vec.csv",
            "features_bertopic.csv", "features_structured.csv"]

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


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("family", ["linear", "mlp", "svm"])
def test_explain_with_kernel_method(tmp_path, family, task):
    # a regression svm is an SVR, a classification one one-vs-rest SVMs;
    # a linear regression takes the closed form instead
    config, raw = write_config(tmp_path, target={"task": task},
                               train={"representation": "bow", "family": family})
    out = Path(raw["out_dir"])
    for stage in ["ingest", "featurize", "train", "explain"]:
        assert run(stage, config) == 0, "stage %s failed" % stage
    assert (out / "importance.csv").exists()
    assert len((out / "beeswarm.csv").read_text().splitlines()) > 1


# ------------------------------------------------------ outputs and manifests ---

@pytest.fixture(scope="module")
def word2vec_pipeline(tmp_path_factory):
    """Every stage, training on word2vec: featurize saves the embedding
    table and explain writes keywords. Returns the output directory and
    each stage's manifest."""
    tmp = tmp_path_factory.mktemp("word2vec_pipeline")
    config, raw = write_config(
        tmp, train={"representation": "word2vec"},
        hyperparameters={"word2vec": {"d": 8, "epochs": 1}, "gbt": {"n_rounds": 5}})
    for stage in STAGES:
        assert run(stage, config) == 0, "stage %s failed" % stage
    out = Path(raw["out_dir"])
    return out, {stage: json.loads((out / ("%s.manifest.json" % stage)).read_text())
                 for stage in STAGES}


class TestOutputs:
    def test_every_file_is_a_manifest_or_one_stages_output(self, word2vec_pipeline):
        out, manifests = word2vec_pipeline
        listed = [f for m in manifests.values() for f in m["outputs"]]
        assert len(listed) == len(set(listed))
        assert "embedding_word2vec.txt" in manifests["featurize"]["outputs"]
        assert "embedding_keywords.csv" in manifests["explain"]["outputs"]
        files = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
        assert sorted(f for f in files if not f.endswith(".manifest.json")) == sorted(listed)
        assert sorted(f for f in files if f.endswith(".manifest.json")) == sorted(
            "%s.manifest.json" % stage for stage in STAGES)

    def test_report_copies_what_the_upstream_manifests_list(self, word2vec_pipeline):
        out, manifests = word2vec_pipeline
        sources = [f for stage in ("evaluate", "curve", "explain")
                   for f in manifests[stage]["outputs"]] + ["descriptive_stats.csv"]
        copied = [p.relative_to(out / "report").as_posix()
                  for p in (out / "report").rglob("*") if p.is_file()]
        assert sorted(copied) == sorted(sources + ["SUMMARY.txt"])
        assert manifests["report"]["outputs"] == [
            "report/" + f for f in sources + ["SUMMARY.txt"]]
        for f in sources:
            assert (out / "report" / f).read_bytes() == (out / f).read_bytes()

    def test_run_stage_records_the_names_given_to_output_in_call_order(self, tmp_path):
        names = ["b.txt", "a.txt", "c.txt"]

        def body(output):
            for name in names:
                path = output(name)
                assert path == tmp_path / name
                path.write_text(name, encoding="utf-8")

        assert cli.run_stage("demo", {"seed": 1}, tmp_path, [], body) == 0
        manifest = json.loads((tmp_path / "demo.manifest.json").read_text())
        assert manifest["outputs"] == names

    def test_a_body_that_names_no_output_lists_none(self, tmp_path):
        assert cli.run_stage("demo", {"seed": 1}, tmp_path, [], lambda output: None) == 0
        manifest = json.loads((tmp_path / "demo.manifest.json").read_text())
        assert manifest["outputs"] == []


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

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_ingest_warns_on_repeated_ids(self, tmp_path, caplog, format):
        products = generate_products(8, 3)
        for k in (2, 5, 6):
            products[k].id = products[0].id
        products[7].id = products[1].id
        path = tmp_path / ("listings." + format)
        save_products(products, path, format=format)
        config, raw = write_config(
            tmp_path, data={"synthetic": None, "path": str(path),
                            "format": format})
        with caplog.at_level(logging.WARNING, logger="dataprice"):
            assert run("ingest", config) == 0
        warned = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.WARNING]
        assert warned == ["ingest: 2 listing id(s) occur more than once, "
                          "kept as given (first: %s, %s)"
                          % (products[0].id, products[1].id)]
        # every listing is kept, in order
        kept = load_products(Path(raw["out_dir"]) / "products.jsonl",
                             format="jsonl")
        assert [p.id for p in kept] == [p.id for p in products]

    def test_ingest_is_silent_on_distinct_ids(self, tmp_path, caplog):
        config, _ = write_config(tmp_path)
        with caplog.at_level(logging.WARNING, logger="dataprice"):
            assert run("ingest", config) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

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

    def test_explain_needs_the_embedding_table_of_word2vec(self, tmp_path, caplog):
        config, raw = write_config(tmp_path, train={"representation": "word2vec"},
                                   hyperparameters={"word2vec": {"d": 8, "epochs": 1}})
        for st in ["ingest", "featurize", "train"]:
            assert run(st, config) == 0
        (Path(raw["out_dir"]) / "embedding_word2vec.txt").unlink()
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("explain", config) == 1
        assert "embedding_word2vec.txt; run `dataprice featurize` first" in caplog.text
        assert not (Path(raw["out_dir"]) / "importance.csv").exists()

    def test_report_before_evaluate(self, tmp_path, caplog):
        config, _ = write_config(tmp_path)
        assert run("ingest", config) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run("report", config) == 1
        assert "run `dataprice evaluate` first" in caplog.text

    @pytest.mark.parametrize("stage", ["evaluate", "curve"])
    def test_cv_k_above_the_listing_count(self, tmp_path, caplog, stage):
        config, _ = write_config(tmp_path, cv={"k": 41})
        assert run("ingest", config) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run(stage, config) == 1
        assert "cv.k: must be at most the number of listings, 40, got 41" in caplog.text

    @pytest.mark.parametrize("stage, reps, clusters, message", [
        # evaluate exited 0 with a bertopic cell failure on every fold
        ("evaluate", ["bertopic"], 17, "the smallest training fold, 16, got 17"),
        ("curve", ["bertopic"], 17, "the smallest training fold, 16, got 17"),
        ("featurize", ["bow", "bertopic"], 21, "the corpus, 20, got 21"),
        # a stage that fits no bertopic does not check its clusters
        ("evaluate", ["bow"], 17, None),
        # featurize fits only what select and train read
        ("featurize", ["bertopic", "bow"], 21, None),
    ])
    def test_bertopic_clusters_above_the_listings_they_fit(self, tmp_path, caplog,
                                                           stage, reps, clusters,
                                                           message):
        # curve and train read the last representation
        config, _ = write_config(
            tmp_path, data={"synthetic": 20}, representations=reps,
            curve={"representation": reps[-1]}, train={"representation": reps[-1]},
            hyperparameters={"bertopic": {"n_clusters": clusters}})
        assert run("ingest", config) == 0
        with caplog.at_level(logging.ERROR, logger="dataprice"):
            assert run(stage, config) == (0 if message is None else 1)
        if message is not None:
            assert ("hyperparameters.bertopic.n_clusters: must be at most the "
                    "listings of " + message) in caplog.text

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

    def test_interrupted_stage_is_not_up_to_date(self, tmp_path, caplog,
                                                 monkeypatch):
        config, raw = write_config(tmp_path, hyperparameters={"max_terms": 300})
        out = Path(raw["out_dir"])
        for stage in ["ingest", "featurize"]:
            assert run(stage, config) == 0
        features = (out / "features_bow.csv").read_bytes()
        # featurize under another config is stopped after writing its outputs
        (tmp_path / "other").mkdir()
        other, _ = write_config(tmp_path / "other", out_dir=raw["out_dir"],
                                hyperparameters={"max_terms": 20})

        def interrupt(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_manifest", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run("featurize", other)
        assert (out / "features_bow.csv").read_bytes() != features
        with caplog.at_level(logging.INFO, logger="dataprice"):
            assert run("select", other) == 1
            assert "missing featurize outputs" in caplog.text
            caplog.clear()
            assert run("featurize", config) == 0
        assert "featurize: up-to-date" not in caplog.text
        assert (out / "features_bow.csv").read_bytes() == features


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
