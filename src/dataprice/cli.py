"""Command-line pipeline driver.

Subcommands mirror the modeling pipeline: ingest, annotate, featurize,
select, train, evaluate, explain, curve, report. Each stage reads a YAML
run configuration, derives its randomness from the single master seed,
writes its artifacts plus a manifest (config hash, input hashes) under the
output directory, and short-circuits with an "up-to-date" notice when
nothing changed. Exit codes: 0 success, 1 validation error, 2 runtime
error. Logs go to standard error.

One rule, kept by `run_stage` for every stage: an artifact's identity is
the config hash, and a stage refuses upstream artifacts with another hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .annotate import AnnotationError, annotate_file
from .corpus import (CorpusError, TargetSpec, compose_text, describe,
                     load_products, make_targets, save_products,
                     structured_matrix)
from .evaluate import (DEFAULT_CONFIG, FAMILIES, N_TIERS, REPRESENTATIONS,
                       feature_curve, fit_family, fit_representation,
                       merge_config, mix_seed, run_grid)
from .evaluate import fit_embedding_table as _fit_embedding_table
from .explain import beeswarm_csv, embedding_keywords, global_importance, shap_values
from .featsel import mrmr_select
from .matrix import FeatureMatrix
from .models import load_model, save_model
from .synth import generate_products
from .textrep import embedding_features
from .textrep.word2vec import EmbeddingTable

log = logging.getLogger("dataprice")


class ConfigError(ValueError):
    pass


DEFAULT_RUN = {
    "seed": None,
    "threads": 1,
    "out_dir": "runs/default",
    "data": {"path": None, "format": "csv", "synthetic": None},
    "target": {"task": "regression"},
    "representations": list(REPRESENTATIONS),
    "families": list(FAMILIES),
    "cv": {"k": 5},
    "select": {"representation": "bow", "m": 20, "n_bins": 10},
    "train": {"representation": "bow", "family": "gbt"},
    "explain": {"rows": 20, "n_samples": 512, "background_rows": 50,
                "keyword_dims": 3, "top_k": 15},
    "curve": {"representation": "bow", "family": "gbt",
              "m_values": [1, 2, 3, 4, 5, 6, 8, 10]},
    "annotate": {"input": None, "format": "csv", "endpoint": None,
                 "model": "default", "timeout": 30.0, "retries": 3,
                 "cache_dir": None, "batch_size": 16},
    "hyperparameters": {},
}


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except yaml.YAMLError as exc:
        raise ConfigError("config is not valid YAML: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    cfg = merge_config(raw, DEFAULT_RUN)
    sections = [k for k, v in DEFAULT_RUN.items() if isinstance(v, dict)]
    errors = ["%s: must be a mapping" % k for k in sections
              if not isinstance(cfg[k], dict)]
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    for key in ("data", "annotate", "select", "train", "explain"):
        errors += _section_errors(cfg[key], DEFAULT_RUN[key], key)
    if not _has_type_of(cfg["seed"], 0):
        errors.append("seed: an integer master seed is required")
    if not _has_type_of(cfg["threads"], 0) or cfg["threads"] < 1:
        errors.append("threads: must be an integer >= 1, got %r" % (cfg["threads"],))
    if not _has_type_of(cfg["out_dir"], ""):
        errors.append("out_dir: must be a string, got %r" % (cfg["out_dir"],))
    for i, r in enumerate(cfg["representations"]):
        if r not in REPRESENTATIONS:
            errors.append("representations[%d]: unknown representation %r" % (i, r))
    for i, f in enumerate(cfg["families"]):
        if f not in FAMILIES:
            errors.append("families[%d]: unknown family %r" % (i, f))
    if cfg["target"]["task"] not in ("regression", "classification"):
        errors.append("target.task: must be regression or classification")
    if not _has_type_of(cfg["cv"]["k"], 0) or cfg["cv"]["k"] < 2:
        errors.append("cv.k: must be an integer >= 2")
    for key in ("select", "train", "curve"):
        rep = cfg[key].get("representation")
        if rep not in REPRESENTATIONS:
            errors.append("%s.representation: unknown representation %r" % (key, rep))
    for key in ("train", "curve"):
        fam = cfg[key].get("family")
        if fam not in FAMILIES:
            errors.append("%s.family: unknown family %r" % (key, fam))
    ms = cfg["curve"]["m_values"]
    if not _has_type_of(ms, [1]) or ms != sorted(ms):
        errors.append("curve.m_values: must be an ascending list of positive integers")
    errors += _hyperparameter_errors(cfg["hyperparameters"])
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def _hyperparameter_errors(hp, defaults=DEFAULT_CONFIG, at="hyperparameters") -> list[str]:
    """A typo in a hyperparameter name would silently run the default, and a
    value of the wrong type would fail late, so every key must be one of
    evaluate.DEFAULT_CONFIG (per family, that family's) and every value must
    have its default's type. Ranges are left to the fitters."""
    if not isinstance(hp, dict):
        return ["%s: must be a mapping" % at]
    errors = []
    for key, value in hp.items():
        where = "%s.%s" % (at, key)
        if key not in defaults:
            errors.append("%s: unknown key (known: %s)" % (where, ", ".join(defaults)))
        elif isinstance(defaults[key], dict):
            errors += _hyperparameter_errors(value, defaults[key], where)
        elif not _has_type_of(value, defaults[key]):
            errors.append("%s: must be %s, got %r"
                          % (where, _TYPE_NAMES[type(defaults[key])], value))
    return errors


def _section_errors(values: dict, defaults: dict, at: str) -> list[str]:
    """Every value of a run-config section must have its default's type. A
    None default takes None or a string, except data.synthetic, which takes
    None or an integer."""
    errors = []
    for key, default in defaults.items():
        value, nullable = values[key], default is None
        if nullable:
            if value is None:
                continue
            default = 0 if (at, key) == ("data", "synthetic") else ""
        if not _has_type_of(value, default):
            errors.append("%s.%s: must be %s%s, got %r"
                          % (at, key, "null or " if nullable else "",
                             _TYPE_NAMES[type(default)], value))
    return errors


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a non-empty list of positive integers"}


def _has_type_of(value, default) -> bool:
    """int takes int, float takes int or float, str takes str, never a bool; a
    list (mlp.hidden, curve.m_values) takes a non-empty list of positive ints."""
    if isinstance(default, list):
        return (isinstance(value, list) and bool(value)
                and all(_has_type_of(v, 1) and v > 0 for v in value))
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


# ------------------------------------------------------------- manifests ----

def config_hash(cfg: dict) -> str:
    # the worker count does not change results, so it is not part of the
    # identity of an artifact
    trimmed = {k: v for k, v in cfg.items() if k != "threads"}
    blob = json.dumps(trimmed, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest_path(out_dir: Path, stage: str) -> Path:
    return out_dir / ("%s.manifest.json" % stage)


def _read_manifest(out_dir: Path, stage: str) -> dict | None:
    try:
        return json.loads(_manifest_path(out_dir, stage).read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def up_to_date(out_dir: Path, stage: str, chash: str, inputs: list[str]) -> bool:
    manifest = _read_manifest(out_dir, stage)
    if manifest is None or manifest.get("config_hash") != chash:
        return False
    hashes = manifest.get("input_hashes", {})
    return (all(Path(f).exists() and hashes.get(str(f)) == file_hash(f) for f in inputs)
            and all((out_dir / f).exists() for f in manifest.get("outputs", [])))


def write_manifest(out_dir: Path, stage: str, chash: str, inputs: list[str],
                   outputs: list[str]) -> None:
    manifest = {
        "stage": stage,
        "version": __version__,
        "config_hash": chash,
        "input_hashes": {str(f): file_hash(f) for f in inputs},
        "outputs": outputs,
    }
    _manifest_path(out_dir, stage).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def require_artifact(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise ConfigError("missing artifact %s; run `dataprice %s` first"
                          % (path, produced_by))
    return path


def run_stage(stage: str, cfg: dict, out_dir: Path, inputs: list, body,
              upstream: dict | None = None) -> int:
    """Run one stage under the rule that an artifact's identity is the config
    hash. Each upstream stage (name -> the files of it this stage reads) must
    have a manifest with this hash; `inputs` are the files the stage reads
    besides those. The stage is up to date when its own manifest has this
    hash, the same digests of all the files it reads and all its outputs;
    otherwise body() does the work and returns the output names."""
    chash = config_hash(cfg)
    inputs = list(inputs)
    for up, files in (upstream or {}).items():
        manifest = _read_manifest(out_dir, up)
        if manifest is None:
            raise ConfigError("missing %s outputs; run `dataprice %s` first" % (up, up))
        if manifest.get("config_hash") != chash:
            raise ConfigError("%s artifacts were produced with a different "
                              "configuration; rerun `dataprice %s`" % (up, up))
        inputs += [require_artifact(out_dir / f, up) for f in files]
    if up_to_date(out_dir, stage, chash, inputs):
        log.info("%s: up-to-date", stage)
        return 0
    write_manifest(out_dir, stage, chash, inputs, body())
    return 0


# ---------------------------------------------------------------- stages ----

def _corpus(out_dir: Path) -> Path:
    # ingest or annotate may have written it, so no upstream manifest is checked
    return require_artifact(out_dir / "products.jsonl", "ingest")


def cmd_ingest(cfg, out_dir: Path) -> int:
    data = cfg["data"]
    synthetic = data.get("synthetic")
    if synthetic is None and not data["path"]:
        raise ConfigError("data.path: required unless data.synthetic is set")

    def body():
        if synthetic:
            products = generate_products(int(synthetic), mix_seed(cfg["seed"], "synth"))
            log.info("ingest: generated %d synthetic listings", len(products))
        else:
            products = load_products(data["path"], format=data["format"])
            log.info("ingest: loaded %d listings from %s", len(products), data["path"])
        save_products(products, out_dir / "products.jsonl", format="jsonl")
        describe(products).to_csv(out_dir / "descriptive_stats.csv")
        return ["products.jsonl", "descriptive_stats.csv"]
    inputs = [] if synthetic else [data["path"]]
    return run_stage("ingest", cfg, out_dir, inputs, body)


def cmd_annotate(cfg, out_dir: Path) -> int:
    a = cfg["annotate"]
    if not a["input"]:
        raise ConfigError("annotate.input: a raw listings file is required")

    def body():
        stats = annotate_file(a["input"], out_dir / "products.jsonl",
                              format=a["format"], endpoint=a["endpoint"],
                              model=a["model"], timeout=a["timeout"],
                              retries=a["retries"], cache_dir=a["cache_dir"],
                              batch_size=a["batch_size"])
        log.info("annotate: %(refund_annotated)d refund levels, "
                 "%(industry_annotated)d industry vectors over %(rows)d rows", stats)
        return ["products.jsonl"]
    return run_stage("annotate", cfg, out_dir, [a["input"]], body)


def cmd_featurize(cfg, out_dir: Path) -> int:
    corpus = _corpus(out_dir)

    def body():
        products = load_products(corpus, format="jsonl")
        texts = [compose_text(p) for p in products]
        mcfg = cfg["hyperparameters"]
        outputs = []
        for rep in cfg["representations"]:
            seed = mix_seed(cfg["seed"], rep, "full")
            if rep == "word2vec":
                # persist the embedding table for keyword back-mapping later
                table = _fit_embedding_table(texts, mcfg, seed)
                table.save(out_dir / "embedding_word2vec.txt")
                outputs.append("embedding_word2vec.txt")
                feats = embedding_features(texts, table)
            else:
                feats, _ = fit_representation(rep, texts, mcfg, seed)
            fname = "features_%s.csv" % rep
            feats.to_csv(out_dir / fname)
            outputs.append(fname)
            log.info("featurize: %s -> %d columns", rep, feats.n_cols)
        structured_matrix(products).to_csv(out_dir / "features_structured.csv")
        return outputs + ["features_structured.csv"]
    return run_stage("featurize", cfg, out_dir, [corpus], body)


def _feature_files(rep: str) -> list[str]:
    """The featurize outputs that select, train and explain read."""
    return ["features_%s.csv" % rep, "features_structured.csv"]


def _full_features(out_dir: Path, rep: str) -> FeatureMatrix:
    text, struct = (FeatureMatrix.from_csv(out_dir / f) for f in _feature_files(rep))
    return text.hstack(struct)


def _targets(cfg, corpus: Path):
    return make_targets(load_products(corpus, format="jsonl"),
                        TargetSpec(cfg["target"]["task"]))


def cmd_select(cfg, out_dir: Path) -> int:
    rep = cfg["select"]["representation"]
    corpus = _corpus(out_dir)

    def body():
        feats = _full_features(out_dir, rep)
        trace = mrmr_select(feats, _targets(cfg, corpus), cfg["select"]["m"],
                            n_bins=cfg["select"]["n_bins"],
                            target_is_discrete=cfg["target"]["task"] == "classification")
        fname = "selection_%s.csv" % rep
        trace.to_csv(out_dir / fname)
        log.info("select: kept %d of %d features (first: %s)", len(trace.steps),
                 feats.n_cols, feats.columns[trace.selected[0]])
        return [fname]
    return run_stage("select", cfg, out_dir, [corpus], body,
                     upstream={"featurize": _feature_files(rep)})


def cmd_train(cfg, out_dir: Path) -> int:
    rep, family = cfg["train"]["representation"], cfg["train"]["family"]
    corpus = _corpus(out_dir)

    def body():
        feats = _full_features(out_dir, rep)
        task = cfg["target"]["task"]
        model = fit_family(family, feats.values, _targets(cfg, corpus), task, N_TIERS,
                           merge_config(cfg["hyperparameters"]),
                           mix_seed(cfg["seed"], rep, family, "train"))
        model.manifest = list(feats.columns)
        fname = "model_%s_%s.json" % (rep, family)
        save_model(model, out_dir / fname)
        log.info("train: saved %s (%s, %s)", fname, family, task)
        return [fname]
    return run_stage("train", cfg, out_dir, [corpus], body,
                     upstream={"featurize": _feature_files(rep)})


def cmd_evaluate(cfg, out_dir: Path) -> int:
    corpus, task = _corpus(out_dir), cfg["target"]["task"]

    def body():
        report = run_grid(load_products(corpus, format="jsonl"), cfg["representations"],
                          cfg["families"], task=task, config=cfg["hyperparameters"],
                          seed=cfg["seed"], k=cfg["cv"]["k"], workers=cfg["threads"])
        report.to_csv(out_dir / ("report_%s.csv" % task))
        (out_dir / ("report_%s.txt" % task)).write_text(report.to_text(),
                                                        encoding="utf-8")
        for rep, fam, fold, msg in report.errors:
            log.warning("evaluate: cell (%s, %s) fold %s failed: %s", rep, fam, fold, msg)
        log.info("evaluate: wrote report_%s.{csv,txt}", task)
        return ["report_%s.csv" % task, "report_%s.txt" % task]
    return run_stage("evaluate", cfg, out_dir, [corpus], body)


def cmd_explain(cfg, out_dir: Path) -> int:
    rep, family = cfg["train"]["representation"], cfg["train"]["family"]
    model_file = "model_%s_%s.json" % (rep, family)

    def body():
        model = load_model(out_dir / model_file)
        feats = _full_features(out_dir, rep)
        e = cfg["explain"]
        rows = min(int(e["rows"]), feats.n_rows)
        rng = np.random.default_rng(mix_seed(cfg["seed"], "explain"))
        bg_idx = rng.choice(feats.n_rows,
                            size=min(int(e["background_rows"]), feats.n_rows),
                            replace=False)
        X, background = feats.values[:rows], feats.values[bg_idx]
        n_samples = int(e["n_samples"])
        if model.task == "regression":
            phi, _ = shap_values(model, X, background, n_samples=n_samples,
                                 seed=mix_seed(cfg["seed"], "explain", "kernel"))
        else:
            # explain each row's predicted class, the tree method's default; the
            # kernel method needs the class named, so it runs once per class
            phi = np.zeros(X.shape)
            preds = model.predict(X)
            for c in np.unique(preds).tolist():
                sel = preds == c
                phi[sel], _ = shap_values(
                    model, X[sel], background, n_samples=n_samples,
                    seed=mix_seed(cfg["seed"], "explain", "kernel", c), class_index=c)
        importance = global_importance(phi, feats.columns)
        importance.to_csv(out_dir / "importance.csv")
        beeswarm_csv(phi, X, feats.columns, out_dir / "beeswarm.csv")
        outputs = ["importance.csv", "beeswarm.csv"]

        table_path = out_dir / "embedding_word2vec.txt"
        if rep == "word2vec" and table_path.exists():
            table = EmbeddingTable.load(table_path)
            top = [name for name, _ in importance.top(len(feats.columns))
                   if name.startswith("embedding_")][:int(e["keyword_dims"])]
            with open(out_dir / "embedding_keywords.csv", "w", encoding="utf-8") as fh:
                fh.write("dimension,direction,rank,term,loading\n")
                for name in top:
                    dim = int(name.split("_")[1])
                    words = embedding_keywords(table, dim, k=int(e["top_k"]))
                    for direction in ("positive", "negative"):
                        for r, (term, loading) in enumerate(words[direction], 1):
                            fh.write("%d,%s,%d,%s,%.6g\n"
                                     % (dim, direction, r, term, loading))
            outputs.append("embedding_keywords.csv")
        log.info("explain: wrote %s", ", ".join(outputs))
        return outputs
    return run_stage("explain", cfg, out_dir, [], body,
                     upstream={"train": [model_file], "featurize": _feature_files(rep)})


def cmd_curve(cfg, out_dir: Path) -> int:
    corpus, c = _corpus(out_dir), cfg["curve"]

    def body():
        curve = feature_curve(load_products(corpus, format="jsonl"),
                              c["representation"], c["family"], c["m_values"],
                              task=cfg["target"]["task"], config=cfg["hyperparameters"],
                              seed=cfg["seed"], k=cfg["cv"]["k"], workers=cfg["threads"])
        fname = "curve_%s_%s.csv" % (c["representation"], c["family"])
        curve.to_csv(out_dir / fname)
        log.info("curve: wrote %s", fname)
        return [fname]
    return run_stage("curve", cfg, out_dir, [corpus], body)


def cmd_report(cfg, out_dir: Path) -> int:
    task, c = cfg["target"]["task"], cfg["curve"]
    pieces = {"evaluate": ["report_%s.csv" % task, "report_%s.txt" % task],
              "curve": ["curve_%s_%s.csv" % (c["representation"], c["family"])]}
    optional = [f for f in ["importance.csv", "beeswarm.csv", "embedding_keywords.csv",
                            "descriptive_stats.csv"] if (out_dir / f).exists()]
    sources = sum(pieces.values(), []) + optional

    def body():
        report_dir = out_dir / "report"
        report_dir.mkdir(parents=True, exist_ok=True)
        for f in sources:
            shutil.copyfile(out_dir / f, report_dir / f)
        summary = ["run summary", "===========",
                   "config hash: %s" % config_hash(cfg), "task: %s" % task,
                   "artifacts: %s" % ", ".join(sorted(sources)), ""]
        (report_dir / "SUMMARY.txt").write_text("\n".join(summary), encoding="utf-8")
        log.info("report: assembled %d artifacts under %s", len(sources), report_dir)
        return ["report/" + f for f in sources] + ["report/SUMMARY.txt"]
    return run_stage("report", cfg, out_dir, [out_dir / f for f in optional], body,
                     upstream=pieces)


_COMMANDS = {
    "ingest": cmd_ingest,
    "annotate": cmd_annotate,
    "featurize": cmd_featurize,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "curve": cmd_curve,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dataprice",
        description="Price modeling pipeline for data-product listings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help="run the %s stage" % name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes of evaluate and curve "
                            "(does not change results)")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            cfg["threads"] = args.threads
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, CorpusError, AnnotationError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        log.error("runtime failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
