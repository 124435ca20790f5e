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
Each stage's body writes every file through the `output(name)` it is
passed, which returns `out_dir / name` and records the name; the manifest's
`outputs` is that record, in call order. So `report` takes the files it
copies from the upstream manifests, not from their names.
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
from .evaluate import (DEFAULT_CONFIG, EMBEDDED, FAMILIES, N_TIERS,
                       REPRESENTATIONS, feature_curve, fit_family,
                       fit_representation, merge_config, mix_seed, run_grid)
from .evaluate import fit_embedding_table as _fit_embedding_table
from .explain import beeswarm_csv, embedding_keywords, global_importance, shap_values
from .featsel import mrmr_select
from .matrix import FeatureMatrix
from .models import load_model, save_model
from .synth import generate_products
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


# By dotted key path, what a value must be beyond its default's type: a bound
# at the least value the code accepts (a fitter's guard, else the least that
# still trains, bins or steps), or the choices. A list's entry covers its items.
_RULES = {
    "seed": ">= 0", "threads": ">= 1", "cv.k": ">= 2",
    "data.format": ("csv", "jsonl"), "data.synthetic": ">= 2",  # describe needs 2
    "target.task": ("regression", "classification"),
    "representations": REPRESENTATIONS, "families": FAMILIES,
    "select.representation": REPRESENTATIONS, "select.m": ">= 1",
    "select.n_bins": ">= 2",
    "train.representation": REPRESENTATIONS, "train.family": FAMILIES,
    "explain.rows": ">= 1", "explain.n_samples": ">= 2",
    "explain.background_rows": ">= 1", "explain.keyword_dims": ">= 0",
    "explain.top_k": ">= 1",
    "curve.representation": REPRESENTATIONS, "curve.family": FAMILIES,
    "curve.m_values": ">= 1",
    "annotate.format": ("csv", "jsonl"), "annotate.timeout": "> 0",
    "annotate.retries": ">= 0", "annotate.batch_size": ">= 1",
    "hyperparameters.max_terms": ">= 2",  # word2vec needs 2 terms
    "hyperparameters.word2vec.d": ">= 1", "hyperparameters.word2vec.window": ">= 1",
    "hyperparameters.word2vec.epochs": ">= 1", "hyperparameters.word2vec.lr": "> 0",
    "hyperparameters.word2vec.negatives": ">= 0",
    "hyperparameters.lda.n_topics": ">= 1", "hyperparameters.lda.iterations": ">= 1",
    "hyperparameters.lda.beta": "> 0",
    "hyperparameters.bertopic.reduce_dims": ">= 1",
    "hyperparameters.bertopic.n_clusters": ">= 1",
    "hyperparameters.linear.ridge": ">= 0",
    "hyperparameters.logistic.lr": "> 0", "hyperparameters.logistic.epochs": ">= 1",
    "hyperparameters.mlp.hidden": ">= 1", "hyperparameters.mlp.epochs": ">= 1",
    "hyperparameters.mlp.lr": "> 0", "hyperparameters.mlp.batch_size": ">= 1",
    "hyperparameters.cart.max_depth": ">= 0", "hyperparameters.cart.min_leaf": ">= 1",
    "hyperparameters.svm.C": "> 0", "hyperparameters.svm.kernel": ("linear", "rbf"),
    "hyperparameters.svm.gamma": ">= 0", "hyperparameters.svm.tol": ">= 0",
    "hyperparameters.svr.C": "> 0", "hyperparameters.svr.epsilon": ">= 0",
    "hyperparameters.svr.kernel": ("linear", "rbf"), "hyperparameters.svr.gamma": ">= 0",
    "hyperparameters.svr.max_iter": ">= 1",
    "hyperparameters.forest.n_trees": ">= 1", "hyperparameters.forest.max_depth": ">= 0",
    "hyperparameters.forest.min_leaf": ">= 1",
    "hyperparameters.gbt.n_rounds": ">= 1", "hyperparameters.gbt.learning_rate": "> 0",
    "hyperparameters.gbt.lam": ">= 0", "hyperparameters.gbt.max_depth": ">= 0",
    "hyperparameters.gbt.min_leaf": ">= 1",
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def load_config(path, threads: int | None = None) -> dict:
    """The YAML file's run configuration over DEFAULT_RUN, with `threads`, if
    given, in place of the file's. An invalid value raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except yaml.YAMLError as exc:
        raise ConfigError("config is not valid YAML: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if threads is not None:
        raw = dict(raw, threads=threads)
    cfg = merge_config(raw, DEFAULT_RUN)
    errors = _errors(cfg, dict(DEFAULT_RUN, hyperparameters=DEFAULT_CONFIG))
    if not errors:
        ms, hp = cfg["curve"]["m_values"], merge_config(cfg["hyperparameters"])
        if ms != sorted(ms):
            errors.append("curve.m_values: must be ascending, got %r" % (ms,))
        if hp["lda"]["n_topics"] > hp["max_terms"]:
            errors.append("hyperparameters.lda.n_topics: must be at most "
                          "hyperparameters.max_terms, %d, got %d"
                          % (hp["max_terms"], hp["lda"]["n_topics"]))
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def _errors(value, default, path: str = "") -> list[str]:
    """What is wrong with a config value, under each key's path: an unknown
    key, else a type other than its default's, else a value outside its
    _RULES entry. int takes an int, float an int or a finite float, str a
    str, never a bool; a list a non-empty list of its first element's type.
    A null default takes null or a string (an integer where a bound
    applies); at the top level, where only seed has one, null is missing."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            return ["%s: must be a mapping" % path]
        errors = []
        for key, item in value.items():
            where = "%s.%s" % (path, key) if path else str(key)
            if key in default:
                errors += _errors(item, default[key], where)
            else:
                errors.append("%s: unknown key (known: %s)" % (where, ", ".join(default)))
        return errors
    rule, in_section = _RULES.get(path), "." in path
    bound = rule if isinstance(rule, str) else ""
    nullable = default is None and in_section
    if value is None and nullable:
        return []
    if default is None:
        default = 0 if bound else ""
    many = isinstance(default, list)
    kind = type(default[0] if many else default)
    kinds = (int, float) if kind is float else kind
    items = value if many and isinstance(value, list) else [value]
    expected = " ".join(filter(None, ["null or" if nullable else "",
                                      "a non-empty list, each" if many else "",
                                      _TYPE_NAMES[kind], bound]))
    typed = all(isinstance(v, kinds) and not isinstance(v, bool)
                and (not isinstance(v, float) or np.isfinite(v)) for v in items)
    if not typed or many and not (isinstance(value, list) and value):
        return ["%s: must be %s, got %r" % (path, expected, value)]
    if bound and not all(_within(v, bound) for v in items):
        # only a scalar in a section, whose type is right, names just its bound
        return ["%s: must be %s, got %r"
                % (path, bound if in_section and not many else expected, value)]
    if bound or rule is None:
        return []
    name = path.rsplit(".", 1)[-1]
    noun = {"families": "family", "representations": "representation"}.get(name, name)
    return ["%s: unknown %s %r (known: %s)"
            % ("%s[%d]" % (path, i) if many else path, noun, v, ", ".join(rule))
            for i, v in enumerate(items) if v not in rule]


def _within(value, bound: str) -> bool:
    op, limit = bound.split()
    return value >= float(limit) if op == ">=" else value > float(limit)


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
    otherwise its manifest is deleted and body(output) does the work. It
    writes each file to `output(name)`, which returns `out_dir / name` and
    records the name: the manifest lists the recorded names, in call order,
    as the stage's outputs."""
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
    # body() rewrites the outputs: an interrupted run leaves no manifest, so
    # no later run takes them as up to date and no downstream stage reads them
    _manifest_path(out_dir, stage).unlink(missing_ok=True)
    outputs = []

    def output(name: str) -> Path:
        outputs.append(name)
        return out_dir / name

    body(output)
    log.info("%s: wrote %s", stage, ", ".join(outputs))
    write_manifest(out_dir, stage, chash, inputs, outputs)
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

    def body(output):
        if synthetic:
            products = generate_products(synthetic, mix_seed(cfg["seed"], "synth"))
            log.info("ingest: generated %d synthetic listings", len(products))
        else:
            products = load_products(data["path"], format=data["format"])
            log.info("ingest: loaded %d listings from %s", len(products), data["path"])
        save_products(products, output("products.jsonl"), format="jsonl")
        describe(products).to_csv(output("descriptive_stats.csv"))
    inputs = [] if synthetic else [data["path"]]
    return run_stage("ingest", cfg, out_dir, inputs, body)


def cmd_annotate(cfg, out_dir: Path) -> int:
    a = cfg["annotate"]
    if not a["input"]:
        raise ConfigError("annotate.input: a raw listings file is required")

    def body(output):
        stats = annotate_file(a["input"], output("products.jsonl"),
                              format=a["format"], endpoint=a["endpoint"],
                              model=a["model"], timeout=a["timeout"],
                              retries=a["retries"], cache_dir=a["cache_dir"],
                              batch_size=a["batch_size"])
        log.info("annotate: %(refund_annotated)d refund levels, "
                 "%(industry_annotated)d industry vectors over %(rows)d rows", stats)
    return run_stage("annotate", cfg, out_dir, [a["input"]], body)


def cmd_featurize(cfg, out_dir: Path) -> int:
    corpus = _corpus(out_dir)
    # the representations that select and train read; evaluate and curve fit
    # their own per fold
    read = (cfg["select"]["representation"], cfg["train"]["representation"])
    reps = [rep for rep in REPRESENTATIONS if rep in read]

    def body(output):
        products = load_products(corpus, format="jsonl")
        _check_clusters(cfg, reps, len(products), "the corpus")
        texts = [compose_text(p) for p in products]
        mcfg = cfg["hyperparameters"]
        # word2vec and bertopic read one embedding table, under word2vec's seed
        # label as in evaluate's folds; the other representations ignore it
        table = None
        if any(rep in EMBEDDED for rep in reps):
            table = _fit_embedding_table(texts, mcfg,
                                         mix_seed(cfg["seed"], "word2vec", "full"))
        for rep in reps:
            if rep == "word2vec":
                # explain maps word2vec's dimensions back to words through it
                table.save(output("embedding_word2vec.txt"))
            feats, _ = fit_representation(rep, texts, mcfg,
                                          mix_seed(cfg["seed"], rep, "full"),
                                          table=table)
            text_file, struct_file = _feature_files(rep)
            feats.to_csv(output(text_file))
            log.info("featurize: %s -> %d columns", rep, feats.n_cols)
        structured_matrix(products).to_csv(output(struct_file))
    return run_stage("featurize", cfg, out_dir, [corpus], body)


def _feature_files(rep: str) -> list[str]:
    """The featurize outputs that select, train and explain read."""
    return ["features_%s.csv" % rep, "features_structured.csv"]


def _full_features(out_dir: Path, rep: str) -> FeatureMatrix:
    text, struct = (FeatureMatrix.from_csv(out_dir / f) for f in _feature_files(rep))
    return text.hstack(struct)


def _listings(cfg, corpus: Path, reps: list) -> list:
    """The corpus's listings for CV on reps, where each fold tests on one at
    least and bertopic's clusters fit the smallest training fold."""
    products = load_products(corpus, format="jsonl")
    n, k = len(products), cfg["cv"]["k"]
    if n < k:
        raise ConfigError("cv.k: must be at most the number of listings, %d, got %d"
                          % (n, k))
    # the largest test fold holds ceil(n/k) listings
    _check_clusters(cfg, reps, n * (k - 1) // k, "the smallest training fold")
    return products


def _check_clusters(cfg, reps: list, n: int, where: str) -> None:
    """bertopic, if among reps, finds no more clusters than the n listings
    it is fitted on."""
    clusters = merge_config(cfg["hyperparameters"])["bertopic"]["n_clusters"]
    if "bertopic" in reps and clusters > n:
        raise ConfigError("hyperparameters.bertopic.n_clusters: must be at most the "
                          "listings of %s, %d, got %d" % (where, n, clusters))


def _targets(cfg, corpus: Path):
    return make_targets(load_products(corpus, format="jsonl"),
                        TargetSpec(cfg["target"]["task"]))


def cmd_select(cfg, out_dir: Path) -> int:
    rep = cfg["select"]["representation"]
    corpus = _corpus(out_dir)

    def body(output):
        feats = _full_features(out_dir, rep)
        trace = mrmr_select(feats, _targets(cfg, corpus), cfg["select"]["m"],
                            n_bins=cfg["select"]["n_bins"],
                            target_is_discrete=cfg["target"]["task"] == "classification")
        trace.to_csv(output("selection_%s.csv" % rep))
        log.info("select: kept %d of %d features (first: %s)", len(trace.steps),
                 feats.n_cols, feats.columns[trace.selected[0]])
    return run_stage("select", cfg, out_dir, [corpus], body,
                     upstream={"featurize": _feature_files(rep)})


def cmd_train(cfg, out_dir: Path) -> int:
    rep, family = cfg["train"]["representation"], cfg["train"]["family"]
    corpus = _corpus(out_dir)

    def body(output):
        feats = _full_features(out_dir, rep)
        task = cfg["target"]["task"]
        model = fit_family(family, feats.values, _targets(cfg, corpus), task, N_TIERS,
                           merge_config(cfg["hyperparameters"]),
                           mix_seed(cfg["seed"], rep, family, "train"))
        model.manifest = list(feats.columns)
        save_model(model, output("model_%s_%s.json" % (rep, family)))
        log.info("train: fitted %s on %s (%s)", family, rep, task)
    return run_stage("train", cfg, out_dir, [corpus], body,
                     upstream={"featurize": _feature_files(rep)})


def cmd_evaluate(cfg, out_dir: Path) -> int:
    corpus, task = _corpus(out_dir), cfg["target"]["task"]

    def body(output):
        reps = cfg["representations"]
        report = run_grid(_listings(cfg, corpus, reps), reps,
                          cfg["families"], task=task, config=cfg["hyperparameters"],
                          seed=cfg["seed"], k=cfg["cv"]["k"], workers=cfg["threads"])
        report.to_csv(output("report_%s.csv" % task))
        output("report_%s.txt" % task).write_text(report.to_text(), encoding="utf-8")
        for rep, fam, fold, msg in report.errors:
            log.warning("evaluate: cell (%s, %s) fold %s failed: %s", rep, fam, fold, msg)
    return run_stage("evaluate", cfg, out_dir, [corpus], body)


def cmd_explain(cfg, out_dir: Path) -> int:
    rep, family = cfg["train"]["representation"], cfg["train"]["family"]
    model_file = "model_%s_%s.json" % (rep, family)

    def body(output):
        model = load_model(out_dir / model_file)
        feats = _full_features(out_dir, rep)
        e = cfg["explain"]
        rows = min(e["rows"], feats.n_rows)
        rng = np.random.default_rng(mix_seed(cfg["seed"], "explain"))
        bg_idx = rng.choice(feats.n_rows, size=min(e["background_rows"], feats.n_rows),
                            replace=False)
        X, background = feats.values[:rows], feats.values[bg_idx]
        phi, _ = shap_values(model, X, background, n_samples=e["n_samples"],
                             seed=mix_seed(cfg["seed"], "explain", "kernel"))
        importance = global_importance(phi, feats.columns)
        importance.to_csv(output("importance.csv"))
        beeswarm_csv(phi, X, feats.columns, output("beeswarm.csv"))

        if rep == "word2vec":
            table = EmbeddingTable.load(out_dir / "embedding_word2vec.txt")
            top = [name for name, _ in importance.top(len(feats.columns))
                   if name.startswith("embedding_")][:e["keyword_dims"]]
            with open(output("embedding_keywords.csv"), "w", encoding="utf-8") as fh:
                fh.write("dimension,direction,rank,term,loading\n")
                for name in top:
                    dim = int(name.split("_")[1])
                    words = embedding_keywords(table, dim, k=e["top_k"])
                    for direction in ("positive", "negative"):
                        for r, (term, loading) in enumerate(words[direction], 1):
                            fh.write("%d,%s,%d,%s,%.6g\n"
                                     % (dim, direction, r, term, loading))
    # word2vec's keywords come from featurize's embedding table
    read = _feature_files(rep) + (["embedding_word2vec.txt"] if rep == "word2vec" else [])
    return run_stage("explain", cfg, out_dir, [], body,
                     upstream={"train": [model_file], "featurize": read})


def cmd_curve(cfg, out_dir: Path) -> int:
    corpus, c = _corpus(out_dir), cfg["curve"]

    def body(output):
        curve = feature_curve(_listings(cfg, corpus, [c["representation"]]),
                              c["representation"], c["family"], c["m_values"],
                              task=cfg["target"]["task"], config=cfg["hyperparameters"],
                              seed=cfg["seed"], k=cfg["cv"]["k"], workers=cfg["threads"])
        curve.to_csv(output("curve_%s_%s.csv" % (c["representation"], c["family"])))
    return run_stage("curve", cfg, out_dir, [corpus], body)


def cmd_report(cfg, out_dir: Path) -> int:
    task, chash = cfg["target"]["task"], config_hash(cfg)
    # every output of evaluate and curve, whose manifests run_stage requires;
    # explain's, and ingest's statistics, when this config's run wrote them
    pieces = {}
    for up in ("evaluate", "curve", "explain", "ingest"):
        manifest = _read_manifest(out_dir, up) or {}
        if up in ("evaluate", "curve") or manifest.get("config_hash") == chash:
            pieces[up] = [f for f in manifest.get("outputs", [])
                          if f != "products.jsonl"]
    sources = sum(pieces.values(), [])

    def body(output):
        shutil.rmtree(out_dir / "report", ignore_errors=True)
        (out_dir / "report").mkdir()
        for f in sources:
            shutil.copyfile(out_dir / f, output("report/" + f))
        summary = ["run summary", "===========",
                   "config hash: %s" % chash, "task: %s" % task,
                   "artifacts: %s" % ", ".join(sorted(sources)), ""]
        output("report/SUMMARY.txt").write_text("\n".join(summary), encoding="utf-8")
    return run_stage("report", cfg, out_dir, [], body, upstream=pieces)


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
        cfg = load_config(args.config, threads=args.threads)
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
