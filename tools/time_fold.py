#!/usr/bin/env python3
"""Time one real-sized cross-validation fold, layer by layer.

    python3 tools/time_fold.py [--task regression] [--fold 0]
                               [--representations bow,lda] [--out fold.json]

The corpus is the README's: `data.synthetic: 600` at seed 42, written and
read back through the listings file as `ingest` and `evaluate` do, with
`cv.k: 5` and the default hyperparameters (the README's `gbt.n_rounds: 30`
and `forest.n_trees: 25` are the defaults). For the fold, each
representation is fitted on its 480 training listings and transforms its
120 test listings, and then each family's cell runs: fit, predict and
metrics, on the text columns plus the structured ones. Seeds are those of
`evaluate._fold_unit`. The JSON it writes (to --out, else to standard
output) holds

  skipgram_s        the fold's embedding table, fitted once under
                    word2vec's seed label as `_fold_unit` does, and read
                    by word2vec and bertopic (absent when neither runs);
  representations   per representation: fit_s (fit plus the training
                    features; for word2vec and bertopic, on the fitted
                    table) and transform_s (the test features);
  cells             per representation, per family: seconds, metrics and
                    how an iterative fit stopped: iterations, converged
                    and gap where the model's hyperparams record them, for
                    an SVR its support_vectors, and for a one-vs-rest
                    ensemble unconverged_members, its members that record
                    converged: false;
  mrmr              per representation: mrmr_select's seconds on the
                    fold's training columns, at the curve's m (the last of
                    the default curve.m_values, 10) and at every column,
                    and the SHA-1 of the every-column trace's steps (each
                    value's float.hex), to compare selections bit for bit;
  lda               the LDA model's per-token log-likelihood,
                    sum_k theta_dk phi_kw, on its training documents (theta
                    of the fit) and on the test documents (theta of
                    infer_theta), in nats per token.

BLAS runs on one thread, as in the benchmark's workers. The log-likelihood
reads only train_lda's TopicModel (phi, theta, terms, infer_theta), so the
harness runs unchanged on earlier versions of the package, and so does
the mRMR timing, which calls only mrmr_select. On a version whose
`fit_representation` takes no table (no `evaluate.EMBEDDED`), word2vec and
bertopic each fit their own skip-gram inside fit_s, as that version's
grid does. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, LISTINGS, K = 42, 600, 5
CURVE_M = 10


def log_likelihood(model, texts, theta) -> float:
    """Mean over tokens of log sum_k theta_dk phi_kw, for the tokens in the
    model's vocabulary."""
    import numpy as np
    from dataprice.textrep import tokenize

    index = {t: i for i, t in enumerate(model.terms)}
    total, count = 0.0, 0
    for text, th in zip(texts, theta):
        ids = [index[t] for t in tokenize(text) if t in index]
        if ids:
            total += float(np.log(th @ model.phi[:, ids]).sum())
            count += len(ids)
    return total / count


def stop_record(model) -> dict:
    """How a fit stopped, from what its hyperparams record (versions whose
    SVR records no gap leave it out), and an SVR's support vectors."""
    hp = model.hyperparams
    out = {k: hp[k] for k in ("iterations", "converged", "gap") if k in hp}
    inner = getattr(model, "inner", model)  # behind a standardizer
    if inner.family == "svr":
        out["support_vectors"] = len(inner.coef)
    members = getattr(model, "members", None)
    if members is not None:
        out["unconverged_members"] = sum(
            m.hyperparams.get("converged") is False for m in members)
    return out


def time_fold(task: str, fold: int, reps: list) -> dict:
    from dataprice import evaluate as ev
    from dataprice.corpus import load_products, save_products
    from dataprice.featsel import mrmr_select
    from dataprice.synth import generate_products

    # fit_representation keeps its TopicModel to itself, so note each one
    fitted, train_lda = [], ev.train_lda

    def noting_lda(*args, **kwargs):
        fitted.append(train_lda(*args, **kwargs))
        return fitted[-1]
    ev.train_lda = noting_lda

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "products.jsonl"
        save_products(generate_products(LISTINGS, ev.mix_seed(SEED, "synth")),
                      path, format="jsonl")
        products = load_products(path, format="jsonl")
    data = ev.CVData.build(products, task, SEED, K)
    cfg = ev.merge_config({})
    train, test = data.plan.train_test(fold)
    train_texts = [data.texts[i] for i in train]
    test_texts = [data.texts[i] for i in test]
    out = {"task": task, "fold": fold, "train_docs": len(train),
           "test_docs": len(test), "representations": {}, "cells": {},
           "mrmr": {}}
    embedded = getattr(ev, "EMBEDDED", ())
    if any(rep in embedded for rep in reps):
        t0 = time.perf_counter()
        table = ev.fit_embedding_table(train_texts, cfg,
                                       ev.mix_seed(data.seed, "word2vec", fold))
        out["skipgram_s"] = round(time.perf_counter() - t0, 4)
        print("skipgram: %.2f s" % out["skipgram_s"], file=sys.stderr,
              flush=True)
    for rep in reps:
        seed = ev.mix_seed(data.seed, rep, fold)
        shared = {"table": table} if rep in embedded else {}
        t0 = time.perf_counter()
        feats, transform = ev.fit_representation(rep, train_texts, cfg, seed,
                                                 **shared)
        t1 = time.perf_counter()
        test_feats = transform(test_texts)
        t2 = time.perf_counter()
        out["representations"][rep] = {"fit_s": round(t1 - t0, 4),
                                       "transform_s": round(t2 - t1, 4),
                                       "columns": feats.n_cols}
        print("%s: fit %.2f s, transform %.2f s" % (rep, t1 - t0, t2 - t1),
              file=sys.stderr, flush=True)
        train_feats = feats.hstack(data.struct.rows(train))
        ftr = train_feats.values
        fte = test_feats.hstack(data.struct.rows(test)).values
        mrmr = out["mrmr"][rep] = {}
        for key, m in (("m%d_s" % CURVE_M, CURVE_M),
                       ("every_column_s", train_feats.n_cols)):
            t0 = time.perf_counter()
            trace = mrmr_select(train_feats, data.y[train], m,
                                target_is_discrete=task == "classification")
            mrmr[key] = round(time.perf_counter() - t0, 4)
        mrmr["steps_sha1"] = hashlib.sha1(repr(
            [(s.feature, s.relevance.hex(), s.redundancy.hex(), s.score.hex())
             for s in trace.steps]).encode()).hexdigest()
        cells = out["cells"][rep] = {}
        for family in ev.FAMILIES:
            t0 = time.perf_counter()
            cell_seed = ev.mix_seed(data.seed, rep, fold, family)
            model = ev.fit_family(family, ftr, data.y[train], task, ev.N_TIERS,
                                  cfg, cell_seed)
            metrics = ev.cell_metrics(model, fte, data.y[test], task)
            cells[family] = {"s": round(time.perf_counter() - t0, 4),
                             **{m: round(v, 6) for m, v in metrics.items()},
                             **stop_record(model)}
        if rep == "lda":
            model = fitted[-1]
            out["lda"] = {
                "train_loglik_per_token": round(
                    log_likelihood(model, train_texts, model.theta), 6),
                "heldout_loglik_per_token": round(
                    log_likelihood(model, test_texts,
                                   model.infer_theta(test_texts)), 6)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--task", choices=["regression", "classification"],
                        default="regression")
    parser.add_argument("--fold", type=int, default=0, choices=range(K))
    parser.add_argument("--representations", default=None,
                        help="comma-separated (default: all five)")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before NumPy is imported
    sys.path.insert(0, str(ROOT / "src"))
    from dataprice.evaluate import REPRESENTATIONS

    reps = (args.representations.split(",") if args.representations
            else REPRESENTATIONS)
    unknown = sorted(set(reps) - set(REPRESENTATIONS))
    if unknown:
        parser.error("unknown representation(s): %s" % ", ".join(unknown))
    logging.disable(logging.INFO)
    text = json.dumps(time_fold(args.task, args.fold, reps), indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
