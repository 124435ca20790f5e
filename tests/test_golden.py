"""Golden artifact digests: the whole CLI pipeline, byte for byte.

Runs `ingest` ... `report` in-process on 60 synthetic listings for both
tasks, with every representation and family in the grid and small
hyperparameters, and compares the sha256 of every file under the output
directory (manifests included) with tests/golden/digests.json.

The bits depend on the NumPy build, libm and OpenBLAS, so the file is keyed
by the NumPy version and the machine; on another key the test skips. A
change that is meant to move the numbers regenerates the file with
`PYTHONPATH=src python tests/golden/regen.py`.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import yaml

from dataprice.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
STAGES = ["ingest", "featurize", "select", "train", "evaluate", "explain",
          "curve", "report"]
# regression trains the tree path on embedding features (keywords too);
# classification trains the kernel path, explained once per class
TRAIN = {"regression": {"representation": "word2vec", "family": "gbt"},
         "classification": {"representation": "bow", "family": "mlp"}}


def golden_key() -> str:
    return "numpy %s on %s" % (np.__version__, platform.machine())


def golden_config(task: str) -> dict:
    return {
        "seed": 5,
        # manifests record input paths, so the output directory is relative
        "out_dir": "run_%s" % task,
        "data": {"synthetic": 60},
        "target": {"task": task},
        "cv": {"k": 3},
        "select": {"representation": "tfidf", "m": 5},
        "train": TRAIN[task],
        "explain": {"rows": 3, "n_samples": 32, "background_rows": 5},
        "curve": {"representation": "lda", "family": "svm", "m_values": [1, 3]},
        "hyperparameters": {
            "word2vec": {"d": 8, "epochs": 1}, "lda": {"iterations": 5},
            "svr": {"max_iter": 50}, "gbt": {"n_rounds": 3},
            "forest": {"n_trees": 5}, "mlp": {"epochs": 5},
        },
    }


def digests(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def pipeline_digests(task: str, threads: int = 1) -> dict:
    """Run every stage in the current directory; the digests of its output."""
    cfg = golden_config(task)
    config = Path("run_%s.yaml" % task)
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    for stage in STAGES:
        code = main([stage, "--config", str(config), "--threads", str(threads)])
        if code != 0:
            raise RuntimeError("stage %s exited %d" % (stage, code))
    return digests(Path(cfg["out_dir"]))


# --threads 2 runs evaluate and curve on a process pool; the digests are the
# same file, so the pool must not move a byte
@pytest.mark.parametrize("task, threads", [
    pytest.param("regression", 1, id="regression"),
    pytest.param("classification", 1, id="classification"),
    pytest.param("regression", 2, id="regression-threads2"),
    pytest.param("classification", 2, id="classification-threads2"),
])
def test_pipeline_artifacts_match_golden_digests(task, threads, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["key"] != golden_key():
        pytest.skip("golden digests are for %s; this is %s"
                    % (golden["key"], golden_key()))
    monkeypatch.chdir(tmp_path)
    got = pipeline_digests(task, threads)
    want = golden["digests"][task]
    assert sorted(got) == sorted(want)
    changed = [f for f in want if got[f] != want[f]]
    assert not changed, "artifacts differ from the golden digests: %s" % changed
    # a rerun finds every stage up to date and rewrites nothing
    assert pipeline_digests(task, threads) == got
