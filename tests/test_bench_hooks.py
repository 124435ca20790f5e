"""The benchmark in bench/ hooks the package by attribute name. Installing
its hooks fails on the first name that no longer exists, which would stop
every benchmark run at start-up; this guard catches that in the unit suite.
A call that bypasses a hooked attribute would instead leave its layer empty,
which the span counts below catch."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Recorder, layer_metrics  # noqa: E402

from dataprice import cli, evaluate  # noqa: E402
from dataprice.evaluate import FAMILIES  # noqa: E402
from dataprice.synth import generate_products  # noqa: E402


@pytest.mark.parametrize("tracing", [False, True])
def test_every_hooked_name_exists(tracing):
    originals = (cli._COMMANDS["evaluate"], evaluate.fit_family,
                 cli._fit_embedding_table)
    rec = Recorder("hooks")
    try:
        rec.install(tracing=tracing)
    finally:
        rec.unwrap_all()
    assert (cli._COMMANDS["evaluate"], evaluate.fit_family,
            cli._fit_embedding_table) == originals


def test_traced_grid_and_curve_reach_every_hooked_layer():
    products = generate_products(20, seed=0)
    hp = {"max_terms": 30, "mlp": {"hidden": [4], "epochs": 5},
          "svr": {"max_iter": 50}, "forest": {"n_trees": 2}, "gbt": {"n_rounds": 2}}
    reps, k, m_values = ["bow", "tfidf"], 2, [1, 2]
    rec = Recorder("hooks")
    rec.install(tracing=True)
    try:
        cli.run_grid(products, reps, FAMILIES, config=hp, seed=0, k=k)
        for family in FAMILIES:
            cli.feature_curve(products, "bow", family, m_values, config=hp,
                              seed=0, k=k)
    finally:
        rec.unwrap_all()
    m = layer_metrics(rec.spans, 0, [])
    assert m["evaluate.cells"] == (len(reps) * k * len(FAMILIES), "count")
    assert m["featsel.mrmr_calls"] == (k * len(FAMILIES), "count")
    # mRMR reaches the hooked featsel.mutual_information
    assert m["featsel.mi_calls"][0] > 0
    assert m["featsel.mi_s"][0] > 0
    for family in FAMILIES:
        # every grid cell fits once, and so does every curve cell, except
        # that gbt fits each curve fold's m values in one batched call
        curve_fits = k if family == "gbt" else k * len(m_values)
        assert m["models.%s.fit_calls" % family] == (
            len(reps) * k + curve_fits, "count")
        assert m["models.%s.predict_s" % family][0] > 0
