"""The benchmark in bench/ hooks the package by attribute name. Installing
its hooks fails on the first name that no longer exists, which would stop
every benchmark run at start-up; this guard catches that in the unit suite."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Recorder  # noqa: E402

from dataprice import cli, evaluate  # noqa: E402


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
