"""Tests of the benchmark itself.

    python3 -m pytest bench

The smoke test runs every workload once at a tiny size, traced, and checks
that every metric named in BENCHMARK.json is emitted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import layer_metrics
from speed import REFERENCE_S, SpeedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in reports] == ["pipeline_reg", "grid_tiers",
                                                "explain_rows"]
    assert all(r["ok"] for r in reports)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_tiers", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_and_grid_cells():
    # evaluate.grid [0, 10] holds a fit [1, 3] and its scoring [3, 4], and
    # a representation fit [5, 6]
    spans = [
        ["evaluate.grid", -1, 0.0, 10.0, None],
        ["models.gbt.fit", 0, 1.0, 3.0, None],
        ["models.gbt.predict", 0, 3.0, 4.0, None],
        ["textrep.bow.fit", 0, 5.0, 6.0, None],
        ["featsel.mi", 3, 5.5, 5.75, None],
    ]
    m = layer_metrics(spans, grid_cell_failures=0, row_s=[])
    assert m["evaluate.self_s"] == (6.0, "s")
    assert m["evaluate.cells"] == (1, "count")
    assert m["evaluate.cell_s_p50"] == (3.0, "s")
    assert m["models.gbt.fit_calls"] == (1, "count")
    assert m["featsel.mi_calls"] == (1, "count")
    assert m["textrep.bow.fit_s"] == (1.0, "s")


def test_speed_clock_scales_each_stretch_by_its_probes():
    # probes at 1, 2 and 3 s of 0.1 s each; the first two read half speed
    # (2 x REFERENCE_S), the third full speed
    clock = SpeedClock()
    clock.starts = [1.0, 2.0, 3.0]
    clock.ends = [1.1, 2.1, 3.1]
    clock.probe_s = [2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # medians of three: 2R, 2R, 1.5R
    expected = (1.0 + 0.9 + 0.9) / 2 + 0.4 / 1.5
    assert abs(clock.elapsed(0.0, 3.5) - expected) < 1e-12
    assert abs(clock.elapsed(3.2, 3.5) - 0.3 / 1.5) < 1e-12
    assert SpeedClock().elapsed(0.0, 2.5) == 2.5
