"""Rewrite tests/golden/digests.json from the current code.

Usage: PYTHONPATH=src python tests/golden/regen.py

Runs the pipeline of tests/test_golden.py for both tasks in a temporary
directory and stores the digests under this machine's key (NumPy version
and machine). Before writing, it prints one line per artifact whose digest
changed, or that was added or removed, against the file on disk. A change
that moves the digests regenerates them in the same commit and names the
changed artifacts and the reason.
"""

import json
import logging
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, golden_key, pipeline_digests  # noqa: E402


def moved(new: dict) -> list:
    """One "task/path (changed|added|removed)" line per artifact whose
    digest differs from the file on disk."""
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
           if GOLDEN.exists() else {})
    lines = []
    for task in sorted(set(old) | set(new)):
        was, now = old.get(task, {}), new.get(task, {})
        for path in sorted(set(was) | set(now)):
            if path not in now:
                lines.append("%s/%s removed" % (task, path))
            elif path not in was:
                lines.append("%s/%s added" % (task, path))
            elif was[path] != now[path]:
                lines.append("%s/%s changed" % (task, path))
    return lines


def main() -> None:
    logging.disable(logging.INFO)
    here = os.getcwd()
    out = {"key": golden_key(), "digests": {}}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for task in ("regression", "classification"):
                out["digests"][task] = pipeline_digests(task)
        finally:
            os.chdir(here)
    for line in moved(out["digests"]):
        print(line)
    GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print("wrote %s (%s)" % (GOLDEN, out["key"]))


if __name__ == "__main__":
    main()
