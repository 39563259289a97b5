"""The demos run to completion.

Only the quick demos run here: 01 and 02 take under half a second each and
04 about 7 s (2-core x86_64 box, CPython 3.11.7).  `03_budget_grid.py`
checks every cell of the budget grid at a 200k-step cap and
`05_oracle_crosscheck.py` saturates the ground oracle for every query it
compares; at about 70 s and 30 s they would add some 100 s to the suite,
so they are run by hand.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import outlinecheck

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["01_check_corpus.py", "02_trace_and_replay.py",
                                  "04_lemma_trees.py"])
def test_demo_runs(demo):
    src = pathlib.Path(outlinecheck.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
