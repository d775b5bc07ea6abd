"""The quick demos run to the end.

Each demo runs as a script in a fresh interpreter with ``PYTHONPATH=src``,
from an empty working directory that it must leave empty.
``set_vs_summary_models.py`` trains a pool of set models for about a
minute, so it is run by hand, not here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["importance_analysis.py",
                                  "postprocessing_walkthrough.py"])
def test_demo_exits_0_and_writes_no_file(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
