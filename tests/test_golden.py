"""Byte identity of the command line at the benchmark's stage arguments.

Every workload of ``perfbench/run.py`` runs its four stages in process
through :func:`enspost.cli.main` at seed 5, and the ``run_hash`` of each
stage and the SHA-256 of each checkpoint must equal those recorded in
``golden_hashes.json``.  The stage arguments come from ``perfbench/run.py``
itself (``WORKLOADS``, ``STAGES``), which imports no ``enspost``, so they
have one home.

A change that moves hashes on purpose records the new ones with

    PYTHONPATH=src python tests/test_golden.py

and lists old -> new in CHANGES.md.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np

from enspost.cli import main
from enspost.data import sha256_file

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
from run import STAGES, WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden_hashes.json"
SEED = 5


def _environment():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _hashes(root):
    """Stage or checkpoint name -> hash of every workload's pipeline, run
    in process under ``root``."""
    hashes = {}
    for name, workload in WORKLOADS.items():
        dirs = {stage: root / name / stage for stage in STAGES}
        for stage in STAGES:
            assert main(workload.args(stage, dirs, SEED)) == 0, (name, stage)
            manifest = json.loads((dirs[stage] / "run_manifest.json")
                                  .read_text())
            hashes[f"{name}/{stage}"] = manifest["run_hash"]
        for checkpoint in sorted(dirs["train"].glob("model_*.bin")):
            hashes[f"{name}/train/{checkpoint.name}"] = sha256_file(checkpoint)
    return hashes


def test_stage_outputs_are_byte_identical_to_the_golden_file(tmp_path,
                                                             capsys):
    golden = json.loads(GOLDEN.read_text())
    hashes = _hashes(tmp_path)
    capsys.readouterr()
    differing = sorted(key for key in golden["hashes"].keys() | hashes.keys()
                       if golden["hashes"].get(key) != hashes.get(key))
    assert not differing, (
        f"hashes differ from {GOLDEN.name}: {', '.join(differing)}; "
        f"recorded with {golden['environment']}, run with {_environment()}")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {"seed": SEED, "environment": _environment(),
                  "hashes": _hashes(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
