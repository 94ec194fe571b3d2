"""The scripts run from a plain checkout: each puts ``src`` on its own path,
so neither an install nor PYTHONPATH is needed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["random_trials.py", "--trials", "20"],
        ["squares_experiment.py", "--width", "6", "--height", "6", "--radius", "2.1"],
    ],
    ids=["random-trials", "squares-experiment"],
)
def test_script_runs_without_pythonpath(tmp_path, argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
