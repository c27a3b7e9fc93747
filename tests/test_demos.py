"""Smoke test: every demo script runs to completion in a temporary directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, subprocess_env):
    # cwd is a temporary directory because demo 02 writes its CSV there
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
