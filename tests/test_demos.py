"""Smoke test: every demo script runs to completion in a temporary directory, and the README quickstart runs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quickstart_gives_what_its_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    profile, flat, sg = namespace["profile"], namespace["flat"], namespace["sg"]
    assert profile.visibility() > 0.99999  # full fringes: about 1.0, as a 1,001-angle grid misses the exact minima
    assert flat.visibility() == 0.0
    assert sg.visibility() == pytest.approx(profile.visibility(), abs=1e-12)
    assert sg.intensities.max() == pytest.approx(0.5, abs=1e-12)
