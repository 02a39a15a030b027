"""Smoke test: every demo script runs to completion on a copy of demos/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(DEMOS, dest, ignore=shutil.ignore_patterns("out"))
    return dest


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_script_runs(demo_dir, script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, str(demo_dir / script)],
        cwd=demo_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
