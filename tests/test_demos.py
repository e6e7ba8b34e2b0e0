"""Every script under demos/ runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, cli_env, tmp_path):
    # demo 05 writes its files under a temporary directory it must remove
    env = dict(cli_env, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("factorfit-demo-*"))
