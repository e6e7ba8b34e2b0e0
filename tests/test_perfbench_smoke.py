"""One short ``perfbench/run.py`` run, as the benchmark starts it.

The benchmark reads a run's result from the last line of its standard
output, so nothing the library writes or leaves running at exit may come
after it, and the run removes its work directory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def work_entries():
    return set(WORK.iterdir()) if WORK.is_dir() else set()


def test_htfa_blobs_run_ends_with_its_result():
    before = work_entries()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "htfa-blobs",
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert work_entries() == before
