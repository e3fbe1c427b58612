"""The benchmark's own self-tests pass against this checkout.

``bench/selftest.py`` runs a small pipeline through the benchmark's checker
and tracer, so a change to ``gcnx`` that breaks a check or leaves a public
function unwrapped fails here too. It only reads ``bench/`` and writes under
the checkout's ``.bench_work/``; it takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
