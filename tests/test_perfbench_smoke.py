"""The benchmark's own smoke check, so a kernel change that breaks its output checks fails here.

``perfbench/smoke.py`` runs every workload once untraced and once traced at
toy sizes and fails on a missing metric or on any failed operation (the
studies transcript, a forgery that does not re-transform to its template).
"""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "perfbench" / "smoke.py"


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, str(SMOKE)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
