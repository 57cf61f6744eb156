import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("signature_demo.py", ["--length", "20000", "--order", "4"]),
    ("entropy_staircase.py", ["--length", "20000", "--order", "3"]),
    ("expansion_demo.py", ["--runs", "4", "--length", "2048"]),
    # past the 2^k-state chain's cap of order 20
    ("entropy_staircase.py", ["--length", "20000", "--order", "30", "--max-m", "3"]),
    ("signature_demo.py", ["--length", "20000", "--order", "21"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
