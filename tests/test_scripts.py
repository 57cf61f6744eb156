import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twofaced.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("signature_demo.py", ["--length", "20000", "--order", "4"]),
    ("signature_demo.py", ["--length", "20000", "--order", "3"]),
    ("expansion_demo.py", ["--runs", "4", "--length", "2048"]),
    # past the 2^k-state chain's cap of order 20
    ("signature_demo.py", ["--length", "20000", "--order", "30", "--max-m", "3"]),
    ("signature_demo.py", ["--length", "20000", "--order", "21"]),
])
def test_script_runs(script, args):
    assert _run_script(script, args).strip()


def test_signature_demo_prints_both_faces():
    args = ["--order", "4", "--pi", "0.1", "--length", "20000", "--seed", "6"]
    staircase, battery = _run_script("signature_demo.py", args).split("\n\n")
    # exact h_m: 1 bit through the order, H(0.1) past it
    assert [row.split()[1] for row in staircase.splitlines()[2:]] == \
        ["1.000000"] * 4 + ["0.468996"]
    battery = battery.split("\n", 1)[1]  # below its header line
    assert len(battery.splitlines()) == 5
    stream, report = io.BytesIO(), io.BytesIO()
    assert run(["gen", *args], stdout=stream) == 0
    assert run(["analyze", "--max-block", "5"], stdin=io.BytesIO(stream.getvalue()),
               stdout=report) == 0
    assert report.getvalue().decode("ascii") == battery
