"""Smoke test: the quick demos run standalone and finish cleanly.

Demos 03 and 05 train translation models for minutes and stay out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_DEMOS = ("01_gradients_and_optimizers.py", "02_synthetic_corpora.py",
               "04_anchor_coding.py", "06_evaluation_reports.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
