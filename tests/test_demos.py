"""Smoke test: every demo runs standalone and finishes cleanly.

The two that train translation models are the slowest: on 2 CPUs demo 03
takes about 3 s and demo 05, the four-stage protocol, about 15 s.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_gradients_and_optimizers.py", "02_synthetic_corpora.py",
         "03_baseline_translation.py", "04_anchor_coding.py",
         "05_reference_pipeline.py", "06_evaluation_reports.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
