"""The quick demos run to the end.

Demo 01 (about 1.5 s) tours the model-free exploration of a season, and
demo 03 (about 6 s) drives the fit -> effects -> predictive path; each
runs as its own process and must exit 0.  Demos 02 and 04 take about
12 s and 14 s, so they run in a CI step of their own
(``.github/workflows/tier1.yml``) rather than here; by hand,
``python demos/02_fit_and_diagnose.py`` and
``python demos/04_calibration_checks.py`` from the repository root.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_explore_season.py", "03_effects_and_predictions.py"])
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, BIATHLON_BAYES_THREADS="1")
    run = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)], cwd=_ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
