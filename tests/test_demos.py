"""The narrative demos and the README's library tour run to completion
against the library in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_double_traces_and_repetitions.py",
    "02_spanning_trees_and_deficiency.py",
    "03_characterization_pipeline.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    # a moved or renamed export fails here before a reader meets it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    exec(compile(tour, "README.md", "exec"), {})
