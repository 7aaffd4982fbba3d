"""Each demo prints what it printed when its golden was captured.

Every ``demos/*.py`` runs in a fresh interpreter on this checkout's sources,
and its stdout must equal the entry in ``demo_outputs.json``.  Regenerate the
goldens, only after checking that a change of output is intended, with

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_outputs.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run(name):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    assert _run(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: _run(n) for n in DEMOS}, indent=1, sort_keys=True) + "\n")
