"""Every demo script, and the README's quick-start block, runs to completion
against the public API, with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    # -X dev and -W error here: the flags given to pytest do not reach a child.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_prints_what_it_says(tmp_path):
    """The quick-start block prints exactly what the comment on its last line shows."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    [shown] = re.findall(r"#\s*(.+)$", block.rstrip().splitlines()[-1])
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == shown + "\n"
