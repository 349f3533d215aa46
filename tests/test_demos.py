"""Every demo script, and the README's Quick start block, runs to
completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_fresh(args, cwd):
    """Run ``python *args`` in a fresh interpreter that imports ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_demo_exits_zero(tmp_path):
    demos = sorted((REPO_ROOT / "demos").glob("*.py"))
    assert demos
    failed = {}
    for demo in demos:
        done = run_fresh([str(demo)], tmp_path)
        if done.returncode != 0:
            failed[demo.name] = (done.returncode, done.stderr[-2000:])
    assert not failed, failed


def test_readme_quick_start_runs_and_prints_its_claims(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_fresh(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["0.0", "1.0"]
