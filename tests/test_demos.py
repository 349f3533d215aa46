"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_zero(tmp_path):
    demos = sorted((REPO_ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    failed = {}
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            failed[demo.name] = (done.returncode, done.stderr[-2000:])
    assert not failed, failed
