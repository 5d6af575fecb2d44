"""The committed goldens in tests/data come from scripts/make_fixtures.py."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_generator_reproduces_committed_fixtures(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "make_fixtures.py"),
            "--out-dir",
            str(tmp_path),
        ],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    committed = sorted(p.name for p in DATA_DIR.iterdir())
    assert len(committed) == 11
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
