"""Smoke test: every script in ``scripts/`` runs at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# Arguments that keep each script to a second or two.
TINY_ARGS = {
    "induce_lexicon.py": ["--messages", "200", "--min-count", "2"],
    "make_corpora.py": [
        "--out-dir", "corpora", "--messages", "60", "--terms", "60", "--raw", "60",
    ],
    "message_experiment.py": ["--messages", "120"],
    "term_experiment.py": ["--instances", "90"],
}


def test_every_script_has_tiny_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("script", sorted(TINY_ARGS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *TINY_ARGS[script]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if script == "make_corpora.py":
        assert len(list((tmp_path / "corpora").glob("*.tsv"))) == 7
