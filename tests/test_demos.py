"""The demos run end to end, and every public name resolves."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import m2e
from m2e.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("m2e ")]
    assert len(commands) >= 6
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # argparse exits on a bad flag


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_unloaded():
    # the package needs numpy alone: with scipy made unimportable, label
    # matching and evaluation at k = 8 succeed, and no scipy module loads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
import m2e
truth = np.repeat(np.arange(1, 9), 3)
assert m2e.match_labels(9 - truth, truth, 8).accuracy == 1.0
embedding = np.repeat(np.arange(8.0)[:, None] * 10, 3, axis=0)
doc = m2e.run_evaluate(embedding, truth, m2e.RunConfig(kmeans_k=8, eval_repeats=2))
assert doc["mean"]["accuracy"] == 1.0, doc["mean"]
assert [name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None] == []
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    missing = [name for name in m2e.__all__ if not hasattr(m2e, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    # TMPDIR keeps the scratch directories that demos create inside tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
