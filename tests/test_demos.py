"""Smoke test for the feature-anatomy demo, the one demo that prints a
`build_matrix` row block by block over `encoder.blocks`.  The other
demos train many models and take tens of seconds each, so they are not
run here."""

import os
import re
import subprocess
import sys
from pathlib import Path

from ktrace.features import FeatureFamily

ROOT = Path(__file__).resolve().parents[1]
BLOCK_LINE = re.compile(r"^  block (\S+)\s+offset\s+(\d+) size (\d+)$")


def test_feature_anatomy_demo_prints_every_block():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_feature_anatomy.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    dim = int(re.match(r"encoder dimension (\d+),", lines[0]).group(1))
    blocks = [m.groups() for m in map(BLOCK_LINE.match, lines) if m]
    assert len(blocks) == 8  # the demo's recipe has eight families
    # one line per block, in order: offsets tile [0, dim) without gaps
    offset = 0
    for name, off, size in blocks:
        FeatureFamily.parse(name)
        assert int(off) == offset, name
        offset += int(size)
    assert offset == dim
    names = {name for name, _, _ in blocks}
    fired = [line.split()[0] for line in lines if line.startswith("  ") and "[" in line]
    assert fired and set(fired) <= names
