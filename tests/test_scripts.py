"""Smoke tests of the demo drivers in scripts/: each runs with small sizes
into a temporary directory, exits 0 and writes its artifacts."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# script, small-size arguments, artifacts, lines its stdout must contain
DEMOS = [
    ("approx_demo.py", ["--j-max", "1"], ["report.json"], ["wrote"]),
    ("product_demo.py", ["--beta-tol", "1e-2"],
     ["seed.json", "measure.json", "tails.csv", "report.json"],
     ["measure mode exit 0"]),
    ("staircase_slopes.py", ["--n-max", "300"], ["summary.csv"], ["wrote"]),
    ("models_demo.py", ["--N", "300"],
     ["seed.json", "afs.json", "afs_tails.csv", "plap_moments.csv", "plap.json",
      "plap_measure.json", "plap_support.json", "plap_dual.json"],
     ["afs exit 0", "plap exit 0", "duality exit 0"]),
]


@pytest.mark.parametrize("script, args, artifacts, says", DEMOS,
                         ids=[d[0] for d in DEMOS])
def test_demo_runs(script, args, artifacts, says, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--outdir", str(tmp_path / "out")] + args,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for line in says:
        assert line in out.stdout
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted(artifacts)
    for name in artifacts:
        path = tmp_path / "out" / name
        if name.endswith(".json"):
            json.loads(path.read_text())
        else:
            rows = list(csv.reader(path.read_text().splitlines()))
            assert len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
