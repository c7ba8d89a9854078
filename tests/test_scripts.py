"""Smoke test of scripts/reproduce_experiments.py at its --quick size."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_reproduce_experiments_quick_writes_every_csv(tmp_path):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                  if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_experiments.py"),
         "--quick", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    named = [pathlib.Path(line.removeprefix("wrote "))
             for line in done.stdout.splitlines() if line.startswith("wrote ")]
    # 3 timing CSVs per n and 1 per d (2 each), 2 isometry, 5 verify
    assert len(named) == 15
    for csv in named:
        assert csv.parent == tmp_path
        assert csv.stat().st_size > 0
    assert sorted(named) == sorted(tmp_path.glob("*.csv"))
