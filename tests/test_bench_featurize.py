"""benchmarks/bench_featurize.py: runs end to end at a tiny size and writes nothing to perfbench."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def listing(path: Path) -> list[str]:
    return sorted(str(p.relative_to(ROOT)) for p in path.rglob("*")) if path.exists() else []


def test_prints_each_stage_for_both_pools():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    before = listing(ROOT / "perfbench"), listing(ROOT / ".perfbench")
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_featurize.py"),
         "--detect-logs", "4", "--ship-files", "2", "--train-logs", "16", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for stage in ("parse_log", "tokenize", "vectorize_log", "predict_one", "detect"):
        assert stage in result.stdout
    rows = [line.split() for line in result.stdout.splitlines() if line.split()[:1] in (["detect"], ["ship"])]
    assert [row[:2] for row in rows] == [["detect", "4"], ["ship", "2"]]
    assert all(re.fullmatch(r"[0-9a-f]{16}", row[-1]) for row in rows)
    assert (listing(ROOT / "perfbench"), listing(ROOT / ".perfbench")) == before
