"""benchmarks/bench_train.py: runs end to end at a tiny size and prints every stage."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("read_corpus", "tokenize", "build_vocab", "draws[0]", "epoch[0]", "draws[1]", "epoch[1]",
          "train_embeddings", "vectorize_tokens", "train_classifier", "cmd_train", "draws_total", "epochs_total")


def test_prints_each_stage_and_the_written_digests():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_train.py"), "--logs", "16", "--repeats", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    rows = dict(line.rsplit(maxsplit=1) for line in result.stdout.splitlines()[1:] if not line.startswith("sha256"))
    assert set(STAGES) <= set(rows)
    assert all(float(value) >= 0.0 for value in rows.values())
    digests = re.findall(r"^sha256 (\S+) ([0-9a-f]{64})$", result.stdout, re.MULTILINE)
    assert [name for name, _ in digests] == ["emb.mleb", "mdl.mlgb"]
