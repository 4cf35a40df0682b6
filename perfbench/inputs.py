"""Workload inputs, made from the seed, and the model fixture the servers load.

The program under test sees only what this module writes: request bodies
and files.  Bodies carry no label; labels stay here to score the verdicts.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

from procs import ROOT, SRC, memlog_argv, run_to_end

#: Mid overlap: classes share half their indicator tokens, so trees grow
#: to full depth and AUC is not saturated at 1.0.
OVERLAP = 0.5
FIXTURE_LOGS = 200
FIXTURE_SEED = 20210330
MALFORMED_EVERY = 16


def bench_dir() -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memlog").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def gen_args(out: Path, logs: int, seed: int) -> list[str]:
    return ["gen", "--out", str(out), "--malicious", str(logs // 2), "--benign", str(logs - logs // 2),
            "--overlap", str(OVERLAP), "--seed", str(seed)]


def ensure_fixture() -> tuple[str, str]:
    """(embeddings, model) trained by the code under test at default settings.

    Built once per source tree with ``memlog gen`` and ``memlog train``
    and cached under a key of the sources, outside any timed region.
    """
    key = hashlib.sha256(f"{source_digest()}/{FIXTURE_LOGS}/{OVERLAP}/{FIXTURE_SEED}".encode()).hexdigest()
    final = bench_dir() / f"fixture-{key[:16]}"
    if not final.exists():
        build = bench_dir() / f"fixture-build-{os.getpid()}"
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir()
        corpus = build / "corpus"
        run_to_end(memlog_argv(*gen_args(corpus, FIXTURE_LOGS, FIXTURE_SEED)), build / "gen", 600)
        run_to_end(memlog_argv("train", "--corpus", str(corpus), "--seed", str(FIXTURE_SEED),
                               "--embeddings-out", str(build / "emb.mleb"),
                               "--model-out", str(build / "mdl.mlgb")), build / "train", 900)
        shutil.rmtree(corpus)
        try:
            os.replace(build, final)
        except OSError:
            shutil.rmtree(build, ignore_errors=True)  # built concurrently by another run
    return str(final / "emb.mleb"), str(final / "mdl.mlgb")


def _labeled_docs(logs: int, seed: int) -> list[tuple[dict, int]]:
    from memlog.logmodel import Label, serialize_log
    from memlog.synthgen import GenSpec, generate_corpus

    spec = GenSpec(n_malicious=logs // 2, n_benign=logs - logs // 2, overlap=OVERLAP, seed=seed)
    out = []
    for log in generate_corpus(spec):
        doc = json.loads(serialize_log(log))
        doc.pop("label")
        out.append((doc, int(log.label is Label.MALICIOUS)))
    return out


def detect_pool(logs: int, seed: int) -> tuple[list[str], list[int]]:
    """Typical synthetic logs (about 4.6 KB each) as request bodies, and their labels."""
    docs = _labeled_docs(logs, seed)
    return [json.dumps(doc) for doc, _ in docs], [label for _, label in docs]


def request_order(pool_size: int, length: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    order = []
    while len(order) < length:
        block = list(range(pool_size))
        rng.shuffle(block)
        order.extend(block)
    return order[:length]


def _inflate(doc: dict, rng: random.Random, target_bytes: int) -> None:
    """Grow a log toward ``target_bytes`` with modules, resources, frames and stack bytes."""
    runtime = doc["runtime"]
    budget = target_bytes - len(json.dumps(doc))
    for _ in range(int(budget * 0.35) // 130):
        base = rng.randrange(0x10000000, 0x7FFF0000, 0x1000)
        size = rng.randrange(4, 256) * 0x1000
        runtime["loaded_modules"].append({
            "base": hex(base), "end": hex(base + size), "size": size,
            "link_meta": rng.choice(("static", "dynamic")),
            "path": f"c:\\windows\\winsxs\\x86_lib{rng.randrange(4000):04d}\\mod{rng.randrange(900):03d}.dll",
        })
    for _ in range(int(budget * 0.25) // 150):
        runtime[rng.choice(("loaded_resources", "opened_resources"))].append({
            "path": f"c:\\users\\work\\cache\\item{rng.randrange(20000):05d}.dat",
            "size": rng.randrange(100, 1_000_000), "hash": rng.randbytes(16).hex(),
            "created": 1_545_000_000_000 + rng.randrange(10**9),
            "modified": 1_546_000_000_000 + rng.randrange(10**9),
        })
    for _ in range(int(budget * 0.10) // 28):
        runtime["stack_trace"].append(f"mod{rng.randrange(900):03d}.dll+{hex(rng.randrange(0x100000))}")
    remaining = target_bytes - len(json.dumps(doc))
    if remaining > 0:
        runtime["stack_snapshot"] += rng.randbytes(remaining // 2).hex()


def ship_pool(files: int, seed: int) -> list[tuple[bytes, int | None]]:
    """Large logs (150-250 KB) as file bodies, with label; None marks a malformed file.

    Every ``MALFORMED_EVERY``-th file is broken, alternately truncated JSON
    and bytes that are not UTF-8; the service must answer 400 for both.
    """
    rng = random.Random(seed)
    out = []
    for i, (doc, label) in enumerate(_labeled_docs(files, seed + 1)):
        _inflate(doc, rng, rng.randrange(150_000, 250_000))
        body = json.dumps(doc).encode("utf-8")
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            cut = len(body) // 2
            broken = body[:cut] if (i // MALFORMED_EVERY) % 2 == 0 else body[:cut] + b"\xff\xfe" + body[cut:]
            out.append((broken, None))
        else:
            out.append((body, label))
    return out
