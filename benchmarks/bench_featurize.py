#!/usr/bin/env python3
"""Benchmark reading a log: parse, tokenize, vectorize, score, and the whole detect.

Runs on perfbench's two request pools, built by its own pool functions:
the detect pool (typical 4.6 KB logs) and the ship pool (150-250 KB logs,
of which the malformed ones are left out).  The model is trained in this
process on a ``generate_corpus`` corpus like perfbench's fixture (overlap
0.5), so nothing is written under ``perfbench/`` or ``.perfbench/``.

For each pool it prints the best-of-N time per log of ``parse_log``,
``tokenize``, ``vectorize_log``, ``predict_one`` and
``DetectorService.detect`` (with an audit file in a temporary directory),
and a digest of what they returned, so two trees can be compared for both
speed and output.  Run from the repository root with ``src`` on
``PYTHONPATH``.
"""
import argparse
import hashlib
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ either
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench's pool functions)

from memlog.embedding import Hyperparams, build_vocab, train_embeddings  # noqa: E402
from memlog.gbdt import GbdtParams, predict_one, train_classifier  # noqa: E402
from memlog.logmodel import parse_log  # noqa: E402
from memlog.service import DetectorService  # noqa: E402
from memlog.synthgen import GenSpec, generate_corpus  # noqa: E402
from memlog.tokenizer import tokenize  # noqa: E402
from memlog.vectorizer import label_vector, vectorize_log, vectorize_tokens  # noqa: E402

STAGES = ("parse_log", "tokenize", "vectorize_log", "predict_one", "detect")


def train_model(logs, seed):
    corpus = generate_corpus(GenSpec(logs // 2, logs - logs // 2, overlap=inputs.OVERLAP, seed=seed))
    grouped = [tokenize(log) for log in corpus]
    embeddings = train_embeddings(grouped, build_vocab(grouped), Hyperparams(seed=seed))
    model = train_classifier(vectorize_tokens(grouped, embeddings), label_vector(corpus), GbdtParams())
    return embeddings, model


def best_per_item(fn, items, repeats):
    """(outputs, best seconds per item) of ``fn`` over ``items``, best of ``repeats`` passes."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        outputs = [fn(item) for item in items]
        best = min(best, time.perf_counter() - start)
    return outputs, best / len(items)


def bench_pool(name, bodies, service, repeats):
    parsed, parse_s = best_per_item(parse_log, bodies, repeats)
    tokens, tokenize_s = best_per_item(tokenize, [log for log, _ in parsed], repeats)
    vectors, vectorize_s = best_per_item(lambda t: vectorize_log(t, service.embeddings), tokens, repeats)
    scores, predict_s = best_per_item(lambda v: predict_one(service.model, v.values), vectors, repeats)
    results, detect_s = best_per_item(service.detect, bodies, repeats)

    digest = hashlib.sha256()
    for log_report, groups, vector, score, result in zip(parsed, tokens, vectors, scores, results):
        digest.update(repr(log_report).encode())
        digest.update(repr([list(g) for g in groups]).encode())
        digest.update(vector.values.tobytes() + vector.coverage.tobytes())
        digest.update(repr((score, result.score, result.verdict)).encode())
    times = (parse_s, tokenize_s, vectorize_s, predict_s, detect_s)
    kb = sum(map(len, bodies)) / len(bodies) / 1000
    print(f"{name:<7} {len(bodies):>5} {kb:>7.1f} "
          + " ".join(f"{t * 1e6:>13.1f}" for t in times)
          + f" {(parse_s + tokenize_s) * 1e6:>14.1f}  {digest.hexdigest()[:16]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--detect-logs", type=int, default=200, help="detect pool size")
    parser.add_argument("--ship-files", type=int, default=64, help="ship pool size, malformed included")
    parser.add_argument("--seed", type=int, default=11, help="pool seed, as perfbench --seed")
    parser.add_argument("--train-logs", type=int, default=inputs.FIXTURE_LOGS)
    parser.add_argument("--repeats", type=int, default=9, help="best-of-N timing")
    args = parser.parse_args()

    embeddings, model = train_model(args.train_logs, inputs.FIXTURE_SEED)
    detect_bodies = [body.encode() for body in inputs.detect_pool(args.detect_logs, args.seed)[0]]
    ship_bodies = [body for body, label in inputs.ship_pool(args.ship_files, args.seed) if label is not None]

    print("per-log best of", args.repeats, "in µs; detect includes the audit line")
    print(f"{'pool':<7} {'logs':>5} {'KB/log':>7} " + " ".join(f"{s:>13}" for s in STAGES)
          + f" {'parse+tokenize':>14}  digest")
    with tempfile.TemporaryDirectory() as tmp:
        service = DetectorService(embeddings, model, audit_path=str(Path(tmp) / "audit.jsonl"))
        bench_pool("detect", detect_bodies, service, args.repeats)
        bench_pool("ship", ship_bodies, service, args.repeats)


if __name__ == "__main__":
    main()
