#!/usr/bin/env python3
"""Benchmark ``memlog train`` stage by stage, in process.

Writes a ``generate_corpus`` corpus like perfbench's ``train`` workload
(half malicious, overlap 0.5) into a temporary directory and prints the
best-of-N time of each stage of ``cmd_train`` at its defaults:
``read_corpus``, ``tokenize``, ``build_vocab``, each epoch's negative draws
(``rng.random`` then ``kernels.draw_negatives``) and each skip-gram epoch
run one after the other (asserted to end at ``train_embeddings``'s
vectors), ``train_embeddings`` (which draws one epoch ahead on a helper
thread, so it can take less than the draws and epochs added up),
``vectorize_tokens``, ``train_classifier`` and the whole ``cmd_train``.
Last come the sha256 digests of the files ``cmd_train`` wrote.  Nothing is
written outside the temporary directory.  Run from the repository root
with ``src`` on ``PYTHONPATH``.
"""
import argparse
import contextlib
import hashlib
import io
import tempfile
import time
from pathlib import Path

from memlog import cli, kernels
from memlog.embedding import (
    EMBEDDING_DIM,
    LR_FLOOR_FRACTION,
    Hyperparams,
    _negative_sampling_cdf,
    _sentences,
    build_vocab,
    train_embeddings,
)
from memlog.evaluation import SplitSpec, holdout_split
from memlog.gbdt import GbdtParams, train_classifier
from memlog.synthgen import GenSpec, generate_corpus, read_corpus, write_corpus
from memlog.tokenizer import tokenize
from memlog.vectorizer import label_vector, vectorize_tokens

import numpy as np  # noqa: E402  (after memlog, which limits OpenBLAS to one thread)

OVERLAP = 0.5


class Timer:
    """Best seconds per stage over the passes that ran it."""

    def __init__(self):
        self.best: dict[str, float] = {}

    def __call__(self, stage, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.best[stage] = min(elapsed, self.best.get(stage, float("inf")))
        return result


def sequential_sgns(timer, grouped, vocab, hyper):
    """``train_embeddings``'s draws and epochs, one after the other, each timed;
    returns the pairs per epoch and the trained ``vin`` and ``vout``."""
    ids, offsets = _sentences(grouped, vocab)
    rng = np.random.default_rng(hyper.seed)
    vin = ((rng.random((len(vocab), EMBEDDING_DIM), dtype=np.float32)) - 0.5) / EMBEDDING_DIM
    vout = np.zeros((len(vocab), EMBEDDING_DIM), dtype=np.float32)
    pairs = kernels.count_pairs(offsets, hyper.window)
    cdf = _negative_sampling_cdf(vocab)
    lr_floor = hyper.initial_lr * LR_FLOOR_FRACTION
    for epoch in range(hyper.epochs):
        negatives = timer(f"draws[{epoch}]", lambda: kernels.draw_negatives(
            cdf, rng.random((pairs, hyper.negatives))))
        timer(f"epoch[{epoch}]", kernels.sgns_epoch, ids, offsets, vin, vout, negatives,
              hyper.window, hyper.initial_lr, lr_floor, epoch * pairs, pairs * hyper.epochs)
    return pairs, vin, vout


def one_pass(timer, corpus_dir, out_dir, seed):
    logs = timer("read_corpus", read_corpus, corpus_dir)
    y = label_vector(logs)
    train_idx, _ = holdout_split(y, SplitSpec(shuffle_seed=seed))
    grouped = timer("tokenize", lambda: [tokenize(log) for log in logs])
    vocab = timer("build_vocab", build_vocab, grouped)
    hyper = Hyperparams(seed=seed)
    pairs, vin, vout = sequential_sgns(timer, grouped, vocab, hyper)
    embeddings = timer("train_embeddings", train_embeddings, grouped, vocab, hyper)
    # the per-epoch rows time the schedule that train runs only while this copy matches it
    assert np.array_equal(vin, embeddings.input_vectors), "sequential vin differs from train_embeddings"
    assert np.array_equal(vout, embeddings.output_vectors), "sequential vout differs from train_embeddings"
    X = timer("vectorize_tokens", vectorize_tokens, grouped, embeddings)
    timer("train_classifier", train_classifier, X[train_idx], y[train_idx], GbdtParams())
    argv = ["train", "--corpus", corpus_dir, "--embeddings-out", str(out_dir / "emb.mleb"),
            "--model-out", str(out_dir / "mdl.mlgb"), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = timer("cmd_train", cli.main, argv)
    assert code == 0, f"cmd_train exited {code}"
    return len(logs), len(vocab), pairs, hyper.epochs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--logs", type=int, default=200, help="corpus size, as perfbench train")
    parser.add_argument("--seed", type=int, default=11, help="corpus and training seed, as perfbench --seed")
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing")
    args = parser.parse_args()

    timer = Timer()
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir, out_dir = str(Path(tmp) / "corpus"), Path(tmp)
        spec = GenSpec(args.logs // 2, args.logs - args.logs // 2, overlap=OVERLAP, seed=args.seed)
        write_corpus(corpus_dir, generate_corpus(spec))
        for _ in range(args.repeats):
            logs, vocab, pairs, epochs = one_pass(timer, corpus_dir, out_dir, args.seed)
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in ("emb.mleb", "mdl.mlgb")}

    print(f"{logs} logs, {vocab} tokens, {pairs} pairs per epoch, backend {kernels.BACKEND};"
          f" best of {args.repeats} in ms")
    best = timer.best
    sums = {"draws_total": sum(best[f"draws[{e}]"] for e in range(epochs)),
            "epochs_total": sum(best[f"epoch[{e}]"] for e in range(epochs))}
    for stage, seconds in [*best.items(), *sums.items()]:
        print(f"{stage:<18} {seconds * 1e3:9.2f}")
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")


if __name__ == "__main__":
    main()
