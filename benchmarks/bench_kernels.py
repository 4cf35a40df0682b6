#!/usr/bin/env python3
"""Benchmark the training kernels: the negative-sample lookup, the skip-gram
epoch, the split search and the growth of one tree.

Builds workloads through the real pipeline (synthetic corpus, trained
embeddings).  It checks that the native lookup, skip-gram epoch and tree
grower agree exactly with their numpy references (one epoch of the whole
corpus, one tree over every row), then reports best-of-N times for both,
and the skip-gram epoch's time per pair; without a C compiler on PATH only
the numpy kernels are timed.  Split search has one implementation, timed
on one root node.  Last comes the fit of a whole forest with each grower.
"""
import argparse
import time

from memlog import kernels
from memlog.embedding import (
    Hyperparams,
    _negative_sampling_cdf,
    _sentences,
    build_vocab,
)
from memlog.gbdt import GbdtParams, train_classifier
from memlog.synthgen import GenSpec, generate_corpus
from memlog.tokenizer import tokenize
from memlog.vectorizer import vectorize_corpus

import numpy as np  # noqa: E402  (after memlog, which limits OpenBLAS to one thread)


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def report(name, detail, numpy_s, native_s, pairs=0):
    """One line of best times; given ``pairs``, the first time also per pair."""
    per = f" ({(native_s or numpy_s) / pairs * 1e9:.0f} ns/pair)" if pairs else ""
    if native_s is None:
        print(f"{name:<16} {detail:<28} numpy {numpy_s * 1e3:8.2f} ms{per}")
    else:
        print(
            f"{name:<16} {detail:<28} native {native_s * 1e3:8.2f} ms{per} | "
            f"numpy {numpy_s * 1e3:8.2f} ms | speedup {numpy_s / native_s:5.1f}x"
        )


NATIVE = kernels.BACKEND == "native"


def build_workload(n_logs, seed):
    corpus = generate_corpus(GenSpec(n_logs // 2, n_logs - n_logs // 2, seed=seed))
    grouped = [tokenize(log) for log in corpus]
    vocab = build_vocab(grouped)
    ids, offsets = _sentences(grouped, vocab)
    return corpus, grouped, vocab, ids, offsets


def epoch_result(fn, ids, offsets, vin0, vout0, args):
    """Loss and final matrices, as bytes, of one epoch from fresh copies."""
    vin, vout = vin0.copy(), vout0.copy()
    loss = fn(ids, offsets, vin, vout, *args)
    return loss, vin.tobytes(), vout.tobytes()


def bench_negatives(cdf, draws, repeats):
    """One epoch's negatives from ``kernels.draw_negatives``, after timing both lookups."""
    negatives = kernels.draw_negatives(cdf, draws)
    assert np.array_equal(negatives, kernels._draw_negatives_numpy(cdf, draws))
    numpy_s = best_of(lambda: kernels._draw_negatives_numpy(cdf, draws), repeats)
    native_s = None
    if NATIVE:
        native_s = best_of(lambda: kernels._draw_negatives_native(cdf, draws), repeats)
    report("draw_negatives", f"vocab={cdf.size} draws={draws.size}", numpy_s, native_s)
    return negatives


def bench_sgns(vocab, ids, offsets, hp, repeats):
    rng = np.random.default_rng(11)
    vin0 = ((rng.random((len(vocab), 32), dtype=np.float32)) - 0.5) / 32
    vout0 = np.zeros((len(vocab), 32), dtype=np.float32)
    pairs = kernels.count_pairs(offsets, hp.window)
    draws = rng.random((pairs, hp.negatives))
    negatives = bench_negatives(_negative_sampling_cdf(vocab), draws, repeats)
    args = (negatives, hp.window, hp.initial_lr, hp.initial_lr * 1e-4, 0, pairs)

    def run(fn):
        # fresh matrices each call: the epoch mutates them in place
        return lambda: fn(ids, offsets, vin0.copy(), vout0.copy(), *args)

    numpy_s = best_of(run(kernels._sgns_epoch_numpy), repeats)
    detail = f"vocab={len(vocab)} pairs={pairs}"
    if not NATIVE:
        report("sgns_epoch", detail, numpy_s, None, pairs)
        return
    assert epoch_result(kernels._sgns_epoch_native, ids, offsets, vin0, vout0, args) == (
        epoch_result(kernels._sgns_epoch_numpy, ids, offsets, vin0, vout0, args)
    )
    native_s = best_of(run(kernels._sgns_epoch_native), repeats)
    report("sgns_epoch", detail, numpy_s, native_s, pairs)


def first_round(X, y):
    """The sorted columns and the gradients of a fit's first tree, at margin 0."""
    p = np.full(len(y), 0.5)
    Xt = np.ascontiguousarray(X.T, dtype=np.float64)  # as train_classifier sees it
    return Xt, np.argsort(Xt, axis=1, kind="stable"), p - y, p * (1.0 - p)


def bench_split(X, y, repeats):
    Xt, order, g, h = first_round(X, y)
    args = (order, Xt, g, h, float(np.cumsum(g)[-1]), float(np.cumsum(h)[-1]), 1.0, 5)
    seconds = best_of(lambda: kernels.best_split(*args), repeats)
    report("best_split", f"rows={X.shape[0]} features={X.shape[1]}", seconds, None)


def bench_grow(X, y, repeats):
    # shuffled labels leave no split that separates the classes, so the tree
    # grows to max_depth, as trees on overlapping corpora do
    params = GbdtParams()
    Xt, order, g, h = first_round(X, np.random.default_rng(12).permutation(y))
    args = (Xt, order, g, h, params.lambda_, params.min_leaf, params.max_depth)
    nodes, leaves = kernels._grow_tree_numpy(*args)
    numpy_s = best_of(lambda: kernels._grow_tree_numpy(*args), repeats)
    native_s = None
    if NATIVE:
        native_nodes, native_leaves = kernels._grow_tree_native(*args)
        assert native_nodes.tobytes() == nodes.tobytes()
        assert np.array_equal(native_leaves, leaves)
        native_s = best_of(lambda: kernels._grow_tree_native(*args), repeats)
    detail = f"rows={X.shape[0]} nodes={len(nodes)}"
    report("grow_tree", detail, numpy_s, native_s)


def bench_forest(X, y, trees, repeats):
    params = GbdtParams(trees=trees)
    bound = kernels.grow_tree
    try:
        kernels.grow_tree = kernels._grow_tree_numpy
        numpy_s = best_of(lambda: train_classifier(X, y, params), repeats)
    finally:
        kernels.grow_tree = bound
    native_s = best_of(lambda: train_classifier(X, y, params), repeats) if NATIVE else None
    report("train_classifier", f"trees={trees} rows={X.shape[0]}", numpy_s, native_s)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--logs", type=int, default=600, help="corpus size")
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"backend: {kernels.BACKEND}")
    corpus, grouped, vocab, ids, offsets = build_workload(args.logs, args.seed)
    hp = Hyperparams(seed=args.seed)
    bench_sgns(vocab, ids, offsets, hp, args.repeats)

    from memlog.embedding import train_embeddings

    embeddings = train_embeddings(grouped, vocab, Hyperparams(epochs=1, seed=args.seed))
    X, y = vectorize_corpus(corpus, embeddings)
    bench_split(X, y, args.repeats)
    bench_grow(X, y, args.repeats)

    bench_forest(X, y, args.trees, args.repeats)


if __name__ == "__main__":
    main()
