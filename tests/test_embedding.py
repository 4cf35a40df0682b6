"""Skip-gram training: gradients, determinism, persistence."""
from __future__ import annotations

import threading

import numpy as np
import pytest

from memlog import kernels
from memlog.embedding import (
    EMBEDDING_DIM,
    LR_FLOOR_FRACTION,
    EmbeddingModel,
    Hyperparams,
    Vocabulary,
    build_vocab,
    load_embeddings,
    save_embeddings,
    sgns_pair_gradients,
    sgns_pair_loss,
    sgns_pair_step,
    train_embeddings,
    _negative_sampling_cdf,
    _sentences,
)
from memlog.errors import (
    BadMagic,
    CorruptPayload,
    EmptyCorpus,
    VersionMismatch,
    VocabMismatch,
)
from memlog.tokenizer import GroupedTokens


def grouped(*stack_tokens: str, **named_groups) -> GroupedTokens:
    g = GroupedTokens()
    g.stack.extend(stack_tokens)
    for name, tokens in named_groups.items():
        getattr(g, name).extend(tokens)
    return g


class TestVocabulary:
    def test_single_token_counted(self):
        vocab = build_vocab([grouped("a", "a", "a")], min_count=1)
        assert vocab.tokens == ["a"]
        assert vocab.frequencies[0] == 3

    def test_min_count_threshold_and_frequency_order(self):
        corpus = [grouped(*(["a"] * 5 + ["b"] * 2 + ["c"]))]
        vocab = build_vocab(corpus, min_count=2)
        assert vocab.tokens == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}

    def test_lexicographic_tie_break(self):
        corpus = [grouped(*(["x"] * 3 + ["m"] * 3))]
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.tokens == ["m", "x"]

    def test_counts_cross_groups_and_logs(self):
        corpus = [grouped("a", modules=["a"]), grouped(modules=["a"])]
        vocab = build_vocab(corpus, min_count=3)
        assert vocab.tokens == ["a"]

    def test_empty_after_filtering_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([grouped("a")], min_count=2)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabMismatch):
            Vocabulary(["a", "a"], [1, 1])


def make_corpus(n_logs: int = 30) -> list[GroupedTokens]:
    """mal_a/mal_b/mal_c always co-occur; ben_x/ben_y never with them."""
    corpus = []
    for i in range(n_logs):
        if i % 2 == 0:
            corpus.append(grouped("mal_a", "mal_b", "mal_c", modules=["mal_a", "mal_b"]))
        else:
            corpus.append(grouped("ben_x", "ben_y", modules=["ben_x", "ben_y"]))
    return corpus


class TestTraining:
    def test_dimensions_and_finiteness(self):
        corpus = make_corpus()
        vocab = build_vocab(corpus, min_count=1)
        model = train_embeddings(corpus, vocab, Hyperparams(epochs=2))
        assert model.dim == EMBEDDING_DIM == 32
        assert model.input_vectors.shape == (len(vocab), 32)
        assert model.output_vectors.shape == (len(vocab), 32)
        assert np.isfinite(model.input_vectors).all()
        assert np.isfinite(model.output_vectors).all()

    def test_deterministic_bit_identical(self):
        corpus = make_corpus()
        vocab = build_vocab(corpus, min_count=1)
        a = train_embeddings(corpus, vocab, Hyperparams(epochs=2, seed=3))
        b = train_embeddings(corpus, vocab, Hyperparams(epochs=2, seed=3))
        assert a == b

    def test_seed_changes_model(self):
        corpus = make_corpus()
        vocab = build_vocab(corpus, min_count=1)
        a = train_embeddings(corpus, vocab, Hyperparams(epochs=1, seed=3))
        b = train_embeddings(corpus, vocab, Hyperparams(epochs=1, seed=4))
        assert a != b

    def test_single_token_corpus_keeps_seeded_init(self):
        corpus = [grouped("only")]
        vocab = build_vocab(corpus, min_count=1)
        model = train_embeddings(corpus, vocab, Hyperparams(seed=7))
        rng = np.random.default_rng(7)
        expected = ((rng.random((1, 32), dtype=np.float32) - 0.5) / 32).astype(np.float32)
        assert np.array_equal(model.input_vectors, expected)
        assert np.array_equal(model.output_vectors, np.zeros((1, 32), dtype=np.float32))

    def test_cooccurrence_structure(self):
        corpus = make_corpus(60)
        vocab = build_vocab(corpus, min_count=1)
        model = train_embeddings(corpus, vocab, Hyperparams(epochs=5, seed=1))

        def cosine(a, b):
            a, b = (model.input_vectors[model.vocab.index[t]].astype(np.float64) for t in (a, b))
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        assert cosine("mal_a", "mal_b") > cosine("mal_a", "ben_x")

    def test_no_shared_tokens_raises(self):
        vocab = build_vocab([grouped("a", "a")], min_count=1)
        with pytest.raises(VocabMismatch):
            train_embeddings([grouped("z", "w")], vocab, Hyperparams(epochs=1))

    def test_empty_corpus_raises(self):
        vocab = build_vocab([grouped("a", "a")], min_count=1)
        with pytest.raises(EmptyCorpus):
            train_embeddings([], vocab, Hyperparams())

    def test_window_must_be_positive(self):
        corpus = make_corpus(4)
        vocab = build_vocab(corpus, min_count=1)
        with pytest.raises(ValueError):
            train_embeddings(corpus, vocab, Hyperparams(window=0))


def random_corpus(seed: int, n_logs: int = 40) -> list[GroupedTokens]:
    """Sentences of 2-12 tokens over a 30-token alphabet, skewed toward low ids."""
    rng = np.random.default_rng(seed)
    return [
        grouped(*(f"t{int(t)}" for t in rng.zipf(1.5, size=int(rng.integers(2, 13))) % 30))
        for _ in range(n_logs)
    ]


def sequential_oracle(corpus, vocab, hyper, backend):
    """``train_embeddings`` as a plain loop on one backend: each epoch's
    negatives are drawn, then that epoch runs, before the next draw."""
    sgns_epoch = getattr(kernels, f"_sgns_epoch_{backend}")
    draw_negatives = getattr(kernels, f"_draw_negatives_{backend}")
    ids, offsets = _sentences(corpus, vocab)
    rng = np.random.default_rng(hyper.seed)
    vin = ((rng.random((len(vocab), EMBEDDING_DIM), dtype=np.float32)) - 0.5) / EMBEDDING_DIM
    vout = np.zeros((len(vocab), EMBEDDING_DIM), dtype=np.float32)
    pairs = kernels.count_pairs(offsets, hyper.window)
    cdf = _negative_sampling_cdf(vocab)
    lr_floor = hyper.initial_lr * LR_FLOOR_FRACTION
    for epoch in range(hyper.epochs):
        negatives = draw_negatives(cdf, rng.random((pairs, hyper.negatives)))
        sgns_epoch(ids, offsets, vin, vout, negatives, hyper.window, hyper.initial_lr,
                   lr_floor, epoch * pairs, pairs * hyper.epochs)
    return EmbeddingModel(vocab, vin, vout)


class DrawLog:
    """Stands in for ``kernels.draw_negatives``: counts calls, and raises
    ``error`` on call number ``fail_on``."""

    def __init__(self, fail_on=None, error=None):
        self.calls = 0
        self.fail_on, self.error = fail_on, error
        self.draw = kernels.draw_negatives

    def __call__(self, cdf, draws):
        self.calls += 1
        if self.calls == self.fail_on:
            raise self.error
        return self.draw(cdf, draws)


class TestDrawAhead:
    native_only = pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("native", marks=native_only)])
    @pytest.mark.parametrize("epochs", [1, 2, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_sequential_oracle(self, monkeypatch, backend, epochs, seed):
        corpus = random_corpus(seed)
        vocab = build_vocab(corpus, min_count=1)
        hyper = Hyperparams(window=3, negatives=4, epochs=epochs, seed=seed)
        monkeypatch.setattr(kernels, "sgns_epoch", getattr(kernels, f"_sgns_epoch_{backend}"))
        monkeypatch.setattr(kernels, "draw_negatives", getattr(kernels, f"_draw_negatives_{backend}"))
        expected = sequential_oracle(corpus, vocab, hyper, backend)
        assert not np.array_equal(expected.output_vectors, 0)
        assert train_embeddings(corpus, vocab, hyper) == expected

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_draws_once_per_epoch(self, monkeypatch, epochs):
        corpus = random_corpus(4)
        vocab = build_vocab(corpus, min_count=1)
        draws = DrawLog()
        monkeypatch.setattr(kernels, "draw_negatives", draws)
        model = train_embeddings(corpus, vocab, Hyperparams(epochs=epochs, seed=4))
        assert draws.calls == epochs
        if epochs == 0:
            assert np.array_equal(model.output_vectors, np.zeros_like(model.output_vectors))

    def test_no_pairs_no_draws(self, monkeypatch):
        corpus = [grouped("only")]
        draws = DrawLog()
        monkeypatch.setattr(kernels, "draw_negatives", draws)
        train_embeddings(corpus, build_vocab(corpus, min_count=1), Hyperparams(epochs=3))
        assert draws.calls == 0

    @pytest.mark.parametrize("fail_on", [1, 2, 5])
    def test_draw_error_reaches_caller_and_no_thread_outlives(self, monkeypatch, fail_on):
        corpus = random_corpus(5)
        vocab = build_vocab(corpus, min_count=1)
        error = RuntimeError(f"draw {fail_on} failed")
        draws = DrawLog(fail_on, error)
        monkeypatch.setattr(kernels, "draw_negatives", draws)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            train_embeddings(corpus, vocab, Hyperparams(epochs=5, seed=5))
        assert caught.value is error
        assert draws.calls == fail_on
        assert threading.active_count() == threads

    def test_epoch_error_reaches_caller_and_no_thread_outlives(self, monkeypatch):
        corpus = random_corpus(6)
        vocab = build_vocab(corpus, min_count=1)

        def fail(*args):
            raise FloatingPointError("epoch failed")

        monkeypatch.setattr(kernels, "sgns_epoch", fail)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError):
            train_embeddings(corpus, vocab, Hyperparams(epochs=5, seed=6))
        assert threading.active_count() == threads


class TestPairObjective:
    def rand(self, rng, *shape):
        return rng.standard_normal(shape)

    def test_gradient_check_central_differences(self):
        rng = np.random.default_rng(42)
        eps = 1e-4
        for _ in range(100):
            center = self.rand(rng, 8)
            context = self.rand(rng, 8)
            negatives = self.rand(rng, 5, 8)
            gc, go, gn = sgns_pair_gradients(center, context, negatives)

            def check(array, grad):
                flat = array.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = sgns_pair_loss(center, context, negatives)
                    flat[i] = orig - eps
                    down = sgns_pair_loss(center, context, negatives)
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    scale = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / scale < 1e-5

            check(center, gc)
            check(context, go)
            check(negatives, gn)

    def test_sgd_step_strictly_decreases_pair_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            center = self.rand(rng, 16)
            context = self.rand(rng, 16)
            negatives = self.rand(rng, 5, 16)
            before = sgns_pair_loss(center, context, negatives)
            after = sgns_pair_loss(*sgns_pair_step(center, context, negatives, lr=1e-3))
            assert after < before


class TestPersistence:
    def model(self) -> EmbeddingModel:
        corpus = make_corpus(20)
        vocab = build_vocab(corpus, min_count=1)
        return train_embeddings(corpus, vocab, Hyperparams(epochs=1, seed=9))

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.model()
        path = tmp_path / "emb.mleb"
        save_embeddings(model, str(path))
        assert load_embeddings(str(path)) == model

    def test_double_save_identical_bytes(self, tmp_path):
        model = self.model()
        a, b = tmp_path / "a", tmp_path / "b"
        save_embeddings(model, str(a))
        save_embeddings(model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_embeddings(str(path))

    def test_version_mismatch(self, tmp_path):
        model = self.model()
        path = tmp_path / "emb.mleb"
        save_embeddings(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_embeddings(str(path))

    def test_truncation_is_corrupt(self, tmp_path):
        model = self.model()
        path = tmp_path / "emb.mleb"
        save_embeddings(model, str(path))
        blob = path.read_bytes()
        for cut in (6, 20, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptPayload):
                load_embeddings(str(path))

    def test_trailing_garbage_is_corrupt(self, tmp_path):
        model = self.model()
        path = tmp_path / "emb.mleb"
        save_embeddings(model, str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptPayload):
            load_embeddings(str(path))
