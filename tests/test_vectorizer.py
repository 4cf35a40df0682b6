"""Mean pooling into 192-dim log vectors."""
from __future__ import annotations

import numpy as np
import pytest

from memlog.embedding import EmbeddingModel, Vocabulary
from memlog.errors import UnlabeledLog
from memlog.logmodel import CanonicalLog, Label
from memlog.tokenizer import GroupId, GroupedTokens, tokenize
from memlog.vectorizer import (
    LOG_VECTOR_DIM,
    vectorize_corpus,
    vectorize_log,
)


def toy_model(tokens: dict[str, np.ndarray]) -> EmbeddingModel:
    names = list(tokens)
    matrix = np.stack([tokens[t] for t in names]).astype(np.float32)
    vocab = Vocabulary(names, [1] * len(names))
    return EmbeddingModel(vocab=vocab, input_vectors=matrix, output_vectors=np.zeros_like(matrix))


def unit(i: int, dim: int = 32) -> np.ndarray:
    v = np.zeros(dim, dtype=np.float32)
    v[i] = 1.0
    return v


class TestVectorizeLog:
    def test_all_empty_gives_zeros(self):
        model = toy_model({"a": unit(0)})
        vec = vectorize_log(GroupedTokens(), model)
        assert vec.values.shape == (LOG_VECTOR_DIM,)
        assert not vec.values.any()
        assert not vec.coverage.any()

    def test_single_token_segment_is_its_embedding(self):
        model = toy_model({"a": unit(3)})
        tokens = GroupedTokens(modules=["a"])
        vec = vectorize_log(tokens, model)
        seg = vec.values[GroupId.MODULES * 32:(GroupId.MODULES + 1) * 32]
        assert np.array_equal(seg, unit(3))
        other = np.delete(np.arange(6), GroupId.MODULES)
        for g in other:
            assert not vec.values[g * 32:(g + 1) * 32].any()

    def test_mean_of_two_basis_vectors(self):
        model = toy_model({"a": unit(0), "b": unit(1)})
        vec = vectorize_log(GroupedTokens(stack=["a", "b"]), model)
        seg = vec.values[:32]
        assert seg[0] == pytest.approx(0.5)
        assert seg[1] == pytest.approx(0.5)
        assert not seg[2:].any()

    def test_oov_tokens_skipped_and_coverage_reflects(self):
        model = toy_model({"a": unit(0)})
        vec = vectorize_log(GroupedTokens(stack=["a", "zzz", "qqq", "a"]), model)
        assert vec.coverage[GroupId.STACK] == pytest.approx(0.5)
        assert np.array_equal(vec.values[:32], unit(0))

    def test_oov_only_group_is_zero_segment(self):
        model = toy_model({"a": unit(0)})
        vec = vectorize_log(GroupedTokens(registers=["zzz"]), model)
        assert not vec.values[32:64].any()
        assert vec.coverage[GroupId.REGISTERS] == 0.0

    def test_permutation_invariance(self):
        model = toy_model({"a": unit(0), "b": unit(1), "c": unit(2)})
        fwd = vectorize_log(GroupedTokens(opcodes=["a", "b", "c"]), model)
        rev = vectorize_log(GroupedTokens(opcodes=["c", "a", "b"]), model)
        assert fwd == rev

    def test_duplication_invariance(self):
        model = toy_model({"a": unit(0), "b": unit(1)})
        once = vectorize_log(GroupedTokens(modules=["a", "b"]), model)
        twice = vectorize_log(GroupedTokens(modules=["a", "b", "a", "b"]), model)
        assert np.allclose(once.values, twice.values)

    def test_scaling_embeddings_scales_output(self):
        base = {"a": unit(0) + 0.25, "b": unit(1) - 0.5}
        model1 = toy_model(base)
        model3 = toy_model({t: 3.0 * v for t, v in base.items()})
        tokens = GroupedTokens(stack=["a", "b"], modules=["b"])
        v1 = vectorize_log(tokens, model1).values
        v3 = vectorize_log(tokens, model3).values
        assert np.allclose(v3, 3.0 * v1, atol=1e-6)


class TestVectorizeCorpus:
    def test_empty_sequence(self):
        model = toy_model({"a": unit(0)})
        X, y = vectorize_corpus([], model)
        assert X.shape == (0, LOG_VECTOR_DIM)
        assert y.shape == (0,)

    def test_shape_and_row_equality(self, small_corpus, small_embeddings):
        X, y = vectorize_corpus(small_corpus, small_embeddings)
        assert X.shape == (len(small_corpus), LOG_VECTOR_DIM)
        for i in (0, len(small_corpus) // 2, len(small_corpus) - 1):
            row = vectorize_log(tokenize(small_corpus[i]), small_embeddings)
            assert np.array_equal(X[i], row.values)
            assert y[i] == (1 if small_corpus[i].label is Label.MALICIOUS else 0)

    def test_unlabeled_log_raises(self):
        model = toy_model({"a": unit(0)})
        with pytest.raises(UnlabeledLog):
            vectorize_corpus([CanonicalLog()], model)
