"""Mean pooling into 192-dim log vectors."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlog.embedding import EmbeddingModel, Vocabulary
from memlog.errors import UnlabeledLog
from memlog.logmodel import CanonicalLog, Label
from memlog.tokenizer import GroupId, GroupedTokens, hex_words, tokenize
from memlog.vectorizer import LOG_VECTOR_DIM, vectorize_corpus, vectorize_log


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


#: 8-character tokens that are not hex words as ``hex_words`` writes them,
#: though ``int(token, 16)`` reads most of them.
NOT_HEX_WORDS = ["DEADBEEF", "0x00abcd", "+0000001", " 000001f", "0000_001", "abcdefgh"]

#: Where snapshots once switched from string lookups to integer matching.
OLD_CUT_OVER = 384


def string_ids(snapshot: bytes, vocab: Vocabulary) -> tuple[list[int], int]:
    """The oracle: ``hex_words`` looked up one by one, and the word count."""
    words = hex_words(snapshot)
    return [vocab.index[w] for w in words if w in vocab.index], len(words)


@st.composite
def snapshot_cases(draw):
    """(vocabulary, snapshot, opcode tokens): the vocabulary holds some full
    hex words (maybe none), some short tail words and decoys; the snapshot's
    words all hit, all miss or mix, with a tail of 0-3 bytes and lengths on
    both sides of the old cut-over."""
    words = draw(st.lists(st.binary(min_size=4, max_size=4), max_size=12, unique=True))
    tails = draw(st.lists(st.binary(min_size=1, max_size=3), max_size=4, unique=True))
    count = draw(st.integers(0, OLD_CUT_OVER // 4 * 2 + 2))
    mode = draw(st.sampled_from(["mixed", "all-hit", "no-hit"] if words else ["no-hit"]))
    if mode == "no-hit":
        chosen = [w for w in draw(st.lists(st.binary(min_size=4, max_size=4), min_size=count,
                                           max_size=count)) if w not in words]
    elif mode == "all-hit":
        chosen = draw(st.lists(st.sampled_from(words), min_size=count, max_size=count))
    else:
        chosen = draw(st.lists(st.one_of(st.sampled_from(words), st.binary(min_size=4, max_size=4)),
                               min_size=count, max_size=count))
    tail = draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=3),
                          *([st.sampled_from(tails)] if tails else [])))
    tokens = ["frame"] + [w.hex() for w in words] + [t.hex() for t in tails] + NOT_HEX_WORDS
    opcodes = draw(st.lists(st.sampled_from(tokens + ["zzz"]), max_size=6))
    return list(dict.fromkeys(tokens)), b"".join(chosen) + tail, opcodes


class TestSnapshotRoutes:
    """``Vocabulary.snapshot_ids``, which matches the snapshot's words as
    integers, gives what ``hex_words`` plus vocabulary lookups give, ids in
    order, at every length, so the pooled vector keeps its bits."""

    @given(snapshot_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_integer_route_equals_string_lookups(self, case, seed):
        tokens, snapshot, opcodes = case
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((len(tokens), 32)).astype(np.float32)
        model = EmbeddingModel(Vocabulary(tokens, [1] * len(tokens)), vectors, vectors)
        words = hex_words(snapshot)
        grouped = GroupedTokens(stack=["frame", "zzz"], opcodes=opcodes, snapshot=snapshot)
        strings = GroupedTokens(stack=["frame", "zzz", *words], opcodes=opcodes)
        assert model.vocab.snapshot_ids(snapshot) == string_ids(snapshot, model.vocab)
        assert grouped.group(GroupId.STACK) == strings.stack
        assert grouped.total_tokens() == strings.total_tokens()
        ours, theirs = vectorize_log(grouped, model), vectorize_log(strings, model)
        assert ours.values.tobytes() == theirs.values.tobytes()
        assert ours.coverage.tobytes() == theirs.coverage.tobytes()

    @pytest.mark.parametrize("length", [
        *range(9), *range(OLD_CUT_OVER - 1, OLD_CUT_OVER + 4), 4 * OLD_CUT_OVER,
        *(4 * OLD_CUT_OVER + tail for tail in (1, 2, 3)),
    ])
    def test_every_word_found_on_both_sides_of_the_cut_over(self, length):
        snapshot = bytes(range(256)) * (length // 256 + 1)
        snapshot = snapshot[:length]
        words = hex_words(snapshot)
        vocab = Vocabulary(list(dict.fromkeys(words)) + NOT_HEX_WORDS, [1] * (len(set(words)) + 6))
        assert vocab.snapshot_ids(snapshot) == ([vocab.index[w] for w in words], len(words))

    def test_vocabulary_without_hex_words(self):
        vocab = Vocabulary(["frame", *NOT_HEX_WORDS], [1] * 7)
        for length in (0, 3, 4, 5, OLD_CUT_OVER - 1, OLD_CUT_OVER + 1, 4 * OLD_CUT_OVER + 1):
            snapshot = (bytes.fromhex("deadbeef") * length)[:length]
            assert vocab.snapshot_ids(snapshot) == string_ids(snapshot, vocab)
            assert vocab.snapshot_ids(snapshot) == ([], -(-length // 4))

    @pytest.mark.parametrize("length", [4, 7, 24, OLD_CUT_OVER - 1, OLD_CUT_OVER + 2])
    def test_decoys_match_nothing(self, length):
        """Words equal to the number a decoy reads as under ``int(token, 16)``
        match only a real hex word, never the decoy."""
        values = [int(t, 16) for t in NOT_HEX_WORDS if t != "abcdefgh"]
        snapshot = (b"".join(v.to_bytes(4, "big") for v in values) * length)[:length]
        vocab = Vocabulary(["frame", *NOT_HEX_WORDS], [1] * 7)
        assert vocab.snapshot_ids(snapshot) == ([], -(-length // 4))
        real = Vocabulary(["00000001", *NOT_HEX_WORDS], [1] * 7)
        assert real.snapshot_ids(snapshot) == string_ids(snapshot, real)
        assert real.snapshot_ids(snapshot)[0] == [0] * hex_words(snapshot).count("00000001")


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
