"""Skip-gram token embeddings with negative sampling.

For a (center, context) pair with negative samples k = 1..K, training
maximizes

    log sigmoid(u_o . v_c) + sum_k log sigmoid(-u_k . v_c)

by SGD with a linearly decaying learning rate.  ``v`` are input vectors,
``u`` output vectors.  Context windows never cross a group boundary or a
log boundary: each (log, group) token list is one sentence.  Negative
samples are drawn from the unigram distribution raised to 0.75.

All randomness (matrix init, negative draws) comes from one seeded
generator, so identical corpus and seed reproduce the model bit for bit.
The negatives are drawn one epoch ahead: a helper thread draws epoch
e + 1's while the compiled epoch e runs, which releases the GIL.  The
matrix init is drawn first and each epoch's negatives after it, one
epoch at a time, so the stream is consumed in the same order as a
sequential loop and every drawn integer is the same.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import (
    BadMagic,
    CorruptPayload,
    EmptyCorpus,
    VersionMismatch,
    VocabMismatch,
)
from .tokenizer import GroupedTokens

EMBEDDING_DIM = 32
EMBEDDINGS_MAGIC = b"MLEB"
EMBEDDINGS_VERSION = 1

#: Exponent applied to unigram frequencies for negative sampling.
NEGATIVE_SAMPLING_POWER = 0.75

#: The learning rate decays linearly to this fraction of its start value.
LR_FLOOR_FRACTION = 1e-4

#: The digits of a hex word as ``tokenizer.hex_words`` writes them.
_HEX_DIGITS = frozenset("0123456789abcdef")


def _word_bucket(words: np.ndarray) -> np.ndarray:
    """One of 2^16 hash buckets per ``uint32`` word: the top half of its
    product with Knuth's multiplier, modulo 2^32."""
    return (words * np.uint32(0x9E3779B1)) >> np.uint32(16)


@dataclass
class Hyperparams:
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    seed: int = 1


class Vocabulary:
    """Token ids ordered by descending frequency, ties broken lexicographically."""

    def __init__(self, tokens: Sequence[str], frequencies: Sequence[int]):
        self.tokens = list(tokens)
        self.frequencies = np.asarray(frequencies, dtype=np.uint64)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabMismatch("vocabulary contains duplicate tokens")
        if len(self.tokens) != len(self.frequencies):
            raise VocabMismatch("token and frequency lists differ in length")
        # the tokens a full 4-byte hex word can equal, as sorted integers with
        # their ids, and the hash buckets that hold one of them
        words = sorted(
            (int(tok, 16), i) for tok, i in self.index.items()
            if len(tok) == 8 and _HEX_DIGITS.issuperset(tok)
        )
        self._word_values = np.array([value for value, _ in words], dtype=np.uint32)
        self._word_ids = np.array([i for _, i in words], dtype=np.intp)
        self._word_buckets = np.zeros(1 << 16, dtype=bool)
        self._word_buckets[_word_bucket(self._word_values)] = True

    def __len__(self) -> int:
        return len(self.tokens)

    def hex_word_ids(self, words: np.ndarray) -> list[int]:
        """The ids of the ``uint32`` ``words`` whose 8-digit hex token is in
        the vocabulary, in word order.  A word's hash bucket rules most words
        out, and a binary search matches the rest exactly."""
        words = words[self._word_buckets[_word_bucket(words)]]
        slots = np.searchsorted(self._word_values, words)
        np.minimum(slots, len(self._word_values) - 1, out=slots)
        return self._word_ids[slots[self._word_values[slots] == words]].tolist()

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.tokens == other.tokens and np.array_equal(self.frequencies, other.frequencies)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.tokens)} tokens)"


@dataclass(eq=False)
class EmbeddingModel:
    """What the embeddings file stores: the vocabulary and both vector matrices."""

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def __eq__(self, other) -> bool:
        # Bit-exact identity over the persisted state.
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and self.input_vectors.shape == other.input_vectors.shape
            and self.output_vectors.shape == other.output_vectors.shape
            and self.input_vectors.tobytes() == other.input_vectors.tobytes()
            and self.output_vectors.tobytes() == other.output_vectors.tobytes()
        )


def build_vocab(corpus: Iterable[GroupedTokens], min_count: int = 2) -> Vocabulary:
    """Count tokens across all groups of all logs and keep the frequent ones."""
    counts: dict[str, int] = {}
    for grouped in corpus:
        for group in grouped:
            for token in group:
                counts[token] = counts.get(token, 0) + 1
    kept = [(tok, n) for tok, n in counts.items() if n >= min_count]
    if not kept:
        raise EmptyCorpus(f"no token reaches min_count={min_count}")
    kept.sort(key=lambda item: (-item[1], item[0]))
    return Vocabulary([t for t, _ in kept], [n for _, n in kept])


def _sentences(corpus: Iterable[GroupedTokens], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the corpus into one id array plus sentence offsets.

    A sentence is the in-vocabulary token ids of one (log, group) list;
    sentences shorter than two tokens produce no pairs and are dropped.
    """
    ids: list[int] = []
    offsets: list[int] = [0]
    index = vocab.index
    for grouped in corpus:
        for group in grouped:
            sentence = [index[t] for t in group if t in index]
            if len(sentence) >= 2:
                ids.extend(sentence)
                offsets.append(len(ids))
    return np.asarray(ids, dtype=np.int32), np.asarray(offsets, dtype=np.int64)


def _negative_sampling_cdf(vocab: Vocabulary) -> np.ndarray:
    weights = np.asarray(vocab.frequencies, dtype=np.float64) ** NEGATIVE_SAMPLING_POWER
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def train_embeddings(
    corpus: Sequence[GroupedTokens],
    vocab: Vocabulary,
    hyperparams: Hyperparams,
) -> EmbeddingModel:
    """Train embeddings; deterministic for a given corpus, vocab and seed."""
    if hyperparams.window < 1:
        raise ValueError(f"window must be >= 1, got {hyperparams.window}")
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    if len(vocab) == 0:
        raise VocabMismatch("vocabulary is empty")

    ids, offsets = _sentences(corpus, vocab)
    if ids.size == 0:
        shared = any(t in vocab for grouped in corpus for group in grouped for t in group)
        if not shared:
            raise VocabMismatch("corpus shares no tokens with the vocabulary")

    rng = np.random.default_rng(hyperparams.seed)
    vin = ((rng.random((len(vocab), EMBEDDING_DIM), dtype=np.float32)) - 0.5) / EMBEDDING_DIM
    vout = np.zeros((len(vocab), EMBEDDING_DIM), dtype=np.float32)

    pairs_per_epoch = kernels.count_pairs(offsets, hyperparams.window)
    if pairs_per_epoch > 0 and hyperparams.epochs > 0:
        # imported here: every process that scores logs imports this module
        from concurrent.futures import ThreadPoolExecutor

        cdf = _negative_sampling_cdf(vocab)
        shape = (pairs_per_epoch, hyperparams.negatives)
        total_pairs = pairs_per_epoch * hyperparams.epochs
        lr_floor = hyperparams.initial_lr * LR_FLOOR_FRACTION

        def draw() -> np.ndarray:
            return kernels.draw_negatives(cdf, rng.random(shape))

        # one helper draws epoch e + 1's negatives while epoch e runs; it alone
        # uses rng now, one draw at a time, so the stream keeps its order
        with ThreadPoolExecutor(1) as helper:
            ahead = helper.submit(draw)
            for epoch in range(hyperparams.epochs):
                negatives = ahead.result()
                if epoch + 1 < hyperparams.epochs:
                    ahead = helper.submit(draw)
                kernels.sgns_epoch(
                    ids,
                    offsets,
                    vin,
                    vout,
                    negatives,
                    hyperparams.window,
                    hyperparams.initial_lr,
                    lr_floor,
                    epoch * pairs_per_epoch,
                    total_pairs,
                )

    return EmbeddingModel(vocab, vin, vout)


# --------------------------------------------------------------------------
# reference pair objective (float64)
#
# These are the mathematical ground truth for the training kernels; tests
# verify the analytic gradients against finite differences and that a
# small step decreases the loss.


def sgns_pair_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """Loss = -log sigmoid(u_o.v_c) - sum_k log sigmoid(-u_k.v_c)."""
    pos = float(np.dot(context, center))
    neg = negatives @ center
    # -log sigmoid(x) == log(1 + exp(-x)), computed stably
    loss = float(np.logaddexp(0.0, -pos)) + float(np.logaddexp(0.0, neg).sum())
    return loss


def sgns_pair_gradients(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`sgns_pair_loss` w.r.t. each argument."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    pos_sig = sigmoid(float(np.dot(context, center)))
    neg_sig = sigmoid(negatives @ center)
    grad_center = (pos_sig - 1.0) * context + neg_sig @ negatives
    grad_context = (pos_sig - 1.0) * center
    grad_negatives = np.outer(neg_sig, center)
    return grad_center, grad_context, grad_negatives


def sgns_pair_step(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray, lr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SGD step on the pair objective; returns updated copies."""
    grad_center, grad_context, grad_negatives = sgns_pair_gradients(center, context, negatives)
    return center - lr * grad_center, context - lr * grad_context, negatives - lr * grad_negatives


# --------------------------------------------------------------------------
# binary persistence
#
# Layout (little-endian): magic "MLEB", u32 version, u32 dim, u32 vocab
# size, then per token a u32 byte length + UTF-8 bytes + u64 frequency,
# then the input and output matrices as row-major float32.


def save_embeddings(model: EmbeddingModel, path: str) -> None:
    parts = [EMBEDDINGS_MAGIC, struct.pack("<III", EMBEDDINGS_VERSION, model.dim, len(model.vocab))]
    for token, freq in zip(model.vocab.tokens, model.vocab.frequencies):
        raw = token.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<Q", int(freq)))
    parts.append(np.ascontiguousarray(model.input_vectors, dtype="<f4").tobytes())
    parts.append(np.ascontiguousarray(model.output_vectors, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_embeddings(path: str) -> EmbeddingModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != EMBEDDINGS_MAGIC:
        raise BadMagic(f"expected {EMBEDDINGS_MAGIC!r} at start of {path}")
    if len(blob) < 16:
        raise CorruptPayload("embeddings header is truncated")
    version, dim, vocab_size = struct.unpack_from("<III", blob, 4)
    if version != EMBEDDINGS_VERSION:
        raise VersionMismatch(f"embeddings format version {version} is not supported")

    pos = 16
    tokens: list[str] = []
    freqs: list[int] = []
    for _ in range(vocab_size):
        if pos + 4 > len(blob):
            raise CorruptPayload("vocabulary section is truncated")
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + length + 8 > len(blob):
            raise CorruptPayload("vocabulary entry is truncated")
        try:
            tokens.append(blob[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError:
            raise CorruptPayload("vocabulary token is not UTF-8") from None
        pos += length
        (freq,) = struct.unpack_from("<Q", blob, pos)
        freqs.append(freq)
        pos += 8

    matrix_bytes = vocab_size * dim * 4
    if len(blob) - pos != 2 * matrix_bytes:
        raise CorruptPayload(
            f"expected {2 * matrix_bytes} bytes of matrix data, found {len(blob) - pos}"
        )
    vin = np.frombuffer(blob, dtype="<f4", count=vocab_size * dim, offset=pos).reshape(vocab_size, dim).copy()
    vout = (
        np.frombuffer(blob, dtype="<f4", count=vocab_size * dim, offset=pos + matrix_bytes)
        .reshape(vocab_size, dim)
        .copy()
    )
    if not (np.isfinite(vin).all() and np.isfinite(vout).all()):
        raise CorruptPayload("embedding vectors contain NaN or infinity")
    try:
        vocab = Vocabulary(tokens, freqs)
    except VocabMismatch as exc:
        raise CorruptPayload(str(exc)) from None
    return EmbeddingModel(vocab, vin, vout)
