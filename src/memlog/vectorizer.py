"""Mean-pooling of token embeddings into fixed-width log vectors.

Each of the six token groups pools to one 32-dimensional segment (the
mean of the input vectors of its in-vocabulary tokens); concatenated in
:class:`~memlog.tokenizer.GroupId` order they form the 192-dimensional
log vector.  Out-of-vocabulary tokens are skipped; a group with no
usable tokens contributes a zero segment.  Coverage records, per group,
the fraction of tokens found in the vocabulary.

A stack snapshot's hex words are matched in one of two ways, with the
same ids in the same order, so the mean keeps its bits.  A short one is
split into strings looked up one by one.  From ``_INTEGER_ROUTE_MIN_BYTES``
on, its full 4-byte words are read as big-endian ``uint32`` values and
matched against the vocabulary's 8-digit hex tokens held as sorted
integers (:meth:`~memlog.embedding.Vocabulary.hex_word_ids`); only a
short tail word is looked up as a string.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import EMBEDDING_DIM, EmbeddingModel, Vocabulary
from .errors import UnlabeledLog
from .logmodel import CanonicalLog, Label
from .tokenizer import GROUP_COUNT, GroupedTokens, GroupId, hex_words, tokenize

LOG_VECTOR_DIM = GROUP_COUNT * EMBEDDING_DIM

#: Numeric label encoding used throughout training and evaluation.
MALICIOUS, BENIGN = 1, 0

#: Snapshots this long or longer are matched as integers.  Below it numpy's
#: fixed cost (7-12 µs a snapshot) exceeds what the integer route saves on
#: string lookups (2-3 µs per 100 bytes); measured on a 2-core x86-64 VM.
_INTEGER_ROUTE_MIN_BYTES = 384


@dataclass
class LogVector:
    values: np.ndarray
    coverage: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogVector):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.coverage, other.coverage
        )


def _snapshot_ids(snapshot: bytes, vocab: Vocabulary) -> tuple[list[int], int]:
    """The ids of the in-vocabulary words of ``hex_words(snapshot)``, in
    word order, and the number of words."""
    if len(snapshot) < _INTEGER_ROUTE_MIN_BYTES:
        words = hex_words(snapshot)
        return [vocab.index[t] for t in words if t in vocab.index], len(words)
    full = len(snapshot) // 4
    ids = vocab.hex_word_ids(np.frombuffer(snapshot, dtype=">u4", count=full).astype(np.uint32))
    if tail := snapshot[4 * full:]:
        if (tail_id := vocab.index.get(tail.hex())) is not None:
            ids.append(tail_id)
        full += 1
    return ids, full


def vectorize_log(tokens: GroupedTokens, model: EmbeddingModel) -> LogVector:
    values = np.zeros(GROUP_COUNT * model.dim, dtype=np.float32)
    coverage = np.zeros(GROUP_COUNT, dtype=np.float64)
    index = model.vocab.index
    for group_id, group in enumerate(tokens.lists()):
        ids = [index[t] for t in group if t in index]
        count = len(group)
        if group_id == GroupId.STACK:
            snapshot_ids, words = _snapshot_ids(tokens.snapshot, model.vocab)
            ids += snapshot_ids
            count += words
        if ids:
            segment = model.input_vectors[ids].mean(axis=0, dtype=np.float64)
            values[group_id * model.dim:(group_id + 1) * model.dim] = segment.astype(np.float32)
        if count:
            coverage[group_id] = len(ids) / count
    return LogVector(values, coverage)


def label_vector(logs: Sequence[CanonicalLog]) -> np.ndarray:
    """The 0/1 label of each log; raises :class:`UnlabeledLog` for a log without one."""
    y = np.zeros(len(logs), dtype=np.int64)
    for i, log in enumerate(logs):
        if log.label is None:
            raise UnlabeledLog(f"log {i} has no label")
        y[i] = MALICIOUS if log.label is Label.MALICIOUS else BENIGN
    return y


def vectorize_tokens(corpus: Sequence[GroupedTokens], model: EmbeddingModel) -> np.ndarray:
    """One 192-dim log vector per tokenized log, as an (n x 192) matrix."""
    X = np.zeros((len(corpus), GROUP_COUNT * model.dim), dtype=np.float32)
    for i, tokens in enumerate(corpus):
        X[i] = vectorize_log(tokens, model).values
    return X


def vectorize_corpus(
    logs: Sequence[CanonicalLog], model: EmbeddingModel
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorize labeled logs into (n x 192 matrix, 0/1 label vector)."""
    y = label_vector(logs)
    return vectorize_tokens([tokenize(log) for log in logs], model), y
