"""Mean-pooling of token embeddings into fixed-width log vectors.

Each of the six token groups pools to one 32-dimensional segment (the
mean of the input vectors of its in-vocabulary tokens); concatenated in
:class:`~memlog.tokenizer.GroupId` order they form the 192-dimensional
log vector.  Out-of-vocabulary tokens are skipped; a group with no
usable tokens contributes a zero segment.  Coverage records, per group,
the fraction of tokens found in the vocabulary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import EMBEDDING_DIM, EmbeddingModel
from .errors import UnlabeledLog
from .logmodel import CanonicalLog, Label
from .tokenizer import GROUP_COUNT, GroupedTokens, GroupId, tokenize

LOG_VECTOR_DIM = GROUP_COUNT * EMBEDDING_DIM

#: Numeric label encoding used throughout training and evaluation.
MALICIOUS, BENIGN = 1, 0


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


def vectorize_log(tokens: GroupedTokens, model: EmbeddingModel) -> LogVector:
    values = np.zeros(GROUP_COUNT * model.dim, dtype=np.float32)
    coverage = np.zeros(GROUP_COUNT, dtype=np.float64)
    index = model.vocab.index
    for group_id in GroupId:
        group = tokens.group(group_id)
        ids = [index[t] for t in group if t in index]
        if ids:
            segment = model.input_vectors[ids].mean(axis=0, dtype=np.float64)
            values[group_id * model.dim:(group_id + 1) * model.dim] = segment.astype(np.float32)
        if group:
            coverage[group_id] = len(ids) / len(group)
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
