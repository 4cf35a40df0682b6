"""Gradient-boosted regression trees for binary classification.

Second-order boosting with logistic loss.  Round t fits a tree to the
gradient/hessian pairs

    g_i = sigmoid(F_i) - y_i        h_i = sigmoid(F_i) (1 - sigmoid(F_i))

where F is the current margin, starting from base_score = log(p/(1-p)).
Splits are exact greedy over sorted unique feature values with gain

    1/2 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))

and leaf weight -G/(H+lam), scaled by shrinkage when added to F.  Splits
with non-positive gain or a child below min_leaf rows are rejected; ties
resolve to the lowest feature index, then the lowest threshold.  Training
asserts after every round that the training log-loss has not increased.

The features never change across rounds, so each column is sorted once
per fit.  Every node receives its rows in that per-feature order, and a
split filters it into the children's orders, so no node sorts again.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    BadMagic,
    CorruptPayload,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassInput,
    TooFewRows,
    VersionMismatch,
)
from .logmodel import Label

MODEL_MAGIC = b"MLGB"
MODEL_VERSION = 1
DEFAULT_THRESHOLD = 0.75

#: Loss may wobble by rounding at convergence; anything beyond this is a bug.
_LOSS_INCREASE_TOL = 1e-9


@dataclass(frozen=True)
class GbdtParams:
    trees: int = 100
    max_depth: int = 6
    shrinkage: float = 0.1
    lambda_: float = 1.0
    min_leaf: int = 5


@dataclass
class RegressionTree:
    """One tree as parallel node arrays in preorder; features[i] < 0 marks a leaf."""

    features: np.ndarray
    thresholds: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    values: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegressionTree):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and self.thresholds.tobytes() == other.thresholds.tobytes()
            and np.array_equal(self.lefts, other.lefts)
            and np.array_equal(self.rights, other.rights)
            and self.values.tobytes() == other.values.tobytes()
        )

    @property
    def node_count(self) -> int:
        return len(self.features)


@dataclass(frozen=True, eq=False)
class GbdtModel:
    """A trained forest; immutable, so everything derived from it is computed once."""

    base_score: float
    params: GbdtParams
    trees: tuple[RegressionTree, ...] = ()
    #: Training log-loss after round 0 (base score) through the last round.
    training_loss: tuple[float, ...] = ()
    #: The forest as the parallel node lists :func:`kernels.predict_margin` walks.
    _forest: tuple = field(init=False, repr=False)
    _version: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "training_loss", tuple(self.training_loss))
        object.__setattr__(self, "_forest", _flatten(self.trees))
        digest = hashlib.sha256(_serialize(self)).hexdigest()[:8]
        object.__setattr__(self, "_version", f"{MODEL_VERSION}-{digest}")

    def __eq__(self, other) -> bool:
        # Persisted identity: everything the model file stores.
        if not isinstance(other, GbdtModel):
            return NotImplemented
        return (
            struct.pack("<d", self.base_score) == struct.pack("<d", other.base_score)
            and self.params.trees == other.params.trees
            and self.params.max_depth == other.params.max_depth
            and self.params.shrinkage == other.params.shrinkage
            and self.params.lambda_ == other.params.lambda_
            and self.trees == other.trees
        )

    @property
    def version(self) -> str:
        """Format version plus a content fingerprint; stable across save/load."""
        return self._version


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def log_loss(margins: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of raw margins against 0/1 labels."""
    per_row = np.where(y == 1, np.logaddexp(0.0, -margins), np.logaddexp(0.0, margins))
    return float(per_row.mean())


def _validate_features(X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise NonFiniteFeature(f"feature matrix must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteFeature("feature matrix contains NaN or infinity")
    return X


class _TreeBuilder:
    """Grows one tree depth-first, emitting nodes in preorder."""

    def __init__(self, Xt, g, h, params: GbdtParams):
        self.Xt = Xt
        self.g = g
        self.h = h
        self.params = params
        self.features: list[int] = []
        self.thresholds: list[float] = []
        self.lefts: list[int] = []
        self.rights: list[int] = []
        self.values: list[float] = []
        self.leaf_of_row = np.zeros(Xt.shape[1], dtype=np.int64)

    def _emit(self) -> int:
        self.features.append(-1)
        self.thresholds.append(0.0)
        self.lefts.append(-1)
        self.rights.append(-1)
        self.values.append(0.0)
        return len(self.features) - 1

    def build(self, rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        """Grow the node holding ``rows`` (ascending); ``order`` is their per-feature sort."""
        node = self._emit()
        lam = self.params.lambda_
        g_sum = float(np.cumsum(self.g[rows])[-1]) if rows.size else 0.0
        h_sum = float(np.cumsum(self.h[rows])[-1]) if rows.size else 0.0
        if depth < self.params.max_depth:
            feature, threshold, gain = kernels.best_split(
                order, self.Xt, self.g, self.h, g_sum, h_sum, lam, self.params.min_leaf
            )
            if feature >= 0:
                self.features[node] = int(feature)
                self.thresholds[node] = float(threshold)
                goes_left = self.Xt[feature] < threshold
                go_left = goes_left[rows]
                n_left = int(go_left.sum())
                # filtering each feature's order keeps it sorted: the children need no sort
                left = goes_left[order]
                self.lefts[node] = self.build(
                    rows[go_left], order[left].reshape(-1, n_left), depth + 1
                )
                self.rights[node] = self.build(
                    rows[~go_left], order[~left].reshape(-1, rows.size - n_left), depth + 1
                )
                return node
        self.values[node] = -g_sum / (h_sum + lam)
        self.leaf_of_row[rows] = node
        return node

    def finish(self) -> RegressionTree:
        return RegressionTree(
            features=np.asarray(self.features, dtype=np.int32),
            thresholds=np.asarray(self.thresholds, dtype=np.float64),
            lefts=np.asarray(self.lefts, dtype=np.int32),
            rights=np.asarray(self.rights, dtype=np.int32),
            values=np.asarray(self.values, dtype=np.float64),
        )


def train_classifier(X: np.ndarray, y: np.ndarray, params: GbdtParams | None = None) -> GbdtModel:
    """Train a boosted classifier; deterministic for identical inputs."""
    params = params or GbdtParams()
    X = _validate_features(X)
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] != X.shape[0]:
        raise LengthMismatch(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {X.shape[0]}")
    positives = int((y == 1).sum())
    if positives == 0 or positives == y.shape[0]:
        raise SingleClassInput("training labels contain only one class")

    p = positives / y.shape[0]
    base_score = float(np.log(p / (1.0 - p)))

    margins = np.full(X.shape[0], base_score, dtype=np.float64)
    trees: list[RegressionTree] = []
    losses = [log_loss(margins, y)]
    all_rows = np.arange(X.shape[0], dtype=np.int64)
    # X never changes, so one stable sort per feature serves every node of every tree
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")

    for _ in range(params.trees):
        sig = _stable_sigmoid(margins)
        g = sig - y
        h = sig * (1.0 - sig)
        builder = _TreeBuilder(Xt, g, h, params)
        builder.build(all_rows, order, 0)
        tree = builder.finish()
        trees.append(tree)
        margins += params.shrinkage * tree.values[builder.leaf_of_row]
        loss = log_loss(margins, y)
        previous = losses[-1]
        if loss > previous + _LOSS_INCREASE_TOL:
            raise AssertionError(
                f"training log-loss increased from {previous!r} to {loss!r} "
                f"at round {len(trees)}"
            )
        losses.append(loss)
    return GbdtModel(base_score=base_score, params=params, trees=trees, training_loss=losses)


def _flatten(trees: tuple[RegressionTree, ...]) -> tuple[list, ...]:
    """Concatenate trees into parallel node lists, children offset to match."""
    features, thresholds, lefts, rights, values, roots = [], [], [], [], [], []
    for tree in trees:
        offset = len(features)
        roots.append(offset)
        features += tree.features.tolist()
        thresholds += tree.thresholds.tolist()
        lefts += [child + offset if child >= 0 else -1 for child in tree.lefts.tolist()]
        rights += [child + offset if child >= 0 else -1 for child in tree.rights.tolist()]
        values += tree.values.tolist()
    return features, thresholds, lefts, rights, values, roots


def predict_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    rows = _validate_features(X).tolist()
    margins = kernels.predict_margin(
        *model._forest, rows, model.base_score, model.params.shrinkage
    )
    return np.array(margins, dtype=np.float64)


def predict(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Malicious-class scores in [0, 1], one per row."""
    return _stable_sigmoid(predict_margin(model, X))


def predict_one(model: GbdtModel, x: np.ndarray) -> float:
    """Score of one feature row: :func:`predict` on a one-row matrix."""
    return float(predict(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def classify(score: float, threshold: float = DEFAULT_THRESHOLD) -> Label:
    """Malicious iff score >= threshold; the boundary is inclusive."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return Label.MALICIOUS if score >= threshold else Label.BENIGN


# --------------------------------------------------------------------------
# binary persistence
#
# Layout (little-endian): magic "MLGB", u32 version, u64 tree count,
# u64 max_depth, f64 shrinkage, f64 lambda, f64 base_score, then each
# tree as u32 node count followed by preorder nodes of
# (i32 feature, f64 threshold, i32 left, i32 right, f64 value).

_HEADER = struct.Struct("<QQddd")
_NODE = struct.Struct("<idiid")


def _serialize(model: GbdtModel) -> bytes:
    parts = [
        MODEL_MAGIC,
        struct.pack("<I", MODEL_VERSION),
        _HEADER.pack(
            len(model.trees),
            model.params.max_depth,
            model.params.shrinkage,
            model.params.lambda_,
            model.base_score,
        ),
    ]
    for tree in model.trees:
        parts.append(struct.pack("<I", tree.node_count))
        for i in range(tree.node_count):
            parts.append(
                _NODE.pack(
                    int(tree.features[i]),
                    float(tree.thresholds[i]),
                    int(tree.lefts[i]),
                    int(tree.rights[i]),
                    float(tree.values[i]),
                )
            )
    return b"".join(parts)


def save_model(model: GbdtModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_serialize(model))


def load_model(path: str) -> GbdtModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r} at start of {path}")
    if len(blob) < 8 + _HEADER.size:
        raise CorruptPayload("model header is truncated")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_VERSION:
        raise VersionMismatch(f"model format version {version} is not supported")
    tree_count, max_depth, shrinkage, lambda_, base_score = _HEADER.unpack_from(blob, 8)
    if not np.isfinite([shrinkage, lambda_, base_score]).all():
        raise CorruptPayload("model header has a non-finite shrinkage, lambda or base score")

    pos = 8 + _HEADER.size
    trees = []
    for t in range(tree_count):
        if pos + 4 > len(blob):
            raise CorruptPayload(f"tree {t} is truncated")
        (node_count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if node_count == 0 or pos + node_count * _NODE.size > len(blob):
            raise CorruptPayload(f"tree {t} node array is truncated")
        features = np.zeros(node_count, dtype=np.int32)
        thresholds = np.zeros(node_count, dtype=np.float64)
        lefts = np.zeros(node_count, dtype=np.int32)
        rights = np.zeros(node_count, dtype=np.int32)
        values = np.zeros(node_count, dtype=np.float64)
        for i in range(node_count):
            f, thr, le, ri, val = _NODE.unpack_from(blob, pos)
            pos += _NODE.size
            # preorder puts every child after its parent, which rules out cycles
            if f >= 0 and not (i < le < node_count and i < ri < node_count):
                raise CorruptPayload(f"tree {t} node {i} has a child out of range or not after it")
            features[i], thresholds[i], lefts[i], rights[i], values[i] = f, thr, le, ri, val
        if not (np.isfinite(thresholds).all() and np.isfinite(values).all()):
            raise CorruptPayload(f"tree {t} has a non-finite threshold or leaf value")
        trees.append(RegressionTree(features, thresholds, lefts, rights, values))
    if pos != len(blob):
        raise CorruptPayload(f"{len(blob) - pos} trailing bytes after the last tree")

    params = GbdtParams(
        trees=int(tree_count), max_depth=int(max_depth), shrinkage=shrinkage, lambda_=lambda_
    )
    return GbdtModel(base_score=base_score, params=params, trees=trees)
