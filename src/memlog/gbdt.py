"""Gradient-boosted regression trees for binary classification.

Second-order boosting with logistic loss.  Round t fits a tree to the
gradient/hessian pairs

    g_i = sigmoid(F_i) - y_i        h_i = sigmoid(F_i) (1 - sigmoid(F_i))

where F is the current margin, starting from base_score = log(p/(1-p)).
Splits are exact greedy over sorted unique feature values with gain

    1/2 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))

and leaf weight -G/(H+lam), scaled by shrinkage when added to F; a leaf
with H+lam == 0 (lambda 0, every margin saturated) weighs 0.  Splits
with non-positive gain or a child below min_leaf rows are rejected; ties
resolve to the lowest feature index, then the lowest threshold.  Training
asserts after every round that the training log-loss has not increased.

The features never change across rounds, so each column is sorted once
per fit.  Every node receives its rows in that per-feature order, and a
split filters it into the children's orders, so no node sorts again.
One call of :func:`kernels.grow_tree` grows each tree.  It is one of
the three compiled training kernels, beside the skip-gram epoch and the
negative-sample lookup: C where a compiler is present, the numpy
reference elsewhere, with the same nodes either way.

A tree is one array of ``kernels._NODE`` records, the model file's own
node layout, which both tree growers emit, so saving writes each tree's
bytes and loading reads them back with no per-node step.  The array is
read-only: a model never changes after it is built or loaded.
"""
from __future__ import annotations

import hashlib
import math
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
from .kernels import _NODE
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


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """One tree as a read-only copy of its ``kernels._NODE`` records, in preorder."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=_NODE)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class GbdtModel:
    """A trained forest; immutable, so everything derived from it is computed once."""

    base_score: float
    params: GbdtParams
    trees: tuple[RegressionTree, ...] = ()
    #: Training log-loss after round 0 (base score) through the last round.
    training_loss: tuple[float, ...] = ()
    #: The highest feature index any split reads, -1 when no tree splits.
    top_feature: int = field(init=False, repr=False)
    #: Each tree as the node column lists :func:`kernels.predict_margin` walks.
    _forest: tuple = field(init=False, repr=False)
    _version: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "training_loss", tuple(self.training_loss))
        forest = tuple(tuple(t.nodes[name].tolist() for name in _NODE.names) for t in self.trees)
        object.__setattr__(self, "_forest", forest)
        top = max((int(t.nodes["feature"].max()) for t in self.trees), default=-1)
        object.__setattr__(self, "top_feature", top)
        digest = hashlib.sha256(_serialize(self)).hexdigest()[:8]
        object.__setattr__(self, "_version", f"{MODEL_VERSION}-{digest}")

    def __eq__(self, other) -> bool:
        # Persisted identity: everything the model file stores.
        if not isinstance(other, GbdtModel):
            return NotImplemented
        return _serialize(self) == _serialize(other)

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


def train_classifier(X: np.ndarray, y: np.ndarray, params: GbdtParams) -> GbdtModel:
    """Train a boosted classifier; deterministic for identical inputs."""
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
    # X never changes, so one stable sort per feature serves every node of every tree
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")

    for _ in range(params.trees):
        sig = _stable_sigmoid(margins)
        g = sig - y
        h = sig * (1.0 - sig)
        nodes, leaf_of_row = kernels.grow_tree(
            Xt, order, g, h, params.lambda_, params.min_leaf, params.max_depth
        )
        tree = RegressionTree(nodes)
        trees.append(tree)
        margins += params.shrinkage * tree.nodes["value"][leaf_of_row]
        loss = log_loss(margins, y)
        previous = losses[-1]
        if loss > previous + _LOSS_INCREASE_TOL:
            raise AssertionError(
                f"training log-loss increased from {previous!r} to {loss!r} "
                f"at round {len(trees)}"
            )
        losses.append(loss)
    return GbdtModel(base_score=base_score, params=params, trees=trees, training_loss=losses)


def predict_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = _validate_features(X)
    if X.shape[1] <= model.top_feature:
        raise LengthMismatch(
            f"rows have {X.shape[1]} columns, but the model splits on column "
            f"{model.top_feature} and needs at least {model.top_feature + 1}"
        )
    rows = X.tolist()
    margins = kernels.predict_margin(model._forest, rows, model.base_score, model.params.shrinkage)
    return np.array(margins, dtype=np.float64)


def predict(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Malicious-class scores in [0, 1], one per row."""
    return _stable_sigmoid(predict_margin(model, X))


def predict_one(model: GbdtModel, x: np.ndarray) -> float:
    """Score of one feature row: :func:`predict` on a one-row matrix."""
    return float(predict(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def classify(score: float, threshold: float = DEFAULT_THRESHOLD) -> Label:
    """Malicious iff score >= threshold; the boundary is inclusive.  A NaN
    score has no side of the threshold and raises ``ValueError``."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if math.isnan(score):
        raise ValueError("cannot classify a NaN score")
    return Label.MALICIOUS if score >= threshold else Label.BENIGN


# --------------------------------------------------------------------------
# binary persistence
#
# Layout (little-endian): magic "MLGB", u32 version, u64 tree count,
# u64 max_depth, f64 shrinkage, f64 lambda, f64 base_score, then each
# tree as u32 node count followed by its ``kernels._NODE`` records, the bytes of
# ``RegressionTree.nodes``.

_HEADER = struct.Struct("<QQddd")


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
        parts += (struct.pack("<I", tree.node_count), tree.nodes.tobytes())
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
        if node_count == 0 or pos + node_count * _NODE.itemsize > len(blob):
            raise CorruptPayload(f"tree {t} node array is truncated")
        nodes = np.frombuffer(blob, _NODE, count=node_count, offset=pos)
        pos += nodes.nbytes
        # preorder puts every child after its parent, which rules out cycles
        index = np.arange(node_count)
        left, right = nodes["left"], nodes["right"]
        bad = (nodes["feature"] >= 0) & ~(
            (index < left) & (left < node_count) & (index < right) & (right < node_count)
        )
        if bad.any():
            raise CorruptPayload(
                f"tree {t} node {bad.argmax()} has a child out of range or not after it"
            )
        if not (np.isfinite(nodes["threshold"]).all() and np.isfinite(nodes["value"]).all()):
            raise CorruptPayload(f"tree {t} has a non-finite threshold or leaf value")
        trees.append(RegressionTree(nodes))
    if pos != len(blob):
        raise CorruptPayload(f"{len(blob) - pos} trailing bytes after the last tree")

    params = GbdtParams(
        trees=int(tree_count), max_depth=int(max_depth), shrinkage=shrinkage, lambda_=lambda_
    )
    return GbdtModel(base_score=base_score, params=params, trees=trees)
