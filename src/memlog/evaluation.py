"""Detection metrics, ROC analysis and corpus splitting.

The malicious class is the positive class throughout.  Metrics with a
zero denominator are reported as explicitly undefined (``None`` in
Python, ``null`` in JSON), never as 0.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientClassCount, LengthMismatch, SingleClassInput
from .vectorizer import BENIGN, MALICIOUS


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass
class MetricsReport:
    """Detection quality summary; None marks an undefined metric."""

    acc: Optional[float] = None
    ppv: Optional[float] = None
    tpr: Optional[float] = None
    fpr: Optional[float] = None
    fnr: Optional[float] = None
    f1: Optional[float] = None
    auc: Optional[float] = None
    confusion: Optional[ConfusionMatrix] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.confusion is None:
            del out["confusion"]
        return out


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape[0] != yp.shape[0]:
        raise LengthMismatch(f"{yt.shape[0]} labels vs {yp.shape[0]} predictions")
    return ConfusionMatrix(
        tp=int(((yt == 1) & (yp == 1)).sum()),
        fn=int(((yt == 1) & (yp == 0)).sum()),
        fp=int(((yt == 0) & (yp == 1)).sum()),
        tn=int(((yt == 0) & (yp == 0)).sum()),
    )


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """All confusion-derived metrics; AUC needs scores and stays None here."""
    return MetricsReport(
        acc=_ratio(cm.tp + cm.tn, cm.total),
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
        tpr=_ratio(cm.tp, cm.tp + cm.fn),
        fpr=_ratio(cm.fp, cm.fp + cm.tn),
        fnr=_ratio(cm.fn, cm.fn + cm.tp),
        f1=_ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn),
        auc=None,
        confusion=cm,
    )


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_auc(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Mann-Whitney AUC with midranks for ties.

    AUC = (sum of positive ranks - P(P+1)/2) / (P * N).
    """
    yt = np.asarray(y_true, dtype=np.int64)
    sc = np.asarray(scores, dtype=np.float64)
    if yt.shape[0] != sc.shape[0]:
        raise LengthMismatch(f"{yt.shape[0]} labels vs {sc.shape[0]} scores")
    p = int((yt == 1).sum())
    n = int((yt == 0).sum())
    if p == 0 or n == 0:
        raise SingleClassInput("AUC requires both classes")
    ranks = _midranks(sc)
    rank_sum = float(ranks[yt == 1].sum())
    return (rank_sum - p * (p + 1) / 2.0) / (p * n)


def roc_points(y_true: Sequence[int], scores: Sequence[float]) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) triples swept over descending unique scores,
    for plotting; starts at (0, 0) and ends at (1, 1)."""
    yt = np.asarray(y_true, dtype=np.int64)
    sc = np.asarray(scores, dtype=np.float64)
    if yt.shape[0] != sc.shape[0]:
        raise LengthMismatch(f"{yt.shape[0]} labels vs {sc.shape[0]} scores")
    p = int((yt == 1).sum())
    n = int((yt == 0).sum())
    if p == 0 or n == 0:
        raise SingleClassInput("ROC requires both classes")
    order = np.argsort(-sc, kind="mergesort")
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    for i, idx in enumerate(order):
        if yt[idx] == 1:
            tp += 1
        else:
            fp += 1
        is_last = i + 1 == len(order)
        if is_last or sc[order[i + 1]] != sc[idx]:
            points.append((fp / n, tp / p, float(sc[idx])))
    return points


@dataclass
class SplitSpec:
    """Holdout policy: a balanced test set is drawn first, then a training
    set with the requested malicious fraction comes from the remainder."""

    train_malicious_fraction: float = 0.70
    shuffle_seed: int = 1


def holdout_split(labels: Sequence[int], spec: SplitSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train_indices, test_indices) into the label pool.

    The test set is balanced 1:1 and takes a quarter of the pool, rounded
    down to an even count.  The training set has a malicious fraction
    within one instance of ``spec.train_malicious_fraction``.
    """
    spec = spec or SplitSpec()
    if not 0.0 < spec.train_malicious_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {spec.train_malicious_fraction}")
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    rng = np.random.default_rng(spec.shuffle_seed)
    perm = rng.permutation(n)

    malicious = perm[y[perm] == MALICIOUS]
    benign = perm[y[perm] == BENIGN]

    half = n // 8
    if half < 1:
        raise InsufficientClassCount(f"pool has {n} examples, the test set needs at least 8")
    if len(malicious) <= half or len(benign) <= half:
        raise InsufficientClassCount(
            f"pool has {len(malicious)} malicious / {len(benign)} benign, "
            f"test needs {half} of each plus a non-empty remainder"
        )
    test_idx = np.concatenate([malicious[:half], benign[:half]])

    rest_malicious = malicious[half:]
    rest_benign = benign[half:]
    fraction = spec.train_malicious_fraction
    take_malicious = len(rest_malicious)
    take_benign = round(take_malicious * (1.0 - fraction) / fraction)
    if take_benign > len(rest_benign):
        take_benign = len(rest_benign)
        take_malicious = min(round(take_benign * fraction / (1.0 - fraction)), len(rest_malicious))
    if take_malicious < 1 or take_benign < 1:
        raise InsufficientClassCount("remainder cannot satisfy the train fraction")
    train_idx = np.concatenate([rest_malicious[:take_malicious], rest_benign[:take_benign]])
    train_idx = train_idx[rng.permutation(len(train_idx))]
    return train_idx, np.sort(test_idx)
