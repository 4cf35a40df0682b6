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
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass
class MetricsReport:
    """Detection quality summary; None marks an undefined metric."""

    acc: Optional[float]
    ppv: Optional[float]
    tpr: Optional[float]
    fpr: Optional[float]
    fnr: Optional[float]
    f1: Optional[float]
    auc: Optional[float]
    confusion: ConfusionMatrix

    def to_dict(self) -> dict:
        return asdict(self)


def _binary(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as int64; anything outside {0, 1} raises ``ValueError``."""
    arr = np.asarray(values, dtype=np.int64)
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError(f"{what} needs labels in {{0, 1}}")
    return arr


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Counts of each (label, prediction) pair; both must be in {0, 1}."""
    yt = _binary(y_true, "confusion")
    yp = _binary(y_pred, "confusion")
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


def _roc_steps(y_true: Sequence[int], scores: Sequence[float], what: str):
    """``(tp, fp, thresholds, p, n)``: the ROC sweep over descending scores.

    ``tp``/``fp`` are int64 counts of the positives/negatives scored at or
    above each distinct score, read at the last row of its run after a
    stable sort; ``p``/``n`` are the class totals.  Labels outside {0, 1}
    and NaN scores raise ``ValueError``: neither has a place in the order.
    """
    yt = _binary(y_true, what)
    sc = np.asarray(scores, dtype=np.float64)
    if yt.shape[0] != sc.shape[0]:
        raise LengthMismatch(f"{yt.shape[0]} labels vs {sc.shape[0]} scores")
    if np.isnan(sc).any():
        raise ValueError(f"{what} needs no NaN score")
    p, n = int((yt == 1).sum()), int((yt == 0).sum())
    if p == 0 or n == 0:
        raise SingleClassInput(f"{what} requires both classes")
    order = np.argsort(-sc, kind="mergesort")
    sc, tp = sc[order], np.cumsum(yt[order])
    last = np.append(sc[1:] != sc[:-1], True)
    return tp[last], (np.arange(1, len(sc) + 1) - tp)[last], sc[last], p, n


def roc_auc(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Mann-Whitney AUC, ties counting one half.

    Twice U is the integer sum of ``new_fp * (2 * tp - new_tp)`` over the
    sweep, so ``2U / 2 / (P * N)`` rounds once, like the midrank formula.
    """
    tp, fp, _, p, n = _roc_steps(y_true, scores, "AUC")
    new_tp, new_fp = np.diff(tp, prepend=0), np.diff(fp, prepend=0)
    return int((new_fp * (2 * tp - new_tp)).sum()) / 2 / (p * n)


def roc_points(y_true: Sequence[int], scores: Sequence[float]) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) per distinct score, descending, after (0, 0, inf)."""
    tp, fp, thresholds, p, n = _roc_steps(y_true, scores, "ROC")
    steps = zip((fp / n).tolist(), (tp / p).tolist(), thresholds.tolist())
    return [(0.0, 0.0, float("inf")), *steps]


@dataclass
class SplitSpec:
    """Holdout policy: a balanced test set is drawn first, then a training
    set with the requested malicious fraction comes from the remainder."""

    train_malicious_fraction: float = 0.70
    shuffle_seed: int = 1


def holdout_split(labels: Sequence[int], spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train_indices, test_indices) into the label pool.

    The test set is balanced 1:1 and takes a quarter of the pool, rounded
    down to an even count.  The training set has a malicious fraction
    within one instance of ``spec.train_malicious_fraction``.
    """
    if not 0.0 < spec.train_malicious_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {spec.train_malicious_fraction}")
    y = _binary(labels, "holdout split")
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
