"""Metrics, ROC/AUC, and holdout-split behaviour.

AUC is checked against a quadratic pair-counting oracle (ties count one
half), exactly: it is the exact pair fraction rounded once, and each ROC
point is its exact rates rounded once.  The holdout split is checked
against direct counting of the documented policy: balanced test set
first, then a train set whose malicious fraction is within one instance
of the request.
"""
from fractions import Fraction

import numpy as np
import pytest

from memlog.errors import InsufficientClassCount, LengthMismatch, SingleClassInput
from memlog.evaluation import (
    ConfusionMatrix,
    SplitSpec,
    compute_metrics,
    confusion,
    holdout_split,
    roc_auc,
    roc_points,
)


def auc_oracle(y_true, scores):
    """O(P*N) pair counting: wins score 1, ties score 1/2."""
    pos = [s for y, s in zip(y_true, scores) if y == 1]
    neg = [s for y, s in zip(y_true, scores) if y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


def random_pools(seed, count=200):
    """(labels, scores) with both classes; every other pool has many ties."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 80))
        y = rng.integers(0, 2, size=n)
        y[0], y[-1] = 1, 0
        scores = rng.uniform(size=n)
        yield y, np.round(scores, 1) if case % 2 else scores


NOT_SWEPT = [([1, 2, 0], [0.9, 0.8, 0.1]), ([1, -1, 0], [0.9, 0.8, 0.1]),
             ([1, 0], [float("nan"), 0.5])]


class TestConfusion:
    def test_hand_counts(self):
        y_true = [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0]
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 2)
        assert cm.total == 6

    def test_all_correct(self):
        cm = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 0, 0, 2)

    def test_all_flipped(self):
        cm = confusion([1, 0, 1, 0], [0, 1, 0, 1])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 2, 2, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    @pytest.mark.parametrize("y_true, y_pred", [([1, 2, 0], [1, 1, 0]), ([1, -1, 0], [1, 0, 0]),
                                                ([1, 0, 0], [1, 2, 0])])
    def test_label_outside_zero_one_rejected(self, y_true, y_pred):
        with pytest.raises(ValueError, match=r"labels in \{0, 1\}"):
            compute_metrics(confusion(y_true, y_pred))


class TestMetrics:
    def test_headline_matrix(self):
        cm = ConfusionMatrix(tp=301202, fn=11, fp=111, tn=301102)
        report = compute_metrics(cm)
        assert report.acc == pytest.approx(0.999797, abs=5e-7)
        assert report.ppv == pytest.approx(0.999632, abs=5e-7)
        assert report.tpr == pytest.approx(0.999963, abs=5e-7)
        assert report.fpr == pytest.approx(0.000369, abs=5e-7)
        assert report.fnr == pytest.approx(0.000037, abs=5e-7)
        assert report.f1 == pytest.approx(0.999798, abs=5e-7)
        assert report.auc is None
        assert report.confusion is cm

    def test_all_ones_matrix(self):
        report = compute_metrics(ConfusionMatrix(tp=1, fn=1, fp=1, tn=1))
        assert report.acc == 0.5
        assert report.ppv == 0.5
        assert report.tpr == 0.5
        assert report.fpr == 0.5
        assert report.fnr == 0.5
        assert report.f1 == 0.5

    def test_perfect_matrix(self):
        report = compute_metrics(ConfusionMatrix(tp=40, fn=0, fp=0, tn=60))
        assert report.acc == 1.0
        assert report.ppv == 1.0
        assert report.tpr == 1.0
        assert report.fpr == 0.0
        assert report.fnr == 0.0
        assert report.f1 == 1.0

    def test_empty_matrix_is_all_undefined(self):
        report = compute_metrics(ConfusionMatrix(0, 0, 0, 0))
        assert report.acc is None
        assert report.ppv is None
        assert report.tpr is None
        assert report.fpr is None
        assert report.fnr is None
        assert report.f1 is None

    def test_no_positive_predictions_leaves_ppv_undefined(self):
        report = compute_metrics(ConfusionMatrix(tp=0, fn=5, fp=0, tn=5))
        assert report.ppv is None
        assert report.tpr == 0.0
        assert report.fpr == 0.0
        assert report.f1 == 0.0

    def test_fnr_complements_tpr(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            tp, fn = int(rng.integers(1, 1000)), int(rng.integers(0, 1000))
            report = compute_metrics(ConfusionMatrix(tp=tp, fn=fn, fp=3, tn=7))
            assert report.fnr == pytest.approx(1.0 - report.tpr, abs=1e-12)

    def test_to_dict_shape(self):
        report = compute_metrics(ConfusionMatrix(tp=1, fn=1, fp=1, tn=1))
        data = report.to_dict()
        assert set(data) == {"acc", "ppv", "tpr", "fpr", "fnr", "f1", "auc", "confusion"}
        assert data["confusion"] == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}
        assert data["auc"] is None


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.4]) == 1.0

    def test_all_scores_equal(self):
        assert roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_partial_overlap(self):
        assert roc_auc([1, 1, 0, 0], [0.8, 0.3, 0.5, 0.2]) == 0.75

    def test_reversed_scores(self):
        assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            y = rng.integers(0, 2, size=n)
            y[0], y[-1] = 1, 0
            # Quantized scores force plenty of ties.
            scores = np.round(rng.uniform(size=n), 1)
            assert roc_auc(y, scores) == pytest.approx(auc_oracle(y, scores), abs=1e-12)

    def test_is_the_exact_pair_fraction_rounded_once(self):
        for y, scores in random_pools(96):
            pos, neg = scores[y == 1], scores[y == 0]
            wins = int((pos[:, None] > neg[None, :]).sum())
            ties = int((pos[:, None] == neg[None, :]).sum())
            exact = Fraction(2 * wins + ties, 2 * len(pos) * len(neg))
            assert roc_auc(y, scores) == float(exact)

    @pytest.mark.parametrize("labels, scores", NOT_SWEPT)
    def test_label_outside_zero_one_or_nan_score_rejected(self, labels, scores):
        with pytest.raises(ValueError, match=r"labels in \{0, 1\}|NaN score"):
            roc_auc(labels, scores)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(92)
        y = rng.integers(0, 2, size=100)
        y[0], y[1] = 1, 0
        scores = np.round(rng.uniform(size=100), 1)
        assert roc_auc(y, 3.0 * scores + 2.0) == pytest.approx(
            roc_auc(y, scores), abs=1e-12
        )
        assert roc_auc(y, np.exp(scores)) == pytest.approx(roc_auc(y, scores), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])
        with pytest.raises(SingleClassInput):
            roc_auc([0, 0], [0.1, 0.2])
        with pytest.raises(SingleClassInput):
            roc_auc([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            roc_auc([1, 0], [0.5])


class TestRocPoints:
    def test_endpoints(self):
        points = roc_points([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.4])
        assert points[0] == (0.0, 0.0, float("inf"))
        assert points[-1][:2] == (1.0, 1.0)
        assert points[-1][2] == 0.4

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(93)
        y = rng.integers(0, 2, size=80)
        y[0], y[1] = 1, 0
        scores = np.round(rng.uniform(size=80), 1)
        points = roc_points(y, scores)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        thresholds = [p[2] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)
        assert thresholds == sorted(thresholds, reverse=True)
        assert len(set(thresholds)) == len(thresholds)

    def test_points_match_thresholded_confusions(self):
        rng = np.random.default_rng(94)
        y = rng.integers(0, 2, size=60)
        y[0], y[1] = 1, 0
        scores = np.round(rng.uniform(size=60), 1)
        for fpr, tpr, threshold in roc_points(y, scores)[1:]:
            cm = confusion(y, (scores >= threshold).astype(int))
            assert tpr == pytest.approx(cm.tp / (cm.tp + cm.fn), abs=1e-12)
            assert fpr == pytest.approx(cm.fp / (cm.fp + cm.tn), abs=1e-12)

    def test_rates_are_exact_fractions_rounded_once(self):
        for y, scores in random_pools(97):
            p, n = int((y == 1).sum()), int((y == 0).sum())
            for fpr, tpr, threshold in roc_points(y, scores)[1:]:
                above = scores >= threshold
                assert fpr == float(Fraction(int((above & (y == 0)).sum()), n))
                assert tpr == float(Fraction(int((above & (y == 1)).sum()), p))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            roc_points([1, 1], [0.5, 0.6])

    @pytest.mark.parametrize("labels, scores", NOT_SWEPT)
    def test_label_outside_zero_one_or_nan_score_rejected(self, labels, scores):
        with pytest.raises(ValueError, match=r"labels in \{0, 1\}|NaN score"):
            roc_points(labels, scores)


class TestHoldoutSplit:
    def pool(self, malicious, benign):
        return np.array([1] * malicious + [0] * benign, dtype=np.int64)

    def test_documented_counts(self):
        labels = self.pool(100, 60)
        train_idx, test_idx = holdout_split(labels, SplitSpec())
        test_labels = labels[test_idx]
        assert len(test_idx) == 40
        assert (test_labels == 1).sum() == 20
        assert (test_labels == 0).sum() == 20
        train_labels = labels[train_idx]
        assert (train_labels == 1).sum() == 80
        assert (train_labels == 0).sum() == 34
        fraction = (train_labels == 1).sum() / len(train_labels)
        assert abs(fraction - 0.70) <= 1.0 / len(train_labels)

    def test_disjoint_and_valid(self):
        labels = self.pool(100, 60)
        train_idx, test_idx = holdout_split(labels, SplitSpec())
        assert set(train_idx.tolist()).isdisjoint(test_idx.tolist())
        combined = np.concatenate([train_idx, test_idx])
        assert len(set(combined.tolist())) == len(combined)
        assert combined.min() >= 0 and combined.max() < len(labels)

    def test_default_test_size_is_quarter(self):
        labels = self.pool(100, 100)
        _, test_idx = holdout_split(labels, SplitSpec())
        assert len(test_idx) == 50  # (200 // 4) rounded down to even
        assert (labels[test_idx] == 1).sum() == 25

    def test_balanced_fraction(self):
        labels = self.pool(100, 100)
        train_idx, _ = holdout_split(labels, SplitSpec(train_malicious_fraction=0.5))
        train_labels = labels[train_idx]
        assert (train_labels == 1).sum() == 75
        assert (train_labels == 0).sum() == 75

    def test_benign_shortage_clamps_and_rebalances(self):
        # 90 malicious / 30 benign remain after the test draw; 0.7 needs
        # more benign than exist, so both sides shrink to hit the fraction.
        labels = self.pool(110, 50)
        train_idx, test_idx = holdout_split(labels, SplitSpec())
        train_labels = labels[train_idx]
        assert (labels[test_idx] == 1).sum() == 20
        assert (train_labels == 1).sum() == 70
        assert (train_labels == 0).sum() == 30

    def test_deterministic_per_seed(self):
        labels = self.pool(60, 60)
        a = holdout_split(labels, SplitSpec(shuffle_seed=5))
        b = holdout_split(labels, SplitSpec(shuffle_seed=5))
        c = holdout_split(labels, SplitSpec(shuffle_seed=6))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))

    def test_insufficient_pool(self):
        # the test set takes n // 8 of each class and must leave some of each
        with pytest.raises(InsufficientClassCount):
            holdout_split(self.pool(2, 20), SplitSpec())
        with pytest.raises(InsufficientClassCount):
            holdout_split(self.pool(3, 100), SplitSpec())
        # below 8 logs the test size, a quarter of the pool rounded to even, is 0
        for malicious, benign in ((3, 3), (4, 3), (0, 0)):
            with pytest.raises(InsufficientClassCount):
                holdout_split(self.pool(malicious, benign), SplitSpec())

    @pytest.mark.parametrize("labels", [[2] * 20 + [0] * 20, [1] * 20 + [0] * 19 + [-1]])
    def test_label_outside_zero_one_rejected(self, labels):
        with pytest.raises(ValueError, match=r"labels in \{0, 1\}"):
            holdout_split(labels, SplitSpec())

    def test_bad_parameters(self):
        labels = self.pool(50, 50)
        with pytest.raises(ValueError):
            holdout_split(labels, SplitSpec(train_malicious_fraction=1.0))
        with pytest.raises(ValueError):
            holdout_split(labels, SplitSpec(train_malicious_fraction=0.0))

    def test_random_pools_keep_invariants(self):
        rng = np.random.default_rng(95)
        for _ in range(30):
            n_mal = int(rng.integers(12, 80))
            n_ben = int(rng.integers(12, 80))
            labels = rng.permutation(self.pool(n_mal, n_ben))
            test_size = (len(labels) // 4) & ~1
            spec = SplitSpec(
                train_malicious_fraction=float(rng.uniform(0.3, 0.8)),
                shuffle_seed=int(rng.integers(0, 1000)),
            )
            try:
                train_idx, test_idx = holdout_split(labels, spec)
            except InsufficientClassCount:
                continue
            assert set(train_idx.tolist()).isdisjoint(test_idx.tolist())
            test_labels = labels[test_idx]
            assert (test_labels == 1).sum() == test_size // 2
            assert (test_labels == 0).sum() == test_size // 2
            train_labels = labels[train_idx]
            fraction = (train_labels == 1).sum() / len(train_labels)
            assert abs(fraction - spec.train_malicious_fraction) <= 1.0 / len(train_labels)
