"""Boosted-tree training checked against an exhaustive split-enumeration oracle.

The oracle enumerates every (feature, threshold) candidate with
BLAS-summed partitions; the threshold between adjacent distinct values
a < b is their midpoint, or b when the midpoint is not in (a, b].  Then
it applies the documented tie rule: among all
candidates whose gain is within the relative tie band of the maximum,
pick the lowest feature index, then the lowest threshold.  Training is
replayed tree by tree so every internal node of every tree is checked
against the oracle on exactly the rows that node saw.
"""
import dataclasses
import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

from memlog import kernels
from memlog.errors import (
    BadMagic,
    CorruptPayload,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassInput,
    TooFewRows,
    VersionMismatch,
)
from memlog.gbdt import (
    GbdtModel,
    GbdtParams,
    RegressionTree,
    _stable_sigmoid,
    classify,
    load_model,
    log_loss,
    predict,
    predict_margin,
    predict_one,
    save_model,
    train_classifier,
)
from memlog.kernels import GAIN_TIE_ABS, GAIN_TIE_REL
from memlog.logmodel import Label


# --------------------------------------------------------------------------
# oracle


def oracle_best_split(X, g, h, lam, min_leaf):
    """Exhaustive enumeration of every split candidate.

    Returns (feature, threshold, gain) or (-1, None, None) when no candidate
    has positive gain.  Partition sums go through a matrix product so the
    summation order differs from the kernel's sequential prefix sums.
    """
    n, n_features = X.shape
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    g_total = math.fsum(g)
    h_total = math.fsum(h)
    parent = g_total * g_total / (h_total + lam)

    candidates = []  # (feature, threshold, gain) in feature-then-threshold order
    for f in range(n_features):
        column = X[:, f]
        uniq = np.unique(column)
        if uniq.size < 2:
            continue
        lower, upper = uniq[:-1], uniq[1:]
        with np.errstate(over="ignore"):
            middle = (lower + upper) / 2.0
        # a midpoint outside (lower, upper] rounded onto lower or overflowed: cut at upper
        thresholds = np.where((lower < middle) & (middle <= upper), middle, upper)
        left = column[None, :] < thresholds[:, None]
        left_sizes = left.sum(axis=1)
        ok = (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
        if not ok.any():
            continue
        mask = left[ok].astype(np.float64)
        gl = mask @ g
        hl = mask @ h
        gr = g_total - gl
        hr = h_total - hl
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        candidates.extend(
            (f, float(t), float(gain)) for t, gain in zip(thresholds[ok], gains)
        )

    if not candidates:
        return -1, None, None
    best = max(gain for _, _, gain in candidates)
    if not best > 0.0:
        return -1, None, None
    cutoff = best - (GAIN_TIE_REL * abs(best) + GAIN_TIE_ABS)
    for f, t, gain in candidates:
        if gain >= cutoff and gain > 0.0:
            return f, t, gain
    raise AssertionError("unreachable: the maximum is always inside its own band")


def route_one(tree, x):
    node = tree.nodes[0]
    while node["feature"] >= 0:
        node = tree.nodes[node["left"] if x[node["feature"]] < node["threshold"] else node["right"]]
    return node["value"]


def replay_and_check(X, y, params):
    """Retrain and verify every node of every tree against the oracle."""
    model = train_classifier(X, y, params)
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    margins = np.full(n, model.base_score)

    assert model.training_loss[0] == pytest.approx(log_loss(margins, y), abs=1e-12)

    for round_idx, tree in enumerate(model.trees):
        prob = 1.0 / (1.0 + np.exp(-margins))
        g = prob - y
        h = prob * (1.0 - prob)

        def walk(node, rows, depth):
            feature = int(tree.nodes["feature"][node])
            if feature < 0:
                g_sum = math.fsum(g[rows])
                h_sum = math.fsum(h[rows])
                want = -g_sum / (h_sum + params.lambda_)
                assert tree.nodes["value"][node] == pytest.approx(want, rel=1e-9, abs=1e-12)
                return
            assert depth < params.max_depth, "split deeper than max_depth"
            threshold = float(tree.nodes["threshold"][node])
            oracle_f, oracle_t, _ = oracle_best_split(
                X[rows], g[rows], h[rows], params.lambda_, params.min_leaf
            )
            assert (feature, threshold) == (oracle_f, oracle_t), (
                f"round {round_idx} node {node}: trained split "
                f"({feature}, {threshold}) != oracle ({oracle_f}, {oracle_t})"
            )
            go_left = X[rows, feature] < threshold
            assert go_left.sum() >= params.min_leaf
            assert (~go_left).sum() >= params.min_leaf
            walk(int(tree.nodes["left"][node]), rows[go_left], depth + 1)
            walk(int(tree.nodes["right"][node]), rows[~go_left], depth + 1)

        walk(0, np.arange(n), 0)
        margins = margins + params.shrinkage * np.array(
            [route_one(tree, row) for row in X]
        )
        assert model.training_loss[round_idx + 1] == pytest.approx(
            log_loss(margins, y), abs=1e-9
        )

    losses = model.training_loss
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert predict_margin(model, X) == pytest.approx(margins, rel=1e-12, abs=1e-12)
    return model


def random_dataset(rng, n_rows=None, n_features=None):
    """Mixed-texture dataset: continuous, low-cardinality, constant columns."""
    n = n_rows if n_rows is not None else int(rng.integers(12, 120))
    d = n_features if n_features is not None else int(rng.integers(1, 9))
    X = rng.normal(size=(n, d))
    for f in range(d):
        kind = rng.integers(0, 4)
        if kind == 0:
            X[:, f] = rng.integers(0, 3, size=n)  # low cardinality
        elif kind == 1:
            X[:, f] = 1.5  # constant: never splittable
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1  # force both classes
    return X, y.astype(np.int64)


# --------------------------------------------------------------------------
# documented stump behaviour


class TestStump:
    def stump_data(self):
        rng = np.random.default_rng(70)
        X = rng.uniform(size=(40, 8))
        y = np.zeros(40, dtype=np.int64)
        y[20:] = 1
        X[:20, 7] = 0.25
        X[20:, 7] = 0.75
        return X, y

    def test_separable_feature_wins(self):
        X, y = self.stump_data()
        model = train_classifier(X, y, GbdtParams(trees=1, max_depth=1))
        tree = model.trees[0]
        assert tree.node_count == 3
        assert int(tree.nodes["feature"][0]) == 7
        assert float(tree.nodes["threshold"][0]) == 0.5
        assert list(tree.nodes["feature"][1:]) == [-1, -1]

    def test_oracle_agrees_on_feature_seven(self):
        X, y = self.stump_data()
        g = 0.5 - y  # sigmoid(0) - y at a balanced base score of zero
        h = np.full(40, 0.25)
        feature, threshold, _ = oracle_best_split(X, g, h, 1.0, 5)
        assert (feature, threshold) == (7, 0.5)

    def test_training_accuracy_is_one_at_half(self):
        X, y = self.stump_data()
        model = train_classifier(X, y, GbdtParams(trees=1, max_depth=1))
        scores = predict(model, X)
        flags = (scores >= 0.5).astype(np.int64)
        assert np.array_equal(flags, y)

    def test_depth_one_is_respected(self):
        X, y = self.stump_data()
        model = train_classifier(X, y, GbdtParams(trees=5, max_depth=1))
        for tree in model.trees:
            assert tree.node_count <= 3


# --------------------------------------------------------------------------
# oracle replay over random data


class TestSplitOracle:
    def test_every_node_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(71)
        for _ in range(12):
            X, y = random_dataset(rng)
            replay_and_check(X, y, GbdtParams(trees=4, max_depth=3, min_leaf=3))

    def test_default_min_leaf_and_depth(self):
        rng = np.random.default_rng(72)
        X, y = random_dataset(rng, n_rows=80, n_features=6)
        replay_and_check(X, y, GbdtParams(trees=3))

    def test_every_node_gets_the_stable_sort_of_its_rows(self, monkeypatch):
        # The fit sorts once; each node's order must still be exactly a fresh
        # stable argsort of its rows, and its totals sums in ascending row
        # order, or prefix sums would round differently from a per-node sort.
        # Only the numpy grower calls best_split, so the fit runs on it; the
        # native grower is tied to it node for node in tests/test_kernels.py.
        monkeypatch.setattr(kernels, "grow_tree", kernels._grow_tree_numpy)
        search = kernels.best_split
        nodes = []

        def checked(order, Xt, g, h, gtot, htot, lam, min_leaf):
            rows = np.sort(order[0])
            assert np.array_equal(order, rows[np.argsort(Xt[:, rows], axis=1, kind="stable")])
            assert (gtot, htot) == (np.cumsum(g[rows])[-1], np.cumsum(h[rows])[-1])
            nodes.append(rows.size)
            return search(order, Xt, g, h, gtot, htot, lam, min_leaf)

        monkeypatch.setattr(kernels, "best_split", checked)
        rng = np.random.default_rng(74)
        for _ in range(6):
            X, y = random_dataset(rng, n_rows=int(rng.integers(40, 120)))
            train_classifier(np.round(X, 1), y, GbdtParams(trees=3, max_depth=4, min_leaf=2))
        assert len(nodes) > 6 * 3 and min(nodes) < 40

    @pytest.mark.parametrize("a, b", [(1.0, np.nextafter(1.0, 2.0)), (1.5e308, 1.7e308)])
    def test_a_midpoint_outside_its_pair_cuts_at_the_upper_value(self, monkeypatch, a, b):
        # (a + b) / 2 rounds onto a, or overflows to inf; either threshold
        # would send every row one way, so both growers cut at b.
        X, y = np.array([[a], [b]] * 2), np.array([0, 1, 0, 1])
        models = []
        for grow in dict.fromkeys((kernels.grow_tree, kernels._grow_tree_numpy)):
            monkeypatch.setattr(kernels, "grow_tree", grow)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                models.append(replay_and_check(X, y, GbdtParams(trees=1, max_depth=3, min_leaf=1)))
            assert float(models[-1].trees[0].nodes["threshold"][0]) == b
        assert all(model == models[0] for model in models)

    def test_duplicated_feature_ties_to_lower_index(self):
        # Identical columns produce identical gains; the tie band must
        # resolve to the lower feature index.
        rng = np.random.default_rng(73)
        base = rng.normal(size=60)
        X = np.column_stack([base, base, rng.normal(size=60)])
        y = (base > 0).astype(np.int64)
        model = train_classifier(X, y, GbdtParams(trees=1, max_depth=1, min_leaf=1))
        assert int(model.trees[0].nodes["feature"][0]) == 0

    def test_constant_features_never_split(self):
        X = np.full((30, 4), 2.5)
        y = np.zeros(30, dtype=np.int64)
        y[15:] = 1
        model = train_classifier(X, y, GbdtParams(trees=3))
        for tree in model.trees:
            assert tree.node_count == 1
            assert int(tree.nodes["feature"][0]) == -1

    def test_min_leaf_blocks_tiny_partitions(self):
        # 10 rows, min_leaf=5: only the 5|5 cut position is admissible.
        X = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int64)
        model = train_classifier(X, y, GbdtParams(trees=1, max_depth=3, min_leaf=5))
        tree = model.trees[0]
        assert float(tree.nodes["threshold"][0]) == 4.5
        assert tree.node_count == 3  # children too small to split again

    def test_loss_nonincreasing_on_noisy_labels(self):
        rng = np.random.default_rng(74)
        X = rng.normal(size=(150, 5))
        y = rng.integers(0, 2, size=150)
        model = train_classifier(X, y, GbdtParams(trees=30))
        losses = model.training_loss
        assert len(losses) == 31
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


# --------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_identical_input_identical_model(self, tmp_path):
        rng = np.random.default_rng(75)
        X, y = random_dataset(rng, n_rows=90, n_features=5)
        a = train_classifier(X.copy(), y.copy(), GbdtParams(trees=10))
        b = train_classifier(X.copy(), y.copy(), GbdtParams(trees=10))
        assert a == b
        pa, pb = tmp_path / "a.mlgb", tmp_path / "b.mlgb"
        save_model(a, str(pa))
        save_model(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()
        assert a.version == b.version

    def test_different_data_different_model(self):
        rng = np.random.default_rng(76)
        X, y = random_dataset(rng, n_rows=90, n_features=5)
        y2 = y.copy()
        y2[5] = 1 - y2[5]  # changes the class prior, hence the base score
        a = train_classifier(X, y, GbdtParams(trees=5))
        b = train_classifier(X, y2, GbdtParams(trees=5))
        assert a != b


# --------------------------------------------------------------------------
# prediction


class TestPrediction:
    def test_zero_tree_model_predicts_sigmoid_base(self):
        base = math.log(0.3 / 0.7)
        model = GbdtModel(base_score=base, params=GbdtParams(trees=0))
        assert model.top_feature == -1
        X = np.random.default_rng(77).normal(size=(25, 4))
        margins = predict_margin(model, X)
        assert np.all(margins == base)
        scores = predict(model, X)
        assert scores == pytest.approx(1.0 / (1.0 + math.exp(-base)), abs=1e-15)
        assert predict_one(model, X[0]) == scores[0]

    def test_predict_one_matches_batch(self, small_classifier, small_dataset):
        rng = np.random.default_rng(80)
        X_deep = rng.normal(size=(150, 8))
        y_deep = (X_deep[:, 0] + X_deep[:, 3] * X_deep[:, 5] + 0.5 * rng.normal(size=150) > 0)
        deep = train_classifier(
            X_deep, y_deep.astype(np.int64), GbdtParams(trees=50, max_depth=6, min_leaf=2)
        )
        for model, X in ((small_classifier, small_dataset[0][:20]), (deep, X_deep[:40])):
            batch = predict(model, X)
            singles = [predict_one(model, row) for row in X]
            assert batch == pytest.approx(singles, abs=0.0)
            margins = []
            for row in X:
                margin = model.base_score
                for tree in model.trees:  # float64 sum in tree order
                    margin += model.params.shrinkage * route_one(tree, row)
                margins.append(margin)
            oracle = _stable_sigmoid(np.array(margins, dtype=np.float64))
            assert np.array(singles).tobytes() == oracle.tobytes()

    def test_scores_are_probabilities(self, small_classifier, small_dataset):
        X, _ = small_dataset
        scores = predict(small_classifier, X)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_margin_matches_manual_routing(self):
        rng = np.random.default_rng(78)
        X, y = random_dataset(rng, n_rows=60, n_features=4)
        model = train_classifier(X, y, GbdtParams(trees=7, max_depth=3))
        manual = model.base_score + model.params.shrinkage * np.array(
            [math.fsum(route_one(t, row) for t in model.trees) for row in X]
        )
        assert predict_margin(model, X) == pytest.approx(manual, rel=1e-12, abs=1e-12)

    def test_rejects_non_finite_features(self, small_classifier):
        bad = np.zeros((2, 192))
        bad[1, 3] = np.nan
        with pytest.raises(NonFiniteFeature):
            predict(small_classifier, bad)
        with pytest.raises(NonFiniteFeature):
            predict_one(small_classifier, bad[1])
        bad[1, 3] = np.inf
        with pytest.raises(NonFiniteFeature):
            predict(small_classifier, bad)

    def test_rejects_wrong_rank(self, small_classifier):
        with pytest.raises(NonFiniteFeature):
            predict(small_classifier, np.zeros(192))

    def test_rejects_rows_narrower_than_its_splits(self, small_classifier):
        top = small_classifier.top_feature
        assert top == max(int(tree.nodes["feature"].max()) for tree in small_classifier.trees)
        with pytest.raises(LengthMismatch, match=f"{top} columns.* at least {top + 1}"):
            predict(small_classifier, np.zeros((3, top)))
        with pytest.raises(LengthMismatch):
            predict_one(small_classifier, np.zeros(top))
        # every split column is there, so the columns past the top one are never read
        assert predict_one(small_classifier, np.zeros(top + 1)) == predict_one(
            small_classifier, np.zeros(192)
        )


# --------------------------------------------------------------------------
# decision rule


class TestClassify:
    def test_boundary_is_inclusive(self):
        assert classify(0.75, 0.75) is Label.MALICIOUS
        assert classify(0.76, 0.75) is Label.MALICIOUS
        assert classify(0.74, 0.75) is Label.BENIGN
        assert classify(np.nextafter(0.75, 0.0), 0.75) is Label.BENIGN

    def test_default_threshold(self):
        assert classify(0.75) is Label.MALICIOUS
        assert classify(0.7499) is Label.BENIGN

    def test_monotone_in_score(self):
        rng = np.random.default_rng(79)
        scores = np.sort(rng.uniform(size=2000))
        flags = [int(classify(s, 0.33) is Label.MALICIOUS) for s in scores]
        assert flags == sorted(flags)

    @pytest.mark.parametrize("threshold", [0.75, 0.33])
    def test_nan_score_rejected(self, threshold):
        with pytest.raises(ValueError, match="NaN"):
            classify(float("nan"), threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            classify(0.5, threshold)


# --------------------------------------------------------------------------
# input validation


class TestValidation:
    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            train_classifier(np.zeros((1, 3)), np.array([1]), GbdtParams())

    def test_single_class(self):
        X = np.random.default_rng(80).normal(size=(20, 3))
        with pytest.raises(SingleClassInput):
            train_classifier(X, np.zeros(20, dtype=np.int64), GbdtParams())
        with pytest.raises(SingleClassInput):
            train_classifier(X, np.ones(20, dtype=np.int64), GbdtParams())

    def test_length_mismatch(self):
        X = np.zeros((10, 3))
        with pytest.raises(LengthMismatch):
            train_classifier(X, np.array([0, 1, 0]), GbdtParams())

    def test_zero_hessian_leaf_is_zero_at_lambda_zero(self, tmp_path):
        # Margins saturate on separable rows, so every hessian of a leaf
        # rounds to 0.0; with lambda 0 its weight -G/(H+lam) is undefined.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        params = GbdtParams(trees=100, shrinkage=1.0, lambda_=0.0, max_depth=2, min_leaf=1)
        model = train_classifier(X, y, params)
        values = np.concatenate([tree.nodes["value"] for tree in model.trees])
        leaves = np.concatenate([tree.nodes["feature"] < 0 for tree in model.trees])
        assert np.isfinite(values).all() and (values[leaves] == 0.0).any()
        path = tmp_path / "lambda0.mlgb"
        save_model(model, str(path))
        assert load_model(str(path)) == model  # the loader refuses non-finite leaves

    def test_non_finite_training_features(self):
        X = np.zeros((10, 3))
        X[4, 1] = np.inf
        y = np.tile([0, 1], 5)
        with pytest.raises(NonFiniteFeature):
            train_classifier(X, y, GbdtParams())


# --------------------------------------------------------------------------
# persistence


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(81)
    X, y = random_dataset(rng, n_rows=70, n_features=5)
    return train_classifier(X, y, GbdtParams(trees=6, max_depth=4))


class TestPersistence:
    def test_file_layout_is_pinned(self, tmp_path):
        # A hand-written stump, so no float arithmetic decides the bytes.
        records = [(7, 0.5, 1, 2, 0.0), (-1, 0.0, -1, -1, -0.25), (-1, 0.0, -1, -1, 0.75)]
        params = GbdtParams(trees=1, max_depth=1, shrinkage=0.1, lambda_=1.0)
        model = GbdtModel(base_score=-0.5, params=params, trees=[RegressionTree(records)])
        path = tmp_path / "stump.mlgb"
        save_model(model, str(path))
        assert path.read_bytes() == (
            b"MLGB"
            + struct.pack("<I", 1)
            + struct.pack("<QQddd", 1, 1, 0.1, 1.0, -0.5)
            + struct.pack("<I", 3)
            + b"".join(struct.pack("<idiid", *record) for record in records)
        )
        assert load_model(str(path)) == model
        X = np.zeros((2, 8))
        X[1, 7] = 0.5
        assert predict_margin(model, X).tolist() == [-0.5 + 0.1 * -0.25, -0.5 + 0.1 * 0.75]

    def test_nodes_are_read_only(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        for model in (trained, load_model(str(path))):
            nodes = model.trees[0].nodes
            with pytest.raises(ValueError):
                nodes["feature"][0] = 0
            with pytest.raises(ValueError):
                nodes[0] = (-1, 0.0, -1, -1, 1.0)
        # a tree keeps its own copy of the records it was built from
        source = trained.trees[0].nodes.copy()
        tree = RegressionTree(source)
        source["value"][:] = 1.0
        assert tree.nodes.tobytes() == trained.trees[0].nodes.tobytes()

    def test_round_trip_is_bit_exact(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        loaded = load_model(str(path))
        assert loaded == trained
        assert loaded.version == trained.version
        assert trained.version == "1-" + hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        with pytest.raises(dataclasses.FrozenInstanceError):
            trained.trees = ()
        again = tmp_path / "again.mlgb"
        save_model(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_round_trip_preserves_predictions(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        loaded = load_model(str(path))
        X = np.random.default_rng(82).normal(size=(30, 5))
        assert np.array_equal(predict(loaded, X), predict(trained, X))

    def test_bad_magic(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XLGB"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_model(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mlgb"
        path.write_bytes(b"")
        with pytest.raises(BadMagic):
            load_model(str(path))

    def test_version_mismatch(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_model(str(path))

    def test_truncations(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        blob = path.read_bytes()
        for cut in (6, 20, 47, len(blob) // 2, len(blob) - 3):
            clipped = tmp_path / f"cut{cut}.mlgb"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(CorruptPayload):
                load_model(str(clipped))

    def test_cyclic_tree_is_corrupt(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        blob = bytearray(path.read_bytes())
        # magic, version and header (48 bytes), tree 0's node count, then
        # node 0 as (i32 feature, f64 threshold, i32 left, ...)
        assert struct.unpack_from("<i", blob, 52)[0] >= 0  # node 0 splits
        struct.pack_into("<i", blob, 52 + 12, 0)  # left child of node 0 is node 0
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptPayload, match="tree 0 node 0"):
            load_model(str(path))

    def test_trailing_bytes(self, trained, tmp_path):
        path = tmp_path / "model.mlgb"
        save_model(trained, str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptPayload):
            load_model(str(path))
