"""The training kernels against the math, and the native skip-gram epoch,
negative-sample lookup and tree growth against their numpy references,
bit for bit.

The split search has one implementation, checked against the exhaustive
oracle of ``tests/test_gbdt.py``; the numpy tree grower calls it, and the
native grower must emit the same nodes.  Both skip-gram implementations
accumulate in the same order, so their parity comparisons are exact, and
both lookups must return the integers ``np.searchsorted`` returns.
Tree inference has one implementation, a plain Python walk;
``tests/test_gbdt.py`` checks it against per-tree routing.
"""
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memlog import kernels
from memlog.embedding import sgns_pair_loss, sgns_pair_step
from test_gbdt import oracle_best_split


def count_pairs(offsets, window):
    total = 0
    for s in range(len(offsets) - 1):
        start, stop = offsets[s], offsets[s + 1]
        for i in range(start, stop):
            total += min(i + window, stop - 1) - max(i - window, start)
    return total


def sgns_inputs(seed, n_tokens=12, dim=16, window=3, k=5):
    rng = np.random.default_rng(seed)
    sentences = [rng.integers(0, n_tokens, size=int(rng.integers(3, 9))) for _ in range(6)]
    ids = np.concatenate(sentences).astype(np.int32)
    offsets = np.cumsum([0] + [len(s) for s in sentences]).astype(np.int64)
    vin = (rng.random((n_tokens, dim), dtype=np.float32) - 0.5) / dim
    vout = np.zeros((n_tokens, dim), dtype=np.float32)
    pairs = count_pairs(offsets, window)
    negatives = rng.integers(0, n_tokens, size=(pairs, k)).astype(np.int32)
    return ids, offsets, vin, vout, negatives, window, pairs


def saturating_inputs(seed, scale):
    """``sgns_inputs`` on 5 tokens, so negatives repeat and hit the context,
    with both matrices uniform in +-scale/2: at scale 1e3, |score| reaches
    about 1e6, where exp(-|score|) underflows and sigmoid is exactly 0 or 1."""
    ids, offsets, _, _, negatives, window, pairs = sgns_inputs(seed, n_tokens=5)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        vin, vout = (rng.random((2, 5, 16), dtype=np.float32) - np.float32(0.5)) * np.float32(scale)
    return ids, offsets, vin, vout, negatives, window, pairs


def split_inputs(seed, n=80, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 0] = rng.integers(0, 3, size=n)  # low cardinality forces ties
    if d > 3:
        X[:, 3] = X[:, 2]  # duplicated column forces a cross-feature tie
    prob = rng.uniform(0.1, 0.9, size=n)
    g = prob - rng.integers(0, 2, size=n)
    h = prob * (1.0 - prob)
    return X, g, h


def root_split(X, g, h, lam, min_leaf):
    """``kernels.best_split`` on a root node holding every row of ``X``."""
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
    gtot, htot = float(np.cumsum(g)[-1]), float(np.cumsum(h)[-1])
    return kernels.best_split(order, Xt, g, h, gtot, htot, lam, min_leaf)


# Trains and scores a tiny pipeline through the public kernels and asserts
# that the numpy fallbacks ran and the native library was never loaded.
PIPELINE_CODE = """
import os
from memlog import kernels
from memlog.embedding import Hyperparams, build_vocab, train_embeddings
from memlog.gbdt import GbdtParams, predict, train_classifier
from memlog.synthgen import GenSpec, generate_corpus
from memlog.tokenizer import tokenize
from memlog.vectorizer import vectorize_corpus

assert kernels.BACKEND == 'numpy', kernels.BACKEND
assert kernels.sgns_epoch is kernels._sgns_epoch_numpy
assert kernels.draw_negatives is kernels._draw_negatives_numpy
assert kernels.grow_tree is kernels._grow_tree_numpy
logs = generate_corpus(GenSpec(n_malicious=8, n_benign=8, overlap=0.0, seed=3))
grouped = [tokenize(log) for log in logs]
embeddings = train_embeddings(grouped, build_vocab(grouped), Hyperparams(epochs=1, seed=3))
X, y = vectorize_corpus(logs, embeddings)
scores = predict(train_classifier(X, y, GbdtParams(trees=3)), X)
assert scores.shape == (16,)
assert kernels._lib is None
if os.path.exists('/proc/self/maps'):
    with open('/proc/self/maps') as fh:
        assert '_native' not in fh.read()
"""


class TestBackendSelection:
    def test_backend_constant_is_consistent(self):
        assert kernels.BACKEND in ("native", "numpy")
        native_possible = kernels._COMPILER is not None and os.path.exists(kernels._SOURCE)
        assert kernels.BACKEND == ("native" if native_possible else "numpy")

    def test_public_names_bind_to_backend(self):
        if kernels.BACKEND == "native":
            assert kernels.sgns_epoch is kernels._sgns_epoch_native
            assert kernels.draw_negatives is kernels._draw_negatives_native
            assert kernels.grow_tree is kernels._grow_tree_native
        else:
            assert kernels.sgns_epoch is kernels._sgns_epoch_numpy
            assert kernels.draw_negatives is kernels._draw_negatives_numpy
            assert kernels.grow_tree is kernels._grow_tree_numpy

    def test_no_compiler_falls_back_to_numpy(self, tmp_path):
        empty_bin = tmp_path / "bin"
        cache = tmp_path / "cache"
        empty_bin.mkdir()
        cache.mkdir()
        env = dict(os.environ)
        env["PATH"] = str(empty_bin)
        env["XDG_CACHE_HOME"] = str(cache)
        result = subprocess.run(
            [sys.executable, "-c", PIPELINE_CODE], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert list(cache.iterdir()) == []


@pytest.mark.skipif(kernels._COMPILER is None, reason="no C compiler on PATH")
def test_native_source_compiles_cleanly_as_c11(tmp_path):
    strict = ("-std=c11", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-O3", "-c")
    result = subprocess.run(
        [kernels._COMPILER, *strict, "-o", str(tmp_path / "native.o"), kernels._SOURCE],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestSplitParity:
    def test_numpy_matches_exhaustive_oracle(self):
        cases = [(*split_inputs(seed), leaf) for seed in range(20) for leaf in (1, 5, 20)]
        # an exact tie inside one feature: thresholds 0.5 and 2.5 both gain 0.375
        cases.append((np.arange(4.0)[:, None], np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4), 1))
        # midpoints that round onto the lower value or overflow: the upper value is the threshold
        for a, b in ((1.0, np.nextafter(1.0, 2.0)), (-1.7e308, -1.5e308), (1.5e308, 1.7e308)):
            cases.append((np.array([[a], [b]] * 2), np.array([1.0, -1.0] * 2), np.ones(4), 1))
        for X, g, h, min_leaf in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                feature, threshold, _ = root_split(X, g, h, 1.0, min_leaf)
            assert (feature, threshold) == oracle_best_split(X, g, h, 1.0, min_leaf)[:2]

    def test_degenerate_inputs(self):
        X, g, h = split_inputs(5, n=20, d=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # constant columns have no threshold
            assert root_split(np.full((20, 3), 1.0), g, h, 1.0, 5) == (-1, 0.0, 0.0)
            # fewer than 2 * min_leaf rows
            assert root_split(X[:9], g[:9], h[:9], 1.0, 5) == (-1, 0.0, 0.0)
            assert root_split(X[:1], g[:1], h[:1], 1.0, 0) == (-1, 0.0, 0.0)
            # no features
            assert root_split(X[:, :0], g, h, 1.0, 1) == (-1, 0.0, 0.0)
            # no regularization: same split as the oracle ...
            for leaf in (1, 5):
                feature, threshold, _ = root_split(X, g, h, 0.0, leaf)
                assert (feature, threshold) == oracle_best_split(X, g, h, 0.0, leaf)[:2]
            # ... and zero hessians make every gain NaN, which never wins
            assert root_split(X, g, np.zeros(20), 0.0, 1) == (-1, 0.0, 0.0)


def sorted_columns(X):
    """``X`` feature-major, and each feature's stable sort of the rows."""
    Xt = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    return Xt, np.argsort(Xt, axis=1, kind="stable")


@pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
class TestGrowTreeParity:
    def assert_same_tree(self, X, g, h, lam, min_leaf, max_depth):
        Xt, order = sorted_columns(X)
        kept = order.copy()
        native, native_leaves = kernels._grow_tree_native(Xt, order, g, h, lam, min_leaf, max_depth)
        reference, leaves = kernels._grow_tree_numpy(Xt, order, g, h, lam, min_leaf, max_depth)
        assert np.array_equal(order, kept)  # the kernel partitions its own copy
        assert native.dtype == reference.dtype == kernels._NODE
        assert native.tobytes() == reference.tobytes()
        assert np.array_equal(native_leaves, leaves)
        return len(reference)

    def test_oracle_cases(self):
        nodes = 0
        for seed in range(20):
            X, g, h = split_inputs(seed)
            for min_leaf in (0, 1, 5, 20, 41):  # 41 > n / 2 leaves a single leaf
                for max_depth in (0, 3, 6):
                    nodes += self.assert_same_tree(X, g, h, 1.0, min_leaf, max_depth)
        assert nodes > 20 * 5 * 3 * 3
        # an exact tie inside one feature: thresholds 0.5 and 2.5 both gain 0.375
        X, g, h = np.arange(4.0)[:, None], np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4)
        assert self.assert_same_tree(X, g, h, 1.0, 1, 1) == 3

    def test_rounded_and_duplicated_features(self):
        for seed in range(10):
            X, g, h = split_inputs(seed, n=120, d=8)
            X[:, 5] = X[:, 1]
            for lam in (0.0, 1.0):
                self.assert_same_tree(np.round(X, 1), g, h, lam, 1, 10)
                self.assert_same_tree(X, g, h, lam, 2, 50)

    def test_saturated_hessians_at_lambda_zero(self):
        # A saturated row has g = h = 0, so at lambda 0 a side holding only
        # such rows gains 0/0 = NaN, and a leaf of them weighs 0.
        nodes = 0
        for seed in range(10):
            X, g, h = split_inputs(seed, n=60, d=4)
            saturated = X[:, 1] > 0.5
            g, h = np.where(saturated, 0.0, g), np.where(saturated, 0.0, h)
            nodes += self.assert_same_tree(X, g, h, 0.0, 1, 6)
            nodes += self.assert_same_tree(np.round(X, 1), g, h, 0.0, 0, 6)
        assert nodes > 200
        # zero hessians everywhere: every gain is NaN or infinite, and none wins
        assert self.assert_same_tree(X, g, np.zeros_like(h), 0.0, 1, 6) == 1

    def test_degenerate_inputs(self):
        X, g, h = split_inputs(5, n=20, d=3)
        assert self.assert_same_tree(np.full((20, 3), 1.0), g, h, 1.0, 1, 6) == 1
        assert self.assert_same_tree(X[:, :0], g, h, 1.0, 1, 6) == 1
        assert self.assert_same_tree(X[:1], g[:1], h[:1], 1.0, 0, 6) == 1
        assert self.assert_same_tree(X[:2], g[:2], h[:2], 1.0, 0, 10**30) <= 3
        # sums start from the first term, so a leaf of -0.0 gradients weighs +0.0
        assert self.assert_same_tree(X, np.where(X[:, 0] > 0, g, -0.0), h, 1.0, 1, 6) > 1

    def test_a_threshold_that_sends_every_row_one_way(self):
        # The midpoint of 1.0 and the next double rounds to 1.0, and that of
        # 1.5e308 and 1.7e308 overflows to inf; as a threshold either would
        # send every row one way, so both growers cut at the upper value.
        g, h = np.array([0.5, -0.5, 0.5, -0.5]), np.full(4, 0.25)
        for a, b in ((1.0, np.nextafter(1.0, 2.0)), (1.5e308, 1.7e308)):
            X = [[a], [b], [a], [b]]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert self.assert_same_tree(X, g, h, 1.0, 1, 3) == 3
            nodes, leaves = kernels._grow_tree_native(*sorted_columns(X), g, h, 1.0, 1, 3)
            assert nodes["threshold"][0] == b
            assert leaves.tolist() == [1, 2, 1, 2]


def both_backends(kernel):
    """The names of ``kernel``'s numpy reference and of its native port, which
    runs only where the native backend is active."""
    native_only = pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
    return [f"_{kernel}_numpy", pytest.param(f"_{kernel}_native", marks=native_only)]


IMPLS = both_backends("sgns_epoch")

#: Negatives per pair in the block-width parity grid: k + 1 = 1, 2, 8, 9, 10
#: and 18 targets make a lone chain, a full block, a full and a partial
#: block, and three blocks.
PARITY_KS = (0, 1, 7, 8, 9, 17)


def pair_targets(ids, offsets, window, negatives):
    """Each pair's targets in epoch order: its context, then its negatives
    that are not the context."""
    pair = 0
    for s in range(len(offsets) - 1):
        start, stop = offsets[s], offsets[s + 1]
        for i in range(start, stop):
            for j in range(max(i - window, start), min(i + window, stop - 1) + 1):
                if j != i:
                    yield [ids[j], *[t for t in negatives[pair] if t != ids[j]]]
                    pair += 1


#: Scales at which every float32 product of a saturating epoch stays finite.
SATURATING_SCALES = (0.01, 0.1, 1.0, 10.0, 100.0, 1e3)
#: sha256 of vin and vout after the saturating epochs of seeds 60-62 over
#: ``SATURATING_SCALES``, pinned before the context and the negatives shared
#: one update loop, and again before the loss became a running product.
SATURATING_VECTORS_DIGEST = "f24f64c1ff2b60f1502f85a79bcca9f3e552bb1685a8958573ac432059885286"
#: The losses of the same epochs, in the same order, as the sum of one
#: log1p per target gave them.  The running product that replaced it rounds
#: differently, so these hold to a relative 1e-12.
SATURATING_LOSSES = (
    397.8627327323534, 397.4932154227897, 373.43967314816393,
    3028.2981838225037, 301518.1090565213, 30149775.724237442,
    414.49950701870927, 414.25285461436033, 401.4793235803159,
    3925.6285467720704, 389292.6941363777, 38931712.02227664,
    435.2947681887697, 435.13115208345965, 425.4281874952877,
    2375.757906311292, 228018.32735139568, 22803109.069345605,
)

#: The text that asks for the AVX2 copy of the C epoch.
CLONES_ATTRIBUTE = '__attribute__((target_clones("avx2", "default")))'


def saturating_grid():
    """The saturating epochs of seeds 60-62 over ``SATURATING_SCALES``, as
    ``sgns_epoch`` arguments."""
    for seed in (60, 61, 62):
        for scale in SATURATING_SCALES:
            ids, offsets, vin, vout, negatives, window, pairs = saturating_inputs(seed, scale)
            yield ids, offsets, vin, vout, negatives, window, 0.025, 0.025 * 1e-4, 0, pairs


def block_width_grid():
    """Epochs whose pairs have k + 1 = 1 to 18 targets, on 5 tokens (most
    pairs repeat a target) and on 40 (most do not), as ``sgns_epoch``
    arguments."""
    for k in PARITY_KS:
        for dim in (1, 3, 33):
            for n_tokens in (5, 40):
                ids, offsets, vin, _, negatives, window, pairs = sgns_inputs(
                    70 + k + dim, n_tokens, dim, k=k
                )
                rng = np.random.default_rng([k, dim])
                vout = rng.random(vin.shape, dtype=np.float32) - np.float32(0.5)
                yield ids, offsets, vin, vout, negatives, window, 0.5, 0.5e-4, 0, pairs


def epoch_bytes(impl, args):
    """The loss, vin and vout of one epoch of ``impl`` on copies of the
    matrices in ``args``, as bytes."""
    ids, offsets, vin, vout, *rest = args
    vin, vout = vin.copy(), vout.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        loss = impl(ids, offsets, vin, vout, *rest)
    return np.float64(loss).tobytes() + vin.tobytes() + vout.tobytes()


class TestSgnsKernels:
    def run_epoch(self, impl, seed, scale=None):
        inputs = sgns_inputs(seed) if scale is None else saturating_inputs(seed, scale)
        ids, offsets, vin, vout, negatives, window, pairs = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            loss = impl(
                ids, offsets, vin, vout, negatives, window,
                0.025, 0.025 * 1e-4, 0, pairs,
            )
        return loss, vin, vout

    @pytest.mark.parametrize("impl_name", IMPLS)
    def test_epoch_runs_and_learns(self, impl_name):
        impl = getattr(kernels, impl_name)
        loss, vin, vout = self.run_epoch(impl, 40)
        assert loss > 0.0
        assert np.isfinite(vin).all() and np.isfinite(vout).all()
        assert np.abs(vout).sum() > 0.0  # output vectors actually moved

    @pytest.mark.parametrize("impl_name", IMPLS)
    def test_epoch_is_deterministic(self, impl_name):
        impl = getattr(kernels, impl_name)
        loss_a, vin_a, vout_a = self.run_epoch(impl, 41)
        loss_b, vin_b, vout_b = self.run_epoch(impl, 41)
        assert loss_a == loss_b
        assert np.array_equal(vin_a, vin_b)
        assert np.array_equal(vout_a, vout_b)

    @pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
    def test_compiled_matches_python_source(self):
        # Same arithmetic, compiled vs numpy rows, in the same float order.
        for seed in (42, 43, 46, 47):
            loss_c, vin_c, vout_c = self.run_epoch(kernels._sgns_epoch_native, seed)
            loss_p, vin_p, vout_p = self.run_epoch(kernels._sgns_epoch_numpy, seed)
            assert loss_c == loss_p
            assert np.array_equal(vin_c, vin_p)
            assert np.array_equal(vout_c, vout_p)

    @pytest.mark.parametrize("impl_name", IMPLS)
    def test_saturated_scores_keep_their_pinned_bits(self, impl_name):
        digest = hashlib.sha256()
        for i, (args, pinned) in enumerate(zip(saturating_grid(), SATURATING_LOSSES, strict=True)):
            _, _, vin, vout, *_ = args
            with np.errstate(over="ignore", invalid="ignore"):
                loss = getattr(kernels, impl_name)(*args)
            assert loss == pytest.approx(pinned, rel=1e-12)
            if SATURATING_SCALES[i % len(SATURATING_SCALES)] == 1e3:
                assert loss > 1e6  # some targets scored past exp's underflow
            digest.update(vin.tobytes())
            digest.update(vout.tobytes())
        assert digest.hexdigest() == SATURATING_VECTORS_DIGEST

    @pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
    def test_compiled_matches_python_source_when_scores_saturate(self):
        # at 1e20 the float32 products overflow; NaNs then agree in place, not in sign bit
        for seed in (60, 61, 62):
            for scale in (*SATURATING_SCALES, 1e20):
                native = self.run_epoch(kernels._sgns_epoch_native, seed, scale)
                reference = self.run_epoch(kernels._sgns_epoch_numpy, seed, scale)
                for a, b in zip(native, reference):
                    assert np.array_equal(a, b, equal_nan=True)
                    if scale < 1e20:
                        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
    def test_compiled_matches_python_source_at_every_block_width(self, monkeypatch):
        # The C epoch scores a pair's distinct targets side by side in blocks
        # of up to 8 and sends a pair with a repeated target down the
        # sequential loop.  On 5 tokens most pairs repeat a target; on 40
        # most do not, and k + 1 targets fill every block width.  The loss
        # product passes 2**512, and is renormalised, only in epochs of many
        # targets; the numpy epoch's frexp calls show which.
        frexp, renormalised = math.frexp, []

        def counted_frexp(x):
            renormalised.append(x)
            return frexp(x)

        monkeypatch.setattr(kernels.math, "frexp", counted_frexp)
        widths, repeated, products = set(), 0, set()
        for args in block_width_grid():
            ids, offsets, _, _, negatives, window, *_ = args
            for targets in pair_targets(ids, offsets, window, negatives):
                if len(set(targets)) < len(targets):
                    repeated += 1
                else:
                    widths.update({len(targets) % 8 or 8, min(len(targets), 8)})
            native = epoch_bytes(kernels._sgns_epoch_native, args)
            calls = len(renormalised)
            assert native == epoch_bytes(kernels._sgns_epoch_numpy, args), args[4].shape
            products.add(len(renormalised) > calls)
        assert widths == set(range(1, 9)) and repeated
        assert products == {True, False}

    @pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
    def test_baseline_copy_matches_the_loaded_library(self, tmp_path, monkeypatch):
        # Where the C epoch has an AVX2 copy, the loaded library runs it on
        # an AVX2 machine; a build without the attribute has only the
        # baseline.  Both must give the numpy epoch's bits.
        source = Path(kernels._SOURCE).read_text()
        assert CLONES_ATTRIBUTE in source
        stripped = tmp_path / "baseline.c"
        stripped.write_text(source.replace(CLONES_ATTRIBUTE, ""))
        library = tmp_path / "baseline.so"
        built = subprocess.run(
            [kernels._COMPILER, *kernels._CFLAGS, "-o", str(library), str(stripped), *kernels._LDLIBS],
            capture_output=True, text=True,
        )
        assert built.returncode == 0, built.stderr
        grid = [*block_width_grid(), *saturating_grid()]
        loaded = [epoch_bytes(kernels._sgns_epoch_native, args) for args in grid]
        monkeypatch.setattr(kernels, "_lib", kernels._load(str(library)))
        baseline = [epoch_bytes(kernels._sgns_epoch_native, args) for args in grid]
        reference = [epoch_bytes(kernels._sgns_epoch_numpy, args) for args in grid]
        assert baseline == loaded == reference

    def test_numpy_epoch_implements_pair_objective(self):
        # One sentence [0, 1] at window 1 is two pairs: (0 -> 1), then
        # (1 -> 0).  Negatives are distinct from each other and from the
        # context, so each pair is exactly one SGD step on the float64 pair
        # objective, taken at that pair's decayed learning rate.
        rng = np.random.default_rng(48)
        vin = rng.random((8, 16), dtype=np.float32) - np.float32(0.5)
        vout = rng.random((8, 16), dtype=np.float32) - np.float32(0.5)
        negatives = np.array([[2, 3, 4, 5], [6, 7, 2, 3]], dtype=np.int32)
        lr0, total_pairs = 0.5, 4  # two pairs of a two-epoch run: lr0, then 0.75 * lr0
        win, wout = vin.astype(np.float64), vout.astype(np.float64)

        loss = kernels._sgns_epoch_numpy(
            np.array([0, 1], dtype=np.int32), np.array([0, 2], dtype=np.int64),
            vin, vout, negatives, 1, lr0, lr0 * 1e-4, 0, total_pairs,
        )

        expected_loss = 0.0
        for pair, (center, context) in enumerate([(0, 1), (1, 0)]):
            negs = negatives[pair]
            expected_loss += sgns_pair_loss(win[center], wout[context], wout[negs])
            lr = lr0 * (1.0 - pair / total_pairs)
            win[center], wout[context], wout[negs] = sgns_pair_step(
                win[center], wout[context], wout[negs], lr
            )
        assert loss == pytest.approx(expected_loss, rel=1e-7)
        np.testing.assert_allclose(vin, win, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(vout, wout, rtol=1e-5, atol=1e-6)


def sampling_cdf(weights):
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    return cdf / cdf[-1]


def edge_draws(cdf):
    """0.0, the largest double below 1, and every cdf value with its neighbours, in [0, 1)."""
    values = np.concatenate(
        [[0.0, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)]
    )
    return values[(values >= 0.0) & (values < 1.0)]


@pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
class TestDrawNegativesParity:
    def assert_parity(self, cdf, draws):
        native = kernels._draw_negatives_native(cdf, draws)
        reference = kernels._draw_negatives_numpy(cdf, draws)
        assert native.dtype == np.int32 and native.shape == np.shape(draws)
        assert np.array_equal(native, reference)

    def test_random_draws(self):
        rng = np.random.default_rng(50)
        for vocab in (2, 7, 100, 847):
            cdf = sampling_cdf(rng.integers(1, 500, size=vocab) ** 0.75)
            self.assert_parity(cdf, rng.random((3000, 5)))

    def test_edge_draws(self):
        rng = np.random.default_rng(51)
        for cdf in (
            sampling_cdf(rng.integers(1, 50, size=40) ** 0.75),
            sampling_cdf(np.ones(10)),  # cdf values on the bucket edges b / m
            np.array([0.25, 0.25, 0.5, 0.5, 0.75]),  # repeats, and draws past the last value
        ):
            self.assert_parity(cdf, edge_draws(cdf))

    def test_one_token_vocabulary(self):
        cdf = np.array([1.0])
        self.assert_parity(cdf, np.concatenate([edge_draws(cdf), [0.5]]))

    def test_skewed_cdf(self):
        # geometric weights crowd hundreds of cdf values into the last few buckets
        cdf = sampling_cdf(np.geomspace(1.0, 1e-12, 600))
        draws = np.concatenate([np.random.default_rng(53).random(5000), edge_draws(cdf)])
        self.assert_parity(cdf, draws)

    def test_empty_draws(self):
        self.assert_parity(np.array([0.5, 1.0]), np.zeros((0, 5)))


class TestCountPairs:
    def test_closed_form_matches_loop(self):
        offsets = np.cumsum([0, 0, 1, 2, 3, 7, 0, 12])
        for window in (-1, 0, 1, 2, 3, 5, 20, 10**30):
            assert kernels.count_pairs(offsets, window) == count_pairs(offsets, max(window, 0))
        assert kernels.count_pairs(np.array([0]), 5) == 0


@pytest.mark.skipif(kernels.BACKEND != "native", reason="native backend inactive")
class TestNativeInputChecks:
    """The wrappers refuse what would make the C code read or write out of bounds."""

    def epoch(self, **override):
        ids, offsets, vin, vout, negatives, window, pairs = sgns_inputs(44)
        args = dict(ids=ids, offsets=offsets, vin=vin, vout=vout, negatives=negatives)
        args.update(override)
        return kernels._sgns_epoch_native(
            *args.values(), window, 0.025, 0.025 * 1e-4, 0, pairs
        )

    def test_sgns_rejects_bad_arrays(self):
        ids, offsets, vin, vout, negatives, _, _ = sgns_inputs(44)
        with pytest.raises(TypeError):
            self.epoch(vin=vin.astype(np.float64))
        with pytest.raises(TypeError):
            self.epoch(vout=np.asfortranarray(vout))
        with pytest.raises(TypeError):
            self.epoch(ids=ids.astype(np.int64))
        with pytest.raises(ValueError):
            self.epoch(negatives=negatives[:-1])
        with pytest.raises(ValueError):
            self.epoch(negatives=negatives + vin.shape[0])
        with pytest.raises(ValueError):
            self.epoch(ids=-ids - 1)
        with pytest.raises(ValueError):
            self.epoch(offsets=offsets[::-1].copy())
        with pytest.raises(ValueError, match="share memory"):
            self.epoch(vin=vin, vout=vin)

    def test_grow_tree_rejects_bad_input(self):
        X, g, h = split_inputs(45, n=30, d=4)
        Xt, order = sorted_columns(X)

        def grow(**override):
            args = dict(Xt=Xt, order=order, g=g, h=h, lam=1.0, min_leaf=1, max_depth=3)
            args.update(override)
            return kernels._grow_tree_native(**args)

        for bad in (order + 30, order - 1, np.where(order == 0, -30, order)):
            with pytest.raises(ValueError):
                grow(order=bad)
        for bad in (
            dict(order=order[:, :-1]), dict(order=order[:-1]), dict(Xt=Xt[:, :-1]),
            dict(g=g[:-1]), dict(h=np.append(h, 0.5)), dict(min_leaf=-1), dict(max_depth=-1),
        ):
            with pytest.raises(ValueError):
                grow(**bad)
        for bad in (
            dict(order=order.astype(np.float64)), dict(order=order.astype(np.uint64)),
            dict(Xt=Xt.astype(np.complex128)), dict(g=g.astype(np.complex128)),
            dict(Xt=Xt.astype(np.float32)), dict(h=h.astype(np.float32)),
            dict(h=h[:, None]), dict(Xt=Xt[0]),
        ):
            with pytest.raises(TypeError):
                grow(**bad)

    def test_draw_negatives_rejects_bad_input(self):
        cdf, draws = np.array([0.25, 0.5, 1.0]), np.array([0.0, 0.3, 0.9])
        for bad in (np.nan, -0.1, 1.0, 2.0, np.inf):
            with pytest.raises(ValueError):
                kernels._draw_negatives_native(cdf, np.append(draws, bad))
        with pytest.raises(ValueError):
            kernels._draw_negatives_native(cdf[::-1].copy(), draws)
        with pytest.raises(ValueError):
            kernels._draw_negatives_native(np.array([0.5, np.nan, 1.0]), draws)
        with pytest.raises(ValueError):
            kernels._draw_negatives_native(np.zeros(0), draws)
        with pytest.raises(TypeError):
            kernels._draw_negatives_native(cdf.astype(np.complex128), draws)
        with pytest.raises(TypeError):
            kernels._draw_negatives_native(cdf, draws.astype(np.complex128))
        with pytest.raises(TypeError):
            kernels._draw_negatives_native(cdf[:, None], draws)


@pytest.mark.parametrize("grower", both_backends("grow_tree"))
def test_grow_tree_refuses_nan(grower):
    # a NaN fails every comparison, so no threshold beside it splits the rows
    X, g, h = split_inputs(45, n=30, d=4)
    for Xnan, gnan, hnan in (
        ([[1.0], [2.0], [np.nan], [3.0]], np.array([0.5, -0.5, 0.5, -0.5]), np.full(4, 0.25)),
        (np.where(X > 1.0, np.nan, X), g, h),
    ):
        with pytest.raises(ValueError, match="Xt must not contain NaN"):
            getattr(kernels, grower)(*sorted_columns(Xnan), gnan, hnan, 1.0, 1, 3)


class TestBenchmarkScript:
    def test_parity_checks_pass_on_a_small_workload(self):
        # benchmarks/bench_kernels.py asserts backend parity of the compiled kernels before timing
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
             "--logs", "20", "--trees", "3", "--repeats", "1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        names = ("draw_negatives", "sgns_epoch", "best_split", "grow_tree", "train_classifier")
        for kernel in names:
            assert kernel in result.stdout
        assert "ns/pair" in result.stdout
