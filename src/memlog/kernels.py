"""Hot numeric kernels: skip-gram SGD, negative sampling, boosted-tree split
search and growth, tree inference.

Three training kernels are compiled.  Each has a numpy reference, which is
also the fallback when there is no compiler, and a C port in
``_native.c`` called through ``ctypes``:

- the skip-gram epoch, ``sgns_epoch``: ``_sgns_epoch_numpy`` loops over
  numpy rows and is checked against the float64 pair objective in
  ``embedding``; ``_sgns_epoch_native`` does the same arithmetic in the
  same order for each target, scoring a pair's distinct targets side by
  side;
- the negative-sample lookup, ``draw_negatives``: ``_draw_negatives_numpy``
  is ``np.searchsorted`` over the sampling CDF; ``_draw_negatives_native``
  finds the same integers through a guide table;
- the growth of one boosted tree, ``grow_tree``: ``_grow_tree_numpy``
  recurses node by node and calls ``best_split``, the split search, which
  the tests tie to an exhaustive oracle; ``_grow_tree_native`` grows the
  whole tree in one call, with the same sums, gains, ties, thresholds and
  partitions.  Both return the tree as ``_NODE`` records, the layout the
  model file stores, which the C grower writes directly.

Each pair is bit-identical: same operand types, same accumulation order,
no fused or reordered arithmetic, and all randomness is drawn outside the
kernels.  So the backend changes only the speed of training, never the
model files it writes.  ``BACKEND`` is ``"native"`` when a C compiler
(``cc`` or ``gcc``) is on ``PATH`` at import and ``"numpy"`` otherwise,
and ``sgns_epoch``, ``draw_negatives`` and ``grow_tree`` bind to it.  The
library is compiled on the first call of a native kernel, not at import,
with ``-O3 -ffp-contract=off`` (no fast-math: gcc vectorizes only
element-wise updates, and every sum stays sequential), into
``$XDG_CACHE_HOME/memlog`` (default ``~/.cache/memlog``) under a file name
keyed by the SHA-256 of the source, the flags and the machine; the
compiler writes a temporary file that is then renamed into place.  A
compiler that fails raises :class:`RuntimeError`.  Each load refreshes
its build's mtime, and each build deletes all but the four most recently
built or loaded libraries.

The trainer sorts each feature column once per fit, and the split search
scans all features of a node in one pass over that order, which each
split filters into the children's orders.  Tree inference,
``predict_margin``, is one plain Python walk for every caller; scoring
never builds or loads the library.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import threading

import numpy as np

#: Gains within this relative band are treated as tied, making split
#: selection robust to summation-order noise; ties resolve to the lowest
#: feature index, then the lowest threshold.
GAIN_TIE_REL = 1e-12
GAIN_TIE_ABS = 1e-15


# --------------------------------------------------------------------------
# skip-gram with negative sampling
#
# One epoch over the corpus.  ``ids`` holds token ids for every sentence
# back to back; sentence s spans ids[offsets[s]:offsets[s+1]].  For the
# pair at global index t (continuing across epochs via ``pair_base``),
# the learning rate decays linearly from lr0 to lr_floor over
# ``total_pairs`` updates, and row t-pair_base of ``negatives`` supplies
# the pre-drawn negative token ids.  Updates both matrices in place;
# returns the summed pair loss for diagnostics.
#
# Every target of a pair follows one rule: the context first, with label
# 1, then each negative that is not the context, with label 0.  A target
# u scores s = u . v (a float64 sum of float32 products) against the
# center v, adds the softplus loss log(1 + exp(-s)) for the context or
# log(1 + exp(s)) for a negative, and moves by (label - sigmoid(s)) * lr
# times v; v moves once, by the sum of its pulls, after its last target.
#
# So a target's score depends on no other target's update unless the two
# share a row.  The C epoch uses that: when a pair's targets are pairwise
# distinct, it computes their scores side by side before any update, each
# still one sequential sum in this order; a pair with a repeated target
# scores each target just before its update, as this loop does.
#
# The loss is only a diagnostic, so it costs one log per epoch rather than a
# log1p per target.  With e = exp(-|s|), a target's softplus is max(z, 0) +
# log(1 + e), z = -s for the context and s for a negative.  The epoch sums
# the positive z and multiplies the 1 + e (the sigmoid's denominator, in
# (1, 2]) into one product, renormalised with frexp above 2**512 and its
# exponents kept in an integer, and returns sum + log(product) + exponents
# * ln 2.  Both backends do exactly this, and the C epoch's AVX2 copy (see
# ``_native.c``) gives the same bits.

#: Every factor of the loss product is at most 2, so renormalising it above
#: this keeps it finite.
_RENORMALISE_ABOVE = 2.0**512
_LN2 = 0.6931471805599453


def count_pairs(offsets, window):
    """Number of (center, context) pairs one epoch over these sentences visits."""
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    # a sentence of n tokens has 2 * (n - d) ordered pairs at each distance d <= reach
    window = min(int(window), int(lengths.max(initial=0)))
    reach = np.clip(np.minimum(window, lengths - 1), 0, None)
    return int((reach * (2 * lengths - reach - 1)).sum())


def _sgns_epoch_numpy(ids, offsets, vin, vout, negatives, window, lr0, lr_floor, pair_base, total_pairs):
    pair = 0
    loss_z, loss_prod, loss_exp = 0.0, 1.0, 0
    for s in range(offsets.shape[0] - 1):
        start, stop = offsets[s], offsets[s + 1]
        for i in range(start, stop):
            center = ids[i]
            lo = max(i - window, start)
            hi = min(i + window, stop - 1)
            for j in range(lo, hi + 1):
                if j == i:
                    continue
                context = ids[j]
                lr = lr0 * (1.0 - (pair_base + pair) / total_pairs)
                if lr < lr_floor:
                    lr = lr_floor
                v = vin[center]
                grad_v = np.zeros_like(v)
                targets = [context, *[t for t in negatives[pair].tolist() if t != context]]
                for n, target in enumerate(targets):
                    u = vout[target]
                    # float64 running sum of float32 products, one product at a time
                    score = float(np.add.accumulate((u * v).astype(np.float64))[-1])
                    # sigmoid and softplus in overflow-safe form
                    e = math.exp(-abs(score))
                    denom = 1.0 + e
                    sig = 1.0 / denom if score >= 0.0 else e / denom
                    z = score if n else -score
                    if z > 0.0:
                        loss_z += z
                    loss_prod *= denom
                    if loss_prod > _RENORMALISE_ABOVE:
                        loss_prod, ex = math.frexp(loss_prod)
                        loss_exp += ex
                    # not label - sig: 0.0 - 0.0 is +0.0 where -sig is -0.0
                    g = np.float32((-sig if n else 1.0 - sig) * lr)
                    grad_v += g * u
                    u += g * v
                vin[center] += grad_v
                pair += 1
    return loss_z + (math.log(loss_prod) + loss_exp * _LN2)


# --------------------------------------------------------------------------
# negative-sample lookup
#
# ``cdf`` is the non-decreasing cumulative sampling distribution over the
# vocabulary, ending at 1.0, and ``draws`` are uniform in [0, 1).  The
# negative for draw u is the first token id whose cdf exceeds u.


def _draw_negatives_numpy(cdf, draws):
    return np.searchsorted(cdf, draws, side="right").astype(np.int32)


# --------------------------------------------------------------------------
# gradient-boosted tree split search
#
# Exact greedy search over all features and all cuts between consecutive
# distinct sorted values a < b.  A cut's threshold is the midpoint of a and
# b, or b itself when the midpoint is not in (a, b] (it rounded onto a, or
# a + b overflowed), so ``x < threshold`` always leaves a row on each
# side.  Gain for a candidate split:
#
#     1/2 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))
#
# Children below min_leaf rows and gains <= 0 are rejected, and so is a
# NaN gain (a zero hessian sum at lam = 0).  Among the candidates within
# the tie band of the maximum, the first wins: lowest feature, then
# lowest threshold.  Returns (feature, threshold, gain); feature is -1
# when no split helps.
#
# The caller sorts each feature column once per fit and hands every node
# its rows in that order: row f of ``order`` lists the node's row indices
# by ascending ``Xt[f]``, ties by row index.  One pass scans every feature
# at once.  Prefix sums use ``np.cumsum``, which adds in row order (``np.sum``
# adds pairwise and would round differently); the node totals ``gtot`` and
# ``htot`` are ``np.cumsum`` over the node's rows in ascending order.


def best_split(order, Xt, g, h, gtot, htot, lam, min_leaf):
    """Best split of the node whose per-feature sorted rows are ``order``.

    ``order`` is (features x node rows) of indices into the columns of the
    feature-major matrix ``Xt`` and into the gradients ``g`` and hessians ``h``.
    """
    n_features, n = order.shape
    # a left child holds k rows for k in [lo, n - lo]; even min_leaf 0 leaves a row a side
    lo = max(int(min_leaf), 1)
    if n_features == 0 or n < 2 * lo:
        return -1, 0.0, 0.0
    # cut i falls between the values xs[:, i] and xs[:, i + 1]
    xs = np.take_along_axis(Xt, order[:, lo - 1 : n - lo + 1], axis=1)
    head = order[:, : n - lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = np.cumsum(g[head], axis=1)[:, lo - 1 :]
        hl = np.cumsum(h[head], axis=1)[:, lo - 1 :]
        gr, hr = gtot - gl, htot - hl
        parent = np.float64(gtot) * gtot / (htot + lam)
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    gains[xs[:, :-1] == xs[:, 1:]] = -np.inf  # no threshold between equal values
    best = float(np.fmax.reduce(gains, axis=None))
    if not best > 0.0:
        return -1, 0.0, 0.0
    cutoff = best - (GAIN_TIE_REL * abs(best) + GAIN_TIE_ABS)
    hits = (gains >= cutoff) & (gains > 0.0)
    if not hits.any():  # an infinite best leaves a NaN cutoff
        return -1, 0.0, 0.0
    f, i = divmod(int(hits.argmax()), gains.shape[1])
    a, b = float(xs[f, i]), float(xs[f, i + 1])  # Python floats: an overflow gives inf, no warning
    t = (a + b) / 2.0
    return f, (t if a < t <= b else b), float(gains[f, i])


# --------------------------------------------------------------------------
# boosted-tree growth
#
# One tree, grown depth-first from a root that holds every row, its nodes
# numbered in preorder.  ``order`` is the fit's per-feature sort of all
# rows, as ``best_split`` takes it.  A node below ``max_depth`` splits
# where ``best_split`` says; rows with ``Xt[feature] < threshold`` go left,
# and filtering each feature's order keeps it sorted, so no node sorts
# again.  A leaf weighs -G/(H+lam), or 0 when H+lam == 0 (lambda 0, every
# margin saturated).  Returns the tree as ``_NODE`` records in preorder,
# and the leaf each row lands in.  A NaN fails every comparison, so no
# threshold beside it splits the rows: both growers refuse an ``Xt`` with one.

#: One tree node, in memory, in the C grower's output and in the model
#: file: packed little-endian (i32 feature, f64 threshold, i32 left, i32
#: right, f64 value), 28 bytes, the ``tree_node`` of ``_native.c``.
#: ``feature < 0`` marks a leaf; ``left`` and ``right`` index the same tree.
_NODE = np.dtype(
    [("feature", "<i4"), ("threshold", "<f8"), ("left", "<i4"), ("right", "<i4"), ("value", "<f8")]
)


def _grow_tree_numpy(Xt, order, g, h, lam, min_leaf, max_depth):
    if np.isnan(Xt).any():
        raise ValueError("Xt must not contain NaN")
    nodes: list[tuple] = []
    leaf_of_row = np.zeros(Xt.shape[1], dtype=np.int64)

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        """Grow the node holding ``rows`` (ascending); ``order`` is their per-feature sort."""
        node = len(nodes)
        nodes.append(None)  # preorder: the node's index comes before its children's
        g_sum = float(np.cumsum(g[rows])[-1]) if rows.size else 0.0
        h_sum = float(np.cumsum(h[rows])[-1]) if rows.size else 0.0
        if depth < max_depth:
            feature, threshold, gain = best_split(order, Xt, g, h, g_sum, h_sum, lam, min_leaf)
            if feature >= 0:
                goes_left = Xt[feature] < threshold
                go_left = goes_left[rows]
                n_left = int(go_left.sum())
                # filtering each feature's order keeps it sorted: the children need no sort
                left = goes_left[order]
                left_child = grow(rows[go_left], order[left].reshape(-1, n_left), depth + 1)
                right_child = grow(
                    rows[~go_left], order[~left].reshape(-1, rows.size - n_left), depth + 1
                )
                nodes[node] = (feature, threshold, left_child, right_child, 0.0)
                return node
        # a leaf whose rows all have saturated margins has no curvature at lambda 0
        value = -g_sum / (h_sum + lam) if h_sum + lam else 0.0
        nodes[node] = (-1, 0.0, -1, -1, value)
        leaf_of_row[rows] = node
        return node

    grow(np.arange(Xt.shape[1], dtype=np.int64), order, 0)
    return np.array(nodes, dtype=_NODE), leaf_of_row


# --------------------------------------------------------------------------
# boosted-tree inference
#
# A forest is one tuple per tree of its node columns as lists, in the
# order of ``_NODE``: (features, thresholds, lefts, rights, values);
# ``features[node] < 0`` marks a leaf and every walk starts at node 0.
# Margin = base + shrinkage * sum of leaf values, trees visited in training
# order.  Callers score one row (the service) or a few hundred (``train``,
# ``evaluate``), where this plain walk takes about a millisecond, so it is
# the only implementation.  It trusts the forest: ``gbdt.load_model``
# rejects out-of-range and backward children, so every walk ends at a leaf.


def predict_margin(forest, rows, base, shrinkage):
    """Margins of ``rows`` (lists of floats), as a list."""
    out = []
    for row in rows:
        margin = base
        for features, thresholds, lefts, rights, values in forest:
            node = 0
            while features[node] >= 0:
                node = lefts[node] if row[features[node]] < thresholds[node] else rights[node]
            margin += shrinkage * values[node]
        out.append(margin)
    return out


# --------------------------------------------------------------------------
# native backend
#
# The wrappers vet every array before handing its raw pointer to C: dtype
# and layout (``_array``), shapes, that every index the kernel follows
# (token ids, negatives, the tree's row orders) is in range, that every
# value the lookup turns into an index (cdf, draws) is finite and ordered
# as it assumes, that the skip-gram matrices share no memory, and that the
# tree's features hold no NaN, around which no threshold splits.  They
# check once per call, never per node.

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_LDLIBS = ("-lm",)
#: Builds the cache keeps, so that a few sources in use never rebuild.
_KEPT_BUILDS = 4


def _library_path() -> str:
    """Where the build of this source with these flags is cached."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(" ".join((*_CFLAGS, *_LDLIBS, platform.machine())).encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache, "memlog", f"_native-{key.hexdigest()[:16]}.so")


_COMPILER = shutil.which("cc") or shutil.which("gcc")
BACKEND = "native" if _COMPILER and os.path.exists(_SOURCE) else "numpy"

_lib = None
_lib_lock = threading.Lock()


def _build(path: str) -> None:
    if _COMPILER is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH to build the native kernels")
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run(
            [_COMPILER, *_CFLAGS, "-o", tmp, _SOURCE, *_LDLIBS], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"building {_SOURCE} failed (without a compiler on PATH the numpy "
                f"kernels run):\n{done.stderr}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(directory)


def _prune(directory: str) -> None:
    """Delete all but the ``_KEPT_BUILDS`` builds most recently built or loaded."""
    import glob  # here: every process that scores logs imports this module, and none builds

    with contextlib.suppress(FileNotFoundError):  # a concurrent build prunes too
        builds = sorted(glob.glob(os.path.join(directory, "_native-*.so")), key=os.path.getmtime)
        for old in builds[:-_KEPT_BUILDS]:
            os.unlink(old)


def _native():
    """The loaded library, built first when this source has no cached build."""
    global _lib
    if _lib is None:
        with _lib_lock:
            if _lib is None:
                path = _library_path()
                try:
                    os.utime(path)  # a load counts as a use, which pruning keeps
                    _lib = _load(path)
                except OSError:  # not built yet, or pruned since by another build
                    _build(path)
                    _lib = _load(path)
    return _lib


def _load(path: str):
    lib = ctypes.CDLL(path)
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.memlog_sgns_epoch.argtypes = (
        p, p, i64, p, p, i64, p, i64, i64, f64, f64, i64, i64, p
    )
    lib.memlog_sgns_epoch.restype = ctypes.c_int
    lib.memlog_draw_negatives.argtypes = (p, i64, p, i64, p)
    lib.memlog_draw_negatives.restype = ctypes.c_int
    lib.memlog_grow_tree.argtypes = (p, p, i64, i64, p, p, f64, i64, i64, f64, f64, i64, p, p, p)
    lib.memlog_grow_tree.restype = ctypes.c_int
    return lib


def _array(name, a, dtype, ndim, writeable=False) -> np.ndarray:
    """``a`` as a C-contiguous ``dtype`` array.  An input the kernel only
    reads is converted when the cast is safe; one it writes must match."""
    if writeable:
        ok = (
            isinstance(a, np.ndarray)
            and a.dtype == dtype
            and a.flags.c_contiguous
            and a.flags.writeable
        )
    else:
        a = np.asarray(a)
        ok = np.can_cast(a.dtype, dtype, "safe")
        if ok:
            a = np.ascontiguousarray(a, dtype=dtype)
    if not ok or a.ndim != ndim:
        kind = "writeable C-contiguous" if writeable else "safely castable"
        raise TypeError(f"{name} must be a {kind} {ndim}-D {np.dtype(dtype).name} array")
    return a


def _in_range(a, stop) -> bool:
    return a.size == 0 or (int(a.min()) >= 0 and int(a.max()) < stop)


def _sgns_epoch_native(ids, offsets, vin, vout, negatives, window, lr0, lr_floor, pair_base, total_pairs):
    ids = _array("ids", ids, np.int32, 1)
    offsets = _array("offsets", offsets, np.int64, 1)
    vin = _array("vin", vin, np.float32, 2, writeable=True)
    vout = _array("vout", vout, np.float32, 2, writeable=True)
    negatives = _array("negatives", negatives, np.int32, 2)
    rows, dim = vin.shape
    if vout.shape != vin.shape:
        raise ValueError(f"vin {vin.shape} and vout {vout.shape} differ in shape")
    if np.may_share_memory(vin, vout):  # the kernel scores a pair's targets before moving v
        raise ValueError("vin and vout must not share memory")
    lengths = np.diff(offsets)
    if offsets.size == 0 or offsets[0] < 0 or offsets[-1] > ids.size or (lengths < 0).any():
        raise ValueError("offsets must be non-decreasing indices into ids")
    if not (_in_range(ids, rows) and _in_range(negatives, rows)):
        raise ValueError(f"token ids and negatives must lie in [0, {rows})")
    # windows wider than the corpus all behave alike; clamping keeps C's i +/- window in range
    window = max(-1, min(int(window), int(ids.size)))
    pairs = count_pairs(offsets, window)
    if negatives.shape[0] < pairs:
        raise ValueError(f"{negatives.shape[0]} rows of negatives for {pairs} pairs")
    if pairs and total_pairs <= 0:
        raise ValueError("total_pairs must be positive")
    loss = ctypes.c_double()
    status = _native().memlog_sgns_epoch(
        ids.ctypes.data, offsets.ctypes.data, offsets.size - 1,
        vin.ctypes.data, vout.ctypes.data, dim, negatives.ctypes.data, negatives.shape[1],
        window, lr0, lr_floor, pair_base, total_pairs, ctypes.byref(loss),
    )
    if status != 0:
        raise MemoryError("native skip-gram epoch could not allocate its scratch buffers")
    return loss.value


def _draw_negatives_native(cdf, draws):
    cdf = _array("cdf", cdf, np.float64, 1)
    flat = _array("draws", np.ravel(draws), np.float64, 1)
    if not 0 < cdf.size <= np.iinfo(np.int32).max:
        raise ValueError(f"cdf must have 1 to 2**31 - 1 entries, got {cdf.size}")
    if not (np.isfinite(cdf).all() and (cdf[1:] >= cdf[:-1]).all()):
        raise ValueError("cdf must be finite and non-decreasing")
    # NaN fails both comparisons, so this also refuses non-finite draws
    if flat.size and not (flat.min() >= 0.0 and flat.max() < 1.0):
        raise ValueError("draws must be finite and lie in [0, 1)")
    out = np.empty(flat.size, dtype=np.int32)
    status = _native().memlog_draw_negatives(
        cdf.ctypes.data, cdf.size, flat.ctypes.data, flat.size, out.ctypes.data
    )
    if status != 0:
        raise MemoryError("native negative-sample lookup could not allocate its guide table")
    return out.reshape(np.shape(draws))


def _grow_tree_native(Xt, order, g, h, lam, min_leaf, max_depth):
    # the reference computes in its inputs' own type, so only float64 matches C
    if any(np.asarray(a).dtype != np.float64 for a in (Xt, g, h)):
        raise TypeError("Xt, g and h must be float64 arrays")
    Xt = _array("Xt", Xt, np.float64, 2)
    order = _array("order", order, np.int64, 2)
    g = _array("g", g, np.float64, 1)
    h = _array("h", h, np.float64, 1)
    n_features, n_rows = Xt.shape
    if order.shape != Xt.shape or g.shape != (n_rows,) or h.shape != (n_rows,):
        raise ValueError(
            f"order {order.shape}, g {g.shape} and h {h.shape} do not fit Xt {Xt.shape}"
        )
    if not _in_range(order, n_rows):
        raise ValueError(f"order must lie in [0, {n_rows})")
    if np.isnan(Xt).any():
        raise ValueError("Xt must not contain NaN")
    if min_leaf < 0 or max_depth < 0:
        raise ValueError(f"min_leaf {min_leaf} and max_depth {max_depth} must be >= 0")
    capacity = max(2 * n_rows - 1, 1)
    if max(capacity, n_features) > np.iinfo(np.int32).max:
        raise ValueError(f"a {n_features} x {n_rows} tree overflows the int32 node fields")
    nodes = np.empty(capacity, dtype=_NODE)
    leaf_of_row = np.empty(n_rows, dtype=np.int64)
    work = order.copy()  # the kernel partitions it in place
    count = ctypes.c_int64()
    # a tree that fits 2n - 1 nodes is less than n deep, and a min_leaf of n
    # already rules out every split, so the clamps change no tree
    status = _native().memlog_grow_tree(
        Xt.ctypes.data, work.ctypes.data, n_features, n_rows, g.ctypes.data, h.ctypes.data,
        float(lam), min(int(min_leaf), n_rows), min(int(max_depth), n_rows),
        GAIN_TIE_REL, GAIN_TIE_ABS, capacity, nodes.ctypes.data,
        leaf_of_row.ctypes.data, ctypes.byref(count),
    )
    if status == 1:
        raise RuntimeError("native tree growth met a split that sends every row one way")
    if status != 0:
        raise MemoryError("native tree growth could not allocate its scratch buffers")
    return nodes[: count.value], leaf_of_row


# --------------------------------------------------------------------------
# backend binding

if BACKEND == "native":
    sgns_epoch, draw_negatives = _sgns_epoch_native, _draw_negatives_native
    grow_tree = _grow_tree_native
else:
    sgns_epoch, draw_negatives = _sgns_epoch_numpy, _draw_negatives_numpy
    grow_tree = _grow_tree_numpy
