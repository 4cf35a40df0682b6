"""Hot numeric kernels: skip-gram SGD, boosted-tree split search, tree inference.

Only the skip-gram epoch, ``sgns_epoch``, is compiled.  It has two
implementations:

- ``_sgns_epoch_numpy``: Python loops over numpy rows, the reference the
  tests check against the float64 pair objective in ``embedding`` and the
  fallback when there is no compiler;
- ``_sgns_epoch_native``: the same arithmetic in the same order in C
  (``_native.c``), called through ``ctypes``.

Both are bit-identical: same operand types, same accumulation order,
no fused or reordered arithmetic, and all randomness is drawn outside the
kernel.  So the backend changes only the speed of training, never the
model files it writes.  ``BACKEND`` is ``"native"`` when a C compiler
(``cc`` or ``gcc``) is on ``PATH`` at import and ``"numpy"`` otherwise,
and ``sgns_epoch`` binds to it.  The library is compiled on the first
call of the native epoch, not at import, with ``-O2 -ffp-contract=off``
(no fast-math), into ``$XDG_CACHE_HOME/memlog`` (default
``~/.cache/memlog``) under a file name keyed by the SHA-256 of the source,
the flags and the machine; the compiler writes a temporary file that is
then renamed into place.  A compiler that fails raises
:class:`RuntimeError`.

Split search, ``best_split``, is one numpy function on every host: the
trainer sorts each feature column once per fit, and the search scans all
features of a node in one pass over that order.  Tree inference,
``predict_margin``, is one plain Python walk for every caller; scoring
never builds or loads the library.
"""
from __future__ import annotations

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
# the pre-drawn negative token ids.  Negatives equal to the positive
# context are skipped.  Updates both matrices in place; returns the
# summed pair loss for diagnostics.


def count_pairs(offsets, window):
    """Number of (center, context) pairs one epoch over these sentences visits."""
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    # a sentence of n tokens has 2 * (n - d) ordered pairs at each distance d <= reach
    window = min(int(window), int(lengths.max(initial=0)))
    reach = np.clip(np.minimum(window, lengths - 1), 0, None)
    return int((reach * (2 * lengths - reach - 1)).sum())


def _sgns_epoch_numpy(ids, offsets, vin, vout, negatives, window, lr0, lr_floor, pair_base, total_pairs):
    k = negatives.shape[1]
    pair = 0
    loss = 0.0
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

                # float64 running sum of float32 products, one product at a time
                score = float(np.add.accumulate((vout[context] * v).astype(np.float64))[-1])
                # sigmoid and softplus in overflow-safe form
                if score >= 0.0:
                    sig = 1.0 / (1.0 + math.exp(-score))
                    loss += math.log1p(math.exp(-score))
                else:
                    e = math.exp(score)
                    sig = e / (1.0 + e)
                    loss += math.log1p(e) - score
                g = np.float32((1.0 - sig) * lr)
                grad_v += g * vout[context]
                vout[context] += g * v

                for n in range(k):
                    target = negatives[pair, n]
                    if target == context:
                        continue
                    score = float(np.add.accumulate((vout[target] * v).astype(np.float64))[-1])
                    if score >= 0.0:
                        e = math.exp(-score)
                        sig = 1.0 / (1.0 + e)
                        loss += math.log1p(e) + score
                    else:
                        e = math.exp(score)
                        sig = e / (1.0 + e)
                        loss += math.log1p(e)
                    g = np.float32(-sig * lr)
                    grad_v += g * vout[target]
                    vout[target] += g * v

                vin[center] += grad_v
                pair += 1
    return loss


# --------------------------------------------------------------------------
# gradient-boosted tree split search
#
# Exact greedy search over all features and all midpoints between
# consecutive distinct sorted values.  Gain for a candidate split:
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
    return f, float((xs[f, i] + xs[f, i + 1]) / 2.0), float(gains[f, i])


# --------------------------------------------------------------------------
# boosted-tree inference
#
# A forest is one tuple per tree of its node columns as lists, in the
# order of ``gbdt._NODE``: (features, thresholds, lefts, rights, values);
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
# and layout (``_array``), shapes, and that every index the kernel follows
# (token ids, negatives) is in range.

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LDLIBS = ("-lm",)


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


def _native():
    """The loaded library, built first when this source has no cached build."""
    global _lib
    if _lib is None:
        with _lib_lock:
            if _lib is None:
                path = _library_path()
                if not os.path.exists(path):
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
        raise MemoryError("native skip-gram epoch could not allocate its gradient buffer")
    return loss.value


# --------------------------------------------------------------------------
# backend binding

sgns_epoch = _sgns_epoch_native if BACKEND == "native" else _sgns_epoch_numpy
