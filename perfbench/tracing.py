"""Spans recorded around calls into memlog's layers, from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers under
the name the caller looks them up by (``memlog.service.parse_log``, not
``memlog.logmodel.parse_log``), so no code in ``src/`` changes.  Each
span is ``(id, parent, name, start, end, request_id, counts)``; spans
stay in memory and are written out once, at exit.  A span's parent is
the innermost open span on the same thread, and it inherits that
parent's request id.

:func:`layer_metrics` turns spans into the per-layer metrics.  Times are
inclusive means per call unless the name says ``self``: a span's self
time is the part of its duration that none of its children covers.
"""
from __future__ import annotations

import functools
import itertools
import json
import logging
import re
import threading
import time
from collections import defaultdict


def _coverage_oov(args, result):
    coverage = result.coverage
    return {"oov": 1.0 - float(coverage.mean()) if coverage.size else 0.0}


def _nodes(args, result):
    return {"nodes": sum(tree.node_count for tree in result.trees)}


def _split_counts(args, result):
    X = args[0]
    return {"cells": int(X.shape[0]) * int(X.shape[1]), "hit": int(result[0] >= 0)}


def _detect_request_id(args, kwargs):
    return kwargs.get("request_id", args[2] if len(args) > 2 else "")


# (module, attribute, span name, counts(args, result) -> dict).  The same
# function reached through two modules gets one wrapper per binding.
_FUNCTIONS = (
    ("memlog.synthgen", "generate_corpus", "synthgen.generate", None),
    ("memlog.synthgen", "read_corpus", "synthgen.read_corpus", None),
    ("memlog.synthgen", "parse_log", "logmodel.parse_log", lambda a, r: {"bytes": len(a[0])}),
    ("memlog.service", "parse_log", "logmodel.parse_log", lambda a, r: {"bytes": len(a[0])}),
    ("memlog.tokenizer", "tokenize", "tokenizer.tokenize", lambda a, r: {"tokens": r.total_tokens()}),
    ("memlog.vectorizer", "tokenize", "tokenizer.tokenize", lambda a, r: {"tokens": r.total_tokens()}),
    ("memlog.service", "tokenize", "tokenizer.tokenize", lambda a, r: {"tokens": r.total_tokens()}),
    ("memlog.vectorizer", "vectorize_log", "vectorizer.vectorize_log", _coverage_oov),
    ("memlog.service", "vectorize_log", "vectorizer.vectorize_log", _coverage_oov),
    ("memlog.embedding", "build_vocab", "embedding.build_vocab", lambda a, r: {"vocab": len(r)}),
    ("memlog.embedding", "train_embeddings", "embedding.train_embeddings", None),
    ("memlog.service", "load_embeddings", "embedding.load", None),
    ("memlog.kernels", "sgns_epoch", "kernels.sgns_epoch", lambda a, r: {"pairs": int(a[4].shape[0])}),
    ("memlog.kernels", "best_split", "kernels.best_split", _split_counts),
    ("memlog.kernels", "predict_margin", "kernels.predict_margin", None),
    ("memlog.gbdt", "train_classifier", "gbdt.train_classifier", _nodes),
    ("memlog.service", "predict_one", "gbdt.predict_one", None),
    ("memlog.service", "load_model", "gbdt.load_model", None),
    ("memlog.evaluation", "roc_auc", "evaluation.roc_auc", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, counts=None, request_id_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent, request_id = stack[-1] if stack else (0, "")
            if request_id_of is not None:
                request_id = request_id_of(args, kwargs) or request_id
            span_id = next(tracer._ids)
            stack.append((span_id, request_id))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counts(args, result) if counts is not None and result is not None else None
                tracer.spans.append((span_id, parent, name, start, end, request_id, extra))

        return traced

    def install(self) -> None:
        """Wrap every traced function of memlog (imports the whole package)."""
        import importlib

        from memlog.gbdt import GbdtModel
        from memlog.service import DetectorService

        for module_name, attribute, name, counts in _FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attribute, self.wrap(getattr(module, attribute), name, counts))
        DetectorService.detect = self.wrap(
            DetectorService.detect, "service.detect", request_id_of=_detect_request_id
        )
        version = GbdtModel.__dict__["version"]
        GbdtModel.version = property(self.wrap(version.fget, "gbdt.version"))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


_REQUEST_LINE_RE = re.compile(r'"(\w+) (\S+) [^"]*" (\d{3})')


class StatusCounter(logging.Handler):
    """Counts served requests by method, path and status from the service's request log."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts: dict[str, int] = defaultdict(int)
        self._guard = threading.Lock()

    def emit(self, record: logging.LogRecord) -> None:
        match = _REQUEST_LINE_RE.search(record.getMessage())
        if match:
            with self._guard:
                self.counts[" ".join(match.groups())] += 1

    def attach(self, logger_name: str = "memlog.service") -> None:
        logger = logging.getLogger(logger_name)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(self)


# --------------------------------------------------------------------------
# summaries


def load_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> seconds of the span not covered by any of its children."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    own = {}
    for span in spans:
        covered, reach = 0.0, span[3]
        for start, end in sorted(children[span[0]]):
            start, end = max(start, reach), min(end, span[4])
            if end > start:
                covered += end - start
                reach = end
        own[span[0]] = span[4] - span[3] - covered
    return own


def _by_name(spans):
    groups = defaultdict(list)
    for span in spans:
        groups[span[2]].append(span)
    return groups


def _mean_ms(group) -> float:
    return 1000.0 * sum(s[4] - s[3] for s in group) / len(group) if group else 0.0


def _total(group, key) -> float:
    return float(sum((s[6] or {}).get(key, 0) for s in group))


def _mean(group, key) -> float:
    return _total(group, key) / len(group) if group else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from one process's spans; 0 for layers never reached."""
    g = _by_name(spans)
    own = self_times(spans)
    detect = g["service.detect"]
    sgns, split = g["kernels.sgns_epoch"], g["kernels.best_split"]
    pairs = _total(sgns, "pairs")
    return {
        "logmodel.parse_log_ms": _mean_ms(g["logmodel.parse_log"]),
        "logmodel.bytes_parsed": _total(g["logmodel.parse_log"], "bytes"),
        "tokenizer.tokenize_ms": _mean_ms(g["tokenizer.tokenize"]),
        "tokenizer.tokens": _total(g["tokenizer.tokenize"], "tokens"),
        "embedding.train_embeddings_ms": _mean_ms(g["embedding.train_embeddings"]),
        "embedding.build_vocab_ms": _mean_ms(g["embedding.build_vocab"]),
        "embedding.vocab_size": _mean(g["embedding.build_vocab"], "vocab"),
        "embedding.load_ms": _mean_ms(g["embedding.load"]),
        "kernels.sgns_epoch_ms": _mean_ms(sgns),
        "kernels.sgns_pairs": pairs,
        "kernels.sgns_ns_per_pair": 1e9 * sum(s[4] - s[3] for s in sgns) / pairs if pairs else 0.0,
        "kernels.best_split_calls": float(len(split)),
        "kernels.best_split_ms": _mean_ms(split),
        "kernels.best_split_cells": _total(split, "cells"),
        "kernels.best_split_hit_ratio": _mean(split, "hit"),
        "kernels.predict_margin_calls": float(len(g["kernels.predict_margin"])),
        "kernels.predict_margin_ms": _mean_ms(g["kernels.predict_margin"]),
        "vectorizer.vectorize_ms": _mean_ms(g["vectorizer.vectorize_log"]),
        "vectorizer.oov_share": _mean(g["vectorizer.vectorize_log"], "oov"),
        "gbdt.train_classifier_ms": _mean_ms(g["gbdt.train_classifier"]),
        "gbdt.nodes": _mean(g["gbdt.train_classifier"], "nodes"),
        "gbdt.predict_one_ms": _mean_ms(g["gbdt.predict_one"]),
        "gbdt.version_ms": _mean_ms(g["gbdt.version"]),
        "gbdt.version_calls": float(len(g["gbdt.version"])),
        "gbdt.load_model_ms": _mean_ms(g["gbdt.load_model"]),
        "synthgen.generate_ms": _mean_ms(g["synthgen.generate"]),
        "synthgen.read_corpus_ms": _mean_ms(g["synthgen.read_corpus"]),
        "evaluation.roc_auc_ms": _mean_ms(g["evaluation.roc_auc"]),
        "service.detect_ms": _mean_ms(detect),
        "service.detect_self_ms": 1000.0 * sum(own[s[0]] for s in detect) / len(detect) if detect else 0.0,
    }


def detect_ms_by_request(spans: list[tuple]) -> dict[str, float]:
    return {s[5]: 1000.0 * (s[4] - s[3]) for s in spans if s[2] == "service.detect" and s[5]}
