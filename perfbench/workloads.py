"""The three workloads: ``train``, ``detect`` and ``ship``.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`.  End-to-end metrics are measured the same way traced
or not; a traced run also returns the per-layer metrics.  Every check
that fails is appended to ``Outcome.errors``.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import inputs
from loadgen import median, tail
from procs import Child, HERE, cpu_seconds, launcher_argv, memlog_argv, run_to_end, start_server
from tracing import detect_ms_by_request, layer_metrics, load_spans

SETUP_REPEATS = 5
TRAIN_LOGS = 200
DETECT_POOL = 200
SHIP_FILES = 64
CLIENT_CONNECTIONS = 2
REPORT_KEYS = ("acc", "ppv", "tpr", "fpr", "fnr", "f1", "auc", "confusion")

E2E_METRICS = {"setup_s": "s", "latency_ms": "ms", "logs_per_s": "logs/s", "peak_rss_mb": "MB", "auc": "1"}


def _layer_unit(name: str) -> str:
    words = name.split(".", 1)[1].split("_")
    for word, unit in (("ms", "ms"), ("ns", "ns"), ("mb", "MB"), ("pct", "%"),
                       ("ratio", "1"), ("share", "1"), ("util", "1")):
        if word in words:
            return unit
    return "count"


LAYER_METRICS = {name: _layer_unit(name) for name in (
    *layer_metrics([]),
    "service.http_ms", "service.cpu_ms_per_req", "service.threads_peak",
    "service.requests_2xx", "service.requests_4xx", "service.requests_5xx",
    "agent.ms_per_file", "agent.cpu_ms_per_file", "agent.retries", "agent.rejected", "agent.peak_rss_mb",
    "client.late_ms_p99", "client.cpu_util", "trainer.cpu_util", "trace.overhead_pct",
)}


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    workdir: Path
    slo_ms: float
    ref_rps: float
    ladder_start: float
    ladder_factor: float
    ladder_refine: int
    children: list = field(default_factory=list)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def track(self, child: Child) -> Child:
        self.children.append(child)
        return child

    def stop_all(self) -> None:
        for child in self.children:
            child.stop()


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def auc(labels: list[int], scores: list[float]) -> float:
    """Probability that a malicious log outscores a benign one (ties count half)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = sorted(s for s, y in zip(scores, labels) if y == 0)
    if not pos or not neg:
        return float("nan")
    wins = sum(bisect.bisect_left(neg, s) + bisect.bisect_right(neg, s) for s in pos) / 2.0
    return wins / (len(pos) * len(neg))


def _expected_scores(embeddings: str, model: str, bodies: list[bytes]) -> list[float]:
    """In-process ``DetectorService.detect`` scores on the same model files."""
    from memlog.service import load_detector

    detector = load_detector(embeddings, model)
    return [detector.detect(body).score for body in bodies]


def _start_servers(ctx: Context, out: Outcome, embeddings: str, model: str, audit=None):
    """Launch the server SETUP_REPEATS times; keep the last one running.

    Untraced runs use ``memlog serve``; traced runs use the benchmark's
    launcher, which writes spans and request counts when stopped.
    """
    setups = []
    for k in range(SETUP_REPEATS):
        if ctx.traced:
            argv = launcher_argv("serve", "--trace-out", str(ctx.path(f"spans{k}.json")),
                                 "--status-out", str(ctx.path(f"status{k}.json")),
                                 "--embeddings", embeddings, "--model", model)
        else:
            argv = memlog_argv("serve", "--bind", "127.0.0.1:0", "--embeddings", embeddings,
                               "--model", model)
        if audit is not None:
            argv += ["--audit", str(audit)]
        server, url, setup_s = start_server(argv, ctx.path(f"serve{k}"))
        ctx.track(server)
        setups.append(setup_s)
        if k < SETUP_REPEATS - 1:
            out.check(server.stop() == 0, f"server launch {k} did not stop cleanly")
    out.e2e["setup_s"] = median(setups)
    return server, url, k


def _server_layers(ctx: Context, out: Outcome, server: Child, k: int) -> list:
    """Stop the traced server and fold its spans into the per-layer metrics."""
    out.check(server.stop() == 0, "server did not stop cleanly")
    spans = load_spans(ctx.path(f"spans{k}.json"))
    out.layers.update(layer_metrics(spans))
    with open(ctx.path(f"status{k}.json")) as fh:
        statuses = json.load(fh)
    for klass in ("2", "4", "5"):
        out.layers[f"service.requests_{klass}xx"] = float(
            sum(n for key, n in statuses.items() if key.split()[-1].startswith(klass)))
    out.layers["service.threads_peak"] = float(server.threads_peak)
    out.detail["requests_by_status"] = statuses
    return spans


# --------------------------------------------------------------------------
# train


def train(ctx: Context) -> Outcome:
    out = Outcome()
    corpus = ctx.path("corpus")
    setups = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(corpus, ignore_errors=True)
        args = inputs.gen_args(corpus, TRAIN_LOGS, ctx.seed)
        if ctx.traced:
            argv = launcher_argv("cli", "--timing-out", str(ctx.path("gen.json")),
                                 "--trace-out", str(ctx.path("gen-spans.json")), "--", *args)
        else:
            argv = memlog_argv(*args)
        setups.append(run_to_end(argv, ctx.path(f"gen{k}"), 170).wall_s)
    out.e2e["setup_s"] = median(setups)

    walls, peaks, utils, reports = [], [], [], []
    started = time.perf_counter()
    while True:
        job = len(walls)
        emb, mdl = ctx.path(f"emb{job}.mleb"), ctx.path(f"mdl{job}.mlgb")
        timing = ctx.path(f"train{job}.json")
        trace = ["--trace-out", str(ctx.path("train-spans.json"))] if ctx.traced else []
        child = ctx.track(Child(launcher_argv(
            "cli", "--timing-out", str(timing), *trace, "--",
            "train", "--corpus", str(corpus), "--embeddings-out", str(emb),
            "--model-out", str(mdl), "--seed", str(ctx.seed)), ctx.path(f"train{job}")))
        out.attempted += 1
        if child.wait(170) != 0:
            out.failed += 1
            out.errors.append(f"memlog train exited {child.proc.returncode}: {child.stderr_text()[-500:]}")
            break
        with open(timing) as fh:
            walls.append(json.load(fh)["wall_s"])
        peaks.append(child.peak_mb)
        utils.append(child.cpu_s / child.wall_s)
        reports.append(json.loads(child.stdout_text().strip().splitlines()[-1]))
        # at least two jobs: one job is one sample of a host whose speed drifts
        if ctx.traced or (len(walls) >= 2 and time.perf_counter() - started >= ctx.seconds):
            break
    if not walls:
        return out

    report = reports[0]
    out.check(all(r == report for r in reports), "train reports differ between identical jobs")
    _check_train_outputs(ctx, out, corpus, report, len(walls))
    out.e2e.update(
        latency_ms=1000.0 * median(walls),
        logs_per_s=TRAIN_LOGS / median(walls),
        peak_rss_mb=median(peaks),
        auc=report.get("auc") or 0.0,
    )
    out.detail.update(train_s=median(walls), val_auc=report.get("auc"), job_walls=walls,
                      corpus_logs=TRAIN_LOGS, report=report)
    if ctx.traced:
        out.layers.update(layer_metrics(load_spans(ctx.path("train-spans.json"))))
        generate = layer_metrics(load_spans(ctx.path("gen-spans.json")))["synthgen.generate_ms"]
        out.layers["synthgen.generate_ms"] = generate
        out.layers["trainer.cpu_util"] = median(utils)
    return out


def _check_train_outputs(ctx: Context, out: Outcome, corpus: Path, report: dict, jobs: int) -> None:
    """The report is complete, and the saved models reload to what was written."""
    import numpy as np

    from memlog.embedding import load_embeddings, save_embeddings
    from memlog.evaluation import SplitSpec, holdout_split
    from memlog.gbdt import load_model, predict, save_model
    from memlog.synthgen import read_corpus
    from memlog.vectorizer import vectorize_corpus

    missing = [key for key in REPORT_KEYS if report.get(key) is None]
    out.check(not missing, f"train report lacks {missing}")
    emb_path, mdl_path = ctx.path("emb0.mleb"), ctx.path("mdl0.mlgb")
    for job in range(1, jobs):
        out.check(ctx.path(f"emb{job}.mleb").read_bytes() == emb_path.read_bytes()
                  and ctx.path(f"mdl{job}.mlgb").read_bytes() == mdl_path.read_bytes(),
                  "repeated train jobs wrote different model files")
    embeddings, model = load_embeddings(str(emb_path)), load_model(str(mdl_path))
    save_embeddings(embeddings, str(ctx.path("emb-resaved.mleb")))
    save_model(model, str(ctx.path("mdl-resaved.mlgb")))
    out.check(ctx.path("emb-resaved.mleb").read_bytes() == emb_path.read_bytes(),
              "embeddings do not reload to the bytes written")
    out.check(ctx.path("mdl-resaved.mlgb").read_bytes() == mdl_path.read_bytes(),
              "model does not reload to the bytes written")
    X, y = vectorize_corpus(read_corpus(str(corpus)), embeddings)
    _, test = holdout_split(y, SplitSpec(train_malicious_fraction=0.70, shuffle_seed=ctx.seed))
    scores = predict(model, X[test])
    recomputed = auc([int(v) for v in y[test]], [float(s) for s in np.asarray(scores)])
    out.check(report.get("auc") is not None and abs(recomputed - report["auc"]) < 1e-12,
              f"reloaded models give validation AUC {recomputed}, report says {report.get('auc')}")
    confusion = report.get("confusion") or {}
    out.check(sum(confusion.values()) == len(test), "confusion matrix does not cover the validation split")


# --------------------------------------------------------------------------
# detect


def detect(ctx: Context) -> Outcome:
    out = Outcome()
    embeddings, model = inputs.ensure_fixture()
    bodies, labels = inputs.detect_pool(DETECT_POOL, ctx.seed)
    expected = _expected_scores(embeddings, model, [b.encode("utf-8") for b in bodies])
    with open(ctx.path("bodies.json"), "w") as fh:
        json.dump(bodies, fh)
    server, url, k = _start_servers(ctx, out, embeddings, model)

    config = {
        "url": url, "bodies": str(ctx.path("bodies.json")),
        "order": inputs.request_order(DETECT_POOL, 20 * DETECT_POOL, ctx.seed),
        "connections": CLIENT_CONNECTIONS, "timeout_s": 10.0, "limit_ms": ctx.slo_ms,
        "ref_rate": ctx.ref_rps, "ref_seconds": ctx.seconds / 3.0,
        "ladder_start": ctx.ladder_start, "ladder_factor": ctx.ladder_factor,
        "ladder_refine": ctx.ladder_refine, "ladder_step_s": ctx.seconds * 0.05,
        "ladder_pause_s": 0.25, "ladder_max_steps": 60,
    }
    with open(ctx.path("load.json"), "w") as fh:
        json.dump(config, fh)
    cpu0 = cpu_seconds(server.pid)
    run_to_end([sys.executable, str(HERE / "loadgen.py"), str(ctx.path("load.json")),
                str(ctx.path("load-result.json"))], ctx.path("loadgen"), 170)
    server_cpu_s = cpu_seconds(server.pid) - cpu0
    with open(ctx.path("load-result.json")) as fh:
        load = json.load(fh)
    out.e2e["peak_rss_mb"] = server.peak_mb

    reference, ladder = load["reference"], load["ladder"]
    records = reference + load["ladder_records"]
    out.attempted = len(records)
    out.failed = sum(1 for r in records if r[5] != 200)
    wrong = [r[0] for r in records if r[5] == 200 and r[6] != expected[r[1]]]
    out.check(not wrong, f"{len(wrong)} HTTP scores differ from DetectorService.detect, e.g. {wrong[:3]}")
    out.check(all(r[5] == 200 for r in reference), "requests failed at the reference rate")
    out.check(max(load["connections"], load["threads_peak"]) <= (os.cpu_count() or 1),
              "load generator used more threads or connections than cores")

    served = {}
    for r in records:
        if r[5] == 200:
            served.setdefault(r[1], r[6])
    latencies = [r[3] for r in reference if r[5] == 200]
    pct, tail_ms = tail(latencies)
    passed = load["max_rps_at_slo"]
    late_pct, late_ms = tail([r[2] for r in reference])
    out.e2e.update(
        latency_ms=median(latencies),
        logs_per_s=passed,
        auc=auc([labels[i] for i in served], list(served.values())),
    )
    out.detail.update(
        detect_p50_ms=median(latencies), detect_tail_ms=tail_ms, detect_tail_pct=pct,
        reference_requests=len(reference), reference_rps=ctx.ref_rps, max_rps_at_slo=passed,
        slo_ms=ctx.slo_ms, ladder=[{k: s[k] for k in ("rate", "tail_ms", "end_late_ms", "ok")} for s in ladder],
        client_connections=load["connections"], client_threads=load["threads_peak"],
        client_late_pct=late_pct,
    )
    out.layers.update({
        "client.late_ms_p99": late_ms,
        "client.cpu_util": load["cpu_s"] / load["wall_s"],
        "service.cpu_ms_per_req": 1000.0 * server_cpu_s / max(1, len(records)),
    })
    if ctx.traced:
        spans = _server_layers(ctx, out, server, k)
        detect_ms = detect_ms_by_request(spans)
        http = [r[4] - detect_ms[r[0]] for r in records if r[0] in detect_ms]
        out.layers["service.http_ms"] = median(http)
    else:
        out.check(server.stop() == 0, "server did not stop cleanly")
    return out


# --------------------------------------------------------------------------
# ship


def _cycle_times_ms(audit_lines: list[str]) -> list[float]:
    stamps = [datetime.fromisoformat(json.loads(line)["ts"]) for line in audit_lines]
    return [1000.0 * (b - a).total_seconds() for a, b in zip(stamps, stamps[1:])]


def ship(ctx: Context) -> Outcome:
    out = Outcome()
    embeddings, model = inputs.ensure_fixture()
    pool = inputs.ship_pool(SHIP_FILES, ctx.seed)
    names = [f"log_{i:03d}.json" for i in range(len(pool))]
    valid = {name: i for i, (name, (_, label)) in enumerate(zip(names, pool)) if label is not None}
    malformed = sorted(set(names) - set(valid))
    expected = dict(zip(valid, _expected_scores(embeddings, model, [pool[i][0] for i in valid.values()])))
    audit = ctx.path("audit.jsonl")
    server, url, k = _start_servers(ctx, out, embeddings, model, audit)

    rates, agent_peaks, agent_ms, agent_cpu_ms, cycles = [], [], [], [], []
    audit_seen = len(audit.read_text().splitlines()) if audit.exists() else 0
    first_scores = None
    cpu0 = cpu_seconds(server.pid)
    started = time.perf_counter()
    while len(rates) < 2 or time.perf_counter() - started < ctx.seconds:
        watch = ctx.path(f"watch{len(rates)}")
        watch.mkdir()
        for name, (body, _) in zip(names, pool):
            (watch / name).write_bytes(body)
        agent = ctx.track(Child(memlog_argv("agent", "--watch", str(watch), "--server", url, "--drain"),
                                ctx.path(f"agent{len(rates)}")))
        out.attempted += len(names)
        if agent.wait(170) != 0:
            out.failed += len(names)
            out.errors.append(f"agent exited {agent.proc.returncode}: {agent.stderr_text()[-500:]}")
            break
        rates.append(len(names) / agent.wall_s)
        agent_peaks.append(agent.peak_mb)
        agent_ms.append(1000.0 * agent.wall_s / len(names))
        agent_cpu_ms.append(1000.0 * agent.cpu_s / len(names))
        scores = _check_ship_round(out, watch, valid, malformed, expected)
        first_scores = first_scores or scores
        lines = audit.read_text().splitlines()
        cycles += _cycle_times_ms(lines[audit_seen:])
        out.check(len(lines) - audit_seen == len(valid), "audit lines do not match the valid files")
        audit_seen = len(lines)
        shutil.rmtree(watch)
    server_cpu_s = cpu_seconds(server.pid) - cpu0
    if not rates:
        return out

    out.e2e.update(
        latency_ms=median(cycles),
        logs_per_s=median(rates),
        peak_rss_mb=server.peak_mb,
        auc=auc([pool[valid[n]][1] for n in first_scores], list(first_scores.values())),
    )
    out.detail.update(
        ship_logs_per_s=median(rates), agent_peak_rss_mb=max(agent_peaks), round_rates=rates,
        files_per_round=len(names), malformed_per_round=len(malformed),
        mean_file_kb=sum(len(b) for b, _ in pool) / len(pool) / 1024.0,
    )
    out.layers.update({
        "agent.ms_per_file": median(agent_ms),
        "agent.cpu_ms_per_file": median(agent_cpu_ms),
        "agent.rejected": float(len(malformed) * len(rates)),
        "agent.peak_rss_mb": max(agent_peaks),
        "service.cpu_ms_per_req": 1000.0 * server_cpu_s / (len(names) * len(rates)),
    })
    if ctx.traced:
        _server_layers(ctx, out, server, k)
        posts = sum(n for key, n in out.detail["requests_by_status"].items() if key.startswith("POST /v1/detect"))
        out.layers["agent.retries"] = float(posts - len(names) * len(rates))
    else:
        out.check(server.stop() == 0, "server did not stop cleanly")
    return out


def _check_ship_round(out: Outcome, watch: Path, valid: dict, malformed: list, expected: dict) -> dict:
    """Every file lands exactly once; returns the scores the agent recorded."""
    processed = sorted(os.listdir(watch / "processed"))
    failed = sorted(os.listdir(watch / "failed"))
    left = sorted(n for n in os.listdir(watch) if n.endswith(".json"))
    out.failed += len(set(valid) - set(processed)) + len(set(malformed) - set(failed))
    out.check(processed == sorted(valid), f"processed/ holds {processed[:5]}..., expected the valid logs")
    out.check(failed == malformed, f"failed/ holds {failed}, expected {malformed}")
    out.check(not left, f"files left in the watch directory: {left[:5]}")
    records = [json.loads(line) for line in (watch / "detections.jsonl").read_text().splitlines()]
    scores = {r["file"]: r.get("score") for r in records}
    out.check(len(records) == len(valid) and set(scores) == set(valid),
              "detections.jsonl does not hold exactly one line per valid log")
    wrong = [name for name, score in scores.items() if score != expected.get(name, math.nan)]
    out.check(not wrong, f"recorded scores differ from in-process scoring: {wrong[:5]}")
    return scores
