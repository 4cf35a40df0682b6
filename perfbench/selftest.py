"""Fast self-test of the benchmark at tiny sizes (about a minute on two cores).

  python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that every metric named in BENCHMARK.json is emitted with its
unit by every workload, traced and untraced; that on ``detect`` the self
times of a request's spans add up to its ``service.detect`` span; and
that a traced and an untraced run both complete with correct outputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from collections import defaultdict

import inputs
import run
import workloads
from procs import ROOT, SRC
from tracing import load_spans, self_times

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@contextlib.contextmanager
def tiny_sizes():
    saved = {(m, k): getattr(m, k) for m, k in (
        (workloads, "SETUP_REPEATS"), (workloads, "TRAIN_LOGS"), (workloads, "DETECT_POOL"),
        (workloads, "SHIP_FILES"), (inputs, "FIXTURE_LOGS"))}
    workloads.SETUP_REPEATS, workloads.TRAIN_LOGS, workloads.DETECT_POOL = 2, 24, 20
    workloads.SHIP_FILES, inputs.FIXTURE_LOGS = 16, 40
    try:
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


def argv(workload: str, trace: int) -> list[str]:
    return BENCHMARK["command"][2:] + ["--workload", workload, "--seed", "3", "--seconds", "2",
                                       "--trace", str(trace)]


def bench(workload: str, trace: int) -> dict:
    stdout = io.StringIO()
    with tiny_sizes(), contextlib.redirect_stdout(stdout):
        code = run.main(argv(workload, trace))
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"], f"{workload} trace={trace}: exit {code}, {result}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def test_every_metric_is_emitted_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in WORKLOADS:
            metrics = bench(workload, trace)["metrics"]
            assert set(metrics) == set(wanted), (workload, trace, set(metrics) ^ set(wanted))
            for name, unit in wanted.items():
                assert metrics[name]["unit"] == unit, (workload, name, metrics[name]["unit"])
                assert isinstance(metrics[name]["value"], float), (workload, name)


def test_detect_span_self_times_add_up():
    sys.path.insert(0, str(SRC))
    ctx = run.make_context(run.parse_args(argv("detect", 1)), traced=True, seconds=2)
    try:
        with tiny_sizes():
            outcome = workloads.detect(ctx)
            spans = load_spans(ctx.path(f"spans{workloads.SETUP_REPEATS - 1}.json"))
    finally:
        ctx.stop_all()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    assert not outcome.errors, outcome.errors
    own = self_times(spans)
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)

    def subtree_self(span) -> float:
        return own[span[0]] + sum(subtree_self(child) for child in children[span[0]])

    detects = [s for s in spans if s[2] == "service.detect"]
    assert detects, "no service.detect spans recorded"
    for span in detects:
        assert children[span[0]], "detect span has no child spans"
        duration = span[4] - span[3]
        assert abs(subtree_self(span) - duration) <= 1e-9 * max(1.0, duration), span
        for child in children[span[0]]:
            assert span[3] <= child[3] <= child[4] <= span[4], (span, child)
            assert child[5] == span[5], "child span lost the request id"


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted_with_its_unit, test_detect_span_self_times_add_up):
        test()
        print(f"ok {test.__name__}", flush=True)
