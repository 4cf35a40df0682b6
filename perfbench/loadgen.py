"""Open-loop HTTP load generator for ``POST /v1/detect`` (stdlib only).

  python3 loadgen.py CONFIG.json RESULT.json

Request i of a phase is due at ``start + i / rate`` whatever happened to
earlier requests.  At most ``connections`` keep-alive connections (never
more than the machine has cores) send them, one thread each; a request
that finds every connection busy waits, and its latency is timed from
when it was due, so a stall is charged to every request behind it.

A reference phase runs at a fixed rate, half of it before the ladder and
half after, so that it samples the machine at two times.  The ladder of
rates, each ``factor`` times the last and open-ended upward, runs until
a step misses the latency limit twice in a row: its tail latency exceeds the
limit, a request fails, or the generator ends the step further behind
schedule than the limit (a growing backlog).  The second try keeps one
stall of the machine from ending the climb.  Last, ``refine`` bisection
steps between the highest rate that met the limit and the one that did
not narrow the capacity down below the ladder's step.
"""
from __future__ import annotations

import http.client
import json
import math
import os
import sys
import threading
import time
from urllib.parse import urlsplit


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, at most p99, with ten samples beyond it."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    q = min(0.99, (n - 10) / n)
    return 100.0 * q, ordered[max(0, math.ceil(q * n) - 1)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class Generator:
    def __init__(self, config: dict):
        parts = urlsplit(config["url"])
        self.host, self.port = parts.hostname, parts.port
        with open(config["bodies"]) as fh:
            self.bodies = [body.encode("utf-8") for body in json.load(fh)]
        self.order = config["order"]
        self.connections = max(1, min(config["connections"], os.cpu_count() or 1))
        self.timeout_s = config["timeout_s"]
        self.sent = 0
        self.threads_peak = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)

    def phase(self, name: str, rate: float, seconds: float, conns: list) -> list[list]:
        """Run one open-loop phase; one record per request.

        A record is [request id, body index, late ms, latency ms from due,
        latency ms from send, HTTP status (0 = no response), score].
        """
        n = max(1, round(rate * seconds))
        records: list = [None] * n
        next_index = [0]
        guard = threading.Lock()
        start = time.perf_counter() + 0.005
        offset = self.sent
        self.sent += n

        def worker(slot: int) -> None:
            while True:
                with guard:
                    i = next_index[0]
                    next_index[0] += 1
                if i >= n:
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                body_index = self.order[(offset + i) % len(self.order)]
                request_id = f"{name}-{i}"
                status, score = 0, None
                sent = time.perf_counter()
                try:
                    conns[slot].request("POST", "/v1/detect", body=self.bodies[body_index],
                                        headers={"Content-Type": "application/json",
                                                 "X-Request-Id": request_id})
                    response = conns[slot].getresponse()
                    payload = response.read()
                    status = response.status
                    if status == 200:
                        score = json.loads(payload)["score"]
                except (OSError, http.client.HTTPException, ValueError, KeyError):
                    conns[slot].close()
                    conns[slot] = self._connect()
                done = time.perf_counter()
                records[i] = [request_id, body_index, 1000.0 * (sent - due),
                              1000.0 * (done - due), 1000.0 * (done - sent), status, score]

        # this thread serves the first connection, so threads == connections
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, len(conns))]
        for thread in threads:
            thread.start()
        self.threads_peak = max(self.threads_peak, threading.active_count())
        worker(0)
        for thread in threads:
            thread.join()
        return records


def step_summary(rate: float, records: list, limit_ms: float) -> dict:
    latencies = [r[3] if r[5] == 200 else math.inf for r in records]
    pct, tail_ms = tail(latencies)
    last = records[-max(1, len(records) // 10):]
    end_late_ms = median([r[2] for r in last])
    failed = sum(1 for r in records if r[5] != 200)
    return {
        "rate": rate, "requests": len(records), "failed": failed,
        "tail_pct": pct, "tail_ms": tail_ms, "end_late_ms": end_late_ms,
        "ok": failed == 0 and tail_ms <= limit_ms and end_late_ms <= limit_ms,
    }


def run(config: dict) -> dict:
    gen = Generator(config)
    conns = [gen._connect() for _ in range(gen.connections)]
    ladder, ladder_records = [], []

    def meets_limit(rate: float, name: str) -> bool:
        for attempt in range(2):
            time.sleep(config["ladder_pause_s"])
            records = gen.phase(f"{name}.{attempt}", rate, config["ladder_step_s"], conns)
            ladder_records.extend(records)
            ladder.append(step_summary(rate, records, config["limit_ms"]))
            if ladder[-1]["ok"]:
                return True
        return False

    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        half_s = config["ref_seconds"] / 2.0
        reference = gen.phase("ref0", config["ref_rate"], half_s, conns)
        passed, missed = 0.0, None
        rate = config["ladder_start"]
        for step in range(config["ladder_max_steps"]):
            if not meets_limit(rate, f"step{step}"):
                missed = rate
                break
            passed, rate = rate, round(rate * config["ladder_factor"], 1)
        for step in range(config["ladder_refine"] if passed and missed else 0):
            rate = round(math.sqrt(passed * missed), 1)
            if meets_limit(rate, f"refine{step}"):
                passed = rate
            else:
                missed = rate
        time.sleep(config["ladder_pause_s"])
        reference += gen.phase("ref1", config["ref_rate"], half_s, conns)
    finally:
        for conn in conns:
            conn.close()
    return {
        "connections": gen.connections,
        "threads_peak": gen.threads_peak,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "reference": reference,
        "max_rps_at_slo": passed,
        "ladder": ladder,
        "ladder_records": ladder_records,
    }


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        config = json.load(fh)
    result = run(config)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
