"""Endpoint log shipper: watch a directory, POST each file, record verdicts.

Single-threaded by contract and deliberately stdlib-only: the process
must stay under a 25 MB resident-memory ceiling and one logical core,
which rules out numeric imports.  Files are dispatched exactly once:
success moves them to ``processed/``, permanent rejection or exhausted
retries to ``failed/``.  Verdicts append to ``detections.jsonl`` in the
watch directory, one JSON object per line with the source filename.

Retryable failures (connection errors, 5xx) back off exponentially:
backoff_base_ms * 2^(attempt-1) between attempts.  4xx responses are
permanent; the file is quarantined without retry.
"""
from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .errors import WatchDirMissing

logger = logging.getLogger(__name__)

RESULTS_FILENAME = "detections.jsonl"
PROCESSED_DIRNAME = "processed"
FAILED_DIRNAME = "failed"
#: Suffixes for files still being written by the producer; skipped.
_SKIP_SUFFIXES = (".part", ".tmp")
_MAX_ERROR_BODY = 65536
#: Seconds a POST may wait on the connect or on any one socket read.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class AgentConfig:
    watch_dir: str
    server_url: str
    poll_interval_ms: int = 500
    max_attempts: int = 3
    backoff_base_ms: int = 100
    drain: bool = False


def resolve_server(flag_value: str) -> str:
    """MEMLOG_SERVER overrides the --server flag when set."""
    return os.environ.get("MEMLOG_SERVER") or flag_value


class _Outcome:
    OK = "ok"
    PERMANENT = "permanent"
    RETRYABLE = "retryable"


def _post_once(endpoint: str, body: bytes) -> tuple[str, dict]:
    """One POST attempt; returns (outcome, response payload)."""
    request = urllib.request.Request(
        endpoint,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            payload = json.loads(response.read(_MAX_ERROR_BODY))
            if not isinstance(payload, dict):
                raise ValueError("response is not a JSON object")
            return _Outcome.OK, payload
    except urllib.error.HTTPError as exc:
        detail = exc.read(_MAX_ERROR_BODY).decode("utf-8", "replace")
        if 400 <= exc.code < 500:
            return _Outcome.PERMANENT, {"status": exc.code, "detail": detail}
        return _Outcome.RETRYABLE, {"status": exc.code, "detail": detail}
    except (urllib.error.URLError, TimeoutError, ConnectionError, ValueError) as exc:
        return _Outcome.RETRYABLE, {"detail": str(exc)}


class Agent:
    def __init__(self, config: AgentConfig):
        if not os.path.isdir(config.watch_dir):
            raise WatchDirMissing(f"watch directory does not exist: {config.watch_dir}")
        self.config = config
        self.endpoint = config.server_url.rstrip("/") + "/v1/detect"
        self.watch_dir = config.watch_dir
        self.processed_dir = os.path.join(config.watch_dir, PROCESSED_DIRNAME)
        self.failed_dir = os.path.join(config.watch_dir, FAILED_DIRNAME)
        self.results_path = os.path.join(config.watch_dir, RESULTS_FILENAME)
        os.makedirs(self.processed_dir, exist_ok=True)
        os.makedirs(self.failed_dir, exist_ok=True)
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def _pending_files(self) -> list[str]:
        names = []
        with os.scandir(self.watch_dir) as entries:
            for entry in entries:
                if not entry.is_file(follow_symlinks=False):
                    continue
                name = entry.name
                if name == RESULTS_FILENAME or name.startswith("."):
                    continue
                if name.endswith(_SKIP_SUFFIXES):
                    continue
                names.append(name)
        names.sort()
        return names

    def _move(self, name: str, target_dir: str) -> None:
        source = os.path.join(self.watch_dir, name)
        target = os.path.join(target_dir, name)
        stem, ext = os.path.splitext(name)
        counter = 1
        while os.path.exists(target):
            target = os.path.join(target_dir, f"{stem}.{counter}{ext}")
            counter += 1
        os.replace(source, target)

    def _record(self, name: str, payload: dict) -> None:
        record = {"file": name}
        record.update(payload)
        with open(self.results_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _dispatch(self, name: str) -> None:
        path = os.path.join(self.watch_dir, name)
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except OSError as exc:
            logger.warning("unreadable file %s: %s", name, exc)
            try:
                self._move(name, self.failed_dir)
            except OSError:
                logger.exception("cannot quarantine %s", name)
            return

        config = self.config
        for attempt in range(1, config.max_attempts + 1):
            outcome, payload = _post_once(self.endpoint, body)
            if outcome == _Outcome.OK:
                self._record(name, payload)
                self._move(name, self.processed_dir)
                return
            if outcome == _Outcome.PERMANENT:
                logger.warning("rejected %s: %s", name, payload)
                self._move(name, self.failed_dir)
                return
            if attempt < config.max_attempts and not self._stop.is_set():
                delay_s = config.backoff_base_ms * (2 ** (attempt - 1)) / 1000.0
                time.sleep(delay_s)
        logger.warning("gave up on %s after %d attempts", name, config.max_attempts)
        self._move(name, self.failed_dir)

    def run(self) -> None:
        """Poll until stopped; with drain=True, exit once the backlog clears."""
        poll_s = self.config.poll_interval_ms / 1000.0
        while not self._stop.is_set():
            pending = self._pending_files()
            for name in pending:
                if self._stop.is_set():
                    return
                self._dispatch(name)
            if not pending:
                if self.config.drain:
                    return
                self._stop.wait(poll_s)


def run_agent(config: AgentConfig) -> None:
    """Build an Agent, wire SIGTERM/SIGINT to a clean stop, and run it."""
    agent = Agent(config)

    def _handle(signum, frame) -> None:
        agent.stop()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _handle)
    try:
        agent.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
