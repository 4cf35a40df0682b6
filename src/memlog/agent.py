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

A pass over the backlog keeps one HTTP/1.1 connection alive, from its
first file until the backlog is empty, so an idle agent holds no socket.
A new connection replaces it when the server closes it, a response body
is left unread, or a request fails.  A kept connection the server closed
while idle fails before any response byte; the request is then sent
again at once on a new connection without using up an attempt, since
there it is the first try (RFC 9112 9.3.1).  Proxies are read once, as
``urllib`` reads them: ``http`` sends the absolute URL as the request
target to the proxy, ``https`` tunnels with ``CONNECT``.
"""
from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import signal
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .errors import WatchDirMissing

logger = logging.getLogger(__name__)

RESULTS_FILENAME = "detections.jsonl"
PROCESSED_DIRNAME = "processed"
FAILED_DIRNAME = "failed"
#: Suffixes for files still being written by the producer; skipped.
_SKIP_SUFFIXES = (".part", ".tmp")
#: Bytes of a response body read; the connection of a longer one is closed.
_MAX_ERROR_BODY = 65536
#: Seconds a POST may wait on the connect or on any one socket read.
REQUEST_TIMEOUT_S = 10.0
#: How a kept connection the server closed while idle fails on its next
#: request (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


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
        #: What the agent did, printed as its summary at exit.
        self.counts = dict.fromkeys(("shipped", "rejected", "gave_up", "retried", "reconnected"), 0)
        self._route(urllib.parse.urlsplit(self.endpoint))
        self._conn: http.client.HTTPConnection | None = None
        self._opened_in_pass = False

    def _route(self, url: urllib.parse.SplitResult) -> None:
        """Where to connect and what to send, with or without a proxy."""
        https = url.scheme == "https"
        self._connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._address = (url.hostname, url.port)
        self._target = url.path
        self._headers = {"Content-Type": "application/json"}
        self._tunnel = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.netloc):
            return
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        auth = {}
        if proxy_url.username is not None and proxy_url.password is not None:
            user, password = map(urllib.parse.unquote, (proxy_url.username, proxy_url.password))
            token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
            auth["Proxy-Authorization"] = "Basic " + token
        self._address = (proxy_url.hostname, proxy_url.port)
        if https:
            self._tunnel = (url.hostname, url.port, auth)
        else:
            self._target = self.endpoint
            self._headers.update(auth)

    def stop(self) -> None:
        self._stop.set()

    def _open(self) -> None:
        if self._opened_in_pass:
            self.counts["reconnected"] += 1
        self._opened_in_pass = True
        self._conn = self._connection_class(*self._address, timeout=REQUEST_TIMEOUT_S)
        if self._tunnel is not None:
            self._conn.set_tunnel(*self._tunnel)

    def _close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange(self, body: bytes) -> http.client.HTTPResponse:
        """Send the POST and read the response's head, on the kept connection
        if there is one; a kept connection found closed is replaced once."""
        kept = self._conn is not None
        if not kept:
            self._open()
        try:
            self._conn.request("POST", self._target, body, self._headers)
            return self._conn.getresponse()
        except _STALE:
            if not kept:
                raise
        self._close()
        self._open()
        self._conn.request("POST", self._target, body, self._headers)
        return self._conn.getresponse()

    def _post_once(self, body: bytes) -> tuple[str, dict]:
        """One POST attempt; returns (outcome, response payload)."""
        try:
            response = self._exchange(body)
            data = response.read(_MAX_ERROR_BODY)
            if response.will_close or not response.isclosed():
                self._close()  # the server closes, or a body is left unread
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._close()
            return _Outcome.RETRYABLE, {"detail": str(exc)}
        if 200 <= response.status < 300:
            try:
                payload = json.loads(data)
            except ValueError as exc:
                return _Outcome.RETRYABLE, {"detail": str(exc)}
            if not isinstance(payload, dict):
                return _Outcome.RETRYABLE, {"detail": "response is not a JSON object"}
            return _Outcome.OK, payload
        outcome = _Outcome.PERMANENT if 400 <= response.status < 500 else _Outcome.RETRYABLE
        return outcome, {"status": response.status, "detail": data.decode("utf-8", "replace")}

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
            self.counts["gave_up"] += 1
            try:
                self._move(name, self.failed_dir)
            except OSError:
                logger.exception("cannot quarantine %s", name)
            return

        config = self.config
        for attempt in range(1, config.max_attempts + 1):
            if attempt > 1:
                self.counts["retried"] += 1
            outcome, payload = self._post_once(body)
            if outcome == _Outcome.OK:
                self._record(name, payload)
                self._move(name, self.processed_dir)
                self.counts["shipped"] += 1
                return
            if outcome == _Outcome.PERMANENT:
                logger.warning("rejected %s: %s", name, payload)
                self._move(name, self.failed_dir)
                self.counts["rejected"] += 1
                return
            if attempt < config.max_attempts and not self._stop.is_set():
                delay_s = config.backoff_base_ms * (2 ** (attempt - 1)) / 1000.0
                time.sleep(delay_s)
        logger.warning("gave up on %s after %d attempts", name, config.max_attempts)
        self._move(name, self.failed_dir)
        self.counts["gave_up"] += 1

    def run(self) -> None:
        """Poll until stopped; with drain=True, exit once the backlog clears."""
        poll_s = self.config.poll_interval_ms / 1000.0
        try:
            while not self._stop.is_set():
                pending = self._pending_files()
                for name in pending:
                    if self._stop.is_set():
                        return
                    self._dispatch(name)
                if not pending:
                    self._close()  # the pass is over: hold no idle connection
                    self._opened_in_pass = False
                    if self.config.drain:
                        return
                    self._stop.wait(poll_s)
        finally:
            self._close()


def run_agent(config: AgentConfig) -> None:
    """Build an Agent, wire SIGTERM/SIGINT to a clean stop, and run it.

    At exit it prints one JSON line on stdout: the files shipped, rejected
    (4xx) and given up on (retries exhausted or unreadable), the retries,
    and the connections reopened within a pass.
    """
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
    print(json.dumps(agent.counts, sort_keys=True), flush=True)
