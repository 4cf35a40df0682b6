"""Endpoint log shipper: watch a directory, POST each file, record verdicts.

Single-threaded by contract and deliberately stdlib-only: the process
must stay under a 25 MB resident-memory ceiling and one logical core,
which rules out numeric imports.  Files are dispatched exactly once:
success moves them to ``processed/``, permanent rejection or exhausted
retries to ``failed/``.  Verdicts append to ``detections.jsonl`` in the
watch directory, one JSON object per line with the source filename.

Retryable failures (connection errors, 5xx) back off exponentially:
backoff_base_ms * 2^(attempt-1) between attempts.  A stop ends the wait at
once and leaves the file in the watch directory.  4xx responses are
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
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .errors import BindFailure, WatchDirMissing

logger = logging.getLogger(__name__)

RESULTS_FILENAME = "detections.jsonl"
PROCESSED_DIRNAME = "processed"
FAILED_DIRNAME = "failed"
#: Suffixes for files still being written by the producer; skipped.
_SKIP_SUFFIXES = (".part", ".tmp")
#: Bytes of a response body read; the connection of a longer one is closed.
_MAX_ERROR_BODY = 65536
#: The detector's path below the server URL.
_DETECT_PATH = "/v1/detect"
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
        self.config = config
        self.endpoint = config.server_url.rstrip("/") + _DETECT_PATH
        self._route(config.server_url)  # before the watch directory is touched
        if not os.path.isdir(config.watch_dir):
            raise WatchDirMissing(f"watch directory does not exist: {config.watch_dir}")
        self.watch_dir = config.watch_dir
        self.processed_dir = os.path.join(config.watch_dir, PROCESSED_DIRNAME)
        self.failed_dir = os.path.join(config.watch_dir, FAILED_DIRNAME)
        self.results_path = os.path.join(config.watch_dir, RESULTS_FILENAME)
        os.makedirs(self.processed_dir, exist_ok=True)
        os.makedirs(self.failed_dir, exist_ok=True)
        self._stop = threading.Event()
        #: What the agent did, printed as its summary at exit.
        self.counts = dict.fromkeys(("shipped", "rejected", "gave_up", "retried", "reconnected"), 0)
        self._connected_in_pass = False

    def _route(self, server_url: str) -> None:
        """Check that the server is ``http(s)://host[:port]``, with or without a
        trailing slash, and make the connection to it, or to its proxy."""
        try:
            url = urllib.parse.urlsplit(server_url)
            url.port  # raises ValueError for a port outside 0-65535
        except ValueError:
            url = urllib.parse.urlsplit("")  # no scheme: refused below
        if not (url.scheme in ("http", "https") and url.hostname is not None
                and "@" not in url.netloc and url.path in ("", "/")
                and not url.query and not url.fragment):
            raise BindFailure(f"agent server must be http(s)://host[:port], got {server_url!r}")
        https = url.scheme == "https"
        connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._target = _DETECT_PATH
        self._headers = {"Content-Type": "application/json"}
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.netloc):
            self._conn = connection_class(url.hostname, url.port, timeout=REQUEST_TIMEOUT_S)
            return
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        auth = {}
        if proxy_url.username is not None and proxy_url.password is not None:
            user, password = map(urllib.parse.unquote, (proxy_url.username, proxy_url.password))
            token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
            auth["Proxy-Authorization"] = "Basic " + token
        self._conn = connection_class(proxy_url.hostname, proxy_url.port, timeout=REQUEST_TIMEOUT_S)
        if https:
            self._conn.set_tunnel(url.hostname, url.port, auth)  # kept across close()
        else:
            self._target = self.endpoint
            self._headers.update(auth)

    def stop(self) -> None:
        self._stop.set()

    def _exchange(self, body: bytes) -> http.client.HTTPResponse:
        """Send the POST and read the response's head, on the kept connection
        if there is one; a kept connection found closed is replaced once."""
        while True:  # at most twice: the second try is on a new connection
            kept = self._conn.sock is not None
            if not kept:  # this request connects
                self.counts["reconnected"] += self._connected_in_pass
                self._connected_in_pass = True
            try:
                self._conn.request("POST", self._target, body, self._headers)
                return self._conn.getresponse()
            except _STALE:
                if not kept:
                    raise
                self._conn.close()

    def _post_once(self, body: bytes) -> tuple[str, dict]:
        """One POST attempt; returns (outcome, response payload)."""
        try:
            response = self._exchange(body)
            data = response.read(_MAX_ERROR_BODY)
            if not response.isclosed():
                self._conn.close()  # a body is left unread
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._conn.close()
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
            if attempt < config.max_attempts:
                delay_s = config.backoff_base_ms * (2 ** (attempt - 1)) / 1000.0
                if self._stop.wait(delay_s):
                    return  # stopped: the file waits for the next run
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
                    self._conn.close()  # the pass is over: hold no idle connection
                    self._connected_in_pass = False
                    if self.config.drain:
                        return
                    self._stop.wait(poll_s)
        finally:
            self._conn.close()


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
