"""HTTP detection service: load models once, score logs concurrently.

Wire protocol (HTTP/1.1):
  POST /v1/detect  body = log JSON  ->  {"score", "verdict", "threshold",
                                          "model_version", "latency_ms"}
  GET  /v1/health                   ->  {"status", "model_version"}

Parse failures answer 400 with {"error": "LOG_PARSE"}; anything
unexpected answers 500 with {"error": "INTERNAL"}; no request body can
take the process down.  An ``X-Request-Id`` request header is echoed
back so concurrent clients can pair responses.

Models are immutable after startup.  The audit trail is the only
mutable shared state and is serialized through one lock.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import signal
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socket import SHUT_RD
from typing import Optional

from .embedding import EMBEDDING_DIM, EmbeddingModel, load_embeddings
from .errors import BindFailure, LogParseError, ModelFileError, ModelLoadFailure
from .gbdt import DEFAULT_THRESHOLD, GbdtModel, classify, load_model, predict_one
from .logmodel import DEFAULT_MAX_BYTES, Label, parse_log
from .tokenizer import tokenize
from .vectorizer import LOG_VECTOR_DIM, vectorize_log

logger = logging.getLogger(__name__)

#: Requests larger than this are rejected without reading the body.
_MAX_REQUEST_BYTES = DEFAULT_MAX_BYTES + 4096


@dataclass
class DetectionResult:
    score: float
    verdict: Label
    threshold: float
    model_version: str
    latency_ms: float

    def to_dict(self) -> dict:
        return {**vars(self), "verdict": self.verdict.value}


class DetectorService:
    """Scoring core shared by the HTTP server and the ``predict`` command."""

    def __init__(
        self,
        embeddings: EmbeddingModel,
        model: GbdtModel,
        threshold: float = DEFAULT_THRESHOLD,
        audit_path: Optional[str] = None,
    ):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.embeddings = embeddings
        self.model = model
        self.threshold = threshold
        self.audit_path = audit_path
        self._audit_lock = threading.Lock()

    @property
    def model_version(self) -> str:
        return self.model.version

    def detect(self, raw_log: bytes, request_id: str = "") -> DetectionResult:
        """Parse, vectorize, and score one log.  Parse errors propagate."""
        start = time.perf_counter()
        log, _ = parse_log(raw_log)
        vector = vectorize_log(tokenize(log), self.embeddings)
        score = predict_one(self.model, vector.values)
        verdict = classify(score, self.threshold)
        latency_ms = (time.perf_counter() - start) * 1000.0
        result = DetectionResult(
            score=score,
            verdict=verdict,
            threshold=self.threshold,
            model_version=self.model_version,
            latency_ms=latency_ms,
        )
        self._audit(raw_log, result, request_id)
        return result

    def _audit(self, raw_log: bytes, result: DetectionResult, request_id: str) -> None:
        if self.audit_path is None:
            return
        record = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "request_sha256": hashlib.sha256(raw_log).hexdigest(),
            "score": result.score,
            "verdict": result.verdict.value,
            "latency_ms": result.latency_ms,
        }
        if request_id:
            record["request_id"] = request_id
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._audit_lock:
            with open(self.audit_path, "a", encoding="utf-8") as fh:
                fh.write(line)


def load_detector(
    embeddings_path: str,
    model_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    audit_path: Optional[str] = None,
) -> DetectorService:
    """Load both model files, failing fast with ModelLoadFailure.

    Besides each file's own checks, the pair must fit together: the
    embeddings must have the dimension the vectorizer pools, and every
    split must read a column of the vectors that pooling produces.
    """
    try:
        embeddings = load_embeddings(embeddings_path)
        model = load_model(model_path)
    except (OSError, ModelFileError) as exc:
        raise ModelLoadFailure(str(exc)) from exc
    if embeddings.dim != EMBEDDING_DIM:
        raise ModelLoadFailure(
            f"{embeddings_path} has {embeddings.dim}-dim embeddings, expected {EMBEDDING_DIM}"
        )
    if model.top_feature >= LOG_VECTOR_DIM:
        raise ModelLoadFailure(
            f"{model_path} splits on feature {model.top_feature}, but log vectors have "
            f"{LOG_VECTOR_DIM}"
        )
    return DetectorService(embeddings, model, threshold, audit_path)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body are flushed as separate small writes; without
    # TCP_NODELAY, Nagle + delayed ACK stalls each response ~40ms
    disable_nagle_algorithm = True
    # seconds a connection may sit idle or stall mid-request; without it an
    # idle client pins a thread and keeps server_close() from returning
    timeout = 30
    server: "DetectorServer"

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def handle_one_request(self) -> None:
        try:
            started = self.server.await_request(self)
        except TimeoutError:
            started = False  # idle past the timeout, as the base class would drop it
        if started:
            super().handle_one_request()
        else:
            self.close_connection = True

    def _reply(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # the base class closes the connection after this header
            self.send_header("Connection", "close")
        request_id = self.headers.get("X-Request-Id", "")
        if request_id:
            self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        try:
            if self.path != "/v1/health":
                self._reply(404, {"error": "NOT_FOUND"})
                return
            self._reply(200, {"status": "ready", "model_version": self.server.service.model_version})
        except Exception:
            logger.exception("health check failed")
            self._safe_500()

    def do_POST(self) -> None:
        try:
            # RFC 9112 6.1 and 6.3: with a transfer coding (none is implemented)
            # or several Content-Length lines, where the body ends is unknown,
            # and so is where the next request starts: answer and close
            if self.headers.get_all("Transfer-Encoding"):
                detail = "transfer codings are not supported"
                self._reply(501, {"error": "NOT_IMPLEMENTED", "detail": detail}, close=True)
                return
            sizes = self.headers.get_all("Content-Length") or ["0"]
            if len(sizes) > 1:
                self._reply(400, {"error": "LOG_PARSE", "detail": "bad request size"}, close=True)
                return
            # RFC 9110 8.6: ASCII digits once the spaces and tabs around them
            # are stripped; int() would also take a sign, "_" or other spaces
            size = sizes[0].strip(" \t")
            length = int(size) if size.isascii() and size.isdigit() else -1
            # a body left unread would be parsed as the next request: answer and close
            if self.path != "/v1/detect":
                self._reply(404, {"error": "NOT_FOUND"}, close=length != 0)
                return
            if not 0 <= length <= _MAX_REQUEST_BYTES:
                self._reply(400, {"error": "LOG_PARSE", "detail": "bad request size"}, close=True)
                return
            body = self.rfile.read(length)
            request_id = self.headers.get("X-Request-Id", "")
            try:
                result = self.server.service.detect(body, request_id)
            except LogParseError as exc:
                self._reply(400, {"error": "LOG_PARSE", "detail": str(exc)})
                return
            self._reply(200, result.to_dict())
        except TimeoutError:
            raise  # the client stalled mid-request: the base class drops the connection
        except Exception:
            logger.exception("detect request failed")
            self._safe_500()

    def _safe_500(self) -> None:
        try:
            self._reply(500, {"error": "INTERNAL"})
        except Exception:
            pass


class DetectorServer(ThreadingHTTPServer):
    # non-daemon threads + block_on_close: server_close() drains in-flight
    # requests before returning
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    # listen() backlog; socketserver's default of 5 resets simultaneous connects
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: DetectorService):
        self.service = service
        self._idle = set()  # connections of handlers waiting for a next request
        self._idle_lock = threading.Lock()
        self._closing = False
        super().__init__(address, _Handler)

    def await_request(self, handler: _Handler) -> bool:
        """Wait for the first byte of the next request on ``handler``'s
        connection; False when there is none, or the server is closing.

        While it waits, the connection is idle, and ``server_close`` may
        close it.  Once a request has started, it is answered.
        """
        connection = handler.connection
        with self._idle_lock:
            if self._closing:
                return False
            self._idle.add(connection)
        try:
            started = bool(handler.rfile.peek(1))
        finally:
            with self._idle_lock:
                self._idle.discard(connection)
                # a connection closed while idle may have lost part of a request
                closed = self._closing
        return started and not closed

    def server_close(self) -> None:
        # wake each handler waiting for a next request with end-of-file, so
        # that joining the handler threads waits only for requests in flight
        with self._idle_lock:
            self._closing = True
            for connection in self._idle:
                with contextlib.suppress(OSError):
                    connection.shutdown(SHUT_RD)
        super().server_close()


def make_server(service: DetectorService, host: str, port: int) -> DetectorServer:
    try:
        return DetectorServer((host, port), service)
    except OSError as exc:
        raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc


def serve_until_signal(server: DetectorServer, on_ready=None) -> None:
    """Run the accept loop; SIGTERM/SIGINT trigger a graceful drain.

    ``on_ready`` fires after the signal handlers are installed, so an
    announcement printed there is a reliable cue that a signal will be
    honoured.
    """

    def _stop(signum, frame) -> None:
        # shutdown() deadlocks if called from the serve_forever thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _stop)
    try:
        if on_ready is not None:
            on_ready()
        server.serve_forever()
    finally:
        server.server_close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
