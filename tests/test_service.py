"""Detection service: scoring parity, wire protocol, and robustness."""
import dataclasses
import hashlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPResponse

import numpy as np
import pytest

from memlog.embedding import EmbeddingModel, load_embeddings, save_embeddings
from memlog.errors import BindFailure, ModelLoadFailure, NotJson, OversizeLog
from memlog.gbdt import RegressionTree, classify, load_model, predict_one, save_model
from memlog.logmodel import DEFAULT_MAX_BYTES, parse_log, serialize_log
from memlog.service import (
    DetectorService,
    _Handler,
    load_detector,
    make_server,
)
from memlog.synthgen import GenSpec, generate_corpus
from memlog.tokenizer import tokenize
from memlog.vectorizer import LOG_VECTOR_DIM, vectorize_log


@pytest.fixture(scope="module")
def detector(model_dir):
    return load_detector(model_dir["embeddings"], model_dir["model"])


@pytest.fixture(scope="module")
def sample_logs():
    return [serialize_log(log) for log in generate_corpus(GenSpec(8, 8, seed=21))]


@pytest.fixture()
def server(detector):
    srv = make_server(detector, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def url_of(srv, path):
    host, port = srv.server_address[:2]
    return f"http://{host}:{port}{path}"


def http(method, url, body=None, headers=None):
    """Returns (status, headers, parsed_json)."""
    request = urllib.request.Request(url, data=body, method=method)
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def raw_post(srv, content_length: bytes, body: bytes):
    """POST ``body`` to /v1/detect with a verbatim Content-Length; (status, parsed_json)."""
    with socket.create_connection(srv.server_address[:2], timeout=10) as sock:
        sock.sendall(b"POST /v1/detect HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                     b"Content-Length: " + content_length + b"\r\n\r\n" + body)
        response = HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


HEALTH_REQUEST = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"


def raw_exchange(srv, request: bytes) -> bytes:
    """Everything the server sends on one keep-alive connection for ``request``, up to its close."""
    with socket.create_connection(srv.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
        return received


def only_response(data: bytes):
    """(status, headers, parsed_json) of ``data``, which must hold exactly one response."""
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert len(body) == int(headers["Content-Length"]), data
    return int(status_line.split()[1]), headers, json.loads(body)


class TestDetect:
    def test_matches_manual_pipeline(self, detector, model_dir, sample_logs):
        embeddings = load_embeddings(model_dir["embeddings"])
        model = load_model(model_dir["model"])
        for raw in sample_logs:
            result = detector.detect(raw)
            log, _ = parse_log(raw)
            expected = predict_one(model, vectorize_log(tokenize(log), embeddings).values)
            assert result.score == expected
            assert result.verdict is classify(expected, detector.threshold)
            assert result.model_version == model.version
            assert result.latency_ms >= 0.0
            assert result.threshold == detector.threshold

    def test_empty_object_scores_the_zero_vector(self, detector, model_dir):
        model = load_model(model_dir["model"])
        result = detector.detect(b"{}")
        assert result.score == predict_one(model, np.zeros(LOG_VECTOR_DIM))

    def test_deterministic_across_calls(self, detector, sample_logs):
        first = [detector.detect(raw).score for raw in sample_logs]
        second = [detector.detect(raw).score for raw in sample_logs]
        assert first == second

    def test_verdicts_on_fresh_separable_logs(self, detector):
        # new draws from the distribution the model was trained on: every
        # label must be recovered at the default threshold
        for log in generate_corpus(GenSpec(8, 8, overlap=0.0, seed=21)):
            result = detector.detect(serialize_log(log))
            assert result.verdict is log.label

    def test_parse_errors_propagate(self, detector):
        with pytest.raises(NotJson):
            detector.detect(b"not json at all")
        with pytest.raises(OversizeLog):
            detector.detect(b'{"x":"' + b"a" * DEFAULT_MAX_BYTES + b'"}')

    def test_to_dict_wire_shape(self, detector, sample_logs):
        data = detector.detect(sample_logs[0]).to_dict()
        assert set(data) == {"score", "verdict", "threshold", "model_version", "latency_ms"}
        assert data["verdict"] in ("malicious", "benign")
        assert isinstance(data["score"], float)

    def test_threshold_domain(self, detector):
        with pytest.raises(ValueError):
            DetectorService(detector.embeddings, detector.model, threshold=0.0)
        with pytest.raises(ValueError):
            DetectorService(detector.embeddings, detector.model, threshold=1.0)


class TestAudit:
    def test_audit_lines(self, model_dir, sample_logs, tmp_path):
        audit = tmp_path / "audit.jsonl"
        service = load_detector(
            model_dir["embeddings"], model_dir["model"], audit_path=str(audit)
        )
        service.detect(sample_logs[0])
        service.detect(sample_logs[1], request_id="req-7")
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(lines) == 2
        first, second = lines
        assert set(first) == {"ts", "request_sha256", "score", "verdict", "latency_ms"}
        assert first["request_sha256"] == hashlib.sha256(sample_logs[0]).hexdigest()
        assert second["request_id"] == "req-7"
        assert second["request_sha256"] == hashlib.sha256(sample_logs[1]).hexdigest()
        assert first["verdict"] in ("malicious", "benign")


class TestLoadDetector:
    def test_missing_files(self, model_dir, tmp_path):
        with pytest.raises(ModelLoadFailure):
            load_detector(str(tmp_path / "no.mleb"), model_dir["model"])
        with pytest.raises(ModelLoadFailure):
            load_detector(model_dir["embeddings"], str(tmp_path / "no.mlgb"))

    def test_corrupt_model(self, model_dir, tmp_path):
        bad = tmp_path / "bad.mlgb"
        bad.write_bytes(b"MLGB" + b"\x00" * 10)
        with pytest.raises(ModelLoadFailure):
            load_detector(model_dir["embeddings"], str(bad))

    def test_mismatched_pair(self, model_dir, small_embeddings, tmp_path):
        narrow = EmbeddingModel(
            small_embeddings.vocab,
            small_embeddings.input_vectors[:, :8].copy(),
            small_embeddings.output_vectors[:, :8].copy(),
        )
        path = tmp_path / "narrow.mleb"
        save_embeddings(narrow, str(path))
        assert load_embeddings(str(path)) == narrow  # a sound file on its own
        with pytest.raises(ModelLoadFailure, match="8-dim"):
            load_detector(str(path), model_dir["model"])

    def test_feature_out_of_range(self, model_dir, tmp_path):
        model = load_model(str(model_dir["model"]))
        nodes = model.trees[0].nodes.copy()
        assert nodes["feature"][0] >= 0
        nodes["feature"][0] = LOG_VECTOR_DIM
        wide = dataclasses.replace(model, trees=(RegressionTree(nodes), *model.trees[1:]))
        path = tmp_path / "wide.mlgb"
        save_model(wide, str(path))
        with pytest.raises(ModelLoadFailure, match=f"feature {LOG_VECTOR_DIM}"):
            load_detector(model_dir["embeddings"], str(path))

    def test_ready_after_load(self, detector):
        assert detector.model_version


class TestHttp:
    def test_health_ready(self, server, detector):
        status, _, payload = http("GET", url_of(server, "/v1/health"))
        assert status == 200
        assert payload == {"status": "ready", "model_version": detector.model_version}

    def test_detect_round_trip(self, server, detector, sample_logs):
        for raw in sample_logs[:4]:
            status, headers, payload = http(
                "POST", url_of(server, "/v1/detect"), body=raw
            )
            assert status == 200
            assert payload["score"] == detector.detect(raw).score
            assert payload["verdict"] in ("malicious", "benign")
            assert payload["model_version"] == detector.model_version
            assert payload["threshold"] == detector.threshold
            assert payload["latency_ms"] >= 0.0

    def test_request_id_echo(self, server, sample_logs):
        status, headers, _ = http(
            "POST",
            url_of(server, "/v1/detect"),
            body=sample_logs[0],
            headers={"X-Request-Id": "abc-123"},
        )
        assert status == 200
        assert headers.get("X-Request-Id") == "abc-123"

    def test_no_echo_without_request_id(self, server, sample_logs):
        status, headers, _ = http("POST", url_of(server, "/v1/detect"), body=sample_logs[0])
        assert status == 200
        assert "X-Request-Id" not in headers

    def test_bad_json_is_400(self, server):
        status, _, payload = http("POST", url_of(server, "/v1/detect"), body=b"nope")
        assert status == 400
        assert payload["error"] == "LOG_PARSE"
        assert payload["detail"]

    def test_deep_nesting_is_400(self, server):
        status, _, payload = http("POST", url_of(server, "/v1/detect"), body=b"[" * 100000)
        assert status == 400
        assert payload["error"] == "LOG_PARSE"

    def test_empty_body_is_400(self, server):
        status, _, payload = http("POST", url_of(server, "/v1/detect"), body=b"")
        assert status == 400
        assert payload["error"] == "LOG_PARSE"

    def test_oversize_body_is_400(self, server):
        big = b'{"x":"' + b"a" * (DEFAULT_MAX_BYTES + 8192) + b'"}'
        status, _, payload = http("POST", url_of(server, "/v1/detect"), body=big)
        assert status == 400
        assert payload["error"] == "LOG_PARSE"

    # a body each of these sizes would read as, were the header taken by int()
    @pytest.mark.parametrize("size, body", [
        (b"+2", b"{}"),
        (b"1_0", b'{"a": 123}'),
        (b"\x0b2", b"{}"),
        (b"2\x0c", b"{}"),
        (b"\xa02", b"{}"),
    ], ids=["sign", "underscore", "vertical-tab", "form-feed", "no-break-space"])
    def test_content_length_other_than_digits_is_400(self, server, size, body):
        assert raw_post(server, size, body) == (
            400, {"error": "LOG_PARSE", "detail": "bad request size"}
        )

    def test_content_length_spaces_around_digits_are_not_its_value(self, server):
        # RFC 9110 5.5: a field value excludes the line's leading and trailing SP/HTAB
        status, payload = raw_post(server, b"2 \t", b"{}")
        assert status == 200 and payload["verdict"] in ("malicious", "benign")

    # RFC 9112 6.3: the body's end is in doubt, so the health check sent after
    # it on the same connection must go unanswered
    @pytest.mark.parametrize("sizes", [(b"2", b"40"), (b"2", b"2")], ids=["differing", "repeated"])
    def test_several_content_lengths_are_400_and_close(self, server, sizes):
        lines = b"".join(b"Content-Length: " + size + b"\r\n" for size in sizes)
        request = b"POST /v1/detect HTTP/1.1\r\nHost: x\r\n" + lines + b"\r\n{}" + HEALTH_REQUEST
        status, headers, payload = only_response(raw_exchange(server, request))
        assert (status, payload) == (400, {"error": "LOG_PARSE", "detail": "bad request size"})
        assert headers["Connection"] == "close"
        assert http("GET", url_of(server, "/v1/health"))[0] == 200

    # RFC 9112 6.1: a transfer coding the server does not implement is 501, and
    # the chunk bytes must not be read as the next request
    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: gzip, chunked\r\nContent-Length: 2\r\n",
    ], ids=["chunked", "with-content-length"])
    def test_transfer_encoding_is_501_and_close(self, server, framing):
        request = (b"POST /v1/detect HTTP/1.1\r\nHost: x\r\n" + framing
                   + b"\r\n2\r\n{}\r\n0\r\n\r\n" + HEALTH_REQUEST)
        status, headers, payload = only_response(raw_exchange(server, request))
        assert (status, payload["error"]) == (501, "NOT_IMPLEMENTED")
        assert headers["Connection"] == "close"
        assert http("GET", url_of(server, "/v1/health"))[0] == 200

    # a POST answered before its body is read closes the connection, so the
    # body is not parsed as the next request and the health check sent after
    # it on the same connection goes unanswered
    @pytest.mark.parametrize("path, size, status, payload", [
        (b"/v1/health", b"2", 404, {"error": "NOT_FOUND"}),
        (b"/nope", b"2", 404, {"error": "NOT_FOUND"}),
        (b"/v1/detect", b"+2", 400, {"error": "LOG_PARSE", "detail": "bad request size"}),
        (b"/v1/detect", b"999999999", 400, {"error": "LOG_PARSE", "detail": "bad request size"}),
    ], ids=["health", "unknown", "signed-size", "oversize"])
    def test_post_answered_unread_closes(self, server, path, size, status, payload):
        request = (b"POST " + path + b" HTTP/1.1\r\nHost: x\r\nContent-Length: " + size
                   + b"\r\n\r\n{}" + HEALTH_REQUEST)
        got_status, headers, got_payload = only_response(raw_exchange(server, request))
        assert (got_status, got_payload) == (status, payload)
        assert headers["Connection"] == "close"
        assert http("GET", url_of(server, "/v1/health"))[0] == 200

    def test_bodiless_post_to_unknown_path_keeps_the_connection(self, server):
        closing_health = HEALTH_REQUEST.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        request = b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n" + closing_health
        data = raw_exchange(server, request)
        not_found, _, health = data.partition(b"HTTP/1.1 200 OK\r\n")
        assert only_response(not_found)[::2] == (404, {"error": "NOT_FOUND"})
        assert b"Connection" not in not_found and b'"status": "ready"' in health

    def test_unknown_paths_are_404(self, server):
        status, _, payload = http("GET", url_of(server, "/nope"))
        assert status == 404
        assert payload == {"error": "NOT_FOUND"}
        status, _, payload = http("POST", url_of(server, "/v1/health"), body=b"{}")
        assert status == 404

    def test_concurrent_requests_pair_responses(self, server, detector, sample_logs):
        expected = {
            f"req-{i}": detector.detect(raw).score
            for i, raw in enumerate(sample_logs)
        }
        results = {}
        errors = []

        def worker(request_id, raw):
            try:
                status, headers, payload = http(
                    "POST",
                    url_of(server, "/v1/detect"),
                    body=raw,
                    headers={"X-Request-Id": request_id},
                )
                results[headers.get("X-Request-Id")] = (status, payload["score"])
            except Exception as exc:  # pragma: no cover - fail loudly below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"req-{i}", raw))
            for i, raw in enumerate(sample_logs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert set(results) == set(expected)
        for request_id, (status, score) in results.items():
            assert status == 200
            assert score == expected[request_id]

    def test_fuzz_bodies_never_crash(self, server):
        rng = np.random.default_rng(22)
        for _ in range(150):
            n = int(rng.integers(0, 400))
            body = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            status, _, payload = http("POST", url_of(server, "/v1/detect"), body=body)
            assert status in (200, 400)
            assert isinstance(payload, dict)
        status, _, _ = http("GET", url_of(server, "/v1/health"))
        assert status == 200


class TestServerLifecycle:
    def test_bind_failure(self, server, detector):
        host, port = server.server_address[:2]
        with pytest.raises(BindFailure):
            make_server(detector, host, port)

    def test_shutdown_from_another_thread(self, detector):
        srv = make_server(detector, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        status, _, _ = http("GET", url_of(srv, "/v1/health"))
        assert status == 200
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_idle_connection_does_not_block_close(self, detector, monkeypatch):
        assert _Handler.timeout is not None
        monkeypatch.setattr(_Handler, "timeout", 0.5)  # shortened to keep the test fast
        srv = make_server(detector, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        idle = socket.create_connection(srv.server_address[:2])
        try:
            # wait until the server has accepted the connection
            deadline = time.monotonic() + 5
            while not any("process_request_thread" in t.name for t in threading.enumerate()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            srv.shutdown()
            closer = threading.Thread(target=srv.server_close)
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive()
        finally:
            idle.close()
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_idle_keep_alive_connection_does_not_delay_close(self, detector):
        assert _Handler.timeout >= 30  # the production timeout, not shortened
        srv = make_server(detector, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        try:
            with socket.create_connection(srv.server_address[:2], timeout=10) as sock:
                sock.sendall(HEALTH_REQUEST)
                response = HTTPResponse(sock)
                response.begin()
                assert response.status == 200 and not response.will_close
                response.read()
                started = time.monotonic()
                srv.shutdown()
                srv.server_close()
                elapsed = time.monotonic() - started
                assert sock.recv(1) == b""  # the server closed the idle connection
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert elapsed < 5, f"close took {elapsed:.1f} s"

    def test_close_answers_a_request_in_flight(self, detector, sample_logs):
        srv = make_server(detector, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        body = sample_logs[0]
        try:
            with socket.create_connection(srv.server_address[:2], timeout=10) as sock:
                sock.sendall(b"POST /v1/detect HTTP/1.1\r\nHost: x\r\nContent-Length: "
                             + str(len(body)).encode() + b"\r\n\r\n" + body[:10])
                time.sleep(0.2)  # the request has started
                srv.shutdown()
                closer = threading.Thread(target=srv.server_close)
                closer.start()
                closer.join(timeout=0.3)
                assert closer.is_alive()  # waiting for the request in flight
                sock.sendall(body[10:])
                response = HTTPResponse(sock)
                response.begin()
                assert response.status == 200
                assert json.loads(response.read())["score"] == detector.detect(body).score
                closer.join(timeout=5)
                assert not closer.is_alive()
                assert sock.recv(1) == b""  # and then closed the connection
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_stalled_body_is_dropped_without_reply(self, server, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(b"POST /v1/detect HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{}")
            assert sock.recv(65536) == b""
