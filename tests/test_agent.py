"""Log-shipping agent: dispatch, retry, quarantine, and exactly-once delivery."""
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from memlog.agent import (
    _MAX_ERROR_BODY,
    Agent,
    AgentConfig,
    resolve_server,
)
from memlog.errors import WatchDirMissing

CANNED = {
    "score": 0.91,
    "verdict": "malicious",
    "threshold": 0.75,
    "model_version": "1-stub",
    "latency_ms": 0.4,
}


class _StubHandler(BaseHTTPRequestHandler):
    """HTTP/1.0, so it closes the connection after every response."""

    #: Spaces added to the detail of an error body.
    error_padding = 0

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        with self.server.lock:
            self.server.requests.append((self.path, body))
            status = self.server.script.pop(0) if self.server.script else 200
        if status == 200:
            payload = json.dumps(CANNED).encode()
        else:
            detail = f"scripted {status}" + " " * self.error_padding
            payload = json.dumps({"error": "STUB", "detail": detail}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class _KeepAliveHandler(_StubHandler):
    """HTTP/1.1: the connection stays open until the client closes it."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open_connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open_connections -= 1


class _DroppingHandler(_KeepAliveHandler):
    """Drops the connection after each response without saying so, as a
    server does when a kept connection's idle time runs out."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _LongErrorHandler(_KeepAliveHandler):
    """Error bodies longer than the agent reads."""

    error_padding = _MAX_ERROR_BODY


class _ProxyHandler(_KeepAliveHandler):
    """Records the headers a proxy reads."""

    def do_POST(self):
        with self.server.lock:
            self.server.proxy_headers.append(
                (self.headers["Host"], self.headers["Proxy-Authorization"])
            )
        super().do_POST()


@pytest.fixture()
def stub():
    """Scripted detector stub; yields the server, counts every request and connection."""
    servers = []

    def start(script=(), handler=_StubHandler):
        srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        srv.lock = threading.Lock()
        srv.requests = []
        srv.script = list(script)
        srv.connections = srv.open_connections = 0
        srv.url = f"http://127.0.0.1:{srv.server_address[1]}"
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        servers.append((srv, thread))
        return srv

    yield start
    for srv, thread in servers:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


def make_agent(watch_dir, url, script_stub=None, max_attempts=3, drain=True):
    return Agent(
        AgentConfig(
            watch_dir=str(watch_dir),
            server_url=url,
            poll_interval_ms=10,
            max_attempts=max_attempts,
            backoff_base_ms=1,
            drain=drain,
        )
    )


def seed_files(watch_dir, names):
    for i, name in enumerate(names):
        (watch_dir / name).write_text(json.dumps({"metadata": {"exe_name": f"x{i}.exe"}}))


def read_results(watch_dir):
    path = watch_dir / "detections.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestDrainHappyPath:
    def test_ships_every_file_once(self, stub, tmp_path):
        srv = stub()
        names = [f"log_{i:02d}.json" for i in range(10)]
        seed_files(tmp_path, names)
        make_agent(tmp_path, srv.url).run()

        assert sorted(p.name for p in (tmp_path / "processed").iterdir()) == names
        results = read_results(tmp_path)
        assert sorted(r["file"] for r in results) == names
        for r in results:
            assert r["score"] == CANNED["score"]
            assert r["verdict"] == CANNED["verdict"]
        assert len(srv.requests) == 10
        assert all(path == "/v1/detect" for path, _ in srv.requests)
        leftovers = [p for p in tmp_path.iterdir() if p.is_file() and p.name != "detections.jsonl"]
        assert leftovers == []

    def test_dispatch_order_is_sorted(self, stub, tmp_path):
        srv = stub()
        for name in ("b.json", "a.json", "c.json"):
            (tmp_path / name).write_text(json.dumps({"note": name}))
        make_agent(tmp_path, srv.url).run()
        bodies = [json.loads(body)["note"] for _, body in srv.requests]
        assert bodies == ["a.json", "b.json", "c.json"]

    def test_request_bodies_are_file_contents(self, stub, tmp_path):
        srv = stub()
        raw = json.dumps({"metadata": {"exe_name": "probe.exe"}})
        (tmp_path / "probe.json").write_text(raw)
        make_agent(tmp_path, srv.url).run()
        assert srv.requests[0][1] == raw.encode()


class TestSkipRules:
    def test_only_regular_candidate_files_ship(self, stub, tmp_path):
        srv = stub()
        (tmp_path / "real.json").write_text("{}")
        (tmp_path / "detections.jsonl").write_text('{"file": "old"}\n')
        (tmp_path / ".hidden").write_text("{}")
        (tmp_path / "partial.part").write_text("{}")
        (tmp_path / "upload.tmp").write_text("{}")
        (tmp_path / "subdir").mkdir()
        (tmp_path / "subdir" / "nested.json").write_text("{}")
        make_agent(tmp_path, srv.url).run()
        assert len(srv.requests) == 1
        assert [p.name for p in (tmp_path / "processed").iterdir()] == ["real.json"]
        # the skipped files stay put
        assert (tmp_path / ".hidden").exists()
        assert (tmp_path / "partial.part").exists()
        assert (tmp_path / "upload.tmp").exists()
        assert (tmp_path / "subdir" / "nested.json").exists()


class TestRetries:
    def test_recovers_on_third_attempt(self, stub, tmp_path):
        srv = stub(script=[503, 503, 200])
        seed_files(tmp_path, ["one.json"])
        make_agent(tmp_path, srv.url, max_attempts=3).run()
        assert len(srv.requests) == 3
        assert [p.name for p in (tmp_path / "processed").iterdir()] == ["one.json"]
        assert list((tmp_path / "failed").iterdir()) == []
        results = read_results(tmp_path)
        assert len(results) == 1 and results[0]["file"] == "one.json"

    def test_exhausted_retries_quarantine(self, stub, tmp_path):
        srv = stub(script=[503, 503, 503])
        seed_files(tmp_path, ["one.json"])
        make_agent(tmp_path, srv.url, max_attempts=3).run()
        assert len(srv.requests) == 3
        assert [p.name for p in (tmp_path / "failed").iterdir()] == ["one.json"]
        assert read_results(tmp_path) == []

    def test_permanent_rejection_never_retries(self, stub, tmp_path):
        srv = stub(script=[400])
        seed_files(tmp_path, ["bad.json"])
        make_agent(tmp_path, srv.url, max_attempts=3).run()
        assert len(srv.requests) == 1
        assert [p.name for p in (tmp_path / "failed").iterdir()] == ["bad.json"]
        assert read_results(tmp_path) == []

    def test_unreachable_server_quarantines(self, tmp_path):
        # Reserve a port, then close it: connections are refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        seed_files(tmp_path, ["one.json"])
        make_agent(tmp_path, f"http://127.0.0.1:{port}", max_attempts=2).run()
        assert [p.name for p in (tmp_path / "failed").iterdir()] == ["one.json"]

    def test_stop_during_backoff_returns_at_once_and_keeps_the_file(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        seed_files(tmp_path, ["one.json"])
        agent = Agent(AgentConfig(watch_dir=str(tmp_path), server_url=f"http://127.0.0.1:{port}",
                                  max_attempts=3, backoff_base_ms=3000, drain=True))
        threading.Timer(0.3, agent.stop).start()
        start = time.monotonic()
        agent.run()
        assert time.monotonic() - start < 1.0
        assert (tmp_path / "one.json").exists()
        assert list((tmp_path / "failed").iterdir()) == []
        assert agent.counts["gave_up"] == 0

    def test_failure_leaves_later_files_unaffected(self, stub, tmp_path):
        srv = stub(script=[400, 200])
        seed_files(tmp_path, ["a.json", "b.json"])
        make_agent(tmp_path, srv.url).run()
        assert [p.name for p in (tmp_path / "failed").iterdir()] == ["a.json"]
        assert [p.name for p in (tmp_path / "processed").iterdir()] == ["b.json"]


class TestExactlyOnce:
    def test_two_drain_passes_never_duplicate(self, stub, tmp_path):
        srv = stub()
        seed_files(tmp_path, ["a.json", "b.json", "c.json"])
        make_agent(tmp_path, srv.url).run()
        seed_files(tmp_path, ["d.json", "e.json"])
        make_agent(tmp_path, srv.url).run()
        results = [r["file"] for r in read_results(tmp_path)]
        assert sorted(results) == ["a.json", "b.json", "c.json", "d.json", "e.json"]
        assert len(srv.requests) == 5

    def test_name_collision_gets_suffix(self, stub, tmp_path):
        srv = stub()
        seed_files(tmp_path, ["a.json"])
        make_agent(tmp_path, srv.url).run()
        seed_files(tmp_path, ["a.json"])
        make_agent(tmp_path, srv.url).run()
        assert sorted(p.name for p in (tmp_path / "processed").iterdir()) == [
            "a.1.json",
            "a.json",
        ]
        assert len(read_results(tmp_path)) == 2


def shipped_once(watch_dir, srv, names):
    """Each file landed in processed/ with one verdict line, and the server
    read each file's bytes."""
    assert sorted(p.name for p in (watch_dir / "processed").iterdir()) == names
    assert list((watch_dir / "failed").iterdir()) == []
    assert sorted(r["file"] for r in read_results(watch_dir)) == names
    assert {body for _, body in srv.requests} == {
        (watch_dir / "processed" / name).read_bytes() for name in names
    }


class TestKeptConnection:
    NAMES = [f"log_{i}.json" for i in range(4)]

    def test_one_connection_per_pass(self, stub, tmp_path):
        srv = stub(handler=_KeepAliveHandler)
        seed_files(tmp_path, self.NAMES)
        agent = make_agent(tmp_path, srv.url)
        agent.run()
        shipped_once(tmp_path, srv, self.NAMES)
        assert len(srv.requests) == 4
        assert srv.connections == 1
        assert agent.counts == {
            "shipped": 4, "rejected": 0, "gave_up": 0, "retried": 0, "reconnected": 0,
        }

    def test_server_that_closes_after_every_response(self, stub, tmp_path):
        srv = stub()  # HTTP/1.0
        seed_files(tmp_path, self.NAMES)
        agent = make_agent(tmp_path, srv.url, max_attempts=1)
        agent.run()
        shipped_once(tmp_path, srv, self.NAMES)
        assert len(srv.requests) == 4
        assert (agent.counts["retried"], agent.counts["reconnected"]) == (0, 3)

    def test_idle_connection_dropped_by_the_server_is_replaced(self, stub, tmp_path):
        srv = stub(handler=_DroppingHandler)
        seed_files(tmp_path, self.NAMES)
        # one attempt per file: sending again on a fresh connection does not use one up
        agent = make_agent(tmp_path, srv.url, max_attempts=1)
        agent.run()
        shipped_once(tmp_path, srv, self.NAMES)
        assert len(srv.requests) == 4
        assert srv.connections == 4
        assert (agent.counts["retried"], agent.counts["reconnected"]) == (0, 3)

    def test_retry_after_5xx_stays_on_the_connection(self, stub, tmp_path):
        srv = stub(script=[503, 200], handler=_KeepAliveHandler)
        seed_files(tmp_path, ["one.json"])
        agent = make_agent(tmp_path, srv.url)
        agent.run()
        shipped_once(tmp_path, srv, ["one.json"])
        assert len(srv.requests) == 2
        assert srv.connections == 1
        assert (agent.counts["retried"], agent.counts["reconnected"]) == (1, 0)

    def test_long_error_body_is_not_read_on(self, stub, tmp_path):
        srv = stub(script=[503, 200], handler=_LongErrorHandler)
        seed_files(tmp_path, ["one.json", "two.json"])
        agent = make_agent(tmp_path, srv.url)
        agent.run()
        shipped_once(tmp_path, srv, ["one.json", "two.json"])
        assert len(srv.requests) == 3
        # the rest of the 503's body was left unread, so its connection was closed
        assert srv.connections == 2
        assert (agent.counts["retried"], agent.counts["reconnected"]) == (1, 1)

    def test_polling_agent_holds_no_socket_while_idle(self, stub, tmp_path):
        srv = stub(handler=_KeepAliveHandler)
        seed_files(tmp_path, self.NAMES)
        agent = make_agent(tmp_path, srv.url, drain=False)
        thread = threading.Thread(target=agent.run)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while len(read_results(tmp_path)) < 4 or srv.open_connections:
                assert time.monotonic() < deadline, "the agent kept its connection while idle"
                time.sleep(0.01)
            assert thread.is_alive()
        finally:
            agent.stop()
            thread.join(timeout=10)
        shipped_once(tmp_path, srv, self.NAMES)
        assert srv.connections == 1

    def test_http_proxy_gets_the_absolute_form_target(self, stub, tmp_path, monkeypatch):
        srv = stub(handler=_ProxyHandler)
        srv.proxy_headers = []
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", srv.url.replace("//", "//user:p%40ss@"))
        seed_files(tmp_path, ["one.json", "two.json"])
        # the name need not resolve: only the proxy is connected to
        agent = make_agent(tmp_path, "http://logs.example:8787")
        agent.run()
        shipped_once(tmp_path, srv, ["one.json", "two.json"])
        assert [path for path, _ in srv.requests] == ["http://logs.example:8787/v1/detect"] * 2
        assert srv.proxy_headers == [("logs.example:8787", "Basic dXNlcjpwQHNz")] * 2
        assert srv.connections == 1


class TestConfiguration:
    def test_watch_dir_must_exist(self, tmp_path):
        with pytest.raises(WatchDirMissing):
            make_agent(tmp_path / "missing", "http://127.0.0.1:1")

    def test_endpoint_built_from_url(self, tmp_path):
        agent = make_agent(tmp_path, "http://10.0.0.1:8787/")
        assert agent.endpoint == "http://10.0.0.1:8787/v1/detect"

    def test_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("MEMLOG_SERVER", "http://env:1")
        assert resolve_server("http://flag:2") == "http://env:1"
        monkeypatch.delenv("MEMLOG_SERVER")
        assert resolve_server("http://flag:2") == "http://flag:2"
        monkeypatch.setenv("MEMLOG_SERVER", "")
        assert resolve_server("http://flag:2") == "http://flag:2"

    def test_stop_interrupts_polling(self, stub, tmp_path):
        srv = stub()
        agent = make_agent(tmp_path, srv.url, drain=False)
        thread = threading.Thread(target=agent.run)
        thread.start()
        agent.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
