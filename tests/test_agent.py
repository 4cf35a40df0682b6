"""Log-shipping agent: dispatch, retry, quarantine, and exactly-once delivery."""
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from memlog.agent import (
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
            payload = json.dumps({"error": "STUB", "detail": f"scripted {status}"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def stub():
    """Scripted detector stub; yields the server, counts every request."""
    servers = []

    def start(script=()):
        srv = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        srv.lock = threading.Lock()
        srv.requests = []
        srv.script = list(script)
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
