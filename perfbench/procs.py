"""Child processes of the benchmark: launch them, sample /proc, reap them.

Peak memory is the ``VmHWM`` line of ``/proc/<pid>/status``, sampled
while the child runs.  ``ru_maxrss`` is not used: it also counts the
image the child inherited from this (numpy-loaded) process before
``exec``.  CPU time comes from ``os.wait4`` once a child has exited, or
from ``/proc/<pid>/stat`` while it runs.
"""
from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING_RE = re.compile(r"listening on (\S+):(\d+)")


def child_env() -> dict:
    """The caller's environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def memlog_argv(*args: str) -> list[str]:
    """The ``memlog`` console command, run from the source tree."""
    return [sys.executable, "-m", "memlog.cli", *args]


def launcher_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "launch.py"), *args]


def cpu_seconds(pid: int) -> float:
    """utime + stime of a running process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


class Child:
    """A child whose peak RSS and thread count are sampled until it is reaped.

    Its stdout and stderr go to files named after ``log_stem``.
    """

    def __init__(self, argv: list[str], log_stem: Path, interval_s: float = 0.005):
        self.stdout_path = log_stem.with_suffix(".out")
        self.stderr_path = log_stem.with_suffix(".err")
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err,
                                         stdin=subprocess.DEVNULL)
        self.pid = self.proc.pid
        self.peak_kb = 0
        self.threads_peak = 0
        self.wall_s = None
        self.cpu_s = None
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, args=(interval_s,), daemon=True)
        self._sampler.start()

    def _sample(self, interval_s: float) -> None:
        path = f"/proc/{self.pid}/status"
        while not self._stop.is_set():
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError:
                return
            for line in text.splitlines():
                if line.startswith("VmHWM:"):
                    self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                elif line.startswith("Threads:"):
                    self.threads_peak = max(self.threads_peak, int(line.split()[1]))
            self._stop.wait(interval_s)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(errors="replace")

    def stdout_text(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def running(self) -> bool:
        """True until the child exits; does not reap it."""
        if self.wall_s is not None:
            return False
        info = os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is None

    def wait(self, timeout_s: float) -> int:
        """Reap the child (killing it after ``timeout_s``); returns its exit code."""
        if self.wall_s is not None:
            return self.proc.returncode
        deadline = time.monotonic() + timeout_s
        pid = 0
        while not pid:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.pid, 0)
                break
            time.sleep(0.002)
        self.wall_s = time.perf_counter() - self.started
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stop.set()
        self._sampler.join()
        return self.proc.returncode

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM, then reap; SIGKILL if it does not exit in time."""
        if self.running():
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout_s)


def run_to_end(argv: list[str], log_stem: Path, timeout_s: float) -> Child:
    child = Child(argv, log_stem)
    try:
        code = child.wait(timeout_s)
    finally:
        child.stop()  # reaped already, unless interrupted while waiting
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:4])} exited {code}: {child.stderr_text()[-2000:]}")
    return child


def http_get_json(url: str, timeout_s: float = 2.0):
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.status, json.loads(response.read())


def start_server(argv: list[str], log_stem: Path, timeout_s: float = 60.0) -> tuple[Child, str, float]:
    """Launch a server; returns (child, base URL, seconds to first healthy reply).

    The port is read back from the ``listening on`` line on stderr.
    """
    child = Child(argv, log_stem)
    healthy = False
    try:
        deadline = time.monotonic() + timeout_s
        url = None
        while time.monotonic() < deadline and child.running():
            if url is None:
                match = _LISTENING_RE.search(child.stderr_text())
                if match:
                    url = f"http://{match.group(1)}:{match.group(2)}"
            if url is not None:
                try:
                    status, payload = http_get_json(url + "/v1/health")
                    healthy = status == 200 and payload.get("status") == "ready"
                except (OSError, ValueError):
                    pass
                if healthy:
                    return child, url, time.perf_counter() - child.started
            time.sleep(0.002)
        raise RuntimeError(f"server did not become healthy: {child.stderr_text()[-2000:]}")
    finally:
        if not healthy:
            child.stop()
