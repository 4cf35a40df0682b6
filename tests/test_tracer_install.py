"""The traced benchmark still finds every name it patches.

``perfbench/tracing.py`` wraps memlog functions under the module names
their callers look them up by.  A refactor that renames or moves one of
them breaks the traced benchmark run; this test makes it fail here
instead.  The tracer installs in a child process, so its patches never
reach the modules this test session imports, and the child writes no
bytecode, so ``perfbench/`` is left as it was.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_CODE = """
import importlib, json, sys
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:3]
from tracing import _FUNCTIONS, Tracer
Tracer().install()
from memlog.gbdt import GbdtModel
from memlog.service import DetectorService
bindings = {
    f"{module}.{attribute}": getattr(importlib.import_module(module), attribute)
    for module, attribute, *_ in _FUNCTIONS
}
bindings["DetectorService.detect"] = DetectorService.detect
bindings["GbdtModel.version"] = GbdtModel.__dict__["version"].fget
print(json.dumps({name: hasattr(fn, "__wrapped__") for name, fn in bindings.items()}))
"""


def test_tracer_wraps_every_binding():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", INSTALL_CODE, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    wrapped = json.loads(result.stdout)
    assert {"memlog.service.parse_log", "DetectorService.detect", "GbdtModel.version"} <= set(wrapped)
    assert [name for name, ok in wrapped.items() if not ok] == []
