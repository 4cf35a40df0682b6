"""The public surface: every public function or class has a caller outside the tests.

A public name is a top-level ``def`` or ``class`` in ``src/memlog`` whose
name does not start with an underscore.  It has a caller when the name
appears as a whole word in ``src/memlog``, ``perfbench`` or
``benchmarks`` anywhere other than its own definition line.  A name the
tests alone use is dead code, unless it is listed below with a reason.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memlog"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks")

#: Public names that need no caller outside the tests, each with its reason.
ALLOWED = {
    "sgns_pair_step": "reference oracle: the tests tie the skip-gram epoch to it",
    "parse_pe": "required by acceptance criterion 10 (PE header features)",
}


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_definition and not node.name.startswith("_"):
                yield node.name


def word_count(name: str) -> int:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return sum(
        len(pattern.findall(path.read_text(encoding="utf-8")))
        for directory in CALLER_DIRS
        for path in directory.glob("*.py")
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    names = list(public_definitions())
    assert "train_classifier" in names and "cmd_agent" in names
    uncalled = sorted(name for name in names if word_count(name) < 2)
    assert uncalled == sorted(ALLOWED)
