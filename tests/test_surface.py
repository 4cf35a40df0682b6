"""The public surface: every public function, class, method or property has
a caller outside the tests.

A public name is a top-level ``def`` or ``class`` in ``src/memlog``, or a
``def`` in the body of such a class, whose name does not start with an
underscore.  It has a caller when code in ``src/memlog``, ``perfbench`` or
``benchmarks`` refers to it: an AST ``Name``, ``Attribute`` or import alias
outside the body of a definition of that name.  Docstrings and comments do
not count.  A name the tests alone use is dead code, unless it is listed
below with a reason.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memlog"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks")

#: Public names that need no caller outside the tests, each with its reason.
ALLOWED = {
    "sgns_pair_step": "reference oracle: the tests tie the skip-gram epoch to it",
    "sgns_pair_loss": "reference oracle: criterion 03 and the epoch's pair-objective test use it",
    "parse_pe": "required by acceptance criterion 10 (PE header features)",
}


def public_definitions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body)


def public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from public_definitions(ast.parse(path.read_text(encoding="utf-8")).body)


def references(node, enclosing=frozenset()):
    """Names that ``node`` refers to, except inside a definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    else:
        name = None
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from references(child, enclosing)


def reference_counts() -> Counter:
    return Counter(
        name
        for directory in CALLER_DIRS
        for path in directory.glob("*.py")
        for name in references(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    names = list(public_names())
    assert "train_classifier" in names and "cmd_agent" in names and "node_count" in names
    counts = reference_counts()
    uncalled = sorted(name for name in names if not counts[name])
    assert uncalled == sorted(ALLOWED)
