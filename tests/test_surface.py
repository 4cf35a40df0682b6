"""The public surface: every public function, class, method or property has
a caller outside the tests, and every setting is passed by one.

A public name is a top-level ``def`` or ``class`` in ``src/memlog``, or a
``def`` in the body of such a class, whose name does not start with an
underscore.  It has a caller when code in ``src/memlog``, ``perfbench`` or
``benchmarks`` refers to it: an AST ``Name``, ``Attribute`` or import alias
outside the body of a definition of that name.  Attributes read off a
module the file imports from outside memlog (``np.empty``, ``os.path.join``)
and docstrings and comments do not count.  A name the tests alone use is dead code, unless it is listed
below with a reason.

A setting is a defaulted parameter of a public function or method (a class's
``__init__`` counts as the class) or a defaulted field of a public dataclass.
It is passed when a call to that name in the same directories gives it, by
keyword, by position or through ``*``/``**``.  A setting only the tests pass
should be a constant.

A flag is a settable value too: every destination of a subcommand's
arguments is read by that subcommand's function.
"""
import argparse
import ast
import inspect
import textwrap
from collections import Counter
from pathlib import Path

from memlog.cli import build_parser
from memlog.logmodel import _SCHEMA

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memlog"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks")

#: Public names that need no caller outside the tests, each with its reason.
ALLOWED = {
    "sgns_pair_step": "reference oracle: the tests tie the skip-gram epoch to it",
    "sgns_pair_loss": "reference oracle: criterion 03 and the epoch's pair-objective test use it",
    "parse_pe": "required by acceptance criterion 10 (PE header features)",
}

#: Dataclasses whose fields are a record's contents, not settings: the code
#: that reads or builds a record fills them one by one.
RECORD_TYPES = {cls.__name__ for cls in _SCHEMA} | {"CleaningReport", "GroupedTokens"}


def public_definitions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body)


def public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from public_definitions(ast.parse(path.read_text(encoding="utf-8")).body)


def outside_modules(tree: ast.Module) -> set[str]:
    """Names that ``import`` statements bind to modules outside memlog: ``np``, ``os``, …"""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] != "memlog"
    }


def read_off(node: ast.expr, modules: set[str]) -> bool:
    """Whether ``node`` is one of ``modules`` or an attribute chain starting at one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def references(node, outside: set[str], enclosing=frozenset()):
    """Names that ``node`` refers to, except inside a definition of the same name
    and attributes read off the modules named in ``outside``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = None if read_off(node.value, outside) else node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    else:
        name = None
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from references(child, outside, enclosing)


def reference_counts() -> Counter:
    trees = (
        ast.parse(path.read_text(encoding="utf-8"))
        for directory in CALLER_DIRS
        for path in directory.glob("*.py")
    )
    return Counter(name for tree in trees for name in references(tree, outside_modules(tree)))


def test_attributes_of_outside_modules_are_not_references():
    tree = ast.parse(
        "import numpy as np\nimport os.path\nfrom . import kernels\n"
        "np.empty(1)\nos.path.join('a')\nkernels.count_pairs(offsets, window)\n"
    )
    names = set(references(tree, outside_modules(tree)))
    assert {"kernels", "count_pairs"} <= names and not {"empty", "join"} & names


def test_every_public_name_has_a_caller_outside_the_tests():
    names = list(public_names())
    assert "train_classifier" in names and "cmd_agent" in names and "node_count" in names
    counts = reference_counts()
    uncalled = sorted(name for name in names if not counts[name])
    assert uncalled == sorted(ALLOWED)


def defaulted_parameters(function: ast.FunctionDef, skip_self: bool):
    """(name, position) per defaulted parameter; a keyword-only one has no position."""
    args = function.args
    positional = (args.posonlyargs + args.args)[1 if skip_self else 0:]
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        ast.unparse(decorator).partition("(")[0] == "dataclass"
        for decorator in node.decorator_list
    )


def defaulted_fields(node: ast.ClassDef):
    """(name, position) per defaulted field that the dataclass's ``__init__`` takes."""
    init_fields = [
        stmt for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and "init=False" not in ast.unparse(stmt)
    ]
    for index, stmt in enumerate(init_fields):
        if stmt.value is not None:
            yield stmt.target.id, index


def settings():
    """(label, callee, parameter, position) per setting; a call names ``callee``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for name, position in defaulted_parameters(node, skip_self=False):
                    yield f"{node.name}.{name}", node.name, name, position
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if is_dataclass(node) and node.name not in RECORD_TYPES:
                    for name, position in defaulted_fields(node):
                        yield f"{node.name}.{name}", node.name, name, position
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    if method.name == "__init__":
                        label, callee = node.name, node.name
                    elif not method.name.startswith("_"):
                        label, callee = f"{node.name}.{method.name}", method.name
                    else:
                        continue
                    for name, position in defaulted_parameters(method, skip_self=True):
                        yield f"{label}.{name}", callee, name, position


def passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` gives the parameter by keyword, by position or through ``*``/``**``."""
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return position is not None and any(
        index == position or isinstance(arg, ast.Starred) for index, arg in enumerate(call.args)
    )


def calls_by_callee() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for directory in CALLER_DIRS:
        for path in directory.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(callee, []).append(node)
    return calls


def test_every_setting_is_passed_outside_the_tests():
    found = list(settings())
    labels = {label for label, *_ in found}
    assert {"GbdtParams.trees", "load_detector.audit_path", "build_vocab.min_count"} <= labels
    calls = calls_by_callee()
    unpassed = sorted(
        label
        for label, callee, name, position in found
        if not any(passes(call, name, position) for call in calls.get(callee, ()))
    )
    assert not unpassed, f"settings that only the tests pass: {unpassed}"


def reads_of_args(function) -> set[str]:
    """Names ``function`` reads off ``args``: ``args.X`` or ``getattr(args, "X")``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and getattr(node.args[0], "id", None) == "args"
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_every_flag_is_read_by_its_command():
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"gen", "train", "evaluate", "predict", "serve", "agent"}
    unread = sorted(
        f"{command} --{action.dest}"
        for command, subparser in subparsers.choices.items()
        for action in subparser._actions
        if action.dest not in ("help", "config", "func")
        and action.dest not in reads_of_args(subparser.get_default("func"))
    )
    assert not unread, f"settable values their command ignores: {unread}"
