"""Source rules checked on the package's syntax tree.

Text files are read as UTF-8 on every platform: a read-mode `open` without
`encoding=` decodes with the locale's encoding, so the same graph file
would load under one locale and fail (or misread) under another.

Library code keeps no state of its own between calls beyond the listed
module-level caches, and changes no interpreter-global state: a caller's
recursion limit, warning filters, random seed and environment are its own.
"""
import ast
from pathlib import Path

import geowl

SOURCES = sorted(Path(geowl.__file__).parent.glob("*.py"))


def _mode(call):
    """The literal mode of an open() call: "r" when absent or not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return given[0].value if given and isinstance(given[0], ast.Constant) else "r"


def _text_reads(tree):
    """(function name, call) of each text-mode read `open(...)` call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            if not set(_mode(node)) & set("waxb"):
                found.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_every_text_read_names_its_encoding():
    bad = [
        f"{path.name}:{call.lineno} in {func}"
        for path in SOURCES
        for func, call in _text_reads(ast.parse(path.read_text(encoding="utf-8")))
        if not any(k.arg == "encoding" for k in call.keywords)
    ]
    assert SOURCES
    assert not bad, "open() for reading without encoding=: " + ", ".join(bad)


def test_graph_read_json_is_the_only_file_reader():
    readers = [
        (path.name, func)
        for path in SOURCES
        for func, _ in _text_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert readers == [("graph.py", "read_json")]


# The dot-product caches; shrinking this list is progress, growing it is not.
MODULE_MUTABLES = ["linalg._dots", "linalg._vec_ids"]
MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
    "deque", "ChainMap", "WeakKeyDictionary", "WeakValueDictionary", "WeakSet",
}
GLOBAL_STATE_CALLS = {
    "sys.setrecursionlimit", "warnings.simplefilter", "warnings.filterwarnings",
    "random.seed", "os.putenv", "os.unsetenv", "os.environ.update",
    "os.environ.setdefault", "os.environ.pop", "os.environ.popitem", "os.environ.clear",
}


def _module_statements(body):
    """Statements run at import: module level, inside if/try/with but not
    inside a def or class."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_statements(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_statements(handler.body)


def _is_mutable_container(value) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return getattr(func, "id", getattr(func, "attr", None)) in MUTABLE_CALLS
    return False


def test_module_level_mutable_containers_are_the_listed_caches():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in _module_statements(tree.body):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if _is_mutable_container(value):
                found += [f"{path.stem}.{ast.unparse(t)}" for t in targets]
    assert sorted(found) == MODULE_MUTABLES


def _dotted_name_of(tree):
    """A function from a name or attribute-chain node of tree to its dotted
    name, with import aliases resolved: in a module that does
    `from os import environ as e`, the node `e` gives "os.environ"."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    return dotted


def test_library_changes_no_interpreter_global_state():
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dotted = _dotted_name_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and dotted(node.func) in GLOBAL_STATE_CALLS:
                bad.append(f"{path.name}:{node.lineno} calls {dotted(node.func)}")
            targets = (
                node.targets if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for t in targets:
                if dotted(t.value if isinstance(t, ast.Subscript) else t) == "os.environ":
                    bad.append(f"{path.name}:{node.lineno} writes os.environ")
    assert not bad, "; ".join(bad)
