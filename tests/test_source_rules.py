"""Source rules checked on the package's syntax tree.

Text files are read as UTF-8 on every platform: a read-mode `open` without
`encoding=` decodes with the locale's encoding, so the same graph file
would load under one locale and fail (or misread) under another.
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
