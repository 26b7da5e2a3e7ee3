"""Source rules checked on the package's syntax tree.

Text files are read as UTF-8 on every platform: a read-mode `open` without
`encoding=` decodes with the locale's encoding, so the same graph file
would load under one locale and fail (or misread) under another.

Whether a vector extends a basis is decided by `linalg.extends` alone, so
`det` is called only inside `linalg.py`: a determinant anywhere else would
be a second independence test.

Library code keeps no state of its own between calls beyond the listed
module-level caches, and changes no interpreter-global state: a caller's
recursion limit, warning filters, random seed and environment are its own.

A number enters a numeric mode in `numeric.py` (`NumericContext.coerce`)
and `graph.py` (the loader, `graph.as_float`) alone, so no other module
makes a context, except the one shared exact context `objects._EXACT`.

A label table of `objects.orbit_equal` is made per registry, or per call
when the caller passes none, so its labels last one compared pair at most.
The maps it records for interned objects, the colours it keeps by label and
the last map that matched are written and read only through such a table.
"""
import ast
from pathlib import Path

import geowl

SOURCES = sorted(Path(geowl.__file__).parent.glob("*.py"))


def _mode(call):
    """The literal mode of an open() call: "r" when absent or not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return given[0].value if given and isinstance(given[0], ast.Constant) else "r"


def _calls(tree, keep):
    """(enclosing function name, call) of each call in tree that keep
    accepts; the name is None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and keep(node):
            found.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _text_reads(tree):
    """(function name, call) of each text-mode read `open(...)` call."""
    return _calls(
        tree,
        lambda call: getattr(call.func, "id", None) == "open" and not set(_mode(call)) & set("waxb"),
    )


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


def test_det_is_called_only_in_linalg():
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dotted = _dotted_name_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (dotted(node.func) or "").split(".")[-1] == "det":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls and all(c.startswith("linalg.py:") for c in calls), calls


CONTEXT_MAKERS = {"NumericContext", "exact_context", "float_context"}


def test_numeric_contexts_are_made_only_where_numbers_enter_a_mode():
    made = []
    for path in SOURCES:
        if path.name in ("numeric.py", "graph.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dotted = _dotted_name_of(tree)
        module_level = {
            id(stmt.value): f"{path.stem}.{ast.unparse(stmt.targets[0])}"
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (dotted(node.func) or "").split(".")[-1] in CONTEXT_MAKERS:
                made.append(module_level.get(id(node), f"{path.name}:{node.lineno}"))
    assert made == ["objects._EXACT"], made


def test_label_tables_are_made_only_per_registry_or_per_call():
    # a label table caches labels by pinned map and by id(obj) for as long
    # as it lives: one per registry keeps it to one compared pair, and
    # anywhere else (at import, say) it could outlive the pair
    made = [
        (path.name, func)
        for path in SOURCES
        for func, _ in _calls(
            ast.parse(path.read_text(encoding="utf-8")),
            lambda call: getattr(call.func, "id", getattr(call.func, "attr", None)) == "label_table",
        )
    ]
    assert made == [("objects.py", "orbit_equal"), ("registry.py", "__init__")]


def _table_writes(tree):
    """(enclosing function name, written expression) of each assignment to,
    or mutating method call on, an item of a label table's entry k, read as
    `<expr>[k]` with k the literal 5 or 6; the name is None at module level."""
    found = []

    def entry(node):
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value in (5, 6)
        )

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Subscript) and entry(target.value):
                found.append((func, ast.unparse(target.value)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and entry(node.func.value):
            if node.func.attr in ("setdefault", "update", "pop", "popitem", "clear", "append", "extend"):
                found.append((func, ast.unparse(node.func.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_recorded_maps_are_kept_only_in_a_label_table():
    # a recorded map, a colour kept by label and the last map that matched
    # are kept by id(obj) or by label for as long as their table lives, so
    # they are written and read only through a table the caller passes: the
    # registry's own, or orbit_equal's per call, never one at module level
    table_arg = {"carried_match": 1, "record_map": 0, "record_colour": 0}
    calls = [
        (path.name, func, call.func.id, ast.unparse(call.args[table_arg[call.func.id]]))
        for path in SOURCES
        for func, call in _calls(
            ast.parse(path.read_text(encoding="utf-8")),
            lambda call: getattr(call.func, "id", None) in table_arg,
        )
    ]
    assert calls == [
        ("objects.py", "carried_match", "record_map", "table"),
        ("objects.py", "orbit_equal", "record_map", "table"),
        ("registry.py", "intern_orbit", "carried_match", "self._label_table"),
        ("registry.py", "intern_orbit", "record_colour", "self._label_table"),
    ]
    writes = [
        (path.name, func, written)
        for path in SOURCES
        for func, written in _table_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert writes == [
        ("objects.py", "record_map", "table[6]"),
        ("objects.py", "record_colour", "table[5]"),
    ]
