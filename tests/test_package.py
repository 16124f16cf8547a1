"""The package's top-level names are exactly the public surface.

That surface is what the acceptance suite imports from ``caresim``, at the
top of the module or inside a test body, plus ``ConfigError``, which every
malformed input raises. No module of the package keeps an import it never uses,
only ``caresim.config`` opens, reads or writes files, and no command-line flag
reads its number with the builtin ``int`` or ``float``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import caresim

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_all_is_what_the_acceptance_suite_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "caresim"
        for alias in node.names
    }
    assert "compute_reward" in imported  # imported inside a test body
    assert set(caresim.__all__) == imported | {"ConfigError"}
    assert len(caresim.__all__) == len(set(caresim.__all__))
    for name in caresim.__all__:
        assert getattr(caresim, name) is not None


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(caresim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []


# calls that open, read or write a file: a bare ``open``, a method (``.name``),
# or a function of the csv and json modules
FILE_CALLS = {"open", ".open", ".read_bytes", ".read_text", ".write_bytes", ".write_text",
              "csv.reader", "csv.writer", "json.dump", "json.load"}


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in ("csv", "json"):
            return f"{func.value.id}.{func.attr}"
        return f".{func.attr}"
    return None


def _file_calls(node: ast.AST, scope: str):
    """(innermost enclosing function, call) of each file call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _call_name(child.func) in FILE_CALLS:
            yield scope, _call_name(child.func)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _file_calls(child, inner)


def test_only_config_touches_files():
    calls = {
        (path.name, scope, name)
        for path in Path(caresim.__file__).parent.glob("*.py")
        for scope, name in _file_calls(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    }
    in_config = {name for module, _, name in calls if module == "config.py"}
    assert {".open", ".read_bytes"} <= in_config  # the scan sees config's own I/O (os.open, Path.read_bytes)
    assert {call for call in calls if call[0] != "config.py"} == set()


def test_no_module_reads_another_objects_private_attribute():
    # a single-underscore attribute is read only through ``self`` or ``cls``; dunders are public protocol
    reads = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(Path(caresim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert reads == []


def test_no_flag_reads_its_number_with_a_builtin():
    # ``int`` and ``float`` take other scripts' digits, ``_`` and surrounding whitespace; a flag's
    # number is read by ``config.integer`` or ``config.number``, as a CSV cell is
    cli = Path(caresim.__file__).with_name("cli.py")
    builtin = [
        f"cli.py:{node.lineno} type={keyword.value.id}"
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "type" and isinstance(keyword.value, ast.Name) and keyword.value.id in ("int", "float")
    ]
    assert builtin == []
