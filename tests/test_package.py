"""The package's top-level names are exactly the public surface.

That surface is what the acceptance suite imports from ``caresim``, at the
top of the module or inside a test body, plus ``ConfigError``, which every
malformed input raises. No module of the package keeps an import it never uses,
the modules import one another in one direction only, only ``caresim.config``
opens, reads or writes files, and no command-line flag reads its number with the
builtin ``int`` or ``float``.
"""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
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


PACKAGE = Path(caresim.__file__).parent


def _imported_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules an import statement loads, by file stem; ``__init__`` is the package itself."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif node.level:
        base = "caresim" + (f".{node.module}" if node.module else "")
        dotted = [base, *(f"{base}.{alias.name}" for alias in node.names)]
    else:
        dotted = [node.module or ""]
    stems = set()
    for name in dotted:
        head, _, rest = name.partition(".")
        if head == "caresim":
            stem = rest.partition(".")[0] or "__init__"
            if (PACKAGE / f"{stem}.py").exists():
                stems.add(stem)
    return stems


def _imports(node: ast.AST, in_function: bool = False, type_checking: bool = False):
    """(line, module imported, inside a function, under ``if TYPE_CHECKING:``) of each package import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            for module in _imported_modules(child):
                yield child.lineno, module, in_function, type_checking
        inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        guarded = type_checking or (isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING")
        yield from _imports(child, inner, guarded)


def test_modules_import_one_another_in_one_direction():
    # a function-level import hides a cycle until the call; only ``llm`` (the HTTP stack) loads late, by design
    graph: dict[str, set[str]] = {}
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = set()
        for line, module, in_function, type_checking in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if in_function and module != "llm":
                late.append(f"{path.name}:{line} {module}")
            if not (in_function or type_checking):
                graph[path.stem].add(module)
    assert late == []
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert graph["config"] == set()
    assert "agent" not in graph["evaluation"] | graph["session"]


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
