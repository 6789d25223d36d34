"""Every function, class and method of ``bbt`` has a caller in the program.

The program is ``src/bbt`` and ``scripts/``.  A definition counts as used
when some name or attribute read there, outside the definition itself and
outside the package's ``__init__.py``, has its name.  Names are matched
across modules and classes, so a used name covers every definition of it.
Dunder methods are called by the language and are not checked.  An API that
only tests call belongs in the tests.

Likewise every name a program module imports is read in that module, so a
deletion leaves no import behind.  The package's ``__init__.py`` imports to
re-export and is not checked; its ``__all__`` lists exactly the names it
imports, each of which resolves.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "bbt"

# top-level names kept without a caller, with the methods of such a class
ALLOWED = {
    "draw": "the README documents it as the reference definition of the exec draw",
    "CounterRng": "the README documents it with draw; the benchmark tracer calibrates with it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(module: ast.Module):
    """Top-level functions and classes, and the methods of those classes.

    Yields the top-level name, the qualified name and the definition.
    """
    for node in module.body:
        if isinstance(node, _DEFS):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("__"):
                    yield node.name, f"{node.name}.{item.name}", item


def _reads(module: ast.Module):
    """Each name or attribute read in ``module``, with the definitions around it."""
    stack = [(module, ())]
    while stack:
        node, around = stack.pop()
        if isinstance(node, _DEFS):
            around = around + (node,)
        if isinstance(node, ast.Name):
            yield node.id, around
        elif isinstance(node, ast.Attribute):
            yield node.attr, around
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def test_no_definition_is_used_by_tests_only():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    modules = {path: _parse(path) for path in sources}
    reads: dict[str, list[tuple]] = {}
    for path, module in modules.items():
        if path.name == "__init__.py" and path.parent == PACKAGE:
            continue
        for name, around in _reads(module):
            reads.setdefault(name, []).append(around)
    unused = []
    for path, module in modules.items():
        if path.parent != PACKAGE:
            continue
        for top, qualname, node in _definitions(module):
            if top in ALLOWED:
                continue
            if not any(node not in around for around in reads.get(node.name, ())):
                unused.append(f"{path.relative_to(REPO)}:{node.lineno} {qualname}")
    assert not unused, "defined in src/bbt but called only by tests:\n" + "\n".join(unused)


def _imported(module: ast.Module):
    """Each name an import in ``module`` binds, with the import's line."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names_read(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, those in string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
            continue
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_reads():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    unread = []
    for path in sources:
        if path.name == "__init__.py" and path.parent == PACKAGE:
            continue
        module = _parse(path)
        read = _names_read(module)
        for name, line in _imported(module):
            if name not in read:
                unread.append(f"{path.relative_to(REPO)}:{line} {name}")
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def test_allowlist_names_definitions():
    names = {top for path in PACKAGE.glob("*.py") for top, _, _ in _definitions(_parse(path))}
    assert set(ALLOWED) <= names


def test_all_lists_exactly_the_names_the_package_imports():
    import bbt

    imported = [name for name, _ in _imported(_parse(PACKAGE / "__init__.py"))]
    assert len(bbt.__all__) == len(set(bbt.__all__))
    assert set(bbt.__all__) == set(imported)
    for name in bbt.__all__:
        assert getattr(bbt, name).__module__.startswith("bbt."), name
