"""Every function, class and method of ``bbt`` has a caller in the program.

The program is ``src/bbt`` and ``scripts/``.  A definition counts as used
when some name or attribute read there, outside the definition itself and
outside the package's ``__init__.py``, has its name.  Names are matched
across modules and classes, so a used name covers every definition of it.
Dunder methods are called by the language and are not checked.  An API that
only tests call belongs in the tests.

A parameter with a default is likewise passed by some call in the
program: by keyword, by position or through ``*``/``**``.  Calls are
matched by name as definitions are; a class's ``__init__`` is called by the
class name, or by ``super().__init__`` in a class derived from it.  A
record class's generated constructor counts as an ``__init__`` whose last
fields default to its ``_defaults``.  A setting only tests pass belongs in
the tests too.

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

# (qualified name, parameter): defaults kept that no call in the program passes
DEFAULTS_ALLOWED = {
    ("main", "argv"): "the console script calls main(); argv is for embedding the CLI",
    ("plan_request_from_domain", "max_iterations"): "the README documents it for wide domains",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _record_fields(node: ast.ClassDef) -> tuple[list[str], list[str]]:
    """A record class's fields and those its ``_defaults`` cover; ``[], []`` for other classes.

    A record class lists its fields as a tuple in ``__slots__`` and the
    defaults of the last ones as a tuple in ``_defaults``; its constructor,
    made from those two, takes the fields in order.
    """
    assigned = {
        target.id: stmt.value
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    slots, defaults = assigned.get("__slots__"), assigned.get("_defaults")
    if not (isinstance(slots, ast.Tuple) and isinstance(defaults, ast.Tuple)):
        return [], []
    fields = [field.value for field in slots.elts]
    return fields, fields[len(fields) - len(defaults.elts) :]


def _defaulted(module: ast.Module):
    """Each function, method or record class with a parameter that has a default.

    Yields the top-level name, the qualified name, the name calls use (the
    class name for ``__init__`` and for a record class's generated
    constructor), the parameters a call fills by position (a method's first
    one left out) and the names of those with a default.
    """
    stack = [(module, None, "")]
    while stack:
        node, owner, prefix = stack.pop()
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                stack.append((item, item, f"{prefix}{item.name}."))
                fields, defaults = _record_fields(item)
                if defaults:
                    qualname = f"{prefix}{item.name}"
                    yield qualname.split(".")[0], qualname, item.name, fields, defaults, item
            elif isinstance(item, _FUNCTIONS):
                stack.append((item, None, f"{prefix}{item.name}."))
                args = item.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if not defaulted:
                    continue
                method = owner is not None
                called = owner.name if method and item.name == "__init__" else item.name
                qualname = f"{prefix}{item.name}"
                yield qualname.split(".")[0], qualname, called, positional[method:], defaulted, item


def _calls(module: ast.Module):
    """Each call in ``module``: the names it calls, the call and the definitions around it.

    ``super().__init__(...)`` calls the ``__init__`` of each base named in
    the class around it.
    """
    stack = [(module, ())]
    while stack:
        node, around = stack.pop()
        if isinstance(node, _DEFS):
            around = around + (node,)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield (func.id,), node, around
            elif isinstance(func, ast.Attribute):
                inner = func.value
                if (
                    func.attr == "__init__"
                    and isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "super"
                ):
                    cls = next(d for d in reversed(around) if isinstance(d, ast.ClassDef))
                    yield tuple(b.id for b in cls.bases if isinstance(b, ast.Name)), node, around
                else:
                    yield (func.attr,), node, around
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def _passed(call: ast.Call, positional: list[str]) -> set[str] | None:
    """The parameters ``call`` passes, or None when ``*`` or ``**`` may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if any(k.arg is None for k in call.keywords):
        return None
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def test_no_default_is_passed_by_tests_only():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    modules = {path: _parse(path) for path in sources}
    calls: dict[str, list[tuple]] = {}
    for module in modules.values():
        for names, call, around in _calls(module):
            for name in names:
                calls.setdefault(name, []).append((call, around))
    unpassed = []
    for path, module in modules.items():
        if path.parent != PACKAGE:
            continue
        for top, qualname, called, positional, defaulted, node in _defaulted(module):
            if top in ALLOWED:
                continue
            passed: set[str] = set()
            for call, around in calls.get(called, ()):
                if node in around:
                    continue
                names = _passed(call, positional)
                passed |= set(defaulted) if names is None else names
            for name in defaulted:
                if name not in passed and (qualname, name) not in DEFAULTS_ALLOWED:
                    unpassed.append(f"{path.relative_to(REPO)}:{node.lineno} {qualname}({name})")
    assert not unpassed, "defaults no call in the program passes:\n" + "\n".join(unpassed)


def test_defaults_allowlist_names_parameters():
    found = {
        (qualname, name)
        for path in PACKAGE.glob("*.py")
        for _, qualname, _, _, defaulted, _ in _defaulted(_parse(path))
        for name in defaulted
    }
    assert set(DEFAULTS_ALLOWED) <= found


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
