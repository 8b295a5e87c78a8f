"""Module layout guard for the ``entropik`` package.

Ten rules, checked on the source with ``ast``:

* no module imports an underscore-prefixed name from another ``entropik``
  module (shared helpers live under a public name in one home module);
* every module-level import is used (names listed in ``__all__`` count);
* no function imports from an ``entropik`` module that its file already
  imports at module level (a deferred import only breaks a cycle);
* only ``entropik._ratio`` imports ``fractions`` (the one home of the
  coefficient type);
* no function assigns a local or takes a parameter that nothing in it
  (nested functions included) reads; names starting with ``_``, and
  ``self``/``cls``, are exempt;
* every field of a ``@dataclass`` in the package is read as an attribute
  (``x.field``) somewhere in ``src/``, ``tests/``, ``perfbench/`` or
  ``tools/``;
* every public top-level function and class of the package is read by
  name (``f`` or ``x.f``), and every public method or property as an
  attribute (``x.f``), somewhere in ``src/``, ``perfbench/`` or
  ``tools/``: a read in ``tests/`` alone does not keep test-only API in
  the package.  Dunders are exempt, and so are functions that a decorator
  call registers (the click commands);
* no function stores into, deletes from, rebinds through ``global``, or
  calls a mutating method (``append``, ``add``, ``update``, ``setdefault``,
  ``pop``, ...) of a module-level name of its module, except
  ``expr._ATOM_CACHE``: state lives in objects a call builds, so a call
  in a long-lived process does what it does in a fresh one.  The rule
  reads the name itself, not an attribute of it (``Atom._interned``);
* a call passes an underscore-prefixed keyword (``_canonical=``) only in
  the module that defines a function taking that parameter: a private
  parameter is its module's own shortcut, and other modules go through
  the public constructors (``Expr.poly``);
* every entry of a module's ``__all__`` names a module-level definition
  or import of that module, so an export outlives no deleted function.

The sixth and seventh rules match a name, not a class: a read of ``x.name``
counts for every field or method of that name in any class.  A bare ``name``
never keeps a method or a field: only a function or class is read so.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entropik"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = sorted(
    path
    for top in ("src", "tests", "perfbench", "tools")
    for path in (ROOT / top).rglob("*.py")
)
PROGRAM = [path for path in READERS if path.relative_to(ROOT).parts[0] != "tests"]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_internal(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "entropik"


def _internal_module(node):
    """The imported ``entropik`` module, relative to the package."""
    if node.level > 0:
        return node.module or ""
    return (node.module or "").partition(".")[2]


def _bound_names(node):
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    bad = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and _is_internal(node)
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert not bad, f"{path.name} imports private names: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    dead = sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)
    assert not dead, f"{path.name} has unused imports: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_deferred_import_of_a_module_imported_at_top(path):
    tree = _tree(path)
    top = {
        _internal_module(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and _is_internal(node)
    }
    bad = {
        f"line {inner.lineno}: from {inner.module or '.'}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(fn)
        if isinstance(inner, ast.ImportFrom)
        and _is_internal(inner)
        and _internal_module(inner) in top
    }
    assert not bad, f"{path.name} defers imports it already has at the top: {sorted(bad)}"


def _imports_fractions(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "fractions"
    )


def test_only_the_ratio_module_imports_fractions():
    importers = sorted(
        path.name
        for path in MODULES
        if any(_imports_fractions(node) for node in ast.walk(_tree(path)))
    )
    assert importers == ["_ratio.py"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """Nodes of ``fn``'s body outside nested functions and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_names(fn):
    """Parameters and assigned locals of ``fn`` that nothing in it reads."""
    a = fn.args
    bound = {
        x.arg: x.lineno
        for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
        if x is not None
    }
    outer = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
    read = {
        n.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for name, line in bound.items():
        if name in read or name in outer or name in ("self", "cls"):
            continue
        if not name.startswith("_"):
            yield f"line {line}: {fn.name}: {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_and_parameter_is_read(path):
    dead = sorted(
        entry
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for entry in _unread_names(fn)
    )
    assert not dead, f"{path.name} has unread names: {dead}"


def _is_dataclass(cls):
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    return any(
        ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1]
        == "dataclass"
        for d in cls.decorator_list
    )


def test_every_dataclass_field_is_read():
    fields = {
        (path.name, cls.name, stmt.target.id): stmt.lineno
        for path in MODULES
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    read = {
        n.attr
        for path in READERS
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(
        f"{module} line {line}: {cls}.{name}"
        for (module, cls, name), line in fields.items()
        if name not in read
    )
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _read_names(paths):
    """The names loaded as ``name`` and those loaded as ``x.name`` in
    ``paths``, as two sets."""
    bare, attrs = set(), set()
    for path in paths:
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                bare.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
    return bare, attrs


def _definitions(tree):
    """Top-level functions and classes, and the methods of each class, as
    ``(qualified name, node)``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _registered(node):
    """A function whose decorator is a call, like ``@main.command("split")``."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) for d in node.decorator_list
    )


def test_every_public_function_and_method_is_read_by_the_program():
    bare, attrs = _read_names(PROGRAM)
    unread = sorted(
        f"{path.name} line {node.lineno}: {qualified}"
        for path in MODULES
        for qualified, node in _definitions(_tree(path))
        if not node.name.startswith("_")
        and not _registered(node)
        and node.name not in (attrs if "." in qualified else bare | attrs)
    )
    assert not unread, f"public API only tests read: {unread}"


_MUTATORS = {
    "add", "append", "appendleft", "clear", "difference_update", "discard",
    "extend", "extendleft", "insert", "intersection_update", "pop", "popitem",
    "popleft", "remove", "reverse", "setdefault", "sort",
    "symmetric_difference_update", "update", "__setitem__", "__delitem__",
}
# (module, name): the one module-level store a function may write, the
# interned one-atom Exprs
MODULE_STATE = {("expr.py", "_ATOM_CACHE")}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _local_names(fn):
    """The parameters and the names ``fn`` binds itself, and the names it
    declares ``global``."""
    a = fn.args
    local = {
        x.arg
        for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
        if x is not None
    }
    declared = set()
    stack = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            local.update(_bound_names(node))
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return local - declared, declared


def _written_name(node):
    """The name ``node`` stores into, deletes from or mutates, if it is a
    bare name: ``x[k] = v``, ``del x[k]``, ``x.a = v`` or ``x.append(v)``."""
    if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
        node.ctx, (ast.Store, ast.Del)
    ):
        target = node.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        target = node.func.value
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _module_state_writes(path):
    tree = _tree(path)
    module = _module_names(tree)
    found = []

    def scan(node, scope):
        # ``scope`` is None outside functions, else the names that shadow
        # module-level ones there
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, _FUNCTIONS):
                local, declared = _local_names(child)
                found.extend(
                    (child.lineno, f"global {name}") for name in sorted(declared)
                )
                inner = (scope or set()) - declared | local
            elif scope is not None:
                name = _written_name(child)
                if name in module and name not in scope:
                    found.append((child.lineno, name))
            scan(child, inner)

    scan(tree, None)
    return [
        f"line {line}: {what}"
        for line, what in found
        if (path.name, what) not in MODULE_STATE
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_writes_module_state(path):
    writes = _module_state_writes(path)
    assert not writes, f"{path.name} writes module-level names: {writes}"


def _private_params(tree):
    """The underscore-prefixed parameter names of every function in ``tree``."""
    return {
        x.arg
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for x in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        if _is_private(x.arg)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_keywords_stay_in_their_module(path):
    tree = _tree(path)
    own = _private_params(tree)
    bad = sorted(
        f"line {node.lineno}: {kw.arg}="
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg is not None and _is_private(kw.arg) and kw.arg not in own
    )
    assert not bad, f"{path.name} passes another module's private keywords: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = _tree(path)
    stale = sorted(_exported(tree) - _module_names(tree))
    assert not stale, f"{path.name} exports undefined names: {stale}"
