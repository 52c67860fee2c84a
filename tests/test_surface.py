"""The package holds what its commands, demos and benchmark run.

Every name in a module's ``__all__``, and every public method of a class
listed there, must be referenced in ``src/ymheat``, ``demos/`` or
``perfbench/*.py`` (not the benchmark's tests) outside its own
definition.  An entry of ``perfbench/tracing.py``'s ``BOUNDARIES`` counts
as a reference.  References are matched by identifier, a method's by
attribute name alone, so ``np.exp`` would hide a method ``exp``: the
guard finds names nothing refers to, not names that only other unused
code refers to.

Every module of ``src/ymheat`` but ``__init__`` must be imported by
another of them, a demo or a ``perfbench/*.py`` (not the benchmark's
tests): no module exists only for its tests.

Every name a ``tests/*.py`` module imports (``from __future__`` aside)
must be read in that module.

No module of ``src/ymheat`` imports SciPy, at its top or inside a
function: the package runs on NumPy alone, and SciPy is the tests' oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parsed():
    files = [*sorted((ROOT / "src" / "ymheat").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py")),
             *sorted(p for p in (ROOT / "perfbench").glob("*.py")
                     if p.name != "test_perfbench.py")]
    return {p: ast.parse(p.read_text(), str(p)) for p in files}


def _assigned(node):
    return [t.id for t in getattr(node, "targets", ())
            if isinstance(t, ast.Name)]


def _boundaries(trees):
    """(module, "name" or "Class.method") pairs the tracer binds."""
    tree = trees[ROOT / "perfbench" / "tracing.py"]
    for node in tree.body:
        if _assigned(node) == ["BOUNDARIES"]:
            return {(mod, attr)
                    for _, mod, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py has no BOUNDARIES")


def _exported(tree):
    """(label, definition node, is a method) for each name in __all__ and
    each public method of a class in it."""
    names = next((ast.literal_eval(node.value) for node in tree.body
                  if _assigned(node) == ["__all__"]), ())
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        for name in _assigned(node):
            defs[name] = node
    for name in names:
        node = defs[name]
        yield name, node, False
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef)
                        and not meth.name.startswith("_")):
                    yield f"{name}.{meth.name}", meth, True


def _unreferenced():
    trees = _parsed()
    bound = _boundaries(trees)
    # identifier -> (path, line, is an attribute) of every use
    uses = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno,
                                                       True))
    missing = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "ymheat":
            continue
        module = f"ymheat.{path.stem}"
        for label, node, is_method in _exported(tree):
            if (module, label) in bound:
                continue
            ident = label.rsplit(".", 1)[-1]
            inside = range(node.lineno, node.end_lineno + 1)
            if not any((p != path or line not in inside)
                       and (attr or not is_method)
                       for p, line, attr in uses.get(ident, [])):
                missing.append(f"{module}.{label}")
    return missing


def test_every_public_library_name_has_a_caller_outside_the_tests():
    missing = _unreferenced()
    assert not missing, "no caller outside the tests: " + ", ".join(missing)


def _imported_modules(tree):
    """The modules a parsed file's import statements name, dotted; its
    relative imports resolve inside ``ymheat``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # from . import x, from .x import y
                base = ".".join(filter(None, ["ymheat", base]))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def test_every_library_module_is_imported_outside_the_tests():
    trees = _parsed()
    modules = {f"ymheat.{p.stem}": p
               for p in sorted((ROOT / "src" / "ymheat").glob("*.py"))
               if p.stem != "__init__"}
    unimported = [name for name, path in modules.items()
                  if not any(name in _imported_modules(tree)
                             for p, tree in trees.items() if p != path)]
    assert not unimported, "imported only by the tests: " + \
        ", ".join(unimported)


def _unread_imports(path):
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{path.name}:{name}" for name in imported if name not in read]


def test_every_test_import_is_read():
    unread = [name for path in sorted((ROOT / "tests").glob("*.py"))
              for name in _unread_imports(path)]
    assert not unread, "imported and never read: " + ", ".join(unread)


def test_no_library_module_imports_scipy():
    found = [path.name for path, tree in _parsed().items()
             if path.parent == ROOT / "src" / "ymheat"
             and any(name.split(".")[0] == "scipy"
                     for name in _imported_modules(tree))]
    assert not found, "imports SciPy: " + ", ".join(found)
