import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hmctransfer
from hmctransfer import cli

MODULES = [importlib.import_module(f"hmctransfer.{info.name}")
           for info in pkgutil.iter_modules(hmctransfer.__path__)]
ROOT = Path(__file__).resolve().parent.parent


def _sources(*patterns: str) -> list[Path]:
    """The repository's Python files matching the glob ``patterns``, sorted."""
    return sorted(path for pattern in patterns for path in ROOT.glob(pattern))


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_resolve(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_package_exports_are_module_exports():
    # the package has no __all__ of its own: its public names are the re-exports,
    # each of which a module lists in its __all__
    exported = {name for module in MODULES for name in getattr(module, "__all__", [])}
    public = {name for name, value in vars(hmctransfer).items()
              if not name.startswith("_") and value not in MODULES}
    assert public <= exported, sorted(public - exported)


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports():
    # no linter runs on the tree, so an import left behind by a deletion is caught
    # here; the package's __init__ is exempt, since its imports are the re-exports
    unused = {str(path.relative_to(ROOT)): names
              for path in _sources("src/hmctransfer/*.py", "tests/*.py", "bench/**/*.py")
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert not unused, unused


def _unread_assignments(path: Path) -> list[str]:
    """``function.name`` for each name a function in ``path`` assigns but never reads.

    Reads inside nested functions and lambdas count, since a closure reads its
    enclosing function's names; a name declared ``global`` or ``nonlocal`` is
    read elsewhere, and a name starting with ``_`` is discarded on purpose.
    """
    unread = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, shared = set(), set(), set()
        todo = list(func.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                # a nested scope's own assignments are checked when the walk reaches it
                read.update(name.id for name in ast.walk(node)
                            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load))
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            todo.extend(ast.iter_child_nodes(node))
        unread += [f"{func.name}.{name}" for name in sorted(stored - read - shared)
                   if not name.startswith("_")]
    return unread


def test_no_unread_assignments():
    # a name assigned and never read is dead code or a lost result; no linter
    # runs on the tree, so the functions of the package, its tests and the
    # benchmark are scanned here
    unread = {str(path.relative_to(ROOT)): names
              for path in _sources("src/hmctransfer/*.py", "tests/*.py", "bench/**/*.py")
              if (names := _unread_assignments(path))}
    assert not unread, unread


def _unread_parameters(path: Path) -> list[str]:
    """``function.name`` for each parameter of a function in ``path`` that its body
    never reads, ``self`` and names starting with ``_`` aside.

    Reads inside nested functions and lambdas count, since a closure reads its
    enclosing function's parameters.
    """
    unread = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if arg is not None]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{func.name}.{name}" for name in params
                   if name not in read and name != "self" and not name.startswith("_")]
    return unread


def test_no_unread_parameters():
    # a parameter left unread once its last caller stops passing it is dead API;
    # only the package is scanned, since pytest fixtures and the tracer's probes
    # take arguments they do not read on purpose
    unread = {str(path.relative_to(ROOT)): names for path in _sources("src/hmctransfer/*.py")
              if (names := _unread_parameters(path))}
    assert not unread, unread


def _writer_readers(path: Path) -> set[str]:
    """The functions of ``path``, by dotted name, that read one of the CLI's output
    writers, as a call or as a value; a read outside any function as ``<module>``."""
    writers = {"write_csv", "write_json", "write_manifest"}
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in writers and isinstance(getattr(child, "ctx", None), ast.Load):
                readers.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return readers


def test_only_cli_main_writes_outputs():
    # a runner computes from the config alone and main writes its tables, report
    # and manifest, so every subcommand's outputs take one path on every exit
    readers = {f"{path.stem}.{scope}" for path in _sources("src/hmctransfer/*.py")
               for scope in _writer_readers(path)}
    assert readers == {"cli.main"}
    params = {kind: list(inspect.signature(run).parameters)
              for kind, (run, _) in cli.RUNNERS.items()}
    assert all(len(names) == 1 for names in params.values()), params


def _numpy_random_reads(path: Path) -> list[int]:
    """Line numbers at which ``path`` imports ``numpy.random`` or reads it as an
    attribute of a name bound to ``numpy``."""
    tree = ast.parse(path.read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in aliases)
        if hit:
            lines.append(node.lineno)
    return lines


def test_package_never_reads_numpy_random():
    # importing numpy.random costs every process about 8 ms and 5 MiB; the chain and
    # the flow draw from the standard library's random.Random, and the operator checks
    # run on a deterministic probe family
    reads = {str(path.relative_to(ROOT)): lines for path in _sources("src/**/*.py")
             if (lines := _numpy_random_reads(path))}
    assert not reads, reads
