"""Every name the benchmark imports from ``shapeid`` stays exported.

``perfbench`` is run on each commit's own files, and its modules import
their stages from ``shapeid`` by name.  A deletion that took one of those
names away would make every benchmark run fail at import, so the import
lists are read here with ``ast`` and checked against the package: each
name is in ``shapeid.__all__`` or is one of its modules, each of those
``from shapeid import`` statements runs, and every name that any module
of the package lists in its ``__all__`` is there.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import shapeid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports_from_shapeid():
    """Each ``from shapeid import ...`` statement of ``perfbench``'s
    modules, with the file it is in."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "shapeid" and node.level == 0:
                yield path, node


def test_benchmark_imports_only_exported_names():
    statements = list(_imports_from_shapeid())
    names = {alias.name for _, node in statements for alias in node.names}
    # The traced run's stages: the list was found and read.
    assert {"binarize", "isolate_object", "boundary", "convex_hull", "extract_corners"} <= names
    modules = {info.name for info in pkgutil.iter_modules(shapeid.__path__)}
    assert not sorted(names - set(shapeid.__all__) - modules)
    for path, node in statements:
        exec(compile(ast.Module([node], type_ignores=[]), str(path), "exec"), {})


def test_every_listed_name_resolves():
    # shapeid.__main__ runs the command line when imported.
    modules = [shapeid] + [
        importlib.import_module(f"shapeid.{info.name}")
        for info in pkgutil.iter_modules(shapeid.__path__)
        if info.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
