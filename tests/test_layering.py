"""The package's modules import each other without cycles, and the public
surface is declared once, by each module's ``__all__``."""

import ast
import importlib
from pathlib import Path

import expsums

PACKAGE = Path(expsums.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def module_imports() -> dict[str, set[str]]:
    """Sibling modules imported by each module of the package."""
    names = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in PACKAGE.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    found.add(node.module.split(".")[0])
                elif node.level == 1:
                    found.update(alias.name for alias in node.names)
                elif node.module and node.module.startswith("expsums."):
                    found.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                found.update(
                    alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("expsums.")
                )
        graph[path.stem] = found & names
    return graph


def test_graph_sees_known_imports():
    graph = module_imports()
    assert "expsum" in graph["sequences"]
    assert {"expsum", "sequences"} <= graph["dephasing"]
    assert {"bounds", "dephasing", "sequences"} <= graph["cli"]


def test_sequences_does_not_import_dephasing():
    assert "dephasing" not in module_imports()["sequences"]


def test_module_imports_are_acyclic():
    graph = module_imports()
    graph.pop("__init__")  # the package namespace imports every module
    done, active = set(), []

    def visit(module):
        if module in active:
            raise AssertionError("import cycle: " + " -> ".join(active + [module]))
        if module in done:
            return
        active.append(module)
        for target in sorted(graph[module] - {"__init__"}):
            visit(target)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def star_imported_modules() -> list[str]:
    """Modules whose names the package namespace takes by ``import *``, in order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]


def test_public_names_are_the_module_declarations():
    modules = star_imported_modules()
    # every module that declares __all__ is public, except the quadrature
    # engine behind l1_norm
    declaring = {
        path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"
        and hasattr(importlib.import_module(f"expsums.{path.stem}"), "__all__")
    }
    assert sorted(modules) == sorted(declaring - {"quadrature"})
    declared = [
        name for module in modules
        for name in importlib.import_module(f"expsums.{module}").__all__
    ]
    assert expsums.__all__ == declared
    assert len(set(declared)) == len(declared) < 50
    assert all(hasattr(expsums, name) for name in declared)
    tree = ast.parse(ACCEPTANCE.read_text())
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "expsums"
        for alias in node.names
    }
    assert imported and imported <= set(declared)


# the helpers of the sin^2 construction, each defined in construction alone
CONSTRUCTION = {"_MAX_ORDER", "_sin2", "_coefficients", "_uhrig_moments", "_built_as",
                "_bessel_series", "_direct_sum", "_certified_sum"}


def module_definitions(path: Path) -> set[str]:
    """Names a module binds at its top level, by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_construction_sits_on_errors_alone():
    assert module_imports()["construction"] == {"errors"}
    assert CONSTRUCTION <= module_definitions(PACKAGE / "construction.py")
    for path in PACKAGE.glob("*.py"):
        if path.stem != "construction":
            assert not module_definitions(path) & CONSTRUCTION, path.stem
