import ast
import inspect
from pathlib import Path

import radialflow

SOURCES = {
    path.stem: path.read_text()
    for path in Path(radialflow.__file__).parent.glob("*.py")
}
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}


def test_all_lists_every_public_name_once():
    exported = radialflow.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(radialflow, name), name
    public = {
        name
        for name, value in vars(radialflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(exported)


def _imported_names(tree: ast.AST):
    """Every module and name that an import statement of ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_solution_is_defined_beside_the_feeder_only():
    defining = [
        name for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Solution"
    ]
    assert defining == ["network"]


def test_no_module_imports_inside_a_function():
    for name, tree in TREES.items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not any(
                    isinstance(node, (ast.Import, ast.ImportFrom))
                    for node in ast.walk(function)
                ), f"{name}.{function.name}"


def test_solvers_metrics_and_io_do_not_import_the_linear_solver():
    for name in ("bfs", "metrics", "io"):
        imported = _imported_names(TREES[name])
        assert all(
            module.split(".")[-1] != "linsolve" for module in imported
        ), name


def test_one_module_checks_a_solution_against_its_feeder():
    assert [
        name for name, text in SOURCES.items() if "solution has" in text
    ] == ["network"]
