"""Layering of the vibox package, read from its source with ``ast``: every
import sits outside function bodies, and the modules import one another in
one direction, model -> projection -> normal_map -> solver -> certificates
-> cli, with no cycle."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vibox"
LAYERS = ["model", "projection", "normal_map", "solver", "certificates", "cli"]


def sources():
    """{module name: parsed source} of src/vibox/*.py; __init__ for the package."""
    return {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(SRC.glob("*.py"))}


def imported(tree, modules) -> set:
    """The modules of ``modules`` that a parsed source imports, by relative
    or absolute import; a name imported from the package itself that is no
    module (``from . import __version__``) imports __init__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] if "." in a.name else "__init__"
                    for a in node.names if a.name.split(".")[0] == "vibox"}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "vibox":
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                out.add(parts[0])
            else:
                out |= {a.name if a.name in modules else "__init__" for a in node.names}
    return out & set(modules)


def graph():
    modules = sources()
    return {name: imported(tree, modules) for name, tree in modules.items()}


def test_no_import_inside_a_function():
    for name, tree in sources().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.{fn.name} imports at line {inner[0].lineno}"


def test_the_import_graph_is_acyclic():
    order = list(graphlib.TopologicalSorter(graph()).static_order())  # CycleError on a cycle
    assert set(order) == set(sources())


def test_imports_run_down_the_layers():
    edges = graph()
    assert set(LAYERS) <= set(edges)
    for upper, name in enumerate(LAYERS):
        for dep in edges[name] & set(LAYERS):
            assert LAYERS.index(dep) < upper, f"{name} imports {dep}"
    assert "certificates" not in edges["solver"] and "solver" in edges["certificates"]


def test_the_reader_sees_package_and_absolute_imports():
    modules = dict.fromkeys(["__init__", "model", "solver"])
    tree = ast.parse("from . import __version__\nfrom .model import x\nimport vibox.solver\n"
                     "from vibox import model\nimport numpy\nfrom json import dumps\n")
    assert imported(tree, modules) == {"__init__", "model", "solver"}
