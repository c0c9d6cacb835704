"""Module boundaries: no module of the package reads a sibling's private names.

A module may use its own ``_name``s freely; another module that needs one
should get a public name instead.  The check is static, on the source.
"""
import ast
import pathlib

import conifold_flows

PACKAGE = pathlib.Path(conifold_flows.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling_from(node: ast.ImportFrom) -> bool:
    """``from .x import ...`` or ``from conifold_flows.x import ...``."""
    if node.level == 1:
        return node.module is not None
    return (node.level == 0 and node.module is not None
            and node.module.startswith("conifold_flows."))


def _package_from(node: ast.ImportFrom) -> bool:
    """``from . import x`` or ``from conifold_flows import x``."""
    return ((node.level == 1 and node.module is None)
            or (node.level == 0 and node.module == "conifold_flows"))


def reach_ins(source: str) -> list[str]:
    """Private sibling names that ``source`` imports or reads."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _sibling_from(node) and _private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                if _package_from(node):
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("conifold_flows.") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    source = ("from . import barnes as b, lattice\n"
              "from .specfun import _log, polylog\n"
              "from conifold_flows.disp import _padded\n"
              "import conifold_flows.gw as gw\n"
              "x = b._quad(lattice.integrate, gw._helper, lattice.__name__)\n")
    assert sorted(reach_ins(source)) == [
        "b._quad", "from conifold_flows.disp import _padded",
        "from specfun import _log", "gw._helper"]


def test_no_module_reads_a_sibling_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: reach_ins(p.read_text()) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}
