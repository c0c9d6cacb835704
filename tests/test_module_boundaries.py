"""Module boundaries: no module of the package reads a sibling's private
names, and each module's ``__all__`` lists exactly its public definitions.

A module may use its own ``_name``s freely; another module that needs one
should get a public name instead.  The private-name check is static, on the
source.
"""
import ast
import importlib
import inspect
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


def _modules_with_all():
    modules = [importlib.import_module(f"conifold_flows.{p.stem}")
               for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    return [m for m in modules if hasattr(m, "__all__")]


def test_all_lists_exactly_the_public_definitions():
    modules = _modules_with_all()
    assert len(modules) > 5
    for module in modules:
        unresolved = [n for n in module.__all__ if not hasattr(module, n)]
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert unresolved == [], module.__name__
        assert defined - set(module.__all__) == set(), module.__name__


def test_package_reexports_only_listed_names():
    listed = {n for m in _modules_with_all() for n in m.__all__}
    exported = set(conifold_flows.__all__) - {"__version__"}
    assert exported - listed == set()
    assert all(hasattr(conifold_flows, n) for n in conifold_flows.__all__)


def test_every_traced_name_resolves():
    # the benchmark's traced mode wraps these (module, attribute path)
    # names and fails on one that is missing, so a rename must update it
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    pairs = [ast.literal_eval(key) for key in targets.keys]
    assert len(pairs) > 10
    for module_name, path in pairs:
        owner = importlib.import_module(f"conifold_flows.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)
