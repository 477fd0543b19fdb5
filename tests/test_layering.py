"""The package's modules form layers: every import, at module level or inside
a function, points down, so no module reaches back up to one that imports it.
`cli` sits on top and may import anything."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridshock"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imports(module: str) -> set:
    """The package modules `module` imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .model import x` names a module; `from . import model` names modules
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridshock."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("gridshock."))
    return found & set(MODULES)


def _cycle(graph: dict) -> list | None:
    """One import cycle of `graph` as a list of modules, or None."""
    state = {}  # 1: on the current path, 2: done

    def visit(m, path):
        state[m] = 1
        for n in sorted(graph[m]):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if n not in state and (found := visit(n, path + [n])):
                return found
        state[m] = 2
        return None

    for m in sorted(graph):
        if m not in state and (found := visit(m, [m])):
            return found
    return None


def test_no_import_cycle_below_the_cli():
    assert "analyze" in _imports("cli")  # an import inside a function: the scan sees those too
    graph = {m: _imports(m) - {"cli"} for m in MODULES if m != "cli"}
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_topology_sits_below_the_model():
    assert _imports("topology") == {"errors", "ingest"}
