"""The package's modules import each other only at module top level, and the
import graph between them has no cycle."""
import ast
from pathlib import Path

import hopfprod

PACKAGE_DIR = Path(hopfprod.__file__).parent


def _intra_package_imports(tree: ast.Module):
    """(node, imported module) for every import of a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                yield node, node.module
            elif node.level == 0 and (node.module or "").startswith("hopfprod."):
                yield node, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hopfprod."):
                    yield node, alias.name.split(".")[1]


def _import_graph():
    graph, misplaced = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = set(map(id, tree.body))
        deps = graph.setdefault(path.stem, set())
        for node, target in _intra_package_imports(tree):
            deps.add(target)
            if id(node) not in top_level:
                misplaced.append(f"{path.name}:{node.lineno} imports {target}")
    return graph, misplaced


def test_intra_package_imports_sit_at_module_top_level():
    graph, misplaced = _import_graph()
    assert len(graph) > 10
    assert misplaced == []


def test_module_import_graph_is_acyclic():
    graph, _ = _import_graph()
    done, active = set(), []

    def visit(module):
        if module in active:
            raise AssertionError("import cycle: " + " -> ".join(
                active[active.index(module):] + [module]))
        if module in done:
            return
        active.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
