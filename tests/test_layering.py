"""Static checks of the source: the package's modules import each other only
at module top level, the import graph between them has no cycle, the
classical checkers evaluate no coproduct sum of their own, the deformation
expands no coproduct beyond the first, the set-level oracle of the tests
reads nothing of the engine it checks, and every source file parses with
the oldest Python grammar the package declares."""
import ast
from pathlib import Path

import hopfprod

PACKAGE_DIR = Path(hopfprod.__file__).parent
TESTS_DIR = Path(__file__).parent


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


def test_special_evaluates_no_coproduct_sum_of_its_own():
    # every identity special.py checks is either a unit normalization or a
    # row of the engine's evaluator tables
    path = PACKAGE_DIR / "special.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "expand"]
    assert calls == []


def test_source_parses_with_the_python_3_10_grammar():
    # pyproject.toml declares Python >= 3.10; this catches 3.11+ syntax, not
    # differences of the standard library
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_classification_expands_no_coproduct_beyond_the_first():
    # the deformation formulas are convolutions over tensor-product
    # coalgebras, which read delta once per factor; no n-fold expansion
    # with n > 2 is written out by hand
    path = PACKAGE_DIR / "classification.py"
    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "expand"]
    assert calls
    for node in calls:
        n = node.args[1] if len(node.args) > 1 else None
        assert isinstance(n, ast.Constant) and n.value <= 2, \
            f"classification.py:{node.lineno} expands to {ast.unparse(n) if n else '?'}"


def test_set_level_oracle_names_nothing_of_the_engine():
    # check_group_structure scans the engine's table rows; its oracle in the
    # tests writes the formulas out itself and reaches no engine entry point
    tree = ast.parse((TESTS_DIR / "helpers.py").read_text())
    oracle, = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name == "check_group_structure_direct"]
    names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    engine = {"_table_rows", "_condition_evaluators", "lift_to_hopf", "check_product_conditions"}
    assert "_scan" in names and not names & engine
