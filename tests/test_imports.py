"""Every imported name in the package and its tests is used."""

import ast
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "mlmc_euler")
TESTS_DIR = os.path.join(REPO_ROOT, "tests")

# bound only so that perfbench/spans.py can rebind it in trace mode;
# test_perfbench_bindings.py guards that binding
DELIBERATE = {("estimator.py", "coupled_terminals")}


def modules():
    for directory in (PACKAGE_DIR, TESTS_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used():
    unused = []
    for path in modules():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        base = os.path.basename(path)
        unused += [
            "%s: %s" % (base, name)
            for name in imported_names(tree)
            if name not in used and (base, name) not in DELIBERATE
        ]
    assert unused == []
