"""Every imported name is used, and every public name has a caller."""

import ast
import os

import mlmc_euler

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "mlmc_euler")
TESTS_DIR = os.path.join(REPO_ROOT, "tests")
CALLER_DIRS = [PACKAGE_DIR] + [os.path.join(REPO_ROOT, d) for d in ("perfbench", "scripts")]

# bound only so that perfbench/spans.py can rebind it in trace mode;
# test_perfbench_bindings.py guards that binding
DELIBERATE = {("estimator.py", "coupled_terminals")}

# the paper's optimal refinement factor; acceptance criterion 2 checks it
NO_CALLER_NEEDED = {"optimal_m_scan"}


def modules(directories=(PACKAGE_DIR, TESTS_DIR)):
    for directory in directories:
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


def referenced_names(node, owners=frozenset()):
    """Names and attributes read in ``node``, outside a definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    if isinstance(node, ast.Name) and node.id not in owners:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in owners:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from referenced_names(child, owners)


def test_every_public_name_has_a_caller():
    # a caller is code outside the tests; __init__.py only re-exports
    referenced = set()
    for path in modules(CALLER_DIRS):
        with open(path, encoding="utf-8") as handle:
            referenced.update(referenced_names(ast.parse(handle.read(), filename=path)))
    uncalled = sorted(set(mlmc_euler.__all__) - referenced - NO_CALLER_NEEDED)
    assert uncalled == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def calls_by_function(node, function=None, in_loop=False):
    """(enclosing function name, inside a loop, call) for every call in ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function, in_loop = node.name, False
    in_loop = in_loop or isinstance(node, LOOPS)
    if isinstance(node, ast.Call):
        yield function, in_loop, node
    for child in ast.iter_child_nodes(node):
        yield from calls_by_function(child, function, in_loop)


def test_only_the_replication_runner_replicates_estimate():
    # replications skip the bias pilot and take consecutive keys; that rule
    # is stated once, in diagnostics._replicate, the one loop over estimate
    sites = set()
    for path in modules((PACKAGE_DIR,)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for function, in_loop, call in calls_by_function(tree):
            pilot = {kw.arg: kw.value for kw in call.keywords}.get("bias_pilot")
            skips_pilot = isinstance(pilot, ast.Constant) and pilot.value == 0
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if skips_pilot or (in_loop and callee == "estimate"):
                sites.add((os.path.basename(path), function))
    assert sites == {("diagnostics.py", "_replicate")}
