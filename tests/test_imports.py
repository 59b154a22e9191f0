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


def outer_calls(tree):
    """(outermost function name, callee name, call) for every call in ``tree``."""
    for node in tree.body:
        function = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                yield function, getattr(call.func, "id", getattr(call.func, "attr", None)), call


def test_one_task_builder_keys_steps_and_chunks_every_euler_level():
    # a telescope level's key, step count and legs are set in paths, every
    # Euler chunk is built by paths._euler_tasks, and _chunk_tasks alone
    # sizes chunks
    only_callers = {
        "_euler_batch": {"_euler_tasks"},
        "_step_blocks": {"_euler_tasks", "limit_draws"},
        "_chunk_size": {"_chunk_tasks"},
    }
    level_domains = {"DOMAIN_SINGLE", "DOMAIN_COUPLED"}
    stray = set()
    for path in modules((PACKAGE_DIR,)):
        base = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for function, callee, _ in outer_calls(tree):
            if callee in only_callers and function not in only_callers[callee]:
                stray.add((base, function, callee))
        if base != "paths.py":
            names = set(referenced_names(tree)) | set(imported_names(tree))
            stray |= {(base, None, name) for name in level_domains & names}
    assert stray == set()


def test_multi_step_increments_are_read_only_through_step_blocks():
    # paths._step_blocks reads a path's steps 64 at a time; any other
    # normal_block call asks for one step, so nothing holds a whole path
    steps_index = 6  # normal_block(seed, domain, slot, replication, first, n, n_steps, ...)
    stray = []
    for path in modules((PACKAGE_DIR,)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for function, callee, call in outer_calls(tree):
            if callee != "normal_block" or function == "_step_blocks":
                continue
            keywords = {kw.arg: kw.value for kw in call.keywords}
            steps = keywords.get("n_steps")
            if steps is None and len(call.args) > steps_index:
                if not any(isinstance(arg, ast.Starred) for arg in call.args[: steps_index + 1]):
                    steps = call.args[steps_index]
            if not (isinstance(steps, ast.Constant) and steps.value == 1):
                stray.append((os.path.basename(path), function, call.lineno))
    assert stray == []
