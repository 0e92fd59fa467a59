"""The package's public names, its runtime imports, its two exception
roots, no unused imports in the source or tests, and no function in the
source that only the tests call."""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import hyperfast

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in hyperfast.__all__ if not hasattr(hyperfast, name)]
    assert missing == []
    assert len(set(hyperfast.__all__)) == len(hyperfast.__all__)


def test_runtime_loads_no_scipy():
    """The CLI and every registered problem run on numpy and the standard
    library: scipy is a test dependency only. A fresh process, so modules
    the test session imported do not count."""
    code = (
        "import json, sys\n"
        "import hyperfast, hyperfast.cli\n"
        "from hyperfast import harness\n"
        "for name in harness.PROBLEMS:\n"
        "    harness.make_problem(harness.build_run_config({'problem': name}))\n"
        "print(json.dumps([hyperfast.__file__,\n"
        "                  sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": path})
    package, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert Path(package).resolve().parent == ROOT / "src" / "hyperfast"
    assert scipy_modules == []


def test_every_exception_has_one_of_two_roots():
    """Every exception class under src/ derives from ConfigError (a refused
    run, exit 2) or SolverError (a failed solve, exit 3), so the CLI and
    the harness need name no other type. OracleCapabilityError, a missing
    derivative routine, is the one named exception."""
    bases = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases]

    def ancestors(name):
        found, todo = set(), list(bases.get(name, ()))
        while todo:
            base = todo.pop()
            found.add(base)
            todo.extend(bases.get(base, ()))
        return found

    def is_exception(name):
        return any(isinstance(getattr(builtins, base, None), type)
                   and issubclass(getattr(builtins, base), BaseException)
                   for base in ancestors(name))

    roots = {"ConfigError", "SolverError"}
    exceptions = {name for name in bases if is_exception(name)}
    assert roots | {"SubproblemError", "LambdaSearchError", "ModelError",
                    "DivergenceError", "NonFiniteError"} <= exceptions
    stray = sorted(name for name in exceptions - roots - {"OracleCapabilityError"}
                   if not roots & ancestors(name))
    assert stray == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind and it never reads or lists
    in __all__. `import a.b` binds a; __future__ imports bind nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_no_unused_top_level_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


#: Functions with no runtime caller that still belong in src/, each with why.
_NO_CALLER_ALLOWED = {
    "read_trace": "reads back the format harness.write_trace writes",
    "reset": "part of CountedOracle's counter API",
}


def test_every_src_function_has_a_runtime_caller():
    """Every top-level function and class method under src/ is named
    somewhere in src/, perfbench/ or scripts/, as a string constant in
    perfbench/ (the tracer binds by name), or in hyperfast.__all__. Code
    only the tests call lives under tests/ (crosschecks.py)."""
    defined = {}
    reached = set(hyperfast.__all__)
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reached.add(node.attr)
                elif (top == "perfbench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    reached.add(node.value)
            if top != "src":
                continue
            for node in tree.body:
                body = node.body if isinstance(node, ast.ClassDef) else [node]
                for fn in body:
                    if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                        defined[fn.name] = f"{path.relative_to(ROOT)}:{fn.lineno}"
    unreached = sorted(f"{where}: {name}" for name, where in defined.items()
                       if name not in reached and name not in _NO_CALLER_ALLOWED)
    assert unreached == []
    # An allowlisted name that gained a caller leaves the list.
    assert sorted(name for name in _NO_CALLER_ALLOWED if name in reached) == []
