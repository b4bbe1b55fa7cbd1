"""Source hygiene that no installed linter checks: imports that nothing uses,
functions that only the tests call, the names the benchmark binds to, and
SciPy kept off the run path."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` and never read, skipping ``# noqa: F401`` lines."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # a package's __init__ imports in order to re-export
    files = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []


def _reads(node) -> set[str]:
    """Every name and attribute name that ``node`` reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _unreached_definitions() -> set[str]:
    """Module-level functions and methods in src/ that no code in src/ reads.

    A definition counts as read when its name (the last part, for methods)
    is read anywhere in src/ outside the bodies of unread definitions; the
    scan repeats until that set is stable, so helpers of test-only code are
    test-only too.  Imports are not reads, and dunder methods are skipped.
    """
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    bodies, always = {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, funcs):
                bodies[f"{path.stem}.{node.name}"] = _reads(node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs) and not item.name.startswith("__"):
                        bodies[f"{path.stem}.{node.name}.{item.name}"] = _reads(item)
                    else:
                        always |= _reads(item)
            else:
                always |= _reads(node)
    unread = set()
    while True:
        live = always.union(*(r for name, r in bodies.items() if name not in unread))
        found = {name for name in bodies if name.rsplit(".", 1)[-1] not in live}
        if found == unread:
            return unread
        unread = found


# Definitions that only the tests call, with the reason each stays.  A new
# test-only function fails below; deleting one means deleting its entry.
TEST_ONLY = {
    "algebra.QuadratureRuleK.integrate": "the Haar-rule sum, the tests' oracle for integrals on K",
    "algebra.exp_algebra": "helper of haar_rule; the exponential of su(2) the tests build group elements with",
    "algebra.haar_rule": "builds the K-nodes of hl2_inner_pointwise and the tests' Haar oracles; bench/spans.py binds to it",
    "hl2._chunked_tables": "helper of hl2_inner_pointwise",
    "hl2._factored_values": "helper of hl2_inner_pointwise",
    "hl2.fiber_nodes": "builds the fiber nodes of hl2_inner_pointwise",
    "hl2.hl2_inner_pointwise": "the per-node reference for hl2_inner; bench/spans.py binds to it",
    "hl2.sphere_grid": "builds the directions of the fiber nodes of hl2_inner_pointwise",
    "sde.rotated_path": "the paper's rotated path, the reference for _rotated_chunks",
    "toeplitz.check_convergence": "nested-block stderr check; no command reports it yet",
    "wigner.project_onto_entries": "projection of Haar-rule samples onto entries, the oracle for multiply",
}


def test_test_only_definitions_are_allowlisted():
    assert sorted(_unreached_definitions()) == sorted(TEST_ONLY)


def _unloaded_fields() -> set[str]:
    """Fields of dataclasses in src/ whose name no attribute load in src/ reads."""
    loaded, fields = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in _reads(d) for d in node.decorator_list
            ):
                fields |= {f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    return {f for f in fields if f.rsplit(".", 1)[-1] not in loaded}


# Dataclass fields that are written and never read in src/, with the reason
# each stays.  A new write-only field fails below.
WRITE_ONLY = {}


def test_write_only_fields_are_allowlisted():
    assert sorted(_unloaded_fields()) == sorted(WRITE_ONLY)


def test_benchmark_bindings_resolve():
    # bench/spans.py wraps its LAYERS by name and bench/tests calls names
    # imported into su2quant.cli, so a rename would break the traced benchmark
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    [layers] = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    wanted = [(modname, qual) for modname, names in layers.values() for qual in names]
    calls = {
        name for path in sorted((ROOT / "bench" / "tests").glob("*.py"))
        for name in re.findall(r"\bcli\.(\w+)\(", path.read_text())
    }
    assert calls >= {"endpoint_ensemble_K", "character_moment", "sample_path",
                     "pathwise_identity_residual"}
    wanted += [("su2quant.cli", name) for name in sorted(calls)]
    missing = []
    for modname, qual in wanted:
        obj = importlib.import_module(modname)
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert missing == []


def test_run_path_loads_no_scipy():
    # SciPy serves only the tests: the CLI imports none of it, not even lazily
    code = "import sys, su2quant.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    imports = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]
    assert imports == []
