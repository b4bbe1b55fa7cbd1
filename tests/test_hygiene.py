"""Source hygiene that no installed linter checks: imports that nothing uses,
and the names the benchmark binds to."""

import ast
import importlib
import re
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
