"""Source hygiene that no installed linter checks: imports that nothing uses,
functions that only the tests call, and the names the benchmark binds to."""

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
    "algebra.AlgebraVector.matrix": "the 2x2 matrix of an su(2) vector; pins the basis convention",
    "algebra.QuadratureRuleK.integrate": "the Haar-rule sum, the tests' oracle for integrals on K",
    "algebra.QuadratureRuleKC.fiber_nodes": "the fiber nodes of the per-node reference hl2_inner_pointwise",
    "algebra.algebra_inner": "the metric <X, Y> = -2 tr(XY); pins the convention",
    "algebra.polar_decompose": "g = x exp(iY); checked against the fiber nodes",
    "diffop.LeftInvariantOperator.compose": "operator products, for the transpose identities",
    "euclid.euclid_transform": "the flat Segal-Bargmann transform, checked against its closed form",
    "hl2._chunked_tables": "helper of hl2_inner_pointwise",
    "hl2._factored_values": "helper of hl2_inner_pointwise",
    "hl2.hl2_inner_pointwise": "the per-node reference for hl2_inner; bench/spans.py binds to it",
    "sde._endpoints": "helper of the Ito maps",
    "sde.ito_map_K": "the paper's Ito map theta",
    "sde.ito_map_KC": "the paper's Ito map theta_C",
    "sde.rotated_path": "the paper's rotated path, for the rotation identity",
    "toeplitz.check_convergence": "nested-block stderr check; no command reports it yet",
    "transform.TransformedPair.domain_norm_sq": "the domain norm of B_{s,t}",
    "transform.TransformedPair.make_B": "the pair (f, B_{s,t} f)",
    "transform.range_norm_sq_C": "||F||^2 in HL^2(nu_t), for the unitarity tests",
    "transform.transform_B": "the two-parameter transform B_{s,t}",
    "wigner.BandLimited.conjugate": "helper of TransformedPair.domain_norm_sq",
    "wigner.BandLimited.sup_bound_K": "a coefficient bound on sup|f|, checked on random points",
    "wigner.casimir_eigenvalue": "c_j = j(j+1); pins the Casimir convention",
    "wigner.clebsch_gordan": "single Clebsch-Gordan coefficients, checked at known values",
    "wigner.project_onto_entries": "projection of Haar-rule samples onto entries, the oracle for multiply",
    "wigner.wigner_entry": "one matrix entry D^j_{m,m'} with its index checks",
}


def test_test_only_definitions_are_allowlisted():
    assert sorted(_unreached_definitions()) == sorted(TEST_ONLY)


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
