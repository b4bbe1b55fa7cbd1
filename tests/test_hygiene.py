"""Source hygiene that no installed linter checks: imports that nothing uses,
functions, classes and methods that only the tests reach, config fields
that no subcommand reads, defaults that no caller sets, caches keyed by
anything but integers, the names the benchmark binds to, and SciPy and the
tests' reference module kept off the run path and the thread pool off the
CLI's import."""

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


def _name_and_attribute_reads(node) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that ``node`` reads."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def _reads(node) -> set[str]:
    """Every name and attribute name that ``node`` reads."""
    names, attrs = _name_and_attribute_reads(node)
    return names | attrs


def _unreached_definitions(sources: dict[str, str] | None = None) -> set[str]:
    """Module-level functions and classes, and methods, in src/ that no code in src/ reads.

    A function or class counts as read when its name is read, bare or as an
    attribute, anywhere outside the bodies of unread definitions; a method
    or property only when its class is read and its name is read as an
    attribute (``.name``).  The scan repeats until that set is stable, so
    helpers of test-only code are test-only too.  Imports are not reads,
    and dunder methods are skipped.  ``sources`` maps module names to
    source text in place of src/.
    """
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    bodies, methods, always = {}, {}, (set(), set())

    def add(reads, to):
        to[0].update(reads[0])
        to[1].update(reads[1])

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, funcs):
                bodies[f"{module}.{node.name}"] = _name_and_attribute_reads(node)
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                bodies[cls] = (set(), set())
                for part in node.decorator_list + node.bases + node.keywords:
                    add(_name_and_attribute_reads(part), bodies[cls])
                for item in node.body:
                    if isinstance(item, funcs) and not item.name.startswith("__"):
                        bodies[f"{cls}.{item.name}"] = _name_and_attribute_reads(item)
                        methods[f"{cls}.{item.name}"] = cls
                    else:
                        add(_name_and_attribute_reads(item), bodies[cls])
            else:
                add(_name_and_attribute_reads(node), always)
    unread = set()
    while True:
        names, attrs = set(always[0]), set(always[1])
        for name, reads in bodies.items():
            if name not in unread:
                add(reads, (names, attrs))
        found = set()
        for name in bodies:
            last = name.rsplit(".", 1)[-1]
            if name in methods:
                if methods[name] in unread or last not in attrs:
                    found.add(name)
            elif last not in names | attrs:
                found.add(name)
        if found == unread:
            return unread
        unread = found


# Definitions that only the tests (or bench/) reach, with the reason each
# stays.  A new test-only definition fails below; deleting one means
# deleting its entry.
TEST_ONLY = {
    "algebra.QuadratureRuleK": "the type haar_rule returns",
    "algebra.QuadratureRuleK.integrate": "the Haar-rule sum, the tests' oracle for integrals on K",
    "algebra._exp_matrices": "helper of haar_rule and fiber_nodes",
    "algebra.exp_algebra": "helper of haar_rule; the exponential of su(2) the tests build group elements with",
    "algebra.haar_rule": "builds the K-nodes of hl2_inner_pointwise and the tests' Haar oracles; bench/spans.py binds to it",
    "hl2._chunked_tables": "helper of hl2_inner_pointwise",
    "hl2._factored_values": "helper of hl2_inner_pointwise",
    "hl2.fiber_nodes": "builds the fiber nodes of hl2_inner_pointwise",
    "hl2.hl2_inner_pointwise": "the per-node reference for hl2_inner; bench/spans.py binds to it",
    "hl2.sphere_grid": "builds the directions of the fiber nodes of hl2_inner_pointwise",
    "sde.EndpointEnsemble.n_paths": "bench/spans.py's _work reads it on every sde.ensemble span",
    "sde.SampledPath.n_steps": "bench/spans.py's _work reads it on every sde.pathwise span",
}


def test_test_only_definitions_are_allowlisted():
    assert sorted(_unreached_definitions()) == sorted(TEST_ONLY)


def test_test_only_scan_flags_a_bare_name_method_and_an_unused_class():
    source = (
        "class Path:\n"
        "    def steps(self): ...\n"
        "    def dt(self): ...\n"
        "class Unused:\n"
        "    def steps(self): ...\n"
        "def run(p: Path):\n"
        "    dt = 1.0\n"  # a bare name, not a read of Path.dt
        "    return p.steps(), dt\n"  # reads Path.steps; Unused.steps dies with its class
        "run(Path())\n"
    )
    assert _unreached_definitions({"m": source}) == {"m.Path.dt", "m.Unused", "m.Unused.steps"}


def test_package_root_reexports_no_test_only_name():
    tree = ast.parse((ROOT / "src" / "su2quant" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exported & {name.rsplit(".", 1)[-1] for name in TEST_ONLY}) == []


def _src_imports(package: str) -> list[str]:
    """file:line of every import of ``package`` or its submodules in src/."""
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package
    ]


def test_src_imports_no_test_reference():
    # the reference forms in tests/reference.py are the tests' oracles, not the run path
    assert _src_imports("reference") == []


def _unread_config_fields(source: str) -> set[str]:
    """Fields of the ``FIELDS`` table in ``source`` that no ``cmd_*`` function reads as ``cfg["name"]``."""
    tree = ast.parse(source)
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "FIELDS" for t in node.targets)]
    read = {
        node.slice.value
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)
    }
    return {key.value for key in table.keys} - read


def test_every_config_field_is_read_by_a_subcommand():
    # a field that no subcommand reads changes no report, so setting it only misleads
    assert _unread_config_fields((ROOT / "src" / "su2quant" / "cli.py").read_text()) == set()


def test_config_field_scan_flags_a_field_no_subcommand_reads():
    source = (
        'FIELDS = {"t": (0.5,), "s": (1.0,), "seed": (0,)}\n'
        "def _helper(cfg):\n"
        '    return cfg["s"]\n'  # a helper's read is not a subcommand's
        "def cmd_run(cfg, workers):\n"
        '    return cfg["t"], cfg["seed"]\n'
    )
    assert _unread_config_fields(source) == {"s"}


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
WRITE_ONLY = {
    "sde.EndpointEnsemble.n_steps": "bench/spans.py's _work reads it on every sde.ensemble span",
}


def test_write_only_fields_are_allowlisted():
    assert sorted(_unloaded_fields()) == sorted(WRITE_ONLY)


def _defaulted_params(fn, skip: int) -> list[tuple[str, int | None]]:
    """(name, index among the call's positional arguments, or None) of each parameter of ``fn`` with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    if any(k.arg in (None, name) for k in call.keywords):  # k.arg is None for **
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def _unset_defaults() -> set[str]:
    """Parameters with a default in src/ functions that no call in src/ or tests/ passes.

    A call passes a parameter by keyword or by position (``self`` and ``cls``
    not counted), and a call with ``**`` or ``*`` passes every parameter it
    could.  Calls match by the function's name, or for ``__init__`` by the
    class's name or by ``cls`` inside the class, so a call of another
    function of the same name counts too.
    """
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(owner.get(id(node)) if name == "cls" else name, []).append(node)
    unset = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [(node.name, node.name, node, 0)] if isinstance(node, funcs) else []
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{item.name}", node.name if item.name == "__init__" else item.name,
                     item, 0 if any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list) else 1)
                    for item in node.body if isinstance(item, funcs)
                ]
            for qual, callee, fn, skip in defs:
                unset |= {
                    f"{path.stem}.{qual}({name})" for name, index in _defaulted_params(fn, skip)
                    if not any(_passes(c, name, index) for c in calls.get(callee, []))
                }
    return unset


# Parameters with a default that no caller sets, with the reason each stays.
# A new one fails below: make it a constant, or pass it from a caller.
UNSET_DEFAULTS = {}


def test_unset_defaults_are_allowlisted():
    assert sorted(_unset_defaults()) == sorted(UNSET_DEFAULTS)


CACHE_DECORATORS = {"lru_cache", "cache"}


def _cache_keys(source: str, module: str) -> dict[str, list[str]]:
    """Each function in ``source`` memoized by functools.lru_cache or cache, with its parameters not annotated int.

    A cache lives as long as the process, so one keyed by a float or by data
    would serve a result computed for another call; sizes and spins are the
    keys that repeat.  A cache applied other than as a decorator is listed
    under its line, with the key unknown.
    """
    tree = ast.parse(source)
    found, decorators = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cached = [d for d in node.decorator_list if _reads(d) & CACHE_DECORATORS]
            if cached:
                decorators |= {id(n) for d in cached for n in ast.walk(d)}
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                params += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
                found[f"{module}.{node.name}"] = [
                    a.arg for a in params
                    if a.arg not in ("self", "cls") and not (isinstance(a.annotation, ast.Name) and a.annotation.id == "int")
                ]
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in CACHE_DECORATORS and id(node) not in decorators and isinstance(getattr(node, "ctx", None), ast.Load):
            found[f"{module}:{node.lineno}"] = ["<not a decorator>"]
    return found


def _src_caches() -> dict[str, list[str]]:
    return {name: keys for path in sorted((ROOT / "src").rglob("*.py"))
            for name, keys in _cache_keys(path.read_text(), path.stem).items()}


# Caches keyed by anything but integers, with the reason each stays.  A new
# one fails below: key it by sizes or spins, or keep the memo on an object
# that the call builds.
CACHED = {}


def test_caches_are_keyed_by_integers():
    caches = _src_caches()
    assert set(caches) >= {
        "wigner._entry_tables", "wigner.generator_matrix", "wigner._cg_two", "wigner.cg_table",
        "euclid._gh", "algebra._gauss_legendre",
    }
    assert sorted(name for name, keys in caches.items() if keys) == sorted(CACHED)


def test_cache_scan_flags_a_float_key_and_a_wrapped_function():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=None)\ndef sizes(n: int, two_j: int): ...\n"
        "@functools.cache\ndef by_time(t: float, n: int): ...\n"
        "@lru_cache\ndef untyped(n): ...\n"
        "wrapped = lru_cache(maxsize=8)(sizes)\n"
    )
    assert _cache_keys(source, "m") == {
        "m.sizes": [], "m.by_time": ["t"], "m.untyped": ["n"], "m:9": ["<not a decorator>"],
    }


def _span_objects() -> dict[str, list]:
    """Each attribute ``bench/spans.py`` reads on a call's arguments or result, with objects that must carry it."""
    import numpy as np

    from su2quant.heat import HeatKernelK
    from su2quant.sde import endpoint_ensemble_KC, sample_path
    from su2quant.toeplitz import ToeplitzSampler

    ensemble = endpoint_ensemble_KC(0.25, 0.5, 4, 2, 0, n_blocks=2)
    return {
        "n_paths": [ensemble],  # sde.ensemble work
        "n_steps": [ensemble, sample_path(1.0, 2, 0)],  # sde.ensemble and sde.pathwise work
        "_tensors": [ToeplitzSampler(0.5, ensemble)],  # toeplitz.moment builds
        "two_jmax": [HeatKernelK.build(0.5)],  # heat.recurrence work
        "size": [np.empty(2)],  # trace matrices and Wigner matrices
    }


def _span_attribute_reads(tree) -> set[str]:
    """Attributes that ``bench/spans.py``'s wrapper and ``_work`` read on ``args[i]``, ``result``, ``k`` or ``traces``."""
    def spans_argument(node):
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in {"args", "result", "k", "traces"}

    bodies = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in {"traced", "_work"}]
    assert len(bodies) == 2
    return {node.attr for f in bodies for node in ast.walk(f)
            if isinstance(node, ast.Attribute) and spans_argument(node.value)}


def test_benchmark_bindings_resolve():
    # bench/spans.py wraps its LAYERS by name, reads attributes of their
    # arguments and results, and bench/tests calls names imported into
    # su2quant.cli, so a rename would break the traced benchmark
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
    objects = _span_objects()
    assert _span_attribute_reads(tree) == set(objects)
    missing += [f"{type(obj).__name__}.{attr}" for attr, objs in objects.items()
                for obj in objs if not hasattr(obj, attr)]
    assert missing == []


def _modules_after_cli_import(cli: bool = True) -> set[str]:
    """The modules a fresh interpreter holds after ``import su2quant.cli``, or at start-up without it."""
    code = f"import sys{', su2quant.cli' if cli else ''}; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_run_path_loads_no_scipy():
    # SciPy serves only the tests: the CLI imports none of it, not even lazily
    assert sorted(m for m in _modules_after_cli_import() if m.split(".")[0] == "scipy") == []
    assert _src_imports("scipy") == []


def test_cli_import_loads_no_thread_pool():
    # only an ensemble run with workers > 1 imports concurrent.futures, when it starts
    assert sorted(m for m in _modules_after_cli_import() if m.split(".")[0] == "concurrent") == []


def test_cli_import_loads_nothing_beyond_numpy_and_the_standard_library():
    # the benchmark's setup_s times this import in every probe, so a new
    # third-party import on the CLI's path would show there first; packages
    # that site hooks load into every interpreter are not the CLI's
    allowed = set(sys.stdlib_module_names) | {"__main__", "numpy", "su2quant"}
    allowed |= {m.split(".")[0] for m in _modules_after_cli_import(cli=False)}
    assert sorted({m.split(".")[0] for m in _modules_after_cli_import()} - allowed) == []
