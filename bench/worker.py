"""One workload in one fresh process; prints one JSON line of raw results.

Started by ``run.py``.  BLAS and OpenMP are held to one thread before NumPy
loads, so ``--workers`` is the only parallelism.  ``--spawned-at`` is the
parent's ``time.perf_counter()`` just before the process was started
(CLOCK_MONOTONIC, shared by all processes), so set-up time includes
interpreter start, the import of su2quant and the loading of the configs.
It ends before the benchmark's own checks (``checks.py``, ``oracles.py``)
are imported.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import su2quant  # noqa: E402
from su2quant import cli  # noqa: E402

import workloads  # noqa: E402


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_limits": {v: os.environ[v] for v in THREAD_VARS},
        "su2quant": su2quant.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process since its exec (VmHWM).

    ``ru_maxrss`` is not used: on Linux it keeps the parent's resident set
    at fork time across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def write_configs(steps, seed: int, out: Path) -> list[str]:
    """Writes and loads (as the CLI would) one config file per step."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for step in steps:
        path = out / f"{step.subcommand}.json"
        path.write_text(json.dumps(step.config))
        cli.load_config(str(path), step.master_seed(seed))
        paths.append(str(path))
    return paths


def run_round(steps, configs, seed: int, out: Path, verify):
    """Runs every step once and checks it; returns (command s, wall s, operations).

    An operation is (name, passed, detail).  Wall time runs from the start of
    the first subcommand until the last check is done.
    """
    t0 = time.perf_counter()
    reports, exits, command_s = {}, {}, 0.0
    for step, cfg in zip(steps, configs):
        dest = out / step.subcommand
        argv = [step.subcommand, "--config", cfg, "--seed", str(step.master_seed(seed)),
                "--workers", str(step.workers), "--out", str(dest)]
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            exits[step.subcommand] = cli.main(argv)
        command_s += time.perf_counter() - c0
        reports[step.subcommand] = json.loads((dest / "report.json").read_text())
    ops = []
    for name, rep in reports.items():
        ops += [(f"{name}: {c['name']}", c["passed"], "report check") for c in rep["checks"]]
        ops.append((f"{name}: exit code and report.passed",
                    exits[name] == 0 and rep["passed"] is True, f"exit {exits[name]}"))
    ops += verify(reports)
    return command_s, time.perf_counter() - t0, ops


def run_for(seconds: float, *round_args):
    """Whole rounds, at least one, while the next is expected to end within `seconds`."""
    walls, command_s, ops = [], 0.0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + max(walls) <= seconds:
        c, w, o = run_round(*round_args)
        walls.append(w)
        command_s += c
        ops += o
    return walls, command_s, ops


def run(steps, verify, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Rounds for about `seconds`; with `trace`, every layer call is wrapped first."""
    round_args = (steps, write_configs(steps, seed, out), seed, out, verify)
    result = {}
    if trace:
        import spans

        tracer = spans.install()
        walls, command_s, ops = run_for(seconds, *round_args)
        result["layers"] = spans.layer_metrics(tracer, command_s, walls)
    else:
        walls, _, ops = run_for(seconds, *round_args)
    failed = [(n, d) for n, ok, d in ops if not ok]
    result.update(
        walls=walls,
        attempted=len(ops),
        failed=len(failed),
        failures=failed[:20],
        peak_rss_mb=peak_rss_mb(),
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    steps = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    write_configs(steps, args.seed, out)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import checks

    result = run(steps, checks.VERIFY[args.workload], args.seed, args.seconds,
                 bool(args.trace), out)
    result.update(machine=machine_info())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
