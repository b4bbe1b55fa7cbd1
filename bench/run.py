"""Benchmark of the su2quant CLI: one workload per call, one JSON result line.

    python3 bench/run.py --workload toeplitz_mc --seconds 30 [--seed 2026] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/`` of that checkout, never from an installed copy.
Each call starts a fresh worker process (``worker.py``) that runs whole
rounds of the workload's subcommands through ``su2quant.cli.main`` for
about ``--seconds``, checks every result, and reports.  ``--seconds`` has
no default: the run length is ``run_seconds`` of BENCHMARK.json, which every
caller passes.  Set-up time is the median over ``SETUP_PROBES`` further
fresh processes, before and after the worker, that only import su2quant and
load the configs.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones (untraced), with ``--trace 1`` the
per-layer ones from wrapped calls.  Earlier lines give each metric by name
with its unit, the machine block, and any failed operation.  Exit code 0
when a result was printed, 2 when the checkout has no su2quant sources, 1
when the worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, listed here so that this process never loads NumPy
WORKLOAD_NAMES = ("toeplitz_mc", "sde_check", "deterministic")
SETUP_PROBES = 9  # split around the worker, so one slow spell of the host does not set the median
RUN_DEADLINE_S = 170.0  # every process this run starts has ended by then


def host_probe() -> dict:
    """A fixed, short host-speed reference: memory copy and a pure-Python loop."""
    src, dst = bytearray(64 << 20), memoryview(bytearray(64 << 20))
    dst[:] = src  # fault the pages in before timing
    t0 = time.perf_counter()
    for _ in range(8):
        dst[:] = src
    stream = time.perf_counter() - t0
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    loop = time.perf_counter() - t0
    return {
        "memcpy_gb_per_s": round(8 * len(src) / stream / 1e9, 3),
        "python_loop_ns_per_iter": round(loop / 2_000_000 * 1e9, 2),
    }


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`, killed at `deadline`; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.perf_counter())]
    timeout = max(deadline - time.perf_counter(), 0.0)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "su2quant" / "__init__.py").is_file():
        print(f"error: no su2quant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
        "host_probe": host_probe(),
    }
    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(out)]
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def setup_probes(n: int) -> list[float]:
        return [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(n)]

    try:
        setups = setup_probes(SETUP_PROBES // 2 + 1)
        res = spawn(common + ["--trace", str(args.trace)], deadline)
        setups += setup_probes(SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    machine.update(res["machine"])

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"rounds: {len(res['walls'])}, wall per round (s): "
          + ", ".join(f"{w:.3f}" for w in res["walls"]))
    print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    for name, detail in res["failures"]:
        print(f"FAILED {name}: {detail}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
