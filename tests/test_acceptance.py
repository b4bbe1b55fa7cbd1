"""Release acceptance gates.

Each test checks one gate at its stated tolerance and time budget and
emits a single pass/fail line through the shared recorder; the lines are
echoed together in the terminal summary.
"""

import json
import time

import numpy as np
import pytest
from conftest import record_gate
from reference import fd_radial_symbol_table

from su2quant.cli import (
    _spin_half_entries,
    gate_boundedness,
    gate_calibration,
    gate_complex_moments,
    gate_differential,
    gate_euclid,
    gate_laplacian_entries,
    gate_multiplication,
    gate_pathwise,
    gate_real_moments,
    gate_semigroup,
)
from su2quant.cli import main as cli_main
from su2quant.diffop import LeftInvariantOperator
from su2quant.sde import expected_character_KC
from su2quant.toeplitz import ToeplitzSampler

pytestmark = pytest.mark.acceptance

SEED = 2026
WORKERS = 4

_samplers: dict[float, ToeplitzSampler] = {}
_sampler_build_s = 0.0


def _sampler(t: float) -> ToeplitzSampler:
    # t = 0.5 and t = 1.0 are walked from one shared draw of the normals
    global _sampler_build_s
    if not _samplers:
        t0 = time.perf_counter()
        ts = (0.5, 1.0)
        _samplers.update(zip(ts, ToeplitzSampler.for_times(ts, 200000, 200, SEED, workers=WORKERS)))
        _sampler_build_s = time.perf_counter() - t0
    return _samplers[t]


def _all_pairs():
    """(label, f1, f2) for every pair of spin-1/2 entries."""
    entries = _spin_half_entries()
    return [(f"{n1},{n2}", f1, f2) for n1, f1 in entries for n2, f2 in entries]


def _worst_z(checks) -> float:
    # absolute floor 1e-10 keeps analytically-zero entries, where
    # value and stderr are both roundoff, out of the z statistic
    return max(
        3.0 * abs(complex(*c["value"]) - complex(*c["exact"])) / (3.0 * c["stderr"] + 1e-10)
        for c in checks
    )


def test_criterion_01_calibration():
    t0 = time.perf_counter()
    worst = max(c["value"] for c in gate_calibration((0.2, 0.5, 1.0)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 60.0
    record_gate(
        "criterion 1, calibration consistency",
        f"worst residual {worst:.2e} in {dt:.1f}s",
        "mass and unitarity < 1e-5 for t in {0.2, 0.5, 1.0}, < 60 s",
        ok,
    )
    assert ok


def test_criterion_02_semigroup():
    t0 = time.perf_counter()
    checks = gate_semigroup([(0.2, 0.2), (0.2, 0.5), (0.5, 0.5)], 1000, SEED)
    sup_err = max(c["value"] for c in checks)
    dt = time.perf_counter() - t0
    ok = sup_err <= 1e-8 and dt < 30.0
    record_gate(
        "criterion 2, heat semigroup",
        f"sup error {sup_err:.2e} on 1000 points in {dt:.1f}s",
        "<= 1e-8 for (t, s) in {0.2, 0.5}^2, < 30 s",
        ok,
    )
    assert ok


def test_criterion_03_real_endpoint_moments():
    t0 = time.perf_counter()
    checks = gate_real_moments(100000, 400, SEED, (0.5, 1.0), WORKERS)
    worst_z = max(abs(c["z"]) for c in checks)
    dt = time.perf_counter() - t0
    ok = worst_z < 3.0 and dt < 120.0
    record_gate(
        "criterion 3, real endpoint moments",
        f"worst |z| {worst_z:.2f} in {dt:.1f}s",
        "|z| < 3 for j in {1/2, 1}, s = 1, N = 1e5, 400 steps, < 2 min",
        ok,
    )
    assert ok


def test_criterion_04_complex_endpoint_moments():
    t0 = time.perf_counter()
    # the subelliptic slice s = t/2 grows
    assert all(expected_character_KC(0.25, 0.5, j) > 2 * j + 1 for j in (0.5, 1.0))
    runs = ((1.0, 0.5, SEED), (0.25, 0.5, SEED + 1))
    checks, _ = gate_complex_moments(runs, 100000, 400, (0.5, 1.0), WORKERS)
    worst_z = max(abs(c["z"]) for c in checks)
    dt = time.perf_counter() - t0
    ok = worst_z < 3.0 and dt < 180.0
    record_gate(
        "criterion 4, complex endpoint moments",
        f"worst |z| {worst_z:.2f} in {dt:.1f}s",
        "|z| < 3 for (s, t) in {(1, 0.5), (0.25, 0.5)}, N = 1e5, < 3 min",
        ok,
    )
    assert ok


def test_criterion_05_pathwise_identity():
    t0 = time.perf_counter()
    slope_check, ratio_check = gate_pathwise([100, 200, 400, 800], SEED)
    slope, ratios = slope_check["value"], ratio_check["value"]
    dt = time.perf_counter() - t0
    ok = slope_check["passed"] and ratio_check["passed"] and dt < 180.0
    record_gate(
        "criterion 5, pathwise identity",
        f"median slope {slope:.3f}, deterministic ratios "
        f"{[round(r, 2) for r in ratios]} in {dt:.1f}s",
        "slope >= 0.4 over 200 draws, deterministic rate >= O(1/n), < 3 min",
        ok,
    )
    assert ok


def test_criterion_06_multiplication_theorem():
    t0 = time.perf_counter()
    worst_z = 0.0
    stderr_ok = True
    for t in (0.5, 1.0):
        checks, _ = gate_multiplication(t, _sampler(t))
        worst_z = max(worst_z, _worst_z(checks[:-1]))
        stderr_ok = stderr_ok and checks[-1]["passed"]
    dt = time.perf_counter() - t0
    ok = worst_z < 3.0 and stderr_ok and dt < 600.0
    record_gate(
        "criterion 6, multiplication theorem",
        f"96 entries, worst |z| {worst_z:.2f}, stderr budget "
        f"{'met' if stderr_ok else 'exceeded'} in {dt:.1f}s "
        f"(shared sampler build {_sampler_build_s:.1f}s)",
        "|z| < 3 and stderr <= 1% of largest entry at n_paths = 2e5, < 10 min",
        ok,
    )
    assert ok


def test_criterion_07_differential_operator_stochastic():
    t0 = time.perf_counter()
    checks, _ = gate_differential(0.5, _sampler(0.5), _all_pairs())
    worst_z = _worst_z(checks)
    dt = time.perf_counter() - t0
    ok = worst_z < 3.0 and dt < 600.0
    record_gate(
        "criterion 7, differential operator theorem (stochastic)",
        f"64 entries, worst |z| {worst_z:.2f} in {dt:.1f}s",
        "|z| < 3 for A in {X3, Laplacian}, V~ in {1, chi_1/2}, < 10 min",
        ok,
    )
    assert ok


def test_criterion_08_differential_operator_deterministic():
    t0 = time.perf_counter()
    t = 0.5
    checks = gate_laplacian_entries(t, _all_pairs())
    scale = 0.75 * _spin_half_entries()[0][1].norm_sq()
    worst = max(abs(complex(*c["value"]) - c["target"]) / scale for c in checks)
    # the finite-difference radial profile must be degree-1 in r^2 on [0, 3],
    # an independent check of the closed form the entries use
    rr = np.linspace(0.0, 3.0, 25)
    vals = fd_radial_symbol_table(LeftInvariantOperator.laplacian(), t, rr).real
    coef = np.polyfit(rr**2, vals, 1)
    resid = float(np.max(np.abs(np.polyval(coef, rr**2) - vals)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and resid <= 1e-4 and dt < 120.0
    record_gate(
        "criterion 8, differential operator theorem (deterministic)",
        f"worst entry error {worst:.2e}, radial fit residual {resid:.2e} in {dt:.1f}s",
        "entries within 1e-3 relative, degree-1 fit in r^2 residual <= 1e-4, < 2 min",
        ok,
    )
    assert ok


def test_criterion_09_boundedness():
    checks = [
        c
        for t in (0.5, 1.0)
        for _, f in _spin_half_entries()
        for c in gate_boundedness(t, _sampler(t), f)
    ]
    margin = min(c["bound"] + 3.0 * c["stderr"] - c["value"] for c in checks)
    ok = all(c["passed"] for c in checks)
    record_gate(
        "criterion 9, Toeplitz boundedness",
        f"smallest margin {margin:.3e}",
        "|<F, T F>| <= sup|V~| ||f||^2 + 3 stderr over the criterion-6 matrix",
        ok,
    )
    assert ok


def test_criterion_10_euclidean_baseline():
    t0 = time.perf_counter()
    checks = gate_euclid(6, 100000, SEED)
    worst_gap = max(c["value"] for c in checks)
    worst_z = max(c["mc_z"] for c in checks)
    dt = time.perf_counter() - t0
    ok = worst_gap < 1e-8 and worst_z < 3.0 and dt < 60.0
    record_gate(
        "criterion 10, Euclidean baseline",
        f"worst gap {worst_gap:.2e}, worst MC |z| {worst_z:.2f} in {dt:.1f}s",
        "deterministic < 1e-8 and |z| < 3 for symbols up to degree 6, < 1 min",
        ok,
    )
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_paths": 4000, "n_steps": 50}))
    outs = []
    for w in ("1", "3"):
        out = tmp_path / f"workers{w}"
        cli_main(
            ["toeplitz-mult", "--config", str(cfg), "--out", str(out), "--workers", w]
        )
        outs.append(out)
    same = (
        (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        and (outs[0] / "blocks.csv").read_bytes() == (outs[1] / "blocks.csv").read_bytes()
    )
    record_gate(
        "criterion 11, reproducibility",
        "report.json and blocks.csv byte-identical across worker counts",
        "same master seed, workers 1 vs 3",
        same,
    )
    assert same
