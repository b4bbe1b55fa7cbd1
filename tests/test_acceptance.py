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

from su2quant.algebra import default_cutoff, kc_quadrature, random_su2
from su2quant.cli import main as cli_main
from su2quant.diffop import LeftInvariantOperator, radial_symbol_table
from su2quant.euclid import HermiteExpansion, euclid_toeplitz_check
from su2quant.heat import calibrate_nu, semigroup_sup_error
from su2quant.sde import (
    BrownianPath,
    character_moment,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    expected_character_K,
    expected_character_KC,
    pathwise_identity_residual,
    sample_path,
)
from su2quant.toeplitz import (
    ToeplitzSampler,
    schrodinger_entry,
    sup_K,
    toeplitz_entry_quadrature,
)
from su2quant.wigner import BandLimited, inner_product_K

pytestmark = pytest.mark.acceptance

SEED = 2026
WORKERS = 4

_samplers: dict[float, ToeplitzSampler] = {}


def _sampler(t: float) -> ToeplitzSampler:
    if t not in _samplers:
        _samplers[t] = ToeplitzSampler(
            t, 200000, 200, SEED, workers=WORKERS, x_total_two_j=4
        )
    return _samplers[t]


def _spin_half_entries():
    return [
        BandLimited.entry(0.5, m, mp)
        for m in (0.5, -0.5)
        for mp in (0.5, -0.5)
    ]


def test_criterion_01_calibration():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.2, 0.5, 1.0):
        rec = calibrate_nu(t)
        worst = max(
            worst,
            abs(rec.mass_residual),
            abs(rec.unitarity_residuals["spin_half"]),
            abs(rec.unitarity_residuals["spin_one"]),
        )
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
    rng = np.random.default_rng(SEED)
    traces = np.einsum("paa->p", random_su2(rng, 1000)).real
    times = (0.2, 0.5)
    sup_err = max(
        semigroup_sup_error(t, s, traces) for i, t in enumerate(times) for s in times[i:]
    )
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
    ens = endpoint_ensemble_K(1.0, 100000, 400, SEED, workers=WORKERS)
    worst_z = 0.0
    for j in (0.5, 1.0):
        m, e = character_moment(ens, j)
        worst_z = max(worst_z, abs(m - expected_character_K(1.0, j)) / e)
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
    worst_z = 0.0
    for i, (s, t) in enumerate(((1.0, 0.5), (0.25, 0.5))):
        ens = endpoint_ensemble_KC(s, t, 100000, 400, SEED + i, workers=WORKERS)
        for j in (0.5, 1.0):
            m, e = character_moment(ens, j)
            pred = expected_character_KC(s, t, j)
            if s == t / 2.0:
                assert pred > 2 * j + 1  # subelliptic slice grows
            worst_z = max(worst_z, abs(m - pred) / e)
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
    steps = [100, 200, 400, 800]
    meds = []
    for n in steps:
        rs = [
            pathwise_identity_residual(
                sample_path(0.75, n, SEED + 10000 + k),
                sample_path(0.25, n, SEED + 20000 + k),
            )
            for k in range(200)
        ]
        meds.append(float(np.median(rs)))
    slope = float(-np.polyfit(np.log(steps), np.log(meds), 1)[0])
    det = []
    for n in steps:
        a = BrownianPath(np.tile(np.array([0.3, -0.2, 0.5]) / n, (n, 1)), 1.0)
        b = BrownianPath(np.tile(np.array([-0.1, 0.4, 0.2]) / n, (n, 1)), 1.0)
        det.append(pathwise_identity_residual(a, b))
    ratios = [det[i] / det[i + 1] for i in range(3)]
    dt = time.perf_counter() - t0
    ok = slope >= 0.4 and all(r >= 1.9 for r in ratios) and dt < 180.0
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
    entries = _spin_half_entries()
    symbols = [
        BandLimited.constant(1.0),
        BandLimited.character_fn(0.5),
        BandLimited.character_fn(1.0),
    ]
    worst_z = 0.0
    stderr_ok = True
    for t in (0.5, 1.0):
        smp = _sampler(t)
        max_mag = 0.0
        ests = []
        for vt in symbols:
            v = vt.heat(t / 2.0, sign=-1.0)
            for f1 in entries:
                for f2 in entries:
                    est = smp.entry(vt, f1, f2)
                    exact = schrodinger_entry(
                        v, LeftInvariantOperator.identity(), f1, f2
                    )
                    ests.append((est, exact))
                    max_mag = max(max_mag, abs(exact))
        for est, exact in ests:
            # absolute floor 1e-10 keeps analytically-zero entries, where
            # value and stderr are both roundoff, out of the z statistic
            gap = abs(est.value - exact)
            worst_z = max(worst_z, 3.0 * gap / (3.0 * est.stderr + 1e-10))
            stderr_ok = stderr_ok and est.stderr <= 0.01 * max_mag
    dt = time.perf_counter() - t0
    ok = worst_z < 3.0 and stderr_ok and dt < 600.0
    record_gate(
        "criterion 6, multiplication theorem",
        f"96 entries, worst |z| {worst_z:.2f}, stderr budget "
        f"{'met' if stderr_ok else 'exceeded'} in {dt:.1f}s",
        "|z| < 3 and stderr <= 1% of largest entry at n_paths = 2e5, < 10 min",
        ok,
    )
    assert ok


def test_criterion_07_differential_operator_stochastic():
    t0 = time.perf_counter()
    t = 0.5
    smp = _sampler(t)
    entries = _spin_half_entries()
    ops = [LeftInvariantOperator.vector_field(3), LeftInvariantOperator.laplacian()]
    symbols = [BandLimited.constant(1.0), BandLimited.character_fn(0.5)]
    worst_z = 0.0
    for a in ops:
        for vt in symbols:
            v = vt.heat(t / 2.0, sign=-1.0)
            for f1 in entries:
                for f2 in entries:
                    est = smp.entry(vt, f1, f2, a=a)
                    exact = schrodinger_entry(v, a, f1, f2)
                    gap = abs(est.value - exact)
                    worst_z = max(worst_z, 3.0 * gap / (3.0 * est.stderr + 1e-10))
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
    lap = LeftInvariantOperator.laplacian()
    rule = kc_quadrature(default_cutoff(t) + 1.5, k_two_jmax=1, n_r=64)
    probe = np.unique(rule.radii)
    table = radial_symbol_table(lap, t, probe)
    symbol = lambda r: np.interp(r, probe, table.real)
    entries = _spin_half_entries()
    scale = 0.75 * entries[0].norm_sq()
    worst = 0.0
    for f1 in entries:
        for f2 in entries:
            est = toeplitz_entry_quadrature(t, symbol, f1, f2, rule, radial=True)
            target = -0.75 * inner_product_K(f1, f2)
            worst = max(worst, abs(est.value - target) / scale)
    # radial profile must be degree-1 in r^2 on [0, 3]
    rr = np.linspace(0.0, 3.0, 25)
    vals = radial_symbol_table(lap, t, rr).real
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
    entries = _spin_half_entries()
    symbols = [
        BandLimited.constant(1.0),
        BandLimited.character_fn(0.5),
        BandLimited.character_fn(1.0),
    ]
    margin = np.inf
    ok = True
    for t in (0.5, 1.0):
        smp = _sampler(t)
        for vt in symbols:
            sup_v = sup_K(vt)
            for f in entries:
                est = smp.entry(vt, f, f)
                bound = sup_v * f.norm_sq() + 3.0 * est.stderr
                margin = min(margin, bound - abs(est.value))
                ok = ok and abs(est.value) <= bound
    record_gate(
        "criterion 9, Toeplitz boundedness",
        f"smallest margin {margin:.3e}",
        "|<F, T F>| <= sup|V~| ||f||^2 + 3 stderr over the criterion-6 matrix",
        ok,
    )
    assert ok


def test_criterion_10_euclidean_baseline():
    t0 = time.perf_counter()
    f1 = HermiteExpansion([1.0, 0.5, 0.0, 0.2])
    f2 = HermiteExpansion([0.3, -0.2, 0.7])
    worst_gap = 0.0
    worst_z = 0.0
    for deg in range(7):
        sym = np.zeros(deg + 1)
        sym[deg] = 1.0
        rep = euclid_toeplitz_check(
            0.4, sym, f1, f2, n_samples=100000, master_seed=SEED
        )
        worst_gap = max(worst_gap, rep.deterministic_gap)
        worst_z = max(worst_z, rep.mc_z_score)
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
