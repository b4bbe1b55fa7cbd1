"""Tests of the benchmark itself: its oracles, its checkers and its traced mode.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

ENTRIES = [(m, mp) for m in ("0.5", "-0.5") for mp in ("0.5", "-0.5")]
SYMBOLS = ["1", "chi_1/2", "chi_1"]


def _mult_check(t, v, e1, e2, value, stderr):
    name = f"mult t={t} V~={v} <D[1/2]_{e1[0]},{e1[1]},D[1/2]_{e2[0]},{e2[1]}>"
    return {"name": name, "value": [value.real, value.imag], "stderr": stderr}


def test_hopf_rule_is_a_haar_rule():
    x, w = oracles.hopf_rule()
    assert np.isclose(w.sum(), oracles.VOL_K)
    # Schur orthogonality of spin-1/2 entries: <x_ab, x_cd> = Vol/2 delta
    for a, b in np.ndindex(2, 2):
        for c, d in np.ndindex(2, 2):
            got = np.sum(w * np.conj(x[:, a, b]) * x[:, c, d])
            assert abs(got - (oracles.VOL_K / 2 if (a, b) == (c, d) else 0)) < 1e-12


def test_exact_entries_match_the_package():
    """The oracle and su2quant's coefficient algebra agree on every entry the CLI checks."""
    from su2quant.diffop import LeftInvariantOperator
    from su2quant.toeplitz import schrodinger_entry
    from su2quant.wigner import BandLimited

    ops = {"identity": LeftInvariantOperator.identity(),
           "X3": LeftInvariantOperator.vector_field(3),
           "Delta": LeftInvariantOperator.laplacian()}
    vt = {"1": BandLimited.constant(1.0), "chi_1/2": BandLimited.character_fn(0.5),
          "chi_1": BandLimited.character_fn(1.0)}
    for t in (0.5, 1.0):
        for v in SYMBOLS:
            V = vt[v].heat(t / 2.0, sign=-1.0)
            for op, A in ops.items():
                for e1 in ENTRIES:
                    for e2 in ENTRIES:
                        f1 = BandLimited.entry(0.5, float(e1[0]), float(e1[1]))
                        f2 = BandLimited.entry(0.5, float(e2[0]), float(e2[1]))
                        want = schrodinger_entry(V, A, f1, f2)
                        got = oracles.exact_entry(
                            v, t, oracles.spin_half_entry(*e1), oracles.spin_half_entry(*e2), op)
                        assert abs(got - want) < 1e-10, (t, v, op, e1, e2)


def test_mc_entry_checker_rejects_ten_stderr():
    exact = oracles.exact_entry("chi_1", 0.5, (0, 0), (0, 0))
    z = oracles.family_z(110)
    assert 4.0 < z < 10.0
    for shift, ok in ((0.0, True), (2.0, True), (10.0, False), (-10.0, False)):
        chk = _mult_check(0.5, "chi_1", ENTRIES[0], ENTRIES[0], exact + shift * 0.2, 0.2)
        [(_, passed, _)] = oracles.check_mc_entries(oracles.mc_targets([chk]), z)
        assert passed is ok
    diff = {"name": "diff t=0.5 A=X3 V~=chi_1/2 <12>", "value": [0.0, 0.0], "stderr": 0.1}
    [(name, est, err, exact)] = oracles.mc_targets([diff])
    diff["value"] = [exact.real + 1.0, exact.imag]
    [(_, passed, _)] = oracles.check_mc_entries(oracles.mc_targets([diff]), z)
    assert not passed


def test_laplacian_entry_checker():
    target = -0.75 * oracles.VOL_K / 2
    assert oracles.check_laplacian_entry({"value": [target * (1 + 1e-4), 0.0]})[1]
    assert not oracles.check_laplacian_entry({"value": [target * 1.01, 0.0]})[1]


def test_character_moment_checker():
    pred = 2 * np.exp(-0.5 * 0.75 / 2)  # j = 1/2, s = 1, t = 0.5
    chk = {"name": "complex endpoint moment chi_0.5, s=1.0, t=0.5", "value": pred, "stderr": 0.01}
    z = oracles.family_z(6)
    assert oracles.check_character_moment(chk, z)[1]
    chk["value"] = pred + 10 * 0.01
    assert not oracles.check_character_moment(chk, z)[1]
    real = {"name": "real endpoint moment chi_1.0, s=1", "value": 3 * np.exp(-1.0), "stderr": 0.01}
    assert oracles.check_character_moment(real, z)[1]


def test_pathwise_checker_rejects_halving_ratio():
    slope = {"value": 0.5}
    assert all(ok for _, ok, _ in oracles.check_pathwise(slope, {"value": [2.0, 1.95, 2.1]}))
    res = oracles.check_pathwise(slope, {"value": [2.0, 1.5, 2.1]})
    assert [ok for _, ok, _ in res] == [True, True, False, True]
    assert not oracles.check_pathwise({"value": 0.3}, {"value": [2.0]})[0][1]


def test_calibration_checker_rejects_beta_off_by_1e3():
    t = 0.5
    n = (np.pi * t) ** -1.5 * np.exp(-t / 4)
    good = {"beta": 1.0 + 1e-9, "normalization": n * (1 + 1e-9)}
    assert all(ok for _, ok, _ in oracles.check_calibration(good, t))
    bad = dict(good, beta=1.0 + 1e-3)
    assert [ok for _, ok, _ in oracles.check_calibration(bad, t)] == [False, True]
    bad = dict(good, normalization=n * (1 + 1e-3))
    assert [ok for _, ok, _ in oracles.check_calibration(bad, t)] == [True, False]


def test_bound_checker():
    assert oracles.check_bound({"name": "x", "value": 5e-9}, "semigroup error", 1e-8)[1]
    assert not oracles.check_bound({"name": "x", "value": 2e-8}, "semigroup error", 1e-8)[1]


# Small configs so that a traced run of every layer the CLI reaches takes seconds.
_SHORT_RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, {bench!r})
import worker
from workloads import Step
from su2quant import cli

steps = [
    Step("toeplitz-mult", {{"n_paths": 2000, "n_steps": 10}}, 2, False),
    Step("toeplitz-diff", {{"n_paths": 2000, "n_steps": 10}}, 2, False),
    Step("calibrate", {{"t_values": [0.5]}}, 1, True),
    Step("heat-check", {{"n_grid": 50}}, 1, True),
    Step("transform-check", {{"t_values": [0.5]}}, 1, True),
    Step("euclid-baseline", {{"n_paths": 2000, "euclid_degree_max": 2}}, 1, True),
]

def verify(reports):
    # the layers the sde-check subcommand reaches, called at a small size
    # through the names cli imported, which the tracer must have replaced
    ens = cli.endpoint_ensemble_K(1.0, 400, 10, 1)
    cli.character_moment(ens, 0.5)
    a, b = cli.sample_path(0.75, 20, 1), cli.sample_path(0.25, 20, 2)
    cli.pathwise_identity_residual(a, b)
    return []

res = worker.run(steps, verify, 7, 0.0, True, Path({out!r}))
print(json.dumps(res))
"""


def test_traced_short_run_emits_every_layer(tmp_path):
    script = _SHORT_RUN.format(bench=str(BENCH), out=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = {k: v for k, (v, _) in res["layers"].items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(layers) == sorted(names)
    # every layer ran in this run, so every busy time, rate and count is positive
    always_positive = [n for n in names if n not in ("trace.wrapper_cost_est_s", "cli.self_s")]
    assert [n for n in always_positive if not layers[n] > 0] == []
    assert layers["toeplitz.moment_builds"] <= layers["toeplitz.moment_requests"]
    assert len(res["walls"]) == 1 and layers["trace.wall_s"] == res["walls"][0]


def test_workload_table():
    import run

    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    for steps in workloads.WORKLOADS.values():
        assert all(1 <= s.workers <= 2 for s in steps)


def test_workload_table_loads_no_numpy():
    """worker.py takes set-up time after importing workloads, so it must not pull in NumPy."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
