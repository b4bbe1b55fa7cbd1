"""Batch experiment runner with machine-readable reports.

Subcommands mirror the verification layers: ``calibrate`` pins the kernel
constants, ``heat-check`` / ``transform-check`` run the deterministic
identities, ``sde-check`` the endpoint-moment and pathwise gates, the two
``toeplitz-*`` commands the theorem matrices, and ``euclid-baseline`` the
flat-case oracle.

Every run writes ``report.json`` (schema ``su2quant-report/1``) and, for the
Monte Carlo commands, ``blocks.csv`` with one block mean per row.  Reports
depend only on the configuration and master seed, never on the worker
count, so repeated runs are byte-identical.

Exit codes: 0 all gates pass, 1 at least one gate failed, 2 configuration
error, 3 an error inside the command (its type and message go to
``report.json`` under ``error``, the traceback to stderr).

Each acceptance gate is one ``gate_*`` function; the subcommands call them
with their configuration and the acceptance tests with their own sizes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .algebra import polar_rule, random_su2
from .diffop import LeftInvariantOperator, radial_symbol_table
from .euclid import MAX_SYMBOL_DEGREE, HermiteExpansion, euclid_toeplitz_check
from .heat import calibrate_nu, nu_radial, semigroup_sup_error
from .hl2 import hl2_inner
from .sde import (
    DEFAULT_N_BLOCKS,
    character_moment,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    expected_character_K,
    expected_character_KC,
    pathwise_identity_residual,  # noqa: F401 (unused here; bench/tests calls it through cli)
    pathwise_residuals,
    sample_path,  # noqa: F401 (unused here; bench/tests calls cli.sample_path)
)
from .toeplitz import ToeplitzSampler, schrodinger_entry
from .transform import adjoint_inversion_oracle, inverse_C, transform_C
from .wigner import TWO_J_CAP, BandLimited, inner_product_K

SCHEMA = "su2quant-report/1"


class ConfigError(Exception):
    pass


def _number(value) -> bool:
    """A finite int or float; no field is boolean, and bool subclasses int."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max  # math.isfinite raises on ints past the float range
    )


def _spin(value) -> bool:
    """A half-integer j with 0 <= j <= TWO_J_CAP / 2."""
    return _number(value) and 2 * value == int(2 * value) and 0 <= 2 * value <= TWO_J_CAP


def _ints(lo: int, hi: float = math.inf):
    return lambda value: type(value) is int and lo <= value <= hi


def _between(lo: float, hi: float):
    return lambda value: _number(value) and lo <= value <= hi


def _nonempty_list(rule):
    return lambda value: isinstance(value, list) and bool(value) and all(map(rule, value))


# Every time in the config, t and each of t_values: calibrate finds its bracket
# for beta on [8.69e-4, 26.21] and transform-check runs on [4.51e-3, 36.84]
# (below, no certified truncation of rho_t; above, inverse_C's guard trips).
# The common range, rounded inward; toeplitz-diff ends in a verdict at both ends.
T_VALUES_RANGE = (0.005, 26.0)


# Every config field: name -> (default, the rule its value must pass, what the
# error says was expected)
FIELDS = {
    "t_values": ([0.2, 0.5, 1.0], _nonempty_list(_between(*T_VALUES_RANGE)),
                 "a non-empty list of numbers from {} to {}".format(*T_VALUES_RANGE)),
    "t": (0.5, _between(*T_VALUES_RANGE), "a number from {} to {}".format(*T_VALUES_RANGE)),
    "n_paths": (200000, _ints(DEFAULT_N_BLOCKS),
                f"an int >= {DEFAULT_N_BLOCKS}, one path per Monte Carlo block"),
    "n_steps": (200, _ints(1), "an int >= 1"),
    "n_grid": (1000, _ints(1), "an int >= 1"),
    "master_seed": (2026, _ints(0), "an int >= 0"),
    "spins": ([0.5, 1.0], _nonempty_list(_spin),
              f"a non-empty list of half-integers j with 0 <= j <= {TWO_J_CAP // 2}"),
    "euclid_degree_max": (MAX_SYMBOL_DEGREE, _ints(1, MAX_SYMBOL_DEGREE),
                          f"an int from 1 to {MAX_SYMBOL_DEGREE}"),
}


DEFAULTS = {name: field[0] for name, field in FIELDS.items()}


def _checked(where: str, value, field: tuple):
    _, rule, expected = field
    if not rule(value):
        raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")
    return value


def load_config(path: str | None, seed_override: int | None) -> dict:
    """The defaults, with the config file's fields checked and written over them one at a time."""
    cfg = json.loads(json.dumps(DEFAULTS))
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: expected an object, got {json.dumps(user)}")
        # an unknown field (a misspelt name) is named before any value is checked
        for key in user:
            if key not in FIELDS:
                raise ConfigError(f"config field '{key}': unknown field")
        for key, value in user.items():
            cfg[key] = _checked(f"config field '{key}'", value, FIELDS[key])
    if seed_override is not None:
        cfg["master_seed"] = _checked("--seed", seed_override, FIELDS["master_seed"])
    return cfg


def _check(name: str, value, gate: str, passed: bool, **extra) -> dict:
    out = {"name": name, "gate": gate, "passed": bool(passed)}
    if isinstance(value, complex):
        out["value"] = [value.real, value.imag]
    else:
        out["value"] = value
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# gates: one function each, called by the subcommands and the acceptance
# tests with their own sizes, seeds and samplers
# ---------------------------------------------------------------------------

def _spin_half_entries():
    """The four entries D^{1/2}_{m,m'} as functions on K, with their report names."""
    out = []
    for m in (0.5, -0.5):
        for mp in (0.5, -0.5):
            out.append((f"D[1/2]_{m},{mp}", BandLimited.entry(0.5, m, mp)))
    return out


def _symbols():
    """The Toeplitz symbols V~ of the Monte Carlo gates, with their report names."""
    return [
        ("1", BandLimited.constant(1.0)),
        ("chi_1/2", BandLimited.character_fn(0.5)),
        ("chi_1", BandLimited.character_fn(1.0)),
    ]


def gate_calibration(t_values) -> list[dict]:
    """Mass and unitarity residuals of the calibrated nu_t, one check per t."""
    checks = []
    for t in t_values:
        rec = calibrate_nu(t)
        worst = max(
            abs(rec.mass_residual),
            abs(rec.unitarity_residuals["spin_half"]),
            abs(rec.unitarity_residuals["spin_one"]),
        )
        checks.append(
            _check(
                f"calibration t={t}",
                worst,
                "mass and unitarity residuals < 1e-5",
                worst < 1e-5,
                beta=rec.beta,
                normalization=rec.normalization,
                analytic_normalization=rec.analytic_normalization,
            )
        )
    return checks


def gate_semigroup(pairs, n_grid: int, seed: int) -> list[dict]:
    """sup |rho_t * rho_s - rho_{t+s}| on n_grid random points, one check per (t, s)."""
    rng = np.random.default_rng(seed)
    traces = np.einsum("paa->p", random_su2(rng, n_grid)).real
    checks = []
    for t, s in pairs:
        sup_err = semigroup_sup_error(t, s, traces)
        checks.append(
            _check(
                f"semigroup sup |rho_{t} * rho_{s} - rho_{t + s}| on {n_grid} points",
                sup_err,
                "<= 1e-8",
                sup_err <= 1e-8,
            )
        )
    return checks


def _moment_check(name: str, ens, j, pred: float) -> dict:
    m, e = character_moment(ens, j)
    z = (m - pred) / e
    return _check(
        name, float(m), "|z| < 3", abs(z) < 3, predicted=pred, stderr=float(e), z=float(z)
    )


def gate_real_moments(n_paths: int, n_steps: int, seed: int, spins, workers: int) -> list[dict]:
    """Endpoint means of chi_j on K at s = 1 against (2j+1) e^{-c_j/2}."""
    ens = endpoint_ensemble_K(1.0, n_paths, n_steps, seed, workers=workers)
    return [
        _moment_check(f"real endpoint moment chi_{j}, s=1", ens, j, expected_character_K(1.0, j))
        for j in spins
    ]


def gate_complex_moments(runs, n_paths: int, n_steps: int, spins, workers: int):
    """Endpoint means of chi_j on K_C for each (s, t, seed) in ``runs``.

    Returns the checks and, per run, the block means of tr(g).
    """
    checks, blocks = [], []
    for s, t, seed in runs:
        ens = endpoint_ensemble_KC(s, t, n_paths, n_steps, seed, workers=workers)
        checks += [
            _moment_check(
                f"complex endpoint moment chi_{j}, s={s}, t={t}",
                ens, j, expected_character_KC(s, t, j),
            )
            for j in spins
        ]
        for i, b in enumerate(ens.block_views()):
            trace = np.trace(b, axis1=-2, axis2=-1).real
            blocks.append((f"trace blocks s={s} t={t}", i, float(np.mean(trace)), 0.0))
    return checks, blocks


def gate_pathwise(steps, seed: int) -> list[dict]:
    """The pathwise identity: median-residual slope over ``steps`` and the
    halving ratios of a deterministic pair of paths."""
    meds, det = pathwise_residuals(steps, seed)
    slope = float(-np.polyfit(np.log(steps), np.log(meds), 1)[0])
    ratios = [det[i] / det[i + 1] for i in range(len(det) - 1)]
    return [
        _check("pathwise identity log-log slope", slope, ">= 0.4", slope >= 0.4, medians=meds),
        _check(
            "deterministic pathwise identity halving ratio",
            ratios,
            "each >= 1.9 (rate >= O(1/n))",
            all(r >= 1.9 for r in ratios),
        ),
    ]


def _entry_check(name: str, est, exact: complex, blocks: list) -> dict:
    """A Monte Carlo entry against its exact value; appends its block means to ``blocks``."""
    blocks.extend(
        (name, i, float(bv.real), float(bv.imag)) for i, bv in enumerate(est.block_values)
    )
    return _check(
        name,
        est.value,
        "|MC - exact| <= 3 stderr",
        abs(est.value - exact) <= 3.0 * est.stderr + 1e-10,
        exact=[exact.real, exact.imag],
        stderr=est.stderr,
    )


def gate_multiplication(t: float, sampler: ToeplitzSampler):
    """Every spin-1/2 entry of T_{V~} at t against the Schrodinger side, then
    the stderr budget (the last check)."""
    checks, blocks = [], []
    identity = LeftInvariantOperator.identity()
    entries = _spin_half_entries()
    max_mag = 0.0
    for vname, vt in _symbols():
        v = vt.heat(t / 2.0, sign=-1.0)
        for n1, f1 in entries:
            for n2, f2 in entries:
                exact = schrodinger_entry(v, identity, f1, f2)
                max_mag = max(max_mag, abs(exact))
                checks.append(_entry_check(
                    f"mult t={t} V~={vname} <{n1},{n2}>", sampler.entry(vt, f1, f2), exact, blocks
                ))
    worst_err = max(c["stderr"] for c in checks)
    checks.append(
        _check(
            f"mult t={t} stderr budget",
            worst_err,
            "max stderr <= 1% of largest entry",
            worst_err <= 0.01 * max_mag,
            largest_entry=max_mag,
        )
    )
    return checks, blocks


def gate_boundedness(t: float, sampler: ToeplitzSampler, f: BandLimited) -> list[dict]:
    """|<F, T_{V~} F>| <= sup|V~| ||f||^2 + 3 stderr for each symbol V~, with
    sup|V~| taken as its coefficient bound ``sup_bound_K``."""
    checks = []
    for vname, vt in _symbols():
        est = sampler.entry(vt, f, f)
        bound = vt.sup_bound_K() * f.norm_sq()
        checks.append(
            _check(
                f"boundedness t={t} V~={vname}",
                abs(est.value),
                "|entry| <= sup|V~| ||f||^2 + 3 stderr",
                abs(est.value) <= bound + 3.0 * est.stderr,
                bound=bound,
                stderr=est.stderr,
            )
        )
    return checks


def gate_differential(t: float, sampler: ToeplitzSampler, pairs):
    """Entries of T for A in {X3, Laplacian} and V~ in {1, chi_1/2} against the
    Schrodinger side, for each (label, f1, f2) in ``pairs``."""
    checks, blocks = [], []
    ops = [
        ("X3", LeftInvariantOperator.vector_field(3)),
        ("Delta", LeftInvariantOperator.laplacian()),
    ]
    for aname, a in ops:
        for vname, vt in _symbols()[:2]:
            v = vt.heat(t / 2.0, sign=-1.0)
            for lbl, f1, f2 in pairs:
                checks.append(_entry_check(
                    f"diff t={t} A={aname} V~={vname} <{lbl}>",
                    sampler.entry(vt, f1, f2, a=a), schrodinger_entry(v, a, f1, f2), blocks,
                ))
    return checks, blocks


def gate_laplacian_entries(t: float, pairs) -> list[dict]:
    """The V = 1 Laplacian entries by polar quadrature of its closed-form symbol,
    against -3/4 <f1, f2>, relative to -3/4 ||f1||^2."""
    rule = polar_rule(t)
    weight = nu_radial(t, rule.radii) * radial_symbol_table(t, rule.radii)
    checks = []
    for lbl, f1, f2 in pairs:
        value = hl2_inner(transform_C(t, f1), transform_C(t, f2), rule, weight)
        target = -0.75 * inner_product_K(f1, f2).real
        rel = abs(value - target) / (0.75 * f1.norm_sq())
        checks.append(
            _check(
                f"deterministic {lbl},Delta entry t={t}",
                value,
                "relative error < 1e-3",
                rel < 1e-3,
                target=target,
            )
        )
    return checks


def gate_euclid(degree_max: int, n_samples: int, seed: int) -> list[dict]:
    """The flat Toeplitz identity for the symbols x^0 .. x^degree_max."""
    f1 = HermiteExpansion([1.0, 0.5, 0.0, 0.2])
    f2 = HermiteExpansion([0.3, -0.2, 0.7])
    symbols = [np.eye(deg + 1)[deg] for deg in range(degree_max + 1)]
    reports = euclid_toeplitz_check(0.4, symbols, f1, f2, n_samples=n_samples, master_seed=seed)
    return [
        _check(
            f"flat Toeplitz identity, symbol x^{deg}",
            rep.deterministic_gap,
            "deterministic gap < 1e-8 and MC |z| < 3",
            rep.deterministic_gap < 1e-8 and rep.mc_z_score < 3,
            mc_z=rep.mc_z_score,
            mc_stderr=rep.mc_stderr,
        )
        for deg, rep in enumerate(reports)
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_calibrate(cfg: dict, workers: int):
    return gate_calibration(cfg["t_values"]), []


def cmd_heat_check(cfg: dict, workers: int):
    return gate_semigroup([(0.2, 0.5)], cfg["n_grid"], cfg["master_seed"]), []


def cmd_transform_check(cfg: dict, workers: int):
    checks = []
    rng = np.random.default_rng(cfg["master_seed"])
    for t in cfg["t_values"]:
        rule = polar_rule(t)
        nu = nu_radial(t, rule.radii)
        worst = 0.0
        for two_j in (1, 2, 3):
            c = rng.standard_normal((two_j + 1, two_j + 1))
            f = BandLimited({two_j: c})
            F = transform_C(t, f)
            lhs = hl2_inner(F, F, rule, nu).real
            worst = max(worst, abs(lhs / f.norm_sq() - 1.0))
        checks.append(
            _check(
                f"C_t unitarity t={t}, spins <= 3/2",
                worst,
                "relative error < 1e-5",
                worst < 1e-5,
            )
        )
        f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
        back = inverse_C(t, transform_C(t, f))
        rt = float(np.max(np.abs(back.blocks[1] - f.blocks[1])))
        checks.append(_check(f"round trip t={t}", rt, "< 1e-12", rt < 1e-12))
        rec = adjoint_inversion_oracle(t, transform_C(t, f), rule, two_jmax=2)
        gap = float(np.max(np.abs(rec.blocks[1] - f.blocks[1])))
        checks.append(_check(f"adjoint inversion oracle t={t}", gap, "< 1e-4", gap < 1e-4))
    return checks, []


def cmd_sde_check(cfg: dict, workers: int):
    seed = cfg["master_seed"]
    n_paths = min(cfg["n_paths"], 100000)
    spins = cfg["spins"]
    checks = gate_real_moments(n_paths, max(cfg["n_steps"], 400), seed, spins, workers)
    runs = ((1.0, 0.5, seed + 1), (0.25, 0.5, seed + 1))
    complex_checks, blocks = gate_complex_moments(runs, n_paths, cfg["n_steps"], spins, workers)
    return checks + complex_checks + gate_pathwise([100, 200, 400, 800], seed), blocks


def cmd_toeplitz_mult(cfg: dict, workers: int):
    checks, blocks = [], []
    ts = (0.5, 1.0)
    samplers = ToeplitzSampler.for_times(ts, cfg["n_paths"], cfg["n_steps"], cfg["master_seed"], workers=workers)
    f = _spin_half_entries()[0][1]
    for t, smp in zip(ts, samplers):
        mult_checks, mult_blocks = gate_multiplication(t, smp)
        checks += mult_checks + gate_boundedness(t, smp, f)
        blocks += mult_blocks
    return checks, blocks


def cmd_toeplitz_diff(cfg: dict, workers: int):
    t = cfg["t"]
    smp = ToeplitzSampler.for_times([t], cfg["n_paths"], cfg["n_steps"], cfg["master_seed"], workers=workers)[0]
    (_, f1), (_, f2) = _spin_half_entries()[:2]
    checks, blocks = gate_differential(t, smp, [("11", f1, f1), ("12", f1, f2)])
    return checks + gate_laplacian_entries(t, [("phi_1", f1, f1)]), blocks


def cmd_euclid(cfg: dict, workers: int):
    n_samples = min(cfg["n_paths"], 100000)
    return gate_euclid(cfg["euclid_degree_max"], n_samples, cfg["master_seed"]), []


COMMANDS = {
    "calibrate": cmd_calibrate,
    "heat-check": cmd_heat_check,
    "transform-check": cmd_transform_check,
    "sde-check": cmd_sde_check,
    "toeplitz-mult": cmd_toeplitz_mult,
    "toeplitz-diff": cmd_toeplitz_diff,
    "euclid-baseline": cmd_euclid,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="su2quant")
    parser.add_argument("subcommand", choices=sorted(COMMANDS), nargs="?")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=".")
    parser.add_argument("--print-defaults", action="store_true")
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return 0
    if args.subcommand is None:
        parser.error("a subcommand is required unless --print-defaults is given")

    try:
        if args.workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
        cfg = load_config(args.config, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": SCHEMA,
        "subcommand": args.subcommand,
        "config": cfg,
        "checks": [],
        "passed": False,
    }
    blocks = []
    try:
        checks, blocks = COMMANDS[args.subcommand](cfg, args.workers)
    except Exception as exc:
        # exit 3: an error inside the command, told apart from a failed gate (exit 1)
        traceback.print_exc()
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    else:
        report["checks"] = checks
        report["passed"] = all(c["passed"] for c in checks)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if blocks:
        with open(out_dir / "blocks.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "block", "real", "imag"])
            writer.writerows(blocks)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']} ({c['gate']})")
    if "error" in report:
        return 3
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
