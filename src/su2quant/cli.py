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
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import kc_quadrature, random_su2, default_cutoff
from .diffop import LeftInvariantOperator, radial_symbol_table
from .euclid import HermiteExpansion, euclid_toeplitz_check
from .heat import calibrate_nu, nu_radial, semigroup_sup_error
from .hl2 import hl2_inner
from .sde import (
    DEFAULT_N_BLOCKS,
    BrownianPath,
    character_moment,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    expected_character_K,
    expected_character_KC,
    pathwise_identity_residual,
    pathwise_medians,
    sample_path,  # noqa: F401 (unused here; bench/tests calls cli.sample_path)
)
from .toeplitz import ToeplitzSampler, schrodinger_entry, sup_K, toeplitz_entry_quadrature
from .transform import adjoint_inversion_oracle, inverse_C, transform_C
from .wigner import TWO_J_CAP, BandLimited

SCHEMA = "su2quant-report/1"

DEFAULTS = {
    "t_values": [0.2, 0.5, 1.0],
    "t": 0.5,
    "n_paths": 200000,
    "n_steps": 200,
    "n_grid": 1000,
    "master_seed": 2026,
    "quadrature": {"n_r": 64, "n_theta": 20, "n_phi": 20},
    "radial_cutoff": None,
    "spins": [0.5, 1.0],
    "euclid_degree_max": 6,
}

_SCHEMA_TYPES = {
    "t_values": list,
    "t": (int, float),
    "n_paths": int,
    "n_steps": int,
    "n_grid": int,
    "master_seed": int,
    "quadrature": dict,
    "radial_cutoff": (int, float, type(None)),
    "spins": list,
    "euclid_degree_max": int,
}

_POSITIVE_COUNTS = ("n_paths", "n_steps", "n_grid", "euclid_degree_max")


class ConfigError(Exception):
    pass


def _positive_time(value) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and value > 0
    )


def _spin(value) -> bool:
    """A half-integer j with 0 <= j <= TWO_J_CAP / 2."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and 2 * value == int(2 * value)
        and 0 <= 2 * value <= TWO_J_CAP
    )


def load_config(path: str | None, seed_override: int | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: top level must be an object")
        for key, value in user.items():
            if key not in DEFAULTS:
                raise ConfigError(f"config field '{key}': unknown field")
            want = _SCHEMA_TYPES[key]
            # no field is boolean, and bool subclasses int
            if isinstance(value, bool) or not isinstance(value, want):
                raise ConfigError(
                    f"config field '{key}': expected {want}, got {type(value).__name__}"
                )
            if key in _POSITIVE_COUNTS and value < 1:
                raise ConfigError(f"config field '{key}': must be >= 1, got {value}")
            if key == "n_paths" and value < DEFAULT_N_BLOCKS:
                raise ConfigError(
                    f"config field 'n_paths': must be >= {DEFAULT_N_BLOCKS}, "
                    f"one path per Monte Carlo block, got {value}"
                )
            if key == "t" and not _positive_time(value):
                raise ConfigError(f"config field 't': expected a finite number > 0, got {value}")
            if key == "t_values" and not (value and all(map(_positive_time, value))):
                raise ConfigError(
                    f"config field 't_values': expected a non-empty list of finite numbers > 0, "
                    f"got {value}"
                )
            if key == "spins" and not (value and all(map(_spin, value))):
                raise ConfigError(
                    f"config field 'spins': expected a non-empty list of half-integers j "
                    f"with 0 <= j <= {TWO_J_CAP // 2}, got {value}"
                )
            if key == "master_seed" and value < 0:
                raise ConfigError(f"config field 'master_seed': must be >= 0, got {value}")
            if key == "radial_cutoff" and not (value is None or _positive_time(value)):
                raise ConfigError(
                    f"config field 'radial_cutoff': expected null or a finite number > 0, "
                    f"got {value}"
                )
            if key == "quadrature":
                for q_key, q_value in value.items():
                    if q_key not in DEFAULTS["quadrature"]:
                        raise ConfigError(f"config field 'quadrature.{q_key}': unknown field")
                    if type(q_value) is not int or q_value < 1:
                        raise ConfigError(
                            f"config field 'quadrature.{q_key}': expected an int >= 1"
                        )
                value = {**cfg["quadrature"], **value}
            cfg[key] = value
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed_override}")
        cfg["master_seed"] = seed_override
    return cfg


def _cutoff(cfg: dict, t: float) -> float:
    """The configured radial cutoff, or the default one for t."""
    return default_cutoff(t) if cfg["radial_cutoff"] is None else cfg["radial_cutoff"]


def _check(name: str, value, gate: str, passed: bool, **extra) -> dict:
    out = {"name": name, "gate": gate, "passed": bool(passed)}
    if isinstance(value, complex):
        out["value"] = [value.real, value.imag]
    else:
        out["value"] = value
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_calibrate(cfg: dict, workers: int):
    checks = []
    q = cfg["quadrature"]
    for t in cfg["t_values"]:
        rec = calibrate_nu(t, n_r=q["n_r"], n_theta=q["n_theta"], n_phi=q["n_phi"])
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
    return checks, []


def cmd_heat_check(cfg: dict, workers: int):
    rng = np.random.default_rng(cfg["master_seed"])
    grid = random_su2(rng, cfg["n_grid"])
    t, s = 0.2, 0.5
    sup_err = semigroup_sup_error(t, s, np.einsum("paa->p", grid).real)
    check = _check(
        f"semigroup sup |rho_{t} * rho_{s} - rho_{t + s}| on {len(grid)} points",
        sup_err,
        "<= 1e-8",
        sup_err <= 1e-8,
    )
    return [check], []


def cmd_transform_check(cfg: dict, workers: int):
    checks = []
    q = cfg["quadrature"]
    rng = np.random.default_rng(cfg["master_seed"])
    for t in cfg["t_values"]:
        R = _cutoff(cfg, t) + 1.5
        rule = kc_quadrature(
            R, k_two_jmax=3, n_r=q["n_r"], n_theta=q["n_theta"], n_phi=q["n_phi"]
        )
        worst = 0.0
        for two_j in (1, 2, 3):
            c = rng.standard_normal((two_j + 1, two_j + 1))
            f = BandLimited({two_j: c})
            F = transform_C(t, f)
            lhs = hl2_inner(F, F, rule, lambda r: nu_radial(t, r)).real
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
    checks = []
    blocks = []
    seed = cfg["master_seed"]
    n_paths = min(cfg["n_paths"], 100000)
    n_steps = cfg["n_steps"]
    ens = endpoint_ensemble_K(1.0, n_paths, max(n_steps, 400), seed, workers=workers)
    for j in cfg["spins"]:
        m, e = character_moment(ens, j)
        pred = expected_character_K(1.0, j)
        z = (m - pred) / e
        checks.append(
            _check(
                f"real endpoint moment chi_{j}, s=1",
                float(m),
                "|z| < 3",
                abs(z) < 3,
                predicted=pred,
                stderr=float(e),
                z=float(z),
            )
        )
    for s, t in ((1.0, 0.5), (0.25, 0.5)):
        ens2 = endpoint_ensemble_KC(s, t, n_paths, n_steps, seed + 1, workers=workers)
        for j in cfg["spins"]:
            m, e = character_moment(ens2, j)
            pred = expected_character_KC(s, t, j)
            z = (m - pred) / e
            checks.append(
                _check(
                    f"complex endpoint moment chi_{j}, s={s}, t={t}",
                    float(m),
                    "|z| < 3",
                    abs(z) < 3,
                    predicted=pred,
                    stderr=float(e),
                    z=float(z),
                )
            )
            vals = np.real(
                np.array([np.mean(b) for b in np.array_split(
                    np.real(np.trace(ens2.values, axis1=-2, axis2=-1)), ens2.n_blocks)])
            )
            for i, bv in enumerate(vals):
                blocks.append((f"trace blocks s={s} t={t}", i, float(bv), 0.0))
    # pathwise identity
    steps = [100, 200, 400, 800]
    meds = pathwise_medians(steps, seed)
    slope = float(-np.polyfit(np.log(steps), np.log(meds), 1)[0])
    checks.append(
        _check(
            "pathwise identity log-log slope",
            slope,
            ">= 0.4",
            slope >= 0.4,
            medians=meds,
        )
    )
    det = []
    for n in steps:
        a = BrownianPath(np.tile(np.array([0.3, -0.2, 0.5]) / n, (n, 1)), 1.0)
        b = BrownianPath(np.tile(np.array([-0.1, 0.4, 0.2]) / n, (n, 1)), 1.0)
        det.append(pathwise_identity_residual(a, b))
    ratios = [det[i] / det[i + 1] for i in range(len(det) - 1)]
    ok = all(r >= 1.9 for r in ratios)
    checks.append(
        _check(
            "deterministic pathwise identity halving ratio",
            ratios,
            "each >= 1.9 (rate >= O(1/n))",
            ok,
        )
    )
    return checks, blocks


def _spin_half_entries():
    out = []
    for m in (0.5, -0.5):
        for mp in (0.5, -0.5):
            out.append((f"D[1/2]_{m},{mp}", BandLimited.entry(0.5, m, mp)))
    return out


def cmd_toeplitz_mult(cfg: dict, workers: int):
    checks = []
    blocks = []
    seed = cfg["master_seed"]
    entries = _spin_half_entries()
    symbols = [
        ("1", BandLimited.constant(1.0)),
        ("chi_1/2", BandLimited.character_fn(0.5)),
        ("chi_1", BandLimited.character_fn(1.0)),
    ]
    ts = (0.5, 1.0)
    samplers = ToeplitzSampler.for_times(
        ts, cfg["n_paths"], cfg["n_steps"], seed, workers=workers, x_total_two_j=4
    )
    for t, smp in zip(ts, samplers):
        max_mag = 0.0
        results = []
        for vname, vt in symbols:
            v = vt.heat(t / 2.0, sign=-1.0)
            for n1, f1 in entries:
                for n2, f2 in entries:
                    est = smp.entry(vt, f1, f2)
                    exact = schrodinger_entry(
                        v, LeftInvariantOperator.identity(), f1, f2
                    )
                    results.append((vname, n1, n2, est, exact))
                    max_mag = max(max_mag, abs(exact))
        for vname, n1, n2, est, exact in results:
            gap = abs(est.value - exact)
            tol = 3.0 * est.stderr + 1e-10
            name = f"mult t={t} V~={vname} <{n1},{n2}>"
            checks.append(
                _check(
                    name,
                    est.value,
                    "|MC - exact| <= 3 stderr",
                    gap <= tol,
                    exact=[exact.real, exact.imag],
                    stderr=est.stderr,
                )
            )
            for i, bv in enumerate(est.block_values):
                blocks.append((name, i, float(bv.real), float(bv.imag)))
        worst_err = max(est.stderr for _, _, _, est, _ in results)
        checks.append(
            _check(
                f"mult t={t} stderr budget",
                worst_err,
                "max stderr <= 1% of largest entry",
                worst_err <= 0.01 * max_mag,
                largest_entry=max_mag,
            )
        )
        # boundedness on the same sampler
        for vname, vt in symbols:
            f = entries[0][1]
            est = smp.entry(vt, f, f)
            bound = sup_K(vt) * f.norm_sq()
            ok = abs(est.value) <= bound + 3.0 * est.stderr
            checks.append(
                _check(
                    f"boundedness t={t} V~={vname}",
                    abs(est.value),
                    "|entry| <= sup|V~| ||f||^2 + 3 stderr",
                    ok,
                    bound=bound,
                    stderr=est.stderr,
                )
            )
    return checks, blocks


def cmd_toeplitz_diff(cfg: dict, workers: int):
    checks = []
    blocks = []
    seed = cfg["master_seed"]
    t = cfg["t"]
    f1 = BandLimited.entry(0.5, 0.5, 0.5)
    f2 = BandLimited.entry(0.5, 0.5, -0.5)
    ops = [
        ("X3", LeftInvariantOperator.vector_field(3)),
        ("Delta", LeftInvariantOperator.laplacian()),
    ]
    symbols = [("1", BandLimited.constant(1.0)), ("chi_1/2", BandLimited.character_fn(0.5))]
    smp = ToeplitzSampler(
        t, cfg["n_paths"], cfg["n_steps"], seed, workers=workers, x_total_two_j=3
    )
    for aname, a in ops:
        for vname, vt in symbols:
            v = vt.heat(t / 2.0, sign=-1.0)
            for fa, fb, lbl in ((f1, f1, "11"), (f1, f2, "12")):
                est = smp.entry(vt, fa, fb, a=a)
                exact = schrodinger_entry(v, a, fa, fb)
                gap = abs(est.value - exact)
                name = f"diff t={t} A={aname} V~={vname} <{lbl}>"
                checks.append(
                    _check(
                        name,
                        est.value,
                        "|MC - exact| <= 3 stderr",
                        gap <= 3.0 * est.stderr + 1e-10,
                        exact=[exact.real, exact.imag],
                        stderr=est.stderr,
                    )
                )
                for i, bv in enumerate(est.block_values):
                    blocks.append((name, i, float(bv.real), float(bv.imag)))
    # deterministic V = 1 route with the radial Laplacian symbol
    q = cfg["quadrature"]
    R = _cutoff(cfg, t) + 1.5
    rule = kc_quadrature(R, k_two_jmax=1, n_r=q["n_r"], n_theta=q["n_theta"], n_phi=q["n_phi"])
    lap = LeftInvariantOperator.laplacian()
    # evaluate the symbol at exactly the rule's radial nodes
    probe = np.unique(rule.radii)
    table = radial_symbol_table(lap, t, probe)
    symbol = lambda r: np.interp(r, probe, table.real)
    est = toeplitz_entry_quadrature(t, symbol, f1, f1, rule, radial=True)
    target = -0.75 * f1.norm_sq()
    rel = abs(est.value - target) / abs(target)
    checks.append(
        _check(
            f"deterministic phi_1,Delta entry t={t}",
            est.value,
            "relative error < 1e-3",
            rel < 1e-3,
            target=target,
        )
    )
    return checks, blocks


def cmd_euclid(cfg: dict, workers: int):
    checks = []
    t = 0.4
    f1 = HermiteExpansion([1.0, 0.5, 0.0, 0.2])
    f2 = HermiteExpansion([0.3, -0.2, 0.7])
    for deg in range(cfg["euclid_degree_max"] + 1):
        sym = np.zeros(deg + 1)
        sym[deg] = 1.0
        rep = euclid_toeplitz_check(
            t, sym, f1, f2, n_samples=min(cfg["n_paths"], 100000),
            master_seed=cfg["master_seed"],
        )
        checks.append(
            _check(
                f"flat Toeplitz identity, symbol x^{deg}",
                rep.deterministic_gap,
                "deterministic gap < 1e-8 and MC |z| < 3",
                rep.deterministic_gap < 1e-8 and rep.mc_z_score < 3,
                mc_z=rep.mc_z_score,
                mc_stderr=rep.mc_stderr,
            )
        )
    return checks, []


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
    try:
        checks, blocks = COMMANDS[args.subcommand](cfg, args.workers)
        report["checks"] = checks
        report["passed"] = all(c["passed"] for c in checks)
    finally:
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if blocks:
        with open(out_dir / "blocks.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "block", "real", "imag"])
            writer.writerows(blocks)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']} ({c['gate']})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
