"""The independent checks of each workload's reports.

A round's operations are the report's checks plus the checks below; each
counts once per round.
"""

from __future__ import annotations

import oracles


def _named(checks: list[dict], prefix: str) -> list[dict]:
    return [c for c in checks if c["name"].startswith(prefix)]


def verify_toeplitz(reports: dict[str, dict]):
    checks = reports["toeplitz-mult"]["checks"] + reports["toeplitz-diff"]["checks"]
    targets = oracles.mc_targets(checks)
    with_stderr = sum("stderr" in c for c in checks)
    out = [("independent: an exact value for every Monte Carlo entry",
            len(targets) == with_stderr, f"{len(targets)} of {with_stderr}")]
    out += oracles.check_mc_entries(targets, oracles.family_z(len(targets)))
    out.append(oracles.check_laplacian_entry(_named(checks, "deterministic phi_1,Delta")[0]))
    return out


def verify_sde(reports: dict[str, dict]):
    checks = reports["sde-check"]["checks"]
    moments = [c for c in checks if "endpoint moment" in c["name"]]
    z = oracles.family_z(len(moments))
    out = [oracles.check_character_moment(c, z) for c in moments]
    out += oracles.check_pathwise(
        _named(checks, "pathwise identity log-log slope")[0],
        _named(checks, "deterministic pathwise identity halving ratio")[0],
    )
    return out


def verify_deterministic(reports: dict[str, dict]):
    out = []
    cal = reports["calibrate"]
    for t, c in zip(cal["config"]["t_values"], cal["checks"]):
        out += oracles.check_calibration(c, t)
    for c in reports["heat-check"]["checks"]:
        out.append(oracles.check_bound(c, "semigroup error", 1e-8))
    tc = reports["transform-check"]["checks"]
    out += [oracles.check_bound(c, "unitarity error", 1e-5) for c in _named(tc, "C_t unitarity")]
    out += [oracles.check_bound(c, "round-trip error", 1e-12) for c in _named(tc, "round trip")]
    for c in reports["euclid-baseline"]["checks"]:
        out.append(oracles.check_bound(c, "Euclidean gap", 1e-8))
    return out


VERIFY = {
    "toeplitz_mc": verify_toeplitz,
    "sde_check": verify_sde,
    "deterministic": verify_deterministic,
}
