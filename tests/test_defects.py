"""Defects patched into one run-path function, and the gate that must catch them.

Each row names a defect, applies it by monkeypatching, runs the gate at the
CLI's sizes and seed, and asserts whether the gate fails.  A row that
passes records a defect below the gate's reach at that size.
"""

import numpy as np
import pytest

from su2quant import euclid, sde, transform
from su2quant.cli import (
    DEFAULTS,
    cmd_sde_check,
    cmd_transform_check,
    gate_calibration,
    gate_euclid,
    gate_semigroup,
)
from su2quant.heat import HeatKernelK
from su2quant.wigner import BandLimited


def _scaled_time_build(factor: float):
    """``HeatKernelK.build`` with its time scaled by ``factor`` (the rho_{t+s} of heat-check)."""
    build = HeatKernelK.build.__func__

    def scaled(cls, t, tol=1e-10):
        return build(cls, t * factor, tol)

    return classmethod(scaled)


# rho_{t+s} time x (1 + 1e-7) fails heat-check; x (1 + 1e-9) is below its reach
@pytest.mark.parametrize("factor, caught", [(1.0 + 1e-7, True), (1.0 + 1e-9, False)])
def test_heat_check_catches_rho_time_defect(monkeypatch, factor, caught):
    monkeypatch.setattr(HeatKernelK, "build", _scaled_time_build(factor))
    [check] = gate_semigroup([(0.2, 0.5)], DEFAULTS["n_grid"], DEFAULTS["master_seed"])
    assert (check["value"] > 1e-8) == caught
    assert check["passed"] is not caught


# the heat time of BandLimited.heat x (1 + 1e-3) fails calibrate at t = 0.5 and
# 1 (worst residuals 1.5e-5 and 8.9e-5 against 1e-5); x (1 + 1e-4) reads 8.9e-6
# and passes.  beta absorbs the spin-1/2 residual, so the spin-1 cross-check sees it
@pytest.mark.parametrize("factor, caught", [(1.0 + 1e-3, True), (1.0 + 1e-4, False)])
def test_calibrate_catches_transform_time_defect(monkeypatch, factor, caught):
    heat = BandLimited.heat
    monkeypatch.setattr(BandLimited, "heat", lambda self, tau, sign=-1.0: heat(self, tau * factor, sign))
    checks = gate_calibration(DEFAULTS["t_values"])
    assert any(not c["passed"] for c in checks) == caught


# the time of nu_t in the adjoint oracle (transform.nu_radial, which nothing
# else reads) x (1 + 1e-4) fails transform-check's oracle gate at t = 1 (gap
# 1.11e-4 against 1e-4); x (1 + 1e-5) reads 1.11e-5 at most and passes.  The
# unitarity gate weighs with its own nu_t, so only the oracle sees it
@pytest.mark.parametrize("factor, caught", [(1.0 + 1e-4, True), (1.0 + 1e-5, False)])
def test_transform_check_catches_oracle_weight_time_defect(monkeypatch, factor, caught):
    nu_radial = transform.nu_radial
    monkeypatch.setattr(transform, "nu_radial", lambda t, r: nu_radial(t * factor, r))
    checks, _ = cmd_transform_check(DEFAULTS, 1)
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == (["adjoint inversion oracle t=1.0"] if caught else [])


# the time t/4 of heat_polynomial x (1 + 1e-8) fails euclid-baseline's
# deterministic gap at x^5 and x^6 (4.2e-8 and 4.9e-8 against 1e-8);
# x (1 + 1e-9) reads 4.9e-9 at most and passes
@pytest.mark.parametrize("factor, caught", [(1.0 + 1e-8, True), (1.0 + 1e-9, False)])
def test_euclid_baseline_catches_symbol_heat_time_defect(monkeypatch, factor, caught):
    heat_polynomial = euclid.heat_polynomial
    monkeypatch.setattr(euclid, "heat_polynomial", lambda coeffs, a: heat_polynomial(coeffs, a * factor))
    checks = gate_euclid(DEFAULTS["euclid_degree_max"], min(DEFAULTS["n_paths"], 100000), DEFAULTS["master_seed"])
    assert any(c["value"] > 1e-8 for c in checks) == caught
    assert any(not c["passed"] for c in checks) == caught


def _scaled_increments(factor: float):
    """``sde.exp_entries`` with every increment scaled by sqrt(factor): each walk's variances x factor."""
    exp_entries, root = sde.exp_entries, np.sqrt(factor)

    def scaled(a, b, out=None):
        return exp_entries(None if a is None else a * root, None if b is None else b * root, out=out)

    return scaled


# the variances of every walk x 1.03 fail sde-check at 5,000 paths (the
# benchmark's size) on the slice s = t/2 (|z| 3.76 and 3.75); x 1.01 passes,
# worst |z| 2.03.  The pathwise identity holds for any increments, so only
# the moment checks can see it
@pytest.mark.parametrize("factor, caught", [(1.03, True), (1.01, False)])
def test_sde_check_catches_walk_variance_defect(monkeypatch, factor, caught):
    monkeypatch.setattr(sde, "exp_entries", _scaled_increments(factor))
    checks, _ = cmd_sde_check({**DEFAULTS, "n_paths": 5000}, 1)
    slice_checks = [f"complex endpoint moment chi_{j}, s=0.25, t=0.5" for j in (0.5, 1.0)]
    assert [c["name"] for c in checks if not c["passed"]] == (slice_checks if caught else [])
