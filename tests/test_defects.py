"""Defects patched into one run-path function, and the gate that must catch them.

Each row names a defect, applies it by monkeypatching, runs the gate at the
CLI's sizes and seed, and asserts whether the gate fails.  A row that
passes records a defect below the gate's reach at that size.
"""

import pytest

from su2quant.cli import DEFAULTS, gate_semigroup
from su2quant.heat import HeatKernelK


def _scaled_time_build(factor: float):
    """``HeatKernelK.build`` with its time scaled by ``factor`` (the rho_{t+s} of heat-check)."""
    build = HeatKernelK.build.__func__

    def scaled(cls, t, rmax=0.0, tol=1e-10):
        return build(cls, t * factor, rmax, tol)

    return classmethod(scaled)


# rho_{t+s} time x (1 + 1e-7) fails heat-check; x (1 + 1e-9) is below its reach
@pytest.mark.parametrize("factor, caught", [(1.0 + 1e-7, True), (1.0 + 1e-9, False)])
def test_heat_check_catches_rho_time_defect(monkeypatch, factor, caught):
    monkeypatch.setattr(HeatKernelK, "build", _scaled_time_build(factor))
    [check] = gate_semigroup([(0.2, 0.5)], DEFAULTS["n_grid"], DEFAULTS["master_seed"])
    assert (check["value"] > 1e-8) == caught
    assert check["passed"] is not caught
