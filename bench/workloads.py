"""The three workloads: which subcommands run, at which config and seed.

A round runs every step of a workload once, in order, through
``su2quant.cli.main``.  Nothing here loads NumPy, so that set-up time
measures su2quant and not the benchmark; the checks are in ``checks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The Monte Carlo gates of the CLI are per-check 3-stderr tests with no
# family-wise correction, so a few master seeds in a hundred fail one by
# chance (see README.md).  Subcommands with such gates therefore keep the
# CLI's default master seed; only subcommands whose gates are deterministic
# take their inputs from the benchmark seed.
MC_MASTER_SEED = 2026


@dataclass(frozen=True)
class Step:
    subcommand: str
    config: dict
    workers: int
    seeded: bool  # True: master seed comes from the benchmark seed

    def master_seed(self, seed: int) -> int:
        return seed if self.seeded else MC_MASTER_SEED


TOEPLITZ_N_PATHS = 25000
SDE_N_PATHS = 5000

WORKLOADS: dict[str, list[Step]] = {
    "toeplitz_mc": [
        Step("toeplitz-mult", {"n_paths": TOEPLITZ_N_PATHS}, 2, False),
        Step("toeplitz-diff", {"n_paths": TOEPLITZ_N_PATHS}, 2, False),
    ],
    "sde_check": [Step("sde-check", {"n_paths": SDE_N_PATHS}, 1, False)],
    "deterministic": [
        Step("calibrate", {}, 1, True),
        Step("heat-check", {}, 1, True),
        Step("transform-check", {}, 1, True),
        Step("euclid-baseline", {}, 1, False),
    ],
}
