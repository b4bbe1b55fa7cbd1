"""Brownian paths in su(2) and the Ito maps onto SU(2) and SL(2,C).

The driving noise lives in the algebra; the group-valued path solves the
Stratonovich equation dg = g o dZ and is realized by the geometric Euler
scheme g_{k+1} = g_k exp(dZ_k) with the exact 2x2 exponential per step.
Time horizon is fixed to 1; the (s, t) dependence is carried entirely by
the increment variances.

Endpoint laws produced here:

* real path, variance s: the heat kernel measure rho_s on K;
* complex path Z = A + iB with Var(A) = s - t/2, Var(B) = t/2: the
  two-parameter measure mu_{s,t} on SL(2,C);
* the slice A = 0 (s = t/2): the subelliptic kernel mu_{t/2,t}.

Every path runs through one kernel, ``_walk``: a batch of group elements is
held as four complex entry arrays, and a step is a few elementwise products
with the entries of the closed-form step exponential.

Reductions are deterministic and independent of the worker count: paths are
organized in a fixed number of blocks, each block owns a generator derived
from the master seed by its block index, and block results are combined in
block order.  Workers map over slabs of consecutive blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import ad_action, algebra_entries, exp_entries, matrix_from_entries
from .wigner import character

DEFAULT_N_BLOCKS = 40
REPROJECT_EVERY = 64
# Consecutive blocks share a slab of up to this many paths.  Narrow slabs
# keep the working set in cache and the peak memory flat.
SLAB_PATHS = 2048


@dataclass
class BrownianPath:
    """Algebra-valued paths on [0, 1]; leading axes of (..., n_steps, 3) index draws."""

    increments: np.ndarray
    sigma_sq: float
    seed: int | None = None

    @property
    def n_steps(self) -> int:
        return self.increments.shape[-2]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps


def sample_path(sigma_sq: float, n_steps: int, seed: int) -> BrownianPath:
    if sigma_sq < 0:
        raise ValueError("variance must be nonnegative")
    if n_steps < 1:
        raise ValueError("need at least one step")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sigma_sq / n_steps)
    inc = scale * rng.standard_normal((n_steps, 3))
    return BrownianPath(increments=inc, sigma_sq=sigma_sq, seed=seed)


# ---------------------------------------------------------------------------
# the kernel: a batch of group elements as four entry arrays
# ---------------------------------------------------------------------------

def _project_sl2c(g):
    root = np.sqrt(g[0] * g[3] - g[1] * g[2])
    return tuple(e / root for e in g)


def _project_su2(g):
    """Pull near-unitary elements back onto SU(2).

    One Newton step toward the unitary polar factor, g <- (g + g^{-dag}) / 2,
    then unit determinant; the drift is O(eps) per step, so one suffices.
    """
    g00, g01, g10, g11 = g
    cdet = np.conj(g00 * g11 - g01 * g10)
    return _project_sl2c((
        0.5 * (g00 + np.conj(g11) / cdet),
        0.5 * (g01 - np.conj(g10) / cdet),
        0.5 * (g10 - np.conj(g01) / cdet),
        0.5 * (g11 + np.conj(g00) / cdet),
    ))


def _walk(shape, steps, project):
    """Yield the states g_0 = 1, g_{k+1} = g_k exp(M_k) as entry tuples.

    ``steps`` yields the entries (m00, m01, m10) of each traceless M_k; every
    REPROJECT_EVERY steps the state is pulled back onto the group.
    """
    one, zero = np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)
    g00, g01, g10, g11 = g = (one, zero, zero, one)
    yield g
    for k, m in enumerate(steps):
        e00, e01, e10, e11 = exp_entries(*m)
        g = (g00 * e00 + g01 * e10, g00 * e01 + g01 * e11,
             g10 * e00 + g11 * e10, g10 * e01 + g11 * e11)
        if (k + 1) % REPROJECT_EVERY == 0:
            g = project(g)
        g00, g01, g10, g11 = g
        yield g


def _last(states) -> np.ndarray:
    """The final state of a walk as matrices (..., 2, 2)."""
    for g in states:
        pass
    return matrix_from_entries(*g)


def _check_grid(a: BrownianPath, b: BrownianPath) -> None:
    if a.increments.shape != b.increments.shape:
        raise ValueError("paths must share the step grid")


def _real_states(a: BrownianPath):
    steps = (algebra_entries(a.increments[..., k, :]) for k in range(a.n_steps))
    return _walk(a.increments.shape[:-2], steps, _project_su2)


def _rotated(b: BrownianPath, states):
    """Coordinates of Ad_{x_k} dB_k, taking x_0, x_1, ... from ``states``."""
    # zip stops on the range before it draws x_n, which ``states`` yields next
    for k, x in zip(range(b.n_steps), states):
        yield ad_action(matrix_from_entries(*x), b.increments[..., k, :])


def ito_map_K(path: BrownianPath) -> np.ndarray:
    """Endpoints (..., 2, 2) of dx = x o dA on SU(2)."""
    return _last(_real_states(path))


def ito_map_KC(a: BrownianPath, b: BrownianPath) -> np.ndarray:
    """Endpoints (..., 2, 2) of dg = g o d(A + iB) on SL(2,C)."""
    _check_grid(a, b)
    za, zb = a.increments, b.increments
    steps = (algebra_entries(za[..., k, :] + 1j * zb[..., k, :]) for k in range(a.n_steps))
    return _last(_walk(za.shape[:-2], steps, _project_sl2c))


def rotated_path(b: BrownianPath, a: BrownianPath) -> BrownianPath:
    """The path B' with dB'_k = Ad_{theta(A)_k} dB_k (left-point rule).

    Ad is an isometry, so B' has the same increment variances as B; in the
    limit its law is again Brownian, which is what makes the pathwise
    factorization identity work.
    """
    _check_grid(a, b)
    inc = np.stack(list(_rotated(b, _real_states(a))), axis=-2)
    return BrownianPath(increments=inc, sigma_sq=b.sigma_sq, seed=b.seed)


def pathwise_identity_residual(a: BrownianPath, b: BrownianPath):
    """Frobenius distance between theta_C(A+iB)_1 and theta_C(iB^{theta(A)})_1 theta(A)_1.

    Both sides are computed from the same increments at the same
    discretization; the residual measures only the discretization error of
    the factorization identity.  A pair of single paths gives a float, a
    batch an array with one residual per draw.  theta(A) and theta_C(iB')
    advance in lockstep, so each rotated increment is formed when its step
    is taken and never stored.
    """
    _check_grid(a, b)
    states = _real_states(a)
    steps = (algebra_entries(1j * db) for db in _rotated(b, states))
    rhs = _last(_walk(a.increments.shape[:-2], steps, _project_sl2c))
    rhs = rhs @ matrix_from_entries(*next(states))
    res = np.linalg.norm(ito_map_KC(a, b) - rhs, axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# endpoint ensembles
# ---------------------------------------------------------------------------

def _block_rng(master_seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
    )


@dataclass
class EndpointEnsemble:
    """Endpoints of many independent paths, organized in seeded blocks."""

    values: np.ndarray  # (n_paths, 2, 2)
    n_blocks: int
    n_steps: int
    master_seed: int
    var_a: float
    var_b: float

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def block_views(self) -> list[np.ndarray]:
        return np.array_split(self.values, self.n_blocks)

    def block_statistic(self, per_path: np.ndarray):
        """Mean and block-based standard error of a per-path statistic."""
        blocks = np.array(
            [np.mean(b, axis=0) for b in np.array_split(per_path, self.n_blocks)]
        )
        mean = np.mean(blocks, axis=0)
        stderr = np.std(blocks, axis=0, ddof=1) / np.sqrt(self.n_blocks)
        return mean, stderr


def endpoint_ensemble_KC(
    s: float,
    t: float,
    n_paths: int,
    n_steps: int,
    master_seed: int,
    workers: int = 1,
    n_blocks: int = DEFAULT_N_BLOCKS,
) -> EndpointEnsemble:
    """Sample mu_{s,t} endpoints; s = t/2 gives the subelliptic kernel.

    The block decomposition, per-block seeds and slabs depend only on
    (master_seed, n_paths, n_blocks, n_steps), never on the worker count, so
    the endpoints are byte-identical whatever ``workers`` is.
    """
    var_a = s - t / 2.0
    var_b = t / 2.0
    if var_a < -1e-12 or var_b < 0:
        raise ValueError("need s >= t/2 and t >= 0")
    var_a = max(var_a, 0.0)
    dt = 1.0 / n_steps
    sa, sb = np.sqrt(var_a * dt), np.sqrt(var_b * dt)
    sizes = [len(idx) for idx in np.array_split(np.arange(n_paths), n_blocks)]
    # block sizes differ by at most one, so each slab takes the same count
    per_slab = max(1, SLAB_PATHS // max(1, max(sizes)))
    slabs = [range(i, min(i + per_slab, n_blocks)) for i in range(0, n_blocks, per_slab)]

    def run_slab(blocks: range) -> np.ndarray:
        # at every step each block draws its real, then its imaginary
        # increments from its own generator into its rows of the slab buffers
        n = [sizes[i] for i in blocks]
        da, db = np.zeros((sum(n), 3)), np.zeros((sum(n), 3))
        cuts = np.cumsum(n)[:-1]
        rngs = [_block_rng(master_seed, i) for i in blocks]
        draws = list(zip(rngs, np.split(da, cuts), np.split(db, cuts)))

        def steps():
            for _ in range(n_steps):
                for rng, da_rows, db_rows in draws:
                    if var_a > 0:
                        rng.standard_normal(out=da_rows)
                    if var_b > 0:
                        rng.standard_normal(out=db_rows)
                yield algebra_entries(sa * da + 1j * (sb * db))

        return _last(_walk(sum(n), steps(), _project_sl2c))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_slab, slabs))
    else:
        results = [run_slab(blocks) for blocks in slabs]
    return EndpointEnsemble(
        np.concatenate(results), n_blocks, n_steps, master_seed, var_a, var_b
    )


def endpoint_ensemble_K(
    s: float,
    n_paths: int,
    n_steps: int,
    master_seed: int,
    workers: int = 1,
    n_blocks: int = DEFAULT_N_BLOCKS,
) -> EndpointEnsemble:
    """Sample rho_s endpoints on SU(2)."""
    ens = endpoint_ensemble_KC(
        s + 0.0, 0.0, n_paths, n_steps, master_seed, workers=workers, n_blocks=n_blocks
    )
    # var_b = 0 so the endpoints are already in SU(2) up to drift; the rows
    # of values.reshape(-1, 4).T are the entries g00, g01, g10, g11
    ens.values = matrix_from_entries(*_project_su2(tuple(ens.values.reshape(-1, 4).T)))
    return ens


def character_moment(ens: EndpointEnsemble, j):
    """(mean, stderr) of chi_j over the ensemble endpoints."""
    vals = character(j, ens.values)
    return ens.block_statistic(np.real(vals))


def expected_character_K(s: float, j) -> float:
    """E[chi_j(theta(A)_1)] = (2j+1) e^{-s c_j / 2}."""
    c = float(j) * (float(j) + 1.0)
    return (2.0 * float(j) + 1.0) * np.exp(-s * c / 2.0)


def expected_character_KC(s: float, t: float, j) -> float:
    """E[chi_j(theta_C(A+iB)_1)] = (2j+1) e^{-(s-t) c_j / 2}.

    The complex generator acts on the continued chi_j through
    sum X_k^2 -> -c_j and sum (JX_k)^2 -> +c_j, so the variances combine to
    (s - t/2) - t/2 = s - t.  At the subelliptic slice s = t/2 this grows
    like e^{+t c_j / 4}.
    """
    c = float(j) * (float(j) + 1.0)
    return (2.0 * float(j) + 1.0) * np.exp(-(s - t) * c / 2.0)
