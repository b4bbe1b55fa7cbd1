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

Every path runs through one kernel, ``_advance``: a batch of group elements
is held as one (2, 2, ...) entry array, and a step is three elementwise
calls against the entries of its step exponential.  The exponentials are
formed CHUNK_STEPS steps at a time by the closed form
``algebra.exp_entries``, in real arithmetic, so the NumPy calls per
path-step are few; the scheme is the exp-of-increment Lie-group method of
Malham & Wiese, SIAM J. Sci. Comput. 30 (2008).  The real and imaginary
parts of the increments are passed separately, a part that is zero as None:
walks on SU(2) and on the slice then take the one-part branches of
``exp_entries`` (real cos and sin, or cosh and sinh, of |increment| / 2),
and only walks with both parts take its complex-mu route.

Reductions are deterministic and independent of the worker count: paths are
organized in a fixed number of blocks, each block owns a generator derived
from the master seed by its block index, and block results are combined in
block order.  A block draws the normals of a chunk of steps in one call, in
the order one call per step would give.  Workers map over slabs of
consecutive blocks; each slab allocates its buffers once.

(s, t) enters only through the scales, so ensembles at several (s, t) use
common normals: ``endpoint_ensembles_KC`` draws each block's chunk once,
scales it per time and walks the times side by side as rows of one slab.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import ad_action, exp_entries
from .wigner import character

DEFAULT_N_BLOCKS = 40
REPROJECT_EVERY = 64
# Consecutive blocks share a slab of up to this many paths.  Narrow slabs
# keep the working set in cache and the peak memory flat.
SLAB_PATHS = 2048
# Steps whose normals and exponentials are formed in one call per block.
# Fewer, larger NumPy calls per path-step are what let --workers threads
# run at once instead of queueing on the interpreter lock.
CHUNK_STEPS = 8


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
# the kernel: a batch of group elements as a (2, 2, ...) entry array
# ---------------------------------------------------------------------------

def _identity(shape) -> np.ndarray:
    g = np.zeros((2, 2) + shape, dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    return g


def _matrices(g: np.ndarray) -> np.ndarray:
    """Entry array (2, 2, ...) as matrices (..., 2, 2)."""
    return np.ascontiguousarray(np.moveaxis(g, (0, 1), (-2, -1)))


def _project_sl2c(g):
    return g / np.sqrt(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])


def _project_su2(g):
    """Pull near-unitary elements back onto SU(2).

    One Newton step toward the unitary polar factor, g <- (g + g^{-dag}) / 2,
    then unit determinant; the drift is O(eps) per step, so one suffices.
    """
    cofactor = np.conj(g[::-1, ::-1])
    cofactor[0, 1] *= -1.0
    cofactor[1, 0] *= -1.0  # now conj(det g) g^{-dag}
    cdet = np.conj(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    return _project_sl2c(0.5 * (g + cofactor / cdet))


def _step_exps(a, b=None) -> np.ndarray:
    """exp(sum_k (a_k + i b_k) X_k) for real coordinates (c, ..., 3), as entries (2, 2, c, ...).

    Either part may be None, meaning zero; see ``exp_entries``.
    """
    e = exp_entries(a, b)
    return e.reshape((2, 2) + e.shape[1:])


def _advance(g, e, k0: int, project, states=None) -> None:
    """Take the steps k0, k0 + 1, ... of one chunk in place: g <- g exp(M_k).

    ``g`` is (2, 2, ...) and ``e`` (2, 2, c, ...) holds the chunk's step
    exponentials, exp(M_{k0+i}) at ``e[:, :, i]``; the product is three
    elementwise calls per step.  Every REPROJECT_EVERY steps the state is
    pulled back onto the group.  When ``states`` is given, the state entering
    step k0 + i is copied into ``states[:, :, i]``.
    """
    t, u = np.empty_like(g), np.empty_like(g)
    g0, g1, e0, e1 = g[:, :1], g[:, 1:], e[0], e[1]  # g[a, b] e[b, c] for b = 0, 1
    for i in range(e.shape[2]):
        if states is not None:
            states[:, :, i] = g
        np.multiply(g0, e0[:, i], out=t)
        np.multiply(g1, e1[:, i], out=u)
        np.add(t, u, out=g)
        if (k0 + i + 1) % REPROJECT_EVERY == 0:
            g[...] = project(g)


def _chunk(increments, k0: int):
    """Steps k0, ..., k0 + CHUNK_STEPS - 1 of (..., n_steps, 3) increments as (c, ..., 3); None stays None."""
    if increments is None:
        return None
    return np.moveaxis(increments[..., k0:k0 + CHUNK_STEPS, :], -2, 0)


def _check_grid(a: BrownianPath, b: BrownianPath) -> None:
    if a.increments.shape != b.increments.shape:
        raise ValueError("paths must share the step grid")


def _rotated_chunks(b: BrownianPath, a: BrownianPath, x):
    """Advance x through theta(A) in place; yield (k0, dB'_k for the chunk, (c, ..., 3)).

    dB'_k = Ad_{x_k} dB_k with x_k the state entering step k (left-point rule).
    """
    xs = np.empty((2, 2, CHUNK_STEPS) + x.shape[2:], dtype=complex)
    for k0 in range(0, a.n_steps, CHUNK_STEPS):
        za, zb = _chunk(a.increments, k0), _chunk(b.increments, k0)
        _advance(x, _step_exps(za), k0, _project_su2, states=xs)
        yield k0, ad_action(np.moveaxis(xs[:, :, :len(za)], (0, 1), (-2, -1)), zb)


def rotated_path(b: BrownianPath, a: BrownianPath) -> BrownianPath:
    """The path B' with dB'_k = Ad_{theta(A)_k} dB_k (left-point rule).

    Ad is an isometry, so B' has the same increment variances as B; in the
    limit its law is again Brownian, which is what makes the pathwise
    factorization identity work.  No CLI path calls it: the tests check
    ``_rotated_chunks`` against it.
    """
    _check_grid(a, b)
    x = _identity(a.increments.shape[:-2])
    inc = np.concatenate([db for _, db in _rotated_chunks(b, a, x)])
    return BrownianPath(increments=np.moveaxis(inc, 0, -2), sigma_sq=b.sigma_sq, seed=b.seed)


def pathwise_identity_residual(a: BrownianPath, b: BrownianPath):
    """Frobenius distance between theta_C(A+iB)_1 and theta_C(iB^{theta(A)})_1 theta(A)_1.

    Both sides are computed from the same increments at the same
    discretization; the residual measures only the discretization error of
    the factorization identity.  A pair of single paths gives a float, a
    batch an array with one residual per draw.  theta(A) leads by one chunk
    of steps; theta_C(A+iB) and theta_C(iB') then take that chunk side by
    side as one batch, so only a chunk of rotated increments is held at once.
    The step exponentials of theta_C(iB') take the Hermitian branch of
    ``exp_entries``.
    """
    _check_grid(a, b)
    shape = a.increments.shape[:-2]
    x, g = _identity(shape), _identity((2,) + shape)
    e = np.empty((2, 2, CHUNK_STEPS, 2) + shape, dtype=complex)
    e_rows = e.reshape((4, CHUNK_STEPS, 2) + shape)
    for k0, db in _rotated_chunks(b, a, x):
        c = len(db)
        exp_entries(_chunk(a.increments, k0), _chunk(b.increments, k0), out=e_rows[:, :c, 0])
        exp_entries(None, db, out=e_rows[:, :c, 1])
        _advance(g, e[:, :, :c], k0, _project_sl2c)
    lhs, rhs = _matrices(g[:, :, 0]), _matrices(g[:, :, 1]) @ _matrices(x)
    res = np.linalg.norm(lhs - rhs, axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


# Draws per batched call of the pathwise identity: small enough that the
# batch's increments stay far below the process's resident set.
PATHWISE_BATCH = 40


def _draws(sigma_sq: float, n_steps: int, first_seed: int) -> BrownianPath:
    """The paths sample_path gives for PATHWISE_BATCH seeds from first_seed, as one batch."""
    inc = np.empty((PATHWISE_BATCH, n_steps, 3))
    for k in range(PATHWISE_BATCH):
        inc[k] = sample_path(sigma_sq, n_steps, first_seed + k).increments
    return BrownianPath(inc, sigma_sq)


def pathwise_medians(steps, seed: int) -> list[float]:
    """Median pathwise_identity_residual over 200 pairs of paths at each step count n.

    Draw k pairs A = sample_path(0.75, n, seed + 10000 + k) with
    B = sample_path(0.25, n, seed + 20000 + k); the pairs are run
    PATHWISE_BATCH at a time, which gives the residuals of single pairs.
    """
    meds = []
    for n in steps:
        rs = [
            pathwise_identity_residual(
                _draws(0.75, n, seed + 10000 + k), _draws(0.25, n, seed + 20000 + k)
            )
            for k in range(0, 200, PATHWISE_BATCH)
        ]
        meds.append(float(np.median(np.concatenate(rs))))
    return meds


# ---------------------------------------------------------------------------
# endpoint ensembles
# ---------------------------------------------------------------------------

def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """The generator of Monte Carlo block ``block``, derived from the master seed by its index."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
    )


def block_estimate(block_values: np.ndarray):
    """Mean over the last axis of per-block values, and its block standard error.

    The stderr is sqrt((var Re + var Im) / n_blocks), sample variances over
    the blocks; for real values it is the usual std / sqrt(n_blocks).
    """
    v = np.asarray(block_values)
    var = np.var(v.real, axis=-1, ddof=1) + np.var(v.imag, axis=-1, ddof=1)
    return np.mean(v, axis=-1), np.sqrt(var / v.shape[-1])


@dataclass
class EndpointEnsemble:
    """Endpoints of many independent paths, organized in seeded blocks."""

    values: np.ndarray  # (n_paths, 2, 2)
    n_blocks: int
    n_steps: int

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def block_views(self) -> list[np.ndarray]:
        return np.array_split(self.values, self.n_blocks)

    def block_statistic(self, per_path: np.ndarray):
        """Mean and block-based standard error of a per-path statistic."""
        blocks = [np.mean(b, axis=0) for b in np.array_split(per_path, self.n_blocks)]
        return block_estimate(np.stack(blocks, axis=-1))


def endpoint_ensembles_KC(
    pairs,
    n_paths: int,
    n_steps: int,
    master_seed: int,
    workers: int = 1,
    n_blocks: int = DEFAULT_N_BLOCKS,
) -> list[EndpointEnsemble]:
    """Sample mu_{s,t} endpoints for every (s, t) in ``pairs`` from one draw of the normals.

    Each ensemble is the one ``endpoint_ensemble_KC(s, t, ...)`` gives, bit
    for bit: the pairs share the master seed, so they share the normals, and
    only the scales differ.  The pairs must draw the same parts (all on the
    slice s = t/2, all at t = 0, or all off both); ValueError otherwise.
    The block decomposition, per-block seeds and slabs depend only on
    (master_seed, n_paths, n_blocks, n_steps, len(pairs)), never on the
    worker count, so the endpoints are byte-identical whatever ``workers`` is.
    """
    variances = []
    for s, t in pairs:
        var_a, var_b = s - t / 2.0, t / 2.0
        if var_a < -1e-12 or var_b < 0:
            raise ValueError("need s >= t/2 and t >= 0")
        variances.append((max(var_a, 0.0), var_b))
    # per step, each block draws its da, then its db, from its own
    # generator, each only when its variance is > 0; with one part not
    # drawn, exp_entries takes its one-part branch.  At var_a = var_b = 0
    # the da are drawn all the same and scaled to zero: every endpoint is I.
    patterns = {(var_a > 0 or var_b == 0, var_b > 0) for var_a, var_b in variances}
    if len(patterns) != 1:
        raise ValueError("pairs must draw the same parts: all on the slice s = t/2 or all off it")
    ((draw_a, draw_b),) = patterns
    n_drawn = int(draw_a) + int(draw_b)
    dt = 1.0 / n_steps
    scales = [[np.sqrt(v[k] * dt) for v in variances] for k in (0, 1)]
    n_times = len(pairs)
    sizes = [len(idx) for idx in np.array_split(np.arange(n_paths), n_blocks)]
    offsets = np.cumsum([0] + sizes)
    # block sizes differ by at most one, so each slab takes the same count;
    # the times stack their rows, so a slab holds fewer paths per time
    per_slab = max(1, SLAB_PATHS // max(1, n_times * max(sizes)))
    slabs = [range(i, min(i + per_slab, n_blocks)) for i in range(0, n_blocks, per_slab)]
    values = [np.empty((n_paths, 2, 2), dtype=complex) for _ in pairs]

    def run_slab(blocks: range) -> None:
        cuts = offsets[blocks.start:blocks.stop + 1] - offsets[blocks.start]
        rows = cuts[-1]
        rngs = [block_rng(master_seed, i) for i in blocks]
        # one chunk of one block at a time: its normals, laid out (steps, {da, db}, rows, 3)
        normals = np.empty(CHUNK_STEPS * n_drawn * max(np.diff(cuts)) * 3)
        # the chunk's coordinates sa da, sb db, laid out (steps, times, rows, 3),
        # and step exponentials; every time and block writes its own rows
        parts = [np.empty((CHUNK_STEPS, n_times, rows, 3)) if d else None for d in (draw_a, draw_b)]
        e = np.empty((2, 2, CHUNK_STEPS, n_times, rows), dtype=complex)
        e_rows = e.reshape(4, CHUNK_STEPS, n_times, rows)
        g = _identity((n_times, rows))
        for k0 in range(0, n_steps, CHUNK_STEPS):
            c = min(CHUNK_STEPS, n_steps - k0)
            for rng, lo, hi in zip(rngs, cuts, cuts[1:]):
                draw = normals[:c * n_drawn * (hi - lo) * 3].reshape(c, n_drawn, hi - lo, 3)
                rng.standard_normal(out=draw)
                for part, scale, z in zip(parts, scales, (draw[:, 0], draw[:, -1])):
                    if part is not None:
                        for i, sc in enumerate(scale):
                            np.multiply(sc, z, out=part[:c, i, lo:hi])
            a, b = (None if p is None else p[:c] for p in parts)
            if a is None or b is None:
                exp_entries(a, b, out=e_rows[:, :c])
            else:
                # the complex-mu route, one block of one time per call, so
                # its complex temporaries stay as small as a block's
                for i in range(n_times):
                    for lo, hi in zip(cuts, cuts[1:]):
                        exp_entries(a[:, i, lo:hi], b[:, i, lo:hi], out=e_rows[:, :c, i, lo:hi])
            _advance(g, e[:, :, :c], k0, _project_sl2c)
        first = offsets[blocks.start]
        for i, out in enumerate(values):
            out[first:first + rows] = np.moveaxis(g[:, :, i], (0, 1), (-2, -1))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_slab, slabs))
    else:
        for blocks in slabs:
            run_slab(blocks)
    return [EndpointEnsemble(out, n_blocks, n_steps) for out in values]


def endpoint_ensemble_KC(
    s: float,
    t: float,
    n_paths: int,
    n_steps: int,
    master_seed: int,
    workers: int = 1,
    n_blocks: int = DEFAULT_N_BLOCKS,
) -> EndpointEnsemble:
    """Sample mu_{s,t} endpoints; s = t/2 gives the subelliptic kernel.  See endpoint_ensembles_KC."""
    return endpoint_ensembles_KC([(s, t)], n_paths, n_steps, master_seed, workers, n_blocks)[0]


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
    # var_b = 0 so the endpoints are already in SU(2) up to drift
    ens.values = _matrices(_project_su2(np.moveaxis(ens.values, (-2, -1), (0, 1))))
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
