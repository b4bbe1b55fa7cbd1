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

The walk does not reproject: every step multiplies by the closed-form
exponential of its increment, so the drift off the group is roundoff (after
1,600 steps |det g - 1| and, on SU(2), |g g^dag - I| stay below 1e-12).

Paths enter the kernel a chunk of steps at a time (``chunks``): a
``SampledPath`` draws them from one generator per draw, SPAN_STEPS steps per
call, into a buffer that the next span overwrites, so a batch's increments
are never held whole.

A ``SampledPath`` may walk nested grids: several step counts n, each a row
of the batch per draw, every row scaling the same normals by its own
sqrt(sigma_sq / n).  The rows are ordered by descending n, so the rows still
walking are a prefix of the batch, and a row whose grid has ended keeps its
endpoint.  A chunk holds a fixed number of pair-steps: CHUNK_STEPS // g
steps on each of the g grids still walking (``_chunk_plan``), so the
buffers and temporaries of a chunk are as large on four grids as on one.
``pathwise_residuals`` walks the pathwise gate this way: 200 pairs of
sampled paths and one deterministic pair at every step count, one call of
``pathwise_identity_residual`` in all, and each of the 400 generators built
once.  Every step is elementwise per row, so each residual is that of its
pair walked alone.

Reductions are deterministic and independent of the worker count: paths are
organized in a fixed number of blocks, each block owns a generator derived
from the master seed by its block index, and block results are combined in
block order.  A block draws the normals of a chunk of steps in one call, in
the order one call per step would give.  Workers map over slabs of
consecutive blocks (``_slab_plan``); each allocates its buffers once, and as
every step is elementwise, the slabs change no bit of any endpoint.

(s, t) enters only through the scales, so ensembles at several (s, t) use
common normals: ``endpoint_ensembles_KC`` draws each block's chunk once,
scales it per time and walks the times side by side, so a slab of n times
has n rows per path and its NumPy calls are n times longer.  The
exponentials of a chunk are formed for the whole slab at once; on the
complex-mu route two steps per call, which bounds its complex temporaries.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .algebra import ad_action, exp_entries
from .wigner import casimir_eigenvalue, character

DEFAULT_N_BLOCKS = 40
# Paths per time in a slab: a slab of two times has twice the rows, and its
# longer NumPy calls are what lets two threads overlap (README).
SLAB_PATHS = 2048
# Steps whose normals and exponentials are formed in one call per block.
# Fewer, larger NumPy calls per path-step are what let --workers threads
# run at once instead of queueing on the interpreter lock.
CHUNK_STEPS = 8
# Steps a streamed SampledPath draws per generator call: a multiple of
# CHUNK_STEPS, so a walk on one grid takes whole chunks.  At 32 the pathwise
# gate traces a peak of 1.81 MB at 100, 200, 400 and 800 steps, and 1.69 MB
# at 800 steps alone; 64 steps traced 2.12 and 2.00 MB.
SPAN_STEPS = 32


def _chunk_plan(grids):
    """(k0, c, g) for each chunk of a walk over nested step grids: c steps from step k0 on the first g grids.

    ``grids`` holds step counts in descending order; the g grids still
    walking are those longer than k0.  A chunk holds CHUNK_STEPS // g steps
    of each, so its pair-steps stay at CHUNK_STEPS per draw whatever g is,
    and it ends where a grid or a span of SPAN_STEPS steps ends.
    """
    k0, g = 0, len(grids)
    while k0 < grids[0]:
        while grids[g - 1] <= k0:
            g -= 1
        c = min(max(1, CHUNK_STEPS // g), grids[g - 1] - k0, SPAN_STEPS - k0 % SPAN_STEPS)
        yield k0, c, g
        k0 += c


def _chunk_capacity(grids, rows: int) -> int:
    """Most step-rows (steps x rows walking) in a chunk of _chunk_plan(grids) over ``rows`` rows in all."""
    return max(CHUNK_STEPS, len(grids)) * (rows // len(grids))


@dataclass
class SampledPath:
    """Brownian paths on [0, 1] with variance sigma_sq, one per seed, drawn as they are read.

    Draw k takes its (n, 3) normals from default_rng(seed k) and scales them
    by sqrt(sigma_sq / n).  ``seeds`` is one int (a single path) or a
    sequence (a batch; its leading axis indexes the draws).  ``steps`` is
    one step count n, or a descending sequence of them: nested grids, one
    more leading axis of the batch.  Draw k on every grid takes the normals
    of one generator, the n-step normals a prefix of the longest grid's.
    ``given`` holds, per grid, the increments (draws, n, 3) of further
    draws walked after the drawn ones (``pathwise_residuals``' deterministic
    pair).  ``chunks`` draws SPAN_STEPS steps per generator call into one
    reused buffer, so a batch is never held whole; a Generator gives the
    same normals whether drawn in one call or in consecutive pieces, so the
    increments are those of one call per draw, bit for bit.
    """

    sigma_sq: float
    steps: int | Sequence[int]
    seeds: int | Sequence[int]
    given: Sequence[np.ndarray] = ()

    @property
    def grids(self) -> tuple:
        return tuple(np.ravel(self.steps).tolist())

    @property
    def n_steps(self) -> int:
        """The longest grid's step count."""
        return self.grids[0]

    @property
    def batch_shape(self) -> tuple:
        draws = np.shape(self.seeds)
        if len(self.given):
            draws = (len(self.seeds) + len(self.given[0]),)
        return np.shape(self.steps) + draws

    def chunks(self):
        """The increments of each chunk of _chunk_plan, (c, rows walking, 3), in one reused buffer.

        Rows run grid by grid, drawn draws before given ones.  The normals
        are drawn for the longest grid, SPAN_STEPS steps per call, and each
        grid scales them by its own sqrt(sigma_sq / n).
        """
        grids = self.grids
        rngs = [np.random.default_rng(s) for s in np.ravel(self.seeds).tolist()]
        drawn = len(rngs)
        per_grid = drawn + (len(self.given[0]) if len(self.given) else 0)
        scales = [np.sqrt(self.sigma_sq / n) for n in grids]
        normals = np.empty((drawn, min(SPAN_STEPS, grids[0]), 3))
        buf = np.empty(_chunk_capacity(grids, len(grids) * per_grid) * 3)
        for k0, c, g in _chunk_plan(grids):
            j = k0 % SPAN_STEPS
            if j == 0:
                m = min(SPAN_STEPS, grids[0] - k0)
                for rng, row in zip(rngs, normals):
                    rng.standard_normal(out=row[:m])
            inc = buf[:c * g * per_grid * 3].reshape(c, g, per_grid, 3)
            z = normals[:, j:j + c].swapaxes(0, 1)
            for i in range(g):
                np.multiply(z, scales[i], out=inc[:, i, :drawn])
                if drawn < per_grid:
                    inc[:, i, drawn:] = self.given[i][:, k0:k0 + c].swapaxes(0, 1)
            yield inc.reshape(c, g * per_grid, 3)


def sample_path(sigma_sq: float, n_steps: int | Sequence[int], seed: int | Sequence[int]) -> SampledPath:
    """The Brownian path of variance sigma_sq drawn from ``seed``, or one path per seed of a sequence.

    ``n_steps`` is one step count, or a descending sequence of them (nested grids; see SampledPath).
    """
    if sigma_sq < 0:
        raise ValueError("variance must be nonnegative")
    if np.min(n_steps) < 1:
        raise ValueError("need at least one step")
    return SampledPath(sigma_sq, n_steps, seed)


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


def _advance(g, e, states=None) -> None:
    """Take the steps of one chunk in place: g <- g exp(M_i) for i = 0, 1, ...

    ``g`` is (2, 2, ...) and ``e`` (2, 2, c, ...) holds the chunk's step
    exponentials, exp(M_i) at ``e[:, :, i]``; the product is three
    elementwise calls per step.  When ``states`` is given, the state
    entering step i is copied into ``states[:, :, i]``.
    """
    t, u = np.empty_like(g), np.empty_like(g)
    g0, g1, e0, e1 = g[:, :1], g[:, 1:], e[0], e[1]  # g[a, b] e[b, c] for b = 0, 1
    for i in range(e.shape[2]):
        if states is not None:
            states[:, :, i] = g
        np.multiply(g0, e0[:, i], out=t)
        np.multiply(g1, e1[:, i], out=u)
        np.add(t, u, out=g)


def _check_grid(a, b) -> None:
    if (a.batch_shape, a.grids) != (b.batch_shape, b.grids):
        raise ValueError("paths must share the step grid")
    if list(a.grids) != sorted(a.grids, reverse=True):
        raise ValueError("nested grids must be in descending step count")


def _rotated_chunks(b, a, x):
    """Advance x (2, 2, rows) through theta(A) in place; yield (dA_k, dB_k, dB'_k) for each chunk.

    Each is (c, rows walking, 3), and dB'_k = Ad_{x_k} dB_k with x_k the
    state entering step k (left-point rule).
    """
    xs = np.empty(4 * _chunk_capacity(a.grids, x.shape[-1]), dtype=complex)
    for za, zb in zip(a.chunks(), b.chunks()):
        c, r = za.shape[:2]
        states = xs[:4 * c * r].reshape(2, 2, c, r)
        _advance(x[..., :r], exp_entries(za, None).reshape(2, 2, c, r), states=states)
        yield za, zb, ad_action(states, zb)


def pathwise_identity_residual(a, b):
    """Frobenius distance between theta_C(A+iB)_1 and theta_C(iB^{theta(A)})_1 theta(A)_1.

    ``a`` and ``b`` are paths on the same step grids: ``SampledPath``s,
    drawn as they are read, or anything else with their ``grids``,
    ``batch_shape`` and ``chunks``.  Both sides are computed from the same
    increments at the same discretization; the residual measures only the
    discretization error of the factorization identity.  A pair of single paths gives a float, a batch an array with
    one residual per draw.  theta(A) leads by one chunk of steps;
    theta_C(A+iB) and theta_C(iB') then take that chunk side by side as one
    batch, so only a chunk of rotated increments is held at once.  The step
    exponentials of theta_C(iB') take the Hermitian branch of
    ``exp_entries``.  On nested grids the rows still walking are a prefix
    (see SampledPath), and a row whose grid has ended keeps its endpoint.
    """
    _check_grid(a, b)
    shape = a.batch_shape
    rows = int(np.prod(shape))
    x, g = _identity((rows,)), _identity((2, rows))
    buf = np.empty(8 * _chunk_capacity(a.grids, rows), dtype=complex)
    for da, db, db_rot in _rotated_chunks(b, a, x):
        c, r = da.shape[:2]
        e = buf[:8 * c * r].reshape(2, 2, c, 2, r)
        e_rows = e.reshape(4, c, 2, r)
        exp_entries(da, db, out=e_rows[:, :, 0])
        exp_entries(None, db_rot, out=e_rows[:, :, 1])
        _advance(g[..., :r], e)
    lhs, rhs = _matrices(g[:, :, 0]), _matrices(g[:, :, 1]) @ _matrices(x)
    res = np.linalg.norm(lhs - rhs, axis=(-2, -1)).reshape(shape)
    return float(res) if res.ndim == 0 else res


def pathwise_residuals(steps, seed: int) -> tuple[list[float], list[float]]:
    """The pathwise gate's residuals at each step count n of ``steps``: a median and a deterministic one.

    The median is over 200 pairs of paths, pair k being
    A = sample_path(0.75, n, seed + 10000 + k) with
    B = sample_path(0.25, n, seed + 20000 + k).  The deterministic pair has
    the increments (0.3, -0.2, 0.5) / n and (-0.1, 0.4, 0.2) / n.  Every
    pair at every n is one row of one batch in one call of
    pathwise_identity_residual, on nested grids: the 400 generators are
    built once and drawn once, for the longest grid, and the residuals are
    those of the single pairs.
    """
    grids = sorted(set(steps), reverse=True)
    a, b = (
        replace(sample_path(var, grids, range(seed + first, seed + first + 200)),
                given=[np.broadcast_to(v / n, (1, n, 3)) for n in grids])
        for var, first, v in ((0.75, 10000, np.array([0.3, -0.2, 0.5])),
                              (0.25, 20000, np.array([-0.1, 0.4, 0.2])))
    )
    res = dict(zip(grids, pathwise_identity_residual(a, b)))
    return [float(np.median(res[n][:200])) for n in steps], [float(res[n][200]) for n in steps]


# ---------------------------------------------------------------------------
# endpoint ensembles
# ---------------------------------------------------------------------------

def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """The generator of Monte Carlo block ``block``, derived from the master seed by its index."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
    )


def block_offsets(n: int, n_blocks: int) -> np.ndarray:
    """Starts of n_blocks consecutive blocks of n samples, then n; the first n % n_blocks hold one more, as np.array_split."""
    b = np.arange(n_blocks + 1)
    return b * (n // n_blocks) + np.minimum(b, n % n_blocks)


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


def _slab_plan(n_paths: int, n_blocks: int) -> tuple[np.ndarray, list[range]]:
    """Path offsets of the blocks, and slabs of consecutive blocks of at most SLAB_PATHS paths each."""
    offsets = block_offsets(n_paths, n_blocks)
    per_slab = max(1, SLAB_PATHS // max(1, int(offsets[1])))  # the first block is the largest
    slabs = [range(i, min(i + per_slab, n_blocks)) for i in range(0, n_blocks, per_slab)]
    return offsets, slabs


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
    The blocks and their seeds depend only on (master_seed, n_paths,
    n_blocks), and every step is elementwise, so the endpoints are
    byte-identical whatever ``workers`` or the slabs are.
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
    offsets, slabs = _slab_plan(n_paths, n_blocks)
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
                # the complex-mu route, two steps of the whole slab per call:
                # few calls, and complex temporaries of a quarter chunk (a
                # whole chunk per call took the traced peak of sde-check's
                # ensemble from 2.9 to 4.6 MB)
                for i in range(0, c, 2):
                    exp_entries(a[i:i + 2], b[i:i + 2], out=e_rows[:, i:i + 2])
            _advance(g, e[:, :, :c])
        first = offsets[blocks.start]
        for i, out in enumerate(values):
            out[first:first + rows] = np.moveaxis(g[:, :, i], (0, 1), (-2, -1))

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

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
) -> EndpointEnsemble:
    """Sample rho_s endpoints on SU(2): the walk at t = 0, in SU(2) up to roundoff."""
    return endpoint_ensemble_KC(s, 0.0, n_paths, n_steps, master_seed, workers=workers)


def character_moment(ens: EndpointEnsemble, j):
    """(mean, stderr) of chi_j over the ensemble endpoints."""
    vals = character(j, ens.values)
    return ens.block_statistic(np.real(vals))


def expected_character_K(s: float, j) -> float:
    """E[chi_j(theta(A)_1)] = (2j+1) e^{-s c_j / 2}."""
    return (2.0 * float(j) + 1.0) * np.exp(-s * casimir_eigenvalue(j) / 2.0)


def expected_character_KC(s: float, t: float, j) -> float:
    """E[chi_j(theta_C(A+iB)_1)] = (2j+1) e^{-(s-t) c_j / 2}.

    The complex generator acts on the continued chi_j through
    sum X_k^2 -> -c_j and sum (JX_k)^2 -> +c_j, so the variances combine to
    (s - t/2) - t/2 = s - t.  At the subelliptic slice s = t/2 this grows
    like e^{+t c_j / 4}.
    """
    return (2.0 * float(j) + 1.0) * np.exp(-(s - t) * casimir_eigenvalue(j) / 2.0)
