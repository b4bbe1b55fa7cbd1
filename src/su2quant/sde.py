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

Paths enter the kernel a chunk of steps at a time (``chunks``): a
``BrownianPath`` holds its increments, and a ``SampledPath`` draws them from
one generator per draw, SPAN_STEPS steps per call, into a buffer that the
next span overwrites.  ``pathwise_medians`` runs the 200 pairs of the
pathwise gate as one such streamed batch, one call of
``pathwise_identity_residual`` per step count: the NumPy calls of a chunk
serve all 200 draws, and the batch's increments are never held whole.

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
from dataclasses import dataclass

import numpy as np

from .algebra import ad_action, exp_entries
from .wigner import character

DEFAULT_N_BLOCKS = 40
REPROJECT_EVERY = 64
# Paths per time in a slab: a slab of two times has twice the rows, and its
# longer NumPy calls are what lets two threads overlap (README).
SLAB_PATHS = 2048
# Steps whose normals and exponentials are formed in one call per block.
# Fewer, larger NumPy calls per path-step are what let --workers threads
# run at once instead of queueing on the interpreter lock.
CHUNK_STEPS = 8
# Steps a streamed SampledPath draws per generator call: a multiple of
# CHUNK_STEPS, so the chunks of a span line up with those of given paths.
# At 32 the pathwise gate's 200 pairs trace a peak of 1.84 MB at 800 steps
# (held batches of 40 pairs: 1.80 MB); 64 steps traced 2.15 MB.
SPAN_STEPS = 32


def _chunks(spans):
    """Split (..., m, 3) increments into chunks of CHUNK_STEPS steps, each (c, ..., 3)."""
    for inc in spans:
        for i in range(0, inc.shape[-2], CHUNK_STEPS):
            yield np.moveaxis(inc[..., i:i + CHUNK_STEPS, :], -2, 0)


@dataclass
class BrownianPath:
    """Algebra-valued paths on [0, 1] with given increments; leading axes of (..., n_steps, 3) index draws."""

    increments: np.ndarray
    sigma_sq: float

    @property
    def n_steps(self) -> int:
        return self.increments.shape[-2]

    @property
    def batch_shape(self) -> tuple:
        return self.increments.shape[:-2]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    def chunks(self):
        return _chunks([self.increments])


@dataclass
class SampledPath:
    """Brownian paths on [0, 1] with variance sigma_sq, one per seed, drawn as they are read.

    Draw k takes its (n_steps, 3) normals from default_rng(seed k) and scales
    them by sqrt(sigma_sq / n_steps).  ``seeds`` is one int (a single path)
    or a sequence (a batch; its leading axis indexes the draws).  ``chunks``
    draws SPAN_STEPS steps per generator call into one reused buffer, so a
    batch is never held whole; a Generator gives the same normals whether
    drawn in one call or in consecutive pieces, so the increments are the
    same bit for bit.  ``increments`` draws every step in one call.
    """

    sigma_sq: float
    n_steps: int
    seeds: int | Sequence[int]

    @property
    def batch_shape(self) -> tuple:
        return np.shape(self.seeds)

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def increments(self) -> np.ndarray:
        """All increments as one array (..., n_steps, 3)."""
        return next(self._spans(self.n_steps))

    def chunks(self):
        return _chunks(self._spans(SPAN_STEPS))

    def _spans(self, span: int):
        """The increments, ``span`` steps at a time, as (..., m, 3) views of one buffer that each span overwrites."""
        rngs = [np.random.default_rng(s) for s in np.ravel(self.seeds).tolist()]
        buf = np.empty(self.batch_shape + (min(span, self.n_steps), 3))
        rows = buf.reshape(len(rngs), -1, 3)
        scale = np.sqrt(self.sigma_sq / self.n_steps)
        for k0 in range(0, self.n_steps, span):
            m = min(span, self.n_steps - k0)
            for rng, row in zip(rngs, rows):
                rng.standard_normal(out=row[:m])
            inc = buf[..., :m, :]
            inc *= scale
            yield inc


def sample_path(sigma_sq: float, n_steps: int, seed: int | Sequence[int]) -> SampledPath:
    """The Brownian path of variance sigma_sq drawn from ``seed``, or one path per seed of a sequence."""
    if sigma_sq < 0:
        raise ValueError("variance must be nonnegative")
    if n_steps < 1:
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


def _check_grid(a, b) -> None:
    if (a.batch_shape, a.n_steps) != (b.batch_shape, b.n_steps):
        raise ValueError("paths must share the step grid")


def _rotated_chunks(b, a, x):
    """Advance x through theta(A) in place; yield (k0, dA_k, dB_k, dB'_k) for each chunk, each (c, ..., 3).

    dB'_k = Ad_{x_k} dB_k with x_k the state entering step k (left-point rule).
    """
    xs = np.empty((2, 2, CHUNK_STEPS) + x.shape[2:], dtype=complex)
    k0 = 0
    for za, zb in zip(a.chunks(), b.chunks()):
        e = exp_entries(za, None)
        _advance(x, e.reshape((2, 2) + e.shape[1:]), k0, _project_su2, states=xs)
        yield k0, za, zb, ad_action(np.moveaxis(xs[:, :, :len(za)], (0, 1), (-2, -1)), zb)
        k0 += len(za)


def pathwise_identity_residual(a, b):
    """Frobenius distance between theta_C(A+iB)_1 and theta_C(iB^{theta(A)})_1 theta(A)_1.

    ``a`` and ``b`` are paths on one step grid, given (``BrownianPath``) or
    drawn as they are read (``SampledPath``).  Both sides are computed from
    the same increments at the same discretization; the residual measures
    only the discretization error of the factorization identity.  A pair of
    single paths gives a float, a batch an array with one residual per draw.
    theta(A) leads by one chunk of steps; theta_C(A+iB) and theta_C(iB')
    then take that chunk side by side as one batch, so only a chunk of
    rotated increments is held at once.  The step exponentials of
    theta_C(iB') take the Hermitian branch of ``exp_entries``.
    """
    _check_grid(a, b)
    shape = a.batch_shape
    x, g = _identity(shape), _identity((2,) + shape)
    e = np.empty((2, 2, CHUNK_STEPS, 2) + shape, dtype=complex)
    e_rows = e.reshape((4, CHUNK_STEPS, 2) + shape)
    for k0, da, db, db_rot in _rotated_chunks(b, a, x):
        c = len(da)
        exp_entries(da, db, out=e_rows[:, :c, 0])
        exp_entries(None, db_rot, out=e_rows[:, :c, 1])
        _advance(g, e[:, :, :c], k0, _project_sl2c)
    lhs, rhs = _matrices(g[:, :, 0]), _matrices(g[:, :, 1]) @ _matrices(x)
    res = np.linalg.norm(lhs - rhs, axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


def pathwise_medians(steps, seed: int) -> list[float]:
    """Median pathwise_identity_residual over 200 pairs of paths at each step count n.

    Pair k is A = sample_path(0.75, n, seed + 10000 + k) with
    B = sample_path(0.25, n, seed + 20000 + k).  The 200 pairs are one batch
    in one call, streamed SPAN_STEPS steps at a time from their 400
    generators, so the batch's increments are never held whole; the
    residuals are those of the single pairs.
    """
    meds = []
    for n in steps:
        a = sample_path(0.75, n, range(seed + 10000, seed + 10200))
        b = sample_path(0.25, n, range(seed + 20000, seed + 20200))
        meds.append(float(np.median(pathwise_identity_residual(a, b))))
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


def _slab_plan(n_paths: int, n_blocks: int) -> tuple[np.ndarray, list[range]]:
    """Path offsets of the blocks, and slabs of consecutive blocks of at most SLAB_PATHS paths each."""
    sizes = [len(idx) for idx in np.array_split(np.arange(n_paths), n_blocks)]
    per_slab = max(1, SLAB_PATHS // max(1, *sizes))
    slabs = [range(i, min(i + per_slab, n_blocks)) for i in range(0, n_blocks, per_slab)]
    return np.cumsum([0] + sizes), slabs


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
            _advance(g, e[:, :, :c], k0, _project_sl2c)
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
