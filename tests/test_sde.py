import sys

import numpy as np
import pytest
from conftest import traced_peak_mb
from reference import BrownianPath, rotated_path

from su2quant import sde
from su2quant.sde import (
    CHUNK_STEPS,
    SPAN_STEPS,
    block_offsets,
    block_rng,
    character_moment,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    endpoint_ensembles_KC,
    expected_character_K,
    expected_character_KC,
    pathwise_identity_residual,
    pathwise_residuals,
    sample_path,
)

SEED = 1234


def _streamed(path):
    """All increments of a path as its chunks stream them, (n_steps, rows, 3).

    The chunks are views of a buffer that the next span overwrites, so each is copied.
    """
    return np.concatenate([chunk.copy() for chunk in path.chunks()])


def test_sample_path_determinism_and_stats():
    np.testing.assert_array_equal(_streamed(sample_path(0.8, 50, SEED)),
                                  _streamed(sample_path(0.8, 50, SEED)))
    # endpoint variance over many paths
    ends = _streamed(sample_path(0.8, 20, range(2000))).sum(axis=0)
    var = np.var(ends)
    assert var == pytest.approx(0.8, rel=0.1)


def test_sample_path_zero_variance():
    np.testing.assert_array_equal(_streamed(sample_path(0.0, 10, SEED)), 0.0)
    with pytest.raises(ValueError):
        sample_path(-1.0, 10, SEED)
    with pytest.raises(ValueError):
        sample_path(1.0, 0, SEED)


def test_endpoint_gaussian_ks():
    from scipy.stats import kstest

    ends = _streamed(sample_path(0.5, 10, range(3000))).sum(axis=0)[:, 0]
    stat, p = kstest(ends / np.sqrt(0.5), "norm")
    assert p > 0.01


def test_ito_map_zero_path_is_identity():
    # the Ito maps of zero-variance paths: every endpoint is exactly I
    for ens in (endpoint_ensemble_K(0.0, 50, 20, SEED), endpoint_ensemble_KC(0.0, 0.0, 50, 20, SEED)):
        np.testing.assert_array_equal(ens.values, np.broadcast_to(np.eye(2), (50, 2, 2)))


def _reference_increments(sigma_sq, n_steps, seed):
    """Reference: the increments of one seed as one call draws them, every step at once."""
    return np.sqrt(sigma_sq / n_steps) * np.random.default_rng(seed).standard_normal((n_steps, 3))


def test_pathwise_batch_equals_pairs():
    draws = [(sample_path(0.75, 80, SEED + k), sample_path(0.25, 80, SEED + 9 + k)) for k in range(5)]
    a = BrownianPath(np.stack([_reference_increments(0.75, 80, SEED + k) for k in range(5)]), 0.75)
    b = BrownianPath(np.stack([_reference_increments(0.25, 80, SEED + 9 + k) for k in range(5)]), 0.25)
    batch = pathwise_identity_residual(a, b)
    assert batch.shape == (5,)
    for k, (ak, bk) in enumerate(draws):
        assert batch[k] == pytest.approx(pathwise_identity_residual(ak, bk), rel=1e-10)


@pytest.mark.parametrize("n_steps", [100, 45])
def test_streamed_increments_equal_sample_path(n_steps):
    # a partial last span and a partial last chunk
    assert n_steps % SPAN_STEPS and n_steps % CHUNK_STEPS
    for first in (SEED, 10_000, 20_000):
        seeds = range(first, first + 7)
        streamed = _streamed(sample_path(0.75, n_steps, seeds))
        assert streamed.shape == (n_steps, 7, 3)
        for k, seed in enumerate(seeds):
            ref = _reference_increments(0.75, n_steps, seed)
            np.testing.assert_array_equal(streamed[:, k], ref)
            np.testing.assert_array_equal(_streamed(sample_path(0.75, n_steps, seed))[:, 0], ref)


def _held_batch_residuals(steps, seed, batch=40):
    """Reference: the gate's 200 pairs as held batches of 40 paths, one call per batch."""
    out = []
    for n in steps:
        res = []
        for k in range(0, 200, batch):
            a, b = (
                BrownianPath(np.stack([_reference_increments(var, n, seed + offset + k + i)
                                       for i in range(batch)]), var)
                for var, offset in ((0.75, 10_000), (0.25, 20_000))
            )
            res.append(pathwise_identity_residual(a, b))
        out.append(np.concatenate(res))
    return out


def test_pathwise_medians_equal_held_batches():
    steps = [45, 100]
    held = _held_batch_residuals(steps, SEED)
    assert pathwise_residuals(steps, SEED)[0] == [float(np.median(r)) for r in held]
    for n, res in zip(steps, held):
        a = sample_path(0.75, n, range(SEED + 10_000, SEED + 10_200))
        b = sample_path(0.25, n, range(SEED + 20_000, SEED + 20_200))
        np.testing.assert_array_equal(pathwise_identity_residual(a, b), res)


def _halving_pair(n):
    """Reference: the gate's deterministic pair on n steps, as single given paths."""
    return (BrownianPath(np.tile(np.array(v) / n, (n, 1)), 1.0)
            for v in ((0.3, -0.2, 0.5), (-0.1, 0.4, 0.2)))


@pytest.mark.parametrize("steps", [[100, 200, 400, 800], [45, 100], [200, 100, 200], [100]])
def test_nested_grid_batch_moves_no_bit(steps):
    # one batch over nested grids against one held batch per step count and
    # one call per deterministic pair; [45, 100] ends a grid mid-chunk
    meds, det = pathwise_residuals(steps, SEED)
    assert meds == [float(np.median(r)) for r in _held_batch_residuals(steps, SEED)]
    assert det == [pathwise_identity_residual(*_halving_pair(n)) for n in steps]


def test_nested_grids_must_descend():
    a = sample_path(0.75, [100, 200], range(3))
    with pytest.raises(ValueError, match="descending"):
        pathwise_identity_residual(a, sample_path(0.25, [100, 200], range(3)))


def test_pathwise_gate_streams_its_increments():
    # measured 1.69 MB, bound with a 25% margin; holding the 200 pairs whole
    # at 800 steps takes 7.7 MB for the increments alone
    assert traced_peak_mb(lambda: pathwise_residuals([800], SEED)) < 2.3


def test_pathwise_gate_memory():
    # the gate's four step counts as one batch: measured 1.81 MB, bound with
    # a 15% margin; chunks of CHUNK_STEPS steps on every grid still walking
    # measured 4.0 MB
    from su2quant.cli import gate_pathwise

    assert traced_peak_mb(lambda: gate_pathwise([100, 200, 400, 800], SEED)) < 2.1


def test_pathwise_gate_builds_each_generator_once(monkeypatch):
    # 200 pairs draw from 400 seeds; one generator per seed serves every step count
    from su2quant.cli import gate_pathwise

    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
    gate_pathwise([100, 200, 400, 800], SEED)
    assert len(built) == 400


def test_offslice_ensemble_memory():
    # sde-check's (1, 0.5) ensemble: measured 2.89 MB (per-block exponentials:
    # 2.85 MB), bound with a 15% margin; exponentiating a whole chunk of the
    # slab per call measured 4.6 MB
    assert traced_peak_mb(lambda: endpoint_ensemble_KC(1.0, 0.5, 5000, 200, SEED)) < 3.3


def test_two_time_ensemble_memory():
    # toeplitz-mult's walk of two times on two threads: measured 10.8 MB, of
    # which 3.2 MB are the outputs; bound with a 15% margin.  One slab for
    # all 25,000 paths would take 26 MB in step exponentials alone
    fn = lambda: endpoint_ensembles_KC([(0.25, 0.5), (0.5, 1.0)], 25000, 16, SEED, workers=2)
    assert traced_peak_mb(fn) < 12.4


def test_rotated_path_properties():
    a = sample_path(0.7, 100, SEED)
    b = sample_path(0.3, 100, SEED + 1)
    br = rotated_path(b, a)
    # Ad preserves increment norms step by step
    db = _reference_increments(0.3, 100, SEED + 1)
    np.testing.assert_allclose(
        np.linalg.norm(br.increments, axis=1),
        np.linalg.norm(db, axis=1),
        rtol=1e-10,
    )
    zero = BrownianPath(np.zeros((100, 3)), 0.0)
    same = rotated_path(b, zero)
    np.testing.assert_allclose(same.increments, db, atol=1e-14)


def test_rotated_path_matches_ad_action_loop():
    # reference: x_k as a product of matrix exponentials, one step at a time
    from su2quant.algebra import ad_action, exp_algebra

    a = sample_path(0.7, 45, SEED)
    b = sample_path(0.3, 45, SEED + 1)
    x, ref = np.eye(2, dtype=complex), []
    for da, db in zip(_reference_increments(0.7, 45, SEED), _reference_increments(0.3, 45, SEED + 1)):
        ref.append(ad_action(x, db))
        x = x @ exp_algebra(da)
    np.testing.assert_allclose(rotated_path(b, a).increments, ref, rtol=0, atol=1e-14)


def test_rotated_endpoint_distribution_ks():
    from scipy.stats import kstest

    ends = []
    for k in range(1500):
        a = sample_path(0.6, 30, 10_000 + k)
        b = sample_path(0.4, 30, 20_000 + k)
        ends.append(rotated_path(b, a).increments.sum(axis=0)[2])
    stat, p = kstest(np.array(ends) / np.sqrt(0.4), "norm")
    assert p > 0.01


def test_pathwise_identity_zero_A_exact():
    zero = BrownianPath(np.zeros((50, 3)), 0.0)
    b = sample_path(0.5, 50, SEED)
    assert pathwise_identity_residual(zero, b) < 1e-12


def test_pathwise_identity_deterministic_rate():
    res = []
    for n in (100, 200, 400):
        a = BrownianPath(np.tile(np.array([0.3, -0.2, 0.5]) / n, (n, 1)), 1.0)
        b = BrownianPath(np.tile(np.array([-0.1, 0.4, 0.2]) / n, (n, 1)), 1.0)
        res.append(pathwise_identity_residual(a, b))
    assert res[0] / res[1] > 1.9
    assert res[1] / res[2] > 1.9


def test_ensemble_deterministic_and_worker_independent():
    e1 = endpoint_ensemble_KC(0.25, 0.5, 2000, 50, SEED, workers=1)
    e2 = endpoint_ensemble_KC(0.25, 0.5, 2000, 50, SEED, workers=3)
    np.testing.assert_array_equal(e1.values, e2.values)
    e3 = endpoint_ensemble_KC(0.25, 0.5, 2000, 50, SEED + 1)
    assert np.max(np.abs(e1.values - e3.values)) > 1e-3


@pytest.mark.parametrize("pairs", [
    [(0.25, 0.5), (0.5, 1.0)],  # the subelliptic slice, as toeplitz-mult draws it
    [(1.0, 0.5), (2.0, 1.0), (0.3, 0.2)],  # general SL(2,C)
    [(0.7, 0.0), (1.0, 0.0)],  # SU(2)
])
@pytest.mark.parametrize("n_paths, n_blocks", [(2000, 40), (31, 3)])
def test_shared_normals_equal_separate_ensembles(pairs, n_paths, n_blocks):
    # 70 steps: a partial last chunk; 2000 paths over 40 blocks stack into slabs of several blocks, 31 over 3 into one.  Three
    # threads, switching often, write their slabs' rows of shared arrays.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        shared = endpoint_ensembles_KC(pairs, n_paths, 70, SEED, workers=3, n_blocks=n_blocks)
    finally:
        sys.setswitchinterval(interval)
    assert len(shared) == len(pairs)
    for (s, t), ens in zip(pairs, shared):
        alone = endpoint_ensemble_KC(s, t, n_paths, 70, SEED, n_blocks=n_blocks)
        np.testing.assert_array_equal(ens.values, alone.values)
        assert (ens.n_blocks, ens.n_steps) == (alone.n_blocks, alone.n_steps)


@pytest.mark.parametrize("pairs", [
    [(0.25, 0.5)], [(0.25, 0.5), (0.5, 1.0)],  # the subelliptic slice
    [(1.0, 0.5)], [(1.0, 0.5), (2.0, 1.0)],  # off the slice
    [(0.7, 0.0)], [(0.7, 0.0), (1.0, 0.0)],  # SU(2)
])
def test_slabs_change_no_bit(monkeypatch, pairs):
    # one block per slab, the default (slabs of 16, 16 and 8 blocks of 125
    # and 126 paths), and one slab for every path of every time; 66 steps:
    # a partial last chunk
    n_paths, n_steps = 5001, 66
    ref = endpoint_ensembles_KC(pairs, n_paths, n_steps, SEED)
    for slab_paths in (1, sde.SLAB_PATHS, n_paths * len(pairs)):
        monkeypatch.setattr(sde, "SLAB_PATHS", slab_paths)
        for workers in (1, 2):
            ensembles = endpoint_ensembles_KC(pairs, n_paths, n_steps, SEED, workers=workers)
            for ens, alone in zip(ensembles, ref):
                np.testing.assert_array_equal(ens.values, alone.values)


def test_block_offsets_split_as_array_split():
    # the slabs and the Euclidean baseline's blocks take their sizes from
    # block_offsets; the ensembles' blocks are np.array_split's, the same split
    for n in (0, 1, 39, 40, 41, 200, 5000, 25001):
        for n_blocks in (1, 3, 40):
            sizes = [len(part) for part in np.array_split(np.arange(n), n_blocks)]
            np.testing.assert_array_equal(block_offsets(n, n_blocks), np.cumsum([0] + sizes))


def test_slab_plan_counts_paths_per_time(monkeypatch):
    # at the benchmark's 25,000 paths, a one-time and a two-time walk both
    # take three 625-path blocks per slab
    plans, plan = [], sde._slab_plan

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(sde, "_slab_plan", recorded)
    endpoint_ensemble_KC(0.25, 0.5, 25000, 1, SEED)
    endpoint_ensembles_KC([(0.25, 0.5), (0.5, 1.0)], 25000, 1, SEED)
    assert [slabs for _, slabs in plans] == [[range(i, min(i + 3, 40)) for i in range(0, 40, 3)]] * 2


def test_shared_normals_need_one_draw_pattern():
    # the slice draws only db, general pairs draw da and db, t = 0 only da
    for pairs in ([(0.25, 0.5), (1.0, 0.5)], [(0.5, 0.0), (0.25, 0.5)], [(1.0, 0.5), (1.0, 0.0)]):
        with pytest.raises(ValueError):
            endpoint_ensembles_KC(pairs, 200, 10, SEED)
    with pytest.raises(ValueError):
        endpoint_ensembles_KC([(0.25, 0.5), (0.1, 0.5)], 200, 10, SEED)  # s < t/2


def _per_step_endpoints(s, t, n_paths, n_steps, seed, n_blocks):
    """Reference: each block draws its da, then its db, at every step; g <- g expm(dZ).

    The step matrices come from SciPy's expm, apart from su2quant's closed form.
    """
    from scipy.linalg import expm

    from su2quant.algebra import BASIS

    var_a, var_b = max(s - t / 2.0, 0.0), t / 2.0
    sa, sb = np.sqrt(var_a / n_steps), np.sqrt(var_b / n_steps)
    out = []
    for block, rows in enumerate(np.array_split(np.arange(n_paths), n_blocks)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        g = np.tile(np.eye(2, dtype=complex), (len(rows), 1, 1))
        for _ in range(n_steps):
            da = rng.standard_normal((len(rows), 3)) if var_a > 0 else 0.0
            db = rng.standard_normal((len(rows), 3)) if var_b > 0 else 0.0
            dz = np.broadcast_to(sa * da + 1j * (sb * db), (len(rows), 3))
            g = g @ np.array([expm(np.einsum("k,kab->ab", z, BASIS)) for z in dz])
        out.append(g)
    return np.concatenate(out)


@pytest.mark.parametrize("s, t", [(0.25, 0.5), (1.0, 0.5), (0.7, 0.0)])
def test_chunked_ensemble_matches_per_step_loop(s, t):
    # slice, general SL(2,C) and var_b = 0; 70 steps: a partial last chunk
    n_steps = 70
    assert n_steps % CHUNK_STEPS != 0
    ref = _per_step_endpoints(s, t, 31, n_steps, SEED, 3)
    ens = endpoint_ensemble_KC(s, t, 31, n_steps, SEED, n_blocks=3)
    np.testing.assert_allclose(ens.values, ref, rtol=0, atol=1e-13)


def _per_block_exponential_endpoints(s, t, n_paths, n_steps, seed, n_blocks):
    """Reference: each block walked alone, its step exponentials formed one chunk of one block per call."""
    from su2quant.algebra import exp_entries
    from su2quant.sde import _advance, _identity

    dt = 1.0 / n_steps
    sa, sb = np.sqrt((s - t / 2.0) * dt), np.sqrt(t / 2.0 * dt)
    out = []
    for block, rows in enumerate(np.array_split(np.arange(n_paths), n_blocks)):
        rng = block_rng(seed, block)
        g = _identity((len(rows),))
        for k0 in range(0, n_steps, CHUNK_STEPS):
            z = rng.standard_normal((min(CHUNK_STEPS, n_steps - k0), 2, len(rows), 3))
            e = exp_entries(sa * z[:, 0], sb * z[:, 1])
            _advance(g, e.reshape((2, 2) + e.shape[1:]))
        out.append(np.moveaxis(g, (0, 1), (-2, -1)))
    return np.concatenate(out)


@pytest.mark.parametrize("workers", [1, 2])
def test_offslice_ensemble_equals_per_block_exponentials(workers):
    # uneven blocks of 125 and 126 paths in three slabs; 70 steps: a partial
    # last chunk
    n_paths, n_steps = 5001, 70
    assert n_paths % 40 and n_steps % CHUNK_STEPS
    ref = _per_block_exponential_endpoints(1.0, 0.5, n_paths, n_steps, SEED, 40)
    ens = endpoint_ensemble_KC(1.0, 0.5, n_paths, n_steps, SEED, workers=workers)
    np.testing.assert_array_equal(ens.values, ref)


def test_real_ensemble_moments():
    ens = endpoint_ensemble_K(1.0, 20000, 200, SEED)
    for j in (0.5, 1.0):
        m, e = character_moment(ens, j)
        assert abs(m - expected_character_K(1.0, j)) < 3.0 * e


def test_complex_ensemble_moments():
    ens = endpoint_ensemble_KC(1.0, 0.5, 20000, 400, SEED)
    for j in (0.5, 1.0):
        m, e = character_moment(ens, j)
        assert abs(m - expected_character_KC(1.0, 0.5, j)) < 3.0 * e


def test_subelliptic_slice_growth():
    # s = t/2: E[chi_j] grows like e^{+t c_j / 4}
    t = 0.5
    ens = endpoint_ensemble_KC(t / 2.0, t, 20000, 200, SEED + 7)
    for j in (0.5, 1.0):
        m, e = character_moment(ens, j)
        pred = expected_character_KC(t / 2.0, t, j)
        assert pred > 2 * j + 1  # growth, not decay
        assert abs(m - pred) < 3.0 * e


def test_subelliptic_right_invariance():
    # E[F(w x0)] is invariant when x0 is folded into F by translation
    from su2quant.algebra import exp_algebra
    from su2quant.wigner import BandLimited

    t = 0.5
    x0 = exp_algebra(np.array([0.4, 0.0, 1.1]))
    f = BandLimited.character_fn(0.5)
    ens = endpoint_ensemble_KC(t / 2.0, t, 20000, 200, SEED + 3)
    lhs, el = ens.block_statistic(np.real(f(ens.values @ x0)))
    # reference: independent draw, same translation folded in
    ens2 = endpoint_ensemble_KC(t / 2.0, t, 20000, 200, SEED + 4)
    rhs, er = ens2.block_statistic(np.real(f(ens2.values @ x0)))
    assert abs(lhs - rhs) < 3.0 * np.hypot(el, er)


def test_drift_without_reprojection():
    # the walk never reprojects; at 5,000 paths and 1,600 steps the drift
    # measured at most 3.2e-14 (off the slice) and 1.8e-14 (SU(2))
    for s, t in ((0.25, 0.5), (1.0, 0.5)):  # on and off the slice
        dets = np.linalg.det(endpoint_ensemble_KC(s, t, 200, 1600, SEED).values)
        assert np.max(np.abs(dets - 1.0)) <= 1e-12
    x = endpoint_ensemble_K(1.0, 200, 1600, SEED).values
    np.testing.assert_allclose(x @ np.conj(np.swapaxes(x, -1, -2)),
                               np.broadcast_to(np.eye(2), x.shape), rtol=0, atol=1e-12)


def test_mismatched_paths_rejected():
    a = sample_path(1.0, 10, SEED)
    b = sample_path(1.0, 20, SEED)
    with pytest.raises(ValueError):
        rotated_path(b, a)
    with pytest.raises(ValueError):
        pathwise_identity_residual(a, b)
