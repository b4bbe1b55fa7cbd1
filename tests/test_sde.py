import sys

import numpy as np
import pytest

from su2quant.sde import (
    CHUNK_STEPS,
    BrownianPath,
    character_moment,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    endpoint_ensembles_KC,
    expected_character_K,
    expected_character_KC,
    pathwise_identity_residual,
    rotated_path,
    sample_path,
)

SEED = 1234


def test_sample_path_determinism_and_stats():
    a = sample_path(0.8, 50, SEED)
    b = sample_path(0.8, 50, SEED)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert a.dt == pytest.approx(0.02)
    # endpoint variance over many paths
    ends = np.array([sample_path(0.8, 20, s).increments.sum(axis=0) for s in range(2000)])
    var = np.var(ends)
    assert var == pytest.approx(0.8, rel=0.1)


def test_sample_path_zero_variance():
    p = sample_path(0.0, 10, SEED)
    np.testing.assert_array_equal(p.increments, 0.0)
    with pytest.raises(ValueError):
        sample_path(-1.0, 10, SEED)
    with pytest.raises(ValueError):
        sample_path(1.0, 0, SEED)


def test_endpoint_gaussian_ks():
    from scipy.stats import kstest

    ends = np.array(
        [sample_path(0.5, 10, s).increments.sum(axis=0)[0] for s in range(3000)]
    )
    stat, p = kstest(ends / np.sqrt(0.5), "norm")
    assert p > 0.01


def test_ito_map_zero_path_is_identity():
    # the Ito maps of zero-variance paths: every endpoint is exactly I
    for ens in (endpoint_ensemble_K(0.0, 50, 20, SEED), endpoint_ensemble_KC(0.0, 0.0, 50, 20, SEED)):
        np.testing.assert_array_equal(ens.values, np.broadcast_to(np.eye(2), (50, 2, 2)))


def test_pathwise_batch_equals_pairs():
    draws = [(sample_path(0.75, 80, SEED + k), sample_path(0.25, 80, SEED + 9 + k)) for k in range(5)]
    a = BrownianPath(np.stack([p.increments for p, _ in draws]), 0.75)
    b = BrownianPath(np.stack([q.increments for _, q in draws]), 0.25)
    batch = pathwise_identity_residual(a, b)
    assert batch.shape == (5,)
    for k, (ak, bk) in enumerate(draws):
        assert batch[k] == pytest.approx(pathwise_identity_residual(ak, bk), rel=1e-10)


def test_rotated_path_properties():
    a = sample_path(0.7, 100, SEED)
    b = sample_path(0.3, 100, SEED + 1)
    br = rotated_path(b, a)
    # Ad preserves increment norms step by step
    np.testing.assert_allclose(
        np.linalg.norm(br.increments, axis=1),
        np.linalg.norm(b.increments, axis=1),
        rtol=1e-10,
    )
    zero = BrownianPath(np.zeros((100, 3)), 0.0)
    same = rotated_path(b, zero)
    np.testing.assert_allclose(same.increments, b.increments, atol=1e-14)


def test_rotated_path_matches_ad_action_loop():
    # reference: x_k as a product of matrix exponentials, one step at a time
    from su2quant.algebra import ad_action, exp_algebra

    a = sample_path(0.7, 45, SEED)
    b = sample_path(0.3, 45, SEED + 1)
    x, ref = np.eye(2, dtype=complex), []
    for da, db in zip(a.increments, b.increments):
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
    # 70 steps: a partial last chunk and one reprojection; 2000 paths over 40
    # blocks stack into slabs of several blocks, 31 over 3 into one.  Three
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
    # and one reprojection
    n_steps = 70
    assert n_steps % CHUNK_STEPS != 0
    ref = _per_step_endpoints(s, t, 31, n_steps, SEED, 3)
    ens = endpoint_ensemble_KC(s, t, 31, n_steps, SEED, n_blocks=3)
    np.testing.assert_allclose(ens.values, ref, rtol=0, atol=1e-13)


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


def test_drift_after_reprojection():
    ens = endpoint_ensemble_KC(0.25, 0.5, 200, 1024, SEED)
    dets = np.linalg.det(ens.values)
    assert np.max(np.abs(dets - 1.0)) < 1e-10
    x = endpoint_ensemble_K(1.0, 200, 1024, SEED).values
    np.testing.assert_allclose(x @ np.conj(np.swapaxes(x, -1, -2)),
                               np.broadcast_to(np.eye(2), x.shape), rtol=0, atol=1e-10)


def test_mismatched_paths_rejected():
    a = sample_path(1.0, 10, SEED)
    b = sample_path(1.0, 20, SEED)
    with pytest.raises(ValueError):
        rotated_path(b, a)
    with pytest.raises(ValueError):
        pathwise_identity_residual(a, b)
