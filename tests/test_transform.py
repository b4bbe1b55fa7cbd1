import numpy as np
import pytest
from reference import exp_complex

from su2quant.algebra import VOL_K, default_cutoff, haar_rule, kc_quadrature, polar_rule
from su2quant.cli import T_VALUES_RANGE
from su2quant.errors import IllConditioned, ParameterDomain
from su2quant.heat import nu_radial
from su2quant.hl2 import K_CHUNK, _chunked_tables, _factored_values, fiber_nodes, hl2_inner, sphere_grid
from su2quant.transform import adjoint_inversion_oracle, inverse_C, transform_C
from su2quant.wigner import BandLimited, character


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_constant_is_fixed():
    F = transform_C(0.7, BandLimited.constant(2.5))
    assert F(np.eye(2)) == pytest.approx(2.5)


def test_character_is_eigenfunction():
    # C_t chi_1 = e^{-t} chi_1 since c_1 = 2
    t = 0.3
    F = transform_C(t, BandLimited.character_fn(1.0))
    y = np.array([[0.1, -0.2, 0.4]])
    g = exp_complex(1j * y)
    np.testing.assert_allclose(
        F(g), np.exp(-t) * character(1.0, g), atol=1e-12
    )


def test_unitarity_on_quadrature(rng):
    t = 0.5
    rule = polar_rule(t)
    f1 = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    f2 = BandLimited({1: rng.standard_normal((2, 2))})
    F1, F2 = transform_C(t, f1), transform_C(t, f2)
    nu = nu_radial(t, rule.radii)
    lhs = hl2_inner(F1, F2, rule, nu)
    from su2quant.wigner import inner_product_K

    assert lhs == pytest.approx(inner_product_K(f1, f2), abs=1e-8)
    norm_sq = hl2_inner(F1, F1, rule, nu).real
    assert norm_sq == pytest.approx(f1.norm_sq(), rel=1e-10)


def test_inverse_roundtrip(rng):
    t = 0.4
    f = BandLimited(
        {k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
         for k in (1, 2, 6)}
    )
    back = inverse_C(t, transform_C(t, f))
    for k, c in f.blocks.items():
        np.testing.assert_allclose(back.blocks[k], c, atol=1e-12)


def test_inverse_guard():
    F = BandLimited({24: np.ones((25, 25))})
    with pytest.raises(IllConditioned):
        inverse_C(2.0, F)


@pytest.mark.parametrize("t", [0.0, -0.1])
def test_transform_rejects_nonpositive_time(t):
    f = BandLimited.constant(1.0)
    with pytest.raises(ParameterDomain):
        transform_C(t, f)
    with pytest.raises(ParameterDomain):
        inverse_C(t, f)


def test_adjoint_inversion_oracle(rng):
    t = 0.5
    rule = polar_rule(t)
    f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    rec = adjoint_inversion_oracle(t, transform_C(t, f), rule)
    np.testing.assert_allclose(rec.blocks[1], f.blocks[1], atol=1e-4)


@pytest.mark.parametrize("t", [1e-3, *T_VALUES_RANGE])
def test_adjoint_oracle_returns_every_block(rng, t):
    # the oracle evaluates no truncated rho_t, so no spin of F is cut, even
    # where rho_t's own truncation would cut it (two_jmax 2 at t = 26) or has
    # no certificate (t = 1e-3)
    F = BandLimited({
        k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        for k in (1, 2, 3, 4)
    })
    rec = adjoint_inversion_oracle(t, F, polar_rule(t))
    assert set(rec.blocks) == set(F.blocks)


def _adjoint_per_node(t, F, rule, k_rule, sphere):
    """The adjoint integral as an explicit sum over the K-nodes and fiber nodes."""
    directions, direction_weights = sphere
    fw = np.outer(rule.fiber_weights * nu_radial(t, rule.radii), direction_weights).reshape(-1)
    kw = k_rule.weights
    spins = range(0, F.two_jmax + 1)
    m = {two_j: 0.0 for two_j in spins}
    fnodes = fiber_nodes(rule.radii, directions)
    for part, dx, ey in _chunked_tables(k_rule.nodes, fnodes, set(F.blocks) | set(spins), K_CHUNK):
        weighted = _factored_values(F, dx, ey) * fw
        for two_j in spins:
            m[two_j] += np.einsum(
                "x,xac,ycb,xy->ab", kw[part], np.conj(dx[two_j]), np.conj(ey[two_j]), weighted
            )
    blocks = {}
    for two_j in spins:
        j = two_j / 2.0
        blocks[two_j] = (two_j + 1) * np.exp(-t * j * (j + 1) / 2.0) / VOL_K * m[two_j]
    return BandLimited(blocks).prune(1e-12)


def test_adjoint_oracle_matches_per_node_sum(rng):
    # on a K-exact rule the Schur closed form equals the node sum; spin 0 is
    # absent from F, so it has no block
    t = 0.5
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=16)
    F = BandLimited({
        k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        for k in (1, 2, 3)
    })
    rec = adjoint_inversion_oracle(t, F, rule)
    ref = _adjoint_per_node(t, F, rule, haar_rule(6), sphere_grid(8, 8))
    assert set(rec.blocks) == set(ref.blocks) == {1, 2, 3}
    for k, c in ref.blocks.items():
        np.testing.assert_allclose(rec.blocks[k], c, rtol=0, atol=1e-12 * np.max(np.abs(c)))


def test_adjoint_oracle_R_stability(rng):
    # doubling the radial cutoff moves the recovered block by < 1e-6
    t = 0.5
    f = BandLimited({1: rng.standard_normal((2, 2))})
    F = transform_C(t, f)
    r1 = adjoint_inversion_oracle(t, F, polar_rule(t))
    big = kc_quadrature(default_cutoff(t) + 3.0, n_r=96)
    r2 = adjoint_inversion_oracle(t, F, big)
    assert np.max(np.abs(r1.blocks[1] - r2.blocks[1])) < 1e-6


def test_intertwining_with_derivatives(rng):
    # C_t(A f) = A_C(C_t f) exactly on coefficients
    from su2quant.diffop import LeftInvariantOperator

    t = 0.6
    f = BandLimited({2: rng.standard_normal((3, 3))})
    a = LeftInvariantOperator([(1.0, (1, 3)), (-0.5j, (2,)), (2.0, (3, 3, 1, 2))])
    lhs = transform_C(t, a.apply(f))
    rhs = a.apply(transform_C(t, f))
    np.testing.assert_allclose(lhs.blocks[2], rhs.blocks[2], atol=1e-12)
