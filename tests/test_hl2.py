import numpy as np
import pytest

from su2quant.algebra import default_cutoff, haar_rule, kc_quadrature
from su2quant.heat import nu_radial
from su2quant.hl2 import fiber_nodes, fiber_scalar, hl2_inner, hl2_inner_pointwise, sphere_grid
from su2quant.transform import transform_C
from su2quant.wigner import BandLimited, wigner_matrix

T = 0.5


RULE = kc_quadrature(3.0, n_r=12)


def _pointwise(F1, F2, symbol, k_two_jmax=3, sphere=(6, 6)):
    # a small fiber grid: the identities below hold on any fiber rule
    return hl2_inner_pointwise(F1, F2, RULE, _weight, symbol,
                               haar_rule(2 * k_two_jmax), sphere_grid(*sphere))


def _weight(r):
    return nu_radial(T, r)


def _random(rng, spins):
    return BandLimited({
        two_j: rng.standard_normal((two_j + 1, two_j + 1))
        + 1j * rng.standard_normal((two_j + 1, two_j + 1))
        for two_j in spins
    })


def _one(g):
    return np.ones(g.shape[:-2])


def _cosh_r(g):
    """cosh|Y| = tr(g^dag g) / 2 for g = x exp(iY)."""
    return np.einsum("...ab,...ab->...", np.conj(g), g).real / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_matches_pointwise_sum_on_K_exact_rule(rng):
    # haar_rule(6) integrates products of spin-3/2 entries exactly, so the
    # per-node sum of hl2_inner_pointwise equals the Schur closed form
    F1, F2 = _random(rng, (0, 1, 3)), _random(rng, (0, 1, 3))
    exact = hl2_inner(F1, F2, RULE, _weight)
    assert exact == pytest.approx(_pointwise(F1, F2, _one), rel=1e-12)
    radial = lambda r: np.cosh(r) * np.exp(1j * np.cosh(r))
    pointwise = lambda g: _cosh_r(g) * np.exp(1j * _cosh_r(g))
    exact = hl2_inner(F1, F2, RULE, _weight, radial_symbol=radial)
    assert exact.imag != 0.0
    assert exact == pytest.approx(_pointwise(F1, F2, pointwise), rel=1e-12)


def test_no_common_spin_gives_zero(rng):
    F1, F2 = _random(rng, (0, 1)), _random(rng, (2, 3))
    assert hl2_inner(F1, F2, RULE, _weight) == 0.0
    assert abs(_pointwise(F1, F2, _one)) < 1e-12


def test_reads_no_K_node(rng):
    # the spin-3/2 product aliases on the k_two_jmax = 1 Haar rule of the
    # per-node sum; the closed form has no K-rule to alias on
    F = _random(rng, (3,))
    exact = hl2_inner(F, F, RULE, _weight)
    assert exact == pytest.approx(_pointwise(F, F, _one), rel=1e-12)
    aliased = _pointwise(F, F, _one, k_two_jmax=1)
    assert abs(aliased - exact) > 1e-6 * abs(aliased)


def test_sphere_rule_drops_out(rng):
    # spin 3/2 needs degree 3 in the direction u, which the 2 x 2 sphere grid
    # does not integrate: the per-node Gram matrix aliases there.  hl2_inner
    # reads one node per radius and no sphere grid, and matches the per-node
    # sum on a grid that integrates it
    F = _random(rng, (1, 3))
    value = hl2_inner(F, F, RULE, _weight)
    assert value == pytest.approx(_pointwise(F, F, _one), rel=1e-12)
    aliased = _pointwise(F, F, _one, sphere=(2, 2))
    assert abs(aliased - value) > 1e-6 * abs(value)


@pytest.mark.parametrize("sphere", [(0.0, 0.0, 1.0), (0.6, -0.48, 0.64)])
@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_unitarity_through_lambda(j, sphere):
    # at beta = 1 with the analytic N(t), lambda_j = e^{t j(j+1)} on [0, inf);
    # at t = 0.2 the Gaussian tail past the cutoff is below 1e-15.  By
    # Schur's lemma the fiber Gram matrix is lambda_j I, so along any one
    # direction u (``sphere``, a point of the unit sphere) its trace is
    # d_j lambda_j
    t = 0.2
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=64)
    wy = rule.fiber_weights * nu_radial(t, rule.radii)
    d = wigner_matrix(j, fiber_nodes(rule.radii, np.array([sphere])))
    gram = np.einsum("y,yba,ybc->ac", wy, np.conj(d), d)
    lam = fiber_scalar(int(2 * j), rule, wy)
    assert np.trace(gram).real / (2 * j + 1) == pytest.approx(lam, rel=1e-12)
    assert lam == pytest.approx(np.exp(t * j * (j + 1)), rel=1e-12)
    for m in np.arange(-j, j + 1):
        f = BandLimited.entry(j, m, -j)
        F = transform_C(t, f)
        lhs = hl2_inner(F, F, rule, lambda r: nu_radial(t, r)).real
        assert lhs == pytest.approx(f.norm_sq(), rel=1e-12)
