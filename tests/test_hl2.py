import numpy as np
import pytest

from su2quant.algebra import default_cutoff, kc_quadrature
from su2quant.heat import nu_radial
from su2quant.hl2 import hl2_inner, hl2_inner_pointwise
from su2quant.transform import adjoint_inversion_oracle, transform_C
from su2quant.wigner import BandLimited

T = 0.5


def _rule(k_two_jmax):
    # a small fiber grid: the identities below hold on any fiber rule
    return kc_quadrature(3.0, k_two_jmax=k_two_jmax, n_r=12, n_theta=6, n_phi=6)


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
    rule = _rule(3)
    F1, F2 = _random(rng, (0, 1, 3)), _random(rng, (0, 1, 3))
    exact = hl2_inner(F1, F2, rule, _weight)
    assert exact == pytest.approx(hl2_inner_pointwise(F1, F2, rule, _weight, _one), rel=1e-12)
    radial = lambda r: np.cosh(r) * np.exp(1j * np.cosh(r))
    pointwise = lambda g: _cosh_r(g) * np.exp(1j * _cosh_r(g))
    exact = hl2_inner(F1, F2, rule, _weight, radial_symbol=radial)
    assert exact.imag != 0.0
    assert exact == pytest.approx(hl2_inner_pointwise(F1, F2, rule, _weight, pointwise), rel=1e-12)


def test_no_common_spin_gives_zero(rng):
    rule = _rule(3)
    F1, F2 = _random(rng, (0, 1)), _random(rng, (2, 3))
    assert hl2_inner(F1, F2, rule, _weight) == 0.0
    assert abs(hl2_inner_pointwise(F1, F2, rule, _weight, _one)) < 1e-12


def test_reads_no_K_node(rng):
    # two rules with one fiber grid; the spin-3/2 product aliases on the
    # k_two_jmax = 1 Haar rule, but the closed form does not see it
    F = _random(rng, (3,))
    coarse, fine = _rule(1), _rule(3)
    assert hl2_inner(F, F, coarse, _weight) == hl2_inner(F, F, fine, _weight)
    aliased = hl2_inner_pointwise(F, F, coarse, _weight, _one)
    assert abs(aliased - hl2_inner(F, F, fine, _weight)) > 1e-6 * abs(aliased)


def test_sphere_rule_drops_out(rng):
    # spin 3 needs degree 6 in the direction u, which the 3 x 3 sphere rule
    # does not integrate: a per-node Gram matrix aliases there, the scalar
    # lambda_j does not
    F = _random(rng, (1, 6))
    coarse = kc_quadrature(3.0, n_r=12, n_theta=3, n_phi=3)
    fine = kc_quadrature(3.0, n_r=12)
    value = hl2_inner(F, F, fine, _weight)
    assert hl2_inner(F, F, coarse, _weight) == pytest.approx(value, rel=1e-13)
    rec = adjoint_inversion_oracle(T, F, coarse, two_jmax=6)
    ref = adjoint_inversion_oracle(T, F, fine, two_jmax=6)
    assert set(rec.blocks) == set(ref.blocks) == {1, 6}
    for k, c in ref.blocks.items():
        np.testing.assert_allclose(rec.blocks[k], c, rtol=0, atol=1e-13 * np.max(np.abs(c)))


@pytest.mark.parametrize("sphere", [(20, 20), (1, 1)])
@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_unitarity_through_lambda(j, sphere):
    # at beta = 1 with the analytic N(t), lambda_j = e^{t j(j+1)} on [0, inf);
    # at t = 0.2 the Gaussian tail past the cutoff is below 1e-15.  Only the
    # sphere rule's total mass 4 pi enters, so one direction serves
    t = 0.2
    n_theta, n_phi = sphere
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=64, n_theta=n_theta, n_phi=n_phi)
    for m in np.arange(-j, j + 1):
        f = BandLimited.entry(j, m, -j)
        F = transform_C(t, f)
        lhs = hl2_inner(F, F, rule, lambda r: nu_radial(t, r)).real
        assert lhs == pytest.approx(f.norm_sq(), rel=1e-12)
