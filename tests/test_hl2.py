import numpy as np
import pytest

from su2quant.algebra import kc_quadrature
from su2quant.heat import nu_radial
from su2quant.hl2 import hl2_inner, hl2_inner_pointwise
from su2quant.toeplitz import toeplitz_entry_quadrature
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


def test_quadrature_entry_pointwise_branch(rng):
    # the non-radial branch of toeplitz_entry_quadrature with phi = 1
    rule = _rule(2)
    f1, f2 = _random(rng, (1, 2)), _random(rng, (0, 1, 2))
    base = toeplitz_entry_quadrature(T, None, f1, f2, rule).value
    assert toeplitz_entry_quadrature(T, _one, f1, f2, rule).value == pytest.approx(base, rel=1e-12)
