from math import factorial

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from reference import (
    block_moments_per_power,
    euclid_toeplitz_check_per_symbol,
    flat_weak_mc_per_symbol,
    heat_polynomial_per_term,
    hl2_flat_inner_per_symbol,
    l2_inner_per_symbol,
)

from su2quant.euclid import (
    MAX_DEGREE,
    GaussPoly,
    HermiteExpansion,
    _block_moments,
    _symbol_stack,
    euclid_toeplitz_check,
    euclid_transform,
    flat_weak_mc,
    heat_evolve,
    heat_polynomial,
    hl2_flat_inner,
    l2_inner,
)


def test_gauss_poly_validation():
    with pytest.raises(ValueError):
        GaussPoly(np.ones(1), -1.0)
    with pytest.raises(ValueError):
        GaussPoly(np.ones(30), 1.0)
    g = GaussPoly([1.0, 0.0, 0.0], 1.0)
    assert g.degree == 0  # trailing zeros trimmed


def test_hermite_functions_match_herm2poly():
    # the integer recurrence of to_gauss_poly gives herm2poly's coefficients bit for bit
    for n in range(MAX_DEGREE + 1):
        got = HermiteExpansion(np.eye(n + 1)[n]).to_gauss_poly().coeffs
        norm = 1.0 / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
        assert np.array_equal(got, norm * np.polynomial.hermite.herm2poly(np.eye(n + 1)[n]))


def test_heat_evolve_pure_gaussian():
    # e^{t Delta/2} on e^{-x^2/2}: width 1 -> 1 + t, amplitude sqrt(1/(1+t))
    g = GaussPoly([1.0], 1.0)
    out = heat_evolve(g, 0.7)
    assert out.width == pytest.approx(1.7)
    assert out.coeffs[0] == pytest.approx(np.sqrt(1.0 / 1.7))
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(
        out(x), np.sqrt(1.0 / 1.7) * np.exp(-(x**2) / (2 * 1.7))
    )


def test_heat_evolve_matches_convolution():
    # brute-force convolution with the variance-t kernel on a grid
    t = 0.4
    f = GaussPoly([0.5, -1.0, 0.0, 2.0], 1.0)
    out = heat_evolve(f, t)
    x = np.linspace(-2, 2, 9)
    u = np.linspace(-12, 12, 6001)
    du = u[1] - u[0]
    kern = np.exp(-((x[:, None] - u[None, :]) ** 2) / (2 * t)) / np.sqrt(
        2 * np.pi * t
    )
    conv = kern @ f(u).real * du
    np.testing.assert_allclose(out(x).real, conv, atol=1e-10)


def test_heat_evolve_semigroup():
    f = GaussPoly([1.0, 0.3, -0.2], 1.0)
    a = heat_evolve(heat_evolve(f, 0.3), 0.5)
    b = heat_evolve(f, 0.8)
    assert a.width == pytest.approx(b.width)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-13)


def test_heat_polynomial_quadratic():
    # e^{a d^2/dx^2} x^2 = x^2 + 2a
    out = heat_polynomial(np.array([0.0, 0.0, 1.0]), 0.25)
    np.testing.assert_allclose(out.real, [0.5, 0.0, 1.0])


def test_hermite_expansion_norm_and_cap():
    f = HermiteExpansion([3.0, 4.0])
    assert f.norm_sq() == pytest.approx(25.0)
    with pytest.raises(ValueError):
        HermiteExpansion(np.ones(30))
    # h_0 normalization: int h_0^2 = 1
    g = HermiteExpansion([1.0]).to_gauss_poly()
    assert l2_inner(g, g).real == pytest.approx(1.0, rel=1e-12)


def test_transform_unitarity():
    t = 0.6
    f = HermiteExpansion([1.0, -0.5, 0.3, 0.0, 0.2])
    F = euclid_transform(t, f)
    assert hl2_flat_inner(F, F, t).real == pytest.approx(f.norm_sq(), rel=1e-10)
    with pytest.raises(ValueError):
        euclid_transform(0.0, f)


def test_transform_parseval_polarized():
    t = 0.3
    f1 = HermiteExpansion([1.0, 2.0, 0.0, 1.0])
    f2 = HermiteExpansion([0.0, 1.0, -1.0])
    g1, g2 = f1.to_gauss_poly(), f2.to_gauss_poly()
    lhs = l2_inner(g1, g2)
    rhs = hl2_flat_inner(euclid_transform(t, f1), euclid_transform(t, f2), t)
    assert rhs == pytest.approx(lhs, abs=1e-10)


def test_flat_inner_width_checks():
    t = 0.5
    F1 = heat_evolve(GaussPoly([1.0], 1.0), t)
    F2 = heat_evolve(GaussPoly([1.0], 2.0), t)
    with pytest.raises(ValueError):
        hl2_flat_inner(F1, F2, t)
    narrow = GaussPoly([1.0], 0.3)
    with pytest.raises(ValueError):
        hl2_flat_inner(narrow, narrow, t)


def test_odd_symbol_parity_zero():
    # <h_0, x h_0> vanishes by parity on both sides
    t = 0.4
    f = HermiteExpansion([1.0])
    g = f.to_gauss_poly()
    sym = np.array([0.0, 1.0])
    assert abs(l2_inner(g, g, heat_polynomial(sym, t / 4.0))) < 1e-14
    F = euclid_transform(t, f)
    assert abs(hl2_flat_inner(F, F, t, sym)) < 1e-14


def test_flat_weak_mc_determinism():
    t = 0.5
    F = heat_evolve(HermiteExpansion([1.0, 0.5]).to_gauss_poly(), t)
    sym = np.array([0.0, 0.0, 1.0])
    [(v1, e1)] = flat_weak_mc(t, [sym], F, F, 4000, 77)
    [(v2, e2)] = flat_weak_mc(t, [sym], F, F, 4000, 77)
    assert v1 == v2 and e1 == e2
    [(v3, _)] = flat_weak_mc(t, [sym], F, F, 4000, 78)
    assert v3 != v1


def test_flat_weak_mc_shared_draw_equals_separate_draws():
    # one draw of the endpoints serves every symbol, bitwise as one call each
    t = 0.4
    F1 = euclid_transform(t, HermiteExpansion([1.0, 0.5, 0.0, 0.2]))
    F2 = euclid_transform(t, HermiteExpansion([0.3, -0.2, 0.7]))
    symbols = [np.eye(deg + 1)[deg] for deg in range(7)]
    shared = flat_weak_mc(t, symbols, F1, F2, 2000, 92)
    assert shared == [flat_weak_mc(t, [sym], F1, F2, 2000, 92)[0] for sym in symbols]


@pytest.mark.parametrize("n_samples", [100000, 99999, 12345])
def test_block_moments_equal_per_power_means(n_samples):
    # one power table and one row mean per block, bitwise as one np.mean per power
    t = 0.4
    got = _block_moments(t, 1.0 + t, 6, n_samples, 2026)
    assert np.array_equal(got, block_moments_per_power(t, 1.0 + t, 6, n_samples, 2026))


# the stacked forms sum in another order than the per-symbol ones; measured at
# most 17 ulps of each value (the 60 x 60 grid of hl2_flat_inner), bound at 32
ULPS = 32 * np.finfo(float).eps
EUCLID_SYMBOLS = [np.eye(deg + 1)[deg] for deg in range(7)]
EUCLID_F1 = HermiteExpansion([1.0, 0.5, 0.0, 0.2])
EUCLID_F2 = HermiteExpansion([0.3, -0.2, 0.7])


def test_stacked_integrals_match_per_symbol_reference():
    t = 0.4
    F1, F2 = euclid_transform(t, EUCLID_F1), euclid_transform(t, EUCLID_F2)
    g1, g2 = EUCLID_F1.to_gauss_poly(), EUCLID_F2.to_gauss_poly()
    stack = _symbol_stack(EUCLID_SYMBOLS)
    heated = heat_polynomial(stack, t / 4.0)
    lhs = l2_inner(g1, g2, heated)
    rhs = hl2_flat_inner(F1, F2, t, stack)
    mcs = flat_weak_mc(t, EUCLID_SYMBOLS, F1, F2, 20000, 99)
    ref_mcs = flat_weak_mc_per_symbol(t, EUCLID_SYMBOLS, F1, F2, 20000, 99)
    for deg, sym in enumerate(EUCLID_SYMBOLS):
        assert np.array_equal(heated[deg, : deg + 1], heat_polynomial_per_term(sym, t / 4.0))
        ref_lhs = l2_inner_per_symbol(g1, g2, heat_polynomial_per_term(sym, t / 4.0))
        ref_rhs = hl2_flat_inner_per_symbol(F1, F2, t, sym)
        assert abs(lhs[deg] - ref_lhs) <= ULPS * abs(ref_lhs)
        assert abs(rhs[deg] - ref_rhs) <= ULPS * abs(ref_rhs)
        (value, err), (ref_value, ref_err) = mcs[deg], ref_mcs[deg]
        assert abs(value - ref_value) <= ULPS * abs(ref_value)
        assert abs(err - ref_err) <= ULPS * abs(ref_value)


def test_euclid_check_matches_per_symbol_reference():
    # each report field within 32 ulps of the scale it is computed at: the
    # gap at |lhs|, the stderr at the block means, z at (|mc| + |lhs|) / stderr
    t = 0.4
    got = euclid_toeplitz_check(t, EUCLID_SYMBOLS, EUCLID_F1, EUCLID_F2, 40000, 99)
    ref = euclid_toeplitz_check_per_symbol(t, EUCLID_SYMBOLS, EUCLID_F1, EUCLID_F2, 40000, 99)
    g1, g2 = EUCLID_F1.to_gauss_poly(), EUCLID_F2.to_gauss_poly()
    F1, F2 = euclid_transform(t, EUCLID_F1), euclid_transform(t, EUCLID_F2)
    mcs = flat_weak_mc_per_symbol(t, EUCLID_SYMBOLS, F1, F2, 40000, 99)
    assert len(got) == len(ref) == 7
    for sym, rep, want, (mc, _) in zip(EUCLID_SYMBOLS, got, ref, mcs):
        scale = abs(l2_inner_per_symbol(g1, g2, heat_polynomial_per_term(sym, t / 4.0)))
        assert abs(rep.deterministic_gap - want.deterministic_gap) <= 2 * ULPS * scale
        assert abs(rep.mc_stderr - want.mc_stderr) <= ULPS * abs(mc)
        assert abs(rep.mc_z_score - want.mc_z_score) <= 2 * ULPS * (abs(mc) + scale) / want.mc_stderr


def _flat_weak_mc_per_node(t, sym_coeffs, F1, F2, n_samples, master_seed, n_blocks=40, n_x=60):
    """flat_weak_mc with the x-rule applied to every sampled eta."""
    a = F1.width
    u, wu = np.polynomial.hermite.hermgauss(n_x)
    x = np.sqrt(a) * u
    poly_w = np.sqrt(a) * wu * P.polyval(x, np.asarray(sym_coeffs, dtype=complex))
    block_vals = np.empty(n_blocks, dtype=complex)
    sizes = [len(ix) for ix in np.array_split(np.arange(n_samples), n_blocks)]
    for b in range(n_blocks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(b,)))
        eta = rng.normal(0.0, np.sqrt(t / 2.0), size=sizes[b])
        z = x[None, :] + 1j * eta[:, None]
        vals = (
            P.polyval(np.conj(z), np.conj(F1.coeffs))
            * P.polyval(z, F2.coeffs)
            * np.exp(eta[:, None] ** 2 / a)
        )
        block_vals[b] = np.mean(vals @ poly_w)
    var = np.var(block_vals.real, ddof=1) + np.var(block_vals.imag, ddof=1)
    return complex(np.mean(block_vals)), float(np.sqrt(var / n_blocks))


@pytest.mark.parametrize("deg", range(7))
def test_flat_weak_mc_matches_per_node_rule(deg):
    t = 0.4
    sym = np.zeros(deg + 1)
    sym[deg] = 1.0
    F1 = euclid_transform(t, HermiteExpansion([1.0, 0.5, 0.0, 0.2]))
    F2 = euclid_transform(t, HermiteExpansion([0.3, -0.2, 0.7]))
    [(value, err)] = flat_weak_mc(t, [sym], F1, F2, 2000, 92)
    ref_value, ref_err = _flat_weak_mc_per_node(t, sym, F1, F2, 2000, 92)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert err == pytest.approx(ref_err, rel=1e-12)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 4])
def test_toeplitz_identity_by_degree(deg):
    t = 0.4
    sym = np.zeros(deg + 1)
    sym[deg] = 1.0
    [rep] = euclid_toeplitz_check(
        t, [sym],
        HermiteExpansion([1.0, 0.5, 0.0, 0.2]),
        HermiteExpansion([0.3, -0.2, 0.7]),
        n_samples=40000, master_seed=99,
    )
    assert rep.deterministic_gap < 1e-10
    assert rep.mc_z_score < 3.0


def test_symbol_degree_cap():
    with pytest.raises(ValueError):
        euclid_toeplitz_check(
            0.4, [np.ones(2), np.ones(8)], HermiteExpansion([1.0]), HermiteExpansion([1.0]),
            n_samples=4000, master_seed=99,
        )
