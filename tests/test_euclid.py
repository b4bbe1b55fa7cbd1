import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from su2quant.euclid import (
    GaussPoly,
    HermiteExpansion,
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
