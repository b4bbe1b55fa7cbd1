import numpy as np
import pytest
from reference import (
    StepUnderflow,
    apply_complexified_word,
    apply_transpose_to_nu,
    degree,
    exp_complex,
    fd_radial_symbol_table,
    nu,
    phi_identity_symbol,
    transpose,
)

from su2quant.algebra import haar_rule, random_su2
from su2quant.diffop import LeftInvariantOperator, radial_symbol_table
from su2quant.transform import transform_C
from su2quant.wigner import BandLimited


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_identity_word_is_identity(rng):
    f = BandLimited({1: rng.standard_normal((2, 2))})
    out = LeftInvariantOperator.identity().apply(f)
    np.testing.assert_allclose(out.blocks[1], f.blocks[1])


def test_transpose_signs():
    x1 = LeftInvariantOperator.vector_field(1)
    assert transpose(x1).terms == [(-1.0 + 0j, (1,))]
    x12 = LeftInvariantOperator([(1.0, (1, 2))])
    assert transpose(x12).terms == [(1.0 + 0j, (2, 1))]


def test_transpose_involution(rng):
    a = LeftInvariantOperator([(0.3, (1, 2, 3)), (-1j, (2,)), (2.0, ())])
    back = transpose(transpose(a))
    assert back.terms == a.terms


def test_transpose_is_adjoint_by_parts(rng):
    # int (Af) h dx = int f (A^tr h) dx, the defining property
    rule = haar_rule(6)
    f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    h = BandLimited({2: rng.standard_normal((3, 3))})
    words = [(1,), (3,), (1, 2), (2, 3, 1), (3, 3)]
    for w in words:
        a = LeftInvariantOperator([(1.0, w)])
        lhs = rule.integrate(a.apply(f)(rule.nodes) * h(rule.nodes))
        rhs = rule.integrate(f(rule.nodes) * transpose(a).apply(h)(rule.nodes))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_transpose_adjoint_random_words(rng):
    rule = haar_rule(4)
    f = BandLimited({1: rng.standard_normal((2, 2))})
    h = BandLimited({1: rng.standard_normal((2, 2))})
    for _ in range(10):
        deg = rng.integers(1, 4)
        word = tuple(int(k) for k in rng.integers(1, 4, size=deg))
        a = LeftInvariantOperator([(1.0, word)])
        lhs = rule.integrate(a.apply(f)(rule.nodes) * h(rule.nodes))
        rhs = rule.integrate(f(rule.nodes) * transpose(a).apply(h)(rule.nodes))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_compose_and_degree(rng):
    # applying b, then a, is the operator of the concatenated word, whose
    # degree is the sum
    f = BandLimited({2: rng.standard_normal((3, 3))})
    a = LeftInvariantOperator([(2.0, (1,))])
    b = LeftInvariantOperator([(3.0, (2, 3))])
    ab = LeftInvariantOperator([(6.0, (1, 2, 3))])
    np.testing.assert_allclose(ab.apply(f).blocks[2], a.apply(b.apply(f)).blocks[2], rtol=0, atol=1e-12)
    assert degree(ab) == degree(a) + degree(b) == 3


def test_rejects_bad_indices():
    with pytest.raises(ValueError):
        LeftInvariantOperator([(1.0, (0,))])
    with pytest.raises(ValueError):
        LeftInvariantOperator([(1.0, (4,))])


def test_complexify_identity_and_casimir(rng):
    t = 0.5
    f = BandLimited({2: rng.standard_normal((3, 3))})
    F = transform_C(t, f)
    same = LeftInvariantOperator.identity().apply(F)
    np.testing.assert_allclose(same.blocks[2], F.blocks[2])
    lap = LeftInvariantOperator.laplacian().apply(F)
    np.testing.assert_allclose(lap.blocks[2], -2.0 * F.blocks[2], atol=1e-12)


def test_complexified_word_fd_vs_exact(rng):
    # holomorphic FD of the continued function matches coefficient action
    t = 0.5
    f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    F = transform_C(t, f)
    a = LeftInvariantOperator([(1.0, (3,)), (0.5, (1, 2))])
    aF = a.apply(F)
    pts = random_su2(rng, 20) @ exp_complex(1j * 0.4 * rng.standard_normal((20, 3)))
    for g in pts:
        fd = sum(
            c * apply_complexified_word(lambda x: complex(F(x)), g, w, 1e-3)
            for c, w in a.terms
        )
        assert abs(fd - complex(aF(g))) < 1e-6


def test_nu_numerator_identity_word():
    t = 0.6
    g = exp_complex(1j * np.array([0.2, -0.1, 0.4]))
    val = apply_transpose_to_nu(LeftInvariantOperator.identity(), t, g)
    assert val == pytest.approx(complex(nu(t, g)), rel=1e-12)


def test_single_field_symbol_imaginary_on_fiber():
    t = 0.5
    g = exp_complex(1j * np.array([0.0, 0.0, 0.9]))
    for k in (1, 2, 3):
        val = phi_identity_symbol(LeftInvariantOperator.vector_field(k), t, g)
        assert abs(val.real) < 1e-9


def test_laplacian_symbol_is_linear_in_r_squared():
    t = 0.5
    rr = np.linspace(0.05, 3.0, 25)
    vals = fd_radial_symbol_table(LeftInvariantOperator.laplacian(), t, rr)
    assert np.max(np.abs(vals.imag)) < 1e-10
    coef = np.polyfit(rr**2, vals.real, 1)
    resid = np.max(np.abs(np.polyval(coef, rr**2) - vals.real))
    assert resid < 1e-4


def test_radial_symbol_table_batch_matches_loop():
    t = 0.5
    rr = np.linspace(0.05, 3.0, 9)
    for a in (LeftInvariantOperator.laplacian(), LeftInvariantOperator.vector_field(3)):
        loop = [phi_identity_symbol(a, t, exp_complex(np.array([0.0, 0.0, 1j * r]))) for r in rr]
        np.testing.assert_allclose(fd_radial_symbol_table(a, t, rr), loop, rtol=1e-12, atol=0)


@pytest.mark.parametrize("t, tol", [(0.2, 2e-4), (0.5, 6e-6), (1.0, 4e-7), (2.0, 3e-8)])
def test_closed_form_laplacian_symbol_matches_finite_differences(t, tol):
    # the closed form against the finite-difference oracle on the fiber
    # exp(i r X_3); the oracle's O(h^4) error grows as t shrinks
    rr = np.linspace(0.0, 6.0, 61)
    exact = radial_symbol_table(t, rr)
    fd = fd_radial_symbol_table(LeftInvariantOperator.laplacian(), t, rr)
    assert np.max(np.abs(fd.imag)) < 1e-10
    assert np.max(np.abs(fd.real - exact) / np.maximum(np.abs(exact), 1.0)) < tol


def test_closed_form_laplacian_symbol_off_the_fiber(rng):
    # phi_{1,Delta} at x e^{iY} depends on |Y| alone
    t = 0.5
    y = rng.standard_normal((20, 3))
    y *= rng.uniform(0.0, 3.0, (20, 1)) / np.linalg.norm(y, axis=-1, keepdims=True)
    g = random_su2(rng, 20) @ exp_complex(1j * y)
    fd = phi_identity_symbol(LeftInvariantOperator.laplacian(), t, g)
    exact = radial_symbol_table(t, np.linalg.norm(y, axis=-1))
    assert np.max(np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0)) < 6e-6


def test_degree_cap_and_step_underflow():
    t = 0.5
    g = np.eye(2, dtype=complex)
    too_deep = LeftInvariantOperator([(1.0, (1, 1, 1, 1, 1))])
    with pytest.raises(ValueError):
        apply_transpose_to_nu(too_deep, t, g)
    with pytest.raises(StepUnderflow):
        apply_transpose_to_nu(LeftInvariantOperator.identity(), t, g, h=1e-8)
