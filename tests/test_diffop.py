import numpy as np
import pytest

from su2quant.algebra import exp_complex, haar_rule, random_su2
from su2quant.diffop import (
    LeftInvariantOperator,
    apply_complexified_word,
    apply_transpose_to_nu,
    complexify_apply,
    phi_identity_symbol,
    radial_symbol_table,
)
from su2quant.errors import StepUnderflow
from su2quant.heat import nu
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
    assert x1.transpose().terms == [(-1.0 + 0j, (1,))]
    x12 = LeftInvariantOperator([(1.0, (1, 2))])
    assert x12.transpose().terms == [(1.0 + 0j, (2, 1))]


def test_transpose_involution(rng):
    a = LeftInvariantOperator([(0.3, (1, 2, 3)), (-1j, (2,)), (2.0, ())])
    back = a.transpose().transpose()
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
        rhs = rule.integrate(f(rule.nodes) * a.transpose().apply(h)(rule.nodes))
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
        rhs = rule.integrate(f(rule.nodes) * a.transpose().apply(h)(rule.nodes))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_compose_and_degree(rng):
    # applying b, then a, is the operator of the concatenated word, whose
    # degree is the sum
    f = BandLimited({2: rng.standard_normal((3, 3))})
    a = LeftInvariantOperator([(2.0, (1,))])
    b = LeftInvariantOperator([(3.0, (2, 3))])
    ab = LeftInvariantOperator([(6.0, (1, 2, 3))])
    np.testing.assert_allclose(ab.apply(f).blocks[2], a.apply(b.apply(f)).blocks[2], rtol=0, atol=1e-12)
    assert ab.degree == a.degree + b.degree == 3


def test_rejects_bad_indices():
    with pytest.raises(ValueError):
        LeftInvariantOperator([(1.0, (0,))])
    with pytest.raises(ValueError):
        LeftInvariantOperator([(1.0, (4,))])


def test_complexify_identity_and_casimir(rng):
    t = 0.5
    f = BandLimited({2: rng.standard_normal((3, 3))})
    F = transform_C(t, f)
    same = complexify_apply(LeftInvariantOperator.identity(), F)
    np.testing.assert_allclose(same.blocks[2], F.blocks[2])
    lap = complexify_apply(LeftInvariantOperator.laplacian(), F)
    np.testing.assert_allclose(lap.blocks[2], -2.0 * F.blocks[2], atol=1e-12)


def test_complexified_word_fd_vs_exact(rng):
    # holomorphic FD of the continued function matches coefficient action
    t = 0.5
    f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    F = transform_C(t, f)
    a = LeftInvariantOperator([(1.0, (3,)), (0.5, (1, 2))])
    aF = complexify_apply(a, F)
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
    vals = radial_symbol_table(LeftInvariantOperator.laplacian(), t, rr)
    assert np.max(np.abs(vals.imag)) < 1e-10
    coef = np.polyfit(rr**2, vals.real, 1)
    resid = np.max(np.abs(np.polyval(coef, rr**2) - vals.real))
    assert resid < 1e-4


def test_radial_symbol_table_batch_matches_loop():
    t = 0.5
    rr = np.linspace(0.05, 3.0, 9)
    for a in (LeftInvariantOperator.laplacian(), LeftInvariantOperator.vector_field(3)):
        loop = [phi_identity_symbol(a, t, exp_complex(np.array([0.0, 0.0, 1j * r]))) for r in rr]
        np.testing.assert_allclose(radial_symbol_table(a, t, rr), loop, rtol=1e-12, atol=0)


def test_degree_cap_and_step_underflow():
    t = 0.5
    g = np.eye(2, dtype=complex)
    too_deep = LeftInvariantOperator([(1.0, (1, 1, 1, 1, 1))])
    with pytest.raises(ValueError):
        apply_transpose_to_nu(too_deep, t, g)
    with pytest.raises(StepUnderflow):
        apply_transpose_to_nu(LeftInvariantOperator.identity(), t, g, h=1e-8)
