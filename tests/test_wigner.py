import numpy as np
import pytest
from reference import exp_complex, project_onto_entries

from su2quant.algebra import VOL_K, exp_algebra, haar_rule, random_su2
from su2quant.wigner import (
    BandLimited,
    casimir_eigenvalue,
    cg_table,
    character,
    generator_matrix,
    inner_product_K,
    triple_integral_K,
    two_j_of,
    wigner_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_two_j_of_validates():
    assert two_j_of(1.5) == 3
    with pytest.raises(ValueError):
        two_j_of(0.3)
    with pytest.raises(ValueError):
        two_j_of(13)


def test_casimir_values():
    assert casimir_eigenvalue(0.5) == pytest.approx(0.75)
    assert casimir_eigenvalue(1) == pytest.approx(2.0)
    assert casimir_eigenvalue(1.5) == pytest.approx(3.75)
    # a spin is parsed as two_j_of parses it: 0.3 once read as 1/2, -1 as 0
    for bad in (0.3, -1, 12.5):
        with pytest.raises(ValueError):
            casimir_eigenvalue(bad)


def test_spin_half_is_defining_rep(rng):
    g = random_su2(rng, 7)
    np.testing.assert_allclose(wigner_matrix(0.5, g), g)


def test_homomorphism_property(rng):
    g = random_su2(rng, 5)
    h = random_su2(rng, 5)
    for j in (1.0, 1.5, 2.0):
        lhs = wigner_matrix(j, g @ h)
        rhs = wigner_matrix(j, g) @ wigner_matrix(j, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_homomorphism_on_complexification(rng):
    g = random_su2(rng, 4) @ exp_complex(1j * 0.6 * rng.standard_normal((4, 3)))
    h = exp_complex(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    for j in (0.5, 1.5):
        lhs = wigner_matrix(j, g @ h)
        rhs = wigner_matrix(j, g) @ wigner_matrix(j, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_unitarity_on_K(rng):
    g = random_su2(rng, 6)
    for j in (1.0, 2.5):
        d = wigner_matrix(j, g)
        eye = np.broadcast_to(np.eye(int(2 * j + 1)), d.shape)
        np.testing.assert_allclose(d @ np.conj(np.swapaxes(d, -1, -2)), eye, atol=1e-12)


def test_wigner_entry_index_checks(rng):
    g = random_su2(rng)
    with pytest.raises(IndexError):
        BandLimited.entry(0.5, 0.0, 0.5)  # no m = 0 at half-integer spin
    with pytest.raises(IndexError):
        BandLimited.entry(1.0, 2.0, 0.0)
    with pytest.raises(IndexError):
        BandLimited.entry(0.5, 1.5, 0.5)  # row -1 would wrap to the last row
    with pytest.raises(IndexError):
        BandLimited.entry(1, 0.5, 0)  # j - m not an integer
    assert BandLimited.entry(0.5, 0.5, 0.5)(g) == pytest.approx(g[0, 0])
    assert BandLimited.entry(0.5, -0.5, 0.5)(g) == pytest.approx(g[1, 0])


def test_character_diagonal_closed_form():
    theta = 0.7
    g = exp_algebra(np.array([0.0, 0.0, theta]))
    for j in (0.5, 1.0, 1.5, 2.0):
        # chi_j(e^{theta X3}) = sin((2j+1) theta/2) / sin(theta/2)
        expect = np.sin((2 * j + 1) * theta / 2.0) / np.sin(theta / 2.0)
        assert character(j, g).real == pytest.approx(expect, rel=1e-12)


def test_character_at_identity_and_minus_identity():
    e = np.eye(2, dtype=complex)
    for j in (0.5, 1.0, 4.0, 15.0):
        assert character(j, e).real == pytest.approx(2 * j + 1)
    assert character(0.5, -e).real == pytest.approx(-2.0)
    assert character(1.0, -e).real == pytest.approx(3.0)


def test_character_matches_trace_on_complexification(rng):
    g = random_su2(rng, 8) @ exp_complex(1j * 0.5 * rng.standard_normal((8, 3)))
    for j in (0.5, 1.0, 2.0):
        tr = np.einsum("...aa->...", wigner_matrix(j, g))
        np.testing.assert_allclose(character(j, g), tr, atol=1e-12)
    # far out in SL(2,C), |Y| around 8-15, relative to max(|tr|, 1)
    g = random_su2(rng, 2000) @ exp_complex(5j * rng.standard_normal((2000, 3)))
    for j in (0.5, 1.0, 1.5):
        tr = np.einsum("...aa->...", wigner_matrix(j, g))
        assert np.max(np.abs(character(j, g) - tr) / np.maximum(np.abs(tr), 1.0)) < 1e-10


def test_generator_matrices_represent_brackets():
    # [dpi(X1), dpi(X2)] = dpi([X1, X2]) = dpi(X3) and cyclic
    for two_j in (1, 2, 3, 4):
        m = [generator_matrix(two_j, k) for k in (1, 2, 3)]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = m[a] @ m[b] - m[b] @ m[a]
            np.testing.assert_allclose(comm, m[c], atol=1e-12)


def test_generator_matches_finite_difference(rng):
    x = random_su2(rng, 10)
    f = BandLimited({3: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))})
    h = 1e-6
    for k in (1, 2, 3):
        e = np.zeros(3)
        e[k - 1] = 1.0
        fd = (f(x @ exp_algebra(h * e)) - f(x @ exp_algebra(-h * e))) / (2 * h)
        np.testing.assert_allclose(f.apply_generator(k)(x), fd, atol=1e-8)


def test_casimir_action_on_blocks(rng):
    f = BandLimited({2: rng.standard_normal((3, 3))})
    lap = f.apply_word((1, 1)) + f.apply_word((2, 2)) + f.apply_word((3, 3))
    np.testing.assert_allclose(lap.blocks[2], -2.0 * f.blocks[2], atol=1e-12)


def _cg(j1, j2, j, m1, m2):
    """<j1 m1; j2 m2 | j (m1+m2)> read from cg_table, whose rows run m = j ... -j."""
    table = cg_table(int(2 * j1), int(2 * j2), int(2 * j))
    return table[int(j1 - m1), int(j2 - m2), int(j - m1 - m2)]


def test_clebsch_gordan_known_values():
    assert _cg(0.5, 0.5, 1, 0.5, 0.5) == pytest.approx(1.0)
    assert _cg(0.5, 0.5, 1, 0.5, -0.5) == pytest.approx(np.sqrt(0.5))
    assert _cg(0.5, 0.5, 0, 0.5, -0.5) == pytest.approx(np.sqrt(0.5))
    assert _cg(0.5, 0.5, 0, -0.5, 0.5) == pytest.approx(-np.sqrt(0.5))
    assert _cg(1, 1, 2, 1, 1) == pytest.approx(1.0)
    assert _cg(1, 0.5, 0.5, 0, 0.5) == pytest.approx(-np.sqrt(1.0 / 3.0))


def test_clebsch_gordan_orthogonality():
    # sum_J <j1 m1; j2 m2|J M><j1 m1'; j2 m2'|J M> = delta
    j1, j2 = 1.0, 1.5
    for m1, m2 in ((1.0, 0.5), (0.0, -0.5)):
        total = sum(
            _cg(j1, j2, J, m1, m2) ** 2
            for J in (0.5, 1.5, 2.5)
        )
        assert total == pytest.approx(1.0, rel=1e-12)


def test_multiply_matches_pointwise(rng):
    x = random_su2(rng, 30)
    f = BandLimited({1: rng.standard_normal((2, 2))})
    g = BandLimited({2: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))})
    np.testing.assert_allclose(f.multiply(g)(x), f(x) * g(x), atol=1e-12)


@pytest.mark.parametrize(
    "tj1, tj2, rule_two_j",
    [(1, 2, 8), (4, 3, 14)],
    ids=["spin1/2-x-spin1", "dense-spin2-x-spin3/2"],
)
def test_multiply_matches_projection_oracle(rng, tj1, tj2, rule_two_j):
    # the rule integrates f g conj(D^J) exactly up to J = j1 + j2
    rule = haar_rule(rule_two_j)
    f = BandLimited({tj1: rng.standard_normal((tj1 + 1, tj1 + 1))})
    g = BandLimited({tj2: rng.standard_normal((tj2 + 1, tj2 + 1))})
    prod = f.multiply(g)
    proj = project_onto_entries(f(rule.nodes) * g(rule.nodes), rule, tj1 + tj2)
    for two_j in range(tj1 + tj2 + 1):
        a = prod.blocks.get(two_j, np.zeros((two_j + 1, two_j + 1)))
        b = proj.blocks.get(two_j, np.zeros((two_j + 1, two_j + 1)))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_multiply_past_spin_cap_raises():
    with pytest.raises(ValueError, match="spin cutoff"):
        BandLimited.entry(12, 12, 12).multiply(BandLimited.entry(0.5, 0.5, 0.5))


@pytest.mark.parametrize("tj_v", range(4))
@pytest.mark.parametrize("tj2", range(4))
@pytest.mark.parametrize("tj1", range(4))
def test_triple_integral_matches_haar_rule(tj1, tj2, tj_v):
    # int_K v conj(D^{j1}_{eb}) D^{j2}_{fd} dx against a rule exact to the
    # total spin; entries reach some hundreds, so the bound is relative to
    # the largest
    rng = np.random.default_rng(100 * tj1 + 10 * tj2 + tj_v)
    v = BandLimited({tj_v: rng.standard_normal((tj_v + 1,) * 2) + 1j * rng.standard_normal((tj_v + 1,) * 2)})
    rule = haar_rule(tj1 + tj2 + tj_v)
    d1 = np.conj(wigner_matrix(tj1 / 2.0, rule.nodes))
    d2 = wigner_matrix(tj2 / 2.0, rule.nodes)
    ref = np.einsum("q,qeb,qfd->ebfd", rule.weights * v(rule.nodes), d1, d2)
    np.testing.assert_allclose(
        triple_integral_K(v, tj1, tj2), ref, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(ref)))
    )


def test_norm_and_inner_product_vs_quadrature(rng):
    rule = haar_rule(4)
    f = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    g = BandLimited({1: rng.standard_normal((2, 2)), 2: rng.standard_normal((3, 3))})
    quad = rule.integrate(np.conj(f(rule.nodes)) * g(rule.nodes))
    assert inner_product_K(f, g) == pytest.approx(quad, abs=1e-10)
    quad_norm = rule.integrate(np.abs(f(rule.nodes)) ** 2).real
    assert f.norm_sq() == pytest.approx(quad_norm, rel=1e-12)


def test_entry_norm_schur():
    f = BandLimited.entry(0.5, 0.5, 0.5)
    assert f.norm_sq() == pytest.approx(VOL_K / 2.0)


def test_sup_bound(rng):
    f = BandLimited.character_fn(1.0)
    x = random_su2(rng, 200)
    assert np.max(np.abs(f(x))) <= f.sup_bound_K() + 1e-12
