import numpy as np
import pytest

from su2quant.algebra import default_cutoff, haar_rule, kc_quadrature
from su2quant.diffop import LeftInvariantOperator
from su2quant.errors import StatisticalFailure
from su2quant.heat import nu_radial
from su2quant.hl2 import hl2_inner
from su2quant.toeplitz import ToeplitzEstimate, ToeplitzSampler, check_convergence, schrodinger_entry
from su2quant.transform import transform_C
from su2quant.wigner import BandLimited, inner_product_K, wigner_matrix

T = 0.5
SEED = 321


@pytest.fixture(scope="module")
def sampler():
    # shared endpoint ensemble for every MC test in the module
    return ToeplitzSampler(T, 20000, 100, SEED)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def _f(m, mp):
    return BandLimited.entry(0.5, m, mp)


def test_schrodinger_entry_vs_quadrature(rng):
    rule = haar_rule(6)
    v = BandLimited({1: rng.standard_normal((2, 2))})
    a = LeftInvariantOperator([(1.0, (3,)), (0.5j, (1, 2))])
    f1 = BandLimited({1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))})
    f2 = BandLimited({2: rng.standard_normal((3, 3))})
    quad = rule.integrate(
        np.conj(f1(rule.nodes)) * v(rule.nodes) * a.apply(f2)(rule.nodes)
    )
    assert schrodinger_entry(v, a, f1, f2) == pytest.approx(quad, abs=1e-10)


def _node_tensors(smp, rule, tj1, tj2):
    """The per-block, per-node tensors M[n, q, a, b, c, d] = mean_w conj(D^{j1}(w x_q))_{ab} D^{j2}(w x_q)_{cd}.

    Formed from the moment matrix P by the blocks x nodes contraction the
    entries once used, on the nodes x_q of a Haar rule; kept here as the
    oracle of the W contraction.
    """
    dx1, dx2 = (wigner_matrix(tj / 2.0, rule.nodes) for tj in (tj1, tj2))
    d1, d2 = tj1 + 1, tj2 + 1
    p = smp.moment_tensors(tj1, tj2).reshape(smp.n_blocks, d1, d1, d2, d2)
    return np.einsum("naecf,qeb,qfd->nqabcd", p, np.conj(dx1), dx2, optimize=True)


def _node_block_values(smp, rule, vt, f1, f2):
    """Block values of the entry for (V~, f1, f2) with the x-integral on ``rule``."""
    xw = rule.weights * vt(rule.nodes)
    F1, F2 = transform_C(smp.t, f1), transform_C(smp.t, f2)
    return sum(
        np.einsum("q,ab,cd,nqabcd->n", xw, np.conj(c1), c2, _node_tensors(smp, rule, tj1, tj2))
        for tj1, c1 in F1.blocks.items()
        for tj2, c2 in F2.blocks.items()
    )


def test_moment_tensors_match_per_node_average():
    # the per-block moment matrix contracted with D(x_q) against the direct
    # mean over w of conj(D^{j1}(w x_q)) (x) D^{j2}(w x_q), node by node
    small = ToeplitzSampler(T, 400, 20, SEED)
    rule = haar_rule(4)
    for tj1, tj2 in ((1, 1), (1, 2), (2, 1), (0, 2)):
        d1, d2 = tj1 + 1, tj2 + 1
        assert small.moment_tensors(tj1, tj2).shape == (small.n_blocks, d1 * d1 * d2 * d2)
        got = _node_tensors(small, rule, tj1, tj2)
        for n, wb in enumerate(small.ensemble.block_views()):
            wx = wb[:, None] @ rule.nodes[None]
            ref = np.einsum(
                "wqab,wqcd->qabcd",
                np.conj(wigner_matrix(tj1 / 2.0, wx)),
                wigner_matrix(tj2 / 2.0, wx),
            ) / len(wb)
            np.testing.assert_allclose(got[n], ref, rtol=0, atol=1e-13)


def test_entry_contraction_matches_node_tensor_einsum():
    # block values from P @ W against the blocks x nodes einsum over the
    # node tensors, for random coefficients mixing spins 0, 1/2 and 1; the
    # values reach some hundreds, so the bound is relative to the largest
    smp = ToeplitzSampler(T, 400, 20, SEED)
    rule = haar_rule(4)
    rng = np.random.default_rng(11)

    def rand(spins):
        return BandLimited({
            tj: rng.standard_normal((tj + 1, tj + 1)) + 1j * rng.standard_normal((tj + 1, tj + 1))
            for tj in spins
        })

    for vt, f1, f2 in (
        (rand((0, 2)), rand((1,)), rand((1,))),
        (rand((1,)), rand((0, 1)), rand((2,))),
        (rand((0,)), rand((0, 2)), rand((0, 1))),
    ):
        est = smp.entry(vt, f1, f2)
        ref = _node_block_values(smp, rule, vt, f1, f2)
        np.testing.assert_allclose(est.block_values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_entry_exact_in_x_past_total_spin_two(sampler):
    # chi_3/2 between a spin-1/2 and a spin-1 entry reaches total spin 3; the
    # per-node oracle needs a Haar rule exact to that spin
    vt = BandLimited.character_fn(1.5)
    f1, f2 = _f(0.5, 0.5), BandLimited.entry(1, 1, 1)
    est = sampler.entry(vt, f1, f2)
    ref = _node_block_values(sampler, haar_rule(6), vt, f1, f2)
    np.testing.assert_allclose(est.block_values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("j_v", [0.5, 1.5])
def test_selection_rule_zero_is_exactly_zero(sampler, j_v):
    # spin 1/2 (x) spin 1/2 holds only spins 0 and 1, so a half-integer
    # character has no weak entry between spin-1/2 entries
    est = sampler.entry(BandLimited.character_fn(j_v), _f(0.5, 0.5), _f(-0.5, 0.5))
    assert np.all(est.block_values == 0.0)
    assert est.stderr == 0.0


def test_samplers_for_times_equal_separate_samplers():
    ts = (0.5, 1.0)
    shared = ToeplitzSampler.for_times(ts, 2000, 30, SEED, workers=2)
    f1, f2 = _f(0.5, 0.5), _f(0.5, -0.5)
    vt = BandLimited.character_fn(1.0)
    for t, smp in zip(ts, shared):
        alone = ToeplitzSampler(t, 2000, 30, SEED)
        assert smp.t == t
        np.testing.assert_array_equal(smp.ensemble.values, alone.ensemble.values)
        np.testing.assert_array_equal(
            smp.entry(vt, f1, f2).block_values, alone.entry(vt, f1, f2).block_values
        )


def test_constant_symbol_gives_inner_product(sampler):
    # V~ = 1 makes the Toeplitz operator the identity on the range
    f1, f2 = _f(0.5, 0.5), _f(0.5, -0.5)
    one = BandLimited.constant(1.0)
    for a, b in ((f1, f1), (f1, f2)):
        est = sampler.entry(one, a, b)
        exact = inner_product_K(a, b)
        assert abs(est.value - exact) < 3.0 * est.stderr + 1e-10


def test_mult_entries_match_schrodinger(sampler):
    # chi_1 couples spin-1/2 entries with m1 - m2 = m1' - m2' (chi_1/2 couples none)
    vt = BandLimited.character_fn(1.0)
    v = vt.heat(T / 2.0, sign=-1.0)
    ident = LeftInvariantOperator.identity()
    for f1, f2 in ((_f(0.5, 0.5), _f(0.5, 0.5)), (_f(0.5, 0.5), _f(-0.5, -0.5))):
        est = sampler.entry(vt, f1, f2)
        exact = schrodinger_entry(v, ident, f1, f2)
        assert abs(est.value - exact) < 3.0 * est.stderr + 1e-10


def test_entry_linear_in_symbol(sampler):
    f1, f2 = _f(0.5, 0.5), _f(0.5, 0.5)
    va = BandLimited.constant(1.0)
    vb = BandLimited.character_fn(1.0)
    ea = sampler.entry(va, f1, f2)
    eb = sampler.entry(vb, f1, f2)
    combo = sampler.entry(2.0 * va + vb, f1, f2)
    assert combo.value == pytest.approx(2.0 * ea.value + eb.value, abs=1e-12)


def test_entry_hermitian_for_real_symbol(sampler):
    # same w-samples on both sides, so the symmetry is exact
    vt = BandLimited.character_fn(1.0)
    f1, f2 = _f(0.5, 0.5), _f(-0.5, 0.5)
    ab = sampler.entry(vt, f1, f2)
    ba = sampler.entry(vt, f2, f1)
    assert ab.value == pytest.approx(np.conj(ba.value), abs=1e-12)


def test_zero_symbol_is_exactly_zero(sampler):
    z = BandLimited.constant(0.0)
    est = sampler.entry(z, _f(0.5, 0.5), _f(0.5, 0.5))
    assert est.value == 0.0
    assert est.stderr == 0.0
    check_convergence(est)  # s1 == 0 branch must not raise


def test_diff_identity_reduces_to_mult(sampler):
    vt = BandLimited.character_fn(1.0)
    f1, f2 = _f(0.5, 0.5), _f(-0.5, -0.5)
    plain = sampler.entry(vt, f1, f2)
    via_op = sampler.entry(vt, f1, f2, a=LeftInvariantOperator.identity())
    assert via_op.value == pytest.approx(plain.value, abs=1e-12)


def test_diff_entry_matches_schrodinger(sampler):
    a = LeftInvariantOperator.vector_field(3)
    vt = BandLimited.character_fn(1.0)
    v = vt.heat(T / 2.0, sign=-1.0)
    f1, f2 = _f(0.5, 0.5), _f(0.5, 0.5)
    est = sampler.entry(vt, f1, f2, a=a)
    exact = schrodinger_entry(v, a, f1, f2)
    assert abs(est.value - exact) < 3.0 * est.stderr + 1e-10


def test_seed_and_worker_invariance():
    f1, f2 = _f(0.5, 0.5), _f(0.5, -0.5)
    vt = BandLimited.character_fn(1.0)
    s1 = ToeplitzSampler(T, 4000, 50, SEED, workers=1)
    s2 = ToeplitzSampler(T, 4000, 50, SEED, workers=3)
    e1 = s1.entry(vt, f1, f2)
    e2 = s2.entry(vt, f1, f2)
    assert e1.value == e2.value
    np.testing.assert_array_equal(e1.block_values, e2.block_values)
    e3 = ToeplitzSampler(T, 4000, 50, SEED + 1).entry(vt, f1, f2)
    assert e3.value != e1.value


def test_convergence_check(sampler):
    est = sampler.entry(BandLimited.character_fn(1.0), _f(0.5, 0.5), _f(0.5, 0.5))
    check_convergence(est)  # should pass at 20k paths over 40 blocks
    few = ToeplitzEstimate(value=0.0, stderr=1.0, block_values=np.ones(4, dtype=complex))
    with pytest.raises(StatisticalFailure):
        check_convergence(few)
    rigged = ToeplitzEstimate(
        value=0.0, stderr=1.0,
        block_values=np.concatenate([np.zeros(20), np.ones(20)]).astype(complex),
    )
    with pytest.raises(StatisticalFailure):
        check_convergence(rigged)


def _quadrature_entry(symbol, f1, f2):
    """<C_t f1, T_phi C_t f2> for a radial symbol phi by polar quadrature, as the Laplacian gate takes it."""
    rule = kc_quadrature(default_cutoff(T) + 1.5, n_r=64)
    return hl2_inner(transform_C(T, f1), transform_C(T, f2), rule, lambda r: nu_radial(T, r),
                     radial_symbol=symbol)


def test_quadrature_route_identity_symbol():
    f1, f2 = _f(0.5, 0.5), _f(0.5, -0.5)
    assert _quadrature_entry(None, f1, f2) == pytest.approx(inner_product_K(f1, f2), abs=1e-8)
    assert _quadrature_entry(None, f1, f1).real == pytest.approx(f1.norm_sq(), rel=1e-8)


def test_quadrature_radial_symbol_constant_matches():
    f = _f(0.5, 0.5)
    base = _quadrature_entry(None, f, f)
    scaled = _quadrature_entry(lambda r: 2.0 * np.ones_like(r), f, f)
    assert scaled == pytest.approx(2.0 * base, rel=1e-10)


def test_sup_K_known_values():
    # the coefficient bound is attained at the identity for these symbols
    assert BandLimited.constant(3.0).sup_bound_K() == 3.0
    assert BandLimited.character_fn(0.5).sup_bound_K() == 2.0
    assert BandLimited.character_fn(1.0).sup_bound_K() == 3.0


def test_boundedness(sampler):
    # |<F, T_{phi_V} F>| <= sup|V~| ||f||^2 + 3 stderr: |phi_V| <= sup|V~| by
    # the unit mass of the subelliptic kernel
    vt, f = BandLimited.character_fn(0.5), _f(0.5, 0.5)
    est = sampler.entry(vt, f, f)
    sup_v = vt.sup_bound_K()
    assert sup_v == 2.0
    assert abs(est.value) <= sup_v * f.norm_sq() + 3.0 * est.stderr
