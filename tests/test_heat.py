import numpy as np
import pytest
from conftest import traced_peak_mb
from reference import calibrate_nu_per_step, exp_complex, nu, polar_radius, unitarity_residual

from su2quant.algebra import (
    BLOCK_ELEMENTS,
    DEFAULT_N_R,
    VOL_K,
    default_cutoff,
    haar_rule,
    kc_quadrature,
    random_su2,
    weyl_rule,
)
from su2quant.errors import TruncationError
from su2quant.heat import (
    HeatKernelK,
    bracketed_root,
    calibrate_nu,
    choose_two_jmax,
    convolve_on_traces,
    nu_normalization,
    nu_radial,
    rho_tail_bound,
    semigroup_sup_error,
)
from su2quant.wigner import BandLimited, character, characters


def test_rho_mass_one():
    rule = haar_rule(30)
    kern = HeatKernelK.build(0.5, tol=1e-12)
    vals = kern.on_traces(np.einsum("qaa->q", rule.nodes).real)
    assert rule.integrate(vals) == pytest.approx(1.0, abs=1e-10)


def test_rho_positive_on_K():
    # positivity holds up to the truncation certificate; far from the
    # identity the kernel is smaller than any attainable tail bound
    rng = np.random.default_rng(0)
    kern = HeatKernelK.build(0.3, tol=1e-12)
    vals = kern.on_traces(np.einsum("qaa->q", random_su2(rng, 500)).real)
    assert np.all(vals > -1e-12)
    assert np.max(vals) > 0.1


def test_rho_projects_band_limited():
    # int rho_t(x g^{-1}) f(g) dg = (e^{t Delta/2} f)(x), exact for entries
    rng = np.random.default_rng(1)
    t = 0.4
    f = BandLimited({2: rng.standard_normal((3, 3))})
    rule = haar_rule(2 * choose_two_jmax(t, 1e-11) + 4)
    kern = HeatKernelK.build(t, tol=1e-11)
    x = random_su2(rng, 3)
    inv = np.conj(np.swapaxes(rule.nodes, -1, -2))
    tr = np.einsum("pab,qba->pq", x, inv).real
    smoothed = kern.on_traces(tr) @ (rule.weights * f(rule.nodes))
    expect = f.heat(t, sign=-1.0)(x)
    np.testing.assert_allclose(smoothed, expect, atol=1e-9)


def test_tail_bound_certificate_monotone():
    assert rho_tail_bound(0.5, 10) < rho_tail_bound(0.5, 6)


def test_choose_two_jmax_bisection_matches_linear_walk():
    # the grid holds every (t, tol) the CLI asks for: the semigroup's
    # (0.2, 2e-9), (0.5, 2e-9) and (0.7, 1e-12)
    def walk(t, tol):
        two_j = 2
        while rho_tail_bound(t, two_j) > tol:
            two_j += 1
        return two_j

    for t in (0.05, 0.2, 0.5, 0.7, 1.0, 2.0, 3.0):
        for tol in (1e-9, 2e-9, 1e-10, 1e-12):
            assert choose_two_jmax(t, tol) == walk(t, tol), (t, tol)
    assert choose_two_jmax(1e-4) == 1696
    with pytest.raises(TruncationError):
        choose_two_jmax(1e-5)  # the bound at two_jmax = 4000 is still above tol


# choose_two_jmax at both ends of cli.T_VALUES_RANGE and at the default
# t_values, for the semigroup's tol 2e-9 and heat-check's rho_{t+s} tol 1e-12
TWO_JMAX = {0.005: (207, 235), 0.2: (28, 33), 0.5: (17, 20), 1.0: (11, 14), 26.0: (2, 2)}


def test_choose_two_jmax_pins_semigroup_truncations():
    for t, expected in TWO_JMAX.items():
        assert (choose_two_jmax(t, 2e-9), choose_two_jmax(t, 1e-12)) == expected, t


def test_nu_constants():
    t = 0.7
    assert nu_normalization(t) == pytest.approx(
        (np.pi * t) ** -1.5 * np.exp(-t / 4.0), rel=1e-13
    )
    g = exp_complex(1j * np.array([0.0, 0.3, 0.4]))
    assert complex(nu(t, g)).real == pytest.approx(float(nu_radial(t, 0.5)), rel=1e-12)


def test_nu_mass_identity():
    t = 0.5
    rule = kc_quadrature(default_cutoff(t) + 1.0, n_r=64)
    mass = rule.integrate_radial(nu_radial(t, rule.radii))
    assert mass == pytest.approx(VOL_K, rel=1e-12)


def test_shared_pass_class_evaluations():
    rng = np.random.default_rng(3)
    ka = HeatKernelK.build(0.3, tol=1e-12)
    kb = HeatKernelK.build(0.7, tol=1e-12)
    tr = rng.uniform(-2.0, 2.0, size=(6, 40))
    a, b = ka.pair_on_traces(kb, tr)
    np.testing.assert_allclose(a, ka.on_traces(tr), atol=1e-14)
    np.testing.assert_allclose(b, kb.on_traces(tr), atol=1e-14)
    w = rng.standard_normal(40)
    # two equal parity rows: the plain node sum
    ca, cb = convolve_on_traces(tr, [(ka, np.stack([w, w])), (kb, np.stack([w, w]))])
    np.testing.assert_allclose(ca, ka.on_traces(tr) @ w, atol=1e-12)
    np.testing.assert_allclose(cb, kb.on_traces(tr) @ w, atol=1e-12)


def _whole_traces(rule, tr_g):
    """tr(g h^{-1}) at all N nodes of ``rule``, by outer products."""
    cos_a = 0.5 * tr_g
    sin_a = np.sqrt(np.clip(1.0 - cos_a**2, 0.0, None))
    return 2.0 * (np.outer(cos_a, rule.cos_b) + np.outer(sin_a, rule.sin_b_c))


# heat-check's (0.2, 0.5) rule, one with a centre node and one without
@pytest.mark.parametrize("total, axis", [(45, 28), (12, 4), (10, 6)])
def test_weyl_rule_nodes_are_mirror_exact(total, axis):
    rule = weyl_rule(total, axis)
    assert np.array_equal(rule.cos_b[::-1], -rule.cos_b)
    assert np.array_equal(rule.sin_b_c[::-1], -rule.sin_b_c)
    assert np.array_equal(rule.weights[::-1], rule.weights)
    tr_g = np.einsum("paa->p", random_su2(np.random.default_rng(29), 50)).real
    whole = _whole_traces(rule, tr_g)
    assert np.array_equal(whole[:, ::-1], -whole)
    n = (whole.shape[1] + 1) // 2
    assert np.array_equal(rule.traces_against(tr_g), whole[:, :n])
    if whole.shape[1] % 2:
        assert not np.any(whole[:, n - 1])  # the centre trace is exactly 0


def test_weyl_rule_mass_and_character_orthogonality():
    from scipy.special import eval_chebyu

    total = 12
    rule = weyl_rule(total, 4)
    assert rule.weights.sum() == pytest.approx(VOL_K, rel=1e-14)
    # chi_j(h) = U_{2j}(cos b); chi_j chi_j' has degree 2j + 2j' in cos b
    for two_j in range(total + 1):
        for two_jp in range(total - two_j + 1):
            got = rule.weights @ (eval_chebyu(two_j, rule.cos_b) * eval_chebyu(two_jp, rule.cos_b))
            assert got == pytest.approx(VOL_K * (two_j == two_jp), abs=1e-11)


def test_weyl_rule_convolves_characters():
    # int_K chi_j(g h^{-1}) chi_j'(h) dh = delta_jj' Vol(K) chi_j(g) / (2j + 1)
    from scipy.special import eval_chebyu

    rng = np.random.default_rng(5)
    g = random_su2(rng, 7)
    tr_g = np.einsum("paa->p", g).real
    rule = weyl_rule(10, 6)
    cross = 0.5 * _whole_traces(rule, tr_g)
    for two_j in range(7):
        for two_jp in range(10 - two_j + 1):
            got = eval_chebyu(two_j, cross) @ (rule.weights * eval_chebyu(two_jp, rule.cos_b))
            expect = (two_j == two_jp) * VOL_K * character(two_j / 2.0, g).real / (two_j + 1)
            np.testing.assert_allclose(got, expect, atol=1e-10)


@pytest.mark.parametrize("t, s", [(0.2, 0.5), (0.5, 0.5)])
def test_weyl_convolution_matches_haar_rule(t, s):
    """The 2-D Weyl route against the 3-D Euler-angle Haar rule on 20 points."""
    rng = np.random.default_rng(11)
    g = random_su2(rng, 20)
    jt = choose_two_jmax(t, 2e-9)
    js = choose_two_jmax(s, 2e-9)
    kt = HeatKernelK(t, jt)
    ks = HeatKernelK(s, js)

    haar = haar_rule(jt + js)
    inv = np.conj(np.swapaxes(haar.nodes, -1, -2))
    tr3 = np.einsum("pab,qba->pq", g, inv).real
    w3 = haar.weights * ks.on_traces(np.einsum("qaa->q", haar.nodes).real)
    conv3 = kt.on_traces(tr3) @ w3

    weyl = weyl_rule(jt + js, jt)
    tr_g = np.einsum("paa->p", g).real
    w2 = weyl.weights * ks.on_traces(weyl.traces)
    conv2 = kt.on_traces(_whole_traces(weyl, tr_g)) @ w2
    [folded] = convolve_on_traces(weyl.traces_against(tr_g), [(kt, weyl.fold(w2))])

    np.testing.assert_allclose(conv2, conv3, rtol=0, atol=1e-12)
    np.testing.assert_allclose(folded, conv3, rtol=0, atol=1e-12)
    assert semigroup_sup_error(t, s, tr_g) <= 1e-12


def _whole_array_recurrence(traces, kernels, weights=None):
    """The per-spin loop of the character series over the whole array at once."""
    tau = np.ascontiguousarray(traces, dtype=np.float64)
    if weights is None:
        scaled = np.empty_like(tau)
        accs = [np.ones_like(tau) for _ in kernels]
    else:
        accs = [np.full(tau.shape[0], np.sum(w[0])) for w in weights]
    chis = characters(tau, max(k.two_jmax for k in kernels))
    next(chis)
    for two_j, chi in enumerate(chis, start=1):
        j = two_j / 2.0
        for i, (kern, acc) in enumerate(zip(kernels, accs)):
            if two_j > kern.two_jmax:
                continue
            coeff = (two_j + 1) * np.exp(-kern.t * j * (j + 1) / 2.0)
            if weights is None:
                np.multiply(chi, coeff, out=scaled)
                acc += scaled
            else:
                acc += coeff * (chi @ weights[i][two_j % 2])
    for acc in accs:
        acc /= VOL_K
    return accs


def _semigroup_kernels_and_rule(t=0.2, s=0.5):
    """heat-check's truncated kernels at (t, s) and their Weyl rule."""
    kt = HeatKernelK(t, choose_two_jmax(t, 2e-9))
    ks = HeatKernelK(s, choose_two_jmax(s, 2e-9))
    return kt, ks, weyl_rule(kt.two_jmax + ks.two_jmax, max(kt.two_jmax, ks.two_jmax))


# heat-check's folded 1000 x 173 matrix (blocks of 184 rows, the last one
# ragged), one with a ragged gemv group, one row, and a matrix inside one block
@pytest.mark.parametrize("n_points", [1000, 1003, 1, 21])
def test_blocks_change_no_bit_on_trace_matrices(n_points):
    kt, ks, rule = _semigroup_kernels_and_rule()
    tr_g = np.einsum("paa->p", random_su2(np.random.default_rng(17), n_points)).real
    n = (rule.cos_b.size + 1) // 2
    whole = _whole_traces(rule, tr_g)[:, :n]
    tr = rule.traces_against(tr_g)
    assert tr.shape == (n_points, 173)
    assert np.array_equal(tr, whole)

    w_s = rule.fold(rule.weights * ks.on_traces(rule.traces))
    w_t = rule.fold(rule.weights * kt.on_traces(rule.traces))
    got = convolve_on_traces(tr, [(kt, w_s), (ks, w_t)])
    want = _whole_array_recurrence(whole, [kt, ks], [w_s, w_t])
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    # unweighted, the flat slices cut across rows
    assert np.array_equal(kt.on_traces(tr), _whole_array_recurrence(whole, [kt])[0])
    got = ks.pair_on_traces(kt, tr)
    want = _whole_array_recurrence(whole, [ks, kt])
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


# heat-check's rule has a centre node (N = 345); at (0.5, 0.5) N = 162 has none
@pytest.mark.parametrize("t, s", [(0.2, 0.5), (0.5, 0.5)])
def test_folded_contraction_matches_whole_node_sum(t, s):
    kt, ks, rule = _semigroup_kernels_and_rule(t, s)
    tr_g = np.einsum("paa->p", random_su2(np.random.default_rng(31), 1000)).real
    w_s = rule.weights * ks.on_traces(rule.traces)
    w_t = rule.weights * kt.on_traces(rule.traces)
    got = convolve_on_traces(rule.traces_against(tr_g), [(kt, rule.fold(w_s)), (ks, rule.fold(w_t))])
    whole = _whole_array_recurrence(_whole_traces(rule, tr_g), [kt, ks],
                                    [np.stack([w_s, w_s]), np.stack([w_t, w_t])])
    for a, b in zip(got, whole, strict=True):
        assert np.max(np.abs(a - b)) <= 4 * np.spacing(np.max(np.abs(b)))


def test_blocks_change_no_bit_on_flat_traces():
    # three whole flat blocks and a ragged end
    tr = np.random.default_rng(19).uniform(-2.0, 2.0, size=3 * BLOCK_ELEMENTS + 1000)
    kt, ks, _ = _semigroup_kernels_and_rule()
    assert np.array_equal(kt.on_traces(tr), _whole_array_recurrence(tr, [kt])[0])
    got = kt.pair_on_traces(ks, tr)
    want = _whole_array_recurrence(tr, [kt, ks])
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_semigroup_check_memory():
    # heat-check's (0.2, 0.5) check on 1000 points: measured 2.21 MB, of which
    # the folded 1000 x 173 trace matrix is 1.38 MB; bound with a 15% margin.
    # The unfolded 1000 x 345 matrix measured 3.55 MB
    traces = np.einsum("paa->p", random_su2(np.random.default_rng(23), 1000)).real
    assert traced_peak_mb(lambda: semigroup_sup_error(0.2, 0.5, traces)) < 2.54


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: x - 0.25, 1.0, -1.0, 0.25),  # decreasing bracket ends
])
def test_bracketed_root_known_roots(f, a, b, root):
    assert abs(bracketed_root(f, a, b, xtol=1e-10, rtol=1e-12) - root) < 1e-10
    assert abs(bracketed_root(f, a, b, xtol=1e-4, rtol=0.0) - root) < 1e-4


def test_bracketed_root_failures():
    with pytest.raises(ValueError, match="different signs"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-10, rtol=1e-12)
    with pytest.raises(RuntimeError):
        bracketed_root(lambda x: x**3 - 2.0, 1.0, 2.0, xtol=1e-10, rtol=1e-12, maxiter=3)
    assert bracketed_root(lambda x: x - 1.0, 1.0, 2.0, xtol=1e-10, rtol=1e-12) == 1.0


@pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 1.0, 2.0, 3.0])
def test_calibration_root_matches_brentq(t):
    # the same residual, bracket and tolerances as calibrate_nu, solved by SciPy
    optimize = pytest.importorskip("scipy.optimize")
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=64)
    ref = optimize.brentq(
        lambda beta: unitarity_residual(t, beta, rule, 0.5), 0.6, 1.6, xtol=1e-10, rtol=1e-12
    )
    assert abs(calibrate_nu(t).beta - ref) < 1e-10


@pytest.mark.parametrize("t", [0.2, 0.5, 1.0], ids=lambda t: f"{t}-{DEFAULT_N_R}")
def test_calibration_equals_per_step_reference(t):
    # the invariants computed once per call keep the order of the arithmetic,
    # so every field is the per-step form's, bit for bit; the reference builds
    # its rule of DEFAULT_N_R radii from the definition that polar_rule(t)
    # follows (the id names the rule's size)
    assert calibrate_nu(t) == calibrate_nu_per_step(t, DEFAULT_N_R)


def test_calibration_transforms_each_test_function_once(monkeypatch):
    # the bracket takes about ten residual evaluations; the spin-1/2 and spin-1
    # test functions are transformed once for all of them
    built = []
    heat = BandLimited.heat
    monkeypatch.setattr(BandLimited, "heat", lambda self, *a, **k: built.append(self) or heat(self, *a, **k))
    calibrate_nu(0.5)
    assert sorted(f.two_jmax for f in built) == [1, 2]


@pytest.mark.parametrize("t", [0.2, 1.0])
def test_calibration_recovers_geometry(t):
    rec = calibrate_nu(t)
    assert rec.beta == pytest.approx(1.0, abs=1e-6)
    assert rec.normalization == pytest.approx(rec.analytic_normalization, rel=1e-6)
    assert abs(rec.mass_residual) < 1e-10
    assert abs(rec.unitarity_residuals["spin_one"]) < 1e-7


@pytest.mark.slow
def test_subelliptic_radial_marginal_matches_nu():
    """KS check: polar radii of mu_{t/2,t} follow the radial law of nu_t/Vol.

    Conjugation invariance of the subelliptic endpoint law kills every
    spin j >= 1/2 component of its K-dependence, which forces the radial
    marginal to coincide with that of the normalized fiber-invariant kernel.
    """
    from scipy.stats import ks_2samp

    from su2quant.sde import endpoint_ensemble_KC

    t = 0.5
    ens = endpoint_ensemble_KC(t / 2.0, t, 40000, 400, 314)
    radii = polar_radius(ens.values)
    # draw from the reference density r^2 * (sinh r / r) ... via rejection
    rng = np.random.default_rng(9)
    R = default_cutoff(t) + 1.0
    grid = np.linspace(1e-6, R, 4000)
    dens = nu_radial(t, grid) * (np.sinh(grid)) ** 2
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    ref = np.interp(rng.uniform(size=40000), cdf, grid)
    stat, p = ks_2samp(radii, ref)
    assert p > 0.001, f"KS p={p}, stat={stat}"
