import numpy as np
import pytest

from su2quant.algebra import (
    VOL_K,
    default_cutoff,
    exp_complex,
    haar_rule,
    kc_quadrature,
    random_su2,
    weyl_rule,
)
from su2quant.errors import IllConditioned, TruncationError
from su2quant.heat import (
    HeatKernelK,
    bracketed_root,
    calibrate_nu,
    choose_two_jmax,
    heat_flow,
    nu,
    nu_normalization,
    nu_radial,
    rho_tail_bound,
    semigroup_sup_error,
)
from su2quant.wigner import BandLimited, character


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
    rule = haar_rule(2 * choose_two_jmax(t, 0.0, 1e-11) + 4)
    kern = HeatKernelK.build(t, tol=1e-11)
    x = random_su2(rng, 3)
    inv = np.conj(np.swapaxes(rule.nodes, -1, -2))
    tr = np.einsum("pab,qba->pq", x, inv).real
    smoothed = kern.on_traces(tr) @ (rule.weights * f(rule.nodes))
    expect = f.heat(t, sign=-1.0)(x)
    np.testing.assert_allclose(smoothed, expect, atol=1e-9)


def test_tail_bound_certificate_monotone():
    assert rho_tail_bound(0.5, 0.0, 10) < rho_tail_bound(0.5, 0.0, 6)
    assert rho_tail_bound(0.5, 1.0, 10) > rho_tail_bound(0.5, 0.0, 10)


def test_choose_two_jmax_bisection_matches_linear_walk():
    # the grid holds every (t, rmax, tol) the CLI asks for: the adjoint
    # oracle's (t, default_cutoff(t) + 1.5, 1e-9) and the semigroup's
    # (0.2, 0, 2e-9), (0.5, 0, 2e-9) and (0.7, 0, 1e-12)
    def walk(t, rmax, tol):
        two_j = 2
        while rho_tail_bound(t, rmax, two_j) > tol:
            two_j += 1
        return two_j

    for t in (0.05, 0.2, 0.5, 0.7, 1.0, 2.0, 3.0):
        for rmax in (0.0, 1.0, 3.0, 4.5, 5.5, 8.0):
            for tol in (1e-9, 2e-9, 1e-10, 1e-12):
                assert choose_two_jmax(t, rmax, tol) == walk(t, rmax, tol), (t, rmax, tol)
    with pytest.raises(TruncationError):
        choose_two_jmax(0.01, 10.0)  # the bound at two_jmax = 4000 is still above tol


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
    mass = rule.integrate_radial(lambda r: nu_radial(t, r))
    assert mass == pytest.approx(VOL_K, rel=1e-12)


def test_shared_pass_class_evaluations():
    from su2quant.heat import convolve_on_traces

    rng = np.random.default_rng(3)
    ka = HeatKernelK.build(0.3, tol=1e-12)
    kb = HeatKernelK.build(0.7, tol=1e-12)
    tr = rng.uniform(-2.0, 2.0, size=(6, 40))
    a, b = ka.pair_on_traces(kb, tr)
    np.testing.assert_allclose(a, ka.on_traces(tr), atol=1e-14)
    np.testing.assert_allclose(b, kb.on_traces(tr), atol=1e-14)
    w = rng.standard_normal(40)
    ca, cb = convolve_on_traces(tr, [(ka, w), (kb, w)])
    np.testing.assert_allclose(ca, ka.on_traces(tr) @ w, atol=1e-12)
    np.testing.assert_allclose(cb, kb.on_traces(tr) @ w, atol=1e-12)


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
    cross = 0.5 * rule.traces_against(tr_g)
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
    jt = choose_two_jmax(t, 0.0, 2e-9)
    js = choose_two_jmax(s, 0.0, 2e-9)
    kt = HeatKernelK(t, jt)
    ks = HeatKernelK(s, js)

    haar = haar_rule(jt + js)
    inv = np.conj(np.swapaxes(haar.nodes, -1, -2))
    tr3 = np.einsum("pab,qba->pq", g, inv).real
    w3 = haar.weights * ks.on_traces(np.einsum("qaa->q", haar.nodes).real)
    conv3 = kt.on_traces(tr3) @ w3

    weyl = weyl_rule(jt + js, jt)
    tr2 = weyl.traces_against(np.einsum("paa->p", g).real)
    conv2 = kt.on_traces(tr2) @ (weyl.weights * ks.on_traces(weyl.traces))

    np.testing.assert_allclose(conv2, conv3, rtol=0, atol=1e-12)
    assert semigroup_sup_error(t, s, np.einsum("paa->p", g).real) <= 1e-12


def test_heat_flow_forward_backward_roundtrip():
    rng = np.random.default_rng(2)
    f = BandLimited({1: rng.standard_normal((2, 2)), 3: rng.standard_normal((4, 4))})
    out = heat_flow(0.4, heat_flow(0.4, f, "forward"), "backward")
    for k, c in f.blocks.items():
        np.testing.assert_allclose(out.blocks[k], c, atol=1e-13)


def test_heat_flow_backward_guard():
    f = BandLimited({24: np.ones((25, 25))})
    with pytest.raises(IllConditioned):
        heat_flow(1.0, f, "backward")


def test_heat_flow_rejects_bad_args():
    f = BandLimited.constant(1.0)
    with pytest.raises(ValueError):
        heat_flow(-0.1, f)
    with pytest.raises(ValueError):
        heat_flow(0.1, f, "sideways")


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
    from su2quant.heat import _unitarity_residual

    optimize = pytest.importorskip("scipy.optimize")
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=64)
    ref = optimize.brentq(
        lambda beta: _unitarity_residual(t, beta, rule, 0.5), 0.6, 1.6, xtol=1e-10, rtol=1e-12
    )
    assert abs(calibrate_nu(t).beta - ref) < 1e-10


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

    from su2quant.algebra import polar_radius
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
