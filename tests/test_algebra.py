import numpy as np
import pytest
from reference import exp_complex, matrix_from_entries, polar_radius

from su2quant.algebra import (
    BASIS,
    PAULI,
    VOL_K,
    ad_action,
    default_cutoff,
    exp_algebra,
    exp_entries,
    haar_rule,
    kc_quadrature,
    radial_jacobian,
    random_su2,
)
from su2quant.hl2 import fiber_nodes, sphere_grid


def test_basis_orthonormal():
    for i in range(3):
        for k in range(3):
            ip = -2.0 * np.trace(BASIS[i] @ BASIS[k]).real
            assert ip == pytest.approx(1.0 if i == k else 0.0, abs=1e-14)


def test_exp_closed_form_vs_scipy():
    # exp_complex of a random traceless matrix m, through its coordinates
    # z_k = i tr(m sigma_k)
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m -= 0.5 * np.trace(m) * np.eye(2)
        z = 1j * np.einsum("ab,kba->k", m, PAULI)
        np.testing.assert_allclose(exp_complex(z), scipy_linalg.expm(m), atol=1e-12)


@pytest.mark.parametrize(
    "kind", ["real", "imaginary", "complex", "large", "tiny", "zero"]
)
def test_exp_entries_matches_expm(kind):
    # every branch of the closed form against scipy, batched and 0-d: a only
    # (SU(2)), b only (the slice) and both; at |z| = 10, 1e-9 and 0 all three
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 4, 5, 3))

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    u = unit(a + 1j * b)
    scale = {"large": 10.0, "tiny": 1e-9, "zero": 0.0}.get(kind)
    parts = {
        "real": [(a, None)],
        "imaginary": [(None, b)],
        "complex": [(a, b)],
    }.get(kind) or [
        (scale * unit(a), None),
        (None, scale * unit(b)),
        (scale * u.real, scale * u.imag),
    ]
    for pa, pb in parts:
        z = (0.0 if pa is None else pa) + 1j * (0.0 if pb is None else pb)
        m = np.einsum("...k,kab->...ab", z, BASIS)
        ref = np.array([scipy_linalg.expm(mm) for mm in m.reshape(-1, 2, 2)]).reshape(m.shape)
        atol = 1e-13 * max(1.0, np.max(np.abs(ref)))
        batch = matrix_from_entries(*exp_entries(pa, pb))
        assert batch.shape == z.shape[:-1] + (2, 2)
        np.testing.assert_allclose(batch, ref, rtol=0, atol=atol)
        for i, expected in enumerate(batch.reshape(-1, 2, 2)):
            e = exp_entries(*(None if p is None else p.reshape(-1, 3)[i] for p in (pa, pb)))
            assert e.shape == (4,)
            np.testing.assert_allclose(matrix_from_entries(*e), expected, rtol=0, atol=atol)
        if kind == "zero":
            np.testing.assert_array_equal(batch, np.broadcast_to(np.eye(2), batch.shape))


def test_exp_entries_one_part_structure():
    # b only: exp of a Hermitian matrix is Hermitian; a only: it lies in SU(2)
    rng = np.random.default_rng(5)
    v = 2.0 * rng.standard_normal((50, 3))
    e00, e01, e10, e11 = exp_entries(None, v)
    assert not np.any(e00.imag) and not np.any(e11.imag)
    np.testing.assert_array_equal(e10, np.conj(e01))
    u = matrix_from_entries(*exp_entries(v, None))
    np.testing.assert_allclose(u @ np.conj(np.swapaxes(u, -1, -2)),
                               np.broadcast_to(np.eye(2), u.shape), rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(u), 1.0, rtol=0, atol=1e-14)


def test_one_part_callers_match_the_complex_route():
    # exp_algebra and the fiber nodes pass their zero part as None; the
    # complex-mu route with an explicit zero part is the oracle
    rng = np.random.default_rng(9)
    y = 1.5 * rng.standard_normal((200, 3))
    zero = np.zeros_like(y)
    eye = np.broadcast_to(np.eye(2), (200, 2, 2))
    u = exp_algebra(y)
    np.testing.assert_allclose(u, matrix_from_entries(*exp_entries(y, zero)), rtol=0, atol=1e-14)
    np.testing.assert_allclose(u @ np.conj(np.swapaxes(u, -1, -2)), eye, rtol=0, atol=1e-14)
    radii, (directions, _) = kc_quadrature(2.0, n_r=8).radii, sphere_grid(4, 4)
    fy = (radii[:, None, None] * directions).reshape(-1, 3)  # radius-major
    h = fiber_nodes(radii, directions)
    np.testing.assert_allclose(h, matrix_from_entries(*exp_entries(np.zeros_like(fy), fy)),
                               rtol=0, atol=1e-14 * np.max(np.abs(h)))
    np.testing.assert_array_equal(h, np.conj(np.swapaxes(h, -1, -2)))


def test_exp_algebra_is_unitary_and_periodic():
    y = np.array([0.0, 0.0, 1.0])
    u = exp_algebra(y, scale=4.0 * np.pi)
    # the geodesic closes at 4 pi under the radius-2 metric
    np.testing.assert_allclose(u, np.eye(2), atol=1e-12)
    u = exp_algebra(y, scale=1.3)
    np.testing.assert_allclose(u @ np.conj(u.T), np.eye(2), atol=1e-14)


def test_random_su2_batch_shape_and_unitarity():
    rng = np.random.default_rng(1)
    g = random_su2(rng, 100)
    assert g.shape == (100, 2, 2)
    dets = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    np.testing.assert_allclose(dets, 1.0, atol=1e-14)


def test_polar_decompose_roundtrip():
    # polar_radius reads |Y| back from g = x exp(iY)
    rng = np.random.default_rng(2)
    x0 = random_su2(rng, 50)
    y0 = 0.8 * rng.standard_normal((50, 3))
    g = x0 @ exp_complex(1j * y0)
    np.testing.assert_allclose(polar_radius(g), np.linalg.norm(y0, axis=-1), atol=1e-10)


def test_polar_decompose_near_identity_fiber():
    # tr(g^dag g) / 2 = cosh|Y| may round below 1 here, which the clamp
    # keeps out of arccosh
    rng = np.random.default_rng(3)
    g = random_su2(rng, 50) @ exp_complex(1j * np.array([1e-9, 0.0, 0.0]))
    r = polar_radius(g)
    assert np.all(np.isfinite(r)) and np.all(r < 1e-7)


def test_ad_action_is_isometry():
    rng = np.random.default_rng(3)
    x = random_su2(rng, 20)
    y = rng.standard_normal((20, 3))
    y2 = ad_action(np.moveaxis(x, (-2, -1), (0, 1)), y)
    np.testing.assert_allclose(
        np.linalg.norm(y2, axis=-1), np.linalg.norm(y, axis=-1), rtol=1e-12
    )


def test_ad_action_matches_matrix_conjugation():
    # reference: y'_k = i tr(x Y x^dag sigma_k) by matrix products
    from su2quant.algebra import PAULI

    rng = np.random.default_rng(4)
    x = random_su2(rng, 12).reshape(3, 4, 2, 2)
    y = rng.standard_normal((4, 3))  # broadcasts against x's leading axes
    xm = x @ np.einsum("...k,kab->...ab", y, BASIS) @ np.conj(np.swapaxes(x, -1, -2))
    ref = np.stack([np.real(1j * np.einsum("...ab,ba->...", xm, s)) for s in PAULI], axis=-1)
    entries = np.moveaxis(x, (-2, -1), (0, 1))  # the (2, 2, ...) layout ad_action takes
    np.testing.assert_allclose(ad_action(entries, y), ref, rtol=0, atol=1e-14)


def test_haar_rule_total_mass():
    rule = haar_rule(4)
    assert rule.integrate(np.ones(len(rule.weights))) == pytest.approx(VOL_K)


def test_haar_rule_kills_single_entries():
    # int D^j_{m m'} dx = 0 for j > 0
    from su2quant.wigner import wigner_matrix

    rule = haar_rule(3)
    for j in (0.5, 1.0, 1.5):
        mats = wigner_matrix(j, rule.nodes)
        ints = np.einsum("q,qab->ab", rule.weights, mats)
        np.testing.assert_allclose(ints, 0.0, atol=1e-10)


def test_radial_jacobian_small_r():
    r = np.array([1e-8, 0.1, 1.0])
    np.testing.assert_allclose(radial_jacobian(r)[0], r[0] ** 2, rtol=1e-6)


def test_kc_quadrature_radial_gaussian():
    # int over K_C of (r/sinh r) e^{-r^2/t} against the closed form
    t = 0.5
    rule = kc_quadrature(default_cutoff(t) + 1.0, n_r=64)

    r = rule.radii
    ratio = np.where(r < 1e-8, 1.0, r / np.sinh(np.where(r < 1e-8, 1.0, r)))
    got = rule.integrate_radial(ratio * np.exp(-(r**2) / t))
    expect = VOL_K * 4.0 * np.pi * (t / 4.0) * np.sqrt(np.pi * t) * np.exp(t / 4.0)
    assert got == pytest.approx(expect, rel=1e-10)
