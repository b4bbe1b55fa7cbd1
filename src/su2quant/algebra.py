"""Lie-algebra / Lie-group arithmetic for SU(2) and SL(2,C), plus quadrature.

Conventions used throughout the package:

* the orthonormal basis of su(2) is ``X_k = -(i/2) sigma_k`` with the inner
  product ``<X, Y> = -2 tr(XY)``;
* a vector ``y`` in R^3 stands for ``Y = sum_k y_k X_k``, and ``|Y| = |y|``;
* under this metric SU(2) is the 3-sphere of radius 2 (the geodesic
  ``exp(s X_3)`` closes at ``s = 4 pi``), hence ``Vol(K) = 16 pi^2``;
* the Haar measure on K used everywhere has total mass ``VOL_K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VOL_K = 16.0 * np.pi**2  # Riemannian volume of SU(2) as the radius-2 sphere

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# X_k = -(i/2) sigma_k, orthonormal for <X,Y> = -2 tr(XY)
BASIS = -0.5j * PAULI

IDENTITY2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------

def algebra_entries(z):
    """Entries ``(m00, m01, m10)`` of ``M = sum_k z_k X_k``; ``m11 = -m00``.

    ``z`` holds real or complex coordinates on its last axis (..., 3).
    """
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    return -0.5j * z3, -0.5j * z1 - 0.5 * z2, -0.5j * z1 + 0.5 * z2


def exp_entries(a, b, out=None):
    """Entries ``(e00, e01, e10, e11)`` of exp(sum_k (a_k + i b_k) X_k).

    ``a`` and ``b`` are real coordinate arrays (..., 3), and either may be
    None, meaning zero.  Elementwise over the leading axes; returns an array
    (4, ...), written into ``out`` when given.  With M the exponent,
    ``M^2 = mu^2 I`` and ``exp(M) = cosh(mu) I + (sinh(mu) / mu) M``; both
    factors are even in mu, so any root serves, and
    ``mu^2 = (|b|^2 - |a|^2) / 4 - i (a . b) / 2``.  The branch follows from
    which parts are given:

    * only b (the subelliptic slice): M is Hermitian and mu = |b|/2 is
      real, so exp(M) is Hermitian and built from real cosh and sinh;
    * only a (SU(2)): mu = i|a|/2, and exp(M) is unitary, built from real
      cos and sin;
    * both: mu = x + iy is complex, and the factors are formed from real
      cosh, sinh, cos and sin of x and y.  mu^2 is taken as
      ``(n00^2 + n01 n10) / 4`` from the entries of n = 2M, which the last
      step needs anyway; the dot products above cost more calls on
      strided data.
    """
    if a is None or b is None:
        return _exp_one_part(b if a is None else a, a is None, out)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    # n = 2M = [[b3 - i a3, (b1 - a2) - i (a1 + b2)], [(b1 + a2) + i (b2 - a1), -n00]],
    # written straight from the parts: a complex copy a + ib measured slower
    n00, n01, n10 = (np.empty(np.shape(a1), dtype=complex) for _ in range(3))
    n00.real = b3
    np.negative(a3, out=n00.imag)
    np.subtract(b1, a2, out=n01.real)
    np.add(a1, b2, out=n01.imag)
    np.negative(n01.imag, out=n01.imag)
    np.add(b1, a2, out=n10.real)
    np.subtract(b2, a1, out=n10.imag)
    w = np.asarray(n00 * n00 + n01 * n10, dtype=complex)
    w *= 0.25
    u, v = w.real, w.imag
    # p + iq (u >= 0) or q + ip (u < 0) squares to w; neither loses digits.
    # Temporaries are dropped as soon as they are spent: a chunk's working
    # set is held once per --workers thread.
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.sqrt(0.5 * (np.sqrt(u * u + v * v) + np.abs(u)))
        q = 0.5 * v / p
        right = u >= 0
        zero = p == 0  # mu = 0 exactly: exp(M) = I + M
        x, y = np.where(right, p, q), np.where(right, q, p)
        del p, q, right
        chx, shx, cy, sy = np.cosh(x), np.sinh(x), np.cos(y), np.sin(y)
        mu = w  # w is spent: its buffer takes mu
        mu.real, mu.imag = x, y
        del x, y
        c = np.empty(w.shape, dtype=complex)
        c.real, c.imag = chx * cy, shx * sy
        s = np.empty(w.shape, dtype=complex)
        s.real, s.imag = shx * cy, chx * sy  # sinh(mu)
        s /= mu
    if zero.any():
        c[zero], s[zero] = 1.0, 1.0
    s *= 0.5  # s M = (s / 2) n
    if out is None:
        out = np.empty((4,) + w.shape, dtype=complex)
    sm00 = s * n00
    np.add(c, sm00, out=out[0, ...])
    np.multiply(s, n01, out=out[1, ...])
    np.multiply(s, n10, out=out[2, ...])
    np.subtract(c, sm00, out=out[3, ...])
    return out


def _exp_one_part(v, hermitian: bool, out):
    """exp_entries with one part: exp(sum_k v_k iX_k) when ``hermitian``, else exp(sum_k v_k X_k).

    sum_k v_k iX_k = H / 2 with H = [[v3, v1 - i v2], [v1 + i v2, -v3]] and
    H^2 = r^2 I, r = |v|; sum_k v_k X_k = -iH / 2.  So exp(M) = c I + s H
    with c = cosh(r/2), s = sinh(r/2) / r, or c = cos(r/2) and -i sin(r/2) / r
    in place of s.
    """
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    r = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    h = 0.5 * r
    c = np.cosh(h) if hermitian else np.cos(h)
    s = np.divide(np.sinh(h) if hermitian else np.sin(h), r,
                  out=np.full(r.shape, 0.5), where=r > 0)  # sinh(h) / r -> 1/2 at r = 0
    if out is None:
        out = np.empty((4,) + r.shape, dtype=complex)
    e00, e01, e10, e11 = (out[k, ...] for k in range(4))  # views, 0-d included
    s3 = s * v3
    if hermitian:  # e00, e11 = c +- s v3; e01, e10 = s v1 -+ i s v2
        np.add(c, s3, out=e00.real)
        np.subtract(c, s3, out=e11.real)
        out[::3].imag = 0.0
        np.multiply(s, v1, out=e01.real)
        e10.real = e01.real
        np.multiply(s, v2, out=e10.imag)
        np.negative(e10.imag, out=e01.imag)
    else:  # e00, e11 = c -+ i s v3; e01, e10 = -+s v2 - i s v1
        out[::3].real = c
        np.negative(s3, out=e00.imag)
        e11.imag = s3
        np.multiply(s, v2, out=e10.real)
        np.negative(e10.real, out=e01.real)
        np.negative(s * v1, out=out[1:3].imag)
    return out


def matrix_from_entries(e00, e01, e10, e11) -> np.ndarray:
    """Stack four same-shaped entry arrays into matrices (..., 2, 2)."""
    out = np.empty(np.shape(e00) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = e00, e01, e10, e11
    return out


def _exp_matrices(a, b) -> np.ndarray:
    """exp_entries(a, b) written in place as matrices (..., 2, 2): no entry array to copy."""
    shape = np.shape(a if b is None else b)[:-1]
    m = np.empty(shape + (2, 2), dtype=complex)
    exp_entries(a, b, out=np.moveaxis(m.reshape(shape + (4,)), -1, 0))
    return m


def exp_algebra(y, scale: float = 1.0) -> np.ndarray:
    """exp(scale * Y) in SU(2) for Y in su(2).

    ``y`` is a (..., 3) real coordinate array; the result has shape
    (..., 2, 2).  No CLI path calls it; ``haar_rule`` and the tests do.
    """
    return _exp_matrices(np.asarray(y, dtype=float) * scale, None)


def exp_complex(z) -> np.ndarray:
    """exp(sum_k z_k X_k) in SL(2,C) for complex coordinates z (..., 3)."""
    z = np.asarray(z, dtype=complex)
    return _exp_matrices(z.real, z.imag)


def random_su2(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-random SU(2) elements via normalized Gaussian quaternions."""
    size = (4,) if n is None else (n, 4)
    q = rng.standard_normal(size)
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    a = q[..., 0] + 1j * q[..., 3]
    b = q[..., 2] + 1j * q[..., 1]
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = -np.conj(b)
    out[..., 1, 1] = np.conj(a)
    return out


# ---------------------------------------------------------------------------
# polar decomposition and the adjoint action
# ---------------------------------------------------------------------------

def polar_radius(g: np.ndarray) -> np.ndarray:
    """|Y| in the decomposition g = x exp(iY), from tr(g^dag g) = 2 cosh|Y|."""
    g = np.asarray(g, dtype=complex)
    t = np.einsum("...ab,...ab->...", np.conj(g), g).real
    return np.arccosh(np.maximum(t / 2.0, 1.0))


def ad_action(x: np.ndarray, y) -> np.ndarray:
    """Coordinates of Ad_x Y = x Y x^{-1} for x in SU(2); norm preserving.

    ``x`` (..., 2, 2) and ``y`` (..., 3) broadcast against each other.  The
    products x Y and (x Y) x^dag are taken entry by entry, as elementwise
    calls, so a stack of states costs a few NumPy calls in all.
    """
    m00, m01, m10 = algebra_entries(np.asarray(y, dtype=float))
    pair = np.broadcast_arrays(
        np.asarray(x, dtype=complex), matrix_from_entries(m00, m01, m10, -m00)
    )
    x, m = (np.moveaxis(a, (-2, -1), (0, 1)) for a in pair)  # entry arrays (2, 2, ...)
    xm = x[:, :1] * m[0] + x[:, 1:] * m[1]
    xmx = xm[:, :1] * np.conj(x[:, 0]) + xm[:, 1:] * np.conj(x[:, 1])
    # y_k = i tr(M sigma_k), real for anti-Hermitian M
    return np.stack([
        -(xmx[0, 1] + xmx[1, 0]).imag,
        -(xmx[0, 1] - xmx[1, 0]).real,
        -(xmx[0, 0] - xmx[1, 1]).imag,
    ], axis=-1)


# ---------------------------------------------------------------------------
# quadrature on K
# ---------------------------------------------------------------------------

@dataclass
class QuadratureRuleK:
    """Euler-angle product rule on SU(2) with total mass Vol(K).

    Exact (to roundoff) on any band-limited integrand whose total spin does
    not exceed the ``total_two_j / 2`` of ``haar_rule``: the two uniform
    angle rules kill every nonzero half-integer frequency below the aliasing
    threshold and the Gauss-Legendre rule handles the remaining polynomial
    in cos(beta).
    """

    nodes: np.ndarray  # (N, 2, 2) complex
    weights: np.ndarray  # (N,) positive

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """sum_q w_q * values[..., q]; the tests' oracle for integrals on K."""
        return np.einsum("q,...q->...", self.weights, values)


def haar_rule(total_two_j: int) -> QuadratureRuleK:
    """Quadrature exact on band-limited functions of total spin <= total_two_j/2.

    No CLI path calls it: it gives the K-nodes of ``hl2.hl2_inner_pointwise``
    and the tests' oracles for integrals on K.
    """
    j_tot = total_two_j / 2.0
    n_angle = int(total_two_j + 2)  # aliasing threshold is total_two_j + 1
    n_beta = int(np.ceil(j_tot)) + 1  # GL exact to degree 2 n - 1 >= 2 j_tot
    alphas = 4.0 * np.pi * np.arange(n_angle) / n_angle
    gammas = alphas
    xs, wb = np.polynomial.legendre.leggauss(n_beta)
    betas = np.arccos(xs)

    # x(alpha, beta, gamma) = e^{alpha X3} e^{beta X2} e^{gamma X3}
    ea = exp_algebra(np.stack([np.zeros_like(alphas)] * 2 + [alphas], axis=-1))
    eb = exp_algebra(np.stack([np.zeros_like(betas), betas, np.zeros_like(betas)], axis=-1))
    eg = ea
    nodes = np.einsum("aij,bjk,ckl->abcil", ea, eb, eg).reshape(-1, 2, 2)
    w_angle = 4.0 * np.pi / n_angle
    # double cover of the (alpha, gamma) torus: halve the product weight
    weights = 0.5 * w_angle * w_angle * np.einsum("a,b,c->abc", np.ones(n_angle), wb, np.ones(n_angle)).reshape(-1)
    return QuadratureRuleK(nodes=nodes, weights=weights)


@dataclass
class ClassRuleK:
    """Rule over h in K for integrands F(g h^{-1}) G(h) with F, G class functions.

    A node is a class angle b of h and the cosine c between the rotation
    axes of a fixed g and of h.  ``weights`` sum to Vol(K).
    """

    cos_b: np.ndarray  # (N,)
    sin_b_c: np.ndarray  # (N,) sin(b) * c
    weights: np.ndarray  # (N,) positive

    @property
    def traces(self) -> np.ndarray:
        """tr(h) = 2 cos b at every node."""
        return 2.0 * self.cos_b

    def traces_against(self, traces_g: np.ndarray) -> np.ndarray:
        """tr(g h^{-1}) = 2(cos a cos b + sin a sin b c), shape (p, N), from tr(g) = 2 cos a."""
        cos_a = 0.5 * np.asarray(traces_g, dtype=float)
        sin_a = np.sqrt(np.clip(1.0 - cos_a**2, 0.0, None))
        return 2.0 * (np.outer(cos_a, self.cos_b) + np.outer(sin_a, self.sin_b_c))


def weyl_rule(total_two_j: int, axis_two_j: int) -> ClassRuleK:
    """2-D rule for the convolution integrand chi_j(g h^{-1}) chi_j'(h) over h in K.

    Weyl reduction: with h = (cos b, sin b m) a unit quaternion and c the
    cosine between the axes of g and h,

        int_K F dh = Vol(K) (2/pi) int_0^pi sin^2 b int_{-1}^{1} F dc/2 db,

    and tr(g h^{-1}) = 2(cos a cos b + sin a sin b c) for tr(g) = 2 cos a.
    The b-rule is Gauss-Chebyshev of the second kind in x = cos b (nodes
    b_k = k pi/(n_b+1), weights pi/(n_b+1) sin^2 b_k), the c-rule
    Gauss-Legendre.  Exact when 2 j + 2 j' <= total_two_j and
    2 j <= axis_two_j: the integrand is then a polynomial of degree
    <= total_two_j in cos b and <= axis_two_j in c.
    """
    n_b = total_two_j // 2 + 1  # exact to degree 2 n_b - 1 >= total_two_j
    n_c = axis_two_j // 2 + 1
    b = np.pi * np.arange(1, n_b + 1) / (n_b + 1)
    c, wc = np.polynomial.legendre.leggauss(n_c)
    # Vol(K) (2/pi) * pi/(n_b+1) sin^2 b * wc/2
    wb = VOL_K * np.sin(b) ** 2 / (n_b + 1)
    return ClassRuleK(
        cos_b=np.repeat(np.cos(b), n_c),
        sin_b_c=np.outer(np.sin(b), c).reshape(-1),
        weights=np.outer(wb, wc).reshape(-1),
    )


# ---------------------------------------------------------------------------
# quadrature on K_C in polar coordinates
# ---------------------------------------------------------------------------

def radial_jacobian(r: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """J(r) = (sinh(beta r)/beta)^2, the radial density of Haar measure.

    The full polar Haar measure is ``dg = c_J J(r) dr dS(u) dx`` with
    ``c_J = 1`` under this package's normalizations (pinned by calibration,
    see :mod:`su2quant.heat`).
    """
    r = np.asarray(r, dtype=float)
    return (np.sinh(beta * r) / beta) ** 2


@dataclass
class QuadratureRuleKC:
    """Radial rule for integrals over SL(2,C) in polar coordinates g = x exp(i r u . X).

    Radial integrands see only one node per radius: its fiber weight is the
    radial weight times J(r) times the sphere's mass 4 pi, and the K-integral
    contributes Vol(K).
    """

    radii: np.ndarray  # (n_r,)
    fiber_weights: np.ndarray  # (n_r,) includes J(r), dr and the sphere's mass
    cutoff: float

    def integrate_radial(self, f_of_r) -> float:
        """Integrate a function of the polar radius alone over K_C."""
        vals = np.asarray(f_of_r(self.radii), dtype=float)
        return float(VOL_K * np.dot(self.fiber_weights, vals))


def kc_quadrature(R: float, n_r: int = 48) -> QuadratureRuleKC:
    """Polar-coordinate rule on SL(2,C) with radial cutoff R.

    Against radial weights (``hl2.hl2_inner``, the adjoint oracle and the
    calibration) the K- and sphere integrals are exact: K by Schur
    orthogonality and the sphere by the scalar fiber Gram matrix lambda_j.
    Those routes read only the n_r ``radii`` and ``fiber_weights``, so the
    radial Gauss-Legendre sum on [0, R] is their only quadrature.
    """
    if R <= 0:
        raise ValueError("radial cutoff R must be positive")
    xs, wr = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * R * (xs + 1.0)
    wr = 0.5 * R * wr
    return QuadratureRuleKC(radii=r, fiber_weights=wr * radial_jacobian(r) * (4.0 * np.pi), cutoff=R)


def default_cutoff(t: float) -> float:
    """Default radial truncation for time-t Gaussian weights."""
    return max(4.0 * np.sqrt(t), 3.0)
