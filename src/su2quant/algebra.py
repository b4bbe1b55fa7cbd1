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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

VOL_K = 16.0 * np.pi**2  # Riemannian volume of SU(2) as the radius-2 sphere
# float64 elements per buffer in the blocked passes over (points x nodes)
# trace matrices (``ClassRuleK.traces_against``, the heat recurrence): 256 kB,
# so the recurrence's four live buffers stay within a 2 MB L2 cache
BLOCK_ELEMENTS = 1 << 15
# radial Gauss-Legendre nodes of kc_quadrature, and so of polar_rule
DEFAULT_N_R = 64

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
    # r, h and s share two buffers (arrays even for one element): each --workers thread holds them
    r = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3, out=np.empty(np.shape(v1)))
    h = np.multiply(0.5, r, out=np.empty_like(r))
    c = np.cosh(h) if hermitian else np.cos(h)
    (np.sinh if hermitian else np.sin)(h, out=h)
    s = np.divide(h, r, out=r, where=(pos := r > 0))
    np.copyto(s, 0.5, where=~pos)  # sinh(h) / r -> 1/2 at r = 0
    if out is None:
        out = np.empty((4,) + s.shape, dtype=complex)
    e00, e01, e10, e11 = (out[k, ...] for k in range(4))  # views, 0-d included
    s3 = np.multiply(s, v3, out=h)
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
# the adjoint action
# ---------------------------------------------------------------------------

def ad_action(x: np.ndarray, y) -> np.ndarray:
    """Coordinates of Ad_x Y = x Y x^{-1} for x in SU(2); norm preserving.

    ``x`` is an entry array (2, 2, ...), the layout the path kernel holds its
    states in, and ``y`` (..., 3); their trailing axes broadcast against each
    other.  The products x Y and (x Y) x^dag are taken entry by entry, as
    elementwise calls, so a stack of states costs a few NumPy calls in all.
    """
    m00, m01, m10 = algebra_entries(np.asarray(y, dtype=float))
    m = np.empty((2, 2) + np.shape(m00), dtype=complex)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = m00, m01, m10, -m00
    del m00, m01, m10
    nd = max(np.ndim(x), m.ndim)  # entry axes lead, so pad the batch axes to one rank
    x, m = (a.reshape(a.shape[:2] + (1,) * (nd - a.ndim) + a.shape[2:])
            for a in (np.asarray(x, dtype=complex), m))
    # sums taken in place: a chunk of states holds few temporaries at once
    xm = x[:, :1] * m[0]
    xm += x[:, 1:] * m[1]
    del m
    xmx = xm[:, :1] * np.conj(x[:, 0])
    xmx += xm[:, 1:] * np.conj(x[:, 1])
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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for n points, built once per n and read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


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
    xs, wb = _gauss_legendre(n_beta)
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
    axes of a fixed g and of h.  ``weights`` sum to Vol(K).  The nodes are
    mirror-exact: node N-1-q has ``cos_b`` and ``sin_b_c`` of node q negated
    and its weight, so tr(g h_{N-1-q}^{-1}) = -tr(g h_q^{-1}) bit for bit,
    and the nodes q < ceil(N/2) represent the rule.
    """

    cos_b: np.ndarray  # (N,)
    sin_b_c: np.ndarray  # (N,) sin(b) * c
    weights: np.ndarray  # (N,) positive

    @property
    def traces(self) -> np.ndarray:
        """tr(h) = 2 cos b at every node."""
        return 2.0 * self.cos_b

    def traces_against(self, traces_g: np.ndarray) -> np.ndarray:
        """tr(g h_q^{-1}) = 2(cos a cos b + sin a sin b c) at the representative nodes q.

        Shape (p, ceil(N/2)), from tr(g) = 2 cos a; node N-1-q has the negated trace.
        """
        n = (self.cos_b.size + 1) // 2
        cos_a = 0.5 * np.asarray(traces_g, dtype=float).reshape(-1)
        sin_a = np.sqrt(np.clip(1.0 - cos_a**2, 0.0, None))
        out = np.empty((cos_a.size, n))
        rows = max(1, BLOCK_ELEMENTS // n)
        scratch = np.empty((min(rows, cos_a.size), n))
        # row blocks of 2 (outer(cos_a, cos_b) + outer(sin_a, sin_b_c)), the
        # same operations in the same order, with no full-size temporary
        for start in range(0, cos_a.size, rows):
            block = out[start:start + rows]
            part = scratch[: len(block)]
            np.multiply(cos_a[start:start + rows, None], self.cos_b[:n], out=block)
            np.multiply(sin_a[start:start + rows, None], self.sin_b_c[:n], out=part)
            block += part
            block *= 2.0
        return out

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """Node weights folded onto the representative nodes: rows w_q + w_{N-1-q} and w_q - w_{N-1-q}.

        chi_j(-tau) = (-1)^{2j} chi_j(tau), so sum_q w_q chi_j(tau_q) is the
        representative sum against row 2j % 2.  A centre node keeps its own weight.
        """
        n = (weights.size + 1) // 2
        mirror = weights[::-1][:n].copy()
        if weights.size % 2:
            mirror[-1] = 0.0  # a centre node counts once
        return np.stack([weights[:n] + mirror, weights[:n] - mirror])


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

    Node q = k n_c + l pairs with node N-1-q, at pi - b_k and -c_l.  The
    b-nodes past the middle copy the first half (cos b negated, sin b as
    is, and cos b = 0 at a centre), and NumPy's c-nodes are antisymmetric,
    so the pairs are mirror-exact (``ClassRuleK``).
    """
    n_b = total_two_j // 2 + 1  # exact to degree 2 n_b - 1 >= total_two_j
    n_c = axis_two_j // 2 + 1
    b = np.pi * np.arange(1, n_b + 1) / (n_b + 1)
    cos_b, sin_b, half = np.cos(b), np.sin(b), n_b // 2
    cos_b[n_b - half:] = -cos_b[:half][::-1]
    sin_b[n_b - half:] = sin_b[:half][::-1]
    cos_b[half:n_b - half] = 0.0  # the centre b = pi/2, if n_b is odd
    c, wc = _gauss_legendre(n_c)
    # Vol(K) (2/pi) * pi/(n_b+1) sin^2 b * wc/2
    wb = VOL_K * sin_b**2 / (n_b + 1)
    return ClassRuleK(
        cos_b=np.repeat(cos_b, n_c),
        sin_b_c=np.outer(sin_b, c).reshape(-1),
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
    _chi_ratios: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chi_ratio(self, two_j: int) -> np.ndarray:
        """sinh(d r) / (d sinh r) at the radii, d = 2j + 1, computed once per spin and kept with the rule.

        It is chi_j(e^{2irX}) / d_j, the fiber Gram scalar's integrand
        (``hl2.fiber_scalar``).  The memo lives as long as the rule.
        """
        ratio = self._chi_ratios.get(two_j)
        if ratio is None:
            d = two_j + 1
            ratio = self._chi_ratios[two_j] = np.sinh(d * self.radii) / (d * np.sinh(self.radii))
        return ratio

    def integrate_radial(self, values: np.ndarray) -> float:
        """Integrate a function of the polar radius alone over K_C, given by its values at the radii."""
        return float(VOL_K * np.dot(self.fiber_weights, values))


def kc_quadrature(R: float, n_r: int = DEFAULT_N_R) -> QuadratureRuleKC:
    """Polar-coordinate rule on SL(2,C) with radial cutoff R and n_r radii.

    Against radial weights (``hl2.hl2_inner``, the adjoint oracle and the
    calibration) the K- and sphere integrals are exact: K by Schur
    orthogonality and the sphere by the scalar fiber Gram matrix lambda_j.
    Those routes read only the n_r ``radii`` and ``fiber_weights``, so the
    radial Gauss-Legendre sum on [0, R] is their only quadrature.  The run
    path takes its rule from ``polar_rule``; the tests build others.
    """
    if R <= 0:
        raise ValueError("radial cutoff R must be positive")
    xs, wr = _gauss_legendre(n_r)
    r = 0.5 * R * (xs + 1.0)
    wr = 0.5 * R * wr
    return QuadratureRuleKC(radii=r, fiber_weights=wr * radial_jacobian(r) * (4.0 * np.pi))


def default_cutoff(t: float) -> float:
    """Default radial truncation for time-t Gaussian weights."""
    return max(4.0 * np.sqrt(t), 3.0)


def polar_rule(t: float) -> QuadratureRuleKC:
    """The polar rule of every inner product against nu_t, sized by its width sqrt(t) alone."""
    return kc_quadrature(default_cutoff(t) + 1.5)
