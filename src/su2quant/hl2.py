"""Inner products over SL(2,C) against radial weights, on factored rules.

In polar coordinates ``g = x * exp(iY)`` with x in K, and
``D^j(g) = D^j(x) D^j(exp(iY))``.  Against a radial weight, two steps are
exact and one is quadrature:

* K: Schur orthogonality does the x-integral, leaving the fiber Gram
  matrix G_j = sum_y w_y D^j(e_y)^dagger D^j(e_y) per spin;
* sphere: e_y = exp(i r u.X) is Hermitian, so D^j(e_y)^dagger D^j(e_y) =
  D^j(e_y^2), and the average over the directions u is an average over
  K-conjugation.  By Schur's lemma G_j = lambda_j I, with the scalar
  lambda_j = sum_y w_y sinh(d_j r_y) / (d_j sinh r_y) (``fiber_scalar``);
* radius: the sum over r_y is the only quadrature.

So a radial weight is an array of its values at the rule's radii: ``hl2_inner``
reads it with the rule's fiber weights (``QuadratureRuleKC`` keeps nothing
else) and sums n_r terms per spin.  A general pointwise symbol has no such
form: ``hl2_inner_pointwise`` sums over the nodes of a Haar rule on K and every
(radius, direction) fiber node, chunked over the K-nodes.
"""

from __future__ import annotations

import numpy as np

from .algebra import VOL_K, QuadratureRuleK, QuadratureRuleKC, _exp_matrices, _gauss_legendre
from .wigner import BandLimited, wigner_matrix

K_CHUNK = 16  # K-nodes per contraction step


def _factored_values(f: BandLimited, dx: dict, ey: dict) -> np.ndarray:
    """f(x_q * exp(iY_p)) for the K-nodes x_q of ``dx`` and every fiber node, shape (n_x, n_y)."""
    some = next(iter(dx.values()))
    vals = 0.0
    for two_j, c in f.blocks.items():
        vals = vals + np.einsum(
            "ab,xac,ycb->xy", c, dx[two_j], ey[two_j], optimize=True
        )
    if np.isscalar(vals) or np.ndim(vals) == 0:
        vals = np.zeros((some.shape[0], 1), dtype=complex)
    return vals


def _chunked_tables(k_nodes: np.ndarray, fnodes: np.ndarray, spins: set[int], chunk: int):
    """(K-node slice, {2j: D^j(x)} on that slice, {2j: D^j(exp iY)}) per chunk of K-nodes.

    Callers evaluate one chunk at a time: on large fiber rules a full
    (n_x, n_y) table of values runs to hundreds of MB.
    """
    dx = {two_j: wigner_matrix(two_j / 2.0, k_nodes) for two_j in spins}
    ey = {two_j: wigner_matrix(two_j / 2.0, fnodes) for two_j in spins}
    for start in range(0, len(k_nodes), chunk):
        part = slice(start, start + chunk)
        yield part, {two_j: d[part] for two_j, d in dx.items()}, ey


def sphere_grid(n_theta: int = 20, n_phi: int = 20):
    """Directions u (n_theta n_phi, 3) and their weights, which sum to one.

    Gauss-Legendre in cos(theta) times uniform phi.
    """
    ct, wt = _gauss_legendre(n_theta)
    st = np.sqrt(1.0 - ct**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    u = np.stack(
        [np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)), np.outer(ct, np.ones(n_phi))], axis=-1
    )
    return u.reshape(-1, 3), np.repeat(wt / (2.0 * n_phi), n_phi)  # wt sums to 2


def fiber_nodes(radii: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """exp(i r u . X) for every (radius, direction) pair, radius-major, shape (n_r n_u, 2, 2)."""
    return _exp_matrices(None, (radii[:, None, None] * directions).reshape(-1, 3))


def fiber_scalar(two_j: int, rule: QuadratureRuleKC, wy: np.ndarray):
    """lambda_j = sum_y w_y chi_j(e_y^2) / d_j, the fiber Gram matrix G_j = lambda_j I.

    e_y^2 = exp(2i r_y u.X) has eigenvalues e^{+-r_y}, so
    chi_j(e_y^2) = sinh(d_j r_y) / sinh(r_y) with d_j = 2j + 1; the rule
    keeps that ratio per spin (``QuadratureRuleKC.chi_ratio``).
    """
    return np.dot(wy, rule.chi_ratio(two_j))


def hl2_inner(F1: BandLimited, F2: BandLimited, rule: QuadratureRuleKC, weight: np.ndarray) -> complex:
    """integral of conj(F1) F2 * weight(|Y|) over K_C.

    ``weight`` holds a radial density against Haar measure at the rule's
    radii (e.g. the fiber-invariant heat kernel profile, times a radial
    Toeplitz symbol).  The K-integral is exact by Schur orthogonality and
    the sphere integral exact by the scalar lambda_j (``fiber_scalar``),
    so the value is sum_j Vol(K)/d_j lambda_j <c1^j, c2^j>_F with
    w_y = fiber weight * weight; only the radial sum is quadrature.
    """
    wy = rule.fiber_weights * weight
    total = 0.0 + 0.0j
    for two_j in sorted(set(F1.blocks) & set(F2.blocks)):
        lam = fiber_scalar(two_j, rule, wy)
        total += VOL_K / (two_j + 1) * lam * np.vdot(F1.blocks[two_j], F2.blocks[two_j])
    return complex(total)


def hl2_inner_pointwise(
    F1: BandLimited,
    F2: BandLimited,
    rule: QuadratureRuleKC,
    radial_weight: np.ndarray,
    symbol,
    k_rule: QuadratureRuleK,
    sphere,
) -> complex:
    """Same integral with a general pointwise symbol(g), chunked over K-nodes.

    The nodes are x * exp(i r u . X) for x on ``k_rule``, r on the rule's
    radii, where ``radial_weight`` holds the weight as in ``hl2_inner``, and
    u on the ``sphere`` pair (directions, weights summing to one) of
    ``sphere_grid``.  No CLI path calls it.  It stays as the per-node
    reference that the tests compare ``hl2_inner`` against, and because
    ``bench/spans.py`` binds to its name.
    """
    directions, direction_weights = sphere
    radial = rule.fiber_weights * radial_weight
    wy = np.outer(radial, direction_weights).reshape(-1)  # radius-major, as fiber_nodes
    kn, kw = k_rule.nodes, k_rule.weights
    fnodes = fiber_nodes(rule.radii, directions)
    total = 0.0 + 0.0j
    for part, dx, ey in _chunked_tables(kn, fnodes, set(F1.blocks) | set(F2.blocks), K_CHUNK):
        v1, v2 = _factored_values(F1, dx, ey), _factored_values(F2, dx, ey)
        g = np.einsum("xab,ybc->xyac", kn[part], fnodes)
        sym = np.asarray(symbol(g), dtype=complex)
        total += np.einsum("x,y,xy,xy->", kw[part], wy, sym, np.conj(v1) * v2)
    return complex(total)
