"""Inner products over SL(2,C) against radial weights, on factored rules.

The polar product rules keep nodes as pairs ``g = x * exp(iY)``, and
``D^j(g) = D^j(x) D^j(exp(iY))``.  Against a radial weight, Schur
orthogonality on K does the x-integral exactly, leaving one fiber Gram
matrix per spin (``hl2_inner``); only a general pointwise symbol needs the
K-nodes (``hl2_inner_pointwise``, chunked over them).
"""

from __future__ import annotations

import numpy as np

from .algebra import QuadratureRuleKC, VOL_K
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


def _chunked_tables(rule: QuadratureRuleKC, spins: set[int], chunk: int):
    """(K-node slice, {2j: D^j(x)} on that slice, {2j: D^j(exp iY)}) per chunk of K-nodes.

    Callers evaluate one chunk at a time: on large fiber rules a full
    (n_x, n_y) table of values runs to hundreds of MB.
    """
    dx = {two_j: wigner_matrix(two_j / 2.0, rule.k_rule.nodes) for two_j in spins}
    ey = {two_j: wigner_matrix(two_j / 2.0, rule.fiber_nodes) for two_j in spins}
    for start in range(0, len(rule.k_rule.weights), chunk):
        part = slice(start, start + chunk)
        yield part, {two_j: d[part] for two_j, d in dx.items()}, ey


def fiber_gram(two_j: int, rule: QuadratureRuleKC, wy: np.ndarray) -> np.ndarray:
    """G = sum_y w_y D^j(exp iY_y)^dagger D^j(exp iY_y), as one matmul over the rows (y, k)."""
    d = two_j + 1
    e = wigner_matrix(two_j / 2.0, rule.fiber_nodes).reshape(-1, d)
    return (np.conj(e).T * np.repeat(wy, d)) @ e


def hl2_inner(
    F1: BandLimited,
    F2: BandLimited,
    rule: QuadratureRuleKC,
    radial_weight,
    radial_symbol=None,
) -> complex:
    """integral of conj(F1) F2 * weight(|Y|) [* symbol(|Y|)] over K_C.

    ``radial_weight`` is the density against Haar measure (e.g. the
    fiber-invariant heat kernel profile); ``radial_symbol`` optionally
    multiplies in a radial Toeplitz symbol.  Only the fiber part of the
    rule is read: Schur orthogonality does the K-integral exactly for every
    spin, giving sum_j Vol(K)/d_j sum_ab conj(c1^j)_ab (c2^j G_j^T)_ab with
    G_j = ``fiber_gram`` at w_y = fiber weight * weight [* symbol].
    """
    wy = rule.fiber_weights * np.asarray(radial_weight(rule.radii), dtype=float)
    if radial_symbol is not None:
        wy = wy * np.asarray(radial_symbol(rule.radii), dtype=complex)
    total = 0.0 + 0.0j
    for two_j in sorted(set(F1.blocks) & set(F2.blocks)):
        c2g = F2.blocks[two_j] @ fiber_gram(two_j, rule, wy).T
        total += VOL_K / (two_j + 1) * np.sum(np.conj(F1.blocks[two_j]) * c2g)
    return complex(total)


def hl2_inner_pointwise(
    F1: BandLimited,
    F2: BandLimited,
    rule: QuadratureRuleKC,
    radial_weight,
    symbol,
    chunk: int = K_CHUNK,
) -> complex:
    """Same integral with a general pointwise symbol(g), chunked over K-nodes."""
    wy = rule.fiber_weights * np.asarray(radial_weight(rule.radii), dtype=float)
    kn, kw = rule.k_rule.nodes, rule.k_rule.weights
    fnodes = rule.fiber_nodes
    total = 0.0 + 0.0j
    for part, dx, ey in _chunked_tables(rule, set(F1.blocks) | set(F2.blocks), chunk):
        v1, v2 = _factored_values(F1, dx, ey), _factored_values(F2, dx, ey)
        g = np.einsum("xab,ybc->xyac", kn[part], fnodes)
        sym = np.asarray(symbol(g), dtype=complex)
        total += np.einsum("x,y,xy,xy->", kw[part], wy, sym, np.conj(v1) * v2)
    return complex(total)
