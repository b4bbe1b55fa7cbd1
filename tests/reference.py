"""Independent reference forms that the tests check the package against.

Nothing in ``src/`` imports this module; none of it is on the run path.

* Finite differences along the holomorphic directions X_C = (X - i JX) / 2:
  nested central differences of the closed-form kernel nu_t, with Richardson
  extrapolation, give the symbol phi_{1,A} = (A_C^tr nu_t) / nu_t of any
  left-invariant operator A.  They are the oracle for the closed form of
  ``diffop.radial_symbol_table``.
* The rotated path B' of the pathwise factorization identity, the reference
  for ``sde._rotated_chunks``.
* The nested-block stderr check of a Toeplitz estimate.
* The projection of Haar-rule samples onto matrix entries, the oracle for
  ``BandLimited.multiply``.
* Entry arrays stacked into matrices, for checks of ``exp_entries``.
"""

from __future__ import annotations

import numpy as np

from su2quant.algebra import VOL_K, exp_entries
from su2quant.diffop import LeftInvariantOperator, Word
from su2quant.heat import nu_radial
from su2quant.sde import BrownianPath, _check_grid, _identity, _rotated_chunks, block_estimate
from su2quant.wigner import BandLimited, wigner_matrix


class StepUnderflow(RuntimeError):
    """Finite-difference step fell below the resolvable scale."""


class StatisticalFailure(RuntimeError):
    """Monte Carlo error estimate is not converging as expected."""


# ---------------------------------------------------------------------------
# the group SL(2,C) and the kernel nu_t
# ---------------------------------------------------------------------------

def matrix_from_entries(e00, e01, e10, e11) -> np.ndarray:
    """Stack four same-shaped entry arrays into matrices (..., 2, 2)."""
    out = np.empty(np.shape(e00) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = e00, e01, e10, e11
    return out


def exp_complex(z) -> np.ndarray:
    """exp(sum_k z_k X_k) in SL(2,C) for complex coordinates z (..., 3)."""
    z = np.asarray(z, dtype=complex)
    return matrix_from_entries(*exp_entries(z.real, z.imag))


def polar_radius(g: np.ndarray) -> np.ndarray:
    """|Y| in the decomposition g = x exp(iY), from tr(g^dag g) = 2 cosh|Y|."""
    g = np.asarray(g, dtype=complex)
    t = np.einsum("...ab,...ab->...", np.conj(g), g).real
    return np.arccosh(np.maximum(t / 2.0, 1.0))


def nu(t: float, g: np.ndarray):
    """Fiber-invariant heat kernel on SL(2,C); depends only on |Y| in g = x e^{iY}."""
    return nu_radial(t, polar_radius(g))


def transpose(a: LeftInvariantOperator) -> LeftInvariantOperator:
    """(X_1 ... X_N)^tr = (-1)^N X_N ... X_1, extended linearly.

    This is the formal adjoint for the real pairing int (Af) h dx on K.
    """
    return LeftInvariantOperator([(c * (-1.0) ** len(w), w[::-1]) for c, w in a.terms])


def degree(a: LeftInvariantOperator) -> int:
    """The order of ``a``: the length of its longest word."""
    return max((len(w) for _, w in a.terms), default=0)


# ---------------------------------------------------------------------------
# finite differences along holomorphic directions
# ---------------------------------------------------------------------------

def _exp_dir(k: int, h: complex) -> np.ndarray:
    """exp(h X_k) for complex step h (h = i|h| gives the JX direction)."""
    z = np.zeros(3, dtype=complex)
    z[k - 1] = h
    return exp_complex(z)


def _holomorphic_derivative(fn, g: np.ndarray, k: int, h: float):
    """X_C fn at g, one matrix or a stack (..., 2, 2), via central differences with real step h.

    X_C = (X - i JX)/2 with X the real directional derivative along
    g exp(s X_k) and JX along g exp(i s X_k).
    """
    d_re = (fn(g @ _exp_dir(k, h)) - fn(g @ _exp_dir(k, -h))) / (2.0 * h)
    d_im = (fn(g @ _exp_dir(k, 1j * h)) - fn(g @ _exp_dir(k, -1j * h))) / (2.0 * h)
    return 0.5 * (d_re - 1j * d_im)


def _word_derivative(fn, g: np.ndarray, word: Word, h: float):
    if not word:
        return fn(g)
    k, rest = word[0], word[1:]
    return _holomorphic_derivative(lambda gg: _word_derivative(fn, gg, rest, h), g, k, h)


def apply_complexified_word(fn, g: np.ndarray, word: Word, h: float):
    """(X_C)_{k_1} ... (X_C)_{k_N} fn at g, Richardson-extrapolated.

    ``g`` is one matrix or a stack (..., 2, 2); ``fn`` maps either to one
    value per matrix.

    Central differences are O(h^2); combining steps h and h/2 removes the
    leading term, leaving O(h^4).
    """
    coarse = _word_derivative(fn, g, word, h)
    fine = _word_derivative(fn, g, word, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


DEGREE_CAP = 4


def apply_transpose_to_nu(a: LeftInvariantOperator, t: float, g: np.ndarray, h: float = 5e-3):
    """A_C^tr nu_t evaluated at g; the numerator of the symbol phi_{1,A}.

    The transpose is formed on words first, then each transposed word is
    applied to the closed-form kernel by nested holomorphic central
    differences.  ``g`` is one matrix or a stack (..., 2, 2), with one value
    per matrix.
    """
    if degree(a) > DEGREE_CAP:
        raise ValueError(f"degree {degree(a)} exceeds the cap {DEGREE_CAP}")
    if t <= 0:
        raise ValueError("t must be positive")
    g = np.asarray(g, dtype=complex)
    r = float(np.max(polar_radius(g)))
    if h < 1e-6 * (1.0 + r):
        raise StepUnderflow(f"step {h:.2e} below the resolvable scale at |Y|={r:.2f}")
    total = 0.0 + 0.0j
    for coeff, word in transpose(a).terms:
        total = total + coeff * apply_complexified_word(lambda gg: nu(t, gg), g, word, h)
    return total


def phi_identity_symbol(a: LeftInvariantOperator, t: float, g: np.ndarray):
    """phi_{1,A}(g) = (A_C^tr nu_t)(g) / nu_t(g), one value per matrix of g."""
    return apply_transpose_to_nu(a, t, g) / nu(t, np.asarray(g, dtype=complex))


def fd_radial_symbol_table(a: LeftInvariantOperator, t: float, radii) -> np.ndarray:
    """phi_{1,A} along the fiber g = exp(i r X_3) by finite differences, one value per radius.

    For conjugation-invariant operators (powers of the Laplacian) the symbol
    is a function of |Y| alone, so this table determines it everywhere.
    Every radius is evaluated in one batch.
    """
    r = np.asarray(radii, dtype=float)
    z = np.zeros(r.shape + (3,), dtype=complex)
    z[..., 2] = 1j * r
    return np.asarray(phi_identity_symbol(a, t, exp_complex(z)), dtype=complex)


# ---------------------------------------------------------------------------
# paths, block statistics and projections
# ---------------------------------------------------------------------------

def rotated_path(b, a) -> BrownianPath:
    """The path B' with dB'_k = Ad_{theta(A)_k} dB_k (left-point rule).

    Ad is an isometry, so B' has the same increment variances as B; in the
    limit its law is again Brownian, which is what makes the pathwise
    factorization identity work.
    """
    _check_grid(a, b)
    x = _identity((int(np.prod(a.batch_shape)),))
    inc = np.concatenate([db for *_, db in _rotated_chunks(b, a, x)])
    inc = np.moveaxis(inc, 0, -2).reshape(a.batch_shape + (a.n_steps, 3))
    return BrownianPath(increments=inc, sigma_sq=b.sigma_sq)


def check_convergence(est, factor: float = 1.5) -> None:
    """Verify that a Toeplitz estimate's stderr shrinks like n^{-1/2} across nested block subsets.

    Compares the block-mean spread over the first quarter, first half, and
    all blocks; each doubling should shrink the stderr by sqrt(2) within the
    given factor.  Raises StatisticalFailure otherwise.
    """
    bv = est.block_values
    if len(bv) < 16:
        raise StatisticalFailure("not enough blocks for a convergence check")
    n = len(bv)
    s4, s2, s1 = (float(block_estimate(v)[1]) for v in (bv[: n // 4], bv[: n // 2], bv))
    if s1 == 0.0:
        return  # exactly zero estimator (e.g. V~ = 0)
    for big, small in ((s4, s2), (s2, s1)):
        ratio = big / small if small > 0.0 else np.inf
        if not (np.sqrt(2.0) / factor <= ratio <= np.sqrt(2.0) * factor):
            raise StatisticalFailure(
                f"stderr ratio {ratio:.2f} outside sqrt(2) within factor {factor}"
            )


def project_onto_entries(values: np.ndarray, rule, two_jmax: int) -> BandLimited:
    """Project pointwise samples on a Haar rule onto matrix entries.

    The quadrature oracle for the Clebsch-Gordan product expansion; exact
    when the sampled function is band-limited within the rule's reach.
    """
    blocks = {}
    for two_j in range(0, two_jmax + 1):
        mats = wigner_matrix(two_j / 2.0, rule.nodes)
        proj = np.einsum("q,qmn,q->mn", rule.weights, np.conj(mats), values)
        blocks[two_j] = (two_j + 1) / VOL_K * proj
    return BandLimited(blocks).prune(1e-12)
