"""Left-invariant differential operators, their transposes, and symbols.

An operator is a finite linear combination of words in the basis vector
fields X_1, X_2, X_3.  On band-limited functions everything acts exactly on
coefficients through the representation matrices of the generators.  The
only numerical differentiation in the package lives here, in
``apply_transpose_to_nu``: nested central differences of the closed-form
fiber-invariant kernel along the holomorphic directions
X_C = (X - i JX) / 2, with Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import exp_complex, polar_radius
from .errors import StepUnderflow
from .heat import nu
from .wigner import BandLimited

Word = tuple[int, ...]


@dataclass
class LeftInvariantOperator:
    """sum_i coeff_i * X_{k_1} X_{k_2} ... X_{k_N} with words over {1, 2, 3}.

    The empty word is the identity.  Words act on functions with the
    rightmost factor applied first.
    """

    terms: list[tuple[complex, Word]] = field(default_factory=list)

    def __post_init__(self):
        clean = []
        for coeff, word in self.terms:
            word = tuple(int(k) for k in word)
            if any(k not in (1, 2, 3) for k in word):
                raise ValueError(f"word {word} has indices outside {{1,2,3}}")
            clean.append((complex(coeff), word))
        self.terms = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls) -> "LeftInvariantOperator":
        return cls([(1.0, ())])

    @classmethod
    def vector_field(cls, k: int) -> "LeftInvariantOperator":
        return cls([(1.0, (k,))])

    @classmethod
    def laplacian(cls) -> "LeftInvariantOperator":
        return cls([(1.0, (k, k)) for k in (1, 2, 3)])

    # -- algebra ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((len(w) for _, w in self.terms), default=0)

    def __add__(self, other: "LeftInvariantOperator") -> "LeftInvariantOperator":
        return LeftInvariantOperator(self.terms + other.terms)

    def __rmul__(self, scalar: complex) -> "LeftInvariantOperator":
        return LeftInvariantOperator([(scalar * c, w) for c, w in self.terms])

    def transpose(self) -> "LeftInvariantOperator":
        """(X_1 ... X_N)^tr = (-1)^N X_N ... X_1, extended linearly.

        This is the formal adjoint for the real pairing int (Af) h dx on K.
        """
        return LeftInvariantOperator(
            [(c * (-1.0) ** len(w), w[::-1]) for c, w in self.terms]
        )

    # -- action on band-limited functions -----------------------------------
    def apply(self, f: BandLimited) -> BandLimited:
        """A f, exactly on coefficients; on a holomorphic F = C_t f this is A_C F.

        The holomorphic field X_C = (X - i JX)/2 agrees with X on holomorphic
        functions, so A_C acts through the same generator matrices as A.
        """
        out = BandLimited({})
        for coeff, word in self.terms:
            out = out + coeff * f.apply_word(word)
        return out.prune(0.0)


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
    return _holomorphic_derivative(
        lambda gg: _word_derivative(fn, gg, rest, h), g, k, h
    )


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


def apply_transpose_to_nu(
    a: LeftInvariantOperator, t: float, g: np.ndarray, h: float | None = None
):
    """A_C^tr nu_t evaluated at g; the numerator of the symbol phi_{1,A}.

    The transpose is formed on words first, then each transposed word is
    applied to the closed-form kernel by nested holomorphic central
    differences.  ``g`` is one matrix or a stack (..., 2, 2), with one value
    per matrix.
    """
    if a.degree > DEGREE_CAP:
        raise ValueError(f"degree {a.degree} exceeds the cap {DEGREE_CAP}")
    if t <= 0:
        raise ValueError("t must be positive")
    g = np.asarray(g, dtype=complex)
    if h is None:
        h = 5e-3
    r = float(np.max(polar_radius(g)))
    if h < 1e-6 * (1.0 + r):
        raise StepUnderflow(f"step {h:.2e} below the resolvable scale at |Y|={r:.2f}")
    total = 0.0 + 0.0j
    for coeff, word in a.transpose().terms:
        total = total + coeff * apply_complexified_word(lambda gg: nu(t, gg), g, word, h)
    return total


def phi_identity_symbol(a: LeftInvariantOperator, t: float, g: np.ndarray):
    """phi_{1,A}(g) = (A_C^tr nu_t)(g) / nu_t(g), one value per matrix of g."""
    return apply_transpose_to_nu(a, t, g) / nu(t, np.asarray(g, dtype=complex))


def radial_symbol_table(
    a: LeftInvariantOperator, t: float, radii: np.ndarray
) -> np.ndarray:
    """phi_{1,A} along the fiber g = exp(i r X_3), one value per radius.

    For conjugation-invariant operators (powers of the Laplacian) the symbol
    is a function of |Y| alone, so this table determines it everywhere.
    Every radius is evaluated in one batch.
    """
    r = np.asarray(radii, dtype=float)
    z = np.zeros(r.shape + (3,), dtype=complex)
    z[..., 2] = 1j * r
    return np.asarray(phi_identity_symbol(a, t, exp_complex(z)), dtype=complex)
