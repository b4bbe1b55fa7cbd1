"""Left-invariant differential operators and the Laplacian's Toeplitz symbol.

An operator is a finite linear combination of words in the basis vector
fields X_1, X_2, X_3.  On band-limited functions everything acts exactly on
coefficients through the representation matrices of the generators.

The differential-operator theorem writes the symbol of A as
phi_{1,A} = (A_C^tr nu_t) / nu_t, with X_C = (X - i JX) / 2 the holomorphic
field.  For the Laplacian it has a closed form.  nu_t depends on
g = x e^{iY} only through tr(g^dag g) = 2 cosh|Y|, so it is right
K-invariant: X_k nu = 0, and X_k commutes with JX_k, which leaves
Delta_C^tr nu = -1/4 sum_k (JX_k)^2 nu = -1/4 Delta_{H^3} nu, the Laplacian
of the quotient SL(2,C)/SU(2) = H^3 (curvature -1, r = |Y| its distance to
the base point).  There nu_t is, up to a factor in t alone, the heat kernel
p_s(r) = (4 pi s)^(-3/2) (r / sinh r) e^{-s - r^2/(4s)} at s = t/4, and
Delta_{H^3} p_s = d/ds p_s gives

    phi_{1,Delta}(r) = -1/4 d/ds log p_s = 1/4 + 3/(2t) - r^2/t^2.

The tests check this against nested holomorphic central differences of nu_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    def __add__(self, other: "LeftInvariantOperator") -> "LeftInvariantOperator":
        return LeftInvariantOperator(self.terms + other.terms)

    def __rmul__(self, scalar: complex) -> "LeftInvariantOperator":
        return LeftInvariantOperator([(scalar * c, w) for c, w in self.terms])

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


def radial_symbol_table(t: float, radii) -> np.ndarray:
    """The Laplacian's symbol phi_{1,Delta} = 1/4 + 3/(2t) - r^2/t^2 at the polar radii r.

    It is a function of |Y| alone, so this table determines it everywhere.
    """
    r = np.asarray(radii, dtype=float)
    return 0.25 + 1.5 / t - r**2 / t**2
