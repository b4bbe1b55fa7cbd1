"""Irreducible representations of SU(2) and the band-limited function algebra.

Representation matrices are built from the symmetric tensor power of the
defining representation, acting on degree-2j homogeneous polynomials in two
variables with the orthonormal monomial basis.  The matrix entries are then
polynomials in the entries of g, so the same code evaluates the analytic
continuation on all of SL(2,C) with no Euler-angle branch issues.

Spins are stored internally as ``two_j = 2j`` integers; the public helpers
accept half-integers (0.5, 1, 1.5, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

from .algebra import BASIS, VOL_K, QuadratureRuleK

TWO_J_CAP = 24  # j = 12; analytic continuation amplifies entries like e^{2j|Y|}


def two_j_of(j) -> int:
    two_j = int(round(2 * float(j)))
    if abs(2 * float(j) - two_j) > 1e-9:
        raise ValueError(f"spin {j} is not a half-integer")
    if two_j < 0:
        raise ValueError("spin must be nonnegative")
    if two_j > TWO_J_CAP:
        raise ValueError(
            f"spin {j} exceeds the cutoff j = {TWO_J_CAP // 2}: analytic "
            f"continuation grows like e^(2j|Im|) and backward heat flow "
            f"amplifies such coefficients past certifiable conditioning"
        )
    return two_j


def casimir_eigenvalue(j) -> float:
    """c_j with sum_k X_k^2 acting as -c_j on the spin-j block; c_j = j(j+1)."""
    two_j = int(round(2 * float(j)))
    return two_j * (two_j + 2) / 4.0


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _entry_tables(two_j: int):
    """Flattened monomial tables for the spin-j matrix entries.

    Entry (row i' = j - m', col i = j - m) is
    sqrt((j+m')!(j-m')!/((j+m)!(j-m)!)) *
    sum_k C(j+m, k) C(j-m, j+m'-k) g11^k g21^(j+m-k) g12^(j+m'-k) g22^(j-m-j-m'+k)
    """
    d = two_j + 1
    rows, cols, coefs = [], [], []
    p11, p21, p12, p22 = [], [], [], []
    for ip in range(d):  # i' = j - m'
        ap = two_j - ip  # j + m'
        bp = ip  # j - m'
        for i in range(d):
            a = two_j - i  # j + m
            b = i  # j - m
            norm = sqrt(factorial(ap) * factorial(bp) / (factorial(a) * factorial(b)))
            for k in range(max(0, ap - b), min(a, ap) + 1):
                rows.append(ip)
                cols.append(i)
                coefs.append(norm * comb(a, k) * comb(b, ap - k))
                p11.append(k)
                p21.append(a - k)
                p12.append(ap - k)
                p22.append(b - ap + k)
    flat = np.array(rows) * d + np.array(cols)
    return (
        flat,
        np.array(coefs),
        np.array(p11),
        np.array(p21),
        np.array(p12),
        np.array(p22),
    )


def wigner_matrix(j, g: np.ndarray) -> np.ndarray:
    """Spin-j representation matrix at g, vectorized over leading axes.

    ``g`` has shape (..., 2, 2); the result has shape (..., 2j+1, 2j+1) with
    rows/columns indexed by m = j, j-1, ..., -j.  For j = 1/2 this is g
    itself, and D(gh) = D(g) D(h) for all g, h in SL(2,C).
    """
    two_j = two_j_of(j)
    g = np.asarray(g, dtype=complex)
    if two_j == 0:
        return np.ones(g.shape[:-2] + (1, 1), dtype=complex)
    if two_j == 1:
        return g
    d = two_j + 1
    flat, coefs, p11, p21, p12, p22 = _entry_tables(two_j)
    batch = g.shape[:-2]
    gf = g.reshape(-1, 2, 2)
    # power tables: pw[c][p] = entry_c ** p
    pows = np.empty((4, two_j + 1, gf.shape[0]), dtype=complex)
    entries = [gf[:, 0, 0], gf[:, 1, 0], gf[:, 0, 1], gf[:, 1, 1]]
    for c, e in enumerate(entries):
        pows[c, 0] = 1.0
        for p in range(1, two_j + 1):
            pows[c, p] = pows[c, p - 1] * e
    terms = coefs[:, None] * pows[0, p11] * pows[1, p21] * pows[2, p12] * pows[3, p22]
    out = np.zeros((d * d, gf.shape[0]), dtype=complex)
    np.add.at(out, flat, terms)
    return np.moveaxis(out, -1, 0).reshape(batch + (d, d))


def character(j, g: np.ndarray):
    """Weyl character chi_j(g) = sum_k lambda^(2j - 2k), entire in g.

    lambda, 1/lambda are the eigenvalues of g; the symmetric Laurent sum is
    evaluated directly (it has no 0/0 degeneracy at lambda near +-1).
    Characters are stable at any spin, so the band-limit cap does not apply;
    heat kernel series routinely need j well past it.
    """
    two_j = int(round(2 * float(j)))
    if abs(2 * float(j) - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"spin {j} is not a nonnegative half-integer")
    g = np.asarray(g, dtype=complex)
    tr = g[..., 0, 0] + g[..., 1, 1]
    if two_j == 0:
        return np.ones_like(tr)
    lam = (tr + np.sqrt(tr * tr - 4.0 + 0j)) / 2.0
    # guard the exactly-degenerate point lambda = +-1
    degen = np.abs(lam * lam - 1.0) < 1e-14
    chi = np.zeros_like(tr)
    lam2 = lam * lam
    term = lam ** (-two_j)
    for _ in range(two_j + 1):
        chi = chi + term
        term = term * lam2
    if np.any(degen):
        sign = np.where(np.real(lam) >= 0, 1.0, -1.0)
        chi = np.where(degen, (two_j + 1) * sign**two_j, chi)
    return chi


@lru_cache(maxsize=256)
def generator_matrix(two_j: int, k: int) -> np.ndarray:
    """dpi^j(X_k), the spin-j matrix of the basis vector X_k (k in {1,2,3})."""
    d = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(d)  # index order m = j ... -j
    x = BASIS[k - 1]
    out = np.zeros((d, d), dtype=complex)
    out += np.diag(x[0, 0] * (j + m) + x[1, 1] * (j - m))
    # z2 d/dz1: e_m -> sqrt((j+m)(j-m+1)) e_{m-1}; row index of m-1 is i+1
    low = np.sqrt((j + m[:-1]) * (j - m[:-1] + 1.0))
    out[np.arange(1, d), np.arange(d - 1)] += x[1, 0] * low
    # z1 d/dz2: e_m -> sqrt((j-m)(j+m+1)) e_{m+1}
    high = np.sqrt((j - m[1:]) * (j + m[1:] + 1.0))
    out[np.arange(d - 1), np.arange(1, d)] += x[0, 1] * high
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cg_two(two_j1: int, two_j2: int, two_j: int, two_m1: int, two_m2: int) -> float:
    two_m = two_m1 + two_m2
    if abs(two_m) > two_j:
        return 0.0
    if not (abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2):
        return 0.0
    if (two_j1 + two_j2 + two_j) % 2 != 0:
        return 0.0

    def f(two_n: int) -> int:
        if two_n % 2 != 0 or two_n < 0:
            raise ValueError("non-integer factorial argument")
        return factorial(two_n // 2)

    norm2 = Fraction(
        (two_j + 1)
        * f(two_j1 + two_j2 - two_j)
        * f(two_j1 - two_j2 + two_j)
        * f(-two_j1 + two_j2 + two_j),
        f(two_j1 + two_j2 + two_j + 2),
    )
    norm2 *= (
        f(two_j + two_m)
        * f(two_j - two_m)
        * f(two_j1 + two_m1)
        * f(two_j1 - two_m1)
        * f(two_j2 + two_m2)
        * f(two_j2 - two_m2)
    )
    s = Fraction(0)
    k_lo = max(0, (two_j2 - two_j - two_m1) // 2, (two_j1 + two_m2 - two_j) // 2)
    k_hi = min(
        (two_j1 + two_j2 - two_j) // 2,
        (two_j1 - two_m1) // 2,
        (two_j2 + two_m2) // 2,
    )
    for k in range(k_lo, k_hi + 1):
        denom = (
            factorial(k)
            * f(two_j1 + two_j2 - two_j - 2 * k)
            * f(two_j1 - two_m1 - 2 * k)
            * f(two_j2 + two_m2 - 2 * k)
            * f(two_j - two_j2 + two_m1 + 2 * k)
            * f(two_j - two_j1 - two_m2 + 2 * k)
        )
        s += Fraction((-1) ** k, denom)
    return float(s) * sqrt(float(norm2))


@lru_cache(maxsize=256)
def cg_table(two_j1: int, two_j2: int, two_j: int) -> np.ndarray:
    """C[r1, r2, r] = <j1 m1; j2 m2 | j m>, indexed like the representation
    matrices (m = j ... -j); zero where m != m1 + m2 or the spins do not couple."""
    table = np.zeros((two_j1 + 1, two_j2 + 1, two_j + 1))
    for r1 in range(two_j1 + 1):
        for r2 in range(two_j2 + 1):
            two_m = two_j1 + two_j2 - 2 * (r1 + r2)
            if abs(two_m) <= two_j:
                table[r1, r2, (two_j - two_m) // 2] = _cg_two(
                    two_j1, two_j2, two_j, two_j1 - 2 * r1, two_j2 - 2 * r2
                )
    table.setflags(write=False)
    return table


def triple_integral_K(v: BandLimited, two_j1: int, two_j2: int) -> np.ndarray:
    """I[e, b, f, d] = int_K v(x) conj(D^{j1}_{eb}(x)) D^{j2}_{fd}(x) dx, exactly.

    v D^{j2}_{fd} expands by Clebsch-Gordan coupling, and Schur orthogonality
    keeps its D^{j1}_{eb} coefficient:
    I = Vol(K)/d1 sum_J sum_{g,h} v^J_{gh} C[g, f, e] C[h, d, b].
    """
    d1, d2 = two_j1 + 1, two_j2 + 1
    out = np.zeros((d1, d1, d2, d2), dtype=complex)
    for tJ, c in v.blocks.items():
        if abs(tJ - two_j2) <= two_j1 <= tJ + two_j2 and (tJ + two_j2 + two_j1) % 2 == 0:
            cg = cg_table(tJ, two_j2, two_j1)
            out += np.einsum("hfe,hdb->ebfd", np.einsum("gh,gfe->hfe", c, cg), cg)
    return VOL_K / d1 * out


# ---------------------------------------------------------------------------
# band-limited functions
# ---------------------------------------------------------------------------

@dataclass
class BandLimited:
    """Finite Peter-Weyl expansion f = sum c_{j,m,m'} D^j_{m,m'}.

    ``blocks`` maps two_j to a (2j+1, 2j+1) coefficient matrix indexed like
    the representation matrices (m = j ... -j).  All operations are exact
    coefficient algebra; quadrature enters only in tests.
    """

    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for two_j, c in self.blocks.items():
            c = np.asarray(c, dtype=complex)
            if c.shape != (two_j + 1, two_j + 1):
                raise ValueError(f"block for two_j={two_j} has shape {c.shape}")
            if two_j > TWO_J_CAP:
                raise ValueError(f"spin {two_j / 2} exceeds the cutoff j = 12")
            clean[two_j] = c
        self.blocks = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value: complex) -> "BandLimited":
        return cls({0: np.array([[value]], dtype=complex)})

    @classmethod
    def entry(cls, j, m, mp, coeff: complex = 1.0) -> "BandLimited":
        """coeff * D^j_{m,m'}; IndexError unless |m|, |m'| <= j with j - m, j - m' integers."""
        two_j = two_j_of(j)
        c = np.zeros((two_j + 1, two_j + 1), dtype=complex)
        index = []
        for two_m in (int(round(2 * float(m))), int(round(2 * float(mp)))):
            if abs(two_m) > two_j or (two_j - two_m) % 2 != 0:
                raise IndexError(f"index {two_m / 2} invalid for spin {two_j / 2}")
            index.append((two_j - two_m) // 2)
        c[tuple(index)] = coeff
        return cls({two_j: c})

    @classmethod
    def character_fn(cls, j, coeff: complex = 1.0) -> "BandLimited":
        two_j = two_j_of(j)
        return cls({two_j: coeff * np.eye(two_j + 1, dtype=complex)})

    # -- basic structure ----------------------------------------------------
    @property
    def two_jmax(self) -> int:
        return max(self.blocks, default=0)

    def copy(self) -> "BandLimited":
        return type(self)({k: v.copy() for k, v in self.blocks.items()})

    def prune(self, tol: float = 0.0) -> "BandLimited":
        return type(self)(
            {k: v for k, v in self.blocks.items() if np.max(np.abs(v)) > tol}
        )

    def __add__(self, other: "BandLimited") -> "BandLimited":
        out = {k: v.copy() for k, v in self.blocks.items()}
        for k, v in other.blocks.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self, other: "BandLimited") -> "BandLimited":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "BandLimited":
        return type(self)({k: scalar * v for k, v in self.blocks.items()})

    # -- evaluation ---------------------------------------------------------
    def __call__(self, g: np.ndarray):
        g = np.asarray(g, dtype=complex)
        vals = np.zeros(g.shape[:-2], dtype=complex)
        for two_j, c in self.blocks.items():
            mats = wigner_matrix(two_j / 2.0, g)
            vals = vals + np.einsum("mn,...mn->...", c, mats)
        return vals

    # -- exact analysis -----------------------------------------------------
    def norm_sq(self) -> float:
        """||f||^2 in L^2(K) from Schur orthogonality."""
        return sum(
            VOL_K / (two_j + 1) * float(np.sum(np.abs(c) ** 2))
            for two_j, c in self.blocks.items()
        )

    def sup_bound_K(self) -> float:
        """An upper bound for sup_K |f|: entries are bounded by 1 on K."""
        return float(sum(np.sum(np.abs(c)) for c in self.blocks.values()))

    def heat(self, tau: float, sign: float = -1.0) -> "BandLimited":
        """Multiply each block by e^(sign * tau * c_j / 2)."""
        return type(self)(
            {
                two_j: c * np.exp(sign * tau * casimir_eigenvalue(two_j / 2.0) / 2.0)
                for two_j, c in self.blocks.items()
            }
        )

    def apply_generator(self, k: int) -> "BandLimited":
        """Left-invariant derivative X_k f, exactly on coefficients.

        X D^j_{m m'}(g) = (D^j(g) dpi(X))_{m m'}, so the coefficient matrix
        maps as C -> C dpi(X)^T.
        """
        return type(self)(
            {
                two_j: c @ generator_matrix(two_j, k).T
                for two_j, c in self.blocks.items()
            }
        )

    def apply_word(self, word: tuple[int, ...]) -> "BandLimited":
        """Apply the composition X_{k1} X_{k2} ... X_{kN} (rightmost first)."""
        out = self
        for k in reversed(word):
            out = out.apply_generator(k)
        return out

    def multiply(self, other: "BandLimited") -> "BandLimited":
        """Pointwise product, expanded through Clebsch-Gordan coupling.

        D^{j1}_{m1 n1} D^{j2}_{m2 n2} = sum_J sum_{M,N} C[m1,m2,M] C[n1,n2,N] D^J_{MN},
        so the spin-J block of the product is C^T (c1 (x) c2) C.
        """
        out: dict[int, np.ndarray] = {}
        for tj1, c1 in self.blocks.items():
            for tj2, c2 in other.blocks.items():
                pair = np.kron(c1, c2)
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    cg = cg_table(tj1, tj2, tJ).reshape(-1, tJ + 1)
                    blk = cg.T @ pair @ cg
                    if tJ > TWO_J_CAP and np.any(blk != 0):
                        raise ValueError("product exceeds the spin cutoff")
                    out[tJ] = out.get(tJ, 0) + blk
        return type(self)(out).prune(0.0)


class HolomorphicObservable(BandLimited):
    """Band-limited expansion read as an entire function on SL(2,C).

    Evaluation is inherited unchanged: matrix entries are polynomials in the
    entries of g, so the restriction to K is the BandLimited value and the
    extension is the unique analytic continuation.
    """


def inner_product_K(f1: BandLimited, f2: BandLimited) -> complex:
    """<f1, f2> over L^2(K), conjugate-linear in f1, via Schur orthogonality."""
    total = 0.0 + 0.0j
    for two_j, c1 in f1.blocks.items():
        c2 = f2.blocks.get(two_j)
        if c2 is not None:
            total += VOL_K / (two_j + 1) * np.sum(np.conj(c1) * c2)
    return complex(total)


def project_onto_entries(
    values: np.ndarray, rule: QuadratureRuleK, two_jmax: int
) -> BandLimited:
    """Project pointwise samples on a Haar rule onto matrix entries.

    Used as the quadrature oracle for the Clebsch-Gordan product expansion;
    exact when the sampled function is band-limited within the rule's reach.
    """
    blocks = {}
    for two_j in range(0, two_jmax + 1):
        mats = wigner_matrix(two_j / 2.0, rule.nodes)
        proj = np.einsum("q,qmn,q->mn", rule.weights, np.conj(mats), values)
        blocks[two_j] = (two_j + 1) / VOL_K * proj
    return BandLimited(blocks).prune(1e-12)
