"""One-dimensional Euclidean baseline for the transform and Toeplitz checks.

Everything here is classical: C_t f is the analytic continuation of
e^{t Delta/2} f, unitary from L^2(R) onto the holomorphic functions square
integrable against nu_t(x+iy) = (pi t)^{-1/2} e^{-y^2/t} dx dy, and
C_t M_V C_t^{-1} = T_{V~} with V = e^{t Delta/4} V~.

Functions are carried as polynomial-times-Gaussian data, which is closed
under heat flow, so the transform is exact and all the deterministic
integrals reduce to Gauss-Hermite rules that are exact on the polynomial
part.  The module also reruns the weak Monte Carlo estimator used on the
group side, with the subelliptic endpoint law replaced by its flat
counterpart w = i eta, eta ~ N(0, t/2): this is the brute-force validation
of the Fubini reduction behind the group estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as P

from .sde import DEFAULT_N_BLOCKS, block_estimate, block_offsets, block_rng

MAX_DEGREE = 24
# highest symbol degree euclid_toeplitz_check takes
MAX_SYMBOL_DEGREE = 6
# Gauss-Hermite nodes of every x-rule here: exact on polynomial parts up to degree 119
GH_NODES = 60


@dataclass
class GaussPoly:
    """p(x) exp(-x^2 / (2 a)) with polynomial coefficients in ascending order."""

    coeffs: np.ndarray
    width: float  # a

    def __post_init__(self):
        self.coeffs = np.trim_zeros(np.asarray(self.coeffs, dtype=complex), "b")
        if len(self.coeffs) == 0:
            self.coeffs = np.zeros(1, dtype=complex)
        if len(self.coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree exceeds the cap {MAX_DEGREE}")
        if self.width <= 0:
            raise ValueError("Gaussian width must be positive")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return P.polyval(z, self.coeffs) * np.exp(-(z**2) / (2.0 * self.width))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _gaussian_moments(n_max: int, var: float) -> np.ndarray:
    """E[Z^n] for Z ~ N(0, var), n = 0..n_max."""
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    for n in range(2, n_max + 1, 2):
        out[n] = out[n - 2] * (n - 1) * var
    return out


def heat_evolve(f: GaussPoly, t: float) -> GaussPoly:
    """e^{t Delta / 2} f, exactly.

    Completing the square in the convolution with the variance-t kernel:
    the width moves a -> a + t and the polynomial becomes
    sqrt(a/(a+t)) E[p(mu + sigma Z)] with mu = a x/(a+t),
    sigma^2 = a t/(a+t), Z standard normal.
    """
    if t == 0.0:
        return GaussPoly(f.coeffs.copy(), f.width)
    a = f.width
    shrink = a / (a + t)
    var = a * t / (a + t)
    deg = f.degree
    moments = _gaussian_moments(deg, var)
    # p(mu + sigma Z) expanded: coefficient of mu^k is
    # sum_{n >= k} c_n C(n, k) E[Z^{n-k}] sigma^{n-k}; then mu = shrink * x
    new = np.zeros(deg + 1, dtype=complex)
    for n, c in enumerate(f.coeffs):
        for k in range(n + 1):
            new[k] += c * comb(n, k) * moments[n - k]
    new *= shrink ** np.arange(deg + 1)
    return GaussPoly(np.sqrt(shrink) * new, a + t)


def heat_polynomial(coeffs: np.ndarray, a: float) -> np.ndarray:
    """e^{a Delta} applied to a pure polynomial: sum_k a^k p^(2k) / k!.

    ``coeffs`` holds the ascending coefficients on its last axis, one
    polynomial or a stack of them; the result has the same shape.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    out = coeffs.copy()
    term = coeffs
    k = 0
    while term.shape[-1] > 2:
        term = _derivative(_derivative(term)) * a / (k + 1)
        k += 1
        out[..., : term.shape[-1]] += term
    return out


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """p' for ascending coefficients on the last axis, j c_j as ``P.polyder`` forms it."""
    return np.arange(1, coeffs.shape[-1]) * coeffs[..., 1:]


@dataclass
class HermiteExpansion:
    """Finite expansion in the orthonormal Hermite functions h_n on L^2(R)."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if len(self.coefficients) - 1 > MAX_DEGREE:
            raise ValueError(f"degree exceeds the cap {MAX_DEGREE}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def to_gauss_poly(self) -> GaussPoly:
        """h_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}, summed.

        H_n comes from H_{n+1} = 2x H_n - 2n H_{n-1} in integers; up to
        MAX_DEGREE every coefficient is exact in float64, and equal to
        ``numpy.polynomial.hermite.herm2poly``'s.
        """
        poly = np.zeros(max(len(self.coefficients), 1), dtype=complex)
        h_prev, h = [], [1]
        for n, c in enumerate(self.coefficients):
            if c != 0:
                norm = 1.0 / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
                poly[: n + 1] += c * norm * np.array(h, dtype=complex)
            h_prev, h = h, [2 * a - 2 * n * b for a, b in zip([0] + h, h_prev + [0, 0])]
        return GaussPoly(poly, 1.0)

    def __call__(self, x):
        return self.to_gauss_poly()(x)


def euclid_transform(t: float, f: HermiteExpansion) -> GaussPoly:
    """C_t f: heat-evolve for time t; the result evaluates on all of C."""
    if t <= 0:
        raise ValueError("t must be positive")
    return heat_evolve(f.to_gauss_poly(), t)


# ---------------------------------------------------------------------------
# Gauss-Hermite integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gh():
    """Gauss-Hermite nodes and weights for GH_NODES points, built once and read-only."""
    rule = np.polynomial.hermite.hermgauss(GH_NODES)
    for a in rule:
        a.setflags(write=False)
    return rule


def _symbol_stack(symbols) -> np.ndarray:
    """Coefficient arrays as the rows of one complex array, zero-padded to the longest.

    Zero top coefficients leave every Horner value as it is, so a symbol
    reads the same in any stack.
    """
    symbols = [np.asarray(sym, dtype=complex) for sym in symbols]
    stack = np.zeros((len(symbols), max(len(sym) for sym in symbols)), dtype=complex)
    for row, sym in zip(stack, symbols):
        row[: len(sym)] = sym
    return stack


def _symbol_values(sym_coeffs, x: np.ndarray) -> np.ndarray:
    """Values at the nodes x of a symbol (coefficients on the last axis) or a stack of them.

    Shape sym_coeffs.shape[:-1] + x.shape; no symbol (None) reads 1.
    """
    if sym_coeffs is None:
        return np.ones_like(x)
    return P.polyval(x, np.asarray(sym_coeffs, dtype=complex).T)


def l2_inner(f1: GaussPoly, f2: GaussPoly, sym_coeffs: np.ndarray | None = None):
    """int conj(f1) f2 [sym] dx on the real line, exact on the polynomial part.

    ``sym_coeffs`` is one symbol's coefficients or a stack of them (rows);
    the product conj(f1) f2 on the rule's nodes is formed once, and a stack
    gives one integral per row.
    """
    b = 2.0 * f1.width * f2.width / (f1.width + f2.width)  # e^{-x^2/b} combined
    sx = np.sqrt(b)
    u, w = _gh()
    x = sx * u
    base = w * np.conj(P.polyval(x, f1.coeffs)) * P.polyval(x, f2.coeffs)
    return (sx * np.sum(_symbol_values(sym_coeffs, x) * base, axis=-1))[()]


def hl2_flat_inner(
    F1: GaussPoly,
    F2: GaussPoly,
    t: float,
    sym_coeffs: np.ndarray | None = None,
):
    """int conj(F1) F2 [sym(Re z)] nu_t(z) dx dy over C.

    Both factors must share the width a > t (the image width of C_t is
    a = 1 + t).  The Gaussian parts combine to e^{-x^2/a} e^{-y^2 (a-t)/(ta)},
    so scaled Gauss-Hermite in x and y is exact on the polynomial part.
    ``sym_coeffs`` is one symbol or a stack of them, as in ``l2_inner``: the
    grid of conj(F1) F2 is evaluated and summed over y once, and each symbol
    only weights its x-nodes.
    """
    if abs(F1.width - F2.width) > 1e-12:
        raise ValueError("factors must share the Gaussian width")
    a = F1.width
    if a <= t:
        raise ValueError("width must exceed t for nu_t-integrability")
    sx = np.sqrt(a)
    sy = np.sqrt(t * a / (a - t))
    u, wu = _gh()
    x = sx * u
    y = sy * u
    z = x[:, None] + 1j * y[None, :]
    # conj(p1(z)) = polynomial with conjugated coefficients at conj(z)
    vals = P.polyval(np.conj(z), np.conj(F1.coeffs)) * P.polyval(z, F2.coeffs)
    rows = wu * (vals @ wu)  # the y-rule at each x-node
    total = np.sum(_symbol_values(sym_coeffs, x) * rows, axis=-1)
    return (sx * sy * total / np.sqrt(np.pi * t))[()]


# ---------------------------------------------------------------------------
# the weak Monte Carlo architecture, flat version
# ---------------------------------------------------------------------------

def _taylor_table(coeffs: np.ndarray, x: np.ndarray, step: complex) -> np.ndarray:
    """Rows step^m p^(m)(x) / m!, m = 0..deg p: the eta-coefficients of p(x + step eta)."""
    rows, der = [], np.asarray(coeffs, dtype=complex)
    for m in range(len(coeffs)):
        rows.append(P.polyval(x, der) * step**m / factorial(m))
        der = _derivative(der)
    return np.array(rows)


def _block_moments(t: float, a: float, n_powers: int, n_samples: int, master_seed: int) -> np.ndarray:
    """moments[k, b]: the mean over block b's draws eta ~ N(0, t/2) of eta^k e^{eta^2/a}, k < n_powers.

    Each block fills one power table whose rows are a running product, and
    sums its rows at once; a row sum is the 1-D sum of that row, and one
    division by the block sizes ends as ``np.mean`` does, so each moment is
    the block's 1-D mean and does not depend on how many powers are taken.
    The blocks split the samples as ``sde.block_offsets`` does.
    """
    sums = np.empty((n_powers, DEFAULT_N_BLOCKS))
    sizes = np.diff(block_offsets(n_samples, DEFAULT_N_BLOCKS))
    for b, size in enumerate(sizes):
        eta = block_rng(master_seed, b).normal(0.0, np.sqrt(t / 2.0), size=size)
        powers = np.empty((n_powers, size))
        np.exp(eta**2 / a, out=powers[0])
        for k in range(1, n_powers):
            np.multiply(powers[k - 1], eta, out=powers[k])
        np.add.reduce(powers, axis=1, out=sums[:, b])
    return sums / sizes


def flat_weak_mc(
    t: float,
    symbols,
    F1: GaussPoly,
    F2: GaussPoly,
    n_samples: int,
    master_seed: int,
) -> list[tuple[complex, float]]:
    """The group estimator's flat counterpart: (value, stderr) per symbol.

    Endpoints are w = i eta with eta ~ N(0, t/2); for each endpoint the
    x-integral int V~(x) conj(F1(x + i eta)) F2(x + i eta) dx is exact, so
    all Monte Carlo error is in the eta-average.  The polynomial part,
    sum_{m,n} A_m(x) B_n(x) eta^{m+n} with A_m = (-i)^m conj(p1)^(m)(x)/m!
    and B_n = i^n p2^(n)(x)/n!, is a polynomial in eta whose coefficients
    at each x-node are formed once.  The Gauss-Hermite x-rule then turns
    them into one row q of eta-coefficients per symbol, all symbols in one
    contraction, and each block's value is q . m with m the block's means
    of eta^k e^{eta^2/a}, one power table per block.  Every symbol in
    ``symbols`` (coefficient arrays) is averaged over one draw of the
    endpoints, through the same m, and each row is reduced on its own, so
    a symbol's result does not depend on the others.  Matching
    hl2_flat_inner validates the Fubini reduction used by the group-side
    sampler.
    """
    a = F1.width
    if abs(F2.width - a) > 1e-12:
        raise ValueError("factors must share the Gaussian width")
    u, wu = _gh()
    sx = np.sqrt(a)
    x = sx * u
    A = _taylor_table(np.conj(F1.coeffs), x, -1j)
    B = _taylor_table(F2.coeffs, x, 1j)
    # eta_poly[k, i] = sum_{m+n=k} A_m(x_i) B_n(x_i)
    eta_poly = np.zeros((len(A) + len(B) - 1, len(x)), dtype=complex)
    for m, row in enumerate(A):
        eta_poly[m : m + len(B)] += row * B
    node_weights = sx * wu * _symbol_values(_symbol_stack(symbols), x)
    qs = np.sum(node_weights[:, None, :] * eta_poly, axis=-1)  # (symbols, powers of eta)
    # conj(F1) F2 has Gaussian part e^{-(x^2 - eta^2)/a}, and the Gauss-Hermite weights hold e^{-x^2/a}
    moments = _block_moments(t, a, len(eta_poly), n_samples, master_seed)
    # summed over the powers one at a time, so each row is independent of the stack
    block_vals = np.sum(qs[:, :, None] * moments, axis=1)
    mean, stderr = block_estimate(block_vals)
    return [(complex(m), float(e)) for m, e in zip(mean, stderr)]


@dataclass
class EuclidReport:
    mc_stderr: float
    deterministic_gap: float
    mc_z_score: float


def euclid_toeplitz_check(
    t: float,
    symbols,
    f1: HermiteExpansion,
    f2: HermiteExpansion,
    n_samples: int,
    master_seed: int,
) -> list[EuclidReport]:
    """Verify <f1, V f2> = <F1, T_{V~} F2> with V = e^{t Delta/4} V~, per symbol.

    ``symbols`` holds the coefficient arrays of the V~.  The left side is an
    exact line integral; the right side is computed both by the 2-D Gauss
    rule and by the weak Monte Carlo architecture.  Each side takes one
    pass over all the symbols: the symbols form one stack, the heat flow
    acts on it at once, the products of the test functions on each rule are
    formed once, and one draw of the endpoints serves every symbol.
    """
    stack = _symbol_stack(symbols)
    if stack.shape[1] - 1 > MAX_SYMBOL_DEGREE:
        raise ValueError(f"symbol degree capped at {MAX_SYMBOL_DEGREE}")
    F1 = euclid_transform(t, f1)
    F2 = euclid_transform(t, f2)
    mcs = flat_weak_mc(t, stack, F1, F2, n_samples, master_seed)
    lhs = l2_inner(f1.to_gauss_poly(), f2.to_gauss_poly(), heat_polynomial(stack, t / 4.0))
    rhs = hl2_flat_inner(F1, F2, t, stack)
    reports = []
    for left, gap, (mc, err) in zip(lhs, np.abs(lhs - rhs), mcs):
        z = float(abs(mc - left)) / err if err > 0 else 0.0
        reports.append(EuclidReport(mc_stderr=err, deterministic_gap=float(gap), mc_z_score=z))
    return reports
