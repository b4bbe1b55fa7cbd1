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
from numpy.polynomial import hermite as H
from numpy.polynomial import polynomial as P

DEGREE_CAP = 24


@dataclass
class GaussPoly:
    """p(x) exp(-x^2 / (2 a)) with polynomial coefficients in ascending order."""

    coeffs: np.ndarray
    width: float  # a

    def __post_init__(self):
        self.coeffs = np.trim_zeros(np.asarray(self.coeffs, dtype=complex), "b")
        if len(self.coeffs) == 0:
            self.coeffs = np.zeros(1, dtype=complex)
        if len(self.coeffs) - 1 > DEGREE_CAP:
            raise ValueError(f"degree exceeds the cap {DEGREE_CAP}")
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
    """e^{a Delta} applied to a pure polynomial: sum_k a^k p^(2k) / k!."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = coeffs.copy()
    term = coeffs.copy()
    k = 0
    while len(term) > 2:
        term = P.polyder(term, 2) * a / (k + 1)
        k += 1
        out = P.polyadd(out, term)
    return out


@dataclass
class HermiteExpansion:
    """Finite expansion in the orthonormal Hermite functions h_n on L^2(R)."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if len(self.coefficients) - 1 > DEGREE_CAP:
            raise ValueError(f"degree exceeds the cap {DEGREE_CAP}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def to_gauss_poly(self) -> GaussPoly:
        """h_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}, summed."""
        poly = np.zeros(1, dtype=complex)
        for n, c in enumerate(self.coefficients):
            if c == 0:
                continue
            hn = H.herm2poly([0.0] * n + [1.0])
            norm = 1.0 / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
            poly = P.polyadd(poly, c * norm * np.asarray(hn, dtype=complex))
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
def _gh(n: int):
    """Gauss-Hermite nodes and weights for n points, built once per n and read-only."""
    rule = np.polynomial.hermite.hermgauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def l2_inner(
    f1: GaussPoly, f2: GaussPoly, sym_coeffs: np.ndarray | None = None, n: int = 60
) -> complex:
    """int conj(f1) f2 [sym] dx on the real line, exact on the polynomial part."""
    b = 2.0 * f1.width * f2.width / (f1.width + f2.width)  # e^{-x^2/b} combined
    sx = np.sqrt(b)
    u, w = _gh(n)
    x = sx * u
    vals = np.conj(P.polyval(x, f1.coeffs)) * P.polyval(x, f2.coeffs)
    if sym_coeffs is not None:
        vals = vals * P.polyval(x, np.asarray(sym_coeffs, dtype=complex))
    return complex(sx * np.dot(w, vals))


def hl2_flat_inner(
    F1: GaussPoly,
    F2: GaussPoly,
    t: float,
    sym_coeffs: np.ndarray | None = None,
    n: int = 60,
) -> complex:
    """int conj(F1) F2 [sym(Re z)] nu_t(z) dx dy over C.

    Both factors must share the width a > t (the image width of C_t is
    a = 1 + t).  The Gaussian parts combine to e^{-x^2/a} e^{-y^2 (a-t)/(ta)},
    so scaled Gauss-Hermite in x and y is exact on the polynomial part.
    """
    if abs(F1.width - F2.width) > 1e-12:
        raise ValueError("factors must share the Gaussian width")
    a = F1.width
    if a <= t:
        raise ValueError("width must exceed t for nu_t-integrability")
    sx = np.sqrt(a)
    sy = np.sqrt(t * a / (a - t))
    u, wu = _gh(n)
    x = sx * u
    y = sy * u
    z = x[:, None] + 1j * y[None, :]
    # conj(p1(z)) = polynomial with conjugated coefficients at conj(z)
    vals = P.polyval(np.conj(z), np.conj(F1.coeffs)) * P.polyval(z, F2.coeffs)
    if sym_coeffs is not None:
        vals = vals * P.polyval(x, np.asarray(sym_coeffs, dtype=complex))[:, None]
    total = np.einsum("i,j,ij->", wu, wu, vals)
    return complex(sx * sy * total / np.sqrt(np.pi * t))


# ---------------------------------------------------------------------------
# the weak Monte Carlo architecture, flat version
# ---------------------------------------------------------------------------

def _taylor_table(coeffs: np.ndarray, x: np.ndarray, step: complex) -> np.ndarray:
    """Rows step^m p^(m)(x) / m!, m = 0..deg p: the eta-coefficients of p(x + step eta)."""
    return np.array([P.polyval(x, P.polyder(coeffs, m)) * step**m / factorial(m) for m in range(len(coeffs))])


def flat_weak_mc(
    t: float,
    symbols,
    F1: GaussPoly,
    F2: GaussPoly,
    n_samples: int,
    master_seed: int,
    n_blocks: int = 40,
    n_x: int = 60,
) -> list[tuple[complex, float]]:
    """The group estimator's flat counterpart: (value, stderr) per symbol.

    Endpoints are w = i eta with eta ~ N(0, t/2); for each endpoint the
    x-integral int V~(x) conj(F1(x + i eta)) F2(x + i eta) dx is exact, so
    all Monte Carlo error is in the eta-average.  The polynomial part,
    sum_{m,n} A_m(x) B_n(x) eta^{m+n} with A_m = (-i)^m conj(p1)^(m)(x)/m!
    and B_n = i^n p2^(n)(x)/n!, is a polynomial in eta: the Gauss-Hermite
    x-rule is applied once per symbol, to its coefficients, and each
    endpoint costs one real polyval per symbol.  Every symbol in
    ``symbols`` (coefficient arrays) is averaged over one draw of the
    endpoints.  Matching hl2_flat_inner validates the Fubini reduction used
    by the group-side sampler.
    """
    a = F1.width
    if abs(F2.width - a) > 1e-12:
        raise ValueError("factors must share the Gaussian width")
    u, wu = _gh(n_x)
    sx = np.sqrt(a)
    x = sx * u
    A1 = _taylor_table(np.conj(F1.coeffs), x, -1j)
    B = _taylor_table(F2.coeffs, x, 1j)
    qs = []
    for sym in symbols:
        A = A1 * (sx * wu * P.polyval(x, np.asarray(sym, dtype=complex)))
        qs.append(sum(np.convolve(a, b) for a, b in zip(A.T, B.T)))  # q_k: x-rule on sum_{m+n=k} A_m B_n
    block_vals = np.empty((len(qs), n_blocks), dtype=complex)
    sizes = [len(ix) for ix in np.array_split(np.arange(n_samples), n_blocks)]
    for b in range(n_blocks):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master_seed, spawn_key=(b,))
        )
        eta = rng.normal(0.0, np.sqrt(t / 2.0), size=sizes[b])
        # Gaussian part of conj(F1) F2 is e^{-(x^2 - eta^2)/a}; the e^{-x^2/a}
        # half lives in the Gauss-Hermite weights, leaving e^{+eta^2/a} here
        gauss = np.exp(eta**2 / a)
        for i, q in enumerate(qs):
            block_vals[i, b] = np.mean(P.polyval(eta, q) * gauss)
    return [
        (
            complex(np.mean(v)),
            float(np.sqrt((np.var(v.real, ddof=1) + np.var(v.imag, ddof=1)) / n_blocks)),
        )
        for v in block_vals
    ]


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
    n_samples: int = 200000,
    master_seed: int = 2024,
) -> list[EuclidReport]:
    """Verify <f1, V f2> = <F1, T_{V~} F2> with V = e^{t Delta/4} V~, per symbol.

    ``symbols`` holds the coefficient arrays of the V~.  For each, the left
    side is an exact line integral; the right side is computed both by the
    2-D Gauss rule and by the weak Monte Carlo architecture, whose one draw
    of the endpoints serves every symbol.
    """
    symbols = [np.asarray(sym, dtype=complex) for sym in symbols]
    if any(len(sym) - 1 > 6 for sym in symbols):
        raise ValueError("symbol degree capped at 6")
    g1 = f1.to_gauss_poly()
    g2 = f2.to_gauss_poly()
    F1 = euclid_transform(t, f1)
    F2 = euclid_transform(t, f2)
    mcs = flat_weak_mc(t, symbols, F1, F2, n_samples, master_seed)
    reports = []
    for sym, (mc, err) in zip(symbols, mcs):
        lhs = l2_inner(g1, g2, heat_polynomial(sym, t / 4.0))
        rhs = hl2_flat_inner(F1, F2, t, sym)
        gap = abs(lhs - rhs)
        z = abs(mc - lhs) / err if err > 0 else 0.0
        reports.append(EuclidReport(mc_stderr=err, deterministic_gap=gap, mc_z_score=z))
    return reports
