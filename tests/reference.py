"""Independent reference forms that the tests check the package against.

Nothing in ``src/`` imports this module; none of it is on the run path.

* Finite differences along the holomorphic directions X_C = (X - i JX) / 2:
  nested central differences of the closed-form kernel nu_t, with Richardson
  extrapolation, give the symbol phi_{1,A} = (A_C^tr nu_t) / nu_t of any
  left-invariant operator A.  They are the oracle for the closed form of
  ``diffop.radial_symbol_table``.
* Paths with given increments (``BrownianPath``), which drive
  ``sde.pathwise_identity_residual`` as ``sde.SampledPath`` does, and the
  rotated path B' of the pathwise factorization identity, the reference
  for ``sde._rotated_chunks``.
* The nested-block stderr check of a Toeplitz estimate.
* The projection of Haar-rule samples onto matrix entries, the oracle for
  ``BandLimited.multiply``.
* Entry arrays stacked into matrices, for checks of ``exp_entries``.
* The calibration of nu_t with every root-finder step built from scratch,
  and the Euclidean check taken one symbol at a time: the forms that
  ``heat.calibrate_nu`` and ``euclid.euclid_toeplitz_check`` reorganize
  so that each loop-invariant quantity is computed once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as P

from su2quant.algebra import VOL_K, default_cutoff, exp_entries, kc_quadrature, radial_jacobian
from su2quant.diffop import LeftInvariantOperator, Word
from su2quant.euclid import EuclidReport, _gh, euclid_transform
from su2quant.heat import CalibrationRecord, _beta_profile, bracketed_root, nu_radial
from su2quant.hl2 import hl2_inner
from su2quant.sde import (
    DEFAULT_N_BLOCKS,
    _check_grid,
    _chunk_plan,
    _identity,
    _rotated_chunks,
    block_estimate,
    block_rng,
)
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

@dataclass
class BrownianPath:
    """Algebra-valued paths on [0, 1] with given increments; leading axes of (..., n_steps, 3) index draws."""

    increments: np.ndarray
    sigma_sq: float

    @property
    def n_steps(self) -> int:
        return self.increments.shape[-2]

    @property
    def grids(self) -> tuple:
        return (self.n_steps,)

    @property
    def batch_shape(self) -> tuple:
        return self.increments.shape[:-2]

    def chunks(self):
        """The increments of each chunk of sde._chunk_plan, as (c, draws, 3) views."""
        rows = self.increments.reshape((-1,) + self.increments.shape[-2:])
        for k0, c, _ in _chunk_plan(self.grids):
            yield rows[:, k0:k0 + c].swapaxes(0, 1)


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


# ---------------------------------------------------------------------------
# calibration of nu_t, one residual evaluation at a time
# ---------------------------------------------------------------------------

def beta_weight(t: float, beta: float, normalization: float, r: np.ndarray) -> np.ndarray:
    """nu_t at (beta, N) on the radii r, as a density against the rule's beta = 1 Jacobian J_1(r) = sinh(r)^2.

    ``heat.nu_radial`` is this profile at beta = 1 and its analytic N.
    """
    profile = normalization * _beta_profile(beta * r) * np.exp(-(r**2) / t)
    return radial_jacobian(r, beta) / radial_jacobian(r) * profile


def mass_normalization(t: float, beta: float, rule) -> float:
    """N such that the mass identity holds exactly on the rule."""
    return VOL_K / rule.integrate_radial(beta_weight(t, beta, 1.0, rule.radii))


def unitarity_residual(t: float, beta: float, rule, j) -> float:
    """||C_t f||^2 / ||f||^2 - 1 for f = D^j_{jj} under nu_t at beta, every piece rebuilt."""
    weight = beta_weight(t, beta, mass_normalization(t, beta, rule), rule.radii)
    f = BandLimited.entry(j, j, j)
    F = f.heat(t, sign=-1.0)
    lhs = hl2_inner(F, F, rule, weight).real
    return lhs / f.norm_sq() - 1.0


def calibrate_nu_per_step(t: float, n_r: int) -> CalibrationRecord:
    """``heat.calibrate_nu`` with J_1, the Gaussian, the test functions and
    the weight rebuilt at every residual evaluation, on the polar rule built
    from its definition: n_r radii on [0, default_cutoff(t) + 1.5]."""
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=n_r)
    beta_star = bracketed_root(
        lambda beta: unitarity_residual(t, beta, rule, 0.5), 0.6, 1.6, xtol=1e-10, rtol=1e-12
    )
    n_star = mass_normalization(t, beta_star, rule)
    mass = rule.integrate_radial(beta_weight(t, beta_star, n_star, rule.radii))
    return CalibrationRecord(
        t=t,
        beta=beta_star,
        normalization=n_star,
        mass_residual=mass / VOL_K - 1.0,
        unitarity_residuals={
            "spin_half": unitarity_residual(t, beta_star, rule, 0.5),
            "spin_one": unitarity_residual(t, beta_star, rule, 1.0),
        },
        analytic_normalization=(np.pi * t) ** -1.5 * np.exp(-t / 4.0),
    )


# ---------------------------------------------------------------------------
# the Euclidean check, one symbol at a time
# ---------------------------------------------------------------------------

def heat_polynomial_per_term(coeffs, a: float) -> np.ndarray:
    """e^{a Delta} on one polynomial, sum_k a^k p^(2k) / k! added term by term."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = coeffs.copy()
    term = coeffs.copy()
    k = 0
    while len(term) > 2:
        term = P.polyder(term, 2) * a / (k + 1)
        k += 1
        out = P.polyadd(out, term)
    return out


def l2_inner_per_symbol(f1, f2, sym_coeffs=None) -> complex:
    """int conj(f1) f2 [sym] dx, with the product formed again for each symbol."""
    b = 2.0 * f1.width * f2.width / (f1.width + f2.width)
    sx = np.sqrt(b)
    u, w = _gh()
    x = sx * u
    vals = np.conj(P.polyval(x, f1.coeffs)) * P.polyval(x, f2.coeffs)
    if sym_coeffs is not None:
        vals = vals * P.polyval(x, np.asarray(sym_coeffs, dtype=complex))
    return complex(sx * np.dot(w, vals))


def hl2_flat_inner_per_symbol(F1, F2, t: float, sym_coeffs=None) -> complex:
    """int conj(F1) F2 [sym(Re z)] nu_t(z) dx dy, with the 60 x 60 grid evaluated for each symbol."""
    a = F1.width
    sx = np.sqrt(a)
    sy = np.sqrt(t * a / (a - t))
    u, wu = _gh()
    x = sx * u
    y = sy * u
    z = x[:, None] + 1j * y[None, :]
    vals = P.polyval(np.conj(z), np.conj(F1.coeffs)) * P.polyval(z, F2.coeffs)
    if sym_coeffs is not None:
        vals = vals * P.polyval(x, np.asarray(sym_coeffs, dtype=complex))[:, None]
    total = np.einsum("i,j,ij->", wu, wu, vals)
    return complex(sx * sy * total / np.sqrt(np.pi * t))


def block_moments_per_power(t: float, a: float, n_powers: int, n_samples: int, master_seed: int) -> np.ndarray:
    """moments[k, b] = block-b mean of eta^k e^{eta^2/a}, one np.mean per power and block."""
    moments = np.empty((n_powers, DEFAULT_N_BLOCKS))
    sizes = [len(ix) for ix in np.array_split(np.arange(n_samples), DEFAULT_N_BLOCKS)]
    for b in range(DEFAULT_N_BLOCKS):
        eta = block_rng(master_seed, b).normal(0.0, np.sqrt(t / 2.0), size=sizes[b])
        term = np.exp(eta**2 / a)
        for k in range(n_powers):
            moments[k, b] = np.mean(term)
            term *= eta
    return moments


def flat_weak_mc_per_symbol(t: float, symbols, F1, F2, n_samples: int, master_seed: int):
    """``euclid.flat_weak_mc`` with each symbol's q built by its own 60 convolutions."""
    a = F1.width
    u, wu = _gh()
    sx = np.sqrt(a)
    x = sx * u

    def taylor(coeffs, step):
        return np.array([P.polyval(x, P.polyder(coeffs, m)) * step**m / factorial(m) for m in range(len(coeffs))])

    A1 = taylor(np.conj(F1.coeffs), -1j)
    B = taylor(F2.coeffs, 1j)
    qs = []
    for sym in symbols:
        A = A1 * (sx * wu * P.polyval(x, np.asarray(sym, dtype=complex)))
        qs.append(sum(np.convolve(a, b) for a, b in zip(A.T, B.T)))
    moments = block_moments_per_power(t, a, max(len(q) for q in qs), n_samples, master_seed)
    block_vals = np.array([q @ moments[: len(q)] for q in qs])
    mean, stderr = block_estimate(block_vals)
    return [(complex(m), float(e)) for m, e in zip(mean, stderr)]


def euclid_toeplitz_check_per_symbol(t: float, symbols, f1, f2, n_samples: int, master_seed: int):
    """``euclid.euclid_toeplitz_check`` with each symbol's integrals taken in a pass of its own."""
    symbols = [np.asarray(sym, dtype=complex) for sym in symbols]
    g1 = f1.to_gauss_poly()
    g2 = f2.to_gauss_poly()
    F1 = euclid_transform(t, f1)
    F2 = euclid_transform(t, f2)
    mcs = flat_weak_mc_per_symbol(t, symbols, F1, F2, n_samples, master_seed)
    reports = []
    for sym, (mc, err) in zip(symbols, mcs):
        lhs = l2_inner_per_symbol(g1, g2, heat_polynomial_per_term(sym, t / 4.0))
        rhs = hl2_flat_inner_per_symbol(F1, F2, t, sym)
        z = abs(mc - lhs) / err if err > 0 else 0.0
        reports.append(EuclidReport(mc_stderr=err, deterministic_gap=abs(lhs - rhs), mc_z_score=z))
    return reports
