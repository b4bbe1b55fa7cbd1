"""Heat kernels on SU(2) and SL(2,C), and exact heat flow on coefficients.

Two kernels are provided:

* ``HeatKernelK`` -- the heat kernel rho_t on K at the identity, as a
  character series evaluated from traces, cut where an explicit tail bound
  (one that also covers its analytic continuation to SL(2,C)) is small;
* ``nu_radial`` -- the fiber-invariant kernel on SL(2,C) (the heat kernel
  at the identity coset of the hyperbolic quotient), in closed form in the
  polar radius r = |Y| of g = x e^{iY}, the only variable it depends on.

Heat flow of band-limited functions is exact on Peter-Weyl coefficients
and lives with them, in ``BandLimited.heat``.

The closed form of ``nu_radial`` is ``N(t) (beta r / sinh(beta r)) exp(-r^2/t)``
with the radial Haar Jacobian ``(sinh(beta r)/beta)^2``.  The constants are
not taken on faith: ``calibrate_nu`` pins ``(beta, N(t))`` from two
independent integral identities (total mass and transform unitarity) and the
result matches the geometric prediction ``beta = 1``,
``N(t) = (pi t)^(-3/2) e^(-t/4)`` coming from curvature -1 of the quotient
under this metric normalization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import BLOCK_ELEMENTS, VOL_K, polar_rule, radial_jacobian, weyl_rule
from .errors import TruncationError
from .hl2 import hl2_inner
from .wigner import BandLimited, characters

NU_BETA = 1.0  # radial-Jacobian rate; calibrated, equals the curvature scale
# row blocks of a weighted recurrence start at multiples of this: BLAS gemv
# kernels sum their rows in groups (of 4 in OpenBLAS's dgemv_t), and a
# remainder row is summed in another order, so blocks that split a group
# would change the last bits of its rows
GEMV_ROWS = 8


def nu_normalization(t: float) -> float:
    """N(t) making the fiber-invariant kernel integrate to Vol(K).

    It is fixed by the mass identity; at beta = NU_BETA = 1 it is
    (pi t)^(-3/2) e^(-t/4).
    """
    # int_0^inf r sinh(b r) e^{-r^2/t} dr = (b t / 4) sqrt(pi t) e^{b^2 t / 4} at b = NU_BETA
    integral = (NU_BETA * t / 4.0) * np.sqrt(np.pi * t) * np.exp(NU_BETA * NU_BETA * t / 4.0)
    return 1.0 / (4.0 * np.pi * integral / NU_BETA)


def _beta_profile(br: np.ndarray) -> np.ndarray:
    """beta r / sinh(beta r), the factor of nu_radial that beta enters besides N."""
    small = br < 1e-8
    return np.where(small, 1.0 - br**2 / 6.0, br / np.sinh(np.where(small, 1.0, br)))


def nu_radial(t: float, r):
    """Radial profile of the fiber-invariant kernel at polar radius r."""
    r = np.asarray(r, dtype=float)
    return nu_normalization(t) * _beta_profile(NU_BETA * r) * np.exp(-(r**2) / t)


# ---------------------------------------------------------------------------
# the compact-group kernel rho_t
# ---------------------------------------------------------------------------

def rho_tail_bound(t: float, r: float, two_jmax: int) -> float:
    """Bound on the dropped part of the character series past two_jmax.

    Uses |chi_j(g)| <= (2j+1) e^{j r} at polar radius r.  The bound is inf
    as soon as a term or the sum would overflow: it exceeds any tolerance.
    """
    big = sys.float_info.max
    # an exponent up to ``safe`` keeps (two_j + 1)^2 e^exponent <= big at every
    # two_j the loop reaches, so only a larger one needs the exact test
    safe = math.log(big / (two_jmax + 4002) ** 2)
    total = 0.0
    two_j = two_jmax + 1
    while True:
        j = two_j / 2.0
        exponent = -t * j * (j + 1) / 2.0 + two_j * r / 2.0
        if exponent > safe and exponent > math.log(big / (two_j + 1) ** 2):
            return np.inf
        term = (two_j + 1) ** 2 * np.exp(exponent)
        if term > big - total:
            return np.inf
        total += term
        if term < 1e-24 * max(total, 1.0) or two_j > two_jmax + 4000:
            break
        two_j += 1
    return total / VOL_K


def choose_two_jmax(t: float, rmax: float = 0.0, tol: float = 1e-10) -> int:
    """The least two_jmax in [2, 4000] whose tail bound is <= tol.

    ``rho_tail_bound`` falls as two_jmax grows, so the bound is bisected on.
    """
    lo, hi = 1, 4000  # the answer lies in (lo, hi]
    if rho_tail_bound(t, rmax, hi) > tol:
        raise TruncationError(f"no certified truncation for rho at t={t}, r={rmax}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rho_tail_bound(t, rmax, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class HeatKernelK:
    """Truncated character expansion of the heat kernel on K.

    rho_t(g) = sum_j (2j+1) e^{-t j(j+1)/2} chi_j(g) / Vol(K) up to
    ``two_jmax``, which ``build`` takes from ``choose_two_jmax``.
    """

    t: float
    two_jmax: int

    @classmethod
    def build(cls, t: float, rmax: float = 0.0, tol: float = 1e-10) -> "HeatKernelK":
        return cls(t=t, two_jmax=choose_two_jmax(t, rmax, tol))

    def on_traces(self, traces: np.ndarray) -> np.ndarray:
        """Evaluate from the real traces tr(g) alone (a class function)."""
        return _recurrence(traces, [self])[0]

    def pair_on_traces(self, other: "HeatKernelK", traces: np.ndarray):
        """Evaluate this kernel and ``other`` on shared traces in one pass.

        The character recurrence dominates large class-function evaluations,
        so two kernels on the same nodes share it.
        """
        return tuple(_recurrence(traces, [self, other]))


def convolve_on_traces(traces: np.ndarray, kernel_weight_pairs):
    """Weighted kernel sums sum_q w_q rho_t(tau_pq) for several kernels.

    ``traces`` is the (p, q) matrix of traces tr(g_p h_q^{-1}) and each
    (kernel, weights) pair supplies two rows of quadrature weights over the
    q nodes: spin j is contracted against row 2j % 2.  ``ClassRuleK.fold``
    gives the rows on a rule's representative nodes; two equal rows give
    the plain sum.  One character recurrence is shared by all kernels, and
    the weights are contracted per spin so the full kernel matrix is never
    materialized.
    """
    kernels, weights = zip(*kernel_weight_pairs)
    return _recurrence(traces, kernels, weights)


def _recurrence(traces, kernels, weights=None) -> list[np.ndarray]:
    """sum_j (2j+1) e^{-t j(j+1)/2} chi_j(tau) / Vol(K) for each kernel, in one pass.

    chi_j comes from ``wigner.characters``, shared by all kernels.  With
    ``weights`` (one pair of rows per kernel over the last axis of
    ``traces``) each sum is contracted spin by spin against row 2j % 2.

    The pass walks the input in blocks of about ``BLOCK_ELEMENTS`` elements:
    row blocks of the (points x nodes) matrix when weighted (the contraction
    runs along the nodes, so rows are independent), flat slices otherwise.
    Every element goes through the same operations in the same order as in
    one whole-array pass (row blocks start at multiples of ``GEMV_ROWS``), so
    the blocks change no bit.  They keep the working set in L2: heat-check's
    folded 1000 x 173 trace matrix is 1.38 MB per whole-array buffer, and
    the four live ones would spill a 2 MB L2 on every spin step; blocks of
    184 rows, 255 kB per buffer, stay within it.
    """
    tau = np.ascontiguousarray(traces, dtype=np.float64)
    if weights is None:
        accs = [np.ones_like(tau) for _ in kernels]
        tau, outs, step = tau.reshape(-1), [acc.reshape(-1) for acc in accs], BLOCK_ELEMENTS
    else:
        accs = outs = [np.full(tau.shape[0], np.sum(w[0])) for w in weights]
        step = max(GEMV_ROWS, BLOCK_ELEMENTS // tau.shape[1] // GEMV_ROWS * GEMV_ROWS)
    # (2j+1) e^{-t j(j+1)/2} for two_j = 1, ..., two_jmax of each kernel
    coeffs = [[(two_j + 1) * np.exp(-k.t * (two_j / 2.0) * (two_j / 2.0 + 1) / 2.0)
               for two_j in range(1, k.two_jmax + 1)] for k in kernels]
    for start in range(0, len(tau), step):
        block = slice(start, start + step)
        _recurrence_block(tau[block], coeffs, weights, [out[block] for out in outs])
    return accs


def _recurrence_block(tau, coeffs, weights, accs) -> None:
    """Add the character series of one block into ``accs``: the per-spin loop of ``_recurrence``.

    Its buffers are freed on return, before the next block allocates its own.
    """
    scaled = np.empty_like(tau) if weights is None else None
    chis = characters(tau, max(len(c) for c in coeffs))
    next(chis)  # chi_0 = 1 is in the initial sums
    for two_j, chi in enumerate(chis, start=1):
        for i, (coeff, acc) in enumerate(zip(coeffs, accs)):
            if two_j > len(coeff):
                continue
            if weights is None:
                np.multiply(chi, coeff[two_j - 1], out=scaled)
                acc += scaled
            else:
                acc += coeff[two_j - 1] * (chi @ weights[i][two_j % 2])
    for acc in accs:
        acc /= VOL_K


def semigroup_sup_error(t: float, s: float, traces: np.ndarray) -> float:
    """sup |rho_t * rho_s - rho_{t+s}| over the points g with tr(g) = ``traces``.

    Both convolution orders, (rho_t * rho_s)(g) = int_K rho_t(g h^{-1})
    rho_s(h) dh and its swap, are taken on ``weyl_rule``: the integrand is a
    class function in each factor, so by the Weyl reduction

        int_K F dh = Vol(K) (2/pi) int_0^pi sin^2 b int_{-1}^{1} F dc/2 db,
        tr(g h^{-1}) = 2(cos a cos b + sin a sin b c),

    with tr(g) = 2 cos a, tr(h) = 2 cos b and c the cosine between the axes
    of g and h.  rho_t and rho_s are cut at a 2e-9 tail and rho_{t+s} at
    1e-12, so the rule is exact on the truncated series.

    The rule's node N-1-q has the negated trace of node q against every g,
    and chi_j(-tau) = (-1)^{2j} chi_j(tau) exactly, so each sum runs over
    the representative half of the nodes (``ClassRuleK.fold``): the same
    quadrature over half the trace matrix.  The node kernel values are
    formed at all N nodes and then folded.
    """
    jt = choose_two_jmax(t, 0.0, 2e-9)
    js = choose_two_jmax(s, 0.0, 2e-9)
    kt = HeatKernelK(t, jt)
    ks = HeatKernelK(s, js)
    kts = HeatKernelK.build(t + s, tol=1e-12)
    rule = weyl_rule(jt + js, max(jt, js))
    rho_s_nodes, rho_t_nodes = ks.pair_on_traces(kt, rule.traces)
    pairs = [(kt, rule.fold(rule.weights * rho_s_nodes))]
    if s != t:
        pairs.append((ks, rule.fold(rule.weights * rho_t_nodes)))
    traces = np.ascontiguousarray(traces, dtype=np.float64)
    direct = kts.on_traces(traces)
    convs = convolve_on_traces(rule.traces_against(traces), pairs)
    return max(float(np.max(np.abs(conv - direct))) for conv in convs)


# ---------------------------------------------------------------------------
# calibration of the fiber-invariant kernel
# ---------------------------------------------------------------------------

@dataclass
class CalibrationRecord:
    t: float
    beta: float
    normalization: float
    mass_residual: float
    unitarity_residuals: dict[str, float]
    analytic_normalization: float


def bracketed_root(f, a: float, b: float, *, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [a, b] by regula falsi with the Illinois modification.

    The bracket keeps a sign change throughout; an end that survives two
    steps in a row has its value halved, so both ends close in on the root.
    Stops once the bracket is narrower than ``xtol + rtol * |x|``, the
    stopping rule of ``scipy.optimize.brentq`` at the same tolerances.
    Raises ValueError when f(a) and f(b) have the same sign and
    RuntimeError after ``maxiter`` steps, as brentq does.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"f(a) and f(b) must have different signs: f({a}) = {fa}, f({b}) = {fb}")
    kept = None  # the end that survived the last step
    for _ in range(maxiter):
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
        if abs(b - a) < xtol + rtol * abs(x):
            return x
    raise RuntimeError(f"no root to tolerance after {maxiter} steps; bracket [{a}, {b}]")


def calibrate_nu(t: float) -> CalibrationRecord:
    """Pin (beta, N(t)) from the mass and unitarity identities.

    For each candidate beta the normalization is solved from the mass
    identity; beta itself is then the root in [0.6, 1.6] of the spin-1/2
    unitarity residual.  The spin-1 residual at the solution is reported as
    the overdetermined cross-check.  One polar rule, ``polar_rule(t)``,
    serves every beta: the integrands are radial, so they are arrays at its
    radii, read with its fiber weights.  The fiber weights carry
    J_1(r) = sinh(r)^2, so beta enters through the Jacobian ratio
    J_beta / J_1 = (sinh(beta r) / (beta sinh r))^2 in the weight, besides
    the profile itself.

    What does not depend on beta is computed once per call: J_1 at the
    radii, the Gaussian e^{-r^2/t}, and the spin-1/2 and spin-1 test
    functions with their transforms and norms (the rule's fiber ratios,
    read by ``hl2_inner``, are kept with the rule).  The weight
    (J_beta / J_1) nu_t at beta is computed once per beta and serves the
    mass identity and the unitarity inner product alike.
    """
    rule = polar_rule(t)
    r = rule.radii
    j_one = radial_jacobian(r)
    gauss = np.exp(-(r**2) / t)
    tests = {}
    for j in (0.5, 1.0):
        f = BandLimited.entry(j, j, j)
        tests[j] = (f.heat(t, sign=-1.0), f.norm_sq())

    def weight(beta: float):
        """(J_beta / J_1) nu_t at (beta, N) on the radii, with N from the mass identity, and N."""
        jacobian_ratio = radial_jacobian(r, beta) / j_one
        profile = _beta_profile(beta * r)
        # the mass identity at unit N; rule.integrate_radial sums K and fiber weights
        unit_mass = rule.integrate_radial(jacobian_ratio * (profile * gauss))
        normalization = VOL_K / unit_mass
        return jacobian_ratio * (normalization * profile * gauss), normalization

    def residual(w: np.ndarray, j: float) -> float:
        F, norm_sq = tests[j]
        return hl2_inner(F, F, rule, w).real / norm_sq - 1.0

    beta_star = bracketed_root(
        lambda beta: residual(weight(beta)[0], 0.5), 0.6, 1.6, xtol=1e-10, rtol=1e-12
    )
    w_star, n_star = weight(beta_star)
    mass = rule.integrate_radial(w_star)
    return CalibrationRecord(
        t=t,
        beta=beta_star,
        normalization=n_star,
        mass_residual=mass / VOL_K - 1.0,
        unitarity_residuals={"spin_half": residual(w_star, 0.5), "spin_one": residual(w_star, 1.0)},
        analytic_normalization=(np.pi * t) ** -1.5 * np.exp(-t / 4.0),
    )
