"""Heat kernels on SU(2) and SL(2,C), and exact heat flow on coefficients.

Three kernels are provided:

* ``rho`` -- the heat kernel on K at the identity, as a character series,
  together with its analytic continuation to SL(2,C) and an explicit tail
  certificate for the truncation;
* ``nu`` -- the fiber-invariant kernel on SL(2,C) (the heat kernel at the
  identity coset of the hyperbolic quotient), in closed radial form;
* ``heat_flow`` -- forward/backward heat evolution of band-limited
  functions, exact on Peter-Weyl coefficients.

The closed form of ``nu`` is ``N(t) (beta r / sinh(beta r)) exp(-r^2/t)``
with the radial Haar Jacobian ``(sinh(beta r)/beta)^2``.  The constants are
not taken on faith: ``calibrate_nu`` pins ``(beta, N(t))`` from two
independent integral identities (total mass and transform unitarity) and the
result matches the geometric prediction ``beta = 1``,
``N(t) = (pi t)^(-3/2) e^(-t/4)`` coming from curvature -1 of the quotient
under this metric normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .algebra import VOL_K, kc_quadrature, polar_radius, default_cutoff, weyl_rule
from .errors import IllConditioned, TruncationError
from .hl2 import hl2_inner
from .wigner import BandLimited, character, _casimir_two

NU_BETA = 1.0  # radial-Jacobian rate; calibrated, equals the curvature scale


def nu_normalization(t: float, beta: float = NU_BETA) -> float:
    """N(t) making the fiber-invariant kernel integrate to Vol(K).

    For general beta this is fixed by the mass identity; at beta = 1 it
    reduces to (pi t)^(-3/2) e^(-t/4).
    """
    # int_0^inf r sinh(b r) e^{-r^2/t} dr = (b t / 4) sqrt(pi t) e^{b^2 t / 4}
    b = beta
    integral = (b * t / 4.0) * np.sqrt(np.pi * t) * np.exp(b * b * t / 4.0)
    return 1.0 / (4.0 * np.pi * integral / b)


def nu_radial(t: float, r, beta: float = NU_BETA, normalization: float | None = None):
    """Radial profile of the fiber-invariant kernel at polar radius r."""
    r = np.asarray(r, dtype=float)
    n0 = nu_normalization(t, beta) if normalization is None else normalization
    br = beta * r
    small = br < 1e-8
    ratio = np.where(small, 1.0 - br**2 / 6.0, br / np.sinh(np.where(small, 1.0, br)))
    return n0 * ratio * np.exp(-(r**2) / t)


def nu(t: float, g: np.ndarray):
    """Fiber-invariant heat kernel on SL(2,C); depends only on |Y| in g = x e^{iY}."""
    return nu_radial(t, polar_radius(g))


# ---------------------------------------------------------------------------
# the compact-group kernel rho_t
# ---------------------------------------------------------------------------

def rho_tail_bound(t: float, r: float, two_jmax: int) -> float:
    """Bound on the dropped part of the character series past two_jmax.

    Uses |chi_j(g)| <= (2j+1) e^{j r} at polar radius r.
    """
    total = 0.0
    two_j = two_jmax + 1
    while True:
        j = two_j / 2.0
        term = (two_j + 1) ** 2 * np.exp(-t * j * (j + 1) / 2.0 + two_j * r / 2.0)
        total += term
        if term < 1e-24 * max(total, 1.0) or two_j > two_jmax + 4000:
            break
        two_j += 1
    return total / VOL_K


def choose_two_jmax(t: float, rmax: float = 0.0, tol: float = 1e-10) -> int:
    two_j = 2
    while rho_tail_bound(t, rmax, two_j) > tol:
        two_j += 1
        if two_j > 4000:
            raise TruncationError(
                f"no certified truncation for rho at t={t}, r={rmax}"
            )
    return two_j


@dataclass
class HeatKernelK:
    """Truncated character expansion of the heat kernel on K.

    rho_t(g) = sum_j (2j+1) e^{-t j(j+1)/2} chi_j(g) / Vol(K), valid (with
    the stored tail certificate) out to polar radius ``rmax`` on SL(2,C).
    """

    t: float
    two_jmax: int
    rmax: float
    tail: float

    @classmethod
    def build(cls, t: float, rmax: float = 0.0, tol: float = 1e-10) -> "HeatKernelK":
        two_jmax = choose_two_jmax(t, rmax, tol)
        return cls(t=t, two_jmax=two_jmax, rmax=rmax, tail=rho_tail_bound(t, rmax, two_jmax))

    def __call__(self, g: np.ndarray):
        g = np.asarray(g, dtype=complex)
        vals = np.zeros(g.shape[:-2], dtype=complex)
        for two_j in range(self.two_jmax + 1):
            j = two_j / 2.0
            coeff = (two_j + 1) * np.exp(-self.t * j * (j + 1) / 2.0)
            vals = vals + coeff * character(j, g)
        return vals / VOL_K

    def on_traces(self, traces: np.ndarray) -> np.ndarray:
        """Evaluate from tr(g) alone (class function); real for real traces.

        Uses the Chebyshev-type recurrence chi_{j+1/2} = tr * chi_j - chi_{j-1/2}
        so large node sets cost one fused pass per spin.
        """
        tau = np.asarray(traces)
        if tau.dtype == np.float64 and tau.flags.c_contiguous:
            # buffer-reusing pass: large node sets would otherwise spend
            # most of the time allocating temporaries
            chi_prev = np.zeros_like(tau)
            chi = np.ones_like(tau)
            acc = np.ones_like(tau)
            scaled = np.empty_like(tau)
            for two_j in range(1, self.two_jmax + 1):
                np.multiply(tau, chi, out=scaled)
                scaled -= chi_prev
                chi_prev, chi, scaled = chi, scaled, chi_prev
                j = two_j / 2.0
                coeff = (two_j + 1) * np.exp(-self.t * j * (j + 1) / 2.0)
                np.multiply(chi, coeff, out=scaled)
                acc += scaled
            acc /= VOL_K
            return acc
        chi_prev = np.zeros_like(tau)  # chi at two_j = -1 (defined as 0)
        chi = np.ones_like(tau)  # two_j = 0
        acc = np.exp(-self.t * 0.0) * chi.copy()
        for two_j in range(1, self.two_jmax + 1):
            chi, chi_prev = tau * chi - chi_prev, chi
            j = two_j / 2.0
            acc = acc + (two_j + 1) * np.exp(-self.t * j * (j + 1) / 2.0) * chi
        return acc / VOL_K

    def pair_on_traces(self, other: "HeatKernelK", traces: np.ndarray):
        """Evaluate this kernel and ``other`` on shared traces in one pass.

        The character recurrence dominates large class-function evaluations,
        so two kernels on the same nodes share it.
        """
        tau = np.ascontiguousarray(traces, dtype=np.float64)
        chi_prev = np.zeros_like(tau)
        chi = np.ones_like(tau)
        acc_a = np.ones_like(tau)
        acc_b = np.ones_like(tau)
        scaled = np.empty_like(tau)
        for two_j in range(1, max(self.two_jmax, other.two_jmax) + 1):
            np.multiply(tau, chi, out=scaled)
            scaled -= chi_prev
            chi_prev, chi, scaled = chi, scaled, chi_prev
            j = two_j / 2.0
            if two_j <= self.two_jmax:
                np.multiply(chi, (two_j + 1) * np.exp(-self.t * j * (j + 1) / 2.0),
                            out=scaled)
                acc_a += scaled
            if two_j <= other.two_jmax:
                np.multiply(chi, (two_j + 1) * np.exp(-other.t * j * (j + 1) / 2.0),
                            out=scaled)
                acc_b += scaled
        acc_a /= VOL_K
        acc_b /= VOL_K
        return acc_a, acc_b


def convolve_on_traces(traces: np.ndarray, kernel_weight_pairs):
    """Weighted kernel sums sum_q w_q rho_t(tau_pq) for several kernels.

    ``traces`` is the (p, q) matrix of traces tr(g_p h_q^{-1}) and each
    (kernel, weights) pair supplies quadrature weights over the q nodes.
    One character recurrence is shared by all kernels, and the weights are
    contracted per spin so the full kernel matrix is never materialized.
    """
    tau = np.ascontiguousarray(traces, dtype=np.float64)
    chi_prev = np.zeros_like(tau)
    chi = np.ones_like(tau)
    tmp = np.empty_like(tau)
    outs = [np.full(tau.shape[0], np.sum(w)) for _, w in kernel_weight_pairs]
    jmax = max(k.two_jmax for k, _ in kernel_weight_pairs)
    for two_j in range(1, jmax + 1):
        np.multiply(tau, chi, out=tmp)
        tmp -= chi_prev
        chi_prev, chi, tmp = chi, tmp, chi_prev
        j = two_j / 2.0
        for out, (kern, w) in zip(outs, kernel_weight_pairs):
            if two_j <= kern.two_jmax:
                coeff = (two_j + 1) * np.exp(-kern.t * j * (j + 1) / 2.0)
                out += coeff * (chi @ w)
    return [out / VOL_K for out in outs]


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
    """
    jt = choose_two_jmax(t, 0.0, 2e-9)
    js = choose_two_jmax(s, 0.0, 2e-9)
    kt = HeatKernelK(t, jt, 0.0, 0.0)
    ks = HeatKernelK(s, js, 0.0, 0.0)
    kts = HeatKernelK.build(t + s, tol=1e-12)
    rule = weyl_rule(jt + js, max(jt, js))
    rho_s_nodes, rho_t_nodes = ks.pair_on_traces(kt, rule.traces)
    pairs = [(kt, rule.weights * rho_s_nodes)]
    if s != t:
        pairs.append((ks, rule.weights * rho_t_nodes))
    traces = np.ascontiguousarray(traces, dtype=np.float64)
    direct = kts.on_traces(traces)
    convs = convolve_on_traces(rule.traces_against(traces), pairs)
    return max(float(np.max(np.abs(conv - direct))) for conv in convs)


def rho(t: float, g: np.ndarray, two_jmax: int | None = None, tol: float = 1e-8):
    """Heat kernel on K, analytically continued; certificate-checked.

    Returns ``(values, tail_bound)``; raises TruncationError when the tail
    bound at the largest polar radius present exceeds ``tol``.
    """
    g = np.asarray(g, dtype=complex)
    rmax = float(np.max(polar_radius(g))) if g.size else 0.0
    if two_jmax is None:
        two_jmax = choose_two_jmax(t, rmax, tol)
    kern = HeatKernelK(t=t, two_jmax=two_jmax, rmax=rmax, tail=rho_tail_bound(t, rmax, two_jmax))
    if kern.tail > tol:
        raise TruncationError(
            f"tail bound {kern.tail:.2e} exceeds {tol:.1e} at radius {rmax:.2f}"
        )
    return kern(g), kern.tail


# ---------------------------------------------------------------------------
# heat flow on band-limited functions
# ---------------------------------------------------------------------------

BACKWARD_AMPLIFICATION_GUARD = 1e6


def heat_flow(tau: float, f: BandLimited, direction: str = "forward") -> BandLimited:
    """e^{+-tau Delta/2} on coefficients: multiply block j by e^{-+tau c_j/2}.

    Backward flow refuses to amplify the top block by more than 1e6; very
    irregular data has no usable backward image.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if direction == "forward":
        return f.heat(tau, sign=-1.0)
    if direction != "backward":
        raise ValueError(f"unknown direction {direction!r}")
    amp = np.exp(tau * _casimir_two(f.two_jmax) / 2.0)
    if amp > BACKWARD_AMPLIFICATION_GUARD:
        raise IllConditioned(
            f"backward flow would amplify spin-{f.two_jmax / 2} coefficients "
            f"by {amp:.2e} (guard {BACKWARD_AMPLIFICATION_GUARD:.0e})"
        )
    return f.heat(tau, sign=+1.0)


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
    analytic_beta: float
    analytic_normalization: float


def _mass_normalization(t: float, beta: float, rule) -> float:
    """N with unit such that the mass identity holds exactly on the rule."""
    radial = rule.integrate_radial(
        lambda r: np.where(
            beta * r < 1e-8, 1.0, beta * r / np.sinh(beta * r)
        )
        * np.exp(-(r**2) / t)
    )
    # rule.integrate_radial already sums K and fiber weights (mass Vol*4pi*I)
    return VOL_K / radial


def _unitarity_residual(t: float, beta: float, rule, j) -> float:
    n0 = _mass_normalization(t, beta, rule)

    def weight(r):
        br = beta * np.asarray(r)
        ratio = np.where(br < 1e-8, 1.0, br / np.sinh(np.where(br < 1e-8, 1.0, br)))
        return n0 * ratio * np.exp(-(np.asarray(r) ** 2) / t)

    f = BandLimited.entry(j, j, j)
    F = f.heat(t, sign=-1.0)
    lhs = hl2_inner(F, F, rule, weight).real
    return lhs / f.norm_sq() - 1.0


def calibrate_nu(
    t: float,
    beta_bracket: tuple[float, float] = (0.6, 1.6),
    n_r: int = 64,
    n_theta: int = 20,
    n_phi: int = 20,
) -> CalibrationRecord:
    """Pin (beta, N(t)) from the mass and unitarity identities.

    For each candidate beta the normalization is solved from the mass
    identity; beta itself is then the root of the spin-1/2 unitarity
    residual.  The spin-1 residual at the solution is reported as the
    overdetermined cross-check.
    """
    R = default_cutoff(t) + 1.5

    def residual(beta: float) -> float:
        rule = kc_quadrature(R, k_two_jmax=1, n_r=n_r, n_theta=n_theta, n_phi=n_phi, beta=beta)
        return _unitarity_residual(t, beta, rule, 0.5)

    beta_star = brentq(residual, *beta_bracket, xtol=1e-10, rtol=1e-12)
    rule = kc_quadrature(
        R, k_two_jmax=2, n_r=n_r, n_theta=n_theta, n_phi=n_phi, beta=beta_star
    )
    n_star = _mass_normalization(t, beta_star, rule)
    mass = rule.integrate_radial(lambda r: nu_radial(t, r, beta_star, n_star))
    res_half = _unitarity_residual(t, beta_star, rule, 0.5)
    res_one = _unitarity_residual(t, beta_star, rule, 1.0)
    return CalibrationRecord(
        t=t,
        beta=beta_star,
        normalization=n_star,
        mass_residual=mass / VOL_K - 1.0,
        unitarity_residuals={"spin_half": res_half, "spin_one": res_one},
        analytic_beta=1.0,
        analytic_normalization=(np.pi * t) ** -1.5 * np.exp(-t / 4.0),
    )
