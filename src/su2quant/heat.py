"""Heat kernels on SU(2) and SL(2,C), and exact heat flow on coefficients.

Three kernels are provided:

* ``HeatKernelK`` -- the heat kernel rho_t on K at the identity, as a
  character series evaluated from traces, cut where an explicit tail bound
  (one that also covers its analytic continuation to SL(2,C)) is small;
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

from .algebra import VOL_K, kc_quadrature, polar_radius, default_cutoff, radial_jacobian, weyl_rule
from .errors import IllConditioned, TruncationError
from .hl2 import hl2_inner
from .wigner import BandLimited, casimir_eigenvalue

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
    (kernel, weights) pair supplies quadrature weights over the q nodes.
    One character recurrence is shared by all kernels, and the weights are
    contracted per spin so the full kernel matrix is never materialized.
    """
    kernels, weights = zip(*kernel_weight_pairs)
    return _recurrence(traces, kernels, weights)


def _recurrence(traces, kernels, weights=None) -> list[np.ndarray]:
    """sum_j (2j+1) e^{-t j(j+1)/2} chi_j(tau) / Vol(K) for each kernel, in one pass.

    chi_j comes from the Chebyshev-type recurrence chi_{j+1/2} = tau chi_j -
    chi_{j-1/2} in reused buffers: large node sets would otherwise spend most
    of the time allocating temporaries.  With ``weights`` (one vector per
    kernel over the last axis of ``traces``) each sum is contracted against
    its weights spin by spin.
    """
    tau = np.ascontiguousarray(traces, dtype=np.float64)
    chi_prev = np.zeros_like(tau)
    chi = np.ones_like(tau)
    scaled = np.empty_like(tau)
    if weights is None:
        accs = [np.ones_like(tau) for _ in kernels]
    else:
        accs = [np.full(tau.shape[0], np.sum(w)) for w in weights]
    for two_j in range(1, max(k.two_jmax for k in kernels) + 1):
        np.multiply(tau, chi, out=scaled)
        scaled -= chi_prev
        chi_prev, chi, scaled = chi, scaled, chi_prev
        j = two_j / 2.0
        for i, (kern, acc) in enumerate(zip(kernels, accs)):
            if two_j > kern.two_jmax:
                continue
            coeff = (two_j + 1) * np.exp(-kern.t * j * (j + 1) / 2.0)
            if weights is None:
                np.multiply(chi, coeff, out=scaled)
                acc += scaled
            else:
                acc += coeff * (chi @ weights[i])
    for acc in accs:
        acc /= VOL_K
    return accs


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
    kt = HeatKernelK(t, jt)
    ks = HeatKernelK(s, js)
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
    amp = np.exp(tau * casimir_eigenvalue(f.two_jmax / 2.0) / 2.0)
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
    analytic_normalization: float


def _beta_weight(t: float, beta: float, normalization: float):
    """nu_radial at (beta, N) as a density against the rule's beta = 1 Jacobian.

    The rule's fiber weights carry J_1(r) = sinh(r)^2, so the ratio
    J_beta / J_1 = (sinh(beta r) / (beta sinh r))^2 is the only place beta
    enters besides the profile itself.
    """
    return lambda r: radial_jacobian(r, beta) / radial_jacobian(r) * nu_radial(
        t, r, beta, normalization
    )


def _mass_normalization(t: float, beta: float, rule) -> float:
    """N with unit such that the mass identity holds exactly on the rule."""
    # rule.integrate_radial already sums K and fiber weights (mass Vol*4pi*I)
    return VOL_K / rule.integrate_radial(_beta_weight(t, beta, 1.0))


def _unitarity_residual(t: float, beta: float, rule, j) -> float:
    weight = _beta_weight(t, beta, _mass_normalization(t, beta, rule))
    f = BandLimited.entry(j, j, j)
    F = f.heat(t, sign=-1.0)
    lhs = hl2_inner(F, F, rule, weight).real
    return lhs / f.norm_sq() - 1.0


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


def calibrate_nu(
    t: float,
    beta_bracket: tuple[float, float] = (0.6, 1.6),
    n_r: int = 64,
) -> CalibrationRecord:
    """Pin (beta, N(t)) from the mass and unitarity identities.

    For each candidate beta the normalization is solved from the mass
    identity; beta itself is then the root of the spin-1/2 unitarity
    residual.  The spin-1 residual at the solution is reported as the
    overdetermined cross-check.  One polar rule serves every beta: the
    integrands are radial, so only its n_r radii and fiber weights are
    read, and beta enters through the Jacobian ratio in the weight.
    """
    rule = kc_quadrature(default_cutoff(t) + 1.5, n_r=n_r)
    beta_star = bracketed_root(
        lambda beta: _unitarity_residual(t, beta, rule, 0.5), *beta_bracket, xtol=1e-10, rtol=1e-12
    )
    n_star = _mass_normalization(t, beta_star, rule)
    mass = rule.integrate_radial(_beta_weight(t, beta_star, n_star))
    res_half = _unitarity_residual(t, beta_star, rule, 0.5)
    res_one = _unitarity_residual(t, beta_star, rule, 1.0)
    return CalibrationRecord(
        t=t,
        beta=beta_star,
        normalization=n_star,
        mass_residual=mass / VOL_K - 1.0,
        unitarity_residuals={"spin_half": res_half, "spin_one": res_one},
        analytic_normalization=(np.pi * t) ** -1.5 * np.exp(-t / 4.0),
    )
