"""Segal-Bargmann transforms on SU(2), exact on Peter-Weyl coefficients.

The single-parameter transform C_t applies the half-time heat operator and
analytically continues to SL(2,C).  On the spin-j block this is
multiplication by e^{-t c_j / 2}, so the transform is computed on
coefficients.  The integral definition survives only as an oracle
(adjoint_inversion_oracle below): its K- and sphere integrals are exact
(Schur orthogonality, then the scalar fiber Gram matrix), and only its
radial integral is quadrature.

The two-parameter transform B_{s,t} is given by the same coefficient map.
The parameter s enters only through the measures on the two sides, so the
class records it and enforces the admissible domain s > t/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadratureRuleKC
from .errors import ParameterDomain
from .heat import HeatKernelK, heat_flow, nu_radial
from .hl2 import fiber_scalar, hl2_inner
from .wigner import BandLimited, HolomorphicObservable


def transform_C(t: float, f: BandLimited) -> HolomorphicObservable:
    """C_t f: heat-evolve for time t and read as an entire function on SL(2,C)."""
    if t <= 0:
        raise ParameterDomain("transform time t must be positive")
    out = heat_flow(t, f, direction="forward")
    return HolomorphicObservable(out.blocks)


def transform_B(s: float, t: float, f: BandLimited) -> HolomorphicObservable:
    """B_{s,t} f; the coefficient map does not depend on s.

    s only changes the measures (rho_s on the domain, mu_{s,t} on the range)
    and must satisfy s > t/2 for the range measure to exist.
    """
    if t <= 0:
        raise ParameterDomain("transform time t must be positive")
    if s <= t / 2.0:
        raise ParameterDomain(f"need s > t/2, got s={s}, t/2={t / 2.0}")
    return transform_C(t, f)


def inverse_C(t: float, F: HolomorphicObservable) -> BandLimited:
    """Exact inverse of C_t on band-limited data: coefficient division.

    Raises IllConditioned through the backward heat-flow guard when the top
    block would be amplified past 1e6.
    """
    if t <= 0:
        raise ParameterDomain("transform time t must be positive")
    out = heat_flow(t, BandLimited(F.blocks), direction="backward")
    return BandLimited(out.blocks)


@dataclass
class TransformedPair:
    """A function together with its transform and the parameters used."""

    f: BandLimited
    F: HolomorphicObservable
    t: float
    s: float | None = None
    which: str = "C"

    @classmethod
    def make_B(cls, s: float, t: float, f: BandLimited) -> "TransformedPair":
        return cls(f=f, F=transform_B(s, t, f), t=t, s=s, which="B")

    def domain_norm_sq(self) -> float:
        """||f||^2 on the domain side: Haar for C, rho_s dx for B.

        Against the heat density, int h rho_s dx = (e^{s Delta/2} h)(e)
        because rho_s is the symmetric heat kernel at the identity; with
        h = |f|^2 expanded through Clebsch-Gordan coupling this is exact.
        """
        if self.which == "C":
            return self.f.norm_sq()
        mod_sq = self.f.conjugate().multiply(self.f)
        smoothed = mod_sq.heat(self.s, sign=-1.0)
        return float(np.real(smoothed(np.eye(2))))


def range_norm_sq_C(t: float, F: HolomorphicObservable, rule: QuadratureRuleKC) -> float:
    """||F||^2 in HL^2(K_C, nu_t), by factored quadrature."""
    return float(np.real(hl2_inner(F, F, rule, lambda r: nu_radial(t, r))))


def adjoint_inversion_oracle(
    t: float,
    F: HolomorphicObservable,
    rule: QuadratureRuleKC,
    two_jmax: int,
    rho_tol: float = 1e-9,
) -> BandLimited:
    """Recover f from F by the adjoint integral, as an independent oracle.

    Computes (C_t^* F)(x) = int conj(rho_t(g x^{-1})) F(g) nu_t(g) dg.
    Expanding the kernel's character sum and using
    conj(chi_j(g x^{-1})) = sum_{ab} conj(D^j(g))_{ab} D^j(x)_{ab} for x in
    SU(2), the result is band-limited with block coefficients

        c^j_{ab} = (2j+1) e^{-t c_j/2} / Vol(K) *
                   int conj(D^j(g))_{ab} F(g) nu_t(g) dg.

    With g = x exp(iY), Schur orthogonality does the K-integral exactly
    and the fiber Gram matrix is the scalar lambda_j (see ``hl2_inner``):
    c^j = e^{-t c_j/2} lambda_j c^j_F, with lambda_j = ``fiber_scalar`` at
    w_y = fiber weight * nu_t(|Y|), for the spins of F up to
    min(two_jmax, the kernel's truncation).  Only the radial sum is
    quadrature.

    On the range of C_t this reproduces f itself (C_t^* = C_t^{-1} there),
    so agreement with inverse_C is a radial-quadrature check, not exact.
    """
    top = min(two_jmax, HeatKernelK.build(t, rmax=rule.cutoff, tol=rho_tol).two_jmax)
    wy = rule.fiber_weights * nu_radial(t, rule.radii)
    m = {two_j: fiber_scalar(two_j, rule, wy) * c for two_j, c in F.blocks.items() if two_j <= top}
    return BandLimited(m).heat(t, sign=-1.0).prune(1e-12)
