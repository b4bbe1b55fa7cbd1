"""Segal-Bargmann transforms on SU(2), exact on Peter-Weyl coefficients.

The single-parameter transform C_t applies the half-time heat operator and
analytically continues to SL(2,C).  On the spin-j block this is
multiplication by e^{-t c_j / 2}, so the transform is computed on
coefficients; the integral definition is kept only as a test oracle
(adjoint_inversion_oracle below).

The two-parameter transform B_{s,t} is given by the same coefficient map.
The parameter s enters only through the measures on the two sides, so the
class records it and enforces the admissible domain s > t/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadratureRuleKC, VOL_K
from .errors import ParameterDomain
from .heat import HeatKernelK, heat_flow, nu_radial
from .hl2 import K_CHUNK, _chunked_tables, _factored_values, hl2_inner
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
    def make_C(cls, t: float, f: BandLimited) -> "TransformedPair":
        return cls(f=f, F=transform_C(t, f), t=t, which="C")

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
        return float(np.real(smoothed.at_identity()))


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

    Computes (C_t^* F)(x) = int conj(rho_t(g x^{-1})) F(g) nu_t(g) dg on the
    truncated polar rule.  Expanding the kernel's character sum and using
    conj(chi_j(g x^{-1})) = sum_{ab} conj(D^j(g))_{ab} D^j(x)_{ab} for x in
    SU(2), the result is band-limited with block coefficients

        c^j_{ab} = (2j+1) e^{-t c_j/2} / Vol(K) *
                   int conj(D^j(g))_{ab} F(g) nu_t(g) dg.

    On the range of C_t this reproduces f itself (C_t^* = C_t^{-1} there),
    so agreement with inverse_C is a quadrature-level check, not exact.
    """
    kern = HeatKernelK.build(t, rmax=rule.cutoff, tol=rho_tol)
    fw = rule.fiber_weights * nu_radial(t, rule.radii)
    kw = rule.k_rule.weights
    spins = range(0, min(two_jmax, kern.two_jmax) + 1)
    m = {two_j: 0.0 for two_j in spins}
    for part, dx, ey in _chunked_tables(rule, set(F.blocks) | set(spins), K_CHUNK):
        weighted = _factored_values(F, dx, ey) * fw
        for two_j in spins:
            m[two_j] += np.einsum(
                "x,xac,ycb,xy->ab",
                kw[part],
                np.conj(dx[two_j]),
                np.conj(ey[two_j]),
                weighted,
                optimize=True,
            )
    blocks = {}
    for two_j in spins:
        j = two_j / 2.0
        blocks[two_j] = (two_j + 1) * np.exp(-t * j * (j + 1) / 2.0) / VOL_K * m[two_j]
    return BandLimited(blocks).prune(1e-12)
