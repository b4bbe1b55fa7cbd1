"""Segal-Bargmann transforms on SU(2), exact on Peter-Weyl coefficients.

The transform C_t applies the half-time heat operator and
analytically continues to SL(2,C).  On the spin-j block this is
multiplication by e^{-t c_j / 2}, so the transform is computed on
coefficients.  The integral definition survives only as an oracle
(adjoint_inversion_oracle below): its K- and sphere integrals are exact
(Schur orthogonality, then the scalar fiber Gram matrix), and only its
radial integral is quadrature.
"""

from __future__ import annotations

import numpy as np

from .algebra import QuadratureRuleKC
from .errors import IllConditioned, ParameterDomain
from .heat import HeatKernelK, nu_radial
from .hl2 import fiber_scalar
from .wigner import BandLimited, casimir_eigenvalue

BACKWARD_AMPLIFICATION_GUARD = 1e6


def transform_C(t: float, f: BandLimited) -> BandLimited:
    """C_t f: heat-evolve for time t; the result evaluates as an entire function on SL(2,C)."""
    if t <= 0:
        raise ParameterDomain("transform time t must be positive")
    return f.heat(t)


def inverse_C(t: float, F: BandLimited) -> BandLimited:
    """Exact inverse of C_t on band-limited data: coefficient division.

    Backward flow refuses to amplify the top block by more than 1e6 and
    raises IllConditioned; very irregular data has no usable backward image.
    """
    if t <= 0:
        raise ParameterDomain("transform time t must be positive")
    amp = np.exp(t * casimir_eigenvalue(F.two_jmax / 2.0) / 2.0)
    if amp > BACKWARD_AMPLIFICATION_GUARD:
        raise IllConditioned(
            f"backward flow would amplify spin-{F.two_jmax / 2} coefficients "
            f"by {amp:.2e} (guard {BACKWARD_AMPLIFICATION_GUARD:.0e})"
        )
    return F.heat(t, sign=+1.0)


def adjoint_inversion_oracle(
    t: float,
    F: BandLimited,
    rule: QuadratureRuleKC,
    two_jmax: int,
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
    top = min(two_jmax, HeatKernelK.build(t, rmax=rule.cutoff, tol=1e-9).two_jmax)
    wy = rule.fiber_weights * nu_radial(t, rule.radii)
    m = {two_j: fiber_scalar(two_j, rule, wy) * c for two_j, c in F.blocks.items() if two_j <= top}
    return BandLimited(m).heat(t, sign=-1.0).prune(1e-12)
