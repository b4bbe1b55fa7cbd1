"""Numerical Segal-Bargmann and Berezin-Toeplitz machinery on SU(2)."""

from .algebra import (
    VOL_K,
    AlgebraVector,
    QuadratureRuleK,
    QuadratureRuleKC,
    exp_algebra,
    exp_complex,
    haar_rule,
    kc_quadrature,
    polar_decompose,
    polar_radius,
    random_su2,
)
from .diffop import LeftInvariantOperator, apply_transpose_to_nu, complexify_apply
from .euclid import GaussPoly, HermiteExpansion, euclid_toeplitz_check, euclid_transform
from .heat import HeatKernelK, calibrate_nu, heat_flow, nu, nu_radial
from .sde import (
    BrownianPath,
    EndpointEnsemble,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    endpoint_ensembles_KC,
    ito_map_K,
    ito_map_KC,
    pathwise_identity_residual,
    rotated_path,
    sample_path,
)
from .toeplitz import (
    ToeplitzEstimate,
    ToeplitzSampler,
    schrodinger_entry,
    toeplitz_entry_quadrature,
)
from .transform import TransformedPair, inverse_C, transform_B, transform_C
from .wigner import (
    BandLimited,
    HolomorphicObservable,
    casimir_eigenvalue,
    character,
    clebsch_gordan,
    inner_product_K,
    wigner_entry,
    wigner_matrix,
)

__version__ = "0.1.0"
