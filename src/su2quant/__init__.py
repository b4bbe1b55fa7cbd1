"""Numerical Segal-Bargmann and Berezin-Toeplitz machinery on SU(2)."""

from .algebra import (
    VOL_K,
    QuadratureRuleKC,
    kc_quadrature,
    random_su2,
)
from .diffop import LeftInvariantOperator
from .euclid import GaussPoly, HermiteExpansion, euclid_toeplitz_check, euclid_transform
from .heat import HeatKernelK, calibrate_nu, nu_radial
from .sde import (
    EndpointEnsemble,
    SampledPath,
    endpoint_ensemble_K,
    endpoint_ensemble_KC,
    endpoint_ensembles_KC,
    pathwise_identity_residual,
    sample_path,
)
from .toeplitz import ToeplitzEstimate, ToeplitzSampler, schrodinger_entry
from .transform import inverse_C, transform_C
from .wigner import (
    BandLimited,
    casimir_eigenvalue,
    character,
    inner_product_K,
    wigner_matrix,
)

__version__ = "0.1.0"
