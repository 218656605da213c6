"""Transfer-operator laboratory for Hamiltonian Monte Carlo.

Discretizes the density-evolution operator of HMC on truncated log-concave
models, integrates the Hamiltonian and variational flows, assembles the
1-d operator from its explicit kernel, and measures fixed points, spectra and
geometric convergence rates against closed-form oracles.
"""

from .distributions import (
    ModelPair,
    Potential,
    anharmonic_pair,
    anharmonic_potential,
    density_value,
    gaussian_potential,
    standard_gaussian_pair,
)
from .dynamics import (
    FlowSpec,
    default_flow_spec,
    determinant_bounds,
)
from .kernel_spectral import (
    RateCertificate,
    SpectralReport,
    certify_rate,
    eigen_spectrum,
    hs_norm,
)
from .operator import (
    DensityGrid,
    IterationTrace,
    TransferMatrix,
    assemble_transfer,
    build_grid,
    iterate,
    mass,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)

__version__ = "0.1.0"
