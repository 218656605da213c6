"""Transfer-operator laboratory for Hamiltonian Monte Carlo.

Discretizes the density-evolution operator of HMC on truncated log-concave
models, integrates the Hamiltonian and variational flows, assembles the
operator from the explicit kernel (1-d) or a momentum deposit (d >= 2), and
measures fixed points, spectra and geometric convergence rates against
closed-form oracles.
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
    PhaseState,
    default_flow_spec,
    flow,
    inverse_flow,
    momentum_flip_conjugacy_residual,
    total_energy,
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
    assemble_adjoint,
    assemble_transfer,
    build_grid,
    iterate,
    mass,
    random_density,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)
from .tangent import (
    RunningAverages,
    TangentBlocks,
    block_exponential,
    determinant_bounds,
    integrate_tangent,
    jacobian_determinants,
    spd_sqrt,
)

__version__ = "0.1.0"
