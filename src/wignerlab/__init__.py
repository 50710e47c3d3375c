"""Phase-space quantum mechanics on 1-D grids.

Wigner/Weyl transforms, density matrices, metaplectic operators, Gaussian
and quantum-Bochner admissibility tests, variable Planck-parameter scans,
and Radon tomography, all discretized on dual position/momentum grids.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    NormalizationError,
    NotFreeError,
    ParameterError,
    ValidationError,
    WignerlabError,
)
from .grid import (
    Grid,
    GridFunction,
    PhaseSpaceFunction,
    WignerResult,
    boundary_leak,
    dual_grid,
    make_grid,
)
from .transforms import eta_fourier, fourier_shift, refine, symplectic_fourier
from .wavefunctions import coherent_state, gaussian_wavepacket, hermite_state
from .states import (
    DensityMatrix,
    MixedStateSpec,
    OperatorMatrix,
    mix,
    pure_density,
    state_stats,
    validate_density,
)
from .wigner import (
    cross_wigner,
    marginals,
    moyal_overlap,
    reflection_wigner_check,
    wigner,
)
from .weyl import (
    ambiguity,
    displace,
    expectation,
    reflect,
    trace_from_symbol,
    twisted_product,
    weyl_quantize,
    weyl_symbol,
)
from .symplectic import (
    GeneratingFunction,
    MetaplecticSpec,
    WilliamsonData,
    blocks,
    chirp_matrix,
    fourier_matrix,
    free_generating_function,
    is_symplectic,
    j_matrix,
    rescale_matrix,
    metaplectic_apply,
    metaplectic_matrix,
    symplectic_eigenvalues,
    williamson,
)
from .quantumness import (
    CovarianceMatrix,
    EtaScanResult,
    GaussianStateSpec,
    KLMReport,
    covariance_matrix,
    eta_scan,
    gaussian_admissible,
    gaussian_state,
    klm_test,
    narcowich_oconnell_profile,
    quartic_derivative_witness,
    reduced_transform,
    robertson_schrodinger_checks,
    sigma_transform_at,
)
from .tomography import (
    TomogramSet,
    inverse_radon,
    pauli_pair,
    radon,
    reconstruct_density,
)
from .serialize import (
    dump_json,
    json_ready,
    load_grid_function,
    load_kernel,
    load_phase_space,
    load_tomograms,
    save_grid_function,
    save_kernel,
    save_phase_space,
    save_tomograms,
)
