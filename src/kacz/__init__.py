"""Multi-row randomized Kaczmarz solvers with volume sampling and the
quasi-projector spectral calculus behind their convergence rates."""

from .errors import (
    DegenerateAngleError,
    DependentSubsetError,
    EnumerationCapError,
    NumericError,
    ParseError,
    RankDeficiencyError,
)
from .linsys import (
    LinearSystem,
    SpectralDecomposition,
    gram,
    load_system,
    make_linear_system,
    singular_spectrum,
    synth_system,
)
from .projectors import (
    RowSubset,
    SubsetGeometry,
    adjugate,
    apply_rejection,
    make_row_subset,
    orthogonal_projector,
    quasi_projector,
    recursive_projector,
    subset_geometry,
)
from .rng import Xoshiro256StarStar, mix_seed
from .sampling import (
    RelaxationState,
    VolumeDistribution,
    build_volume_distribution,
    draw_uniform,
    draw_volume,
    draw_volume_row,
    max_subset_volume,
    relaxation_factor,
)
from .solver import (
    EnsembleReport,
    PursuitConfig,
    PursuitTrace,
    kaczmarz_step,
    multirow_step,
    relaxed_step,
    run_ensemble,
    run_pursuit,
)
from .spectral import (
    SpectralProfile,
    brute_force_phi,
    brute_force_vol,
    build_spectral_profile,
    elementary_symmetric,
    expected_projector,
    grade_condition_number,
    gram_inverse_via_phi,
    rate_bounds,
    total_quasi_projector,
    transform_singular_values,
    vol_sequence,
    volume_sum,
)

__version__ = "0.1.0"
