"""Randomized dyadic cubes, splines and orthonormal wavelets on finite
doubling quasi-metric measure spaces."""

from .space import (
    FiniteSpace,
    SpaceConstants,
    ValidationError,
    compute_constants,
    generate_space,
    load_space,
    resolve_space,
    save_space,
)
from .nets import (
    GeometryViolation,
    Levels,
    NetHierarchy,
    ReferenceOrder,
    build_nets,
    build_reference_order,
    verify_nets,
)
from .randomized import (
    CubeMachine,
    OmegaSample,
    RandomizedSystem,
    boundary_layer_probability,
    sample_omega,
    theoretical_eta,
    verify_center_sandwich,
    verify_system,
)
from .splines import (
    build_transitions,
    compute_splines_exact,
    compute_splines_mc,
    holder_profile,
    transition_probabilities,
    verify_spline_table,
)
from .mra import (
    build_gram_system,
    decay_fit,
    inverse_and_sqrt,
    neumann_inverse_and_sqrt,
)
from .wavelets import (
    WaveletBasis,
    assemble_basis,
    decay_and_regularity_report,
    kernel_of_projection,
    orthonormalize_level,
    pre_wavelets,
)
from .analysis import (
    bmo_carleson_roundtrip,
    bmo_from_carleson,
    bmo_norm,
    carleson_norm,
    empty_annulus_dichotomy,
    operator_wavelet_matrix,
    paraproduct_matrix,
    schur_statistic,
    verify_kernel_sums,
    verify_sum_large_balls,
)
from .pipeline import Bundle, PipelineConfig, build_bundle, run_pipeline

__version__ = "0.1.0"
