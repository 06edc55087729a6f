"""Lower bounds on the positive semidefinite rank of convex bodies.

The package computes, exactly, the combinatorial formulas for the
algebraic degree of semidefinite programming (Pascal-minor sums psi and
their delta aggregates), builds and exports the KKT polynomial systems of
linear optimization over spectrahedra, samples boundaries of polar bodies
numerically, and estimates the minimal degree d of a polynomial vanishing
on those boundaries.  The degree converts into the lower bound
rank_psd >= sqrt(log2 d); for polytopes, log2(#vertices) bounds the
polyhedral extension complexity the same way.
"""

__version__ = "0.1.0"

from .bounds import (
    PatakiRange,
    PatakiViolationError,
    RankBound,
    bezout_kkt_count,
    check_pataki_rank,
    log2_big,
    lp_extension_lower_bound,
    pataki_range,
    psd_rank_lower_bound,
    triangular,
)
from .combinatorics import (
    check_delta_exponent_bound,
    check_psi_interval_lower_bound,
    delta,
    psi,
    psi_interval_harris_tu,
    psi_interval_product,
    psi_minor_sum,
)
from .experiments import (
    RankFrequencyTable,
    TightnessReport,
    random_pencil,
    rank_frequency,
    shift_to_interior,
    tightness_report,
)
from .kkt import (
    PolySystem,
    SystemInfo,
    assignment_from_solution,
    build_kkt,
    build_kkt_normalized,
    build_kkt_rank,
    export_system,
    parse_system,
    residual,
)
from .pencil import Pencil, adjoint, eval_pencil, load_pencil, save_pencil, symmetrize
from .polar import (
    AllSkippedError,
    BoundaryCloud,
    DegreeFitReport,
    InsufficientSamplesError,
    NotInteriorError,
    PipelineResult,
    bound_pipeline,
    disk_fixture,
    fit_min_vanishing_degree,
    pentagon_fixture,
    pentagon_vertices,
    sample_polar_boundary,
    segment_fixture,
)
from .sdp import SdpSolution, rank_of, solve_sdp

__all__ = [
    "AllSkippedError",
    "BoundaryCloud",
    "DegreeFitReport",
    "InsufficientSamplesError",
    "NotInteriorError",
    "PatakiRange",
    "PatakiViolationError",
    "Pencil",
    "PipelineResult",
    "PolySystem",
    "RankBound",
    "RankFrequencyTable",
    "SdpSolution",
    "SystemInfo",
    "TightnessReport",
    "adjoint",
    "assignment_from_solution",
    "bezout_kkt_count",
    "bound_pipeline",
    "build_kkt",
    "build_kkt_normalized",
    "build_kkt_rank",
    "check_delta_exponent_bound",
    "check_pataki_rank",
    "check_psi_interval_lower_bound",
    "delta",
    "disk_fixture",
    "eval_pencil",
    "export_system",
    "fit_min_vanishing_degree",
    "load_pencil",
    "log2_big",
    "lp_extension_lower_bound",
    "parse_system",
    "pataki_range",
    "pentagon_fixture",
    "pentagon_vertices",
    "psd_rank_lower_bound",
    "psi",
    "psi_interval_harris_tu",
    "psi_interval_product",
    "psi_minor_sum",
    "random_pencil",
    "rank_frequency",
    "rank_of",
    "residual",
    "sample_polar_boundary",
    "save_pencil",
    "segment_fixture",
    "shift_to_interior",
    "solve_sdp",
    "symmetrize",
    "tightness_report",
    "triangular",
]
