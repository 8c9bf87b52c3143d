"""Limiting distributions of time-averaged continuous-time quantum walks.

The package covers finite graphs and their periodic lattice products:
numeric and closed-form limiting densities, band-structure collision scans,
exact torus dynamics with finite and infinite time averaging, and the
classical random-walk baseline.
"""

from .classical import (
    STEP_BUDGET,
    WalkReport,
    is_bipartite,
    iterate_distribution,
    stationary_distribution,
    transition_matrix,
    walk_report,
)
from .closed_forms import (
    CLOSED_FORM_FAMILIES,
    closed_form_density,
    d_cycle_exact,
    d_hypercube_exact,
    d_path_exact,
    d_star_exact,
)
from .dynamics import (
    HORIZON_LIMIT,
    PAIR_SUM_LIMIT,
    STATE_BUDGET,
    TimeAveragedDistribution,
    TorusOperator,
    build_torus,
    evolve,
    infinite_time_averaged,
    limit_prediction,
    time_averaged,
    total_variation,
)
from .floquet import (
    DEFAULT_COLLISION_DELTA,
    FIBER_BUDGET,
    PAIR_COUNT_BUDGET,
    SCAN_PAIR_BUDGET,
    BandStructure,
    FloquetScanReport,
    build_floquet_matrix,
    flat_band_check,
    floquet_condition_fraction,
    general_density,
    product_spec,
)
from .graphs import (
    FAMILIES,
    VERTEX_BUDGET,
    EdgeListError,
    FiniteGraph,
    ParameterError,
    PeriodicGraphSpec,
    ProductKind,
    build_named,
    from_edge_list,
    honeycomb_spec,
    triangular_spec,
    zd_product_spec,
)
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DensityMatrix,
    EigenSolverError,
    NumericalError,
    SpectralDecomposition,
    cluster_eigenvalues,
    density_from_decomposition,
    eigendecompose_symmetric,
    limiting_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "FiniteGraph", "PeriodicGraphSpec", "ProductKind", "ParameterError",
    "EdgeListError", "FAMILIES", "build_named", "from_edge_list",
    "zd_product_spec", "honeycomb_spec", "triangular_spec", "VERTEX_BUDGET",
    # spectral
    "DEFAULT_CLUSTER_TOL", "NumericalError", "EigenSolverError",
    "SpectralDecomposition", "DensityMatrix", "cluster_eigenvalues",
    "eigendecompose_symmetric", "density_from_decomposition",
    "limiting_density",
    # closed forms
    "CLOSED_FORM_FAMILIES", "d_cycle_exact", "d_path_exact", "d_star_exact",
    "d_hypercube_exact", "closed_form_density",
    # floquet
    "DEFAULT_COLLISION_DELTA", "PAIR_COUNT_BUDGET", "SCAN_PAIR_BUDGET", "FIBER_BUDGET",
    "BandStructure", "FloquetScanReport",
    "build_floquet_matrix", "product_spec", "flat_band_check",
    "floquet_condition_fraction", "general_density",
    # dynamics
    "STATE_BUDGET", "PAIR_SUM_LIMIT", "HORIZON_LIMIT", "TorusOperator",
    "TimeAveragedDistribution", "build_torus", "evolve", "time_averaged",
    "infinite_time_averaged", "total_variation", "limit_prediction",
    # classical
    "STEP_BUDGET", "WalkReport", "transition_matrix", "stationary_distribution",
    "is_bipartite", "iterate_distribution", "walk_report",
]
