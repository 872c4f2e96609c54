"""nbzeta: non-backtracking spectra, graph zeta data, and spectral censuses
of regular multigraphs with half- and whole-loops."""

from .errors import (
    FactorizationBreakdown,
    IdentityViolation,
    IllConditioned,
    IndexOutOfRange,
    InvalidInvolution,
    InvalidParams,
    LanczosBreakdown,
    NbzetaError,
    NearContourPole,
    NearPole,
    ParseError,
    TooLarge,
    UncertainCount,
)
from .graphs import (
    Graph,
    GraphCounts,
    adjacency_matrix,
    build_graph,
    complete_graph,
    directed_line_graph,
    graph_counts,
    hashimoto_matrix,
    parse_graph,
    petersen_graph,
    serialize_graph,
)
from .models import (
    CoveringMap,
    build_bouquet,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
)
from .rng import derive_seed, splitmix64
from .spectra import (
    NonRamanujanReport,
    adjacency_spectrum,
    classify_non_ramanujan,
    count_adjacency_eigenvalues_geq,
    hashimoto_spectrum,
    new_spectra,
)
from .traces import (
    ExpansionFit,
    TraceEstimate,
    count_closed_nb_walks,
    estimate_expected_trace,
    exact_expected_trace_small,
    fit_expansion_coefficients,
    p0_divisor_sum,
    tr_hashimoto_power,
)
from .zeta import (
    ContourSpec,
    SeriesAtInfinity,
    cP0_residues,
    contour_pole_count,
    e_rational,
    essential_log_derivative_coeffs,
    evaluate_L,
    evaluate_e,
    hashimoto_char_poly,
    integrate_circle,
    minus_zeta_log_derivative,
    verify_ihara,
)
from .census import (
    CensusConfig,
    CensusResult,
    reproduce_section8,
    run_census,
)

__version__ = "0.1.0"
