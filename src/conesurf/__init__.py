"""conesurf: Euclidean cone surfaces from glued polygons.

Geodesic tracing by straight-line flow across gluings; saddle connections and
flat cylinder widths by one exact window sweep of the developed surface, whose
chart copies ``unfolding_budget`` counts; compact-open distance between
trajectories; branched covers driven by edge permutations.
"""

from .config import Tolerances, DEFAULT_TOLERANCES, load_tolerance_overrides
from .covering import (
    BranchReport,
    CoverSpec,
    build_cover,
    class_monodromy,
    default_odd_degree,
    find_monodromy,
    lift_trace,
    project_trace,
    riemann_hurwitz_check,
)
from .cylinders import (
    ChainPath,
    Cylinder,
    DensityReport,
    PeriodicPath,
    Quadrangle,
    StripWitness,
    density_experiment,
    find_closed_geodesic,
    offset_state,
    strip_quadrangle,
    strip_width,
)
from .saddles import (
    DirectionSpectrum,
    PiecewiseGeodesic,
    SaddleConnection,
    as_generalized,
    chain,
    direction_spectrum,
    enumerate_saddles,
    trace_connection,
)
from .surface import (
    ConeSurface,
    Gluing,
    VertexClass,
    build_surface,
    classify_singularities,
    cone_angle,
    load_surface,
    save_surface,
    surface_from_dict,
    surface_to_dict,
    validate_gauss_bonnet,
)
from .tracer import (
    ContinuationSector,
    DevelopedPath,
    DistanceResult,
    GeodesicState,
    MinDistanceReport,
    TraceEvent,
    TraceOptions,
    TraceResult,
    TwoSidedPath,
    continuation_sector,
    develop,
    geodesic_distance,
    min_distance_experiment,
    predict_self_intersection,
    surface_point_distance,
    trace,
    two_sided_trace,
)

__version__ = "0.1.0"
