"""outerlab: a numerical laboratory for outer (dual) billiards.

Orbit polygons and their cyclic invariants, the band-cyclic matrix C and
its integral elements (decided by the monodromy of its recurrence), the
outer billiard map itself, and randomized verifiers that corroborate the
scarcity of convex integral elements.
"""

from .geometry import (
    OrbitPolygon,
    derive_orbit_polygon,
    derive_orbit_polygons,
    det2,
    diameter,
    inner2,
    polygon_area,
    regular_star,
)
from .elements import (
    CurvatureProfile,
    CyclicMatrixC,
    IntegralElement,
    build_matrix_C,
    classify_paradoxical,
    convex_element_search,
    curvature_from_element,
    element_from_curvature,
    make_element,
    numerical_rank,
    paradox_margin,
    special_element_minus,
    special_element_plus,
    variety_point_n5,
    variety_point_n6,
)
from .dynamics import (
    ConvexCurve,
    OrbitRecord,
    iterate,
    orbit_polygon,
    outer_map,
    tangency_point,
)
from .lab import (
    DEFAULT_SEED,
    OrbitSampler,
    ParadoxicalFind,
    ParadoxicalScan,
    VerifierReport,
    sample_orbit_polygon,
    sample_orbit_polygons,
    search_paradoxical,
    verify_theorem_n3,
    verify_theorem_n4,
    verify_theorem_n52,
    verify_theorem_n62,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "OrbitPolygon", "derive_orbit_polygon", "derive_orbit_polygons", "det2", "inner2",
    "polygon_area", "regular_star", "diameter",
    "CyclicMatrixC", "IntegralElement", "CurvatureProfile",
    "build_matrix_C", "numerical_rank", "make_element",
    "special_element_minus", "special_element_plus",
    "variety_point_n5", "variety_point_n6",
    "curvature_from_element", "element_from_curvature",
    "convex_element_search", "classify_paradoxical", "paradox_margin",
    "ConvexCurve", "OrbitRecord",
    "tangency_point", "outer_map", "iterate", "orbit_polygon",
    "OrbitSampler", "VerifierReport", "ParadoxicalFind", "ParadoxicalScan",
    "sample_orbit_polygon", "sample_orbit_polygons", "search_paradoxical",
    "verify_theorem_n3", "verify_theorem_n4",
    "verify_theorem_n52", "verify_theorem_n62",
    "DEFAULT_SEED", "errors",
]
