"""
Exact combinatorics of normal and almost normal surfaces in triangulated
3-manifolds, with the splitting-complexity and thin-position width
calculi that drive them.
"""

from .triangulation import (Triangulation, Gluing, Skeleton, ParseError,
                            TriangulationError, parse_triangulation,
                            compute_skeleton, validate_manifold)
from .normal_surfaces import (SurfaceVector, TubeAnnotation, SurfaceError,
                              SurfaceSummary, matching_system,
                              check_admissible, euler_characteristic,
                              reconstruct_surface, vertex_link, classify,
                              NORMAL, ALMOST_NORMAL_OCTAGON,
                              ALMOST_NORMAL_TUBE, INADMISSIBLE)
from .limits import ResourceCeilingError, CeilingSettingError
from .enumeration import (SolutionCone, solution_cone,
                          enumerate_vertex_surfaces, brute_force_enumerate,
                          reduced_extreme_solutions, find_connected_chi2,
                          octagon_augmentations)
from .curve_patterns import (CurvePattern, LoopDecomposition, LoopClass,
                             PatternError, decompose_pattern, loop_pattern,
                             enumerate_normal_loops, check_348)
from .hst import (Component, AbstractSurface, AbstractSplitting,
                  ComplexityVector, HstError, SPHERE, TORUS, EMPTY_SURFACE,
                  genus, c_surface, compare_complexity, splitting_complexity,
                  compress, NonseparatingCompression, SeparatingCompression,
                  RelativeCompression, untangle_step, underlying_splitting,
                  is_minimal_reachable, LESS, EQUAL, GREATER)
from .thin_position import (MorsePresentation, Event, WidthProfile,
                            PresentationError, parse_presentation,
                            format_presentation, width, induced_splitting,
                            exchange_move, thin_position_search)
from . import library

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
