"""
Exact combinatorics of normal and almost normal surfaces in triangulated
3-manifolds, with the splitting-complexity and thin-position width
calculi that drive them.

Importing the package loads none of its layers.  Each exported name is
imported from its home module on first use (PEP 562) and kept in the
package from then on, so a name costs only its home module and what
that module imports.
"""

import importlib

# Exported name -> the module it lives in.  A submodule is its own home.
_HOMES = {
    **dict.fromkeys(
        ("Triangulation", "Gluing", "Skeleton", "ParseError",
         "TriangulationError", "parse_triangulation", "compute_skeleton",
         "validate_manifold", "triangulation"), "triangulation"),
    **dict.fromkeys(
        ("SurfaceVector", "TubeAnnotation", "SurfaceError", "SurfaceSummary",
         "matching_system", "check_admissible", "euler_characteristic",
         "reconstruct_surface", "vertex_link", "classify", "NORMAL",
         "ALMOST_NORMAL_OCTAGON", "ALMOST_NORMAL_TUBE", "INADMISSIBLE",
         "normal_surfaces"), "normal_surfaces"),
    **dict.fromkeys(
        ("ResourceCeilingError", "CeilingSettingError", "limits"), "limits"),
    **dict.fromkeys(
        ("enumerate_vertex_surfaces", "brute_force_enumerate",
         "reduced_extreme_solutions", "find_connected_chi2",
         "octagon_augmentations", "enumeration"),
        "enumeration"),
    **dict.fromkeys(
        ("CurvePattern", "LoopDecomposition", "LoopClass", "PatternError",
         "decompose_pattern", "loop_pattern", "enumerate_normal_loops",
         "check_348", "curve_patterns"), "curve_patterns"),
    **dict.fromkeys(
        ("Component", "AbstractSurface", "AbstractSplitting",
         "ComplexityVector", "HstError", "SPHERE", "TORUS", "EMPTY_SURFACE",
         "genus", "c_surface", "compare_complexity", "splitting_complexity",
         "compress", "NonseparatingCompression", "SeparatingCompression",
         "RelativeCompression", "untangle_step", "underlying_splitting",
         "is_minimal_reachable", "LESS", "EQUAL", "GREATER", "hst"), "hst"),
    **dict.fromkeys(
        ("MorsePresentation", "Event", "WidthProfile", "PresentationError",
         "parse_presentation", "format_presentation", "width",
         "induced_splitting", "exchange_move", "thin_position_search",
         "thin_position"), "thin_position"),
    "library": "library",
    "model": "model",
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
