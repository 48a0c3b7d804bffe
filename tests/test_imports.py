"""Which modules a command line call and ``import normalhst`` load.

Each probe runs in a fresh interpreter, since this test process has
imported every layer already.  Beyond the package's own modules, no
call may load the standard library's code generators or rational
arithmetic: ``dataclasses`` (with ``inspect``) and ``fractions`` (with
``decimal``) cost more at start-up than most commands compute.
"""

import importlib
import json
import subprocess
import sys

import pytest

import normalhst
from normalhst import library
from normalhst.normal_surfaces import vertex_link

ALL = [
    "ALMOST_NORMAL_OCTAGON", "ALMOST_NORMAL_TUBE", "AbstractSplitting",
    "AbstractSurface", "CeilingSettingError", "ComplexityVector", "Component",
    "CurvePattern", "EMPTY_SURFACE", "EQUAL", "Event", "GREATER", "Gluing",
    "HstError", "INADMISSIBLE", "LESS", "LoopClass", "LoopDecomposition",
    "MorsePresentation", "NORMAL", "NonseparatingCompression", "ParseError",
    "PatternError", "PresentationError", "RelativeCompression",
    "ResourceCeilingError", "SPHERE", "SeparatingCompression", "Skeleton",
    "SurfaceError", "SurfaceSummary", "SurfaceVector", "TORUS",
    "Triangulation", "TriangulationError", "TubeAnnotation", "WidthProfile",
    "brute_force_enumerate", "c_surface", "check_348", "check_admissible",
    "classify", "compare_complexity", "compress", "compute_skeleton",
    "curve_patterns", "decompose_pattern", "enumerate_normal_loops",
    "enumerate_vertex_surfaces", "enumeration", "euler_characteristic",
    "exchange_move", "find_connected_chi2", "format_presentation", "genus",
    "hst", "induced_splitting", "is_minimal_reachable", "library", "limits",
    "loop_pattern", "matching_system", "model", "normal_surfaces",
    "octagon_augmentations", "parse_presentation", "parse_triangulation",
    "reconstruct_surface", "reduced_extreme_solutions",
    "splitting_complexity", "thin_position", "thin_position_search",
    "triangulation", "underlying_splitting", "untangle_step",
    "validate_manifold", "vertex_link", "width",
]
SUBMODULES = {"curve_patterns", "enumeration", "hst", "library", "limits",
              "model", "normal_surfaces", "thin_position", "triangulation"}

# Runs ``cli.main`` on argv with stdout swallowed, then prints the exit
# code and every loaded module as one JSON line.
CLI_PROBE = """
import contextlib, io, json, sys
from normalhst import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""
BARE_PROBE = "import json, sys; print(json.dumps(sorted(sys.modules)))"
# The code generators and rational arithmetic no command may load.
FORBIDDEN = {"dataclasses", "inspect", "fractions", "decimal"}


def _probe(script, *argv):
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(*names):
    """The modules a call loads: the ``--help`` three, and with any layer
    also ``normalhst.record``, the base of the layers' records."""
    layers = [f"normalhst.{name}" for name in names]
    if names:
        layers.append("normalhst.record")
    return sorted(["normalhst", "normalhst.cli", "normalhst.limits"]
                  + layers)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    tri = library.doubled_tetrahedron()
    paths = {"tri": root / "doubled.tri", "vec": root / "link.json",
             "split": root / "split.json", "pres": root / "pres.txt"}
    paths["tri"].write_text(tri.to_text())
    paths["vec"].write_text(json.dumps(vertex_link(tri, 0).to_json_dict()))
    paths["split"].write_text("[[], [[-4, 0]], []]")
    paths["pres"].write_text("B 0\nB 0\nD 0\nD 0\n")
    return {key: str(path) for key, path in paths.items()}


COMMANDS = [
    (["--help"], _loaded()),
    (["curves"] + ["1"] * 12 + ["--check-348"],
     _loaded("curve_patterns", "model")),
    (["validate", "{tri}"], _loaded("model", "triangulation")),
    (["surface", "{tri}", "{vec}"],
     _loaded("curve_patterns", "model", "normal_surfaces", "triangulation")),
    (["enumerate", "{tri}"],
     _loaded("enumeration", "model", "normal_surfaces", "triangulation")),
    (["hst", "{split}", "--action", "search"], _loaded("hst")),
    (["width", "{pres}", "--action", "split"],
     _loaded("hst", "thin_position")),
]


@pytest.mark.parametrize("argv, loaded", COMMANDS,
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_command_loads_only_its_layers(inputs, argv, loaded):
    code, modules = _probe(CLI_PROBE, *[a.format(**inputs) for a in argv])
    assert code == 0
    assert [m for m in modules if m.split(".")[0] == "normalhst"] == loaded


# Every subcommand, and the routes inside them that reach other code:
# brute force, the rank oracle of the cross-check, and the acceptance
# suite, which imports every layer.
EVERY_COMMAND = [argv for argv, _ in COMMANDS] + [
    ["enumerate", "{tri}", "--method", "brute", "--bound", "2"],
    ["enumerate", "{tri}", "--cross-check", "--bound", "3"],
    ["hst", "{split}", "--action", "complexity"],
    ["width", "{pres}", "--action", "search", "--search-mode", "all"],
    ["selftest", "--criteria", "6"],
]


@pytest.fixture(scope="module")
def bare_modules():
    return set(_probe(BARE_PROBE))


@pytest.mark.parametrize("argv", EVERY_COMMAND,
                         ids=[" ".join(a for a in argv if "{" not in a)
                              for argv in EVERY_COMMAND])
def test_command_loads_no_code_generator(inputs, bare_modules, argv):
    code, modules = _probe(CLI_PROBE, *[a.format(**inputs) for a in argv])
    assert code == 0
    assert not (set(modules) - bare_modules) & FORBIDDEN


def test_command_boundaries():
    # The pins above, stated as the layers each command must not load.
    pins = {argv[0]: set(loaded) for argv, loaded in COMMANDS}
    never = {"selftest"}
    forbidden = {
        "curves": {"triangulation", "normal_surfaces", "enumeration", "hst",
                   "thin_position"} | never,
        "validate": {"enumeration", "hst", "thin_position"} | never,
        "surface": {"enumeration", "hst", "thin_position"} | never,
        "hst": {"triangulation", "enumeration"} | never,
        "width": {"triangulation", "enumeration"} | never,
    }
    for command, names in forbidden.items():
        assert not pins[command] & {f"normalhst.{n}" for n in names}


def test_import_loads_no_layer():
    script = ("import json, sys, normalhst\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.split('.')[0] == 'normalhst')))")
    assert _probe(script) == ["normalhst"]


def test_exports_resolve_to_their_home_objects():
    assert sorted(normalhst.__all__) == ALL
    assert set(ALL) <= set(dir(normalhst))
    for name in ALL:
        value = getattr(normalhst, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"normalhst.{name}"]
            continue
        home = importlib.import_module(
            f"normalhst.{normalhst._HOMES[name]}")
        assert value is getattr(home, name), name
        if hasattr(value, "__qualname__"):       # classes and functions
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from normalhst import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ALL


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        normalhst.nonexistent
    assert not hasattr(normalhst, "cli_main")
