import gc
import inspect
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from normalhst import cli, library, normal_surfaces
from normalhst.normal_surfaces import SurfaceVector, vertex_link
from normalhst.record import json_int
from normalhst.thin_position import MorsePresentation, legal_exchanges, width


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["penta"] = tmp_path / "penta.tri"
    paths["penta"].write_text(library.boundary_4_simplex().to_text())
    paths["doubled"] = tmp_path / "doubled.tri"
    paths["doubled"].write_text(library.doubled_tetrahedron().to_text())
    paths["single"] = tmp_path / "single.tri"
    paths["single"].write_text(library.single_tetrahedron().to_text())
    paths["pseudo"] = tmp_path / "pseudo.tri"
    paths["pseudo"].write_text(library.pseudomanifold_two_tet().to_text())
    paths["selfglue"] = tmp_path / "selfglue.tri"
    paths["selfglue"].write_text("1\n0:0:123 - - -\n")

    link = vertex_link(library.doubled_tetrahedron(), 0)
    paths["link"] = tmp_path / "link.json"
    paths["link"].write_text(json.dumps(link.to_json_dict()))

    two_oct = SurfaceVector.build(library.single_tetrahedron(),
                                  {(0, "oct", 0): 2})
    paths["twooct"] = tmp_path / "twooct.json"
    paths["twooct"].write_text(json.dumps(two_oct.to_json_dict()))

    paths["split"] = tmp_path / "split.json"
    paths["split"].write_text("[[], [[-2, 0]], []]")
    paths["pres"] = tmp_path / "pres.txt"
    paths["pres"].write_text("B 0\nB 0\nD 0\nD 0\n")
    return paths


def run(argv):
    return cli.main([str(a) for a in argv])


def test_validate_exit_codes(files, capsys):
    assert run(["validate", files["penta"]]) == 0
    assert run(["validate", files["selfglue"]]) == 2
    assert "self-glued" in capsys.readouterr().err
    assert run(["validate", files["pseudo"]]) == 1
    out = capsys.readouterr().out
    assert "offending_vertices" in out


def test_validate_json_schema(files, capsys):
    assert run(["validate", files["penta"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_manifold"] is True
    assert payload["counts"] == {"vertices": 5, "edges": 10, "faces": 10,
                                 "alternating_sum": 0}
    assert len(payload["links"]) == 5
    assert all(link["kind"] == "sphere" for link in payload["links"])


DOUBLED_TEXT = library.doubled_tetrahedron().to_text()


@pytest.mark.parametrize("text, message", [
    (DOUBLED_TEXT.replace("1:0:123", "1_0:0:123", 1),
     "line 2, column 1: malformed gluing token '1_0:0:123'"),
    (DOUBLED_TEXT.replace("1:0:123", "+1:0:123", 1),
     "line 2, column 1: malformed gluing token '+1:0:123'"),
    (DOUBLED_TEXT.replace("1:0:123", "1:+0:123", 1),
     "line 2, column 1: malformed gluing token '1:+0:123'"),
    (DOUBLED_TEXT.replace("1:0:123", "1:00:123", 1),
     "line 2, column 1: malformed gluing token '1:00:123'"),
    (DOUBLED_TEXT.replace("1:0:123", "\u0661:0:123", 1),
     "line 2, column 1: malformed gluing token '\u0661:0:123'"),
    (DOUBLED_TEXT.replace("1:0:123", "1:0:1\u00b23", 1),
     "line 2, column 1: corner map '1\u00b23' must be 3 digits"),
    ("+2" + DOUBLED_TEXT[1:],
     "line 1: expected tetrahedron count, got '+2'"),
    ("2_0\n" + "- - - -\n" * 20,
     "line 1: expected tetrahedron count, got '2_0'"),
], ids=["underscore", "sign", "face-sign", "face-zero", "arabic-indic",
        "superscript", "count-sign", "count-underscore"])
def test_non_canonical_numeral_is_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.tri"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


# Past the 4300 digits that int() converts by default.
LONG = "9" * 5000
# How an error line quotes LONG: its repr cut after 60 characters.
CUT = "'" + "9" * 59 + "..."
# A numeral short enough to read, and how an error line quotes its value.
READABLE = "9" * 4000
CUT_VALUE = "9" * 60 + "..."


@pytest.mark.parametrize("case", ["count", "token", "position", "ceiling",
                                  "coordinate", "argument", "count_value",
                                  "slot", "chi", "budget"])
def test_over_long_numeral_is_one_line(files, tmp_path, capsys, monkeypatch,
                                       case):
    path = tmp_path / "input"
    text, argv, message = {
        "count": (f"{LONG}\n- - - -\n", ["validate", path],
                  f"{path}: line 1: expected tetrahedron count, got {CUT}"),
        "token": (DOUBLED_TEXT.replace("1:0:123", f"{LONG}:0:123", 1),
                  ["enumerate", path],
                  f"{path}: line 2, column 1: malformed gluing token {CUT}"),
        "position": (f"B {LONG}\n", ["width", path],
                     f"{path}: line 1: bad position {CUT}"),
        "ceiling": (None, ["curves"] + ["1"] * 12,
                    f"NORMALHST_CEILING must be a positive integer, "
                    f"got {CUT}"),
        "coordinate": (files["link"].read_text().replace(
                           '"tri": [1,', f'"tri": [{LONG},', 1),
                       ["surface", files["doubled"], path],
                       f"{path}: invalid JSON: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits"),
        "argument": ("", ["curves", LONG] + ["1"] * 11,
                     f"normalhst curves: argument N: invalid int value: "
                     f"{CUT}"),
        "count_value": (f"{READABLE}\n- - - -\n", ["validate", path],
                        f"{path}: line 2: expected {CUT_VALUE} gluing "
                        f"lines, found 1"),
        "slot": (f"B 0\nB {READABLE}\nD 0\nD 0\n", ["width", path],
                 f"{path}: event 1: birth at slot {CUT_VALUE} with only 2 "
                 f"strands"),
        "chi": (f"[[], [[{READABLE}, 0]], []]", ["hst", path],
                f"{path}: level 1: component 0: closed Euler "
                f"characteristic must be even and <= 2, got {CUT_VALUE}"),
        "budget": ("[[], [[-2, 0]], []]",
                   ["hst", path, "--budget", f"-{READABLE}"],
                   f"--budget must be at least 1, got -{CUT_VALUE[1:]}"),
    }[case]
    if text is None:
        monkeypatch.setenv("NORMALHST_CEILING", LONG)
    else:
        path.write_text(text)
    if case == "argument":
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
    else:
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: {message}"
    assert len(line) <= len(str(path)) + 150


@pytest.mark.parametrize("argv", [
    ["hst", "split"], ["hst", "split", "--action", "search"]])
def test_over_long_result_is_exit_3(files, tmp_path, capsys, argv):
    # chi of 3000 digits, whose complexity (2 - chi)^2 has 6000
    files["split"].write_text(f"[[], [[-{'8' * 3000}, 0]], []]")
    assert run([files.get(a, a) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource ceiling: the result holds an integer past Python's "
        "integer string conversion limit"]


# Numerals of 1 to 6000 digits, some with a sign or leading zeros.
numerals = st.builds(
    lambda sign, zeros, length, digits: sign + "0" * zeros + "".join(
        random.Random(digits).choices("0123456789", k=length)),
    st.sampled_from(["", "-", "+"]), st.integers(0, 2),
    st.integers(1, 6000), st.integers(0, 2 ** 32))


def _numeral_entry_points(n, work):
    """(argv, environment) of each command reading the numeral n."""
    link = json.dumps(vertex_link(library.doubled_tetrahedron(), 0)
                      .to_json_dict())
    inputs = {
        "doubled.tri": DOUBLED_TEXT,
        "single.tri": library.single_tetrahedron().to_text(),
        "count.tri": f"{n}\n- - - -\n",
        "token.tri": DOUBLED_TEXT.replace("1:0:123", f"{n}:0:123", 1),
        "pres.txt": f"B {n}\nD 0\n",
        "vector.json": link.replace('"tri": [1,', f'"tri": [{n},', 1),
        "split.json": f"[[], [[{n}, 0]], []]",
    }
    for name, text in inputs.items():
        (work / name).write_text(text)
    path = {name: str(work / name) for name in inputs}
    return [
        (["validate", path["count.tri"]], {}),
        (["validate", path["token.tri"]], {}),
        (["width", path["pres.txt"]], {}),
        (["surface", path["doubled.tri"], path["vector.json"]], {}),
        (["hst", path["split.json"]], {}),
        (["curves"] + ["1"] * 12, {"NORMALHST_CEILING": n}),
        (["enumerate", path["single.tri"], "--bound", n], {}),
    ]


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(numerals)
def test_numeral_entry_points_never_trace(tmp_path_factory, n):
    work = tmp_path_factory.mktemp("numeral")
    for argv, env in _numeral_entry_points(n, work):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.dict(os.environ, env):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # the parser refused an option
                code = exc.code
        assert code in (0, 1, 2, 3), argv[0]
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, argv[0]


def test_missing_file_is_input_error(tmp_path, capsys):
    assert run(["validate", tmp_path / "nope.tri"]) == 2


def test_surface_vertex_link(files, capsys):
    assert run(["surface", files["doubled"], files["link"],
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "Normal"
    assert payload["summary"]["components"] == 1
    assert payload["summary"]["euler_characteristic"] == 2
    assert payload["check_348"]["passed"] is True


def test_surface_auto_mode_checks_once(files, capsys, monkeypatch):
    # surface infers the mode, and classifies and reconstructs from the
    # one report it prints.  The counter sits in the home module, so it
    # also sees the reconstruction's own check, were it to run again.
    calls = []
    real_check = normal_surfaces.check_admissible

    def counted(*args):
        calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(normal_surfaces, "check_admissible", counted)
    assert run(["surface", files["doubled"], files["link"],
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "Normal"
    assert payload["mode"] == "normal" and len(calls) == 1
    assert payload["summary"]["components"] == 1


def test_surface_checks_each_distinct_block_once(tmp_path, capsys,
                                                monkeypatch):
    # Six unglued tetrahedra, so every vector is admissible: one octagon
    # block, two blocks that repeat, and the zero block.
    from normalhst import curve_patterns
    from normalhst.curve_patterns import CurvePattern, check_348
    blocks = [((1, 1, 0, 0), (0, 0, 0), (1, 0, 0)),
              ((1, 0, 2, 0), (0, 0, 0), (0, 0, 0)),
              ((0, 0, 0, 0), (0, 3, 0), (0, 0, 0)),
              ((1, 0, 2, 0), (0, 0, 0), (0, 0, 0)),
              ((0, 0, 0, 0), (0, 3, 0), (0, 0, 0)),
              ((0, 0, 0, 0), (0, 0, 0), (0, 0, 0))]
    tri_file = tmp_path / "six.tri"
    tri_file.write_text("6\n" + "- - - -\n" * 6)
    vec_file = tmp_path / "blocks.json"
    vec_file.write_text(json.dumps(SurfaceVector(tuple(blocks))
                                   .to_json_dict()))
    calls = []
    monkeypatch.setattr(curve_patterns, "check_348",
                        lambda pattern: calls.append(pattern)
                        or check_348(pattern))
    assert run(["surface", tri_file, vec_file, "--format", "json"]) == 0
    assert len(calls) == len(set(blocks)) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "AlmostNormalOctagon"
    per_tet = []
    for t, block in enumerate(blocks):
        result = check_348(CurvePattern.from_block(block))
        per_tet.append({"tet": t, "passed": result.passed,
                        "loops_of_length_8": result.octagons,
                        "witness": list(result.witness)
                        if result.witness else None})
    assert payload["check_348"] == {"per_tetrahedron": per_tet,
                                    "octagon_loops_total": 1,
                                    "single_octagon_globally": True,
                                    "passed": True}


def test_surface_two_octagons_inadmissible(files, capsys):
    assert run(["surface", files["single"], files["twooct"],
                "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "Inadmissible"


def test_surface_wrong_size_vector(files, capsys):
    assert run(["surface", files["penta"], files["link"]]) == 2


@pytest.mark.parametrize("token", ["1.7", "true", '"3"', "1e400"])
def test_surface_rejects_non_integer_coordinate(files, tmp_path, capsys,
                                                token):
    data = json.loads(files["link"].read_text())
    text = json.dumps(data).replace('"tri": [1,', f'"tri": [{token},', 1)
    assert text != json.dumps(data)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "expected an integer" in captured.err


@pytest.mark.parametrize("tube", [
    {"tet": 0.0, "pieces": [["tri", 0, 0], ["tri", 1, 0]]},
    {"tet": 0, "pieces": [["tri", True, 0], ["tri", 1, 0]]},
    {"tet": 0, "pieces": [["tri", 0, 0]]},
    {"tet": 0},
    {"tet": 0, "pieces": [["tri", 0, 0, 7], ["tri", 1, 0]]},
])
def test_surface_rejects_malformed_tube(files, tmp_path, capsys, tube):
    data = json.loads(files["link"].read_text())
    data["tube"] = tube
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("pieces, message", [
    ([[5, 0, 0], ["tri", 1, 0]],
     "tube piece (5, 0, 0) is not a triangle or quad"),
    ([["oct", 0, 0], ["tri", 0, 0]],
     "tube piece ('oct', 0, 0) is not a triangle or quad"),
    ([[[], 0, 0], ["tri", 0, 0]],
     "tube piece ([], 0, 0) is not a triangle or quad"),
    ([["tri", 0, 0], ["tri", 0, 0]], "tube joins a piece to itself"),
    ([["tri", 9, 0], ["tri", 0, 0]],
     "tube piece ('tri', 9, 0) is not a triangle or quad"),
    ([["tri", 0, -1], ["tri", 0, 0]],
     "tube piece ('tri', 0, -1) has a negative index"),
])
def test_surface_rejects_tube_pieces(files, tmp_path, capsys, pieces,
                                     message):
    # what the annotation decides on its own is an input error, not a
    # violation of the vector
    data = json.loads(files["link"].read_text())
    data["tube"] = {"tet": 0, "pieces": pieces}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: malformed surface vector JSON: {message}"]


def test_surface_rejects_wrong_length_arrays(files, tmp_path, capsys):
    data = json.loads(files["link"].read_text())
    data["tets"][0]["quad"] = [0, 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: coordinate arrays must have lengths 4/3/3"]


@pytest.mark.parametrize("tets", ['""', "{}"])
def test_surface_rejects_non_array_tets(files, tmp_path, capsys, tets):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"tets": {tets}}}')
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: malformed surface vector JSON: expected an array, "
        f"got {json.loads(tets)!r}"]


@pytest.mark.parametrize("edit, message", [
    (lambda data: [], "expected an object, got []"),
    (lambda data: 5, "expected an object, got 5"),
    (lambda data: {}, "missing key 'tets'"),
    (lambda data: {**data, "tets": [{"tri": [0] * 4, "quad": [0] * 3}]},
     "missing key 'oct'"),
    (lambda data: {**data, "tube": {"tet": 0}}, "missing key 'pieces'"),
])
def test_surface_names_what_the_vector_json_lacks(files, tmp_path, capsys,
                                                  edit, message):
    data = json.loads(files["link"].read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(data)))
    assert run(["surface", files["doubled"], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: malformed surface vector JSON: {message}"]


@pytest.mark.parametrize("tet", [-1, 2])
def test_surface_reports_a_tube_tetrahedron_out_of_range(files, tmp_path,
                                                         capsys, tet):
    data = json.loads(files["link"].read_text())
    data["tube"] = {"tet": tet, "pieces": [["tri", 0, 0], ["tri", 1, 0]]}
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(data))
    assert run(["surface", files["doubled"], path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["classification"] == "Inadmissible"
    assert {"code": "tube",
            "message": f"tube tetrahedron {tet} out of range"} \
        in payload["violations"]


def test_enumerate_vertex_stream(files, capsys):
    assert run(["enumerate", files["single"], "--method", "vertex"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["method"] == "vertex"
    assert len(lines) == 1 + 7
    for line in lines[1:]:
        SurfaceVector.from_json_dict(json.loads(line))


def test_enumerate_cross_check_match(files, capsys):
    assert run(["enumerate", files["doubled"], "--cross-check",
                "--bound", "6"]) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out


def test_enumerate_ceiling_exit_3(files, capsys, monkeypatch):
    monkeypatch.setenv("NORMALHST_CEILING", "2")
    assert run(["enumerate", files["single"], "--method", "brute",
                "--bound", "5"]) == 3


def test_surface_ceiling_exit_3(files, tmp_path, capsys, monkeypatch):
    # 1000 parallel link spheres: 2 runs and 1000 components
    links = tmp_path / "links.json"
    links.write_text(json.dumps(
        vertex_link(library.doubled_tetrahedron(), 0).scale(1000)
        .to_json_dict()))
    assert run(["surface", files["doubled"], links, "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["components"] == 1000
    monkeypatch.setenv("NORMALHST_CEILING", "1001")
    assert run(["surface", files["doubled"], links, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource ceiling: surface reconstruction needs 2 runs and 1000 "
        "components, over the surface_cells ceiling 1001"]


def test_hst_search_rewrites_ceiling_exit_3(tmp_path, capsys):
    # a genus-201 thick level has 201 compressions, so 40401 move pairs
    # to untangle; the search stops before building any of them
    path = tmp_path / "genus201.json"
    path.write_text("[[], [[-400, 0]], []]")
    for budget in ("1", "10000"):
        start = time.perf_counter()
        assert run(["hst", path, "--action", "search",
                    "--budget", budget]) == 3
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "resource ceiling: thick level 1 has 201 compressions, so 40401 "
            "move pairs to untangle, over the rewrites ceiling 10000"]


def test_hst_search_huge_punctures_exit_3(tmp_path, capsys):
    # the moves are counted, not built: 10^12 punctures cost nothing
    path = tmp_path / "punctured.json"
    path.write_text(f"[[], [[-2, {10 ** 12}]], []]")
    start = time.perf_counter()
    assert run(["hst", path, "--action", "search", "--budget", "1"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"resource ceiling: thick level 1 has {10 ** 12 + 3} compressions, "
        f"so {(10 ** 12 + 3) ** 2} move pairs to untangle, over the "
        f"rewrites ceiling 10000"]


def test_hst_search_huge_chi_exit_3(tmp_path, capsys):
    # -chi/2 separating moves are counted arithmetically, so a chi past
    # the C integer range is no different from a small one
    path = tmp_path / "huge_chi.json"
    path.write_text(f"[[], [[{-2 * 10 ** 20}, 0]], []]")
    assert run(["hst", path, "--action", "search", "--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"resource ceiling: thick level 1 has {10 ** 20 + 1} compressions, "
        f"so {(10 ** 20 + 1) ** 2} move pairs to untangle, over the "
        f"rewrites ceiling 10000"]


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", "", "007",
                                   "\u0663"])
def test_bad_ceiling_setting_exit_2(files, capsys, monkeypatch, value):
    monkeypatch.setenv("NORMALHST_CEILING", value)
    assert run(["enumerate", files["single"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"error: NORMALHST_CEILING must be a positive integer, got {value!r}"]


def test_hst_complexity(files, capsys):
    assert run(["hst", files["split"], "--action", "complexity",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complexity"] == [16]


def test_hst_search_budget(files, capsys):
    assert run(["hst", files["split"], "--action", "search",
                "--budget", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "budget exhausted"


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", [("hst", "split")])
def test_budget_below_one_is_input_error(files, capsys, command, budget):
    subcommand, path = command
    assert run([subcommand, files[path], "--action", "search",
                "--budget", budget, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --budget must be at least 1, got {budget}"]


@pytest.mark.parametrize("argv", [["--method", "brute"],
                                  ["--method", "vertex"], ["--cross-check"]])
def test_bound_below_zero_is_input_error(files, capsys, argv):
    assert run(["enumerate", files["single"], *argv, "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --bound must be at least 0, got -1"]


@pytest.mark.parametrize("argv", [
    ["validate", "bytes"], ["surface", "bytes", "link"],
    ["surface", "doubled", "bytes"], ["enumerate", "bytes"],
    ["width", "bytes"], ["hst", "bytes"],
    ["surface", "doubled", "deep"], ["hst", "deep"],
    ["hst", "deep", "--action", "search"]])
def test_undecodable_or_deep_input_is_one_line(files, tmp_path, capsys,
                                              argv):
    files["bytes"] = tmp_path / "bytes.txt"
    files["bytes"].write_bytes(b"B 0\n\xff\xfe\n")
    files["deep"] = tmp_path / "deep.json"
    files["deep"].write_text("[" * 100000)
    messages = {"bytes": "not UTF-8 text: invalid start byte at byte 4",
                "deep": "invalid JSON: nested too deeply"}
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(a for a in argv if a in messages)
    assert captured.err.splitlines() == [
        f"error: {files[bad]}: {messages[bad]}"]


@pytest.mark.parametrize("command", ["surface", "hst"])
def test_deep_coordinate_is_one_short_line(files, tmp_path, command):
    # The offending value is quoted cut at 60 characters.  A child
    # process parses the 985 levels that a test's deeper stack could
    # not, and a relative path keeps the directory's name out of the
    # line.
    deep = "[" * 985 + "]" * 985
    if command == "surface":
        text = files["link"].read_text().replace(
            '"tri": [1,', f'"tri": [{deep},', 1)
        argv = ["surface", str(files["doubled"]), "deep.json"]
    else:
        text = f"[[], [[{deep}, 0]], []]"
        argv = ["hst", "deep.json"]
    (tmp_path / "deep.json").write_text(text)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "normalhst.cli"] + argv,
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].endswith("expected an integer, got " + "[" * 60 + "...")


def test_short_non_integer_message_is_unchanged():
    with pytest.raises(TypeError) as caught:
        json_int("3")
    assert str(caught.value) == "expected an integer, got '3'"
    with pytest.raises(TypeError) as caught:
        json_int([[1.5, 2]] * 12)
    assert str(caught.value) == "expected an integer, got " \
        + repr([[1.5, 2]] * 12)[:60] + "..."


def test_hst_underlying(files, tmp_path, capsys):
    path = tmp_path / "spheres.json"
    path.write_text("[[], [[2, 2]], []]")
    assert run(["hst", path, "--action", "underlying",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] is True


def test_hst_underlying_merges(files, tmp_path, capsys):
    path = tmp_path / "noisy.json"
    path.write_text("[[], [[0,0],[2,0]], [[0,0]], [[0,0],[2,0]], []]")
    assert run(["hst", path, "--action", "underlying",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [[], [[0, 0]], []]
    assert payload["degenerate"] is False


def test_hst_bad_json(files, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[[3, 0]]")
    assert run(["hst", path]) == 2


@pytest.mark.parametrize("component", [
    "[-2.7, 0]",        # chi would read as -2
    '["-2", 0]',
    '[-2, "1"]',
    "[-2, true]",       # would read as one puncture
    "[1e400, 0]",       # an infinite float overflowed int()
])
@pytest.mark.parametrize("action", ["complexity", "search"])
def test_hst_rejects_non_integer_entry(tmp_path, capsys, component, action):
    path = tmp_path / "bad.json"
    path.write_text(f"[[], [{component}], []]")
    assert run(["hst", path, "--action", action]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "expected an integer" in captured.err


@pytest.mark.parametrize("text, message", [
    ('[[], [[-2, 0]], {}]', "level 2: expected an array, got {}"),
    ('[[], [[-2, 0]], ""]', "level 2: expected an array, got ''"),
    ('{"": 0}', "expected an array, got {'': 0}"),
    ('[""]', "level 0: expected an array, got ''"),
    ("[[], 5]", "level 1: expected an array, got 5"),
    ("[[], [[-2]]]",
     "level 1: component 0: expected an array of 2 entries, got [-2]"),
    ("[[], [[-2, 0], [0, 0, 1]]]",
     "level 1: component 1: expected an array of 2 entries, got [0, 0, 1]"),
    ("[[3, 0]]", "level 0: component 0: expected an array of 2 entries, "
     "got 3"),
])
def test_hst_rejects_non_array_shape(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["hst", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: {message}"]


def test_width_actions(files, capsys):
    assert run(["width", files["pres"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["width"] == 8 and payload["profile"] == [2, 4, 2]

    assert run(["width", files["pres"], "--action", "split",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [[], [[2, 4]], []]

    assert run(["width", files["pres"], "--action", "search",
                "--search-mode", "all", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimum_width"] == 4

    assert run(["width", files["pres"], "--action", "search",
                "--search-mode", "all", "--single-component",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimum_width"] == 8


def test_width_all_mode_search_twelve_births(tmp_path, capsys):
    path = tmp_path / "nested.txt"
    path.write_text("B 0\n" * 12 + "D 0\n" * 12)
    assert run(["width", path, "--action", "search", "--search-mode", "all",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "certified"
    assert payload["minimum_width"] == 24
    assert payload["witness"] == [["B", 0], ["D", 0]] * 12


def test_width_exchange_search_forty_births(tmp_path, capsys):
    # A depth-first search over the exchanges from this start does not
    # finish within 20000 presentations; the descent makes 47 exchanges.
    rng = random.Random(40)
    events, count, left = [], 0, 40
    while left or count:
        if left and (count == 0 or rng.random() < 0.5):
            events.append(("B", rng.randint(0, count)))
            count += 2
            left -= 1
        else:
            events.append(("D", rng.randint(0, count - 2)))
            count -= 2
    path = tmp_path / "forty.txt"
    path.write_text("".join(f"{k} {i}\n" for k, i in events))
    start = time.perf_counter()
    assert run(["width", path, "--action", "search", "--format", "json"]) == 0
    assert time.perf_counter() - start < 0.5
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "certified"
    pres = MorsePresentation.of(*events)
    assert payload["states_explored"] > 1
    assert payload["minimum_width"] == \
        width(pres).width - 4 * (payload["states_explored"] - 1)
    witness = MorsePresentation.of(*payload["witness"])
    assert width(witness).width == payload["minimum_width"]
    assert legal_exchanges(witness) == []


@pytest.mark.parametrize("slot", ["+0", "0_0", "00", "-0", "\u0660",
                                  "-1"])
def test_width_non_canonical_slot_is_one_line(tmp_path, capsys, slot):
    # int() read each of these but -1 as slot 0
    path = tmp_path / "bad.txt"
    path.write_text(f"B 0\nB {slot}\nD 0\nD 0\n", encoding="utf-8")
    assert run(["width", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {path}: line 2: bad position {slot!r}\n"


def test_width_bad_presentation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("D 0\n")
    assert run(["width", path]) == 2


def test_width_comments_only_file_is_empty_presentation(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# no events\n\n   # still none\n")
    assert run(["width", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: empty presentation\n"


def test_table_and_json_agree(files, capsys):
    assert run(["validate", files["doubled"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run(["validate", files["doubled"], "--format", "table"]) == 0
    table = capsys.readouterr().out
    # one renderer: every top-level key appears in the table output
    for key in payload:
        assert key in table


def test_repeated_runs_byte_identical(files, capsys):
    outputs = []
    for _ in range(2):
        assert run(["enumerate", files["penta"], "--method", "vertex"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_surface_octagon_augmented(tmp_path, capsys):
    from normalhst.enumeration import (brute_force_enumerate,
                                       octagon_augmentations)
    tri = library.lens_l41()
    augs = octagon_augmentations(tri, brute_force_enumerate(tri, 4))
    tri_file = tmp_path / "lens.tri"
    tri_file.write_text(tri.to_text())
    vec_file = tmp_path / "aug.json"
    vec_file.write_text(json.dumps(augs[0].to_json_dict()))
    assert run(["surface", tri_file, vec_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "AlmostNormalOctagon"
    assert payload["check_348"]["passed"] is True
    assert payload["check_348"]["octagon_loops_total"] == 1


def test_curves_subcommand(capsys):
    # pattern of one triangle around vertex 1: arcs (0,1), (2,1), (3,1)
    counts = ["1", "0", "0", "0", "0", "0", "0", "1", "0", "0", "1", "0"]
    assert run(["curves"] + counts) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lengths"] == [3]

    # a length-12 loop fails the 3/4/8 test with a witness
    from normalhst.curve_patterns import enumerate_normal_loops, loop_pattern
    twelve = next(c for c in enumerate_normal_loops(12) if c.length == 12)
    counts = [str(x) for x in loop_pattern(twelve.representative).counts]
    assert run(["curves"] + counts + ["--check-348"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["check_348"]["witness"]) == 12

    # unbalanced input is an input error
    assert run(["curves"] + ["1"] + ["0"] * 11) == 2


def test_curves_loop_ceiling_exit_3(capsys, monkeypatch):
    # 10^6 copies of each vertex triangle: 4 * 10^6 loops to list
    assert run(["curves"] + ["1000000"] * 12 + ["--check-348"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource ceiling: 4000000 loops exceed the curve_loops ceiling "
        "2000000"]
    monkeypatch.setenv("NORMALHST_CEILING", "4")
    assert run(["curves"] + ["1"] * 12) == 0
    assert json.loads(capsys.readouterr().out)["lengths"] == [3, 3, 3, 3]
    monkeypatch.setenv("NORMALHST_CEILING", "3")
    assert run(["curves"] + ["1"] * 12) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource ceiling: 4 loops exceed the curve_loops ceiling 3"]


def test_surface_never_lists_loops(tmp_path, capsys, monkeypatch):
    # 1000 times the L(4,1) vertex link: 4 runs and 1000 spheres, so
    # 1004 surface cells, but 4000 loops on the boundary of the one
    # tetrahedron, which the 3/4/8 test judges without listing them.
    tri = library.lens_l41()
    tri_file = tmp_path / "lens.tri"
    tri_file.write_text(tri.to_text())
    vec_file = tmp_path / "links.json"
    vec_file.write_text(json.dumps(vertex_link(tri, 0).scale(1000)
                                   .to_json_dict()))
    monkeypatch.setenv("NORMALHST_CEILING", "1004")
    assert run(["surface", tri_file, vec_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["components"] == 1000
    assert payload["check_348"]["passed"] is True


@pytest.mark.parametrize("command", ["enumerate", "curves"])
def test_closed_stdout_no_traceback(files, command):
    # The reader end is closed before the child starts, as when a reader
    # like ``head`` exits early, so every write to stdout fails.
    argv = {"enumerate": ["enumerate", str(files["penta"])],
            "curves": ["curves"] + ["300"] * 12 + ["--check-348"]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "normalhst.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_process_freezes_collector_at_exit():
    # Called with argv None, as the console script and ``python -m``
    # call it, main freezes the collector on its way out, through the
    # SystemExit of --help too.
    script = (
        "import gc, sys\n"
        "from normalhst import cli\n"
        "sys.argv = ['normalhst', 'curves'] + ['1'] * 12\n"
        "code = cli.main()\n"
        "frozen = gc.get_freeze_count() > 0\n"
        "gc.unfreeze()\n"
        "sys.argv = ['normalhst', '--help']\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    help_code = exc.code\n"
        "print(code, frozen, help_code, gc.get_freeze_count() > 0,\n"
        "      file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.stderr == "0 True 0 True\n"


def test_in_process_main_leaves_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run(["curves"] + [1] * 12) == 0
    assert gc.get_freeze_count() == before


def test_selftest_single_criterion(capsys):
    assert run(["selftest", "--criteria", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("criterion 1 [PASS]")


def test_selftest_runs_each_named_criterion_once(capsys):
    assert run(["selftest", "--criteria", "6,1,1,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" [")[0] for line in lines] == \
        ["criterion 1", "criterion 6"]


@pytest.mark.parametrize("criteria", ["9", "x", "1,0", ""])
def test_selftest_unknown_criterion_exit_2(capsys, criteria):
    assert run(["selftest", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "unknown criterion" in captured.err


def _rejected(argv, capsys):
    """The one stderr line of an argument the parser refuses."""
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_bad_int_is_one_line(files, capsys):
    assert _rejected(["enumerate", files["single"], "--bound", "abc"],
                     capsys) == ("error: normalhst enumerate: argument "
                                 "--bound: invalid int value: 'abc'")


# int() reads each of these as an integer: a sign, an underscore, a
# leading zero, an Arabic-Indic digit.
@pytest.mark.parametrize("text", ["+1", "1_0", "01", "\u0661"])
@pytest.mark.parametrize("command", ["curves", "enumerate", "hst"])
def test_non_canonical_integer_is_one_line(files, capsys, command, text):
    argv, name = {
        "curves": (["curves", text] + ["1"] * 11, "N"),
        "enumerate": (["enumerate", files["single"], "--method", "brute",
                       "--bound", text], "--bound"),
        "hst": (["hst", files["split"], "--action", "search",
                 "--budget", text], "--budget"),
    }[command]
    assert _rejected(argv, capsys) == (
        f"error: normalhst {command}: argument {name}: "
        f"invalid int value: {text!r}")


def test_missing_positional_is_one_line(capsys):
    assert _rejected(["validate"], capsys) == (
        "error: normalhst validate: the following arguments are required: "
        "triangulation")
    assert _rejected([], capsys) == (
        "error: normalhst: the following arguments are required: command")


REMOVED_FLAGS = [
    ["validate", "doubled", "--seed", "1"],
    ["surface", "doubled", "link", "--seed", "1"],
    ["enumerate", "doubled", "--seed", "1"],
    ["hst", "split", "--seed", "1"],
    ["width", "pres", "--seed", "1"],
    ["curves", *"0" * 12, "--seed", "1"],
    ["selftest", "--format", "json"],
    ["width", "pres", "--action", "search", "--budget", "5"],
    ["surface", "doubled", "link", "--mode", "normal"],
    ["selftest", "--seed", "1"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS)
def test_removed_flags_are_one_line(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    assert _rejected(argv, capsys) == \
        f"error: normalhst: unrecognized arguments: {' '.join(argv[-2:])}"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["hst", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: normalhst hst ")


# ``enumerate`` always prints JSON lines, but the benchmark passes
# ``--format json`` to it, so the option stays, accepted and ignored.
INERT_OPTIONS = {("enumerate", "format")}


def test_every_option_is_read_by_its_handler():
    inert = set()
    for name, command in cli.COMMANDS.items():
        source = inspect.getsource(command.handler)
        for argument in command.positionals + command.options:
            if f"args.{argument.dest}" not in source:
                inert.add((name, argument.dest))
    assert inert == INERT_OPTIONS


README = pathlib.Path(__file__).parent.parent / "README.md"
FLAG = re.compile(r"--[a-z0-9][a-z0-9-]*")


def test_readme_and_parser_name_the_same_options():
    # Every option the parser defines is named in the README, and every
    # flag of the README's "Command line" synopsis is one it defines.
    options = {argument.name for command in cli.COMMANDS.values()
               for argument in command.options}
    text = README.read_text(encoding="utf-8")
    synopsis = re.search(r"## Command line\n\n```\n(.*?)```", text,
                         re.S).group(1)
    assert options - set(FLAG.findall(text)) == set()
    assert set(FLAG.findall(synopsis)) - options == set()


# The argparse parser that ``cli.COMMANDS`` replaced is the reference:
# on each argv both give the same exit code, values and stderr line, and
# help names the same usage and options (its layout is not compared).
PARSER_CORPUS = [
    *REMOVED_FLAGS,
    ["enumerate", "single", "--bound", "abc"],
    *[["curves", text] + ["1"] * 11 for text in ("+1", "1_0", "01", "\u0661")],
    *[["enumerate", "single", "--method", "brute", "--bound", text]
      for text in ("+1", "1_0", "01", "\u0661")],
    *[["hst", "split", "--action", "search", "--budget", text]
      for text in ("+1", "1_0", "01", "\u0661", "0", "-5")],
    *[["enumerate", "single", *argv, "--bound", "-1"]
      for argv in (["--method", "brute"], ["--method", "vertex"],
                   ["--cross-check"])],
    ["validate"], [], ["surface"], ["bogus"], ["bogus", "x", "--help"],
    # prefixes, ambiguous or not, and --opt=value
    ["width", "pres", "--s", "x"], ["width", "pres", "--se", "all"],
    ["width", "pres", "--single", "--act", "search"],
    ["enumerate", "single", "--cross", "--form", "json", "--b", "3"],
    ["enumerate", "single", "--bound=3", "--method=brute"],
    ["validate", "doubled", "--format="], ["curves", *"1" * 12, "--f=table"],
    ["enumerate", "single", "--cross-check=yes"], ["hst", "split", "--=x"],
    # a repeated option, an option with no value, a bad choice
    ["hst", "split", "--budget", "5", "--budget", "7"],
    ["width", "pres", "--action", "split", "--action", "width"],
    ["enumerate", "single", "--bound"],
    ["enumerate", "single", "--bound", "--cross-check"],
    ["validate", "doubled", "--format", "xml"],
    ["hst", "split", "--action", "descend"],
    # --, and help before, between and after other words
    ["--"], ["--", "validate", "doubled"], ["validate", "--", "doubled"],
    ["validate", "doubled", "--"], ["validate", "doubled", "x", "--", "y"],
    ["curves", *"1" * 6, "--", *"1" * 6], ["curves", "--", "-1", *"1" * 11],
    ["--help"], ["-h"], ["--help", "validate"], ["--he", "bogus"],
    ["hst", "--help"], ["hst", "split", "-h"], ["width", "pres", "--he"],
    ["enumerate", "single", "--bound", "abc", "--help"],
    ["enumerate", "single", "--help", "--bound", "abc"],
    ["selftest", "-hh"], ["selftest", "-hx"], ["validate", "--help=x"],
    *[[name, "--help"] for name in cli.COMMANDS],
    # counts: 11, 13, negative, interrupted by an option
    ["curves", *"1" * 11], ["curves", *"1" * 13], ["curves", "-3", *"1" * 11],
    ["curves", *"1" * 3, "--check-348", *"1" * 9],
    ["curves", "-1.5", *"1" * 11], ["hst", "split", "--budget", "-5"],
    ["--format", "json", "validate", "doubled"], ["--x", "validate", "d"],
]


def _parsed(parse, argv):
    """(exit code or None, command and values, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return None, parse(argv), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()


def _table_parse(argv):
    name, args = cli.parse_args(argv)
    return name, vars(args)


def _reference_parse(argv):
    values = vars(oracles.build_parser().parse_args(argv))
    del values["fn"]
    return values.pop("command"), values


def _workload_argvs(root):
    """Every argv of the benchmark's four workloads at seeds 1 and 2."""
    bench = pathlib.Path(__file__).parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import pools
        import workloads
        data = pools.load()
        return [op["argv"] for name in workloads.WORKLOADS for seed in (1, 2)
                for op in workloads.build(name, seed,
                                          str(root / f"{name}-{seed}"), data)]
    finally:
        sys.path.remove(str(bench))


HELP_FLAG = re.compile(r"(?<![\w-])--?[a-z][a-z0-9-]*")


def _usage(help_text):
    """The usage paragraph with its line breaks undone."""
    return " ".join(help_text.split("\n\n")[0].split())


def test_table_parser_matches_argparse(files, tmp_path):
    corpus = [[str(files.get(a, a)) for a in argv] for argv in PARSER_CORPUS]
    corpus += _workload_argvs(tmp_path)
    assert len(corpus) == len(PARSER_CORPUS) + 104
    helps = 0
    for argv in corpus:
        code, values, out, err = _parsed(_table_parse, argv)
        ref_code, ref_values, ref_out, ref_err = \
            _parsed(_reference_parse, argv)
        assert (code, values, err) == (ref_code, ref_values, ref_err), argv
        if out:
            helps += 1
            assert code == 0 and out.startswith("usage: normalhst"), argv
            assert _usage(out) == _usage(ref_out), argv
            assert set(HELP_FLAG.findall(out)) == \
                set(HELP_FLAG.findall(ref_out)), argv
        assert bool(out) == bool(ref_out), argv
    assert helps == 16
