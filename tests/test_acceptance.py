"""
Acceptance suite: one test per criterion, each printing its pass/fail
line.  Criterion 7 is additionally exercised at the subprocess level,
with the selftest command itself included among the documented commands.
"""

import json
import subprocess
import sys

from normalhst import library, selftest
from normalhst.normal_surfaces import vertex_link


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_curve_length_law():
    _check(selftest.criterion_1())


def test_criterion_2_348_checker():
    _check(selftest.criterion_2())


def test_criterion_3_enumeration_oracle_agreement():
    _check(selftest.criterion_3())


def test_criterion_4_chi_two_path():
    _check(selftest.criterion_4())


def test_criterion_5_descent_and_termination():
    result = selftest.criterion_5()
    _check(result)
    # The seeded descents draw the same moves however the draw is made.
    assert result.detail == ("340 compressions, 11804 untangle steps, "
                             "10000 random runs (201178 moves)")


def test_criterion_6_width_arithmetic():
    _check(selftest.criterion_6())


def test_criterion_7_determinism_in_process():
    _check(selftest.criterion_7())


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "normalhst.cli"] + args,
        capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def test_criterion_7_determinism_subprocess(tmp_path):
    tri_file = tmp_path / "doubled.tri"
    tri_file.write_text(library.doubled_tetrahedron().to_text())
    vec_file = tmp_path / "link.json"
    vec_file.write_text(json.dumps(
        vertex_link(library.doubled_tetrahedron(), 0).to_json_dict()))
    split_file = tmp_path / "split.json"
    split_file.write_text("[[], [[-4, 0]], []]")
    pres_file = tmp_path / "pres.txt"
    pres_file.write_text("B 0\nB 0\nD 0\nB 0\nD 0\nD 0\n")

    commands = [
        ["validate", str(tri_file), "--format", "json"],
        ["surface", str(tri_file), str(vec_file), "--format", "json"],
        ["enumerate", str(tri_file), "--method", "brute", "--bound", "5"],
        ["enumerate", str(tri_file), "--cross-check", "--bound", "6"],
        ["hst", str(split_file), "--action", "search", "--format", "json"],
        ["width", str(pres_file), "--action", "search", "--search-mode",
         "all", "--format", "json"],
        ["selftest", "--criteria", "1,3,6"],
    ]
    for argv in commands:
        first_code, first_out = _run_cli(argv)
        second_code, second_out = _run_cli(argv)
        assert first_code == second_code
        assert first_out == second_out, f"nondeterministic: {argv}"
    print("criterion 7 [PASS] determinism: subprocess runs byte-identical "
          f"({len(commands)} commands, selftest included)")
