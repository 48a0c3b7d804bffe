"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

import contextlib
import filecmp
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from normalhst import cli  # noqa: E402

DATA = pools.load()


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ops_a = workloads.build(workload, 7, str(a), DATA)
    ops_b = workloads.build(workload, 7, str(b), DATA)
    ops_c = workloads.build(workload, 8, str(c), DATA)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    assert [op["check"] for op in ops_a] == [op["check"] for op in ops_b]
    assert [op["check"] for op in ops_c] == [op["check"] for op in ops_a]
    differs = sorted(os.listdir(c)) != names or filecmp.cmpfiles(
        a, c, names, shallow=False)[1]
    assert differs, "another seed should give other inputs"


def test_stellar_moves_add_a_vertex_and_three_tetrahedra(tmp_path):
    for name in gen.MANIFOLDS:
        table = gen.parse_table(gen.LIBRARY[name])
        n, v = len(table), len(gen.vertex_orbits(table))
        gen.stellar_subdivide(table, random.Random(name), 40)
        assert len(table) == n + 120
        assert len(gen.vertex_orbits(table)) == v + 40
        for t, row in enumerate(table):
            for f, (t2, f2, perm) in enumerate(row):
                back = table[t2][f2]
                assert back[:2] == (t, f) and back[2][perm[f]] == f
        path = _write(table, tmp_path / f"{name}.tri")
        code, out = cli_output(["validate", path, "--format", "json"])
        assert code == 0 and json.loads(out)["is_manifold"]


def _write(table, path):
    gen.write(str(path), gen.table_text(table))
    return str(path)


def test_library_copies_round_trip():
    for text in gen.LIBRARY.values():
        assert gen.table_text(gen.parse_table(text)) == text


def _answers(workload, seed, tmp_path):
    ops = workloads.build(workload, seed, str(tmp_path), DATA)
    return [(op, *cli_output(op["argv"])) for op in ops]


def test_checker_accepts_and_rejects_enumeration(tmp_path):
    path = tmp_path / "pentachoron.tri"
    path.write_text(gen.LIBRARY["pentachoron"])
    op = {"check": "enumerate", "expect": DATA["corpus"]["pentachoron"]}
    code, out = cli_output(["enumerate", str(path), "--format", "json"])
    assert check.check(op, code, out) is None
    dropped = "\n".join(out.splitlines()[:-1]) + "\n"
    assert "vertex surfaces" in check.check(op, code, dropped)
    lines = out.splitlines()
    vector = json.loads(lines[1])
    vector["tets"][0]["tri"][0] += 1
    changed = "\n".join([lines[0], json.dumps(vector)] + lines[2:])
    assert check.check(op, code, changed) is not None
    mismatch = "{}\ndouble_description=3 brute_force=3 MISMATCH\n"
    assert check.check({"check": "cross", "expect": {"count": 3}}, 0,
                       mismatch) is not None


def test_checker_rejects_a_wrong_chi_or_component_count(tmp_path):
    for op, code, out in _answers("large", 3, tmp_path):
        assert check.check(op, code, out) is None
        p = json.loads(out)
        if op["check"] == "validate":
            p["links"][0]["chi"] = 0
            assert "sphere" in check.check(op, code, json.dumps(p))
        else:
            p["summary"]["euler_characteristic"] += 2
            assert check.check(op, code, json.dumps(p)) is not None
            p["summary"]["euler_characteristic"] -= 2
            p["summary"]["components"] -= 1
            assert check.check(op, code, json.dumps(p)) is not None


def test_checker_on_scaled_answers(tmp_path):
    for op, code, out in _answers("scaled", 5, tmp_path):
        assert check.check(op, code, out) is None, op["argv"][:2]
        p = json.loads(out)
        if op["check"] == "curves":
            p["loops"] = p["loops"][1:]
            p["lengths"] = p["lengths"][1:]
        else:
            p["summary"]["edge_weights"][0] += 1
        assert check.check(op, code, json.dumps(p)) is not None


def test_checker_on_search_answers(tmp_path):
    answers = _answers("search", 2, tmp_path)
    for op, code, out in answers:
        assert check.check(op, code, out) is None, op["argv"][:2]
    hst_op, code, out = next(a for a in answers if a[0]["check"] == "hst"
                             and a[0]["expect"]["certified"])
    p = json.loads(out)
    p["splitting"][1].append([-2, 0])
    assert check.check(hst_op, code, json.dumps(p)) is not None
    width_op, code, out = next(a for a in answers
                               if a[0]["check"] == "width"
                               and a[0]["expect"]["mode"] == "all")
    p = json.loads(out)
    p["minimum_width"] += 4
    assert check.check(width_op, code, json.dumps(p)) is not None


def test_uncertified_search_answers_pass_unless_impossible(tmp_path):
    """A search stopped early may answer above the minimum, not below it."""
    answers = _answers("search", 2, tmp_path)
    hst_op, code, out = next(a for a in answers if a[0]["check"] == "hst"
                             and a[0]["expect"]["certified"])
    p = json.loads(out)
    with open(hst_op["argv"][1], encoding="utf-8") as handle:
        start = json.load(handle)
    stopped = {**p, "status": "budget exhausted", "splitting": start,
               "minimum": check.hst_complexity(start)}
    assert check.check(hst_op, code, json.dumps(stopped)) is None
    assert not check.certified(hst_op, json.dumps(stopped))
    assert check.check(hst_op, code, json.dumps({**stopped,
                                                 "status": "certified"}))
    width_op, code, out = next(a for a in answers
                               if a[0]["check"] == "width"
                               and a[0]["expect"]["mode"] == "all")
    births = width_op["expect"]["births"]
    nested = [("B", 0)] * births + [("D", 0)] * births
    stopped = {**json.loads(out), "status": "budget exhausted",
               "witness": nested,
               "minimum_width": check.presentation_width(nested)}
    assert check.check(width_op, code, json.dumps(stopped)) is None
    assert check.check(width_op, code, json.dumps({**stopped,
                                                   "status": "certified"}))
    assert check.check(width_op, code, json.dumps(
        {**stopped, "minimum_width": stopped["minimum_width"] + 4}))


def test_min_width_matches_alternating_presentations():
    for births in range(1, 9):
        assert check.min_width(births) == 2 * births


def test_pattern_counts_close_up():
    rng = random.Random(1)
    for shape in ("quad", "octagon", "two-octagons"):
        counts, lengths, _ = workloads.curve_case(rng, shape, 3)
        code, out = cli_output(["curves", *map(str, counts), "--format", "json"])
        assert code == 0
        assert json.loads(out)["lengths"] == lengths


def small_workloads(monkeypatch):
    """Shrink every workload's inputs so a test can run all four."""
    monkeypatch.setattr(workloads, "PAIRING_SLOTS", {4: 1})
    monkeypatch.setattr(workloads, "SCALE_EXPONENTS", (1, 2))
    monkeypatch.setattr(workloads, "LARGE", ((30, 1),))
    monkeypatch.setattr(workloads, "EXHAUSTED_SLOTS", 0)
    monkeypatch.setattr(workloads, "CERTIFIED_SLOTS", 1)
    monkeypatch.setattr(workloads, "ALL_MODE_BIRTHS", (5,))
    monkeypatch.setattr(workloads, "EXCHANGE_BIRTHS", (5,))
    monkeypatch.setattr(tracing, "DESCENT_RUNS", 5)


def test_end_to_end_metric_names_are_declared(tmp_path):
    end_to_end = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    ops = workloads.build("large", 1, str(tmp_path), DATA)[:1]
    ops[0]["argv"][1] = _write(gen.parse_table(gen.LIBRARY["doubled"]),
                               tmp_path / "doubled.tri")
    ops[0]["expect"] = {"tetrahedra": 2, "vertices": 4, "orientable": True}
    metrics, attempted, failed, _, _, _ = run.measure(ops, str(tmp_path), 0)
    assert (attempted, failed) == (1, 0)
    assert {k: u for k, (_, u) in metrics.items()} == end_to_end
    assert all(value > 0 for value, _ in metrics.values())


def test_every_layer_metric_on_every_workload(tmp_path, monkeypatch):
    small_workloads(monkeypatch)
    per_layer = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    for workload in workloads.WORKLOADS:
        work = str(tmp_path / workload)
        ops = workloads.build(workload, 1, work, DATA)
        metrics, _, failed, reasons, _ = tracing.run(
            ops + workloads.coverage(work, DATA), 1, 0, ROOT)
        assert failed == 0, reasons
        assert {k: u for k, (_, u) in metrics.items()} == per_layer, workload
        assert all(value > 0 for value, _ in metrics.values()), workload
