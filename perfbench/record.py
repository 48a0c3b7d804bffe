"""Record the answers of the pooled inputs into ``data/expected.json``.

Run from the repository root on the commit whose answers are the
reference:

    python3 perfbench/record.py

It runs every pooled input through ``normalhst.cli.main`` in process and
stores what the checkers compare against.  An input still running after
``CAP_S`` seconds of wall time is stored as capped and never drawn.  It
then stores each drawable pooled input's median CPU time over
``REPEATS`` rounds, run as the benchmark runs it, which the workloads
use to group their draws by difficulty.  The answers repeat exactly on
the same commit; the CPU times do not.
"""

import contextlib
import io
import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import pools  # noqa: E402
import run as benchmark  # noqa: E402
from workloads import expected_scaled, scaled_blocks  # noqa: E402
from normalhst import cli  # noqa: E402
from normalhst.enumeration import (enumerate_vertex_surfaces,  # noqa: E402
                                   octagon_augmentations)
from normalhst.normal_surfaces import SurfaceVector  # noqa: E402
from normalhst.triangulation import (compute_skeleton,  # noqa: E402
                                     parse_triangulation)

WORK = os.path.join(HERE, ".work", "record")
REPEATS = 3     # each recorded CPU time is the median of this many rounds
CAP_S = 5       # wall seconds after which an input counts as capped


class Capped(Exception):
    pass


def _alarm(signum, frame):
    raise Capped()


def run(argv, cap=CAP_S):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(cap)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
    return code, out.getvalue()


def answers(argvs):
    """Standard output of each call, which must succeed."""
    outputs = []
    for argv in argvs:
        code, stdout = run(argv)
        assert code == 0, argv
        outputs.append(stdout)
    return outputs


def record_costs(entries):
    """Give each drawable entry its median CPU time over REPEATS rounds.

    Every call runs as the benchmark runs it: a child process with the
    benchmark's environment, its CPU time from its own rusage.  Each
    round sweeps the whole pool, so a slow spell of a shared machine
    shifts one round of many inputs rather than every run of a few.
    """
    drawable = [e for e in entries if "argvs" in e]
    out_path = os.path.join(WORK, "cost.out")
    times = [[] for _ in drawable]
    for r in range(REPEATS):
        for entry, samples in zip(drawable, times):
            samples.append(sum(benchmark.run_cli(argv, out_path)[2]
                               for argv in entry["argvs"]))
        print(f"cost round {r + 1} of {REPEATS} done", file=sys.stderr,
              flush=True)
    for entry, samples in zip(drawable, times):
        entry["cost"] = round(statistics.median(samples), 4)
        del entry["argvs"]


def record_enumeration(path, cross):
    argvs = [["enumerate", path, "--format", "json"]]
    if cross:
        argvs.append(["enumerate", path, "--cross-check", "--bound",
                      str(pools.CROSS_BOUND)])
    outputs = answers(argvs)
    _, keys = check.vertex_answer(outputs[0])
    entry = {"count": len(keys), "digest": check.vertex_digest(keys),
             "argvs": argvs}
    if cross:
        assert "MATCH" in outputs[1].split(), path
        entry["cross_count"] = sum(1 for k in keys if sum(k) <= pools.CROSS_BOUND)
    return entry


def record_pairings():
    out = {}
    for n, size in pools.PAIRING_POOL.items():
        out[str(n)] = []
        for i in range(size):
            path = os.path.join(WORK, f"pairing-{n}-{i}.tri")
            gen.write(path, gen.table_text(pools.pairing(n, i)))
            try:
                entry = record_enumeration(path, cross=(n == 4))
            except Capped:
                entry = {"capped": True, "cost": None}
            entry["index"] = i
            out[str(n)].append(entry)
            print(f"pairing n={n} #{i}: count {entry.get('count')}",
                  file=sys.stderr, flush=True)
        record_costs(out[str(n)])
    return out


def record_corpus():
    out = {}
    for name, text in sorted(gen.LIBRARY.items()):
        path = os.path.join(WORK, f"{name}.tri")
        gen.write(path, text)
        out[name] = record_enumeration(path, cross=False)
        del out[name]["argvs"]
    return out


def record_splittings():
    out = []
    for i in range(pools.SPLITTING_POOL):
        path = os.path.join(WORK, f"splitting-{i}.json")
        gen.write_json(path, pools.splitting(i))
        argv = ["hst", path, "--action", "search", "--format", "json"]
        p = json.loads(answers([argv])[0])
        entry = {"index": i, "minimum": p["minimum"],
                 "certified": p["status"] == "certified", "argvs": [argv]}
        out.append(entry)
        print(f"splitting #{i}: {p['status']}", file=sys.stderr, flush=True)
    record_costs(out)
    return out


def summary_of(tri_path, blocks, name):
    path = os.path.join(WORK, f"{name}.json")
    gen.write_json(path, gen.vector_json(blocks))
    code, stdout = run(["surface", tri_path, path, "--format", "json"], 60)
    assert code == 0, (name, stdout)
    p = json.loads(stdout)
    s = p["summary"]
    return {"classification": p["classification"],
            "chi": s["euler_characteristic"], "components": s["components"],
            "orientable": s["orientable"], "edge_weights": s["edge_weights"]}


def blocks_of(vector):
    return [[list(t), list(q), list(o)] for t, q, o in vector.tets]


def record_scaled():
    out = {}
    for name in pools.SCALED_BASES:
        tri_path = os.path.join(WORK, f"{name}.tri")
        gen.write(tri_path, gen.LIBRARY[name])
        tri = parse_triangulation(gen.LIBRARY[name])
        vertex = enumerate_vertex_surfaces(tri)
        orbits = compute_skeleton(tri).vertex_orbits
        links = [SurfaceVector.build(tri, {(t, "tri", v): 1 for t, v in o})
                 for o in orbits]
        sums = [a.add(b) for i, a in enumerate(vertex + links)
                for b in (vertex + links)[i:]]
        augmented = octagon_augmentations(tri, vertex + links + sums)
        entries = ([("vertex", blocks_of(v), None) for v in vertex]
                   + [("link", blocks_of(v), None) for v in links])
        for a in augmented:
            t = next(t for t, (_, _, o) in enumerate(a.tets) if any(o))
            q = a.tets[t][2].index(1)
            normal = [[list(x) for x in block] for block in blocks_of(a)]
            normal[t][2] = [0, 0, 0]
            entries.append(("octagon", normal, (t, q)))
        out[name] = []
        for i, (kind, base, octagon) in enumerate(entries):
            tag = f"{name}-{i}"
            entry = {"kind": kind, "base": base, "octagon": octagon,
                     "k1": summary_of(tri_path, scaled_blocks(base, 1, octagon), tag)}
            if kind == "octagon":
                entry["normal"] = summary_of(tri_path, base, tag)
            else:
                entry["k2"] = summary_of(tri_path, scaled_blocks(base, 2), tag)
            for k in (2, 3, 4, 5):
                got = summary_of(tri_path, scaled_blocks(base, k, octagon), tag)
                want = expected_scaled(entry, k)
                for key, value in want.items():
                    if key in got and value is not None:
                        assert got[key] == value, (tag, k, key, got, want)
            out[name].append(entry)
        print(f"scaled {name}: {len(out[name])} bases", file=sys.stderr)
    return out


def main():
    data = {"corpus": record_corpus(),
            "scaled": record_scaled(),
            "splittings": record_splittings(),
            "pairings": record_pairings()}
    gen.write_json(pools.DATA, data)


if __name__ == "__main__":
    main()
