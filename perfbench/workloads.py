"""The four workloads: each builds its operation lists from the seed.

An operation is a dict with the CLI arguments (``argv``), the checker
that judges its answer (``check``) and what that checker expects
(``expect``).  ``build`` writes every input file before anything is
timed; the program only ever sees those files and the arguments.
"""

import os
import random

import check
import gen
import pools

WORKLOADS = ("enumerate", "scaled", "large", "search")

# enumerate: slots of pooled random pairings per tetrahedron count.
PAIRING_SLOTS = {4: 5, 5: 2}
# enumerate: a corpus triangulation cross-checked in every run, with its
# count of vertex surfaces of weight at most CROSS_BOUND as the seed
# commit reports it.  Most pooled pairings have none, so without it the
# rank oracle might not run.
CORPUS_CROSS = ("rp3", 5)
# scaled: one surface per slot, (triangulation, kind of base, its weight),
# so that each slot's piece count, and so its cost, is fixed.
SURFACE_SLOTS = (("pentachoron", "vertex", 5), ("pentachoron", "link", 4),
                 ("rp3", "vertex", 2), ("lens-l41", "vertex", 1),
                 ("doubled", "vertex", 2), ("rp3", "link", 4),
                 ("lens-l41", "octagon", 4))
# scaled: one pattern per slot, (shape, run with --check-348).
CURVE_SLOTS = (("quad", False), ("octagon", True), ("quad", True),
               ("two-octagons", True), ("octagon", False), ("quad", False))
SCALE_EXPONENTS = (3, 4)          # k from 10**3 to 10**4
# large: (target tetrahedron count, single vertex links checked).  A
# pass takes about a third of a 27 s run, so a run makes three passes.
LARGE = ((1000, 3), (2000, 1))
# search: slots of recorded splittings.  Certified searches above the
# cost limit are rare (2 of 96) and would each double a slot's cost.
EXHAUSTED_SLOTS = 1
CERTIFIED_SLOTS = 3
CERTIFIED_COST_LIMIT = 0.5
ALL_MODE_BIRTHS = (9, 10, 11)
EXCHANGE_BIRTHS = (10, 10, 10, 10)

# Opposite-edge pair (quad type) of each edge {u, v} of the model
# tetrahedron, as the program numbers them.
_PAIR = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def _op(argv, checker, expect):
    return {"argv": [str(a) for a in argv], "check": checker, "expect": expect}


def build(workload, seed, work, data):
    """Write the workload's inputs under ``work``; return its operations.

    Every seed gives a workload the same slots in the same order; the
    seed chooses the inputs in each slot.
    """
    make = {"enumerate": _enumerate, "scaled": _scaled,
            "large": _large, "search": _search}[workload]
    return make(random.Random(f"{workload}-{seed}"), work, data)


def _enumerate(rng, work, data):
    ops = []
    for name in sorted(gen.LIBRARY):
        path = os.path.join(work, f"{name}.tri")
        gen.write(path, gen.LIBRARY[name])
        ops.append(_op(["enumerate", path, "--method", "vertex",
                        "--format", "json"],
                       "enumerate", data["corpus"][name]))
    name, count = CORPUS_CROSS
    ops.append(_op(["enumerate", os.path.join(work, f"{name}.tri"),
                    "--cross-check", "--bound", pools.CROSS_BOUND],
                   "cross", {"count": count}))
    for n, slots in PAIRING_SLOTS.items():
        entries = [e for e in data["pairings"][str(n)] if not e.get("capped")]
        for group in pools.windows(entries, slots):
            entry = rng.choice(group)
            path = os.path.join(work, f"pairing-{n}-{entry['index']}.tri")
            gen.write(path, gen.table_text(pools.pairing(n, entry["index"])))
            ops.append(_op(["enumerate", path, "--method", "vertex",
                            "--format", "json"], "enumerate", entry))
            if n == 4:
                ops.append(_op(["enumerate", path, "--cross-check",
                                "--bound", pools.CROSS_BOUND],
                               "cross", {"count": entry["cross_count"]}))
    return ops


def scaled_blocks(base, k, octagon=None):
    """k times ``base``; ``octagon`` = (tet, type) adds one octagon."""
    out = [[[k * x for x in part] for part in block] for block in base]
    if octagon is not None:
        out[octagon[0]][2][octagon[1]] += 1
    return out


def expected_scaled(entry, k):
    """Closed-form answer for k times a recorded base surface.

    Euler characteristic and edge weights are linear in the coordinates.
    A connected two-sided surface times k is k parallel copies; a
    connected one-sided one is k // 2 doubles plus, for odd k, itself.
    An octagon augmentation keeps its single octagon.
    """
    one = entry["k1"]
    if entry["kind"] == "octagon":
        normal = entry["normal"]
        return {"classification": one["classification"],
                "chi": one["chi"] + (k - 1) * normal["chi"],
                "edge_weights": [a + (k - 1) * b for a, b in
                                 zip(one["edge_weights"], normal["edge_weights"])],
                "components": None, "orientable": None, "octagons": 1}
    two = entry["k2"]
    components = orientable = None
    if one["components"] == 1:
        if two["components"] == 2:
            components, orientable = k, one["orientable"]
        else:
            components = k // 2 + k % 2
            orientable = two["orientable"] and (k % 2 == 0 or one["orientable"])
    return {"classification": one["classification"], "chi": k * one["chi"],
            "edge_weights": [k * w for w in one["edge_weights"]],
            "components": components, "orientable": orientable, "octagons": 0}


def pattern_counts(tri, quad, octagons):
    """Arc counts (face-major) of a block's boundary curves.

    ``quad`` and ``octagons`` are (type, count) pairs.  Each octagon of
    type q meets face f in the two arcs whose edge {f, v} is outside q.
    """
    counts = []
    for f in range(4):
        for v in range(4):
            if v == f:
                continue
            pair = _PAIR[(min(f, v), max(f, v))]
            n = tri[v] + (quad[1] if quad[0] == pair else 0)
            n += octagons[1] if octagons[0] != pair else 0
            counts.append(n)
    return counts


def curve_case(rng, shape, k):
    """(counts, sorted loop lengths, octagon loops) of one pattern.

    Quad patterns carry k triangles and k quads, octagon patterns 2k
    triangles, so all shapes have about 7k arcs.
    """
    tri = [0] * 4
    for v in rng.sample(range(4), 1 if shape == "quad" else 2):
        tri[v] = k
    octagons = {"octagon": 1, "two-octagons": 2}.get(shape, 0)
    quad = (rng.randrange(3), k if shape == "quad" else 0)
    octs = (rng.randrange(3), octagons)
    lengths = sorted([3] * sum(tri) + [4] * quad[1] + [8] * octagons)
    return pattern_counts(tri, quad, octs), lengths, octagons


def _weight(blocks):
    return sum(x for block in blocks for part in block for x in part)


def _scaled(rng, work, data):
    ops = []
    scales = gen.log_scales(rng, len(SURFACE_SLOTS), *SCALE_EXPONENTS)
    for i, ((name, kind, weight), k) in enumerate(zip(SURFACE_SLOTS, scales)):
        tri_path = os.path.join(work, f"{name}.tri")
        gen.write(tri_path, gen.LIBRARY[name])
        entry = rng.choice([e for e in data["scaled"][name] if e["kind"] == kind
                            and _weight(e["base"]) == weight])
        path = os.path.join(work, f"surface-{i}.json")
        gen.write_json(path, gen.vector_json(
            scaled_blocks(entry["base"], k, entry["octagon"])))
        ops.append(_op(["surface", tri_path, path, "--format", "json"],
                       "scaled_surface", expected_scaled(entry, k)))
    scales = gen.log_scales(rng, len(CURVE_SLOTS), *SCALE_EXPONENTS)
    for (shape, check348), k in zip(CURVE_SLOTS, scales):
        ops.append(_curves(rng, shape, k, check348))
    return ops


def _curves(rng, shape, k, check348):
    counts, lengths, octagons = curve_case(rng, shape, k)
    expect = {"counts": counts, "lengths": lengths}
    argv = ["curves", *counts, "--format", "json"]
    if check348:
        argv.append("--check-348")
        expect["check_348"] = {"passed": octagons <= 1, "octagons": octagons}
    return _op(argv, "curves", expect)


def _stellar(rng, work, size, links):
    """validate, all links and ``links`` single links of a subdivision."""
    base = rng.choice(gen.MANIFOLDS)
    table = gen.parse_table(gen.LIBRARY[base])
    start_vertices = len(gen.vertex_orbits(table))
    moves = (size - len(table)) // 3
    gen.stellar_subdivide(table, rng, moves)
    orbits = gen.vertex_orbits(table)
    n = len(table)
    tri_path = os.path.join(work, f"stellar-{size}.tri")
    gen.write(tri_path, gen.table_text(table))
    ops = [_op(["validate", tri_path, "--format", "json"], "validate",
               {"tetrahedra": n, "vertices": start_vertices + moves,
                "orientable": gen.orientable(table)})]
    path = os.path.join(work, f"links-{size}.json")
    gen.write_json(path, gen.vector_json(gen.link_vector(n, orbits)))
    ops.append(_op(["surface", tri_path, path, "--format", "json"],
                   "link_surface", {"components": start_vertices + moves}))
    for j, orbit in enumerate(rng.sample(orbits, links)):
        path = os.path.join(work, f"link-{size}-{j}.json")
        gen.write_json(path, gen.vector_json(gen.link_vector(n, [orbit])))
        ops.append(_op(["surface", tri_path, path, "--format", "json"],
                       "link_surface", {"components": 1}))
    return ops


def _large(rng, work, data):
    return [op for size, links in LARGE
            for op in _stellar(rng, work, size, links)]


def _search(rng, work, data):
    ops = []
    splittings = data["splittings"]
    groups = (pools.windows([e for e in splittings if not e["certified"]],
                            EXHAUSTED_SLOTS)
              + pools.windows([e for e in splittings if e["certified"]
                               and e["cost"] <= CERTIFIED_COST_LIMIT],
                              CERTIFIED_SLOTS))
    for group in groups:
        ops.append(_hst(work, rng.choice(group)))
    for mode, births_list in (("all", ALL_MODE_BIRTHS),
                              ("exchange", EXCHANGE_BIRTHS)):
        for i, births in enumerate(births_list):
            ops.append(_width(rng, work, mode, births, i))
    return ops


def _hst(work, entry):
    path = os.path.join(work, f"splitting-{entry['index']}.json")
    gen.write_json(path, pools.splitting(entry["index"]))
    return _op(["hst", path, "--action", "search", "--format", "json"],
               "hst", entry)


def _width(rng, work, mode, births, i):
    events = gen.interleaved_presentation(rng, births)
    path = os.path.join(work, f"presentation-{mode}-{i}.txt")
    gen.write(path, gen.presentation_text(events))
    return _op(["width", path, "--action", "search", "--search-mode", mode,
                "--format", "json"],
               "width", {"mode": mode, "births": births,
                         "start": check.presentation_width(events)})


def coverage(work, data):
    """A fixed list of small operations that runs every layer.

    The traced run replays it with each workload's list, so every
    per-layer metric is measured on every workload, and a layer the
    workload does not use shows this small, constant load.
    """
    rng = random.Random("coverage")
    work = os.path.join(work, "coverage")
    name, count = CORPUS_CROSS
    path = os.path.join(work, f"{name}.tri")
    gen.write(path, gen.LIBRARY[name])
    ops = [_op(["enumerate", path, "--method", "vertex", "--format", "json"],
               "enumerate", data["corpus"][name]),
           _op(["enumerate", path, "--cross-check", "--bound",
                pools.CROSS_BOUND], "cross", {"count": count})]
    ops += _stellar(rng, work, 40, 1)
    ops.append(_curves(rng, "octagon", 30, True))
    cheapest = min((e for e in data["splittings"] if e["certified"]),
                   key=lambda e: (e["cost"], e["index"]))
    ops.append(_hst(work, cheapest))
    ops.append(_width(rng, work, "all", 6, 0))
    return ops
