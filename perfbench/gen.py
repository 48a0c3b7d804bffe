"""Seeded input generators for the benchmark.

Everything here is plain Python on ``random.Random`` instances, with no
import of the program under test, so the same seed gives byte-identical
input files on every commit.

A gluing table is a list with one row per tetrahedron; each row holds
four entries, ``None`` for a boundary face or ``(tet, face, perm)`` with
``perm`` a 4-tuple sending the source tetrahedron's vertex labels to the
target's (``perm[face] == target face``), as in the triangulation file
format.
"""

import itertools
import json
import os

_PERMS = tuple(itertools.permutations(range(4)))

# Closed triangulations from the program's reference library, in its
# text format; the benchmark keeps its own copy so that it never depends
# on library helpers.
LIBRARY = {
    "single": """1
- - - -
""",
    "doubled": """2
1:0:123 1:1:023 1:2:013 1:3:012
0:0:123 0:1:023 0:2:013 0:3:012
""",
    "pentachoron": """5
1:0:123 2:0:123 3:0:123 4:0:123
0:0:123 2:1:023 3:1:023 4:1:023
0:1:023 1:1:023 3:2:013 4:2:013
0:2:013 1:2:013 2:2:013 4:3:012
0:3:012 1:3:012 2:3:012 3:3:012
""",
    "one-tet-sphere": """1
0:1:023 0:0:123 0:3:120 0:2:301
""",
    "lens-l41": """1
0:1:230 0:0:312 0:3:120 0:2:301
""",
    "rp3": """2
1:0:132 1:1:032 1:2:103 1:3:102
0:0:132 0:1:032 0:2:103 0:3:102
""",
    "pseudomanifold": """2
1:0:231 1:1:230 1:2:013 1:3:012
0:0:312 0:1:302 0:2:013 0:3:012
""",
}

# The closed library triangulations that are manifolds.
MANIFOLDS = ("doubled", "pentachoron", "one-tet-sphere", "lens-l41", "rp3")


def _invert(perm):
    inv = [0] * 4
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def parse_table(text):
    """Gluing table of a triangulation text (comments are not allowed)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n = int(lines[0][0])
    table = []
    for t in range(n):
        row = []
        for f, token in enumerate(lines[1 + t]):
            if token == "-":
                row.append(None)
                continue
            tet, face, corners = token.split(":")
            perm = [0] * 4
            perm[f] = int(face)
            images = iter(int(c) for c in corners)
            for v in range(4):
                if v != f:
                    perm[v] = next(images)
            row.append((int(tet), int(face), tuple(perm)))
        table.append(row)
    return table


def table_text(table):
    """The triangulation file text of a gluing table."""
    lines = [str(len(table))]
    for row in table:
        tokens = []
        for f, entry in enumerate(row):
            if entry is None:
                tokens.append("-")
                continue
            tet, face, perm = entry
            corners = "".join(str(perm[v]) for v in range(4) if v != f)
            tokens.append(f"{tet}:{face}:{corners}")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def random_pairing(rng, n):
    """A random closed face pairing of n tetrahedra.

    The 4n faces are shuffled and neighbours are paired, each pair with
    a random corner map.  Most results are pseudo-manifolds.
    """
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    table = [[None] * 4 for _ in range(n)]
    for (t, f), (t2, f2) in zip(faces[::2], faces[1::2]):
        perm = rng.choice([p for p in _PERMS if p[f] == f2])
        table[t][f] = (t2, f2, perm)
        table[t2][f2] = (t, f, _invert(perm))
    return table


def stellar_subdivide(table, rng, moves):
    """Apply ``moves`` random 1-4 moves to a gluing table, in place.

    A 1-4 move cones tetrahedron t from a new interior vertex: piece i
    keeps face i of t and its gluing, and carries the new vertex under
    label i.  Piece i's face j meets piece j's face i through the
    transposition of i and j, which is odd, so orientability is kept.
    Each move adds one vertex and three tetrahedra.
    """
    for _ in range(moves):
        t = rng.randrange(len(table))
        base = len(table)
        ids = (t, base, base + 1, base + 2)
        old = table[t]
        table.extend([None] * 4 for _ in range(3))
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            entry = old[i]
            if entry is not None:
                t2, f2, perm = entry
                target = ids[f2] if t2 == t else t2
                rows[i][i] = (target, f2, perm)
                if t2 != t:
                    table[t2][f2] = (ids[i], i, _invert(perm))
            for j in range(4):
                if j != i:
                    swap = list(range(4))
                    swap[i], swap[j] = j, i
                    rows[i][j] = (ids[j], i, tuple(swap))
        for i in range(4):
            table[ids[i]] = rows[i]
    return table


def vertex_orbits(table):
    """Vertex classes of a gluing table as sorted lists of (tet, vertex)."""
    parent = {(t, v): (t, v) for t in range(len(table)) for v in range(4)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, row in enumerate(table):
        for f, entry in enumerate(row):
            if entry is None:
                continue
            t2, _, perm = entry
            for v in range(4):
                if v != f:
                    a, b = find((t, v)), find((t2, perm[v]))
                    if a != b:
                        parent[max(a, b)] = min(a, b)
    orbits = {}
    for cell in sorted(parent):
        orbits.setdefault(find(cell), []).append(cell)
    return sorted(orbits.values())


def orientable(table):
    """Whether the tetrahedra can be coherently oriented."""
    sign = [0] * len(table)
    for start in range(len(table)):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for entry in table[t]:
                if entry is None:
                    continue
                t2, _, perm = entry
                odd = sum(1 for a, b in itertools.combinations(perm, 2) if a > b) % 2
                want = sign[t] if odd else -sign[t]
                if sign[t2] == 0:
                    sign[t2] = want
                    stack.append(t2)
                elif sign[t2] != want:
                    return False
    return True


# ---------------------------------------------------------------------------
# Surface vectors and curve patterns
# ---------------------------------------------------------------------------

def vector_json(blocks):
    """SurfaceVector JSON of (tri, quad, oct) coordinate blocks."""
    return {"tets": [{"tri": list(tri), "quad": list(quad), "oct": list(oct_)}
                     for tri, quad, oct_ in blocks],
            "tube": None}


def link_vector(n, orbits):
    """Blocks with one triangle at every corner of the given orbits."""
    blocks = [[[0] * 4, [0] * 3, [0] * 3] for _ in range(n)]
    for orbit in orbits:
        for t, v in orbit:
            blocks[t][0][v] = 1
    return blocks


def log_scales(rng, count, low_exp, high_exp, jitter=0.2):
    """``count`` integers log-spaced over [10**low_exp, 10**high_exp].

    Value j sits at the middle of the j-th of ``count`` equal slices of
    the log range, moved at random by up to ``jitter / 2`` of a slice, so
    every seed covers the whole range with about the same sizes.
    """
    step = (high_exp - low_exp) / count
    return [int(round(10 ** (low_exp + step * (j + 0.5 + jitter * (rng.random() - 0.5)))))
            for j in range(count)]


# ---------------------------------------------------------------------------
# Splittings and Morse presentations
# ---------------------------------------------------------------------------

def random_splitting(rng):
    """Levels of a random splitting as ``[[chi, punctures], ...]`` lists.

    The same distribution as the program's own termination experiments:
    an empty bottom, then one or two pairs of a thick level with one or
    two components and a thin level with up to two, each component of
    closed Euler characteristic -4, -2 or 0 with up to three punctures.
    """
    def component():
        return [2 * rng.randint(-2, 0), rng.randint(0, 3)]

    levels = [[]]
    for _ in range(rng.randint(1, 2)):
        levels.append([component() for _ in range(rng.randint(1, 2))])
        levels.append([component() for _ in range(rng.randint(0, 2))])
    return levels


def random_kinds(rng, births):
    """A uniformly shuffled valid birth/death sequence (strands >= 0)."""
    while True:
        kinds = ["B"] * births + ["D"] * births
        rng.shuffle(kinds)
        count = 0
        for k in kinds:
            count += 2 if k == "B" else -2
            if count < 0:
                break
        else:
            return kinds


def presentation_text(events):
    return "".join(f"{kind} {pos}\n" for kind, pos in events)


def interleaved_presentation(rng, births):
    """A presentation of a random kind sequence with random legal slots."""
    events = []
    count = 0
    for kind in random_kinds(rng, births):
        if kind == "B":
            events.append(("B", rng.randint(0, count)))
            count += 2
        else:
            events.append(("D", rng.randint(0, count - 2)))
            count -= 2
    return events


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_json(path, data):
    write(path, json.dumps(data, sort_keys=True) + "\n")
