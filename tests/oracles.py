"""
Independent oracles used by the test suite.

These re-derive quantities along different routes than the package:
rank by fraction-free (Bareiss) elimination instead of elimination
with gcd-reduced rows, vertex links built directly from corner triangles, and
surfaces assembled as explicit cell complexes from face-side arc lists
(with the opposite labelling convention for parallel quads, which must
not matter), and vertex surfaces as the whole cone's extreme rays
filtered for the quad constraint afterwards, where the package prunes
inadmissible rays during double description, curve patterns split
into loops by walking one explicit arc per end, where the package works
from the counts, the 3/4/8 test judged loop by loop over the expanded
list, where the package judges each loop word once with its number of
copies, loop words canonicalized by comparing every rotation,
where the package uses a least-rotation algorithm, and the least width
over all presentations found by scoring every birth/death kind sequence,
where the package uses a closed form, the skeleton from tuple-keyed
cells with every edge doubled into its two directions, where the
package walks each orbit with one direction parity, orientability by
propagating signs tetrahedron by tetrahedron, the HST minimum
search rebuilding every rewrite and canonical key of every state it
pops, where the package caches each thick level's rewrites, and
surface reconstruction with two union-find elements (its sides in the
orientation double cover), one gluing and one edge-stack entry per
piece, where the package joins runs of parallel copies in a union-find
with parities, tube adjacency read off explicit edge stacks, where the
package computes each piece's stack position, the legal exchanges
found by attempting every move, where the package tests the slots, and
the least width reachable by exchanges found by searching every
reachable presentation, where the package runs one descent.
It also keeps the permutation and gluing helpers that only the tests
use.
"""

import math

from normalhst import hst, model
from normalhst.curve_patterns import Check348, LoopDecomposition, PatternError
from normalhst.normal_surfaces import (SurfaceError, SurfaceSummary,
                                       check_admissible)
from normalhst.thin_position import (MorsePresentation, PresentationError,
                                     exchange_move, legal_exchanges, width)
from normalhst.triangulation import Skeleton, compute_skeleton


class UnionFind:
    """Recursive union-by-size, distinct from the package's iterative one."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        self.add(x)
        if self.parent[x] != x:
            self.parent[x] = self.find(self.parent[x])
        return self.parent[x]

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]

    def orbit_count(self):
        return len({self.find(x) for x in self.parent})

    def orbits(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return list(groups.values())


def perm_compose(p, q):
    """The permutation of {0,1,2,3} applying q first, then p."""
    return tuple(p[q[i]] for i in range(4))


def image_of_edge(gluing, e):
    """The edge index a gluing sends edge e of its source face to."""
    return model.perm_on_edge(gluing.perm, e)


def boundary_faces(tri):
    """The unglued faces (t, f) of a triangulation, in (t, f) order."""
    return [(t, f) for t in range(tri.tetrahedron_count)
            for f in range(4) if tri.gluings[t][f] is None]


def bareiss_rank(rows):
    """Rank over the integers by fraction-free elimination."""
    mat = [list(map(int, row)) for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(mat) and col < ncols:
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            for c in range(col + 1, ncols):
                mat[r][c] = (pivot * mat[r][c] - mat[r][col] * mat[rank][c]) \
                    // prev
            mat[r][col] = 0
        prev = pivot
        rank += 1
        col += 1
    return rank


def explicit_skeleton(tri):
    """Cell orbits as a :class:`Skeleton`, from tuple-keyed cells.

    Every gluing is applied from both sides.  Whether an edge orbit is
    identified with itself reversed comes from a second union-find over
    directed edges (t, e, o), o = 1 marking the copy running from the
    higher endpoint to the lower: the orbit is reversed when the two
    directions of one member end up in one class.
    """
    n = tri.tetrahedron_count
    vertices, edges, faces, directed = (UnionFind(), UnionFind(),
                                        UnionFind(), UnionFind())
    for t in range(n):
        for x in range(4):
            vertices.add((t, x))
            faces.add((t, x))
        for e in range(6):
            edges.add((t, e))
            directed.add((t, e, 0))
            directed.add((t, e, 1))
    for t in range(n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            faces.union((t, f), (g.tet, g.face))
            for v in model.FACE_VERTICES[f]:
                vertices.union((t, v), (g.tet, g.image_of_vertex(v)))
            for e in model.FACE_EDGES[f]:
                e2 = image_of_edge(g, e)
                edges.union((t, e), (g.tet, e2))
                u, v = model.EDGES[e]
                flip = 0 if g.image_of_vertex(u) < g.image_of_vertex(v) else 1
                directed.union((t, e, 0), (g.tet, e2, flip))
                directed.union((t, e, 1), (g.tet, e2, 1 - flip))

    def ordered(uf):
        return tuple(sorted(tuple(sorted(o)) for o in uf.orbits()))

    vertex_orbits, edge_orbits, face_orbits = (ordered(vertices),
                                               ordered(edges), ordered(faces))

    def boundary(t, f):
        return tri.gluings[t][f] is None

    return Skeleton(
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        face_orbits=face_orbits,
        vertex_boundary=tuple(any(boundary(t, f) for (t, v) in o
                                  for f in range(4) if f != v)
                              for o in vertex_orbits),
        edge_reversed=tuple(directed.find(o[0] + (0,))
                            == directed.find(o[0] + (1,))
                            for o in edge_orbits),
    )


def orientable_by_propagation(tri):
    """Orientability by spreading signs through the face gluings.

    Tetrahedra glued by an odd permutation get equal signs, by an even
    one opposite signs; a conflict means no coherent orientation.
    """
    sign = [0] * tri.tetrahedron_count
    for start in range(tri.tetrahedron_count):
        if sign[start]:
            continue
        sign[start] = 1
        queue = [start]
        for t in queue:
            for f in range(4):
                g = tri.gluings[t][f]
                if g is None:
                    continue
                want = -sign[t] * model.perm_sign(g.perm)
                if sign[g.tet] == 0:
                    sign[g.tet] = want
                    queue.append(g.tet)
                elif sign[g.tet] != want:
                    return False
    return True


def link_chi(tri, vertex_orbit_members):
    """Euler characteristic of a vertex link, built from scratch.

    Faces of the link are the corner triangles (t, v); edges are corner
    sides identified across face gluings; vertices are directed edge
    ends.
    """
    members = set(vertex_orbit_members)
    sides = UnionFind()
    ends = UnionFind()
    for (t, v) in members:
        for f in range(4):
            if f != v:
                sides.add((t, v, f))
        for e in range(6):
            if v in model.EDGES[e]:
                ends.add((t, v, e))
    for (t, v) in members:
        for f in range(4):
            if f == v:
                continue
            g = tri.gluings[t][f]
            if g is None:
                continue
            v2 = g.image_of_vertex(v)
            sides.union((t, v, f), (g.tet, v2, g.face))
            for e in model.FACE_EDGES[f]:
                if v in model.EDGES[e]:
                    ends.union((t, v, e), (g.tet, v2, image_of_edge(g, e)))
    return ends.orbit_count() - sides.orbit_count() + len(members)


# ---------------------------------------------------------------------------
# Cell-complex surface oracle
# ---------------------------------------------------------------------------

def _arc_rank_positions(vector, t, f, v):
    """Pieces carrying arcs of type (f, v), ordered away from v.

    Same geometric content as the package's stacking but labelled from
    the opposite end of each quad family: copy j is taken at distance j
    from the HIGHER-indexed edge of its pair.  A valid realization can
    relabel parallel copies, so every derived invariant must agree.
    """
    tri_c, quad_c, oct_c = vector.tets[t]
    arcs = [("tri", v, i) for i in range(tri_c[v])]
    # the quad type meeting face f in an arc around v pairs edge {f, v}
    q = model.PAIR_OF_EDGE[model.edge_index(f, v)]
    if quad_c[q]:
        hi = max(model.PAIRS[q])
        copies = range(quad_c[q])
        if v not in model.EDGES[hi]:
            copies = reversed(copies)
        arcs.extend(("quad", q, i) for i in copies)
    for qq in range(3):
        if oct_c[qq] and model.oct_arc_count(qq, f, v):
            arcs.extend(("oct", qq, i) for i in range(oct_c[qq]))
    return arcs


def _edge_width(vector, t, e):
    return model.edge_weight(vector.tets[t], e)


def _crossings_on_edge(vector, t, e):
    """Pieces at each position along edge e, one reading per incident face.

    Every arc cutting off an endpoint of e has exactly one endpoint on
    e, so the two endpoint groups of a face tile the edge; the two
    faces' readings must name the same piece at every position.
    """
    u, w = model.EDGES[e]
    width = _edge_width(vector, t, e)
    readings = []
    for f in model.FACES_OF_EDGE[e]:
        slots = [None] * width
        for rank, piece in enumerate(_arc_rank_positions(vector, t, f, u)):
            assert slots[rank] is None
            slots[rank] = piece
        for rank, piece in enumerate(_arc_rank_positions(vector, t, f, w)):
            assert slots[width - 1 - rank] is None
            slots[width - 1 - rank] = piece
        assert None not in slots
        readings.append(slots)
    assert readings[0] == readings[1], "face readings of an edge disagree"
    return readings


def surface_cells(tri, vector):
    """Explicit cell complex of an admissible vector.

    Returns (piece list, component ids per piece, per-component chi,
    per-component closed flags) computed with union-find over all cells.
    """
    n = tri.tetrahedron_count
    pieces = []
    for t in range(n):
        tri_c, quad_c, oct_c = vector.tets[t]
        for v in range(4):
            for i in range(tri_c[v]):
                pieces.append((t, "tri", v, i))
        for q in range(3):
            for i in range(quad_c[q]):
                pieces.append((t, "quad", q, i))
        for q in range(3):
            for i in range(oct_c[q]):
                pieces.append((t, "oct", q, i))

    cells = UnionFind()
    for p in pieces:
        cells.add(("piece",) + p)

    # Arc cells: (t, f, v, rank); tie each to its piece.
    arc_cells = []
    for t in range(n):
        for f in range(4):
            for v in model.FACE_VERTICES[f]:
                ranked = _arc_rank_positions(vector, t, f, v)
                for rank, piece in enumerate(ranked):
                    arc = ("arc", t, f, v, rank)
                    cells.add(arc)
                    cells.union(arc, ("piece", t) + piece)
                    arc_cells.append(arc)

    # Identify arcs across gluings.
    boundary_arc = set()
    arc_orbits = UnionFind()
    for a in arc_cells:
        arc_orbits.add(a)
    for t in range(n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                for v in model.FACE_VERTICES[f]:
                    for rank in range(len(_arc_rank_positions(vector, t, f, v))):
                        boundary_arc.add(("arc", t, f, v, rank))
                continue
            for v in model.FACE_VERTICES[f]:
                v2 = g.image_of_vertex(v)
                a_list = _arc_rank_positions(vector, t, f, v)
                b_list = _arc_rank_positions(vector, g.tet, g.face, v2)
                assert len(a_list) == len(b_list)
                for rank in range(len(a_list)):
                    cells.union(("arc", t, f, v, rank),
                                ("arc", g.tet, g.face, v2, rank))
                    arc_orbits.union(("arc", t, f, v, rank),
                                     ("arc", g.tet, g.face, v2, rank))

    # Crossing cells: (t, e, pos), identified across gluings via the
    # endpoint correspondence; tie to the pieces crossing there.
    crossing_orbits = UnionFind()
    for t in range(n):
        for e in range(6):
            readings = _crossings_on_edge(vector, t, e)
            for pos, piece in enumerate(readings[0]):
                cell = ("cross", t, e, pos)
                cells.add(cell)
                crossing_orbits.add(cell)
                cells.union(cell, ("piece", t) + piece)
            for pos, piece in enumerate(readings[1]):
                cells.union(("cross", t, e, pos), ("piece", t) + piece)
    for t in range(n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            for e in model.FACE_EDGES[f]:
                e2 = image_of_edge(g, e)
                u, w = model.EDGES[e]
                width = _edge_width(vector, t, e)
                assert width == _edge_width(vector, g.tet, e2)
                u2 = g.image_of_vertex(u)
                same = u2 == min(u2, g.image_of_vertex(w))
                for pos in range(width):
                    pos2 = pos if same else width - 1 - pos
                    cells.union(("cross", t, e, pos),
                                ("cross", g.tet, e2, pos2))
                    crossing_orbits.union(("cross", t, e, pos),
                                          ("cross", g.tet, e2, pos2))

    if vector.tube is not None:
        t = vector.tube.tet
        cells.union(("piece", t) + vector.tube.piece_a,
                    ("piece", t) + vector.tube.piece_b)

    # Components and counts.
    comp_of_root = {}
    piece_comp = []
    for p in pieces:
        root = cells.find(("piece",) + p)
        comp_of_root.setdefault(root, len(comp_of_root))
        piece_comp.append(comp_of_root[root])
    ncomp = len(comp_of_root)

    v_count = [0] * ncomp
    e_count = [0] * ncomp
    f_count = [0] * ncomp
    closed = [True] * ncomp
    for orbit in crossing_orbits.orbits():
        cell = next(iter(orbit))
        comp = comp_of_root[cells.find(cell)]
        v_count[comp] += 1
    for orbit in arc_orbits.orbits():
        cell = next(iter(orbit))
        comp = comp_of_root[cells.find(cell)]
        e_count[comp] += 1
        if orbit & boundary_arc:
            closed[comp] = False
    for i, p in enumerate(pieces):
        f_count[piece_comp[i]] += 1
    if vector.tube is not None:
        t = vector.tube.tet
        comp = comp_of_root[cells.find(("piece", t) + vector.tube.piece_a)]
        f_count[comp] -= 2

    chis = [v_count[c] - e_count[c] + f_count[c] for c in range(ncomp)]
    return pieces, piece_comp, chis, closed


def edge_stack(block, e):
    """Pieces of one tetrahedron crossing edge e, in stacking order.

    Positions run from the lower-numbered endpoint.  Entries are
    (kind, type, copy, end) and an octagon contributes two entries on
    each edge of its own pair, tagged with the nearer endpoint.
    """
    u, w = model.EDGES[e]
    tri_c, quad_c, oct_c = block
    stack = [("tri", u, i, None) for i in range(tri_c[u])]
    for q in range(3):
        if quad_c[q] and model.PAIR_OF_EDGE[e] != q:
            lo = min(model.PAIRS[q])
            copies = range(quad_c[q])
            if u not in model.EDGES[lo]:
                copies = reversed(copies)
            stack.extend(("quad", q, i, None) for i in copies)
    for q in range(3):
        if oct_c[q]:
            for copy in range(oct_c[q]):
                if model.PAIR_OF_EDGE[e] == q:
                    stack.append(("oct", q, copy, u))
                    stack.append(("oct", q, copy, w))
                else:
                    stack.append(("oct", q, copy, None))
    stack.extend(("tri", w, i, None) for i in reversed(range(tri_c[w])))
    return stack


def tube_shared_edge(v):
    """The first edge whose stack holds the tube's pieces side by side."""
    tube = v.tube
    block = v.tets[tube.tet]
    a = tube.piece_a + (None,)
    b = tube.piece_b + (None,)
    for e in range(6):
        stack = edge_stack(block, e)
        for i in range(len(stack) - 1):
            if {stack[i], stack[i + 1]} == {a, b}:
                return e
    return None


def face_arcs(block, f, v):
    """Pieces carrying an arc of type (f, v), ordered away from vertex v."""
    tri_c, quad_c, oct_c = block
    arcs = [("tri", v, i) for i in range(tri_c[v])]
    # the quad type meeting face f in an arc around v pairs edge {f, v}
    q = model.PAIR_OF_EDGE[model.edge_index(f, v)]
    if quad_c[q]:
        lo = min(model.PAIRS[q])
        copies = range(quad_c[q])
        if v not in model.EDGES[lo]:
            copies = reversed(copies)
        arcs.extend(("quad", q, i) for i in copies)
    for qq in range(3):
        if oct_c[qq] and model.oct_arc_count(qq, f, v):
            arcs.extend(("oct", qq, i) for i in range(oct_c[qq]))
    return arcs


# Each arc's slot (face, cut vertex, crossing in, crossing out) on its
# piece's boundary cycle, read straight from the model's cycles.
_PIECE_CYCLES = {"tri": model.TRI_CYCLES, "quad": model.QUAD_CYCLES,
                 "oct": model.OCT_CYCLES}
_CYCLE_SLOT = {(kind, typ) + slot[:2]: slot
               for kind, cycles in _PIECE_CYCLES.items()
               for typ, cycle in enumerate(cycles) for slot in cycle}


def _crossing_faces(kind, typ, e):
    """(face in, face out) of a triangle or quad at its crossing of edge
    e: the face of the arc its cycle leaves through the crossing, then
    the face of the arc it enters from there."""
    cycle = _PIECE_CYCLES[kind][typ]
    (face_in,) = [slot[0] for slot in cycle if slot[3][0] == e]
    (face_out,) = [slot[0] for slot in cycle if slot[2][0] == e]
    return face_in, face_out


def explicit_reconstruction(tri, v, skeleton=None):
    """The summary of a vector built piece by piece.

    Every piece has two sides, its elements of the orientation double
    cover, and every glued arc joins the sides of its two pieces that
    its orientation parity pairs; a component is nonorientable when
    both sides of a piece fall in one class.  Every entry of an orbit's
    first edge stack is a vertex of its piece's component; components
    are numbered by their first piece.
    """
    report = check_admissible(tri, v)
    if not report.admissible:
        raise SurfaceError(
            "inadmissible vector: "
            + "; ".join(viol.message for viol in report.violations))
    if skeleton is None:
        skeleton = compute_skeleton(tri)

    pieces = []
    index = {}
    for t, (tri_c, quad_c, oct_c) in enumerate(v.tets):
        for kind, counts in (("tri", tri_c), ("quad", quad_c),
                             ("oct", oct_c)):
            for typ, count in enumerate(counts):
                for i in range(count):
                    index[(t, kind, typ, i)] = len(pieces)
                    pieces.append((t, kind, typ, i))
    cover = UnionFind()

    def join(a, b, parity):
        for side in (0, 1):
            cover.union((a, side), (b, side ^ parity))

    boundary_arcs = []
    for t, f in boundary_faces(tri):
        for w in model.FACE_VERTICES[f]:
            for piece in face_arcs(v.tets[t], f, w):
                boundary_arcs.append(index[(t,) + piece])
    glued_arcs = []
    for t, f, g in tri.face_pairs():
        for w in model.FACE_VERTICES[f]:
            w2 = g.image_of_vertex(w)
            side_a = face_arcs(v.tets[t], f, w)
            side_b = face_arcs(v.tets[g.tet], g.face, w2)
            assert len(side_a) == len(side_b)
            for pa, pb in zip(side_a, side_b):
                ia = index[(t,) + pa]
                sa = _CYCLE_SLOT[pa[0], pa[1], f, w]
                sb = _CYCLE_SLOT[pb[0], pb[1], g.face, w2]
                e_from, end = sa[2]
                mapped_from = (image_of_edge(g, e_from),
                               None if end is None
                               else g.image_of_vertex(end))
                join(ia, index[(g.tet,) + pb], mapped_from == sb[2])
                glued_arcs.append(ia)

    tube_piece = None
    if v.tube is not None:
        t = v.tube.tet
        e_shared = tube_shared_edge(v)
        (ka, ta, ca), (kb, tb, cb) = v.tube.pieces()
        tube_piece = index[(t, ka, ta, ca)]
        join(tube_piece, index[(t, kb, tb, cb)],
             _crossing_faces(ka, ta, e_shared)
             == _crossing_faces(kb, tb, e_shared))

    # A component is the pair of classes holding its pieces' two sides.
    number = {}
    labels = []
    orientable = []
    for p in range(len(pieces)):
        sides = frozenset((cover.find((p, 0)), cover.find((p, 1))))
        if sides not in number:
            number[sides] = len(number)
            orientable.append(len(sides) == 2)
        labels.append(number[sides])
    ncomp = len(number)
    orientable = tuple(orientable)
    count = [0] * ncomp
    closed = [True] * ncomp
    for c in labels:
        count[c] += 1
    if tube_piece is not None:
        count[labels[tube_piece]] -= 2
    weights = []
    for orbit in skeleton.edge_orbits:
        t0, e0 = orbit[0]
        stack = edge_stack(v.tets[t0], e0)
        weights.append(len(stack))
        for entry in stack:
            count[labels[index[(t0,) + entry[:3]]]] += 1
    for ia in glued_arcs:
        count[labels[ia]] -= 1
    for ia in boundary_arcs:
        count[labels[ia]] -= 1
        closed[labels[ia]] = False

    return SurfaceSummary(component_chis=tuple(count),
                          component_closed=tuple(closed),
                          component_orientable=orientable,
                          edge_weights=tuple(weights), run_count=None)


def dense_rows(system):
    """The matching system's sparse rows as dense tuples of its columns."""
    out = []
    for sparse in system.rows:
        row = [0] * system.columns
        for column, coefficient in sparse:
            row[column] = coefficient
        out.append(tuple(row))
    return tuple(out)


def evaluate(system, flat_normal_coords):
    """Every row of the matching system applied to a flat 7n vector."""
    return tuple(sum(c * x for c, x in zip(row, flat_normal_coords))
                 for row in dense_rows(system))


def unpruned_extreme_rays(system):
    """All extreme rays of {x >= 0, rows(x) = 0}, admissible or not.

    Plain double description without quad pruning, on dense rows, with
    frozenset zero sets and the combinatorial adjacency test over every
    ray.  Equations are inserted in the package's order (support size,
    then index), so both routes see the same intermediate cones.
    Exponentially slower than the package on larger inputs; keep n
    small.
    """
    n = system.columns
    rows = dense_rows(system)
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    order = sorted(range(len(rows)),
                   key=lambda i: (sum(1 for c in rows[i] if c), i))
    for row_index in order:
        a = rows[row_index]
        dots = [sum(c * r for c, r in zip(a, ray)) for ray in rays]
        pos = [i for i, d in enumerate(dots) if d > 0]
        neg = [i for i, d in enumerate(dots) if d < 0]
        zero = [i for i, d in enumerate(dots) if d == 0]
        zero_sets = [frozenset(k for k, x in enumerate(ray) if x == 0)
                     for ray in rays]

        def adjacent(i, j):
            common = zero_sets[i] & zero_sets[j]
            for k, zs in enumerate(zero_sets):
                if k != i and k != j and zs >= common:
                    return False
            return True

        new_rays = [rays[i] for i in zero]
        for i in pos:
            for j in neg:
                if not adjacent(i, j):
                    continue
                combo = [dots[i] * rays[j][k] - dots[j] * rays[i][k]
                         for k in range(n)]
                g = 0
                for x in combo:
                    g = math.gcd(g, x)
                new_rays.append(tuple(x // g for x in combo))
        rays = new_rays
    return rays


def quad_admissible(flat):
    """At most one nonzero quad coordinate per 7-column block."""
    return all(sum(1 for q in flat[7 * t + 4: 7 * t + 7] if q) <= 1
               for t in range(len(flat) // 7))


def explicit_decompose_pattern(pattern):
    """Loops of a balanced pattern, walked arc by arc.

    Every arc of the canonical realization is placed on its two edges,
    each crossing joins exactly two arc ends, and each loop is followed
    through them.  Time and memory grow with the arc count.
    """
    def width(e, f):
        u, w = model.EDGES[e]
        return pattern.count(f, u) + pattern.count(f, w)

    bad = [e for e in range(6)
           if width(e, model.FACES_OF_EDGE[e][0])
           != width(e, model.FACES_OF_EDGE[e][1])]
    if bad:
        raise PatternError(f"edge balance violated on edges {bad}")

    # Position of the rank-r arc of type (f, v) on edge e: ranks count
    # away from the cut vertex, absolute positions from the lower edge
    # endpoint.
    def position(f, v, rank, e):
        return rank if v == model.EDGES[e][0] else width(e, f) - 1 - rank

    ends_at = {}
    for (f, v) in model.ARC_TYPES:
        for rank in range(pattern.count(f, v)):
            for e in model.arc_endpoints(f, v):
                key = (e, position(f, v, rank, e))
                ends_at.setdefault(key, []).append((f, v, rank))
    for key, ends in ends_at.items():
        assert len(ends) == 2, (key, ends)

    visited = set()
    loops = []
    for start in sorted(ends_at):
        if start in visited:
            continue
        word = []
        crossing = start
        f, v, rank = ends_at[crossing][0]
        while crossing not in visited:
            visited.add(crossing)
            word.append(crossing[0])
            # leave the crossing along the other incident arc
            a, b = ends_at[crossing]
            f, v, rank = b if a == (f, v, rank) else a
            e1, e2 = model.arc_endpoints(f, v)
            e_out = e2 if crossing[0] == e1 else e1
            crossing = (e_out, position(f, v, rank, e_out))
        loops.append(naive_canonical_word(word))

    loops.sort()
    return LoopDecomposition(loops=tuple(loops),
                             lengths=tuple(sorted(len(w) for w in loops)))


def judge_348_loops(loops):
    """The 3/4/8 verdict on a decomposition's sorted loops, one by one."""
    octagons = 0
    for word in loops:
        n = len(word)
        if n in (3, 4):
            continue
        if n == 8:
            octagons += 1
            if octagons > 1:
                return Check348(False, witness=word, octagons=octagons)
            continue
        return Check348(False, witness=word, octagons=octagons)
    return Check348(True, octagons=octagons)


def naive_canonical_word(word):
    """Least rotation of the word or its reversal, over every rotation."""
    best = None
    for w in (tuple(word), tuple(reversed(word))):
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            if best is None or rot < best:
                best = rot
    return best


def exchanges_by_trial(pres):
    """Every (death_index, birth_index) whose exchange_move succeeds."""
    out = []
    for b in range(len(pres.events) - 1):
        try:
            exchange_move(pres, b + 1, b)
        except PresentationError:
            continue
        out.append((b + 1, b))
    return out


def kind_sequences(births):
    """Every valid birth/death kind string with ``births`` of each,
    births tried before deaths at each step."""
    out = []

    def extend(prefix, b, d):
        if b == d == births:
            out.append(prefix)
            return
        if b < births:
            extend(prefix + "B", b + 1, d)
        if d < b:
            extend(prefix + "D", b, d + 1)

    extend("", 0, 0)
    return out


def least_width_by_enumeration(births, single_component=False):
    """(minimum width, first presentation reaching it) over every kind
    sequence, with every event at slot zero."""
    best = None
    for kinds in kind_sequences(births):
        pres = MorsePresentation.of(*kinds)
        prof = width(pres)
        if single_component and prof.hits_zero_interior:
            continue
        if best is None or prof.width < best[0]:
            best = (prof.width, pres)
    return best


def exchange_minimum_by_search(pres, budget=100000, single_component=False):
    """(minimum width, witness, exhausted) of a depth-first search over
    every presentation reachable from ``pres`` by exchange moves, visiting
    at most ``budget`` of them, where the package runs one descent.

    With ``single_component`` a presentation that hits zero between events
    is visited but not a candidate; with no candidate at all it raises
    the package's error.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    best = None
    best_pres = None
    explored = 0
    exhausted = True
    seen = set()
    stack = [pres]
    while stack:
        current = stack.pop()
        if current.events in seen:
            continue
        seen.add(current.events)
        explored += 1
        if explored > budget:
            exhausted = False
            break
        prof = width(current)
        if not (single_component and prof.hits_zero_interior) \
                and (best is None or prof.width < best):
            best, best_pres = prof.width, current
        for d, b in legal_exchanges(current):
            stack.append(exchange_move(current, d, b).presentation)
    if best is None:
        raise PresentationError(
            "no presentation satisfies the single-component flag")
    return best, best_pres, exhausted


def _on_branch(move, branch):
    if isinstance(move, hst.SeparatingCompression):
        return hst.SeparatingCompression(move.component, move.chi1,
                                         move.punctures1, branch)
    return type(move)(move.component, branch)


def rebuilt_rewrites(splitting):
    """Every single-move successor, each compression and untangle step
    applied to the whole splitting, in the package's order.

    Untangle pairs are found by trial: every D, every E, and E's branch 1
    too where D is separating on E's component.  A pair is kept when the
    public ``untangle_step`` accepts it, with flags that compare the
    compressed level with its neighbours as multisets."""
    out = []
    levels = splitting.levels
    for p in range(1, len(levels), 2):
        moves = hst.component_moves(levels[p])
        for move in moves:
            new_level = hst.compress(levels[p], move)
            out.append((("compress", p, move), hst.AbstractSplitting(
                levels[:p] + (new_level,) + levels[p + 1:])))
        if p == len(levels) - 1:
            continue
        for d in moves:
            eq_d = hst.compress(levels[p], d).multiset() \
                == levels[p - 1].multiset()
            for e in moves:
                branches = [0]
                if isinstance(d, hst.SeparatingCompression) \
                        and d.component == e.component:
                    branches.append(1)
                for branch in branches:
                    e_branch = _on_branch(e, branch)
                    eq_e = hst.compress(levels[p], e_branch).multiset() \
                        == levels[p + 1].multiset()
                    try:
                        step = hst.untangle_step(splitting, p, d, e_branch,
                                                 eq_d, eq_e)
                    except hst.HstError:
                        continue
                    out.append((("untangle", p, d, e_branch, eq_d, eq_e),
                                step))
    return out


def _relative_vector(splitting):
    levels = splitting.levels
    return tuple(sorted((hst.c_surface(levels[i], relative=True)
                         for i in range(1, len(levels), 2)), reverse=True))


def _canonical(splitting):
    return tuple(tuple(sorted((c.closed_chi, c.punctures)
                              for c in level.components))
                 for level in splitting.levels)


def minimal_reachable_by_rebuilding(splitting, budget=10000):
    """Depth-first minimum search that checks each state against the
    visited set when it is popped, with the same order and budget rule
    as ``hst.is_minimal_reachable``."""
    best = _relative_vector(splitting)
    best_state, best_trace = splitting, ()
    visited = set()
    explored = 0
    exhausted = True
    stack = [(splitting, ())]
    while stack:
        state, trace = stack.pop()
        key = _canonical(state)
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        if explored > budget:
            exhausted = False
            break
        vec = _relative_vector(state)
        if vec < best:            # tuple order: a proper prefix is smaller
            best, best_state, best_trace = vec, state, trace
        for move, successor in reversed(rebuilt_rewrites(state)):
            stack.append((successor, trace + (move,)))
    return hst.MinimalSearchResult(
        minimum=hst.ComplexityVector(best), splitting=best_state,
        trace=best_trace, certified=exhausted, states_explored=explored)
