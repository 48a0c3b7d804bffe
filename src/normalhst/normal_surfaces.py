"""
Normal and almost normal surfaces in coordinate form.

A surface is a vector of nonnegative integers: per tetrahedron, four
triangle coordinates (indexed by the vertex cut off), three quad
coordinates and three octagon coordinates (indexed by opposite-edge
pairs), plus an optional tube annotation joining two normal disks in one
tetrahedron.  All arithmetic is exact; coordinates are plain Python
integers of arbitrary size.

Parallel copies of pieces are stacked deterministically: positions along
an edge are counted from its lower-numbered endpoint, triangle copies sit
nested around their vertices, quad copies are ordered away from the
lower-indexed edge of their pair, and arcs in a face of a given type are
ordered by distance from the vertex they cut off.  Gluing across an
identified face matches these orders, which makes reconstruction a pure
function of the vector.
"""

from . import model
from .limits import ResourceCeilingError, ceiling
from .record import Record, json_int, setfield
from .triangulation import ODD_LABELS, ParityUnionFind, compute_skeleton


class SurfaceError(ValueError):
    """Raised for malformed or inadmissible surface vectors."""


PIECE_KINDS = ("tri", "quad", "oct")


class TubeAnnotation(Record):
    """An unknotted tube joining two normal disks in one tetrahedron.

    Pieces are addressed as (kind, type, stacking index) with kind
    "tri" or "quad".  The tube is the single exceptional piece of an
    almost normal surface, so its multiplicity is always 1.
    """
    __slots__ = ("tet", "piece_a", "piece_b")

    def __init__(self, tet, piece_a, piece_b):
        setfield(self, "tet", tet)
        setfield(self, "piece_a", piece_a)
        setfield(self, "piece_b", piece_b)

    def pieces(self):
        return (self.piece_a, self.piece_b)


class SurfaceVector(Record):
    """Coordinates of a candidate (almost) normal surface.

    ``tets[t]`` is a triple (tri, quad, oct) of coordinate tuples for
    tetrahedron t.
    """
    __slots__ = ("tets", "tube")

    def __init__(self, tets, tube=None):
        setfield(self, "tets", tets)
        setfield(self, "tube", tube)

    @classmethod
    def zero(cls, tri):
        return cls(tuple(((0, 0, 0, 0), (0, 0, 0), (0, 0, 0))
                         for _ in range(tri.tetrahedron_count)))

    @classmethod
    def build(cls, tri, coords, tube=None):
        """From {(t, kind, index): value} sparse coordinates.

        One pass over ``coords``, and every tetrahedron it does not name
        shares one zero block; entries of a tetrahedron outside the
        triangulation are ignored.
        """
        n = tri.tetrahedron_count
        named = {}
        for (t, kind, index), value in coords.items():
            if 0 <= t < n:
                if kind not in PIECE_KINDS:
                    raise SurfaceError(f"unknown piece kind {kind!r}")
                if t not in named:
                    named[t] = ([0] * 4, [0] * 3, [0] * 3)
                named[t][PIECE_KINDS.index(kind)][index] = value
        zero = ((0, 0, 0, 0), (0, 0, 0), (0, 0, 0))
        return cls(tuple(tuple(map(tuple, named[t])) if t in named else zero
                         for t in range(n)), tube)

    def coordinates(self):
        """All 10 coordinates per tetrahedron, tet-major, flat."""
        out = []
        for tri_c, quad_c, oct_c in self.tets:
            out.extend(tri_c)
            out.extend(quad_c)
            out.extend(oct_c)
        return tuple(out)

    def normal_coordinates(self):
        """The 7 triangle/quad coordinates per tetrahedron, flat."""
        out = []
        for tri_c, quad_c, _ in self.tets:
            out.extend(tri_c)
            out.extend(quad_c)
        return tuple(out)

    def total_weight(self):
        return sum(self.coordinates())

    def octagon_count(self):
        return sum(sum(oc) for _, _, oc in self.tets)

    def add(self, other):
        """Coordinatewise sum; at most one summand may carry a tube."""
        if self.tube is not None and other.tube is not None:
            raise SurfaceError("cannot add two tube-carrying vectors")
        blocks = []
        for (t1, q1, o1), (t2, q2, o2) in zip(self.tets, other.tets):
            blocks.append((tuple(a + b for a, b in zip(t1, t2)),
                           tuple(a + b for a, b in zip(q1, q2)),
                           tuple(a + b for a, b in zip(o1, o2))))
        return SurfaceVector(tuple(blocks), self.tube or other.tube)

    def scale(self, k):
        if self.tube is not None and k != 1:
            raise SurfaceError("cannot scale a tube-carrying vector")
        blocks = []
        for t1, q1, o1 in self.tets:
            blocks.append((tuple(k * a for a in t1),
                           tuple(k * a for a in q1),
                           tuple(k * a for a in o1)))
        return SurfaceVector(tuple(blocks), self.tube)

    def to_json_dict(self):
        tets = [{"tri": list(t), "quad": list(q), "oct": list(o)}
                for t, q, o in self.tets]
        tube = None
        if self.tube is not None:
            tube = {"tet": self.tube.tet,
                    "pieces": [list(self.tube.piece_a),
                               list(self.tube.piece_b)]}
        return {"tets": tets, "tube": tube}

    @classmethod
    def from_json_dict(cls, data):
        """Parse the JSON form; every count must be a JSON integer.

        Floats, booleans and strings are rejected rather than coerced,
        so ``1.7`` or ``true`` never reads as 1.
        """
        try:
            blocks = tuple((tuple(json_int(x) for x in td["tri"]),
                            tuple(json_int(x) for x in td["quad"]),
                            tuple(json_int(x) for x in td["oct"]))
                           for td in data["tets"])
            tube = None
            if data.get("tube") is not None:
                td = data["tube"]
                pa, pb = td["pieces"]
                tube = TubeAnnotation(json_int(td["tet"]),
                                      (pa[0], json_int(pa[1]),
                                       json_int(pa[2])),
                                      (pb[0], json_int(pb[1]),
                                       json_int(pb[2])))
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError) as exc:
            raise SurfaceError(f"malformed surface vector JSON: {exc}")
        for t, q, o in blocks:
            if len(t) != 4 or len(q) != 3 or len(o) != 3:
                raise SurfaceError("coordinate arrays must have lengths 4/3/3")
        return cls(blocks, tube)


# ---------------------------------------------------------------------------
# Matching system
# ---------------------------------------------------------------------------

class MatchingSystem(Record):
    """The integer linear system cut out by the internal face gluings.

    One equation per glued face pair and normal arc type, over the
    triangle/quad coordinates (7 per tetrahedron, tet-major).  Each row
    is sparse: its (column, coefficient) pairs in ascending column
    order, with no zero coefficient, so at most four.  Row labels record
    ((t, f), (t', f'), v): the arc type (f, v) matched with
    (f', perm(v)).
    """
    __slots__ = ("columns", "rows", "row_labels")

    def __init__(self, columns, rows, row_labels):
        setfield(self, "columns", columns)
        setfield(self, "rows", rows)
        setfield(self, "row_labels", row_labels)


def _column(t, kind, index):
    return 7 * t + (index if kind == "tri" else 4 + index)


def matching_system(tri):
    """Matching equations of a triangulation.

    For each internal face and each of its three arc types, the arc
    count induced from one side equals the count from the other; each
    arc type on a face is met by exactly one triangle type and one quad
    type per side.  Boundary faces contribute no equations.

    Face pairs come with t <= t', so the four columns ascend unless the
    face is glued to another face of its own tetrahedron.  Such a row
    can meet one column from both sides: its coefficients are summed,
    and a column whose sum is zero is left out.
    """
    rows = []
    labels = []
    for t, f, g in tri.face_pairs():
        for v in model.FACE_VERTICES[f]:
            v2 = g.image_of_vertex(v)
            row = ((_column(t, "tri", v), 1),
                   (_column(t, "quad", model.quad_type_for_arc(f, v)), 1),
                   (_column(g.tet, "tri", v2), -1),
                   (_column(g.tet, "quad",
                            model.quad_type_for_arc(g.face, v2)), -1))
            if g.tet == t:
                merged = {}
                for column, sign in row:
                    merged[column] = merged.get(column, 0) + sign
                row = tuple(sorted((c, x) for c, x in merged.items() if x))
            rows.append(row)
            labels.append(((t, f), (g.tet, g.face), v))
    return MatchingSystem(7 * tri.tetrahedron_count, tuple(rows),
                          tuple(labels))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

class Violation(Record):
    __slots__ = ("code", "message")

    def __init__(self, code, message):
        setfield(self, "code", code)
        setfield(self, "message", message)


class AdmissibilityReport(Record):
    __slots__ = ("mode", "violations")

    def __init__(self, mode, violations):
        setfield(self, "mode", mode)
        setfield(self, "violations", violations)

    @property
    def admissible(self):
        return not self.violations


def _check_dimension(tri, v):
    if len(v.tets) != tri.tetrahedron_count:
        raise SurfaceError(
            f"vector has {len(v.tets)} tetrahedron blocks, "
            f"triangulation has {tri.tetrahedron_count}")


def _tube_structurally_valid(v):
    """Structural checks on a tube annotation; returns violations."""
    tube = v.tube
    out = []
    if not (0 <= tube.tet < len(v.tets)):
        out.append(Violation("tube", f"tube tetrahedron {tube.tet} out of range"))
        return out
    if tube.piece_a == tube.piece_b:
        out.append(Violation("tube", "tube joins a piece to itself"))
    block = v.tets[tube.tet]
    for piece in tube.pieces():
        kind, index, copy = piece
        if kind not in ("tri", "quad"):
            out.append(Violation("tube", f"tube piece kind {kind!r} invalid"))
            continue
        limit = 4 if kind == "tri" else 3
        if not (0 <= index < limit):
            out.append(Violation("tube", f"tube piece type {index} out of range"))
            continue
        count = block[0][index] if kind == "tri" else block[1][index]
        if not (0 <= copy < count):
            out.append(Violation(
                "tube", f"tube piece {piece} exceeds available copies"))
    return out


def check_admissible(tri, v):
    """Full admissibility report for a surface vector.

    Verifies nonnegativity, the matching equations (octagons contribute
    two arcs to each face of their tetrahedron) and the one-quad-type-
    per-tetrahedron constraint.  The mode comes from the vector's own
    pieces: one with an octagon or a tube is checked as almost normal,
    which requires exactly one octagon (in a quad-free tetrahedron) or
    exactly one tube; any other is checked as normal.
    """
    _check_dimension(tri, v)
    octs = v.octagon_count()
    mode = "normal" if octs == 0 and v.tube is None else "almost_normal"
    violations = []

    for t, block in enumerate(v.tets):
        for group in block:
            if any(c < 0 for c in group):
                violations.append(Violation(
                    "nonnegative", f"negative coordinate in tetrahedron {t}"))
                break

    for t, (tri_c, quad_c, oct_c) in enumerate(v.tets):
        if sum(1 for q in quad_c if q) > 1:
            violations.append(Violation(
                "quad constraint",
                f"tetrahedron {t} has more than one nonzero quad type"))

    # Matching, octagon arcs included.
    for t, f, g in tri.face_pairs():
        for w in model.FACE_VERTICES[f]:
            lhs = model.arc_count(v.tets[t], f, w)
            rhs = model.arc_count(v.tets[g.tet], g.face,
                                  g.image_of_vertex(w))
            if lhs != rhs:
                violations.append(Violation(
                    "matching",
                    f"face ({t},{f}) arc type cutting vertex {w}: "
                    f"{lhs} != {rhs}"))

    if mode == "almost_normal":
        if octs + (1 if v.tube is not None else 0) != 1:
            violations.append(Violation(
                "exceptional piece",
                "almost normal surface needs exactly one octagon or one "
                f"tube, found {octs} octagon(s)"
                + (" and a tube" if v.tube is not None else "")))
        if octs:
            for t, (_, quad_c, oct_c) in enumerate(v.tets):
                if any(oct_c) and any(quad_c):
                    violations.append(Violation(
                        "octagon",
                        f"octagon shares tetrahedron {t} with quads"))
    if v.tube is not None:
        violations.extend(_tube_structurally_valid(v))
        if not violations and _tube_shared_edge(v) is None:
            violations.append(Violation(
                "tube", "tube pieces are not adjacent in the stacking order"))

    return AdmissibilityReport(mode=mode, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Stacking of parallel pieces
# ---------------------------------------------------------------------------

def _stack_position(block, e, piece):
    """Where a triangle or quad copy crosses edge e, or None.

    The pieces of one tetrahedron crossing e = (u, w), u < w, are
    stacked from u: the triangles at u, the quads of the two pairs
    that cross e, their copies ascending when u lies on the lower edge
    of the pair and descending otherwise, every octagon (twice for the
    pair of e), then the triangles at w in descending copy order.
    """
    u, w = model.EDGES[e]
    kind, typ, copy = piece
    tri_c, quad_c, _ = block
    if kind == "tri":
        if typ == u:
            return copy
        return model.edge_weight(block, e) - 1 - copy if typ == w else None
    if model.PAIR_OF_EDGE[e] == typ:
        return None
    if u not in model.EDGES[min(model.PAIRS[typ])]:
        copy = quad_c[typ] - 1 - copy
    return tri_c[u] + copy + sum(quad_c[q] for q in range(typ)
                                 if model.PAIR_OF_EDGE[e] != q)


def _tube_shared_edge(v):
    """The first edge the tube's pieces cross at consecutive positions,
    or None; O(1) whatever the coordinates."""
    tube = v.tube
    block = v.tets[tube.tet]
    for e in range(6):
        a = _stack_position(block, e, tube.piece_a)
        b = _stack_position(block, e, tube.piece_b)
        if a is not None and b is not None and abs(a - b) == 1:
            return e
    return None


# ---------------------------------------------------------------------------
# Euler characteristic, counting route
# ---------------------------------------------------------------------------

def euler_characteristic(tri, v, skeleton=None):
    """Euler characteristic via cell counts.

    chi = V - E + F where V sums the edge weights over edge orbits, E
    sums arc counts over face orbits (each internal face once), and F
    counts pieces, a tube assembly (two disks plus the joining annulus)
    contributing 0 in place of its two disks.  The vector must be
    admissible, or :class:`SurfaceError` is raised.
    """
    report = check_admissible(tri, v)
    if not report.admissible:
        raise SurfaceError(
            "inadmissible vector: "
            + "; ".join(viol.message for viol in report.violations))
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    vertices = 0
    for orbit in skeleton.edge_orbits:
        t, e = orbit[0]
        vertices += model.edge_weight(v.tets[t], e)
    edges = 0
    for orbit in skeleton.face_orbits:
        t, f = orbit[0]
        edges += sum(model.arc_count(v.tets[t], f, w)
                     for w in model.FACE_VERTICES[f])
    faces = v.total_weight()
    if v.tube is not None:
        faces -= 2
    return vertices - edges + faces


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

class SurfaceSummary(Record):
    __slots__ = ("euler_characteristic", "component_count", "component_chis",
                 "component_closed", "component_orientable", "orientable",
                 "edge_weights", "is_sphere_component")

    def __init__(self, euler_characteristic, component_count, component_chis,
                 component_closed, component_orientable, orientable,
                 edge_weights, is_sphere_component):
        setfield(self, "euler_characteristic", euler_characteristic)
        setfield(self, "component_count", component_count)
        setfield(self, "component_chis", component_chis)
        setfield(self, "component_closed", component_closed)
        setfield(self, "component_orientable", component_orientable)
        setfield(self, "orientable", orientable)
        setfield(self, "edge_weights", edge_weights)
        setfield(self, "is_sphere_component", is_sphere_component)


# Boundary cycles by piece kind, and the directed arc slot of each
# (kind, type, face, cut vertex) on its piece's cycle.
_CYCLES = {"tri": model.TRI_CYCLES, "quad": model.QUAD_CYCLES,
           "oct": model.OCT_CYCLES}
_ARC_SLOT = {(kind, typ, s[0], s[1]): s
             for kind, cycles in _CYCLES.items()
             for typ, cycle in enumerate(cycles) for s in cycle}
# Per (kind, type): crossings of each of the six edges, and arcs on
# each of the four faces.
_EDGE_CROSSINGS = {(kind, typ): tuple(weight(typ, e) for e in range(6))
                   for kind, weight in (("tri", model.tri_weight),
                                        ("quad", model.quad_weight),
                                        ("oct", model.oct_weight))
                   for typ in range(len(_CYCLES[kind]))}
_FACE_ARCS = {(kind, typ): tuple(sum(1 for s in cycle if s[0] == f)
                                 for f in range(4))
              for kind, cycles in _CYCLES.items()
              for typ, cycle in enumerate(cycles)}
# Index of each kind's first coordinate among a tetrahedron's ten.
_SLOT = {"tri": 0, "quad": 4, "oct": 7}
# Labels of the run union-find: bit 0 is the orientation parity, bit 1
# says the copy index is reversed.  These masks select, from a class's
# cycle span, the labels that flip orientation with the index kept and
# the labels that reverse the index.
_FLIP_KEPT = 1 << 0b01
_REVERSING = 1 << 0b10 | 1 << 0b11


def _parallel(kind_a, typ_a, f, v, g, kind_b, typ_b):
    """Whether two glued arcs run the same way around their pieces.

    The arc of (kind_a, typ_a) of type (f, v) is glued by g to the arc
    of (kind_b, typ_b) of type (g.face, g(v)); each piece's boundary
    cycle enters its arc from one crossing.  The pieces' cycles run
    with each other exactly when side A's entry crossing maps onto
    side B's.
    """
    e_from, end = _ARC_SLOT[kind_a, typ_a, f, v][2]
    perm = g.perm
    x, y = model.EDGES[e_from]
    mapped_from = (model.edge_index(perm[x], perm[y]),
                   None if end is None else perm[end])
    return mapped_from == _ARC_SLOT[kind_b, typ_b, g.face, perm[v]][2]


def _crossing_direction(kind, typ, e):
    """(face in, face out) of a piece's boundary crossing of edge e."""
    cycle = _CYCLES[kind][typ]
    for i, s in enumerate(cycle):
        if s[3][0] == e:
            return (s[0], cycle[(i + 1) % len(cycle)][0])
    raise AssertionError((kind, typ, e))


class ReconstructedSurface:
    """Components, their invariants and the edge weights of a vector.

    Parallel copies are handled in runs.  A block is the set of copies
    of one (tetrahedron, kind, type); its copies are stacked in order,
    and a face gluing pairs the arcs on its two sides in order.  So each
    arc type of an internal face pairs an interval of copies of one
    block with an interval of another, by a translation or a reflection
    of the copy index, and with one orientation parity for the whole
    interval.  Every block is cut at the ends of these intervals and at
    the tube's two pieces, and each cut is pushed through the pairings
    until none adds a new one.  The blocks then fall into runs, and
    every pairing maps whole runs onto whole runs.  For k times a
    vector every cut is k times a cut of the vector, so the run count
    does not grow with k.

    Runs are joined in a :class:`ParityUnionFind` whose label has bit 0
    for the orientation parity and bit 1 for a reversed copy index.  A
    class of runs of length L holds one component per copy offset,
    unless some cycle in its span reverses the index: then it holds
    L // 2 components that meet every run twice and, when L is odd, a
    middle one.  A component is nonorientable when a cycle it closes
    flips the orientation: one that keeps the index, or for the middle
    component any cycle.  Each piece adds a fixed amount to its
    component's V - E + F (its entries in the edge stacks of the
    orbits' first edges, less its arcs on boundary faces and on the
    first side of each glued face pair, plus one face), so a
    component's chi and closedness come from weights per block.  The
    first piece of a class's components lies in its first run, at
    consecutive copies, so listing the classes in order of their first
    run numbers the components by their first piece.
    """

    def __init__(self, tri, vector, skeleton=None, report=None):
        self.tri = tri
        self.vector = vector
        self.skeleton = skeleton if skeleton is not None \
            else compute_skeleton(tri)
        if report is None:
            report = check_admissible(tri, vector)
        if not report.admissible:
            raise SurfaceError(
                "inadmissible vector: "
                + "; ".join(viol.message for viol in report.violations))
        self.edge_weights = self._edge_weights()
        limit = ceiling("surface_cells")
        blocks = self._blocks()
        # Block number of each of the ten coordinates of each
        # tetrahedron, -1 where the coordinate is 0.
        number = [-1] * (10 * tri.tetrahedron_count)
        for b, (t, kind, typ, *_) in enumerate(blocks):
            number[10 * t + _SLOT[kind] + typ] = b
        tube = vector.tube
        # (block number, copy) of the tube's two pieces.
        tube_ends = () if tube is None else tuple(
            (number[10 * tube.tet + _SLOT[kind] + typ], copy)
            for kind, typ, copy in tube.pieces())
        cuts = self._cut(blocks, number, tube_ends, limit)
        self._join_runs(blocks, number, cuts, tube_ends, limit)

    def _edge_weights(self):
        tets = self.vector.tets
        weights = []
        for orbit in self.skeleton.edge_orbits:
            t0, e0 = orbit[0]
            weight = model.edge_weight(tets[t0], e0)
            for (t, e) in orbit[1:]:
                assert model.edge_weight(tets[t], e) == weight, \
                    "edge weights disagree across an orbit"
            weights.append(weight)
        return tuple(weights)

    def _blocks(self):
        """Nonzero blocks in piece order, with their cell weights.

        Entries are (t, kind, type, count, V - E + F per piece, whether
        a piece has a boundary arc).
        """
        tri = self.tri
        first_edges = [[] for _ in range(tri.tetrahedron_count)]
        for orbit in self.skeleton.edge_orbits:
            t, e = orbit[0]
            first_edges[t].append(e)
        blocks = []
        for t, counts in enumerate(self.vector.tets):
            if not any(map(any, counts)):
                continue
            gluings = tri.gluings[t]
            boundary = [f for f, g in enumerate(gluings) if g is None]
            # Arcs on these faces are counted: boundary faces and the
            # first side of each glued pair.
            counted = [f for f, g in enumerate(gluings)
                       if g is None or (t, f) < (g.tet, g.face)]
            for kind, kind_counts in zip(PIECE_KINDS, counts):
                for typ, count in enumerate(kind_counts):
                    if not count:
                        continue
                    crossings = _EDGE_CROSSINGS[kind, typ].__getitem__
                    arcs = _FACE_ARCS[kind, typ].__getitem__
                    blocks.append((
                        t, kind, typ, count,
                        sum(map(crossings, first_edges[t]))
                        - sum(map(arcs, counted)) + 1,
                        any(map(arcs, boundary))))
        return blocks

    def _pairings(self, number, visit):
        """The arc stacks glued across each internal face and arc type.

        Yields (f, v, gluing, side A, side B) for every face pair with a
        tetrahedron in ``visit``.  A side lists (offset, block number,
        count, forward) in stacking order away from v: triangles, the
        quad, whose copies meet the face in ascending order when
        ``forward``, then octagons.  Each pass builds the stacks afresh,
        so they are never all held at once.
        """
        tets = self.vector.tets

        def side(t, f, v):
            tri_c, quad_c, oct_c = tets[t]
            base = 10 * t
            q = model.ARC_QUAD[f][v]
            out = []
            offset = 0
            if tri_c[v]:
                out.append((0, number[base + v], tri_c[v], True))
                offset = tri_c[v]
            if quad_c[q]:
                out.append((offset, number[base + 4 + q], quad_c[q],
                            v in model.EDGES[min(model.PAIRS[q])]))
                offset += quad_c[q]
            for qq in range(3):
                # model.oct_arc_count: every octagon type but q
                if oct_c[qq] and qq != q:
                    out.append((offset, number[base + 7 + qq], oct_c[qq],
                                True))
                    offset += oct_c[qq]
            return out, offset

        for t, f, g in self.tri.face_pairs():
            if t not in visit and g.tet not in visit:
                continue
            for v in model.FACE_VERTICES[f]:
                side_a, length = side(t, f, v)
                side_b, length_b = side(g.tet, g.face, g.image_of_vertex(v))
                assert length == length_b, \
                    "matching violated during reconstruction"
                if length:
                    yield f, v, g, side_a, side_b

    def _cut(self, blocks, number, tube_ends, limit):
        """Sorted inner cut points of every block that has any.

        Returns {block number: cuts}; a block of one copy is never cut.
        Raises :class:`ResourceCeilingError` once the runs would pass
        ``limit``.
        """
        cuts = {}
        pending = []
        runs = len(blocks)

        def cut(side, position):
            nonlocal runs
            for offset, b, count, forward in side:
                if offset < position < offset + count:
                    x = position - offset if forward \
                        else offset + count - position
                    here = cuts.setdefault(b, set())
                    if x not in here:
                        runs += 1
                        if runs > limit:
                            raise ResourceCeilingError(
                                f"surface reconstruction cuts more than "
                                f"{limit} runs, over the surface_cells "
                                f"ceiling")
                        here.add(x)
                        pending.append((b, x))
                    return

        # Where each block of two or more copies sits in a pairing, and
        # the side facing it.  A face pair between blocks of one copy
        # each can neither make a cut nor carry one.
        seen_in = {}
        many = {t for t, _, _, count, *_ in blocks if count > 1}
        for *_, side_a, side_b in self._pairings(number, many):
            for here, there in ((side_a, side_b), (side_b, side_a)):
                for offset, b, count, forward in here:
                    if count > 1:
                        seen_in.setdefault(b, []).append(
                            (offset, forward, there))
                for offset, *_ in here[1:]:
                    cut(there, offset)
        for b, copy in tube_ends:
            side = [(0, b, blocks[b][3], True)]
            cut(side, copy)
            cut(side, copy + 1)
        while pending:
            b, x = pending.pop()
            count = blocks[b][3]
            for offset, forward, there in seen_in.get(b, ()):
                cut(there, offset + (x if forward else count - x))
        return {b: sorted(here) for b, here in cuts.items()}

    def _join_runs(self, blocks, number, cuts, tube_ends, limit):
        # Runs are numbered in piece order; each block's runs, in
        # ascending copy order, are a range of run numbers.
        block_runs = []
        run_length = []
        run_block = []
        for b, block in enumerate(blocks):
            first = len(run_length)
            points = [0, *cuts.get(b, ()), block[3]]
            for lo, hi in zip(points, points[1:]):
                run_length.append(hi - lo)
                run_block.append(b)
            block_runs.append(range(first, len(run_length)))
        self.run_count = len(run_length)
        sheets = ParityUnionFind(self.run_count)

        used = {block[0] for block in blocks}
        for f, v, g, side_a, side_b in self._pairings(number, used):
            # The runs of the two sides line up.  Walk both sides block
            # by block; done_a and done_b count the runs of the current
            # two blocks already paired.
            i = j = done_a = done_b = 0
            while i < len(side_a):
                _, ba, _, fa = side_a[i]
                _, bb, _, fb = side_b[j]
                runs_a = block_runs[ba] if fa else block_runs[ba][::-1]
                runs_b = block_runs[bb] if fb else block_runs[bb][::-1]
                step = min(len(runs_a) - done_a, len(runs_b) - done_b)
                label = (fa != fb) << 1 | _parallel(
                    blocks[ba][1], blocks[ba][2], f, v, g,
                    blocks[bb][1], blocks[bb][2])
                for ra, rb in zip(runs_a[done_a:done_a + step],
                                  runs_b[done_b:done_b + step]):
                    assert run_length[ra] == run_length[rb], \
                        "matching violated during reconstruction"
                    sheets.union(ra, rb, label)
                done_a += step
                done_b += step
                if done_a == len(runs_a):
                    i += 1
                    done_a = 0
                if done_b == len(runs_b):
                    j += 1
                    done_b = 0

        # Tube: join its two singleton runs; consecutive parallel sheets
        # get opposite boundary orientations when their crossings of
        # the shared edge run in the same face-to-face direction.
        tube_run = None
        if tube_ends:
            e_shared = _tube_shared_edge(self.vector)
            (tube_run, da), (rb, db) = [
                (block_runs[b][[0, *cuts.get(b, ())].index(copy)],
                 _crossing_direction(blocks[b][1], blocks[b][2], e_shared))
                for b, copy in tube_ends]
            sheets.union(tube_run, rb, da == db)

        # Classes in order of their first run, with chi and closedness
        # per component of the class.
        labels, roots = sheets.classes()
        chi = [0] * len(roots)
        closed = [True] * len(roots)
        for r, c in enumerate(labels):
            block = blocks[run_block[r]]
            chi[c] += block[4]
            if block[5]:
                closed[c] = False
        if tube_run is not None:
            chi[labels[tube_run]] -= 2
        spans = [sheets.span[root] for root in roots]
        count = sum(run_length[root] if not span & _REVERSING
                    else (run_length[root] + 1) // 2
                    for root, span in zip(roots, spans))
        if self.run_count + count > limit:
            raise ResourceCeilingError(
                f"surface reconstruction needs {self.run_count} runs and "
                f"{count} components, over the surface_cells ceiling "
                f"{limit}")

        chis, closeds, orientables = [], [], []
        for root, span, c_chi, c_closed in zip(roots, spans, chi, closed):
            length = run_length[root]
            orientable = not span & _FLIP_KEPT
            if span & _REVERSING:
                doubles = length // 2
                chis += [2 * c_chi] * doubles
                closeds += [c_closed] * doubles
                orientables += [orientable] * doubles
                if length % 2:
                    chis.append(c_chi)
                    closeds.append(c_closed)
                    orientables.append(not span & ODD_LABELS)
            else:
                chis += [c_chi] * length
                closeds += [c_closed] * length
                orientables += [orientable] * length
        self.component_count = count
        self.component_chis = tuple(chis)
        self.component_closed = tuple(closeds)
        self.component_orientable = tuple(orientables)

    def summary(self):
        total_chi = sum(self.component_chis)
        if self.component_count == 0:
            orientable = None
        else:
            orientable = all(self.component_orientable)
        spheres = tuple(chi == 2 and cl
                        for chi, cl in zip(self.component_chis,
                                           self.component_closed))
        return SurfaceSummary(
            euler_characteristic=total_chi,
            component_count=self.component_count,
            component_chis=self.component_chis,
            component_closed=self.component_closed,
            component_orientable=self.component_orientable,
            orientable=orientable,
            edge_weights=self.edge_weights,
            is_sphere_component=spheres,
        )


def reconstruct_surface(tri, v, skeleton=None, report=None):
    """Components, orientability and edge weights of an admissible vector.

    Returns the :class:`ReconstructedSurface`, whose ``summary()``
    carries components, per-component Euler characteristics and
    closedness, orientability and edge weights, with components
    numbered by their first piece.  Parallel copies are handled in runs
    (see :class:`ReconstructedSurface`), so the cost is
    O(n + R log R + C) for n tetrahedra, R runs and C components
    (near linear: the run union-find adds an inverse-Ackermann
    factor).  R is at most the number of pieces and does not grow with
    k for k times a vector; C is what the summary lists.  When R, or R
    plus C, would pass the ``surface_cells`` ceiling, it raises
    :class:`ResourceCeilingError` before building them, and the
    ``surface`` command exits 3.

    ``report`` is v's :func:`check_admissible` report, for a caller
    that has it already; without it the vector is checked here.  Either
    way an inadmissible vector raises :class:`SurfaceError`.
    """
    return ReconstructedSurface(tri, v, skeleton, report)


# ---------------------------------------------------------------------------
# Vertex links and classification
# ---------------------------------------------------------------------------

def vertex_link(tri, vertex_orbit, skeleton=None):
    """The normal surface linking a vertex orbit.

    One triangle coordinate per (tetrahedron, corner) in the orbit
    numbered ``vertex_orbit``; all quads and octagons zero.
    """
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    coords = {(t, "tri", w): 1
              for (t, w) in skeleton.vertex_orbits[vertex_orbit]}
    return SurfaceVector.build(tri, coords)


NORMAL = "Normal"
ALMOST_NORMAL_OCTAGON = "AlmostNormalOctagon"
ALMOST_NORMAL_TUBE = "AlmostNormalTube"
INADMISSIBLE = "Inadmissible"


def classify(tri, v):
    """Normal / AlmostNormalOctagon / AlmostNormalTube / Inadmissible."""
    return classification(v, check_admissible(tri, v))


def classification(v, report):
    """What :func:`classify` answers, given v's admissibility report."""
    if not report.admissible:
        return INADMISSIBLE
    if report.mode == "normal":
        return NORMAL
    return ALMOST_NORMAL_OCTAGON if v.octagon_count() else ALMOST_NORMAL_TUBE
