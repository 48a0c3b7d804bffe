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

from functools import cache

from . import model
from .limits import ResourceCeilingError, ceiling
from .record import Record, json_int, setfield
from .triangulation import compute_skeleton


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

    @classmethod
    def from_normal_coordinates(cls, flat):
        """The inverse of :meth:`normal_coordinates`: octagons are zero."""
        return cls(tuple((tuple(flat[i:i + 4]), tuple(flat[i + 4:i + 7]),
                          (0, 0, 0)) for i in range(0, len(flat), 7)))

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
    triangle/quad coordinates: column 7t + s is slot s (triangles 0..3,
    quads 4..6) of tetrahedron t.  Each row is sparse: its (column,
    coefficient) pairs in ascending column order, with no zero
    coefficient, so at most four.  Row labels record ((t, f), (t', f'),
    v): the arc type (f, v) matched with (f', perm(v)).

    ``quads`` masks the quad columns, of which a support may hold at
    most one per tetrahedron.  A support's quads q hold two of one
    tetrahedron exactly when q & (q >> 1 | q >> 2): bits of one
    tetrahedron lie 1 or 2 apart, and of different ones at least 5.
    """
    __slots__ = ("columns", "rows", "row_labels", "quads")

    def __init__(self, columns, rows, row_labels, quads):
        setfield(self, "columns", columns)
        setfield(self, "rows", rows)
        setfield(self, "row_labels", row_labels)
        setfield(self, "quads", quads)


def matching_system(tri):
    """Matching equations of a triangulation.

    For each internal face and each of its three arc types, the arc
    count induced from one side equals the count from the other; each
    arc type (f, v) on a face is met by exactly one triangle type, v,
    and one quad type, model.ARC_QUAD[f][v], per side.  Boundary faces
    contribute no equations.

    Face pairs come with t <= t', so the four columns ascend unless the
    face is glued to another face of its own tetrahedron.  Such a row
    can meet one column from both sides: its coefficients are summed,
    and a column whose sum is zero is left out.
    """
    rows = []
    labels = []
    for t, f, g in tri.face_pairs():
        u, f2 = g.tet, g.face
        for v in model.FACE_VERTICES[f]:
            v2 = g.image_of_vertex(v)
            row = ((7 * t + v, 1), (7 * t + 4 + model.ARC_QUAD[f][v], 1),
                   (7 * u + v2, -1), (7 * u + 4 + model.ARC_QUAD[f2][v2], -1))
            if u == t:
                merged = {}
                for column, sign in row:
                    merged[column] = merged.get(column, 0) + sign
                row = tuple(sorted((c, x) for c, x in merged.items() if x))
            rows.append(row)
            labels.append(((t, f), (u, f2), v))
    n = tri.tetrahedron_count
    return MatchingSystem(7 * n, tuple(rows), tuple(labels),
                          sum(0b111 << 7 * t + 4 for t in range(n)))


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

    # Matching, octagon arcs included; arcs[t][f << 2 | w] counts arc
    # type (f, w) in tetrahedron t, read once per distinct block.
    arcs = list(map(cache(lambda block: tuple(
        model.arc_count(block, f, w) if w != f else None
        for f in range(4) for w in range(4))), v.tets))
    for t, f, g in tri.face_pairs():
        arcs_a, arcs_b = arcs[t], arcs[g.tet]
        f2 = g.face << 2
        for w in model.FACE_VERTICES[f]:
            lhs = arcs_a[f << 2 | w]
            rhs = arcs_b[f2 | g.image_of_vertex(w)]
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

def _require_admissible(report):
    """Raise :class:`SurfaceError` unless the report is admissible."""
    if not report.admissible:
        raise SurfaceError(
            "inadmissible vector: "
            + "; ".join(viol.message for viol in report.violations))


def euler_characteristic(tri, v, skeleton=None):
    """Euler characteristic via cell counts.

    chi = V - E + F where V sums the edge weights over edge orbits, E
    sums arc counts over face orbits (each internal face once), and F
    counts pieces, a tube assembly (two disks plus the joining annulus)
    contributing 0 in place of its two disks.  The vector must be
    admissible, or :class:`SurfaceError` is raised.
    """
    _require_admissible(check_admissible(tri, v))
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
    """What :func:`reconstruct_surface` reads off a vector: per component,
    numbered by its first piece, its chi, closedness and orientability;
    the weight of each edge orbit; and R, the runs it joined.  The
    totals are computed from these, so they cannot disagree with them.
    """
    __slots__ = ("component_chis", "component_closed", "component_orientable",
                 "edge_weights", "run_count")

    def __init__(self, component_chis, component_closed, component_orientable,
                 edge_weights, run_count):
        setfield(self, "component_chis", component_chis)
        setfield(self, "component_closed", component_closed)
        setfield(self, "component_orientable", component_orientable)
        setfield(self, "edge_weights", edge_weights)
        setfield(self, "run_count", run_count)

    @property
    def euler_characteristic(self):
        return sum(self.component_chis)

    @property
    def component_count(self):
        return len(self.component_chis)

    @property
    def orientable(self):
        """Whether every component is orientable; None with none."""
        return all(self.component_orientable) if self.component_chis \
            else None

    @property
    def is_sphere_component(self):
        return tuple(chi == 2 and closed for chi, closed
                     in zip(self.component_chis, self.component_closed))


# Boundary cycles by piece kind, and the directed arc slot of each
# (kind, type, face, cut vertex) on its piece's cycle.
_CYCLES = {"tri": model.TRI_CYCLES, "quad": model.QUAD_CYCLES,
           "oct": model.OCT_CYCLES}
_ARC_SLOT = {(kind, typ, s[0], s[1]): s
             for kind, cycles in _CYCLES.items()
             for typ, cycle in enumerate(cycles) for s in cycle}
# The ten coordinate slots of a tetrahedron as (kind, type): triangles
# 0..3, quads 4..6, octagons 7..9.  _SLOT is each kind's first slot.
_KIND_TYPE = tuple((kind, typ) for kind in PIECE_KINDS
                   for typ in range(len(_CYCLES[kind])))
_SLOT = {"tri": 0, "quad": 4, "oct": 7}
# Per slot, read off the piece's cycle: crossings of each of the six
# edges (one per slot whose outgoing crossing lies on the edge), and
# arcs on each of the four faces.
_EDGE_CROSSINGS = tuple(tuple(sum(1 for s in _CYCLES[kind][typ]
                                  if s[3][0] == e) for e in range(6))
                        for kind, typ in _KIND_TYPE)
_FACE_ARCS = tuple(tuple(sum(1 for s in _CYCLES[kind][typ] if s[0] == f)
                         for f in range(4))
                   for kind, typ in _KIND_TYPE)


def _span_sum(a, b):
    """The subgroup {x ^ y} spanned by two subgroups of 2-bit labels.

    Subgroups are bitmasks over the labels 0..3.  When one subgroup
    holds the other the sum is the larger; otherwise both have order 2
    and differ, and together they span all four labels.
    """
    union = a | b
    return union if union in (a, b) else 0b1111


# Span bitmask bits of the labels with bit 0 set (labels 1 and 3).
ODD_LABELS = 0b1010


class ParityUnionFind:
    """Union-find over the integers 0..size-1 with a label per element.

    A label is a 2-bit vector under XOR: bit 0 is a parity, and bit 1
    a second relation.
    ``union(x, y, label)`` puts x and y in one class and records that
    their labels differ by ``label`` (a bool reads as 0 or 1).  Each
    element keeps its label relative to its parent; after ``find(x)``
    the parent is the root and ``parity[x]`` is relative to it.  A
    relation that closes a cycle adds the XOR of the labels around it
    to the class's cycle span, the subgroup of labels that cycles
    generate.  ``span[root]`` holds it as a bitmask with bit s set when
    label s is in it, so 1 is the trivial span; spans are summed on
    union and never shrink.  A class holds an odd cycle, whose parities
    cannot all hold, when its span has a label with bit 0 set.  Finding
    is iterative with full path compression and union is by size, so
    no chain recurses and the cost is near linear in the operations.
    """

    __slots__ = ("parent", "parity", "size", "span")

    def __init__(self, size):
        self.parent = list(range(size))
        self.parity = [0] * size
        self.size = [1] * size
        self.span = [1] * size

    def find(self, x):
        parent = self.parent
        root = parent[x]
        if parent[root] == root:
            return root
        parity = self.parity
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        above = 0
        for y in reversed(path):
            above ^= parity[y]
            parity[y] = above
            parent[y] = x
        return x

    def union(self, x, y, label=0):
        # An element whose parent is a root needs no find: its parity
        # is already relative to that root.
        parent = self.parent
        rx, ry = parent[x], parent[y]
        if parent[rx] != rx:
            rx = self.find(x)
        if parent[ry] != ry:
            ry = self.find(y)
        parity = self.parity
        differ = parity[x] ^ parity[y] ^ label
        span = self.span
        if rx == ry:
            if differ:
                span[rx] = _span_sum(span[rx], 1 | 1 << differ)
            return
        size = self.size
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        parity[ry] = differ
        size[rx] += size[ry]
        if span[ry] != 1:
            span[rx] = _span_sum(span[rx], span[ry])

    def classes(self):
        """Class number of every element, and the root of every class.

        Classes are numbered in order of their smallest member.
        """
        number = [-1] * len(self.parent)
        labels = []
        roots = []
        for x in range(len(self.parent)):
            root = self.find(x)
            if number[root] < 0:
                number[root] = len(roots)
                roots.append(root)
            labels.append(number[root])
        return labels, roots


# Labels of the run union-find: bit 0 is the orientation parity, bit 1
# says the copy index is reversed.  These masks select, from a class's
# cycle span, the labels that flip orientation with the index kept and
# the labels that reverse the index.
_FLIP_KEPT = 1 << 0b01
_REVERSING = 1 << 0b10 | 1 << 0b11


def _stack_slots(f, v):
    """The pieces that meet arc (f, v), in stacking order away from v.

    Each is (slot, forward), forward when its copies meet the face in
    ascending order: the triangle at v, the quad of the arc, whose
    copies ascend when v lies on the lower edge of its pair, then the
    octagons of the two other types (see model.oct_arc_count).
    """
    q = model.ARC_QUAD[f][v]
    return ((v, True), (4 + q, v in model.EDGES[min(model.PAIRS[q])]),
            *((7 + o, True) for o in range(3) if o != q))


# _STACK_SLOTS[f << 2 | v] = _stack_slots(f, v), empty for v == f.
_STACK_SLOTS = tuple(_stack_slots(f, v) if v != f else ()
                     for f in range(4) for v in range(4))


def _stacks(mask):
    """The stack table of a tetrahedron whose nonzero slots are the bits
    of ``mask``.

    Entry f << 2 | v lists the tetrahedron's blocks meeting arc (f, v)
    in stacking order, as (rank, slot, forward): the block's position
    among the tetrahedron's blocks, which are numbered in slot order,
    its slot, and whether its copies meet the face in ascending order.
    """
    return tuple(tuple((bin(mask & ((1 << s) - 1)).count("1"), s, forward)
                       for s, forward in slots if mask >> s & 1)
                 for slots in _STACK_SLOTS)


def _cell_weights(shape):
    """Per slot, V - E + F of one piece and whether it has a boundary
    arc, in a tetrahedron of the given shape.

    ``shape`` has a bit 8 + e for each edge e that is its orbit's first
    cell, 4 + f for each face f whose arcs are counted (a boundary face
    or the first side of a glued pair), and f for each boundary face.
    """
    edges = [e for e in range(6) if shape >> 8 + e & 1]
    counted = [f for f in range(4) if shape >> 4 + f & 1]
    boundary = [f for f in range(4) if shape >> f & 1]
    return (tuple(sum(crossings[e] for e in edges)
                  - sum(arcs[f] for f in counted) + 1
                  for crossings, arcs in zip(_EDGE_CROSSINGS, _FACE_ARCS)),
            tuple(any(arcs[f] for f in boundary) for arcs in _FACE_ARCS))


def _label(perm, f, v, slot_a, slot_b):
    """The run union-find label of two glued arcs.

    The arc of type (f, v) on the piece of ``slot_a`` is glued by perm
    to the arc of type (perm[f], perm[v]) on the piece of ``slot_b``.
    Bit 1 is set when one side's copies meet the face in ascending
    order and the other's in descending order.  Bit 0 is set when the
    pieces' boundary cycles run the same way: each cycle enters its arc
    from one crossing, and they run with each other exactly when side
    A's entry crossing maps onto side B's.
    """
    f2, v2 = perm[f], perm[v]
    reversed_ = (dict(_STACK_SLOTS[f << 2 | v])[slot_a]
                 != dict(_STACK_SLOTS[f2 << 2 | v2])[slot_b])
    e_from, end = _ARC_SLOT[(*_KIND_TYPE[slot_a], f, v)][2]
    x, y = model.EDGES[e_from]
    mapped_from = (model.edge_index(perm[x], perm[y]),
                   None if end is None else perm[end])
    return reversed_ << 1 | (
        mapped_from == _ARC_SLOT[(*_KIND_TYPE[slot_b], f2, v2)][2])


def _glued_faces(rows, tets):
    """Each glued face pair with a side in ``tets``, once, as (t, f, g).

    ``tets`` ascend, and ``rows`` are the gluings.  A pair comes from
    its first side when both sides are in ``tets``, else from the side
    that is.
    """
    member = bytearray(len(rows))
    for t in tets:
        member[t] = 1
    for t in tets:
        for f, g in enumerate(rows[t]):
            if g is not None and (not member[g.tet] or t < g.tet
                                  or t == g.tet and f < g.face):
                yield t, f, g


def _crossing_direction(kind, typ, e):
    """(face in, face out) of a piece's boundary crossing of edge e."""
    cycle = _CYCLES[kind][typ]
    for i, s in enumerate(cycle):
        if s[3][0] == e:
            return (s[0], cycle[(i + 1) % len(cycle)][0])
    raise AssertionError((kind, typ, e))


def _edge_weights(tets, skeleton):
    # Six weights per tetrahedron, computed once per distinct block.
    tets = list(map(cache(lambda block: tuple(
        model.edge_weight(block, e) for e in range(6))), tets))
    weights = []
    for orbit in skeleton.edge_orbits:
        t0, e0 = orbit[0]
        weight = tets[t0][e0]
        for (t, e) in orbit[1:]:
            assert tets[t][e] == weight, \
                "edge weights disagree across an orbit"
        weights.append(weight)
    return tuple(weights)


def _blocks(rows, tets, skeleton):
    """Nonzero blocks in piece order, and where they sit.

    Returns the tetrahedra that hold pieces and those that hold a
    block of two or more copies, both ascending; per tetrahedron its
    stack table (see :func:`_stacks`) and its first block number;
    and per block its count, V - E + F per piece and whether a piece
    has a boundary arc.
    """
    n = len(rows)
    first_edges = [0] * n
    for orbit in skeleton.edge_orbits:
        t, e = orbit[0]
        first_edges[t] |= 1 << e
    held, many = [], []
    stacks, first_block = [_stacks(0)] * n, [0] * n
    count, weight, is_open = [], [], []
    # Each distinct stack table and shape is built once per call.
    tables, shapes = {}, {}
    for t, (tri_c, quad_c, oct_c) in enumerate(tets):
        counts = tri_c + quad_c + oct_c
        if not any(counts):
            continue
        held.append(t)
        first_block[t] = len(count)
        shape = first_edges[t] << 8
        for f, g in enumerate(rows[t]):
            if g is None:
                shape |= 0b10001 << f
            elif t < g.tet or t == g.tet and f < g.face:
                shape |= 0b10000 << f
        if shape not in shapes:
            shapes[shape] = _cell_weights(shape)
        weights, opens = shapes[shape]
        bits = 0
        for s, c in enumerate(counts):
            if c:
                bits |= 1 << s
                count.append(c)
                weight.append(weights[s])
                is_open.append(opens[s])
        if bits not in tables:
            tables[bits] = _stacks(bits)
        stacks[t] = tables[bits]
        if max(counts) > 1:
            many.append(t)
    return held, many, stacks, first_block, count, weight, is_open


def _cut(rows, many, stacks, first_block, count, tube_ends, limit):
    """Sorted inner cut points of every block that has any.

    Returns {block number: cuts}; a block of one copy is never cut.
    Raises :class:`ResourceCeilingError` once the runs would pass
    ``limit``.
    """
    cuts = {}
    pending = []
    runs = len(count)

    def side(t, arc):
        # (offset, block number, count, forward) in stacking order
        out = []
        offset = 0
        for rank, _, forward in stacks[t][arc]:
            b = first_block[t] + rank
            out.append((offset, b, count[b], forward))
            offset += count[b]
        return out

    def cut(side, position):
        nonlocal runs
        for offset, b, size, forward in side:
            if offset < position < offset + size:
                x = position - offset if forward \
                    else offset + size - position
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
    for t, f, g in _glued_faces(rows, many):
        for v in model.FACE_VERTICES[f]:
            side_a = side(t, f << 2 | v)
            side_b = side(g.tet, g.face << 2 | g.perm[v])
            for here, there in ((side_a, side_b), (side_b, side_a)):
                for offset, b, size, forward in here:
                    if size > 1:
                        seen_in.setdefault(b, []).append(
                            (offset, forward, there))
                for offset, *_ in here[1:]:
                    cut(there, offset)
    for b, copy in tube_ends:
        whole = [(0, b, count[b], True)]
        cut(whole, copy)
        cut(whole, copy + 1)
    while pending:
        b, x = pending.pop()
        size = count[b]
        for offset, forward, there in seen_in.get(b, ()):
            cut(there, offset + (x if forward else size - x))
    return {b: sorted(here) for b, here in cuts.items()}


def _join_runs(rows, vector, held, stacks, first_block, count, weight,
               is_open, cuts, tube_ends, limit):
    """Per component its chi, closedness and orientability, and R."""
    # Runs are numbered in piece order; block b's runs, in ascending
    # copy order, are first_run[b] .. first_run[b + 1] - 1.
    first_run = []
    run_length = []
    for b, size in enumerate(count):
        first_run.append(len(run_length))
        lo = 0
        for hi in cuts.get(b, ()):
            run_length.append(hi - lo)
            lo = hi
        run_length.append(size - lo)
    first_run.append(len(run_length))
    run_count = len(run_length)
    sheets = ParityUnionFind(run_count)
    union = sheets.union

    # Per gluing permutation, the label of each case met so far.
    labels_by_perm = {}
    for t, f, g in _glued_faces(rows, held):
        u, perm = g.tet, g.perm
        labels = labels_by_perm.get(perm)
        if labels is None:
            labels = labels_by_perm[perm] = {}
        stacks_a, stacks_b = stacks[t], stacks[u]
        base_a, base_b = first_block[t], first_block[u]
        f2 = g.face << 2
        for v in model.FACE_VERTICES[f]:
            arc = f << 2 | v
            side_a = stacks_a[arc]
            side_b = stacks_b[f2 | perm[v]]
            # The runs of the two sides line up.  Walk both sides
            # block by block; done_a and done_b count the runs of
            # the current two blocks already paired.
            i = j = done_a = done_b = 0
            end_a, end_b = len(side_a), len(side_b)
            while i < end_a and j < end_b:
                rank_a, slot_a, forward_a = side_a[i]
                rank_b, slot_b, forward_b = side_b[j]
                key = arc * 100 + slot_a * 10 + slot_b
                label = labels.get(key)
                if label is None:
                    label = labels[key] = _label(perm, f, v,
                                                 slot_a, slot_b)
                b = base_a + rank_a
                lo_a, runs_a = first_run[b], first_run[b + 1]
                runs_a -= lo_a
                b = base_b + rank_b
                lo_b, runs_b = first_run[b], first_run[b + 1]
                runs_b -= lo_b
                step = runs_a - done_a
                if runs_b - done_b < step:
                    step = runs_b - done_b
                if forward_a:
                    ra, da = lo_a + done_a, 1
                else:
                    ra, da = lo_a + runs_a - 1 - done_a, -1
                if forward_b:
                    rb, db = lo_b + done_b, 1
                else:
                    rb, db = lo_b + runs_b - 1 - done_b, -1
                for _ in range(step):
                    assert run_length[ra] == run_length[rb], \
                        "matching violated during reconstruction"
                    union(ra, rb, label)
                    ra += da
                    rb += db
                done_a += step
                done_b += step
                if done_a == runs_a:
                    i += 1
                    done_a = 0
                if done_b == runs_b:
                    j += 1
                    done_b = 0
            # Both sides end together: their lengths match.
            assert i == end_a and j == end_b, \
                "matching violated during reconstruction"

    # Tube: join its two singleton runs; consecutive parallel sheets
    # get opposite boundary orientations when their crossings of
    # the shared edge run in the same face-to-face direction.
    tube_run = None
    if tube_ends:
        e_shared = _tube_shared_edge(vector)
        (tube_run, da), (rb, db) = [
            (first_run[b] + [0, *cuts.get(b, ())].index(copy),
             _crossing_direction(kind, typ, e_shared))
            for (b, copy), (kind, typ, _) in zip(
                tube_ends, vector.tube.pieces())]
        sheets.union(tube_run, rb, da == db)

    # Classes in order of their first run, with chi and closedness
    # per component of the class.
    labels, roots = sheets.classes()
    chi = [0] * len(roots)
    closed = [True] * len(roots)
    for b, block_weight in enumerate(weight):
        for r in range(first_run[b], first_run[b + 1]):
            c = labels[r]
            chi[c] += block_weight
            if is_open[b]:
                closed[c] = False
    if tube_run is not None:
        chi[labels[tube_run]] -= 2
    spans = [sheets.span[root] for root in roots]
    components = sum(run_length[root] if not span & _REVERSING
                     else (run_length[root] + 1) // 2
                     for root, span in zip(roots, spans))
    if run_count + components > limit:
        raise ResourceCeilingError(
            f"surface reconstruction needs {run_count} runs and "
            f"{components} components, over the surface_cells ceiling "
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
    return tuple(chis), tuple(closeds), tuple(orientables), run_count


def reconstruct_surface(tri, v, skeleton=None, report=None):
    """Components, orientability and edge weights of an admissible vector.

    Returns the :class:`SurfaceSummary`, components numbered by their
    first piece.  Parallel copies are handled in runs.  A block is the
    set of copies of one (tetrahedron, kind, type); its copies are
    stacked in order, and a face gluing pairs the arcs on its two sides
    in order.  So each arc type of an internal face pairs an interval
    of copies of one block with an interval of another, by a
    translation or a reflection of the copy index, and with one
    orientation parity for the whole interval.  Every block is cut at
    the ends of these intervals and at the tube's two pieces, and each
    cut is pushed through the pairings until none adds a new one.  The
    blocks then fall into runs, and every pairing maps whole runs onto
    whole runs.  For k times a vector every cut is k times a cut of the
    vector, so the run count does not grow with k.

    The stacks are read from tables, not built per arc.  A
    tetrahedron's blocks are numbered consecutively in slot order, so
    the set of its nonzero slots picks a stack table (:func:`_stacks`)
    that lists, for each arc type, the blocks meeting it by their rank.
    The label of two glued blocks depends only on their slots, the arc
    type and the gluing permutation, and each reconstruction computes
    it once per distinct case (:func:`_label`), as it builds each
    distinct stack table once.  Only face pairs of tetrahedra that hold
    pieces are visited, and only those of tetrahedra holding a block
    of two or more copies are searched for cuts.

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
    component's chi and closedness come from weights per block, read
    from a table per tetrahedron shape (:func:`_cell_weights`): which of
    its edges come first in their orbits and which of its faces are
    counted or on the boundary.  The first piece of a class's
    components lies in its first run, at consecutive copies, so listing
    the classes in order of their first run numbers the components by
    their first piece.

    The cost is O(n + R log R + C) for n tetrahedra, R runs and C
    components (near linear: the run union-find adds an
    inverse-Ackermann factor).  R is at most the number of pieces and
    does not grow with k for k times a vector; C is what the summary
    lists.  The n term is one pass over the tetrahedra and the edge
    orbits; faces are visited only around tetrahedra that hold pieces,
    and each glued arc type there costs a few table lookups and one
    union per pair of runs.  When R, or R plus C, would pass the
    ``surface_cells`` ceiling, it raises :class:`ResourceCeilingError`
    before building them, and the ``surface`` command exits 3.

    ``report`` is v's :func:`check_admissible` report, for a caller
    that has it already; without it the vector is checked here.  Either
    way an inadmissible vector raises :class:`SurfaceError`.
    """
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    _require_admissible(check_admissible(tri, v) if report is None
                        else report)
    edge_weights = _edge_weights(v.tets, skeleton)
    limit = ceiling("surface_cells")
    rows = tri.gluings
    held, many, stacks, first_block, count, weight, is_open = \
        _blocks(rows, v.tets, skeleton)
    # (block number, copy) of the tube's two pieces: a block's number
    # is its tetrahedron's first plus its rank there.
    tube_ends = ()
    if v.tube is not None:
        counts = sum(v.tets[v.tube.tet], ())
        tube_ends = tuple(
            (first_block[v.tube.tet]
             + sum(map(bool, counts[:_SLOT[kind] + typ])), copy)
            for kind, typ, copy in v.tube.pieces())
    cuts = _cut(rows, many, stacks, first_block, count, tube_ends, limit)
    chis, closeds, orientables, run_count = _join_runs(
        rows, v, held, stacks, first_block, count, weight, is_open, cuts,
        tube_ends, limit)
    return SurfaceSummary(chis, closeds, orientables, edge_weights, run_count)


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


def classify(tri, v, report=None):
    """Normal / AlmostNormalOctagon / AlmostNormalTube / Inadmissible.

    ``report`` is v's :func:`check_admissible` report, if the caller has
    it."""
    if report is None:
        report = check_admissible(tri, v)
    if not report.admissible:
        return INADMISSIBLE
    if report.mode == "normal":
        return NORMAL
    return ALMOST_NORMAL_OCTAGON if v.octagon_count() else ALMOST_NORMAL_TUBE
