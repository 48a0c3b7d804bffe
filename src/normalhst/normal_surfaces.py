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

from dataclasses import dataclass
from typing import Optional

from . import model
from .triangulation import ParityUnionFind, compute_skeleton


class SurfaceError(ValueError):
    """Raised for malformed or inadmissible surface vectors."""


PIECE_KINDS = ("tri", "quad", "oct")


@dataclass(frozen=True)
class TubeAnnotation:
    """An unknotted tube joining two normal disks in one tetrahedron.

    Pieces are addressed as (kind, type, stacking index) with kind
    "tri" or "quad".  The tube is the single exceptional piece of an
    almost normal surface, so its multiplicity is always 1.
    """
    tet: int
    piece_a: tuple
    piece_b: tuple

    def pieces(self):
        return (self.piece_a, self.piece_b)


@dataclass(frozen=True)
class SurfaceVector:
    """Coordinates of a candidate (almost) normal surface.

    ``tets[t]`` is a triple (tri, quad, oct) of coordinate tuples for
    tetrahedron t.
    """
    tets: tuple
    tube: Optional[TubeAnnotation] = None

    @classmethod
    def zero(cls, tri):
        return cls(tuple(((0, 0, 0, 0), (0, 0, 0), (0, 0, 0))
                         for _ in range(tri.tetrahedron_count)))

    @classmethod
    def build(cls, tri, coords, tube=None):
        """From {(t, kind, index): value} sparse coordinates."""
        blocks = []
        for t in range(tri.tetrahedron_count):
            tri_c = [0] * 4
            quad_c = [0] * 3
            oct_c = [0] * 3
            for (tt, kind, index), value in coords.items():
                if tt != t:
                    continue
                if kind not in PIECE_KINDS:
                    raise SurfaceError(f"unknown piece kind {kind!r}")
                (tri_c if kind == "tri" else
                 quad_c if kind == "quad" else oct_c)[index] = value
            blocks.append((tuple(tri_c), tuple(quad_c), tuple(oct_c)))
        return cls(tuple(blocks), tube)

    def block(self, t):
        return self.tets[t]

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
            blocks = tuple((tuple(_json_int(x) for x in td["tri"]),
                            tuple(_json_int(x) for x in td["quad"]),
                            tuple(_json_int(x) for x in td["oct"]))
                           for td in data["tets"])
            tube = None
            if data.get("tube") is not None:
                td = data["tube"]
                pa, pb = td["pieces"]
                tube = TubeAnnotation(_json_int(td["tet"]),
                                      (pa[0], _json_int(pa[1]),
                                       _json_int(pa[2])),
                                      (pb[0], _json_int(pb[1]),
                                       _json_int(pb[2])))
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError) as exc:
            raise SurfaceError(f"malformed surface vector JSON: {exc}")
        for t, q, o in blocks:
            if len(t) != 4 or len(q) != 3 or len(o) != 3:
                raise SurfaceError("coordinate arrays must have lengths 4/3/3")
        return cls(blocks, tube)


def _json_int(x):
    if type(x) is not int:      # bool is a subclass of int: reject it too
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Matching system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingSystem:
    """The integer linear system cut out by the internal face gluings.

    One equation per glued face pair and normal arc type, over the
    triangle/quad coordinates (7 per tetrahedron, tet-major).  Row labels
    record ((t, f), (t', f'), v): the arc type (f, v) matched with
    (f', perm(v)).
    """
    columns: int
    rows: tuple
    row_labels: tuple

    def evaluate(self, flat_normal_coords):
        return tuple(sum(c * x for c, x in zip(row, flat_normal_coords))
                     for row in self.rows)


def _column(t, kind, index):
    return 7 * t + (index if kind == "tri" else 4 + index)


def matching_system(tri):
    """Matching equations of a triangulation.

    For each internal face and each of its three arc types, the arc
    count induced from one side equals the count from the other; each
    arc type on a face is met by exactly one triangle type and one quad
    type per side.  Boundary faces contribute no equations.
    """
    n = tri.tetrahedron_count
    rows = []
    labels = []
    for t, f, g in tri.face_pairs():
        for v in model.FACE_VERTICES[f]:
            row = [0] * (7 * n)
            row[_column(t, "tri", v)] += 1
            row[_column(t, "quad", model.quad_type_for_arc(f, v))] += 1
            v2 = g.image_of_vertex(v)
            row[_column(g.tet, "tri", v2)] -= 1
            row[_column(g.tet, "quad",
                        model.quad_type_for_arc(g.face, v2))] -= 1
            rows.append(tuple(row))
            labels.append(((t, f), (g.tet, g.face), v))
    return MatchingSystem(7 * n, tuple(rows), tuple(labels))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class AdmissibilityReport:
    mode: str
    violations: tuple

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


def infer_mode(v):
    """The admissibility mode a vector's own pieces call for."""
    if v.octagon_count() == 0 and v.tube is None:
        return "normal"
    return "almost_normal"


def check_admissible(tri, v, mode="normal"):
    """Full admissibility report for a surface vector.

    Verifies nonnegativity, the matching equations (octagons contribute
    two arcs to each face of their tetrahedron), the one-quad-type-per-
    tetrahedron constraint, and the mode-specific rule: ``normal``
    forbids octagons and tubes; ``almost_normal`` requires exactly one
    octagon (in a quad-free tetrahedron) or exactly one tube.
    """
    _check_dimension(tri, v)
    if mode not in ("normal", "almost_normal"):
        raise ValueError(f"unknown mode {mode!r}")
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

    octs = v.octagon_count()
    if mode == "normal":
        if octs:
            violations.append(Violation(
                "mode", "normal surface may not contain octagons"))
        if v.tube is not None:
            violations.append(Violation(
                "mode", "normal surface may not contain a tube"))
    else:
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


def face_arcs(block, f, v):
    """Pieces carrying an arc of type (f, v), ordered away from vertex v."""
    tri_c, quad_c, oct_c = block
    arcs = [("tri", v, i) for i in range(tri_c[v])]
    q = model.quad_type_for_arc(f, v)
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


def _tube_shared_edge(v):
    """An edge the tube's pieces cross in consecutive positions, or None."""
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


# ---------------------------------------------------------------------------
# Euler characteristic, counting route
# ---------------------------------------------------------------------------

def euler_characteristic(tri, v, skeleton=None, mode=None):
    """Euler characteristic via cell counts.

    chi = V - E + F where V sums the edge weights over edge orbits, E
    sums arc counts over face orbits (each internal face once), and F
    counts pieces, a tube assembly (two disks plus the joining annulus)
    contributing 0 in place of its two disks.
    """
    if mode is None:
        mode = infer_mode(v)
    report = check_admissible(tri, v, mode)
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

@dataclass(frozen=True)
class SurfaceSummary:
    euler_characteristic: int
    component_count: int
    component_chis: tuple
    component_closed: tuple
    component_orientable: tuple
    orientable: Optional[bool]
    edge_weights: tuple
    is_sphere_component: tuple


# Boundary cycles by piece kind, and the directed arc slot of each
# (kind, type, face, cut vertex) on its piece's cycle.
_CYCLES = {"tri": model.TRI_CYCLES, "quad": model.QUAD_CYCLES,
           "oct": model.OCT_CYCLES}
_ARC_SLOT = {(kind, typ, s[0], s[1]): s
             for kind, cycles in _CYCLES.items()
             for typ, cycle in enumerate(cycles) for s in cycle}


class ReconstructedSurface:
    """Explicit pieces, arc gluings and derived invariants of a vector."""

    def __init__(self, tri, vector, skeleton=None):
        self.tri = tri
        self.vector = vector
        self.skeleton = skeleton if skeleton is not None \
            else compute_skeleton(tri)
        self._build()
        # Counted once _build has returned and freed its union-find.
        self._finish_counts()

    def _build(self):
        tri, v = self.tri, self.vector
        report = check_admissible(tri, v, infer_mode(v))
        if not report.admissible:
            raise SurfaceError(
                "inadmissible vector: "
                + "; ".join(viol.message for viol in report.violations))

        # Pieces and their boundary cycles.
        pieces = []
        index = {}
        for t, (tri_c, quad_c, oct_c) in enumerate(v.tets):
            for w in range(4):
                for i in range(tri_c[w]):
                    index[(t, "tri", w, i)] = len(pieces)
                    pieces.append((t, "tri", w, i))
            for q in range(3):
                for i in range(quad_c[q]):
                    index[(t, "quad", q, i)] = len(pieces)
                    pieces.append((t, "quad", q, i))
            for q in range(3):
                for i in range(oct_c[q]):
                    index[(t, "oct", q, i)] = len(pieces)
                    pieces.append((t, "oct", q, i))
        self.pieces = tuple(pieces)

        # Arc gluings across internal faces; boundary arcs recorded too.
        # A piece's parity says whether its boundary cycle runs with or
        # against its component's orientation; a class with an odd
        # cycle is a nonorientable component.
        sheets = ParityUnionFind(len(pieces))

        self.boundary_arcs = []
        for t, f in tri.boundary_faces():
            for w in model.FACE_VERTICES[f]:
                for piece in face_arcs(v.tets[t], f, w):
                    self.boundary_arcs.append(
                        (index[(t,) + piece], (t, f, w)))
        self.arc_gluings = []
        for t, f, g in tri.face_pairs():
            for w in model.FACE_VERTICES[f]:
                w2 = g.image_of_vertex(w)
                side_a = face_arcs(v.tets[t], f, w)
                side_b = face_arcs(v.tets[g.tet], g.face, w2)
                assert len(side_a) == len(side_b), \
                    "matching violated during reconstruction"
                for pa, pb in zip(side_a, side_b):
                    ia = index[(t,) + pa]
                    ib = index[(g.tet,) + pb]
                    sa = _ARC_SLOT[pa[0], pa[1], f, w]
                    sb = _ARC_SLOT[pb[0], pb[1], g.face, w2]
                    # Map side A's entry crossing through the gluing.
                    e_from, end = sa[2]
                    mapped_from = (g.image_of_edge(e_from),
                                   None if end is None
                                   else g.image_of_vertex(end))
                    parallel = (mapped_from == sb[2])
                    sheets.union(ia, ib, parallel)
                    self.arc_gluings.append((ia, ib, (t, f, w)))

        # Tube: join the two pieces; consecutive parallel sheets get
        # opposite boundary orientations when their crossings of the
        # shared edge run in the same face-to-face direction.
        self.tube_pieces = None
        if v.tube is not None:
            t = v.tube.tet
            ia = index[(t,) + v.tube.piece_a]
            ib = index[(t,) + v.tube.piece_b]
            self.tube_pieces = (ia, ib)
            e_shared = _tube_shared_edge(v)
            da = self._crossing_direction(ia, e_shared)
            db = self._crossing_direction(ib, e_shared)
            sheets.union(ia, ib, da == db)

        # Components, numbered by their first piece.
        labels, roots = sheets.classes()
        self.component_of_piece = tuple(labels)
        self.component_count = len(roots)
        self._nonorientable = {c for c, root in enumerate(roots)
                               if sheets.odd_cycle[root]}

    def _crossing_direction(self, piece_id, e):
        """(face in, face out) of the piece's boundary crossing of edge e."""
        t, kind, typ, _ = self.pieces[piece_id]
        cycles = _CYCLES[kind][typ]
        for i, s in enumerate(cycles):
            if s[3][0] == e:
                nxt = cycles[(i + 1) % len(cycles)]
                return (s[0], nxt[0])
        raise AssertionError((self.pieces[piece_id], e))

    def _finish_counts(self):
        tri, v = self.tri, self.vector
        ncomp = self.component_count
        v_count = [0] * ncomp
        e_count = [0] * ncomp
        f_count = [0] * ncomp
        closed = [True] * ncomp

        piece_index = {p: i for i, p in enumerate(self.pieces)}
        for i, _ in enumerate(self.pieces):
            f_count[self.component_of_piece[i]] += 1
        if self.tube_pieces is not None:
            f_count[self.component_of_piece[self.tube_pieces[0]]] -= 2

        weights = []
        for orbit in self.skeleton.edge_orbits:
            t0, e0 = orbit[0]
            stack = edge_stack(v.tets[t0], e0)
            weights.append(len(stack))
            for (t, e) in orbit[1:]:
                assert model.edge_weight(v.tets[t], e) == len(stack), \
                    "edge weights disagree across an orbit"
            for entry in stack:
                pid = piece_index[(t0, entry[0], entry[1], entry[2])]
                v_count[self.component_of_piece[pid]] += 1
        self.edge_weights = tuple(weights)

        for (ia, _ib, _where) in self.arc_gluings:
            e_count[self.component_of_piece[ia]] += 1
        for (ia, _where) in self.boundary_arcs:
            e_count[self.component_of_piece[ia]] += 1
            closed[self.component_of_piece[ia]] = False

        self.component_chis = tuple(v_count[c] - e_count[c] + f_count[c]
                                    for c in range(ncomp))
        self.component_closed = tuple(closed)
        self.component_orientable = tuple(c not in self._nonorientable
                                          for c in range(ncomp))

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


def reconstruct_surface(tri, v, skeleton=None):
    """Instantiate, stack and glue the pieces of an admissible vector.

    Returns the :class:`ReconstructedSurface`, whose ``summary()``
    carries components, per-component Euler characteristics,
    orientability (by orientation propagation over the piece-gluing
    graph) and edge weights.
    """
    return ReconstructedSurface(tri, v, skeleton)


# ---------------------------------------------------------------------------
# Vertex links and classification
# ---------------------------------------------------------------------------

def vertex_link(tri, vertex_orbit, skeleton=None):
    """The normal surface linking a vertex orbit.

    One triangle coordinate per (tetrahedron, corner) in the orbit; all
    quads and octagons zero.  ``vertex_orbit`` may be an orbit index or
    the orbit itself.
    """
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    if isinstance(vertex_orbit, int):
        orbit = skeleton.vertex_orbits[vertex_orbit]
    else:
        orbit = tuple(vertex_orbit)
        if orbit not in skeleton.vertex_orbits:
            raise KeyError(f"no vertex orbit {vertex_orbit!r}")
    coords = {(t, "tri", w): 1 for (t, w) in orbit}
    return SurfaceVector.build(tri, coords)


NORMAL = "Normal"
ALMOST_NORMAL_OCTAGON = "AlmostNormalOctagon"
ALMOST_NORMAL_TUBE = "AlmostNormalTube"
INADMISSIBLE = "Inadmissible"


def classify(tri, v):
    """Normal / AlmostNormalOctagon / AlmostNormalTube / Inadmissible."""
    return classification(v, check_admissible(tri, v, infer_mode(v)))


def classification(v, report):
    """What :func:`classify` answers, given v's report at its inferred mode."""
    if not report.admissible:
        return INADMISSIBLE
    if report.mode == "normal":
        return NORMAL
    return ALMOST_NORMAL_OCTAGON if v.octagon_count() else ALMOST_NORMAL_TUBE
