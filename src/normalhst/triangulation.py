"""
Triangulations of 3-manifolds given by face pairings.

A triangulation is a set of model tetrahedra together with gluings
identifying faces in pairs.  Gluings are stored as permutations of
{0,1,2,3} (see :mod:`normalhst.model`); the induced identifications of
vertices, edges and faces are derived, never stored.

The text file format accepted by :func:`parse_triangulation`:

* line 1: the number of tetrahedra N;
* lines 2..N+1: four whitespace-separated gluing tokens for faces
  0..3 of each tetrahedron, where a token is either ``-`` (boundary
  face) or ``t:f:abc`` gluing to face f of tetrahedron t, with ``abc``
  the images of the source face's corners listed in ascending
  source-corner order;
* ``#`` starts a comment running to the end of the line.
"""

from dataclasses import dataclass

from . import model


class TriangulationError(ValueError):
    """Raised for structurally invalid triangulation data."""


class ParseError(TriangulationError):
    """Raised for malformed triangulation files; carries line/column."""

    def __init__(self, message, line, column=None):
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Gluing:
    """One side of a face identification.

    ``perm`` maps the source tetrahedron's vertex labels to the target's;
    perm[source face] = target face.
    """
    tet: int
    face: int
    perm: tuple

    def image_of_vertex(self, v):
        return self.perm[v]

    def image_of_edge(self, e):
        return model.perm_on_edge(self.perm, e)


class Triangulation:
    """An immutable collection of tetrahedra with face pairings.

    ``gluings[t][f]`` is either None (boundary face) or a :class:`Gluing`.
    Construction validates involutivity and rejects faces glued to
    themselves.
    """

    def __init__(self, tetrahedron_count, gluings):
        if tetrahedron_count <= 0:
            raise TriangulationError("tetrahedron count must be positive")
        self.tetrahedron_count = tetrahedron_count
        table = []
        for t in range(tetrahedron_count):
            row = []
            for f in range(4):
                g = gluings.get((t, f)) if isinstance(gluings, dict) else gluings[t][f]
                row.append(g)
            table.append(tuple(row))
        self.gluings = tuple(table)
        self._validate()

    @classmethod
    def from_pairs(cls, tetrahedron_count, pairs):
        """Build from a list of one-sided gluing specs.

        Each entry is ((t, f), (t', f'), corner_map) with corner_map a
        dict or mapping from the three corners of face f to corners of
        face f'.  The reverse gluing is filled in automatically.
        """
        table = {}
        for (t, f), (t2, f2), corner_map in pairs:
            perm = [None] * 4
            perm[f] = f2
            for v, w in corner_map.items():
                perm[v] = w
            if None in perm or sorted(perm) != [0, 1, 2, 3]:
                raise TriangulationError(
                    f"corner map not a bijection for gluing ({t},{f})")
            perm = tuple(perm)
            table[(t, f)] = Gluing(t2, f2, perm)
            table[(t2, f2)] = Gluing(t, f, model.perm_invert(perm))
        gluings = {(t, f): table.get((t, f))
                   for t in range(tetrahedron_count) for f in range(4)}
        return cls(tetrahedron_count, gluings)

    def _validate(self):
        n = self.tetrahedron_count
        for t in range(n):
            for f in range(4):
                g = self.gluings[t][f]
                if g is None:
                    continue
                if not (0 <= g.tet < n):
                    raise TriangulationError(
                        f"gluing ({t},{f}) targets tetrahedron {g.tet}, "
                        f"out of range")
                if not (0 <= g.face < 4):
                    raise TriangulationError(
                        f"gluing ({t},{f}) targets face {g.face}, out of range")
                if sorted(g.perm) != [0, 1, 2, 3]:
                    raise TriangulationError(
                        f"corner map not a bijection at ({t},{f})")
                if g.perm[f] != g.face:
                    raise TriangulationError(
                        f"corner map at ({t},{f}) does not send face {f} "
                        f"to face {g.face}")
                if (g.tet, g.face) == (t, f):
                    raise TriangulationError(f"self-glued face ({t},{f})")
                back = self.gluings[g.tet][g.face]
                if back is None or (back.tet, back.face) != (t, f) \
                        or back.perm != model.perm_invert(g.perm):
                    raise TriangulationError(
                        f"non-involutive gluing at ({t},{f})")

    # -- queries ----------------------------------------------------------

    def is_closed(self):
        return all(g is not None
                   for row in self.gluings for g in row)

    def boundary_faces(self):
        return [(t, f) for t in range(self.tetrahedron_count)
                for f in range(4) if self.gluings[t][f] is None]

    def face_pairs(self):
        """Each glued face pair once, as (t, f, gluing) in (t, f) order."""
        for t, row in enumerate(self.gluings):
            for f, g in enumerate(row):
                if g is not None and (t, f) < (g.tet, g.face):
                    yield t, f, g

    def orientable(self):
        """Whether tetrahedra admit orientations compatible with all gluings.

        Two tetrahedra glued along a face are coherently oriented exactly
        when the gluing permutation is odd, so the triangulation is
        orientable iff tetrahedra can be signed with o(t)*o(t') = -sign(p)
        across every gluing.
        """
        sign = [0] * self.tetrahedron_count
        for start in range(self.tetrahedron_count):
            if sign[start]:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for f in range(4):
                    g = self.gluings[t][f]
                    if g is None:
                        continue
                    want = -sign[t] * model.perm_sign(g.perm)
                    if sign[g.tet] == 0:
                        sign[g.tet] = want
                        stack.append(g.tet)
                    elif sign[g.tet] != want:
                        return False
        return True

    def to_text(self, comment=None):
        """Serialize in the plain-text file format."""
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append(str(self.tetrahedron_count))
        for t in range(self.tetrahedron_count):
            tokens = []
            for f in range(4):
                g = self.gluings[t][f]
                if g is None:
                    tokens.append("-")
                else:
                    corners = "".join(str(g.perm[v]) for v in range(4) if v != f)
                    tokens.append(f"{g.tet}:{g.face}:{corners}")
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.gluings == other.gluings)

    def __hash__(self):
        return hash(self.gluings)


def parse_triangulation(text):
    """Parse the text format into a validated :class:`Triangulation`."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            rows.append((lineno, body))
    if not rows:
        raise ParseError("empty file", 1)
    lineno, head = rows[0]
    try:
        count = int(head.strip())
    except ValueError:
        raise ParseError(f"expected tetrahedron count, got {head.strip()!r}",
                         lineno) from None
    if count <= 0:
        raise ParseError("tetrahedron count must be positive", lineno)
    if len(rows) - 1 != count:
        raise ParseError(
            f"expected {count} gluing lines, found {len(rows) - 1}",
            rows[-1][0] if len(rows) > 1 else lineno)

    gluings = {}
    for t, (lineno, body) in enumerate(rows[1:]):
        tokens = body.split()
        if len(tokens) != 4:
            raise ParseError(f"expected 4 gluing tokens, found {len(tokens)}",
                             lineno)
        for f, token in enumerate(tokens):
            column = body.index(token) + 1
            if token == "-":
                gluings[(t, f)] = None
                continue
            parts = token.split(":")
            if len(parts) != 3:
                raise ParseError(f"malformed gluing token {token!r}",
                                 lineno, column)
            try:
                t2 = int(parts[0])
                f2 = int(parts[1])
            except ValueError:
                raise ParseError(f"malformed gluing token {token!r}",
                                 lineno, column) from None
            if not (0 <= t2 < count):
                raise ParseError(f"tetrahedron index {t2} out of range",
                                 lineno, column)
            if not (0 <= f2 < 4):
                raise ParseError(f"face index {f2} out of range",
                                 lineno, column)
            if len(parts[2]) != 3 or not parts[2].isdigit():
                raise ParseError(f"corner map {parts[2]!r} must be 3 digits",
                                 lineno, column)
            images = [int(c) for c in parts[2]]
            if any(i > 3 for i in images):
                raise ParseError(f"corner {max(images)} out of range",
                                 lineno, column)
            perm = [None] * 4
            perm[f] = f2
            for v, w in zip([v for v in range(4) if v != f], images):
                perm[v] = w
            if sorted(perm) != [0, 1, 2, 3]:
                raise ParseError(f"corner map not a bijection in {token!r}",
                                 lineno, column)
            gluings[(t, f)] = Gluing(t2, f2, tuple(perm))
    try:
        return Triangulation(count, gluings)
    except ParseError:
        raise
    except TriangulationError as exc:
        raise ParseError(str(exc), rows[-1][0]) from exc


# ---------------------------------------------------------------------------
# Skeleton: orbits of model cells under the gluing identifications.
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # Deterministic representative: keep the smaller key.
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx

    def orbits(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(groups[r]) for r in sorted(groups)]


@dataclass(frozen=True)
class Skeleton:
    """Cell orbits of a triangulation.

    Vertex cells are (tet, vertex), edge cells (tet, edge index), face
    cells (tet, face).  Orbit lists are sorted and the orbits themselves
    appear in order of their smallest member.  ``edge_reversed`` flags
    orbits containing an edge identified with itself reversing its
    endpoints; such identifications produce non-manifold points that no
    vertex link detects.
    """
    vertex_orbits: tuple
    edge_orbits: tuple
    face_orbits: tuple
    vertex_boundary: tuple
    edge_boundary: tuple
    face_boundary: tuple
    edge_reversed: tuple

    @property
    def counts(self):
        return (len(self.vertex_orbits), len(self.edge_orbits),
                len(self.face_orbits))

    def euler_alternating_sum(self, tetrahedron_count):
        v, e, f = self.counts
        return v - e + f - tetrahedron_count


def compute_skeleton(tri):
    """Orbits of vertices, edges and faces under the gluing maps."""
    n = tri.tetrahedron_count
    vertices = _UnionFind([(t, v) for t in range(n) for v in range(4)])
    edges = _UnionFind([(t, e) for t in range(n) for e in range(6)])
    faces = _UnionFind([(t, f) for t in range(n) for f in range(4)])
    # Directed edges track whether an orbit identifies an edge with
    # itself endpoint-reversingly; bit 1 marks the reversed copy.
    directed = _UnionFind([(t, e, o) for t in range(n) for e in range(6)
                           for o in (0, 1)])
    for t in range(n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            faces.union((t, f), (g.tet, g.face))
            for v in model.FACE_VERTICES[f]:
                vertices.union((t, v), (g.tet, g.image_of_vertex(v)))
            for e in model.FACE_EDGES[f]:
                e2 = g.image_of_edge(e)
                edges.union((t, e), (g.tet, e2))
                u, v = model.EDGES[e]
                flip = 0 if g.image_of_vertex(u) < g.image_of_vertex(v) else 1
                directed.union((t, e, 0), (g.tet, e2, flip))
                directed.union((t, e, 1), (g.tet, e2, 1 - flip))

    vertex_orbits = tuple(tuple(o) for o in vertices.orbits())
    edge_orbits = tuple(tuple(o) for o in edges.orbits())
    face_orbits = tuple(tuple(o) for o in faces.orbits())

    def orbit_is_reversed(orbit):
        t, e = orbit[0]
        return directed.find((t, e, 0)) == directed.find((t, e, 1))

    def vertex_is_boundary(orbit):
        return any(tri.gluings[t][f] is None
                   for (t, v) in orbit
                   for f in range(4) if f != v)

    def edge_is_boundary(orbit):
        return any(tri.gluings[t][f] is None
                   for (t, e) in orbit
                   for f in model.FACES_OF_EDGE[e])

    return Skeleton(
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        face_orbits=face_orbits,
        vertex_boundary=tuple(vertex_is_boundary(o) for o in vertex_orbits),
        edge_boundary=tuple(edge_is_boundary(o) for o in edge_orbits),
        face_boundary=tuple(len(o) == 1 for o in face_orbits),
        edge_reversed=tuple(orbit_is_reversed(o) for o in edge_orbits),
    )


# ---------------------------------------------------------------------------
# Vertex links and the manifold check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexLinkReport:
    vertex_orbit: int
    euler_characteristic: int
    closed: bool
    connected: bool

    @property
    def is_sphere(self):
        return self.closed and self.euler_characteristic == 2

    @property
    def is_disk(self):
        return (not self.closed) and self.euler_characteristic == 1

    @property
    def passes(self):
        return self.is_sphere or self.is_disk


@dataclass(frozen=True)
class ManifoldReport:
    is_manifold: bool
    links: tuple
    orientable: bool
    reversed_edges: tuple


def validate_manifold(tri, skeleton=None):
    """Check that every vertex link is a sphere or a disk.

    The link of a vertex orbit is the surface made of one corner triangle
    per (tet, vertex) member, with sides identified by the face gluings.
    Interior vertices must have sphere links, boundary vertices disk
    links.  Edges identified with themselves endpoint-reversingly are
    also rejected: they create non-manifold points invisible to every
    vertex link.  Failures are reported, not raised.
    """
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    n = tri.tetrahedron_count

    # Sides of corner triangles: (t, v, f) with f != v, lying in face f.
    # Corners of corner triangles: directed edge ends (t, v, e) with
    # v an endpoint of edge e.
    sides = [(t, v, f) for t in range(n) for v in range(4)
             for f in range(4) if f != v]
    ends = [(t, v, e) for t in range(n) for v in range(4)
            for e in range(6) if v in model.EDGES[e]]
    side_uf = _UnionFind(sides)
    end_uf = _UnionFind(ends)
    for t in range(n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            for v in model.FACE_VERTICES[f]:
                side_uf.union((t, v, f), (g.tet, g.image_of_vertex(v), g.face))
                for e in model.FACE_EDGES[f]:
                    if v in model.EDGES[e]:
                        end_uf.union((t, v, e),
                                     (g.tet, g.image_of_vertex(v),
                                      g.image_of_edge(e)))

    side_orbits = side_uf.orbits()
    end_orbits = end_uf.orbits()

    links = []
    for i, orbit in enumerate(skeleton.vertex_orbits):
        members = set(orbit)
        f_count = len(orbit)
        e_count = sum(1 for o in side_orbits if (o[0][0], o[0][1]) in members)
        v_count = sum(1 for o in end_orbits if (o[0][0], o[0][1]) in members)
        chi = v_count - e_count + f_count
        closed = not skeleton.vertex_boundary[i]
        # The corner triangles of an orbit are connected through the same
        # gluings that define the orbit, so each link is connected.
        links.append(VertexLinkReport(
            vertex_orbit=i, euler_characteristic=chi,
            closed=closed, connected=True))

    reversed_edges = tuple(i for i, r in enumerate(skeleton.edge_reversed) if r)
    ok = all(link.passes for link in links) and not reversed_edges
    return ManifoldReport(is_manifold=ok, links=tuple(links),
                          orientable=tri.orientable(),
                          reversed_edges=reversed_edges)
