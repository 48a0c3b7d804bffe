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

from . import model
from .record import Record, setfield


class TriangulationError(ValueError):
    """Raised for structurally invalid triangulation data."""


class ParseError(TriangulationError):
    """Raised for malformed triangulation files; carries line/column."""

    def __init__(self, message, line, column=None):
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


class Gluing(Record):
    """One side of a face identification.

    ``perm`` maps the source tetrahedron's vertex labels to the target's;
    perm[source face] = target face.
    """
    __slots__ = ("tet", "face", "perm")

    def __init__(self, tet, face, perm):
        setfield(self, "tet", tet)
        setfield(self, "face", face)
        setfield(self, "perm", perm)

    def image_of_vertex(self, v):
        return self.perm[v]

    def image_of_edge(self, e):
        return model.perm_on_edge(self.perm, e)


class Triangulation:
    """An immutable collection of tetrahedra with face pairings.

    ``gluings`` maps every (t, f) to None (boundary face) or a
    :class:`Gluing`, and a missing key reads as a boundary face; the
    table is kept as ``gluings[t][f]``.  Construction validates
    involutivity and rejects faces glued to themselves.
    """

    def __init__(self, tetrahedron_count, gluings):
        if tetrahedron_count <= 0:
            raise TriangulationError("tetrahedron count must be positive")
        self.tetrahedron_count = tetrahedron_count
        self.gluings = tuple(tuple(gluings.get((t, f)) for f in range(4))
                             for t in range(tetrahedron_count))
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
        across every gluing: an even gluing asks for opposite signs, and
        no class of the parity union-find may hold an odd cycle.
        """
        signs = ParityUnionFind(self.tetrahedron_count)
        for t, _, g in self.face_pairs():
            signs.union(t, g.tet, model.perm_sign(g.perm) == 1)
        return not any(span & ODD_LABELS for span in signs.span)

    def to_text(self):
        """Serialize in the plain-text file format."""
        lines = [str(self.tetrahedron_count)]
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

    A label is a 2-bit vector under XOR; bit 0 is the parity that most
    callers use alone, and bit 1 is free for a second relation.
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
        rx, ry = self.find(x), self.find(y)
        differ = self.parity[x] ^ self.parity[y] ^ label
        span = self.span
        if rx == ry:
            if differ:
                span[rx] = _span_sum(span[rx], 1 | 1 << differ)
            return
        size = self.size
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.parity[ry] = differ
        size[rx] += size[ry]
        if span[ry] != 1:
            span[rx] = _span_sum(span[rx], span[ry])

    def has_odd_cycle(self, x):
        """Whether the class of x holds an odd cycle of bit 0."""
        return bool(self.span[self.find(x)] & ODD_LABELS)

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

    def orbits(self):
        """The classes as ascending lists, in order of smallest member."""
        labels, roots = self.classes()
        out = [[] for _ in roots]
        for x, c in enumerate(labels):
            out[c].append(x)
        return out


class Skeleton(Record):
    """Cell orbits of a triangulation.

    Vertex cells are (tet, vertex), edge cells (tet, edge index), face
    cells (tet, face).  Orbit lists are sorted and the orbits themselves
    appear in order of their smallest member.  ``edge_reversed`` flags
    orbits containing an edge identified with itself reversing its
    endpoints; such identifications produce non-manifold points that no
    vertex link detects.
    """
    __slots__ = ("vertex_orbits", "edge_orbits", "face_orbits",
                 "vertex_boundary", "edge_boundary", "face_boundary",
                 "edge_reversed")

    def __init__(self, vertex_orbits, edge_orbits, face_orbits,
                 vertex_boundary, edge_boundary, face_boundary,
                 edge_reversed):
        setfield(self, "vertex_orbits", vertex_orbits)
        setfield(self, "edge_orbits", edge_orbits)
        setfield(self, "face_orbits", face_orbits)
        setfield(self, "vertex_boundary", vertex_boundary)
        setfield(self, "edge_boundary", edge_boundary)
        setfield(self, "face_boundary", face_boundary)
        setfield(self, "edge_reversed", edge_reversed)

    @property
    def counts(self):
        return (len(self.vertex_orbits), len(self.edge_orbits),
                len(self.face_orbits))

    def euler_alternating_sum(self, tetrahedron_count):
        v, e, f = self.counts
        return v - e + f - tetrahedron_count


def compute_skeleton(tri):
    """Orbits of vertices, edges and faces under the gluing maps.

    Cells are numbered 4t+v, 6t+e and 4t+f in one
    :class:`ParityUnionFind` each, and every glued face pair is visited
    once, so the cost is linear in the tetrahedron count.  An edge
    cell's parity is its direction: a gluing that sends the lower
    endpoint to the higher one relates the two edges with odd parity,
    and an orbit whose classes hold an odd cycle identifies an edge
    with itself reversed.
    """
    n = tri.tetrahedron_count
    vertices = ParityUnionFind(4 * n)
    edges = ParityUnionFind(6 * n)
    faces = ParityUnionFind(4 * n)
    for t, f, g in tri.face_pairs():
        t2, perm = g.tet, g.perm
        faces.union(4 * t + f, 4 * t2 + g.face)
        for v in model.FACE_VERTICES[f]:
            vertices.union(4 * t + v, 4 * t2 + perm[v])
        for e in model.FACE_EDGES[f]:
            u, w = model.EDGES[e]
            edges.union(6 * t + e, 6 * t2 + model.edge_index(perm[u], perm[w]),
                        perm[u] > perm[w])

    edge_classes = edges.orbits()
    vertex_orbits = tuple(tuple((c >> 2, c & 3) for c in o)
                          for o in vertices.orbits())
    edge_orbits = tuple(tuple(divmod(c, 6) for c in o) for o in edge_classes)
    face_orbits = tuple(tuple((c >> 2, c & 3) for c in o)
                        for o in faces.orbits())

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
        edge_reversed=tuple(edges.has_odd_cycle(o[0]) for o in edge_classes),
    )


# ---------------------------------------------------------------------------
# Vertex links and the manifold check.
# ---------------------------------------------------------------------------

class VertexLinkReport(Record):
    __slots__ = ("vertex_orbit", "euler_characteristic", "closed",
                 "connected")

    def __init__(self, vertex_orbit, euler_characteristic, closed, connected):
        setfield(self, "vertex_orbit", vertex_orbit)
        setfield(self, "euler_characteristic", euler_characteristic)
        setfield(self, "closed", closed)
        setfield(self, "connected", connected)

    @property
    def is_sphere(self):
        return self.closed and self.euler_characteristic == 2

    @property
    def is_disk(self):
        return (not self.closed) and self.euler_characteristic == 1

    @property
    def passes(self):
        return self.is_sphere or self.is_disk


class ManifoldReport(Record):
    __slots__ = ("is_manifold", "links", "orientable", "reversed_edges")

    def __init__(self, is_manifold, links, orientable, reversed_edges):
        setfield(self, "is_manifold", is_manifold)
        setfield(self, "links", links)
        setfield(self, "orientable", orientable)
        setfield(self, "reversed_edges", reversed_edges)


def validate_manifold(tri, skeleton=None):
    """Check that every vertex link is a sphere or a disk.

    The link of a vertex orbit is the surface made of one corner triangle
    per (tet, vertex) member, with sides identified by the face gluings.
    Interior vertices must have sphere links, boundary vertices disk
    links.  Edges identified with themselves endpoint-reversingly are
    also rejected: they create non-manifold points invisible to every
    vertex link.  Failures are reported, not raised.

    Every link is counted in one pass over the face pairs and one over
    the edge orbits, each cell credited to the vertex orbit of its
    first member, so beyond the skeleton the cost is linear in the
    tetrahedron count.  Each corner triangle has three sides, and a
    glued face pair identifies the sides lying in it two by two.  The
    link's vertices are edge ends: an edge orbit has one end in the
    link of each of its endpoints, or a single end when it is reversed.
    """
    if skeleton is None:
        skeleton = compute_skeleton(tri)
    orbit_of = [0] * (4 * tri.tetrahedron_count)
    for i, orbit in enumerate(skeleton.vertex_orbits):
        for t, v in orbit:
            orbit_of[4 * t + v] = i

    sides = [3 * len(orbit) for orbit in skeleton.vertex_orbits]
    for t, f, _ in tri.face_pairs():
        for v in model.FACE_VERTICES[f]:
            sides[orbit_of[4 * t + v]] -= 1
    ends = [0] * len(sides)
    for orbit, reverse in zip(skeleton.edge_orbits, skeleton.edge_reversed):
        t, e = orbit[0]
        u, w = model.EDGES[e]
        ends[orbit_of[4 * t + u]] += 1
        if not reverse:
            ends[orbit_of[4 * t + w]] += 1

    links = []
    for i, orbit in enumerate(skeleton.vertex_orbits):
        chi = ends[i] - sides[i] + len(orbit)
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
