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
* every number is a canonical ASCII decimal numeral, with no sign,
  underscore or leading zero but for ``0`` itself;
* ``#`` starts a comment running to the end of the line.
"""

from . import model
from .record import Record, numeral, quoted, setfield


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


class Triangulation:
    """An immutable collection of tetrahedra with face pairings.

    ``gluings`` has one row per tetrahedron, and row t holds, for faces
    0..3, None (boundary face) or a :class:`Gluing`; the table is kept
    as ``gluings[t][f]``.  Construction validates involutivity and
    rejects faces glued to themselves.
    """

    def __init__(self, gluings):
        if not gluings:
            raise TriangulationError("tetrahedron count must be positive")
        self.tetrahedron_count = len(gluings)
        self.gluings = tuple(map(tuple, gluings))
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
            perm = tuple(perm)
            if perm not in model.INVERSE:
                raise TriangulationError(
                    f"corner map not a bijection for gluing ({t},{f})")
            table[(t, f)] = Gluing(t2, f2, perm)
            table[(t2, f2)] = Gluing(t, f, model.INVERSE[perm])
        return cls([[table.get((t, f)) for f in range(4)]
                    for t in range(tetrahedron_count)])

    def _validate(self):
        n = self.tetrahedron_count
        rows = self.gluings
        inverse = model.INVERSE
        for t, row in enumerate(rows):
            for f, g in enumerate(row):
                if g is None:
                    continue
                t2, f2, perm = g.tet, g.face, g.perm
                if not 0 <= t2 < n:
                    raise TriangulationError(
                        f"gluing ({t},{f}) targets tetrahedron {t2}, "
                        f"out of range")
                if not 0 <= f2 < 4:
                    raise TriangulationError(
                        f"gluing ({t},{f}) targets face {f2}, out of range")
                if perm not in inverse:
                    raise TriangulationError(
                        f"corner map not a bijection at ({t},{f})")
                if perm[f] != f2:
                    raise TriangulationError(
                        f"corner map at ({t},{f}) does not send face {f} "
                        f"to face {f2}")
                if t2 == t and f2 == f:
                    raise TriangulationError(f"self-glued face ({t},{f})")
                back = rows[t2][f2]
                if back is None or back.tet != t or back.face != f \
                        or back.perm != inverse[perm]:
                    raise TriangulationError(
                        f"non-involutive gluing at ({t},{f})")

    # -- queries ----------------------------------------------------------

    def is_closed(self):
        return all(g is not None
                   for row in self.gluings for g in row)

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
        across every gluing: an even gluing asks for opposite signs.  A
        walk over the rows signs each class of glued tetrahedra from its
        first member, reading each gluing's sign from ``model.SIGN``, and
        fails at the first gluing whose two signs disagree.  The cost is
        linear in the tetrahedron count.
        """
        rows = self.gluings
        sign_of = model.SIGN
        signs = [0] * self.tetrahedron_count
        for start in range(self.tetrahedron_count):
            if signs[start]:
                continue
            signs[start] = 1
            queue = [start]
            for t in queue:
                flip = -signs[t]
                for g in rows[t]:
                    if g is None:
                        continue
                    want = flip * sign_of[g.perm]
                    have = signs[g.tet]
                    if not have:
                        signs[g.tet] = want
                        queue.append(g.tet)
                    elif have != want:
                        return False
        return True

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


# _TAILS[f] maps each of the 24 valid tails ``f2:abc`` of a gluing token
# on face f, the part after the target tetrahedron, to (f2, perm) with
# perm the tuple of model.S4 it spells.
_TAILS = tuple({f"{p[f]}:" + "".join(str(p[v]) for v in corners): (p[f], p)
                for p in model.S4}
               for f, corners in enumerate(model.FACE_VERTICES))


def _token_error(token, f, count):
    """Why a gluing token on face f names no gluing, as a message.

    The token missed the tables of :func:`parse_triangulation`, and the
    checks run in a fixed order: a token that passes all but the last
    spells a corner map that is not a bijection.
    """
    parts = token.split(":")
    if len(parts) != 3:
        return f"malformed gluing token {quoted(token)}"
    t2, f2 = numeral(parts[0]), numeral(parts[1])
    if t2 is None or f2 is None:
        return f"malformed gluing token {quoted(token)}"
    if not 0 <= t2 < count:
        return f"tetrahedron index {quoted(t2)} out of range"
    if not 0 <= f2 < 4:
        return f"face index {quoted(f2)} out of range"
    corners = parts[2]
    if len(corners) != 3 or not (corners.isascii() and corners.isdigit()):
        return f"corner map {quoted(corners)} must be 3 digits"
    if max(corners) > "3":
        return f"corner {max(corners)} out of range"
    return f"corner map not a bijection in {quoted(token)}"


def parse_triangulation(text):
    """Parse the text format into a validated :class:`Triangulation`.

    Every numeral must be canonical (see :func:`.record.numeral`), so
    ``to_text`` writes each accepted token back unchanged.  A gluing
    token ``t:f:abc`` is read by two table lookups: the string t in a
    table of the N canonical tetrahedron indices, and the tail ``f:abc``
    in the 24-entry table of the source face.  A token either table
    misses is explained by :func:`_token_error`, so the tables are the
    validity check.  With the involutivity check of
    :class:`Triangulation`, the cost is linear in the file length.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            rows.append((lineno, body))
    if not rows:
        raise ParseError("empty file", 1)
    lineno, head = rows[0]
    count = numeral(head.strip())
    if count is None:
        raise ParseError(
            f"expected tetrahedron count, got {quoted(head.strip())}", lineno)
    if count <= 0:
        raise ParseError("tetrahedron count must be positive", lineno)
    if len(rows) - 1 != count:
        raise ParseError(
            f"expected {quoted(count)} gluing lines, found {len(rows) - 1}",
            rows[-1][0] if len(rows) > 1 else lineno)

    index = {str(t): t for t in range(count)}
    gluings = []
    for lineno, body in rows[1:]:
        tokens = body.split()
        if len(tokens) != 4:
            raise ParseError(f"expected 4 gluing tokens, found {len(tokens)}",
                             lineno)
        row = []
        for f, token in enumerate(tokens):
            if token == "-":
                row.append(None)
                continue
            head, _, tail = token.partition(":")
            t2 = index.get(head)
            hit = _TAILS[f].get(tail)
            if t2 is None or hit is None:
                # token f starts where the rest after f splits begins
                raise ParseError(_token_error(token, f, count), lineno,
                                 len(body) - len(body.split(None, f)[f]) + 1)
            row.append(Gluing(t2, *hit))
        gluings.append(row)
    try:
        return Triangulation(gluings)
    except TriangulationError as exc:
        raise ParseError(str(exc), rows[-1][0]) from exc


# ---------------------------------------------------------------------------
# Skeleton: orbits of model cells under the gluing identifications.
# ---------------------------------------------------------------------------

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
                 "vertex_boundary", "edge_reversed")

    def __init__(self, vertex_orbits, edge_orbits, face_orbits,
                 vertex_boundary, edge_reversed):
        setfield(self, "vertex_orbits", vertex_orbits)
        setfield(self, "edge_orbits", edge_orbits)
        setfield(self, "face_orbits", face_orbits)
        setfield(self, "vertex_boundary", vertex_boundary)
        setfield(self, "edge_reversed", edge_reversed)

    @property
    def counts(self):
        return (len(self.vertex_orbits), len(self.edge_orbits),
                len(self.face_orbits))

    def euler_alternating_sum(self, tetrahedron_count):
        v, e, f = self.counts
        return v - e + f - tetrahedron_count


# _EXIT[e][f] is the face of edge e other than f, for f a face of e.
_EXIT = tuple({fa: fb, fb: fa} for fa, fb in model.FACES_OF_EDGE)


def compute_edge_orbits(tri):
    """Orbits of edges under the gluing maps, and which are reversed.

    Returns the orbits, as in :attr:`Skeleton.edge_orbits`, and per
    orbit whether it identifies an edge with itself reversed.  Each
    orbit is walked from its smallest cell, cells numbered 6t+e, and
    sorted.  An edge cell lies in two faces, so its orbit is a cycle
    or, on the boundary, a path: the walk crosses the face it did not
    come in by, with the image edge and its direction flip read from
    ``model.EDGE_IMAGE``, until it is back at its first cell or, on a
    path, at a boundary face, where it walks the other way from the
    first cell.  A cycle whose flips add to an odd parity identifies an
    edge with itself reversed.  Each cell is visited once, so the cost
    is linear in the tetrahedron count, plus the sorting of the orbits.
    """
    rows = tri.gluings
    edge_image = model.EDGE_IMAGE
    seen = bytearray(6 * tri.tetrahedron_count)
    orbits, reversed_ = [], []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        boundary = reverse = False
        t0, e0 = divmod(start, 6)
        for exit_face in model.FACES_OF_EDGE[e0]:
            t, e, f, parity = t0, e0, exit_face, 0
            while True:
                g = rows[t][f]
                if g is None:
                    boundary = True
                    break
                e, flip = edge_image[g.perm][e]
                parity ^= flip
                t = g.tet
                cell = 6 * t + e
                if cell == start:
                    reverse = parity == 1
                    break
                seen[cell] = 1
                orbit.append(cell)
                f = _EXIT[e][g.face]
            if not boundary:
                break
        orbit.sort()
        orbits.append(tuple([divmod(c, 6) for c in orbit]))
        reversed_.append(reverse)
    return tuple(orbits), tuple(reversed_)


def compute_skeleton(tri):
    """Orbits of vertices, edges and faces under the gluing maps.

    Each orbit is walked from its smallest cell, cells numbered 4t+v
    and 6t+e, and sorted, so orbits come in order of smallest member.
    A vertex orbit is a breadth-first walk: cell (t, v) meets
    (t', perm[v]) across every glued face of t at v, and is on the
    boundary when one of those faces is not glued.  Edge orbits are
    walked by :func:`compute_edge_orbits`.  A face orbit is one glued
    pair or one boundary face.  Each cell is visited once and each
    glued face crossed a bounded number of times, so the cost is linear
    in the tetrahedron count, plus the sorting of the orbits.
    """
    n = tri.tetrahedron_count
    rows = tri.gluings

    seen = bytearray(4 * n)
    vertex_orbits, vertex_boundary = [], []
    for start in range(4 * n):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        boundary = False
        for cell in orbit:
            t, v = cell >> 2, cell & 3
            row = rows[t]
            for f in model.FACE_VERTICES[v]:    # the faces f != v
                g = row[f]
                if g is None:
                    boundary = True
                    continue
                image = 4 * g.tet + g.perm[v]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        orbit.sort()
        vertex_orbits.append(tuple([(c >> 2, c & 3) for c in orbit]))
        vertex_boundary.append(boundary)

    edges, edge_reversed = compute_edge_orbits(tri)

    face_orbits = []
    for t, row in enumerate(rows):
        for f, g in enumerate(row):
            if g is None:
                face_orbits.append(((t, f),))
            elif t < g.tet or (t == g.tet and f < g.face):
                face_orbits.append(((t, f), (g.tet, g.face)))

    return Skeleton(
        vertex_orbits=tuple(vertex_orbits),
        edge_orbits=edges,
        face_orbits=tuple(face_orbits),
        vertex_boundary=tuple(vertex_boundary),
        edge_reversed=edge_reversed,
    )


# ---------------------------------------------------------------------------
# Vertex links and the manifold check.
# ---------------------------------------------------------------------------

class VertexLinkReport(Record):
    __slots__ = ("vertex_orbit", "euler_characteristic", "closed")

    def __init__(self, vertex_orbit, euler_characteristic, closed):
        setfield(self, "vertex_orbit", vertex_orbit)
        setfield(self, "euler_characteristic", euler_characteristic)
        setfield(self, "closed", closed)

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

    # The corner triangles of an orbit are connected through the same
    # gluings that define the orbit, so each link is connected, and its
    # chi and boundary tell a sphere or a disk.
    links = tuple(VertexLinkReport(i, ends[i] - sides[i] + len(orbit),
                                   not skeleton.vertex_boundary[i])
                  for i, orbit in enumerate(skeleton.vertex_orbits))

    reversed_edges = tuple(i for i, r in enumerate(skeleton.edge_reversed) if r)
    ok = all(link.passes for link in links) and not reversed_edges
    return ManifoldReport(is_manifold=ok, links=links,
                          orientable=tri.orientable(),
                          reversed_edges=reversed_edges)
