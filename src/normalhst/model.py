"""
Combinatorics of the model tetrahedron.

Conventions used throughout the package:

* The four vertices of a tetrahedron are labelled 0, 1, 2, 3.
* Face f is the face opposite vertex f, so face f carries the three
  vertices other than f.
* The six edges are indexed in lexicographic order of their endpoint
  pairs: 01, 02, 03, 12, 13, 23.
* Edges come in three opposite pairs (01|23, 02|13, 03|12).  Quadrilateral
  and octagon piece types are indexed 0, 1, 2 by the pair of edges they
  are "parallel" to: quad type q separates the two edges of pair q and
  crosses the other four; octagon type q crosses the two edges of pair q
  twice and the other four once.
* A normal arc in face f is determined by the vertex of that face it
  cuts off, so arc types are pairs (f, v) with v != f.

Gluings between faces are stored as permutations of {0,1,2,3}: a gluing
of face f of one tetrahedron to face f' of another is the permutation p
with p[f] = f' sending each corner of the source face to the matching
corner of the target face.
"""

from itertools import permutations

VERTICES = (0, 1, 2, 3)
FACES = (0, 1, 2, 3)

# Edge index <-> endpoints, lexicographic.
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {e: i for i, e in enumerate(EDGES)}


def edge_index(u, v):
    """Index of the edge with endpoints u, v."""
    return EDGE_INDEX[(u, v) if u < v else (v, u)]


# Opposite-edge pairs; PAIRS[q] lists the two edge indices of pair q.
PAIRS = ((edge_index(0, 1), edge_index(2, 3)),
         (edge_index(0, 2), edge_index(1, 3)),
         (edge_index(0, 3), edge_index(1, 2)))

# pair_of_edge[e] = the pair containing edge e.
PAIR_OF_EDGE = [None] * 6
for _q, _pair in enumerate(PAIRS):
    for _e in _pair:
        PAIR_OF_EDGE[_e] = _q

# Vertices of each face, ascending.
FACE_VERTICES = tuple(tuple(v for v in VERTICES if v != f) for f in FACES)

# Edges of each face.
FACE_EDGES = tuple(tuple(edge_index(u, v)
                         for u in fv for v in fv if u < v)
                   for fv in FACE_VERTICES)

# The two faces containing each edge.
FACES_OF_EDGE = tuple(tuple(f for f in FACES if e in FACE_EDGES[f])
                      for e in range(6))

# Arc types: (face, cut vertex).  ARC_TYPES is face-major, cut-vertex-minor,
# matching the 12-integer CLI order for curve patterns.
ARC_TYPES = tuple((f, v) for f in FACES for v in FACE_VERTICES[f])
ARC_INDEX = {a: i for i, a in enumerate(ARC_TYPES)}


def arc_endpoints(f, v):
    """The two edges carrying the endpoints of arc type (f, v).

    The arc cuts vertex v off face f, so its endpoints lie on the two
    edges of face f incident to v.
    """
    x, y = [w for w in FACE_VERTICES[f] if w != v]
    return edge_index(v, x), edge_index(v, y)


# ARC_QUAD[f][v], for v != f, is the quad type whose pieces induce an
# arc of type (f, v).  A quad of pair type q meets face f in the arc
# cutting off vertex v exactly when the edge {f, v} belongs to pair q;
# for each arc type there is exactly one such quad type.
ARC_QUAD = tuple(tuple(PAIR_OF_EDGE[edge_index(f, v)] if v != f else None
                       for v in VERTICES) for f in FACES)


def oct_arc_count(q, f, v):
    """Arcs of type (f, v) on the boundary of one octagon of type q (0 or 1).

    An octagon meets each face in two arcs; on face f these cut off the
    two vertices w with edge {f, w} outside pair q.
    """
    return 0 if ARC_QUAD[f][v] == q else 1


def arc_count(block, f, v):
    """Arcs of type (f, v) induced on face f by a (tri, quad, oct) block.

    ``block`` is a triple of coordinate tuples (tri[0..3], quad[0..2],
    oct[0..2]) for a single tetrahedron.  Every octagon type but q, the
    quad type of the arc, has one arc of the type (see
    :func:`oct_arc_count`).
    """
    tri, quad, oct_ = block
    q = ARC_QUAD[f][v]
    return tri[v] + quad[q] + oct_[0] + oct_[1] + oct_[2] - oct_[q]


def edge_weight(block, e):
    """Crossings of edge e by all pieces of a (tri, quad, oct) block.

    The triangles at both ends cross it once, every quad but those of
    its own pair once, and every octagon once, those of its own pair
    twice.
    """
    tri, quad, oct_ = block
    u, v = EDGES[e]
    q = PAIR_OF_EDGE[e]
    return (tri[u] + tri[v] + quad[0] + quad[1] + quad[2] - quad[q]
            + oct_[0] + oct_[1] + oct_[2] + oct_[q])


# ---------------------------------------------------------------------------
# Boundary cycles of the three piece kinds.
#
# A piece meets the boundary of its tetrahedron in a closed curve that
# alternates between arcs (in faces) and crossings (on edges).  We record
# the cycle as a tuple of directed arc slots (face, cut_vertex, from_edge,
# to_edge).  For octagons, which cross the edges of their own pair twice,
# a crossing on such an edge is disambiguated by the vertex it is nearest
# to; crossings are (edge, end) pairs with end a vertex of the edge or
# None when the piece crosses the edge once.
# ---------------------------------------------------------------------------


def _cycle(arcs, doubled=None):
    """The boundary cycle of the piece whose arc types are ``arcs``.

    ``arcs`` lists (face, cut_vertex) in ARC_TYPES order.  An arc
    endpoint on edge e is the crossing (e, None), but on an edge of
    pair ``doubled``, which an octagon crosses twice, the arc cutting
    off v crosses near the v end, (e, v).  Every crossing must be
    shared by exactly two arc endpoints.
    """
    def crossing(f, v, e):
        return (e, v if PAIR_OF_EDGE[e] == doubled else None)

    by_crossing = {}
    for (f, v) in arcs:
        for e in arc_endpoints(f, v):
            by_crossing.setdefault(crossing(f, v, e), []).append((f, v, e))
    for ends in by_crossing.values():
        assert len(ends) == 2
    slots = []
    f, v = arcs[0]
    e_from = arc_endpoints(f, v)[0]
    start = (f, v, e_from)
    while True:
        e1, e2 = arc_endpoints(f, v)
        e_to = e2 if e_from == e1 else e1
        slots.append((f, v, crossing(f, v, e_from), crossing(f, v, e_to)))
        ends = by_crossing[crossing(f, v, e_to)]
        f, v, e_from = ends[0] if ends[0][:2] != (f, v) else ends[1]
        if (f, v, e_from) == start:
            break
    assert len(slots) == len(arcs), "piece boundary is not a single cycle"
    return tuple(slots)


TRI_CYCLES = tuple(_cycle([(f, w) for f, w in ARC_TYPES if w == v])
                   for v in VERTICES)
QUAD_CYCLES = tuple(_cycle([(f, w) for f, w in ARC_TYPES
                            if ARC_QUAD[f][w] == q]) for q in range(3))
OCT_CYCLES = tuple(_cycle([(f, w) for f, w in ARC_TYPES
                           if oct_arc_count(q, f, w)], q) for q in range(3))


# ---------------------------------------------------------------------------
# The symmetry group of the tetrahedron (all of S4, reflections included)
# and face-gluing permutations.
# ---------------------------------------------------------------------------

S4 = tuple(permutations(range(4)))


def perm_sign(p):
    """Sign of a permutation of {0,1,2,3} given as a tuple."""
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                sign = -sign
    return sign


def perm_invert(p):
    inv = [0] * 4
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def perm_on_edge(p, e):
    """Image of edge index e under a vertex permutation."""
    u, v = EDGES[e]
    return edge_index(p[u], p[v])


# INVERSE[p] is the inverse of p; keys and values are the tuples of S4,
# so a table built from them shares 24 permutation objects.
_INTERNED = {p: p for p in S4}
INVERSE = {p: _INTERNED[perm_invert(p)] for p in S4}

# SIGN[p] is the sign of p, for each p of S4.
SIGN = {p: perm_sign(p) for p in S4}

# EDGE_IMAGE[p][e] = (edge index of the image of e, flip), where flip is
# 1 when p sends the lower endpoint of e to the higher endpoint of its image.
EDGE_IMAGE = {p: tuple((perm_on_edge(p, e), int(p[u] > p[v]))
                       for e, (u, v) in enumerate(EDGES))
              for p in S4}
