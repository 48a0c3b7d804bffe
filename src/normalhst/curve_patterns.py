"""
Normal curves on the boundary of a single tetrahedron.

A curve pattern counts normal arcs by type: for each of the four faces,
the three arc types are labelled by the vertex the arc cuts off.  A
pattern with balanced endpoint counts along every edge has a canonical
embedded realization, unique up to normal isotopy: arcs of the same type
are drawn parallel, nested around the vertex they cut off, and matched
along each edge by position.  Decomposing that realization into loops is
therefore a pure function of the counts, and a combinatorial loop (a
cyclic word in the six edges) is realizable as an embedded curve exactly
when it appears in the decomposition of its own counts.

The decomposition is arithmetic on the counts; no arc is drawn.

* Triangle peel.  The v-arcs of rank r in the three faces at vertex v
  sit at position r from v on each edge at v, so while every face at v
  still has a v-arc, the innermost ones close up into a vertex
  triangle.  With t_v the least of the three counts, the innermost t_v
  ranks are t_v copies of v's triangle, and removing them leaves the
  canonical realization of the reduced counts.
* Successor arithmetic.  At crossing (e, pos) of edge e = (u, w) in
  face f, the arc is the u-arc of rank pos when pos is below the count
  of u-arcs in f, else the w-arc of rank width - 1 - pos; its other end
  is at the same rank on the other edge of f at its cut vertex.
* Parallel rest.  After the peel some face at each vertex lacks its
  v-arc, so no loop left is a vertex triangle: each is essential in the
  boundary sphere punctured at the four vertices, where disjoint
  essential curves are parallel.  The rest is therefore m copies of
  one loop, which is traced with the successor from one crossing; the
  arcs it uses, times m, must give the rest exactly.

The work grows with the length of the traced loop and the number of
loops returned, not with the number of arcs.
"""

from . import model
from .limits import ResourceCeilingError, ceiling
from .record import Record, setfield


class PatternError(ValueError):
    """Raised for malformed or unbalanced curve patterns."""


class CurvePattern(Record):
    """Counts of the 12 normal arc types, face-major order.

    ``counts[i]`` is the count of arc type ``model.ARC_TYPES[i]``; for
    face f the three types are ordered by ascending cut vertex.
    """
    __slots__ = ("counts",)

    def __init__(self, counts):
        if len(counts) != 12:
            raise PatternError("a curve pattern needs exactly 12 counts")
        if any(c < 0 for c in counts):
            raise PatternError("arc counts must be nonnegative")
        setfield(self, "counts", counts)

    @classmethod
    def from_block(cls, block):
        """Boundary pattern of one tetrahedron's (tri, quad, oct) block."""
        return cls(tuple(model.arc_count(block, f, v)
                         for (f, v) in model.ARC_TYPES))

    def count(self, f, v):
        return self.counts[model.ARC_INDEX[(f, v)]]

    def total(self):
        return sum(self.counts)

    def add(self, other):
        return CurvePattern(tuple(x + y
                                  for x, y in zip(self.counts, other.counts)))


def loop_pattern(word):
    """The curve pattern of a single combinatorial loop.

    ``word`` is a cyclic sequence of edge indices; the arc between
    consecutive edges lies in their unique common face and cuts off
    their common vertex.
    """
    counts = [0] * 12
    arcs = _word_arcs(word)
    for (f, v) in arcs:
        counts[model.ARC_INDEX[(f, v)]] += 1
    return CurvePattern(tuple(counts))


def _word_arcs(word):
    """Arc types traversed by a cyclic edge word, or raise PatternError."""
    if len(word) < 3:
        raise PatternError("a normal loop crosses at least three edges")
    arcs = []
    faces = []
    for i, e in enumerate(word):
        e2 = word[(i + 1) % len(word)]
        if e == e2:
            raise PatternError("consecutive crossings of the same edge")
        shared = set(model.FACES_OF_EDGE[e]) & set(model.FACES_OF_EDGE[e2])
        if not shared:
            raise PatternError(f"edges {e} and {e2} share no face")
        f = shared.pop()
        u = set(model.EDGES[e]) & set(model.EDGES[e2])
        arcs.append((f, u.pop()))
        faces.append(f)
    for i in range(len(word)):
        if faces[i - 1] == faces[i]:
            raise PatternError(
                "curve fails transversality: consecutive arcs share a face")
    return arcs


# ---------------------------------------------------------------------------
# Canonical realization and loop decomposition
# ---------------------------------------------------------------------------

class LoopDecomposition(Record):
    """The embedded loops realizing a balanced pattern.

    ``loops`` holds canonical cyclic edge words (lexicographically least
    rotation of the word or its reversal); ``lengths`` is the sorted
    multiset of loop lengths.
    """
    __slots__ = ("loops", "lengths")

    def __init__(self, loops, lengths):
        setfield(self, "loops", loops)
        setfield(self, "lengths", lengths)


def canonical_word(word):
    """Least rotation of the word or its reversal, in linear time."""
    word = tuple(word)
    return min(_least_rotation(word), _least_rotation(word[::-1]))


def _least_rotation(word):
    """The least rotation of a tuple.

    It starts at the last factor that begins in the first copy of the
    Lyndon factorization of the doubled word (J.-P. Duval, "Factorizing
    words over an ordered alphabet", J. Algorithms 4, 1983).
    """
    doubled = word + word
    n = len(word)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return doubled[start:start + n]


def _triangle_table():
    """(canonical word, the three arc indices) of each vertex triangle."""
    return tuple((canonical_word([e for e in range(6) if v in model.EDGES[e]]),
                  tuple(model.ARC_INDEX[(f, v)] for f in model.FACES if f != v))
                 for v in model.VERTICES)


def _side_table():
    """One row per side (e, f): edge e seen from face f = FACES_OF_EDGE[e][j],
    numbered 2 * e + j.

    A row is (u-arc index, w-arc index, u move, w move) for e = (u, w),
    where a move (side2, low) says where the arc of that type leads: to
    the side of its other edge e2 on e2's other face, with ``low`` true
    when the cut vertex is e2's lower endpoint.
    """
    rows = []
    for e, (u, w) in enumerate(model.EDGES):
        for f in model.FACES_OF_EDGE[e]:
            x = next(v for v in model.FACE_VERTICES[f] if v not in (u, w))
            moves = []
            for v in (u, w):
                e2 = model.edge_index(v, x)
                j = 1 - model.FACES_OF_EDGE[e2].index(f)
                moves.append((2 * e2 + j, v < x))
            rows.append((model.ARC_INDEX[(f, u)], model.ARC_INDEX[(f, w)],
                         *moves))
    return tuple(rows)


_TRIANGLES = _triangle_table()
_SIDES = _side_table()
# Per edge, the arc indices (u-arcs, w-arcs) of its two faces.
_EDGE_ARCS = tuple(_SIDES[2 * e][:2] + _SIDES[2 * e + 1][:2]
                   for e in range(6))


def decompose_pattern(pattern):
    """Split the canonical realization of a balanced pattern into loops.

    Raises :class:`PatternError` when the edge-balance invariant fails;
    balanced patterns always have an embedded realization.  The module
    docstring describes the method.  When the loops would pass the
    ``curve_loops`` ceiling it raises :class:`ResourceCeilingError`
    before listing any of them.
    """
    copies = _loop_copies(pattern)
    limit = ceiling("curve_loops")
    total = sum(m for _, m in copies)
    if total > limit:
        raise ResourceCeilingError(
            f"{total} loops exceed the curve_loops ceiling {limit}")
    loops = []
    for word, m in copies:
        loops += [word] * m
    lengths = []
    for word, m in sorted(copies, key=lambda c: len(c[0])):
        lengths += [len(word)] * m
    return LoopDecomposition(loops=tuple(loops), lengths=tuple(lengths))


def _loop_copies(pattern):
    """The loops of a balanced pattern as sorted (word, copies) pairs.

    The work does not grow with the counts: see the module docstring.
    """
    counts = pattern.counts
    bad = [e for e, (au, aw, bu, bw) in enumerate(_EDGE_ARCS)
           if counts[au] + counts[aw] != counts[bu] + counts[bw]]
    if bad:
        raise PatternError(
            f"edge balance violated on edges {bad}")

    copies = {}
    rest = list(counts)
    for word, arcs in _TRIANGLES:
        t = min(rest[i] for i in arcs)
        if t:
            copies[word] = t
            for i in arcs:
                rest[i] -= t

    if any(rest):
        width = [rest[au] + rest[aw] for au, aw, _, _ in _EDGE_ARCS]
        side = start = 2 * next(e for e in range(6) if width[e])
        pos = 0
        word = []
        used = [0] * 12
        while True:
            e = side >> 1
            word.append(e)
            iu, iw, u_move, w_move = _SIDES[side]
            if pos < rest[iu]:
                used[iu] += 1
                side, low = u_move
            else:
                used[iw] += 1
                pos = width[e] - 1 - pos
                side, low = w_move
            if not low:
                pos = width[side >> 1] - 1 - pos
            if side == start and pos == 0:
                break
        m = sum(rest) // len(word)
        if [m * x for x in used] != rest:
            raise AssertionError(
                f"loops left after the triangle peel are not parallel: {rest}")
        word = canonical_word(word)
        copies[word] = m
    return tuple(sorted(copies.items()))


# ---------------------------------------------------------------------------
# Loop enumeration up to the symmetry group of the tetrahedron
# ---------------------------------------------------------------------------

class LoopClass(Record):
    """An orbit of embedded loops under the S4 symmetry action."""
    __slots__ = ("length", "representative", "members")

    def __init__(self, length, representative, members):
        setfield(self, "length", length)
        setfield(self, "representative", representative)
        setfield(self, "members", members)

    @property
    def size(self):
        return len(self.members)


# Per arc type (f, v), in ARC_TYPES order: face f's two edges at v and
# its third edge.
_ARC_EDGES = tuple(
    model.arc_endpoints(f, v)
    + (model.edge_index(*[x for x in model.FACE_VERTICES[f] if x != v]),)
    for f, v in model.ARC_TYPES)
# Per edge e, the edges of each face whose last edge is e.
_CLOSED_BY = tuple(tuple(model.FACE_EDGES[f] for f in model.FACES
                         if max(model.FACE_EDGES[f]) == e)
                   for e in range(6))


def _balanced_patterns(max_total):
    """All edge-balanced patterns with at most max_total arcs.

    A balanced pattern is its six edge weights w: in face f the arcs
    cutting off vertex v number (w(a) + w(b) - w(c)) / 2, where a and b
    are f's edges at v and c is the third.  So each face's three weights
    have an even sum and none exceeds the other two, and the pattern has
    sum(w) arcs.  The weights are filled edge by edge, and each face is
    checked when its last edge gets a weight.
    """
    out = []
    w = [0] * 6

    def fill(e, left):
        if e == 6:
            out.append(CurvePattern(tuple((w[a] + w[b] - w[c]) // 2
                                          for a, b, c in _ARC_EDGES)))
            return
        for weight in range(left + 1):
            w[e] = weight
            if all(_face_ok(w[x], w[y], w[z]) for x, y, z in _CLOSED_BY[e]):
                fill(e + 1, left - weight)

    fill(0, max_total)
    return out


def _face_ok(x, y, z):
    """Whether a face's edge weights give nonnegative whole arc counts."""
    total = x + y + z
    return total % 2 == 0 and 2 * max(x, y, z) <= total


def word_image(word, perm):
    """Image of a cyclic edge word under a vertex permutation."""
    return canonical_word([model.perm_on_edge(perm, e) for e in word])


def enumerate_normal_loops(max_length):
    """All embedded normal loops of bounded length, up to symmetry.

    Enumerates every edge-balanced pattern with at most ``max_length``
    arcs and keeps the ones whose canonical realization is a single
    loop; these are exactly the embedded normal curves.  Loops are
    grouped into orbits under the full 24-element symmetry group.
    """
    if max_length > ceiling("loop_length"):
        raise ResourceCeilingError(
            f"loop length {max_length} exceeds ceiling "
            f"{ceiling('loop_length')}")
    loops = set()
    for pattern in _balanced_patterns(max_length):
        if pattern.total() == 0:
            continue
        dec = decompose_pattern(pattern)
        if len(dec.loops) == 1:
            loops.add(dec.loops[0])

    classes = []
    remaining = set(loops)
    while remaining:
        rep = min(remaining)
        orbit = {word_image(rep, p) for p in model.S4}
        assert orbit <= loops
        remaining -= orbit
        classes.append(LoopClass(length=len(rep), representative=rep,
                                 members=tuple(sorted(orbit))))
    classes.sort(key=lambda c: (c.length, c.representative))
    return classes


# ---------------------------------------------------------------------------
# The length-3/4/8 pattern condition
# ---------------------------------------------------------------------------

class Check348(Record):
    __slots__ = ("passed", "witness", "octagons")

    def __init__(self, passed, witness=None, octagons=0):
        setfield(self, "passed", passed)
        setfield(self, "witness", witness)      # offending loop word, if any
        setfield(self, "octagons", octagons)    # length-8 loops seen

    def __bool__(self):
        return self.passed


def check_348(pattern):
    """Pass iff the pattern's loops have lengths 3 and 4, plus at most
    one loop of length 8.

    The witness names an offending loop: either a loop of some other
    length, or the second length-8 loop.  The one-octagon rule across a
    whole surface (at most one tetrahedron carrying the length-8 loop)
    is enforced by :func:`check_348_surface`, which sees all tetrahedra.
    """
    octagons = 0
    for word, m in _loop_copies(pattern):
        n = len(word)
        if n in (3, 4):
            continue
        if n == 8:
            if octagons + m > 1:
                # The verdict falls at the second length-8 loop.
                return Check348(False, witness=word, octagons=2)
            octagons += m
            continue
        return Check348(False, witness=word, octagons=octagons)
    return Check348(True, octagons=octagons)


class SurfaceCheck348(Record):
    """The 3/4/8 test of a whole surface: one :class:`Check348` per
    tetrahedron and the total of their length-8 loops."""
    __slots__ = ("results", "octagons")

    def __init__(self, results):
        setfield(self, "results", results)
        setfield(self, "octagons", sum(r.octagons for r in results))

    @property
    def passed(self):
        """Every tetrahedron passes and the surface has at most one
        length-8 loop."""
        return self.octagons <= 1 and all(r.passed for r in self.results)


def check_348_surface(blocks):
    """:func:`check_348` of each tetrahedron's block of a surface vector.

    The test depends on the block alone, so it runs once per distinct
    block.
    """
    results = {}
    for block in blocks:
        if block not in results:
            results[block] = check_348(CurvePattern.from_block(block))
    return SurfaceCheck348(tuple(results[block] for block in blocks))
