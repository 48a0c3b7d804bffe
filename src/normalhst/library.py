"""
Small reference triangulations used by the test corpus, the self test
and the demos.
"""

import random
from itertools import combinations

from . import model
from .triangulation import Gluing, Triangulation


def single_tetrahedron():
    """One tetrahedron, all four faces boundary."""
    return Triangulation.from_pairs(1, [])


def doubled_tetrahedron():
    """Two tetrahedra glued along all four faces by identity corner maps.

    A closed triangulation of the 3-sphere with 4 vertices.
    """
    pairs = []
    for f in range(4):
        corners = [v for v in range(4) if v != f]
        pairs.append(((0, f), (1, f), {v: v for v in corners}))
    return Triangulation.from_pairs(2, pairs)


def boundary_4_simplex():
    """The boundary of the 4-simplex: five tetrahedra, pairwise glued.

    Tetrahedron i carries the vertices {0..4} minus i of the 4-simplex,
    listed ascending; the triangle missing vertices i and j is shared by
    tetrahedra i and j.
    """
    verts = {i: [v for v in range(5) if v != i] for i in range(5)}
    pairs = []
    for i, j in combinations(range(5), 2):
        fi = verts[i].index(j)         # face of tet i opposite vertex j
        fj = verts[j].index(i)
        corner_map = {}
        for u in range(5):
            if u in (i, j):
                continue
            corner_map[verts[i].index(u)] = verts[j].index(u)
        pairs.append(((i, fi), (j, fj), corner_map))
    return Triangulation.from_pairs(5, pairs)


def one_tet_sphere():
    """A one-vertex, one-tetrahedron triangulation of the 3-sphere.

    Face 0 is glued to face 1 and face 2 to face 3; H_1 is trivial.
    """
    return Triangulation.from_pairs(1, [
        ((0, 0), (0, 1), {1: 0, 2: 2, 3: 3}),
        ((0, 2), (0, 3), {0: 1, 1: 2, 3: 0}),
    ])


def lens_l41():
    """A one-vertex, one-tetrahedron triangulation of the lens space L(4,1).

    H_1 is Z/4; the manifold contains an embedded (one-sided) Klein
    bottle, which shows up as a non-orientable normal surface.
    """
    return Triangulation.from_pairs(1, [
        ((0, 0), (0, 1), {1: 2, 2: 3, 3: 0}),
        ((0, 2), (0, 3), {0: 1, 1: 2, 3: 0}),
    ])


def rp3_two_tet():
    """A two-tetrahedron closed orientable manifold containing a
    projective plane.

    The one-sided normal projective plane sits at one quad per
    tetrahedron; its double (two parallel copies) closes up to a
    2-sphere, as the boundary of a twisted I-bundle should.
    """
    return Triangulation.from_pairs(2, [
        ((0, 0), (1, 0), {1: 1, 2: 3, 3: 2}),
        ((0, 1), (1, 1), {0: 0, 2: 3, 3: 2}),
        ((0, 2), (1, 2), {0: 1, 1: 0, 3: 3}),
        ((0, 3), (1, 3), {0: 1, 1: 0, 2: 2}),
    ])


def pseudomanifold_two_tet():
    """A closed 2-tetrahedron pseudo-manifold.

    All faces are paired and no edge is reversed, but the link of vertex
    orbit 0 has Euler characteristic 0 rather than 2, so the space fails
    the manifold check at that vertex.
    """
    return Triangulation.from_pairs(2, [
        ((0, 0), (1, 0), {1: 2, 2: 3, 3: 1}),
        ((0, 1), (1, 1), {0: 2, 2: 3, 3: 0}),
        ((0, 2), (1, 2), {0: 0, 1: 1, 3: 3}),
        ((0, 3), (1, 3), {0: 0, 1: 1, 2: 2}),
    ])


# _SWAP[i][j] is the transposition of i and j.
_SWAP = tuple(tuple(tuple(j if k == i else i if k == j else k
                          for k in range(4)) for j in range(4))
              for i in range(4))


def stellar_subdivision(tri, moves, seed):
    """The triangulation after ``moves`` seeded 1-4 moves.

    Each move draws a tetrahedron t and cones it from a new interior
    vertex into four pieces, t itself and three new tetrahedra appended
    in order.  Piece i keeps face i of t with its gluing and carries the
    new vertex under label i; its face j meets piece j's face i through
    the transposition of i and j, which is odd, so orientability is
    kept.  A move adds one vertex and three tetrahedra and keeps the
    manifold.
    """
    rng = random.Random(seed)
    rows = [list(row) for row in tri.gluings]
    for _ in range(moves):
        t = rng.randrange(len(rows))
        pieces = (t, len(rows), len(rows) + 1, len(rows) + 2)
        old = rows[t]
        rows.extend([None] * 4 for _ in range(3))
        for i in range(4):
            row = [Gluing(pieces[j], i, _SWAP[i][j]) for j in range(4)]
            g = old[i]
            if g is None:
                row[i] = None
            elif g.tet == t:
                row[i] = Gluing(pieces[g.face], g.face, g.perm)
            else:
                row[i] = g
                rows[g.tet][g.face] = Gluing(pieces[i], i,
                                             model.INVERSE[g.perm])
            rows[pieces[i]] = row
    return Triangulation(rows)


CORPUS = {
    "single": single_tetrahedron,
    "doubled": doubled_tetrahedron,
    "pentachoron": boundary_4_simplex,
}


def corpus():
    """The named reference triangulations, in deterministic order."""
    return [(name, build()) for name, build in sorted(CORPUS.items())]
