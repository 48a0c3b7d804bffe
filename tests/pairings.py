"""Seeded random face pairings, a load for the matching equations and
the skeleton."""

import itertools
import random

from normalhst.triangulation import Triangulation

_PERMS = list(itertools.permutations(range(4)))


def random_pairing(n, seed, boundary):
    """A triangulation of n tetrahedra with ``boundary`` unglued faces.

    The 4n faces are shuffled with ``seed``; the first ``boundary``
    stay unglued and the rest are paired neighbour by neighbour, each
    pair with a random corner map.  Most results are pseudo-manifolds.
    """
    assert boundary % 2 == 0 and 0 <= boundary <= 4 * n
    rng = random.Random(seed)
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    glued = faces[boundary:]
    pairs = []
    for (t, f), (t2, f2) in zip(glued[::2], glued[1::2]):
        perm = rng.choice([p for p in _PERMS if p[f] == f2])
        pairs.append(((t, f), (t2, f2),
                      {v: perm[v] for v in range(4) if v != f}))
    return Triangulation.from_pairs(n, pairs)


def random_closed_pairing(n, seed):
    """A closed triangulation of n tetrahedra, fixed by ``seed``."""
    return random_pairing(n, seed, 0)
