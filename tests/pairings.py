"""Seeded random closed face pairings, a load for the matching equations."""

import itertools
import random

from normalhst.triangulation import Triangulation

_PERMS = list(itertools.permutations(range(4)))


def random_closed_pairing(n, seed):
    """A closed triangulation of n tetrahedra, fixed by ``seed``.

    The 4n faces are shuffled and neighbours are paired, each pair with
    a random corner map.  Most results are pseudo-manifolds.
    """
    rng = random.Random(seed)
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    pairs = []
    for (t, f), (t2, f2) in zip(faces[::2], faces[1::2]):
        perm = rng.choice([p for p in _PERMS if p[f] == f2])
        pairs.append(((t, f), (t2, f2),
                      {v: perm[v] for v in range(4) if v != f}))
    return Triangulation.from_pairs(n, pairs)
