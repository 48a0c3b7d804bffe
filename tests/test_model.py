"""
Identities of the model tetrahedron that everything else leans on.
"""

import random

from normalhst import model

from oracles import perm_compose


def test_pairs_partition_edges():
    seen = sorted(e for pair in model.PAIRS for e in pair)
    assert seen == list(range(6))
    for q, (a, b) in enumerate(model.PAIRS):
        assert set(model.EDGES[a]) & set(model.EDGES[b]) == set()
        assert model.PAIR_OF_EDGE[a] == model.PAIR_OF_EDGE[b] == q


def test_each_face_meets_each_pair_once():
    for f in model.FACES:
        by_pair = [model.PAIR_OF_EDGE[e] for e in model.FACE_EDGES[f]]
        assert sorted(by_pair) == [0, 1, 2]


def test_arc_types_partition_by_quad():
    # each arc type is induced by exactly one triangle and one quad type
    for (f, v) in model.ARC_TYPES:
        quads = [q for q in range(3)
                 if model.ARC_QUAD[f][v] == q]
        assert len(quads) == 1


def test_octagon_counts_equal_sum_of_other_quads():
    # an octagon's arc pattern equals the union of the two quad types
    # other than its own pair
    for q in range(3):
        others = [p for p in range(3) if p != q]
        for (f, v) in model.ARC_TYPES:
            quad_sum = sum(1 for p in others
                           if model.ARC_QUAD[f][v] == p)
            assert model.oct_arc_count(q, f, v) == quad_sum


def test_arc_count_closed_form():
    # arc_count subtracts one octagon type from the sum of all three;
    # compare with the per-type sum over oct_arc_count
    rng = random.Random(5)
    for _ in range(500):
        block = (tuple(rng.randrange(4) for _ in range(4)),
                 tuple(rng.randrange(4) for _ in range(3)),
                 tuple(rng.randrange(4) for _ in range(3)))
        for (f, v) in model.ARC_TYPES:
            expected = (block[0][v] + block[1][model.ARC_QUAD[f][v]]
                        + sum(block[2][q] * model.oct_arc_count(q, f, v)
                              for q in range(3)))
            assert model.arc_count(block, f, v) == expected


def test_edge_weight_counts_cycle_crossings():
    # the closed form of edge_weight against the boundary cycles: one
    # piece crosses edge e once per cycle slot leaving across e
    for kind, cycles in enumerate((model.TRI_CYCLES, model.QUAD_CYCLES,
                                   model.OCT_CYCLES)):
        for typ, cycle in enumerate(cycles):
            block = [[0] * 4, [0] * 3, [0] * 3]
            block[kind][typ] = 1
            block = tuple(map(tuple, block))
            for e in range(6):
                assert model.edge_weight(block, e) == \
                    sum(1 for slot in cycle if slot[3][0] == e)


def test_cycles_visit_every_arc_once():
    assert all(len(c) == 3 for c in model.TRI_CYCLES)
    assert all(len(c) == 4 for c in model.QUAD_CYCLES)
    assert all(len(c) == 8 for c in model.OCT_CYCLES)
    for cycles in (model.TRI_CYCLES, model.QUAD_CYCLES, model.OCT_CYCLES):
        for cycle in cycles:
            # consecutive slots share their crossing token
            for i, slot in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert slot[3] == nxt[2]
            assert len({(s[0], s[1]) for s in cycle}) == len(cycle)


def test_perm_helpers():
    for p in model.S4:
        assert perm_compose(p, model.perm_invert(p)) == (0, 1, 2, 3)
        assert model.perm_sign(p) in (-1, 1)
    assert model.perm_sign((0, 1, 2, 3)) == 1
    assert model.perm_sign((1, 0, 2, 3)) == -1
    assert model.perm_on_edge((1, 0, 3, 2), model.edge_index(2, 3)) == \
        model.edge_index(2, 3)
