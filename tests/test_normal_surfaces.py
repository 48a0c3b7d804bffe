import itertools
import random
import time
import tracemalloc
from operator import attrgetter
from types import SimpleNamespace

import pytest

from normalhst import model
from normalhst.enumeration import (brute_force_enumerate,
                                   enumerate_vertex_surfaces,
                                   octagon_augmentations)
from normalhst.library import (boundary_4_simplex, corpus,
                               doubled_tetrahedron, lens_l41, one_tet_sphere,
                               pseudomanifold_two_tet, rp3_two_tet,
                               single_tetrahedron, stellar_subdivision)
from normalhst.limits import ResourceCeilingError
from normalhst.normal_surfaces import (ALMOST_NORMAL_OCTAGON,
                                       ALMOST_NORMAL_TUBE, INADMISSIBLE,
                                       NORMAL, ODD_LABELS, ParityUnionFind,
                                       SurfaceError, SurfaceVector,
                                       TubeAnnotation, _stack_position,
                                       _tube_shared_edge, check_admissible,
                                       classify, euler_characteristic,
                                       matching_system, reconstruct_surface,
                                       vertex_link)
from normalhst.triangulation import compute_skeleton

from oracles import (UnionFind, bareiss_rank, dense_rows, edge_stack,
                     evaluate, explicit_reconstruction, quad_admissible,
                     surface_cells, tube_shared_edge)
from pairings import random_closed_pairing

LIBRARY = (single_tetrahedron, doubled_tetrahedron, boundary_4_simplex,
           one_tet_sphere, lens_l41, rp3_two_tet)


def _component_profile(summary):
    return sorted(zip(summary.component_chis, summary.component_closed))


def _oracle_profile(tri, vec):
    _pieces, _comp, chis, closed = surface_cells(tri, vec)
    return sorted(zip(chis, closed))


# ---------------------------------------------------------------------------
# Matching system
# ---------------------------------------------------------------------------

def test_matching_shapes():
    assert matching_system(single_tetrahedron()).rows == ()
    system = matching_system(doubled_tetrahedron())
    assert len(system.rows) == 12 and system.columns == 14
    system5 = matching_system(boundary_4_simplex())
    assert len(system5.rows) == 30 and system5.columns == 35


@pytest.mark.parametrize("tri", [f() for f in LIBRARY] + [
    random_closed_pairing(n, seed) for n in (1, 2, 3) for seed in range(8)])
def test_sparse_rows_match_arc_counts(tri):
    # Each coefficient is what one piece adds to the arc count on the
    # row's first side minus what it adds on the second.  Faces glued
    # within one tetrahedron meet some columns from both sides.
    system = matching_system(tri)
    n = tri.tetrahedron_count
    units = []
    for c in range(7 * n):
        flat = [0] * (7 * n)
        flat[c] = 1
        units.append([(tuple(flat[7 * t:7 * t + 4]),
                       tuple(flat[7 * t + 4:7 * t + 7]), (0, 0, 0))
                      for t in range(n)])
    for row, ((t, f), (t2, f2), v) in zip(system.rows, system.row_labels):
        columns = [c for c, _ in row]
        assert columns == sorted(set(columns)) and len(row) <= 4
        g = tri.gluings[t][f]
        assert (g.tet, g.face) == (t2, f2)
        coefficients = dict(row)
        for c, blocks in enumerate(units):
            want = model.arc_count(blocks[t], f, v) \
                - model.arc_count(blocks[t2], f2, g.image_of_vertex(v))
            assert coefficients.get(c, 0) == want
        assert 0 not in coefficients.values()
    # The shift test on the quad mask agrees with the oracle's 7-slices.
    rng = random.Random(n)
    for _ in range(200):
        density = rng.random()
        flat = [rng.randint(1, 3) if rng.random() < density else 0
                for _ in range(7 * n)]
        q = system.quads & sum(1 << c for c, x in enumerate(flat) if x)
        assert (not q & (q >> 1 | q >> 2)) == quad_admissible(flat)


def test_doubled_kernel_rank_via_bareiss():
    system = matching_system(doubled_tetrahedron())
    rank = bareiss_rank(dense_rows(system))
    # kernel dimension = unknowns - rank; the cone spans the kernel
    assert 14 - rank >= 1
    from normalhst.enumeration import rational_rank
    assert rational_rank(dense_rows(system)) == rank


def test_matching_solutions_satisfy_system():
    # Their flat coordinates also convert back to the same vector.
    for _, tri in corpus():
        system = matching_system(tri)
        for vec in brute_force_enumerate(tri, 4):
            flat = vec.normal_coordinates()
            assert all(x == 0 for x in evaluate(system, flat))
            assert SurfaceVector.from_normal_coordinates(flat) == vec


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def test_zero_vector_admissible():
    tri = doubled_tetrahedron()
    assert check_admissible(tri, SurfaceVector.zero(tri)).admissible


def test_vertex_links_admissible():
    for tri in (single_tetrahedron(), doubled_tetrahedron(),
                boundary_4_simplex()):
        sk = compute_skeleton(tri)
        for i in range(len(sk.vertex_orbits)):
            assert check_admissible(tri, vertex_link(tri, i, sk)).admissible


def test_two_quad_types_cites_quad_constraint():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "quad", 0): 1, (0, "quad", 1): 1})
    report = check_admissible(tri, vec)
    assert not report.admissible
    assert any(v.code == "quad constraint" for v in report.violations)


def test_dimension_mismatch_raises():
    tri = doubled_tetrahedron()
    with pytest.raises(SurfaceError, match="blocks"):
        check_admissible(tri, SurfaceVector.zero(single_tetrahedron()))


def test_negative_coordinate_flagged():
    tri = single_tetrahedron()
    vec = SurfaceVector(((( -1, 0, 0, 0), (0, 0, 0), (0, 0, 0)),))
    report = check_admissible(tri, vec)
    assert any(v.code == "nonnegative" for v in report.violations)


def test_octagon_needs_quad_free_tetrahedron():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "oct", 0): 1, (0, "quad", 1): 1})
    report = check_admissible(tri, vec)
    assert not report.admissible
    assert any(v.code == "octagon" for v in report.violations)


def test_matching_violation_on_closed_triangulation():
    # a lone triangle in one tetrahedron of the doubled pair cannot match
    tri = doubled_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "tri", 0): 1})
    report = check_admissible(tri, vec)
    assert any(v.code == "matching" for v in report.violations)


# ---------------------------------------------------------------------------
# Vertex links and chi
# ---------------------------------------------------------------------------

def test_pentachoron_link_is_four_triangles():
    tri = boundary_4_simplex()
    sk = compute_skeleton(tri)
    link = vertex_link(tri, 0, sk)
    assert link.total_weight() == 4
    assert euler_characteristic(tri, link, sk) == 2


def test_single_tet_link_is_disk():
    tri = single_tetrahedron()
    link = vertex_link(tri, 0)
    assert link.total_weight() == 1
    assert euler_characteristic(tri, link) == 1


def test_doubled_link_size_matches_orbit():
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    for i, orbit in enumerate(sk.vertex_orbits):
        link = vertex_link(tri, i, sk)
        assert link.total_weight() == len(orbit) == 2


def test_zero_vector_chi():
    tri = doubled_tetrahedron()
    assert euler_characteristic(tri, SurfaceVector.zero(tri)) == 0


def test_chi_rejects_inadmissible():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "quad", 0): 1, (0, "quad", 1): 1})
    with pytest.raises(SurfaceError, match="inadmissible"):
        euler_characteristic(tri, vec)


def test_reconstruction_rejects_inadmissible():
    # Without a report the vector is checked; a report handed in is
    # used as it is.
    tri = single_tetrahedron()
    bad = SurfaceVector.build(tri, {(0, "quad", 0): 1, (0, "quad", 1): 1})
    with pytest.raises(SurfaceError, match="inadmissible"):
        reconstruct_surface(tri, bad)
    with pytest.raises(SurfaceError, match="inadmissible"):
        reconstruct_surface(tri, bad, report=check_admissible(tri, bad))
    link = vertex_link(tri, 0)
    assert reconstruct_surface(
        tri, link, report=check_admissible(tri, link)) == \
        reconstruct_surface(tri, link)


def test_chi_two_paths_small_bound():
    for tri in (single_tetrahedron(), doubled_tetrahedron()):
        sk = compute_skeleton(tri)
        for vec in brute_force_enumerate(tri, 4):
            chi = euler_characteristic(tri, vec, sk)
            summary = reconstruct_surface(tri, vec, sk)
            assert chi == sum(summary.component_chis)
            assert chi == summary.euler_characteristic


def test_chi_additivity_on_disjoint_supports():
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    u = vertex_link(tri, 0, sk)
    v = vertex_link(tri, 1, sk)
    s = u.add(v)
    assert euler_characteristic(tri, s, sk) == \
        euler_characteristic(tri, u, sk) + euler_characteristic(tri, v, sk)
    wu = reconstruct_surface(tri, u, sk).edge_weights
    wv = reconstruct_surface(tri, v, sk).edge_weights
    ws = reconstruct_surface(tri, s, sk).edge_weights
    assert ws == tuple(a + b for a, b in zip(wu, wv))


# ---------------------------------------------------------------------------
# Reconstruction against the cell-complex oracle
# ---------------------------------------------------------------------------

def test_reconstruction_matches_oracle_doubled():
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    for vec in brute_force_enumerate(tri, 4):
        summary = reconstruct_surface(tri, vec, sk)
        assert _component_profile(summary) == _oracle_profile(tri, vec)


def test_reconstruction_matches_oracle_self_glued():
    for tri in (one_tet_sphere(), lens_l41()):
        sk = compute_skeleton(tri)
        vectors = brute_force_enumerate(tri, 6)
        vectors += octagon_augmentations(tri, brute_force_enumerate(tri, 4))
        for vec in vectors:
            summary = reconstruct_surface(tri, vec, sk)
            assert _component_profile(summary) == _oracle_profile(tri, vec)


def test_reconstruction_matches_oracle_tubes():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "tri", 0): 2},
                              tube=TubeAnnotation(0, ("tri", 0, 0),
                                                  ("tri", 0, 1)))
    summary = reconstruct_surface(tri, vec)
    assert _component_profile(summary) == _oracle_profile(tri, vec)
    assert summary.euler_characteristic == 0      # an annulus


def test_vertex_links_connected_spheres():
    for tri in (doubled_tetrahedron(), boundary_4_simplex(),
                one_tet_sphere(), lens_l41()):
        sk = compute_skeleton(tri)
        for i in range(len(sk.vertex_orbits)):
            summary = reconstruct_surface(tri, vertex_link(tri, i, sk),
                                          sk)
            assert summary.component_count == 1
            assert summary.euler_characteristic == 2
            assert summary.component_closed == (True,)
            assert summary.orientable is True
            assert summary.is_sphere_component == (True,)


def test_two_disjoint_links_two_components():
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    s = vertex_link(tri, 0, sk).add(vertex_link(tri, 1, sk))
    summary = reconstruct_surface(tri, s, sk)
    assert summary.component_count == 2
    assert summary.component_chis == (2, 2)


def test_klein_bottle_in_lens_space():
    # L(4,1) contains a one-sided Klein bottle; it shows up as the
    # closed quad surface with chi 0 and must be reported non-orientable.
    tri = lens_l41()
    vec = SurfaceVector.build(tri, {(0, "quad", 1): 1})
    assert check_admissible(tri, vec).admissible
    summary = reconstruct_surface(tri, vec)
    assert summary.component_count == 1
    assert summary.euler_characteristic == 0
    assert summary.component_closed == (True,)
    assert summary.orientable is False


def test_closed_surfaces_in_sphere_triangulations_orientable():
    # no closed non-orientable surface embeds in the 3-sphere, so every
    # closed component found in an S^3 triangulation must be orientable
    for build in (doubled_tetrahedron, one_tet_sphere, boundary_4_simplex):
        tri = build()
        sk = compute_skeleton(tri)
        for vec in brute_force_enumerate(tri, 5):
            summary = reconstruct_surface(tri, vec, sk)
            for closed, orientable in zip(summary.component_closed,
                                          summary.component_orientable):
                assert not closed or orientable


def test_klein_bottle_multiples_give_double_covers():
    # k parallel copies of a one-sided Klein bottle peel off tori: 2K is
    # the boundary torus of a twisted I-bundle, 3K a torus plus the core
    tri = lens_l41()
    klein = SurfaceVector.build(tri, {(0, "quad", 1): 1})
    expected = {
        1: [(0, False)],
        2: [(0, True)],
        3: [(0, False), (0, True)],
        4: [(0, True), (0, True)],
    }
    for k, want in expected.items():
        summary = reconstruct_surface(tri, klein.scale(k))
        got = sorted(zip(summary.component_chis,
                         summary.component_orientable))
        assert got == sorted(want)
        assert all(summary.component_closed)


def test_projective_plane_and_its_double():
    # a one-sided projective plane: odd chi forces non-orientable; its
    # double is the 2-sphere boundary of a twisted I-bundle
    tri = rp3_two_tet()
    rp2 = SurfaceVector.build(tri, {(0, "quad", 2): 1, (1, "quad", 1): 1})
    assert check_admissible(tri, rp2).admissible
    one = reconstruct_surface(tri, rp2)
    assert one.component_chis == (1,)
    assert one.component_closed == (True,)
    assert one.orientable is False
    two = reconstruct_surface(tri, rp2.scale(2))
    assert two.component_chis == (2,)
    assert two.orientable is True
    three = reconstruct_surface(tri, rp2.scale(3))
    assert sorted(zip(three.component_chis,
                      three.component_orientable)) == [(1, False), (2, True)]
    for k in (1, 2, 3):
        vec = rp2.scale(k)
        assert _component_profile(
            reconstruct_surface(tri, vec)) == \
            _oracle_profile(tri, vec)


def test_scaled_combinations_chi_two_path():
    # parallel copies well beyond the brute-force bound: chi by counting
    # must still match chi by reconstruction, and both must be linear
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    link = vertex_link(tri, 0, sk)
    quad = SurfaceVector.build(tri, {(0, "quad", 0): 1, (1, "quad", 0): 1})
    assert check_admissible(tri, quad).admissible
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            vec = link.scale(a).add(quad.scale(b))
            chi = euler_characteristic(tri, vec, sk)
            summary = reconstruct_surface(tri, vec, sk)
            assert chi == sum(summary.component_chis)
            assert chi == a * 2 + b * euler_characteristic(tri, quad, sk)
            assert _component_profile(summary) == _oracle_profile(tri, vec)


def test_empty_surface_orientability_unknown():
    tri = single_tetrahedron()
    summary = reconstruct_surface(tri, SurfaceVector.zero(tri))
    assert summary.orientable is None
    assert summary.component_count == 0


def test_edge_weight_assertion_and_values():
    tri = boundary_4_simplex()
    sk = compute_skeleton(tri)
    link = vertex_link(tri, 0, sk)
    summary = reconstruct_surface(tri, link, sk)
    # the link crosses exactly the four edges at its vertex, once each
    assert sorted(summary.edge_weights) == [0] * 6 + [1] * 4


def test_edge_weight_is_edge_stack_length():
    # reconstruction compares orbit members by edge_weight, the length
    # of the stack it walks on the first member
    rng = random.Random(2026)
    blocks = [((0, 0, 0, 0), (0, 0, 0), (0, 0, 0))]
    for _ in range(300):
        oct_ = [0, 0, 0]
        oct_[rng.randrange(3)] = rng.randint(0, 3)
        blocks.append((tuple(rng.randint(0, 5) for _ in range(4)),
                       tuple(rng.randint(0, 5) for _ in range(3)),
                       tuple(oct_)))
    assert sum(1 for block in blocks if any(block[2])) > 200
    for block in blocks:
        for e in range(6):
            assert model.edge_weight(block, e) == len(edge_stack(block, e))


def test_octagon_arc_incidence_cross_check():
    # an octagon contributes exactly two arcs to each face, matching a
    # single length-8 embedded loop
    from normalhst.curve_patterns import CurvePattern, decompose_pattern
    for q in range(3):
        block = ((0, 0, 0, 0), (0, 0, 0),
                 tuple(1 if i == q else 0 for i in range(3)))
        for f in model.FACES:
            total = sum(model.arc_count(block, f, v)
                        for v in model.FACE_VERTICES[f])
            assert total == 2
        dec = decompose_pattern(CurvePattern.from_block(block))
        assert dec.lengths == (8,)


# ---------------------------------------------------------------------------
# Parity union-find
# ---------------------------------------------------------------------------

def _brute_force_colourings(size, relations):
    """Every parity assignment satisfying all (x, y, odd) relations."""
    return [bits for bits in itertools.product((0, 1), repeat=size)
            if all(bits[x] ^ bits[y] == odd for x, y, odd in relations)]


def _bit(label, functional):
    """The parity of the label's bits selected by ``functional``."""
    return bin(label & functional).count("1") % 2


def test_parity_union_find_against_brute_force():
    # 2-bit labels: each of the three nonzero functionals (bit 0, bit 1,
    # their XOR) turns the relations into a parity problem, and a class
    # has a 2-colouring for it exactly when no label of its cycle span
    # reads odd.  The three answers pin the span down.
    rng = random.Random(20261018)
    for _ in range(400):
        size = rng.randint(1, 9)
        relations = [(rng.randrange(size), rng.randrange(size),
                      rng.randint(0, 3))
                     for _ in range(rng.randint(0, 2 * size))]
        uf = ParityUnionFind(size)
        for x, y, label in relations:
            uf.union(x, y, label)

        classes = UnionFind()
        for x in range(size):
            classes.add(x)
        for x, y, _ in relations:
            classes.union(x, y)
        expected = sorted(sorted(o) for o in classes.orbits())
        labels, roots = uf.classes()
        assert [[x for x in range(size) if labels[x] == c]
                for c in range(len(roots))] == expected
        assert all(uf.find(x) == roots[labels[x]] for x in range(size))

        for orbit in expected:
            root = uf.find(orbit[0])
            span = uf.span[root]
            assert span & 1
            for functional in (1, 2, 3):
                inside = [(x, y, _bit(label, functional))
                          for x, y, label in relations if x in orbit]
                colourings = _brute_force_colourings(size, inside)
                assert any(span >> label & 1 and _bit(label, functional)
                           for label in range(4)) == (not colourings)
                if functional == 1:
                    assert bool(span & ODD_LABELS) == (not colourings)
                for bits in colourings:
                    for x in orbit:
                        uf.find(x)
                        assert _bit(uf.parity[x], functional) == \
                            bits[x] ^ bits[root]
        odd = [(x, y, label & 1) for x, y, label in relations]
        assert any(uf.span[uf.find(x)] & ODD_LABELS
                   for x in range(size)) == \
            (not _brute_force_colourings(size, odd))


# ---------------------------------------------------------------------------
# Runs of parallel pieces against the per-piece oracle
# ---------------------------------------------------------------------------

# The fields of a reconstruction that answer for the surface; the
# per-piece oracle has no runs.
_ANSWER = attrgetter("component_chis", "component_closed",
                     "component_orientable", "edge_weights")


def _assert_matches_oracle(tri, vec, sk=None):
    rebuilt = reconstruct_surface(tri, vec, sk)
    assert _ANSWER(rebuilt) == _ANSWER(explicit_reconstruction(tri, vec, sk))
    return rebuilt


def _tube_vectors(tri, vec):
    """Every admissible tube on two pieces adjacent in an edge stack."""
    out = []
    for t, block in enumerate(vec.tets):
        seen = set()
        for e in range(6):
            stack = edge_stack(block, e)
            for a, b in zip(stack, stack[1:]):
                pair = (a[:3], b[:3])
                if a[0] == "oct" or b[0] == "oct" or pair in seen:
                    continue
                seen.add(pair)
                tubed = SurfaceVector(vec.tets, TubeAnnotation(t, *pair))
                if check_admissible(tri, tubed).admissible:
                    out.append(tubed)
    return out


def test_runs_match_oracle_on_library_vectors():
    # brute-force vectors, vertex surfaces and their octagon
    # augmentations, each also carried on k - 1 extra copies of the
    # normal surface under it, as the scaled benchmark builds them
    for build in LIBRARY + (pseudomanifold_two_tet,):
        tri = build()
        sk = compute_skeleton(tri)
        bound = 4 if tri.tetrahedron_count < 5 else 2
        normal = brute_force_enumerate(tri, bound) \
            + enumerate_vertex_surfaces(tri)
        for vec in normal:
            _assert_matches_oracle(tri, vec, sk)
        for aug in octagon_augmentations(tri, normal):
            base = SurfaceVector(tuple((t, q, (0, 0, 0))
                                       for t, q, _ in aug.tets))
            for k in (1, 2, 5):
                _assert_matches_oracle(tri, base.scale(k - 1).add(aug), sk)


def test_runs_match_oracle_on_tubes():
    count = 0
    for build in LIBRARY:
        tri = build()
        sk = compute_skeleton(tri)
        bound = 3 if tri.tetrahedron_count < 5 else 1
        for vec in brute_force_enumerate(tri, bound) \
                + enumerate_vertex_surfaces(tri):
            for k in (1, 2, 3, 5):
                for tubed in _tube_vectors(tri, vec.scale(k)):
                    _assert_matches_oracle(tri, tubed, sk)
                    count += 1
    assert count > 1000


def test_tubes_within_one_component_match_oracle():
    # A tube whose two pieces already lie in one component closes a
    # cycle through the tube, so the tube's orientation rule decides
    # orientability.  Such a tube keeps the component count.
    count = 0
    for build in (rp3_two_tet, one_tet_sphere, lens_l41):
        tri = build()
        sk = compute_skeleton(tri)
        for vec in brute_force_enumerate(tri, 2 * tri.tetrahedron_count):
            if any(sum(tri_c) + sum(quad_c) > 2
                   for tri_c, quad_c, _ in vec.tets):
                continue
            components = explicit_reconstruction(tri, vec, sk).component_count
            for tubed in _tube_vectors(tri, vec):
                if explicit_reconstruction(tri, tubed, sk).component_count \
                        == components:
                    _assert_matches_oracle(tri, tubed, sk)
                    count += 1
    assert count > 10


def _tube_pieces(block):
    """Every triangle and quad copy of a block, as a tube addresses it."""
    return [(kind, typ, copy)
            for kind, counts in (("tri", block[0]), ("quad", block[1]))
            for typ, count in enumerate(counts) for copy in range(count)]


def test_stack_positions_match_edge_stacks():
    # two quad types and octagons too, which no admissible tube meets
    rng = random.Random(2027)
    for _ in range(300):
        block = (tuple(rng.randint(0, 3) for _ in range(4)),
                 tuple(rng.randint(0, 3) for _ in range(3)),
                 tuple(rng.randint(0, 2) for _ in range(3)))
        for e in range(6):
            stack = [entry[:3] for entry in edge_stack(block, e)]
            for piece in _tube_pieces(block):
                want = stack.index(piece) if piece in stack else None
                assert _stack_position(block, e, piece) == want


def test_tube_adjacency_matches_edge_stack_oracle():
    # every pair of pieces in the tube's tetrahedron of the generated
    # tube vectors, adjacent or not
    blocks = set()
    for build in LIBRARY:
        tri = build()
        for vec in brute_force_enumerate(tri, 3) \
                + enumerate_vertex_surfaces(tri):
            for k in (1, 2, 3):
                for tubed in _tube_vectors(tri, vec.scale(k)):
                    blocks.add(tubed.tets[tubed.tube.tet])
    checked = adjacent = 0
    for block in blocks:
        pieces = _tube_pieces(block)
        for a in pieces:
            for b in pieces:
                if a != b:
                    vec = SurfaceVector((block,), TubeAnnotation(0, a, b))
                    want = tube_shared_edge(vec)
                    assert _tube_shared_edge(vec) == want
                    checked += 1
                    adjacent += want is not None
    assert 1000 < adjacent < checked


def test_tube_adjacency_does_not_grow_with_copies():
    # k copies of a vertex link, two neighbouring copies tubed together
    tri = doubled_tetrahedron()
    link = vertex_link(tri, 0).scale(10 ** 6)
    t, v = compute_skeleton(tri).vertex_orbits[0][0]
    vec = SurfaceVector(link.tets,
                        TubeAnnotation(t, ("tri", v, 0), ("tri", v, 1)))
    tracemalloc.start()
    try:
        assert classify(tri, vec) == ALMOST_NORMAL_TUBE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_build_is_one_pass():
    # 3 * 10^4 tetrahedra times 3000 entries would be 9 * 10^7 steps if
    # every tetrahedron rescanned the coordinates
    n = 3 * 10 ** 4
    tri = SimpleNamespace(tetrahedron_count=n)
    coords = {(t, "tri", t % 4): t for t in range(0, n, 10)}
    coords[(n, "tri", 0)] = 7       # outside: ignored
    start = time.perf_counter()
    vec = SurfaceVector.build(tri, coords)
    assert time.perf_counter() - start < 2
    assert vec.tets[30] == ((0, 0, 30, 0), (0, 0, 0), (0, 0, 0))
    assert vec.total_weight() == sum(range(0, n, 10))
    with pytest.raises(SurfaceError, match="unknown piece kind 'hex'"):
        SurfaceVector.build(tri, {(3, "hex", 0): 1})


def test_runs_match_oracle_on_one_sided_multiples():
    klein_tri = lens_l41()
    klein = SurfaceVector.build(klein_tri, {(0, "quad", 1): 1})
    rp2_tri = rp3_two_tet()
    rp2 = SurfaceVector.build(rp2_tri, {(0, "quad", 2): 1, (1, "quad", 1): 1})
    for tri, vec in ((klein_tri, klein), (rp2_tri, rp2)):
        for k in range(1, 10):
            summary = _assert_matches_oracle(tri, vec.scale(k))
            # k // 2 doubles, orientable, then for odd k the surface itself
            assert summary.component_count == k // 2 + k % 2
            assert summary.component_orientable == \
                (True,) * (k // 2) + (False,) * (k % 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_runs_match_oracle_on_random_pairings(n):
    # vertex surfaces times k, and sums of two, whose arc stacks need
    # not line up, so their blocks are cut into more runs
    count = cut = 0
    for seed in range(12):
        tri = random_closed_pairing(n, 7000 + 100 * n + seed)
        sk = compute_skeleton(tri)
        vertex = enumerate_vertex_surfaces(tri)
        for vec in vertex:
            for k in (1, 2, 3, 7):
                _assert_matches_oracle(tri, vec.scale(k), sk)
                count += 1
        for i, a in enumerate(vertex):
            for b in vertex[i + 1:]:
                vec = a.add(b.scale(2))
                if check_admissible(tri, vec).admissible:
                    runs = _assert_matches_oracle(tri, vec, sk).run_count
                    cut += runs > sum(1 for block in vec.tets
                                      for part in block for x in part if x)
    assert count >= 40 and cut


def test_runs_match_oracle_on_link_quad_sums():
    for tri, quad in (
            (doubled_tetrahedron(), {(0, "quad", 0): 1, (1, "quad", 0): 1}),
            (lens_l41(), {(0, "quad", 1): 1}),
            (rp3_two_tet(), {(0, "quad", 2): 1, (1, "quad", 1): 1})):
        sk = compute_skeleton(tri)
        quad = SurfaceVector.build(tri, quad)
        for i in range(len(sk.vertex_orbits)):
            link = vertex_link(tri, i, sk)
            for a in range(5):
                for b in range(5):
                    _assert_matches_oracle(
                        tri, link.scale(a).add(quad.scale(b)), sk)


CLOSED_MANIFOLDS = (doubled_tetrahedron, boundary_4_simplex, one_tet_sphere,
                    lens_l41, rp3_two_tet)


def _link_sum(tri, sk):
    links = [vertex_link(tri, i, sk) for i in range(len(sk.vertex_orbits))]
    total = links[0]
    for link in links[1:]:
        total = total.add(link)
    return total, links


def test_runs_match_oracle_on_stellar_links():
    # Seeded 1-4 moves on the closed manifolds, up to about 300
    # tetrahedra: the sum of all vertex links and up to four single
    # links, each once, twice and three times.
    for build in CLOSED_MANIFOLDS:
        for moves in (1, 7, 40, 99):
            tri = stellar_subdivision(build(), moves, moves)
            sk = compute_skeleton(tri)
            total, links = _link_sum(tri, sk)
            picked = random.Random(moves).sample(links, min(4, len(links)))
            for vec in (total, *picked):
                for k in (1, 2, 3):
                    summary = _assert_matches_oracle(tri, vec.scale(k),
                                                     sk)
                    assert all(summary.is_sphere_component)


def test_runs_match_oracle_on_stellar_link_quad_sums():
    # Every quad-carrying vertex surface of one 1-4 move on each closed
    # manifold, plus the sum of all links or one link, in several
    # multiples: the quads' blocks meet the links' triangles in stacks
    # of more than one block.
    found = 0
    for build in CLOSED_MANIFOLDS:
        tri = stellar_subdivision(build(), 1, 1)
        sk = compute_skeleton(tri)
        total, links = _link_sum(tri, sk)
        for quad in enumerate_vertex_surfaces(tri):
            if not any(any(q) for _, q, _ in quad.tets):
                continue
            found += 1
            for link in (total, links[found % len(links)]):
                for a, b in ((1, 1), (2, 1), (1, 3)):
                    _assert_matches_oracle(
                        tri, link.scale(a).add(quad.scale(b)), sk)
    assert found >= 5


def test_run_count_does_not_grow_with_scale():
    for build in LIBRARY:
        tri = build()
        sk = compute_skeleton(tri)
        for vec in enumerate_vertex_surfaces(tri):
            runs = reconstruct_surface(tri, vec, sk).run_count
            assert runs <= vec.total_weight()
            for k in (2, 3, 10, 997, 10 ** 6):
                assert reconstruct_surface(tri, vec.scale(k),
                                           sk).run_count == runs


def test_huge_multiple_of_a_link():
    tri = lens_l41()
    k = 10 ** 5
    summary = reconstruct_surface(tri, vertex_link(tri, 0).scale(k))
    assert summary.component_count == k
    assert summary.euler_characteristic == 2 * k
    assert summary.component_chis == (2,) * k
    assert summary.is_sphere_component == (True,) * k
    assert summary.orientable is True


def test_surface_cells_ceiling(monkeypatch):
    tri = lens_l41()
    vec = vertex_link(tri, 0).scale(50)
    assert reconstruct_surface(tri, vec).run_count == 4
    monkeypatch.setenv("NORMALHST_CEILING", "54")
    assert reconstruct_surface(tri, vec).component_count == 50
    monkeypatch.setenv("NORMALHST_CEILING", "53")
    with pytest.raises(ResourceCeilingError, match="surface_cells"):
        reconstruct_surface(tri, vec)
    # 16 blocks cut into 53 runs: refused while the cuts are pushed
    tri = random_closed_pairing(4, 9)
    vec = SurfaceVector((((3, 2, 3, 2), (0, 3, 0), (0, 0, 0)),
                         ((0, 0, 4, 4), (0, 4, 0), (0, 0, 0)),
                         ((6, 2, 0, 4), (2, 0, 0), (0, 0, 0)),
                         ((6, 4, 2, 0), (0, 2, 0), (0, 0, 0))))
    monkeypatch.delenv("NORMALHST_CEILING")
    assert reconstruct_surface(tri, vec).run_count == 53
    monkeypatch.setenv("NORMALHST_CEILING", "52")
    with pytest.raises(ResourceCeilingError, match="cuts more than 52 runs"):
        reconstruct_surface(tri, vec)


# ---------------------------------------------------------------------------
# Tubes and classification
# ---------------------------------------------------------------------------

def test_tube_between_different_types():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(
        tri, {(0, "tri", 0): 1, (0, "quad", 1): 1},
        tube=TubeAnnotation(0, ("tri", 0, 0), ("quad", 1, 0)))
    assert classify(tri, vec) == ALMOST_NORMAL_TUBE
    summary = reconstruct_surface(tri, vec)
    assert summary.euler_characteristic == 0
    assert _component_profile(summary) == _oracle_profile(tri, vec)


def test_tube_nonadjacent_rejected():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "tri", 0): 3},
                              tube=TubeAnnotation(0, ("tri", 0, 0),
                                                  ("tri", 0, 2)))
    assert classify(tri, vec) == INADMISSIBLE
    report = check_admissible(tri, vec)
    assert any("adjacent" in v.message for v in report.violations)


def test_tube_missing_piece_rejected():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "tri", 0): 1},
                              tube=TubeAnnotation(0, ("tri", 0, 0),
                                                  ("tri", 1, 0)))
    report = check_admissible(tri, vec)
    assert any(v.code == "tube" for v in report.violations)


def test_mode_follows_the_exceptional_pieces():
    # Criterion 4's vectors, the generated tubes, and each of them with
    # one more octagon or a non-adjacent tube: a vector is checked as
    # almost normal exactly when it has an octagon or a tube.
    vectors = []
    for _, tri in corpus():
        vecs = brute_force_enumerate(tri, 6)
        vecs += octagon_augmentations(tri, brute_force_enumerate(tri, 4))
        for vec in brute_force_enumerate(tri, 3):
            vecs += _tube_vectors(tri, vec.scale(2))
        for vec in vecs:
            vectors.append((tri, vec))
            tets = list(vec.tets)
            tri_c, quad_c, oct_c = tets[-1]
            tets[-1] = (tri_c, quad_c, (oct_c[0] + 1,) + oct_c[1:])
            vectors.append((tri, SurfaceVector(tuple(tets), vec.tube)))
            if vec.tube is None and tri_c[0] >= 3:
                vectors.append((tri, SurfaceVector(vec.tets, TubeAnnotation(
                    len(tets) - 1, ("tri", 0, 0), ("tri", 0, 2)))))
    kinds = set()
    for tri, vec in vectors:
        report = check_admissible(tri, vec)
        exceptional = vec.tube is not None or any(
            any(oct_c) for _, _, oct_c in vec.tets)
        assert (report.mode == "almost_normal") == exceptional
        kinds.add((report.mode, report.admissible))
    assert kinds == {("normal", True), ("almost_normal", True),
                     ("almost_normal", False)}


def test_tube_through_double_covers():
    # tubing the two sheets of a double cover creates a cycle through
    # the tube, so the orientation bookkeeping of the tube matters; the
    # results bound, hence are 2-sided, hence orientable in these
    # orientable ambient manifolds
    lens = lens_l41()
    torus_plus = SurfaceVector.build(
        lens, {(0, "quad", 1): 2},
        tube=TubeAnnotation(0, ("quad", 1, 0), ("quad", 1, 1)))
    summary = reconstruct_surface(lens, torus_plus)
    assert summary.euler_characteristic == -2
    assert summary.component_count == 1
    assert summary.orientable is True
    assert _component_profile(summary) == _oracle_profile(lens, torus_plus)

    rp3 = rp3_two_tet()
    sphere_plus = SurfaceVector.build(
        rp3, {(0, "quad", 2): 2, (1, "quad", 1): 2},
        tube=TubeAnnotation(0, ("quad", 2, 0), ("quad", 2, 1)))
    summary = reconstruct_surface(rp3, sphere_plus)
    assert summary.euler_characteristic == 0
    assert summary.component_count == 1
    assert summary.orientable is True
    assert _component_profile(summary) == _oracle_profile(rp3, sphere_plus)


def test_classify_examples():
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)
    assert classify(tri, vertex_link(tri, 0, sk)) == NORMAL

    # vertex link plus one octagon: decided by admissibility; on the
    # doubled tetrahedron every placement breaks matching
    link = vertex_link(tri, 0, sk)
    for t in range(2):
        for q in range(3):
            blocks = list(link.tets)
            tri_c, quad_c, _ = blocks[t]
            blocks[t] = (tri_c, quad_c, tuple(1 if i == q else 0
                                              for i in range(3)))
            assert classify(tri, SurfaceVector(tuple(blocks))) == INADMISSIBLE

    # on the single tetrahedron (no matching) the same augmentation works
    t1 = single_tetrahedron()
    link1 = vertex_link(t1, 0)
    blocks = list(link1.tets)
    tri_c, quad_c, _ = blocks[0]
    blocks[0] = (tri_c, quad_c, (1, 0, 0))
    assert classify(t1, SurfaceVector(tuple(blocks))) == ALMOST_NORMAL_OCTAGON


def test_two_octagons_inadmissible():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "oct", 0): 2})
    assert classify(tri, vec) == INADMISSIBLE
    vec2 = SurfaceVector.build(tri, {(0, "oct", 0): 1, (0, "oct", 1): 1})
    assert classify(tri, vec2) == INADMISSIBLE


def test_tube_with_octagon_inadmissible():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "oct", 0): 1, (0, "tri", 0): 2},
                              tube=TubeAnnotation(0, ("tri", 0, 0),
                                                  ("tri", 0, 1)))
    assert classify(tri, vec) == INADMISSIBLE


def test_json_round_trip():
    tri = single_tetrahedron()
    vec = SurfaceVector.build(tri, {(0, "tri", 1): 2, (0, "quad", 2): 1},
                              tube=TubeAnnotation(0, ("tri", 1, 0),
                                                  ("tri", 1, 1)))
    data = vec.to_json_dict()
    assert SurfaceVector.from_json_dict(data) == vec
    assert data["tets"][0]["tri"] == [0, 2, 0, 0]
