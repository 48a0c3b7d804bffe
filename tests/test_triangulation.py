import itertools
import random

import pytest

from normalhst import model, triangulation
from normalhst.library import (boundary_4_simplex, doubled_tetrahedron,
                               lens_l41, one_tet_sphere,
                               pseudomanifold_two_tet, rp3_two_tet,
                               single_tetrahedron, stellar_subdivision)
from normalhst.triangulation import (ParseError, Triangulation,
                                     TriangulationError, compute_skeleton,
                                     parse_triangulation, validate_manifold)

from oracles import (UnionFind, boundary_faces, explicit_skeleton,
                     image_of_edge, link_chi, orientable_by_propagation,
                     perm_compose)
from pairings import random_closed_pairing, random_pairing

LIBRARY = (single_tetrahedron, doubled_tetrahedron, boundary_4_simplex,
           one_tet_sphere, lens_l41, rp3_two_tet, pseudomanifold_two_tet)
# 100 seeded closed pairings for each tetrahedron count 1..6.
PAIRINGS = [(n, seed) for n in range(1, 7) for seed in range(100)]


DOUBLED_TEXT = doubled_tetrahedron().to_text()


def _oracle_inputs():
    yield from (build() for build in LIBRARY)
    yield from (random_closed_pairing(n, seed) for n, seed in PAIRINGS)


def _bounded_pairings():
    """Seeded pairings with unglued faces, up to 300 tetrahedra."""
    for n in range(1, 7):
        for seed in range(40):
            yield random_pairing(n, seed, 2 * (seed % (2 * n) + 1))
    for n, boundary in ((50, 2), (120, 10), (300, 40)):
        yield random_pairing(n, n, boundary)


def _stellar_subdivisions():
    """Seeded 1-4 moves on the library, up to about 300 tetrahedra."""
    for build in LIBRARY:
        for moves in (1, 7, 40, 99):
            yield stellar_subdivision(build(), moves, moves)


def test_parse_single_unglued():
    tri = parse_triangulation("1\n- - - -\n")
    assert tri.tetrahedron_count == 1
    assert not tri.is_closed()
    assert len(boundary_faces(tri)) == 4


def test_parse_doubled_identity():
    text = "2\n1:0:123 1:1:023 1:2:013 1:3:012\n0:0:123 0:1:023 0:2:013 0:3:012\n"
    tri = parse_triangulation(text)
    assert tri == doubled_tetrahedron()
    assert tri.is_closed()


def test_parse_comments_and_roundtrip():
    tri = boundary_4_simplex()
    text = "# the boundary of the 4-simplex\n" + tri.to_text()
    assert parse_triangulation(text) == tri


def test_self_glued_face_rejected():
    with pytest.raises(ParseError, match="self-glued face"):
        parse_triangulation("1\n0:0:123 - - -\n")


def test_non_involutive_rejected():
    # tet 0 face 0 -> tet 1 face 0, but tet 1 face 0 points elsewhere
    text = "2\n1:0:123 - - -\n1:1:023 - - -\n"
    with pytest.raises(ParseError, match="non-involutive"):
        parse_triangulation(text)


def test_mismatched_inverse_rejected():
    # both directions present but the corner maps are not inverse
    text = "2\n1:0:123 - - -\n0:0:132 - - -\n"
    with pytest.raises(ParseError, match="non-involutive"):
        parse_triangulation(text)


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_triangulation("1\n5:0:123 - - -\n")


def test_corner_map_not_bijection():
    with pytest.raises(ParseError, match="bijection"):
        parse_triangulation("2\n1:0:122 - - -\n0:0:123 - - -\n")


def test_syntax_error_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_triangulation("1\nnot a gluing line at all\n")
    with pytest.raises(ParseError, match="expected tetrahedron count"):
        parse_triangulation("zero\n- - - -\n")


def test_involutivity_exhaustive():
    for tri in (doubled_tetrahedron(), boundary_4_simplex(), lens_l41()):
        for t in range(tri.tetrahedron_count):
            for f in range(4):
                g = tri.gluings[t][f]
                if g is None:
                    continue
                back = tri.gluings[g.tet][g.face]
                assert (back.tet, back.face) == (t, f)
                assert perm_compose(back.perm, g.perm) == (0, 1, 2, 3)


def test_skeleton_counts_single():
    sk = compute_skeleton(single_tetrahedron())
    assert sk.counts == (4, 6, 4)


def test_skeleton_counts_pentachoron():
    tri = boundary_4_simplex()
    sk = compute_skeleton(tri)
    assert sk.counts == (5, 10, 10)
    assert sk.euler_alternating_sum(5) == 0


def test_doubled_orbits_against_explicit_union_find():
    # The doubled tetrahedron's identifications, written out literally:
    # every gluing is the identity on corners, so cell (0, x) ~ (1, x).
    tri = doubled_tetrahedron()
    sk = compute_skeleton(tri)

    vertices = UnionFind()
    edges = UnionFind()
    faces = UnionFind()
    for v in range(4):
        for t in (0, 1):
            vertices.add((t, v))
        vertices.union((0, v), (1, v))
    for e in range(6):
        for t in (0, 1):
            edges.add((t, e))
        edges.union((0, e), (1, e))
    for f in range(4):
        for t in (0, 1):
            faces.add((t, f))
        faces.union((0, f), (1, f))

    assert len(sk.vertex_orbits) == vertices.orbit_count() == 4
    assert len(sk.edge_orbits) == edges.orbit_count() == 6
    assert len(sk.face_orbits) == faces.orbit_count() == 4
    assert {frozenset(o) for o in sk.vertex_orbits} == \
        {frozenset(o) for o in vertices.orbits()}
    assert sk.euler_alternating_sum(2) == 0


def test_orbit_soundness():
    for tri in (doubled_tetrahedron(), boundary_4_simplex(), lens_l41(),
                pseudomanifold_two_tet()):
        sk = compute_skeleton(tri)
        v_orbit = {cell: i for i, orb in enumerate(sk.vertex_orbits)
                   for cell in orb}
        e_orbit = {cell: i for i, orb in enumerate(sk.edge_orbits)
                   for cell in orb}
        f_orbit = {cell: i for i, orb in enumerate(sk.face_orbits)
                   for cell in orb}
        for t in range(tri.tetrahedron_count):
            for f in range(4):
                g = tri.gluings[t][f]
                if g is None:
                    continue
                assert f_orbit[(t, f)] == f_orbit[(g.tet, g.face)]
                for v in model.FACE_VERTICES[f]:
                    assert v_orbit[(t, v)] == \
                        v_orbit[(g.tet, g.image_of_vertex(v))]
                for e in model.FACE_EDGES[f]:
                    assert e_orbit[(t, e)] == \
                        e_orbit[(g.tet, image_of_edge(g, e))]


def test_closed_triangulations_have_zero_alternating_sum():
    for tri in (doubled_tetrahedron(), boundary_4_simplex(),
                one_tet_sphere(), lens_l41()):
        sk = compute_skeleton(tri)
        assert tri.is_closed()
        assert sk.euler_alternating_sum(tri.tetrahedron_count) == 0


def test_validate_pentachoron():
    report = validate_manifold(boundary_4_simplex())
    assert report.is_manifold
    assert all(link.euler_characteristic == 2 and link.is_sphere
               for link in report.links)


def test_validate_single_tet_disk_links():
    report = validate_manifold(single_tetrahedron())
    assert report.is_manifold
    assert all(link.euler_characteristic == 1 and link.is_disk
               for link in report.links)


def test_validate_pseudomanifold():
    tri = pseudomanifold_two_tet()
    report = validate_manifold(tri)
    assert not report.is_manifold
    bad = [link for link in report.links if not link.passes]
    assert bad and bad[0].vertex_orbit == 0
    assert bad[0].euler_characteristic == 0


def test_link_chi_against_oracle():
    for tri in (single_tetrahedron(), doubled_tetrahedron(),
                boundary_4_simplex(), one_tet_sphere(), lens_l41(),
                pseudomanifold_two_tet()):
        sk = compute_skeleton(tri)
        report = validate_manifold(tri, sk)
        for i, orbit in enumerate(sk.vertex_orbits):
            assert report.links[i].euler_characteristic == \
                link_chi(tri, orbit)


def test_reversed_edge_detected():
    # Face 0 -> face 1 with the corner map swapping 2 and 3 identifies
    # edge 23 with itself reversing its endpoints.
    tri = Triangulation.from_pairs(1, [((0, 0), (0, 1), {1: 0, 2: 3, 3: 2})])
    sk = compute_skeleton(tri)
    assert any(sk.edge_reversed)
    report = validate_manifold(tri, sk)
    assert report.reversed_edges
    assert not report.is_manifold


def test_orientability():
    for tri in (single_tetrahedron(), doubled_tetrahedron(),
                boundary_4_simplex(), one_tet_sphere(), lens_l41()):
        assert tri.orientable()


def test_from_pairs_validates():
    with pytest.raises(TriangulationError, match="bijection"):
        Triangulation.from_pairs(2, [((0, 0), (1, 0), {1: 1, 2: 2, 3: 2})])


def test_skeleton_matches_explicit_oracle():
    reversed_seen = 0
    for tri in _oracle_inputs():
        sk = compute_skeleton(tri)
        assert sk == explicit_skeleton(tri)
        reversed_seen += any(sk.edge_reversed)
    assert reversed_seen > 100      # the oracle's doubled edges are exercised


def test_validate_and_orientability_against_oracles():
    for tri in _oracle_inputs():
        sk = compute_skeleton(tri)
        report = validate_manifold(tri, sk)
        assert [link.euler_characteristic for link in report.links] == \
            [link_chi(tri, orbit) for orbit in sk.vertex_orbits]
        assert report.orientable == tri.orientable() == \
            orientable_by_propagation(tri)


def test_skeleton_matches_oracles_with_boundary_and_stellar_moves():
    # Bounded pairings give edge orbits that are paths, not cycles.
    paths = 0
    for tri in itertools.chain(_bounded_pairings(), _stellar_subdivisions()):
        sk = compute_skeleton(tri)
        assert sk == explicit_skeleton(tri)
        assert parse_triangulation(tri.to_text()) == tri
        report = validate_manifold(tri, sk)
        assert [link.euler_characteristic for link in report.links] == \
            [link_chi(tri, orbit) for orbit in sk.vertex_orbits]
        # an edge orbit is a path when one of its faces is unglued
        paths += sum(any(tri.gluings[t][f] is None for t, e in orbit
                         for f in model.FACES_OF_EDGE[e])
                     for orbit in sk.edge_orbits)
    assert paths > 1000


def test_orientability_matches_propagation_with_boundary_and_stellar_moves():
    # The sign walk against the propagation oracle, on pairings with
    # unglued faces and on stellar moves, up to about 300 tetrahedra
    answers = set()
    for tri in itertools.chain(_bounded_pairings(), _stellar_subdivisions()):
        answers.add(tri.orientable())
        assert tri.orientable() == orientable_by_propagation(tri)
    assert answers == {True, False}


def test_stellar_moves_keep_the_manifold():
    for build in LIBRARY:
        tri = build()
        before = validate_manifold(tri)
        vertices = compute_skeleton(tri).counts[0]
        for moves in (1, 12):
            after = stellar_subdivision(tri, moves, 5)
            assert after.tetrahedron_count == tri.tetrahedron_count + 3 * moves
            report = validate_manifold(after)
            assert report.is_manifold == before.is_manifold
            assert report.orientable == before.orientable
            assert len(report.links) == vertices + moves


def test_skeleton_uses_no_union_find():
    assert not hasattr(triangulation, "ParityUnionFind")
    for tri in (lens_l41(), single_tetrahedron(), random_pairing(9, 3, 6)):
        assert compute_skeleton(tri) == explicit_skeleton(tri)


@pytest.mark.parametrize("token, message", [
    ("1_0:0:123", "malformed gluing token '1_0:0:123'"),
    ("+1:0:123", "malformed gluing token '+1:0:123'"),
    ("1:+0:123", "malformed gluing token '1:+0:123'"),
    ("1:00:123", "malformed gluing token '1:00:123'"),
    ("01:0:123", "malformed gluing token '01:0:123'"),
    ("-0:0:123", "malformed gluing token '-0:0:123'"),
    ("\u0661:0:123", "malformed gluing token '\u0661:0:123'"),
    ("1:0:1\u06623", "corner map '1\u06623' must be 3 digits"),
    ("1:0:1\u00b23", "corner map '1\u00b23' must be 3 digits"),
])
def test_non_canonical_gluing_numeral_rejected(token, message):
    # Each form was read as a number before: 1_0 as 10, +1 as 1, the
    # Arabic-Indic digits as 1 and 2; the superscript two raised a bare
    # ValueError.
    text = DOUBLED_TEXT.replace("1:0:123", token, 1)
    with pytest.raises(ParseError) as info:
        parse_triangulation(text)
    assert str(info.value) == f"line 2, column 1: {message}"


@pytest.mark.parametrize("text, column", [
    ("2\n1:0:123 1:0:123 1:0:12 -\n- - - -\n", 17),
    ("13\n12:0:123 2:0:12 - -\n" + "- - - -\n" * 12, 10),
    ("2\n\t1:0:123  \t1:0:12 - -\n- - - -\n", 12),
], ids=["repeated-token", "inside-earlier-token", "tabs"])
def test_error_column_is_the_bad_token(text, column):
    # The column used to be that of the first place the token's text
    # occurs in the line: 1, 2 and 2 here.
    with pytest.raises(ParseError) as info:
        parse_triangulation(text)
    assert str(info.value) == \
        f"line 2, column {column}: corner map '12' must be 3 digits"


@pytest.mark.parametrize("count, lines", [
    ("+2", 2), ("2_0", 20), ("02", 2), ("\u0662", 2)])
def test_non_canonical_count_rejected(count, lines):
    # Each count was read as a number before, with as many lines as it
    # reads as.
    text = f"{count}\n" + "- - - -\n" * lines
    with pytest.raises(ParseError) as info:
        parse_triangulation(text)
    assert str(info.value) == \
        f"line 1: expected tetrahedron count, got {count!r}"


def test_negative_numerals_stay_out_of_range():
    with pytest.raises(ParseError, match="must be positive"):
        parse_triangulation("-1\n- - - -\n")
    with pytest.raises(ParseError, match="tetrahedron index -1 out of range"):
        parse_triangulation(DOUBLED_TEXT.replace("1:0:123", "-1:0:123", 1))


def test_accepted_tokens_are_written_back_unchanged():
    # Seeded one-character edits of valid files, with signs, underscores
    # and non-ASCII digits among the inserted characters: whatever parses
    # is written back token for token.
    rng = random.Random(20261019)
    alphabet = "0123456789:-+_ \n\u0661\u00b2"
    accepted = 0
    for tri in itertools.islice(_oracle_inputs(), 0, None, 6):
        text = tri.to_text()
        for _ in range(20):
            chars = list(text)
            i = rng.randrange(len(chars))
            edit = rng.randrange(3)
            if edit == 0:
                chars[i] = rng.choice(alphabet)
            elif edit == 1:
                chars.insert(i, rng.choice(alphabet))
            else:
                del chars[i]
            mutated = "".join(chars)
            try:
                parsed = parse_triangulation(mutated)
            except ParseError:
                continue
            accepted += 1
            assert parsed.to_text().split() == mutated.split()
    assert accepted > 50
