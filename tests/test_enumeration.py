import json
import random

import pytest

from normalhst.enumeration import (brute_force_enumerate,
                                   enumerate_vertex_surfaces, extreme_rays,
                                   is_extreme_ray, octagon_augmentations,
                                   rational_rank, reduced_extreme_solutions,
                                   find_connected_chi2)
from normalhst.library import (boundary_4_simplex, doubled_tetrahedron,
                               lens_l41, single_tetrahedron)
from normalhst.limits import ResourceCeilingError
from normalhst.normal_surfaces import (check_admissible, matching_system,
                                       vertex_link)
from normalhst.triangulation import compute_skeleton

from oracles import (bareiss_rank, dense_rows, evaluate, quad_admissible,
                     unpruned_extreme_rays)
from pairings import random_closed_pairing

# (tetrahedra, seed) of the random closed pairings checked against the
# unpruned double description; n = 4 costs about 0.3 s each.
GENERATED_PAIRINGS = ([(2, s) for s in range(10)] + [(3, s) for s in range(10)]
                      + [(4, s) for s in range(6)])


def test_single_tet_rays_are_units():
    rays = enumerate_vertex_surfaces(single_tetrahedron())
    flats = sorted(v.normal_coordinates() for v in rays)
    units = sorted(tuple(1 if i == j else 0 for i in range(7))
                   for j in range(7))
    assert flats == units


def test_cone_invariants():
    for tri in (doubled_tetrahedron(), boundary_4_simplex(), lens_l41()):
        system = matching_system(tri)
        seen = set()
        for ray in sorted(extreme_rays(system)):
            assert all(x >= 0 for x in ray)
            assert all(v == 0 for v in evaluate(system, ray))
            assert quad_admissible(ray)
            from math import gcd
            g = 0
            for x in ray:
                g = gcd(g, x)
            assert g == 1
            assert ray not in seen
            seen.add(ray)


@pytest.mark.parametrize("n,seed", GENERATED_PAIRINGS)
def test_pruned_rays_match_unpruned_oracle(n, seed):
    tri = random_closed_pairing(n, seed)
    pruned = [v.normal_coordinates() for v in enumerate_vertex_surfaces(tri)]
    oracle = sorted(ray for ray in unpruned_extreme_rays(matching_system(tri))
                    if quad_admissible(ray))
    assert pruned == oracle


def test_brute_force_bound_zero():
    vectors = brute_force_enumerate(doubled_tetrahedron(), 0)
    assert len(vectors) == 1
    assert not any(vectors[0].coordinates())


@pytest.mark.parametrize("bound", [-1, -7])
def test_brute_force_rejects_negative_bound(bound):
    with pytest.raises(ValueError, match="at least 0"):
        brute_force_enumerate(single_tetrahedron(), bound)


def test_brute_force_single_bound_one():
    assert len(brute_force_enumerate(single_tetrahedron(), 1)) == 8


def test_brute_force_symmetric_under_swap():
    tri = doubled_tetrahedron()
    vectors = {v.normal_coordinates() for v in brute_force_enumerate(tri, 4)}
    swapped = {flat[7:] + flat[:7] for flat in vectors}
    assert vectors == swapped


def test_every_enumerated_vector_admissible():
    for tri in (single_tetrahedron(), doubled_tetrahedron(),
                boundary_4_simplex(), lens_l41()):
        for v in enumerate_vertex_surfaces(tri):
            assert check_admissible(tri, v).admissible
        for v in brute_force_enumerate(tri, 4):
            assert check_admissible(tri, v).admissible


def test_oracle_agreement_bounds_4_and_6():
    for tri in (single_tetrahedron(), doubled_tetrahedron(),
                boundary_4_simplex()):
        rays = enumerate_vertex_surfaces(tri)
        for bound in (4, 6):
            lhs = sorted(v.normal_coordinates() for v in rays
                         if sum(v.normal_coordinates()) <= bound)
            rhs = sorted(v.normal_coordinates()
                         for v in reduced_extreme_solutions(tri, bound))
            assert lhs == rhs


def test_pentachoron_links_among_rays():
    tri = boundary_4_simplex()
    sk = compute_skeleton(tri)
    rays = {v.normal_coordinates() for v in enumerate_vertex_surfaces(tri)}
    for i in range(5):
        assert vertex_link(tri, i, sk).normal_coordinates() in rays


def test_determinism_byte_identical():
    tri = boundary_4_simplex()
    runs = []
    for _ in range(2):
        payload = [json.dumps(v.to_json_dict(), sort_keys=True)
                   for v in enumerate_vertex_surfaces(tri)]
        payload += [json.dumps(v.to_json_dict(), sort_keys=True)
                    for v in brute_force_enumerate(tri, 4)]
        runs.append("\n".join(payload))
    assert runs[0] == runs[1]


def test_rank_oracle_and_extremality():
    system = matching_system(doubled_tetrahedron())
    rows = dense_rows(system)
    assert rational_rank(rows) == bareiss_rank(rows)
    rays = enumerate_vertex_surfaces(doubled_tetrahedron())
    for v in rays:
        assert is_extreme_ray(system, v.normal_coordinates())
    # a sum of two distinct rays is not extreme
    s = rays[0].add(rays[1])
    assert not is_extreme_ray(system, s.normal_coordinates())


def test_rational_rank_matches_bareiss_on_random_matrices():
    # A product of (rows x k) and (k x cols) factors has rank at most k,
    # so deficient ranks are common.
    rng = random.Random(9)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(1, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        mat = [tuple(sum(x * y for x, y in zip(row, column))
                     for column in zip(*right)) for row in left]
        assert rational_rank(mat) == bareiss_rank(mat)


def test_brute_force_ceiling():
    with pytest.raises(ResourceCeilingError):
        brute_force_enumerate(single_tetrahedron(), 99)


def test_env_ceiling_override(monkeypatch):
    monkeypatch.setenv("NORMALHST_CEILING", "1")
    with pytest.raises(ResourceCeilingError):
        brute_force_enumerate(single_tetrahedron(), 2)
    monkeypatch.setenv("NORMALHST_CEILING", "100")
    assert brute_force_enumerate(single_tetrahedron(), 2)


def test_ray_ceiling(monkeypatch):
    monkeypatch.setenv("NORMALHST_CEILING", "3")
    with pytest.raises(ResourceCeilingError, match="exceeded 3 rays"):
        enumerate_vertex_surfaces(boundary_4_simplex())


def test_find_connected_chi2():
    tri = boundary_4_simplex()
    sk = compute_skeleton(tri)
    found = {v.normal_coordinates() for v in find_connected_chi2(tri)}
    for i in range(5):
        assert vertex_link(tri, i, sk).normal_coordinates() in found
    # boundary triangulation: no closed surface at all, so no chi=2
    assert find_connected_chi2(single_tetrahedron(), "brute", bound=3) == []
    # the zero vector is never listed
    assert all(any(v.coordinates()) for v in
               find_connected_chi2(doubled_tetrahedron(), "brute", bound=2))


@pytest.mark.parametrize("search, bound, message", [
    ("brute", None, "brute search needs a bound"),
    ("quad", 3, "unknown search 'quad'"),
])
def test_find_connected_chi2_rejects(search, bound, message):
    with pytest.raises(ValueError, match=message):
        find_connected_chi2(single_tetrahedron(), search, bound)


def test_octagon_augmentations_respect_admissibility():
    tri = lens_l41()
    augs = octagon_augmentations(tri, brute_force_enumerate(tri, 4))
    assert augs
    for v in augs:
        assert v.octagon_count() == 1
        report = check_admissible(tri, v)
        assert report.admissible and report.mode == "almost_normal"
    # closed triangulation with disjoint-tetrahedron gluings: no
    # single octagon can satisfy matching
    assert octagon_augmentations(doubled_tetrahedron(),
                                 brute_force_enumerate(
                                     doubled_tetrahedron(), 4)) == []
