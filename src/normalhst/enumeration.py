"""
Enumeration of admissible normal surfaces.

Two independent routes:

* :func:`enumerate_vertex_surfaces` computes the quad-admissible extreme
  rays of the cone {x >= 0, matching(x) = 0} by incremental double
  description with exact integer arithmetic, pruning every intermediate
  ray that breaks the quad constraint as soon as it would be built.
* :func:`brute_force_enumerate` walks the lattice of all coordinate
  vectors of bounded total weight by backtracking, checking the matching
  equations as soon as both sides of a face are assigned.

Octagon-carrying surfaces are produced by augmentation: add a single
octagon to a quad-admissible normal solution and keep the results that
stay admissible.
"""

from math import gcd

from .limits import ResourceCeilingError, ceiling
from .normal_surfaces import (SurfaceVector, check_admissible,
                              matching_system, reconstruct_surface)
from .triangulation import compute_skeleton


def _reduce(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g in (0, 1):
        return tuple(vec)
    return tuple(x // g for x in vec)


def extreme_rays(system):
    """Quad-admissible extreme rays of {x >= 0, rows(x) = 0}.

    Incremental double description that keeps only rays obeying the
    quad constraint (at most one quad type per tetrahedron), after
    B. Burton, "Optimizing the double description method for normal
    surface enumeration", Math. Comp. 79 (2010).  A pos x neg pair
    combines to a ray whose support is the union of theirs, so a pair
    whose union holds two quads of one tetrahedron, by the shift test
    on ``system.quads`` (see :class:`MatchingSystem`), is skipped
    before the adjacency test.  The test itself stays exact over the
    kept rays: any ray whose zero set contains the pair's common zeros
    has support inside the union, hence is admissible and kept.

    Zero sets are int bitmasks over the columns, and the adjacency test
    reads them transposed: one bitmask per column, with bit k set when
    ray k is zero there.  The rays whose zero set contains ``common``
    are the AND of the columns in ``common``, which stops as soon as
    only the pair itself is left.  Equations are inserted in order of
    increasing support size (ties by index), which keeps intermediate
    ray counts small and fixes the output order; rows are sparse, so a
    dot product has at most four terms.  Rays are primitive integer
    vectors.  The ``rays`` ceiling bounds the number of admissible rays
    after each equation.
    """
    n = system.columns
    max_rays = ceiling("rays")
    full = (1 << n) - 1
    quads = system.quads
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    zero_sets = [full ^ (1 << j) for j in range(n)]
    order = sorted(range(len(system.rows)),
                   key=lambda i: (len(system.rows[i]), i))
    for row_index in order:
        a = system.rows[row_index]
        dots = [sum(c * ray[k] for k, c in a) for ray in rays]
        pos = [i for i, d in enumerate(dots) if d > 0]
        neg = [i for i, d in enumerate(dots) if d < 0]
        new_rays = [ray for ray, d in zip(rays, dots) if d == 0]
        new_zero_sets = [z for z, d in zip(zero_sets, dots) if d == 0]
        zero_columns = _columns_of(zero_sets, n)
        everyone = (1 << len(rays)) - 1
        for i in pos:
            for j in neg:
                common = zero_sets[i] & zero_sets[j]
                q = quads & ~common
                if q & (q >> 1 | q >> 2):
                    continue
                # Rays i and j are zero on all of common, so they stay.
                pair = 1 << i | 1 << j
                inside = everyone
                rest = common
                while rest and inside != pair:
                    low = rest & -rest
                    inside &= zero_columns[low.bit_length() - 1]
                    rest ^= low
                if inside != pair:
                    continue
                combo = tuple(dots[i] * rays[j][k] - dots[j] * rays[i][k]
                              for k in range(n))
                new_rays.append(_reduce(combo))
                new_zero_sets.append(common)
        if len(new_rays) > max_rays:
            raise ResourceCeilingError(
                f"double description exceeded {max_rays} rays")
        rays, zero_sets = new_rays, new_zero_sets
    return rays


def _columns_of(zero_sets, n):
    """The zero sets transposed: bit k of entry c is bit c of zero_sets[k]."""
    # One binary string per zero set, highest ray first; zip reads them
    # column by column, highest column first.
    rows = [format(z, f"0{n}b") for z in reversed(zero_sets)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def enumerate_vertex_surfaces(tri):
    """Quad-admissible extreme rays of the matching cone, sorted.

    Output order is lexicographic on the flat coordinate tuples, so
    repeated runs produce identical results.
    """
    return [SurfaceVector.from_normal_coordinates(ray)
            for ray in sorted(extreme_rays(matching_system(tri)))]


def _local_blocks(budget):
    """(block, weight) for every block of one tetrahedron of weight <=
    budget: no octagon, and one nonzero quad type at most."""
    blocks = []
    for a0 in range(budget + 1):
        for a1 in range(budget + 1 - a0):
            for a2 in range(budget + 1 - a0 - a1):
                for a3 in range(budget + 1 - a0 - a1 - a2):
                    tri_c = (a0, a1, a2, a3)
                    weight = a0 + a1 + a2 + a3
                    blocks.append(((tri_c, (0, 0, 0), (0, 0, 0)), weight))
                    for q in range(3):
                        for k in range(1, budget - weight + 1):
                            quad_c = tuple(k if i == q else 0
                                           for i in range(3))
                            blocks.append(((tri_c, quad_c, (0, 0, 0)),
                                           weight + k))
    return blocks


def brute_force_enumerate(tri, max_total_coordinate):
    """All quad-admissible matching solutions of bounded total weight.

    Backtracks over tetrahedra, propagating the weight budget and
    checking each face equation as soon as the tetrahedra on both sides
    are assigned.  The blocks one tetrahedron can take within a budget
    are listed once per budget.  Deterministic output order
    (lexicographic).
    """
    if max_total_coordinate < 0:
        raise ValueError(f"weight bound must be at least 0, got "
                         f"{max_total_coordinate}")
    if max_total_coordinate > ceiling("brute_force_weight"):
        raise ResourceCeilingError(
            f"brute force bound {max_total_coordinate} exceeds ceiling "
            f"{ceiling('brute_force_weight')}")
    n = tri.tetrahedron_count

    # Face equations keyed by the larger assigned tetrahedron.
    eq_by_stage = {t: [] for t in range(n)}
    for t, f, g in tri.face_pairs():
        eq_by_stage[max(t, g.tet)].append(((t, f), (g.tet, g.face), g))

    from . import model
    results = []
    assigned = [None] * n
    # Budget -> _local_blocks(budget).
    local = {}

    def extend(t, remaining):
        if t == n:
            results.append(SurfaceVector(tuple(assigned)))
            return
        blocks = local.get(remaining)
        if blocks is None:
            blocks = local[remaining] = _local_blocks(remaining)
        for block, weight in blocks:
            assigned[t] = block
            ok = True
            for (ta, fa), (tb, fb), g in eq_by_stage[t]:
                ba, bb = assigned[ta], assigned[tb]
                for w in model.FACE_VERTICES[fa]:
                    if model.arc_count(ba, fa, w) != \
                            model.arc_count(bb, fb, g.perm[w]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(t + 1, remaining - weight)
        assigned[t] = None

    extend(0, max_total_coordinate)
    results.sort(key=lambda v: v.normal_coordinates())
    return results


# ---------------------------------------------------------------------------
# Exact rational rank, used for the independent extremality test.
# ---------------------------------------------------------------------------

def rational_rank(rows):
    """Rank of an integer matrix by exact elimination over the integers.

    Each row below a pivot is cross-multiplied with the pivot row to
    clear the pivot column, then divided by the gcd of its entries, so
    the entries stay as small as the rows they span allow.
    """
    mat = [row for row in rows if any(row)]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col]
            if factor:
                mat[r] = _reduce([p * x - factor * y
                                  for x, y in zip(mat[r], top)])
        rank += 1
        col += 1
    return rank


def is_extreme_ray(system, flat):
    """Whether a nonzero matching solution spans an extreme ray.

    A point of the cone {x >= 0, Ax = 0} lies on an extreme ray exactly
    when its active constraints (the equations plus its zero
    coordinates) have rank n - 1.  Independent of double description.
    With no active constraint the rank is 0, so only n == 1 passes.
    """
    n = system.columns
    rows = []
    for sparse in system.rows:
        row = [0] * n
        for c, x in sparse:
            row[c] = x
        rows.append(row)
    for i, x in enumerate(flat):
        if x == 0:
            rows.append([1 if j == i else 0 for j in range(n)])
    return rational_rank(rows) == n - 1


def reduced_extreme_solutions(tri, bound):
    """gcd-reduced brute-force solutions that are extreme rays, sorted.

    The oracle counterpart of :func:`enumerate_vertex_surfaces`
    restricted to coordinate sum <= bound: brute-force results are
    reduced to primitive vectors, deduplicated, and kept when the exact
    rank test certifies extremality.
    """
    system = matching_system(tri)
    seen = set()
    out = []
    for v in brute_force_enumerate(tri, bound):
        flat = _reduce(v.normal_coordinates())
        if not any(flat) or flat in seen:
            continue
        seen.add(flat)
        if is_extreme_ray(system, flat):
            out.append(SurfaceVector.from_normal_coordinates(flat))
    out.sort(key=lambda v: v.normal_coordinates())
    return out


def cross_check(tri, bound):
    """Double description against the brute-force oracle up to ``bound``.

    Returns the sorted normal coordinates of the vertex surfaces of
    weight at most ``bound`` and those of
    :func:`reduced_extreme_solutions`; the two routes agree when the
    lists are equal.
    """
    rays = sorted(v.normal_coordinates()
                  for v in enumerate_vertex_surfaces(tri)
                  if sum(v.normal_coordinates()) <= bound)
    oracle = sorted(v.normal_coordinates()
                    for v in reduced_extreme_solutions(tri, bound))
    return rays, oracle


# ---------------------------------------------------------------------------
# Derived searches
# ---------------------------------------------------------------------------

def find_connected_chi2(tri, search="vertex", bound=None):
    """Vectors whose surface is connected with Euler characteristic 2.

    ``search`` picks the candidate set: "vertex" for the extreme-ray
    surfaces, "brute" for all admissible vectors of weight <= bound.
    Complete only relative to the searched set.
    """
    if search == "vertex":
        candidates = enumerate_vertex_surfaces(tri)
    elif search == "brute":
        if bound is None:
            raise ValueError("brute search needs a bound")
        candidates = brute_force_enumerate(tri, bound)
    else:
        raise ValueError(f"unknown search {search!r}")
    skeleton = compute_skeleton(tri)
    out = []
    for v in candidates:
        summary = reconstruct_surface(tri, v, skeleton)
        if summary.component_count == 1 and summary.euler_characteristic == 2:
            out.append(v)
    return out


def octagon_augmentations(tri, base_vectors):
    """Admissible octagon surfaces obtained from normal solutions.

    For each base vector and each (tetrahedron, octagon type), add one
    octagon and keep the result if it passes the almost-normal
    admissibility check (one exceptional piece, quad-free tetrahedron,
    matching with the octagon's two arcs per face).
    """
    out = []
    seen = set()
    for base in base_vectors:
        for t in range(tri.tetrahedron_count):
            for q in range(3):
                blocks = list(base.tets)
                tri_c, quad_c, oct_c = blocks[t]
                new_oct = tuple(1 if i == q else 0 for i in range(3))
                blocks[t] = (tri_c, quad_c, new_oct)
                candidate = SurfaceVector(tuple(blocks))
                key = candidate.coordinates()
                if key in seen:
                    continue
                seen.add(key)
                if check_admissible(tri, candidate).admissible:
                    out.append(candidate)
    out.sort(key=lambda v: v.coordinates())
    return out
