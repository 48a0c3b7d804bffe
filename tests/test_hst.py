import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalhst import hst
from normalhst.limits import ResourceCeilingError
from normalhst.hst import (EMPTY_SURFACE, EQUAL, GREATER, LESS, SPHERE, TORUS,
                           AbstractSplitting, AbstractSurface, Component,
                           ComplexityVector, HstError,
                           NonseparatingCompression, RelativeCompression,
                           SeparatingCompression, c_surface,
                           compare_complexity, component_moves, compress,
                           genus, is_minimal_reachable, legal_rewrites,
                           random_descent, random_splitting,
                           splitting_complexity, splitting_from_json,
                           splitting_to_json, underlying_splitting,
                           untangle_step)

from oracles import minimal_reachable_by_rebuilding, rebuilt_rewrites


# ---------------------------------------------------------------------------
# c(F) and comparisons
# ---------------------------------------------------------------------------

def test_c_surface_values():
    assert c_surface(AbstractSurface.of(SPHERE)) == 0
    assert c_surface(AbstractSurface.of(TORUS)) == 4
    assert c_surface(AbstractSurface.of(genus(2))) == 16
    assert c_surface(AbstractSurface.of(Component(0, 3)), relative=True) == 25


def test_relative_equals_absolute_without_punctures():
    for chi in range(-8, 4, 2):
        surf = AbstractSurface.of(Component(chi))
        assert c_surface(surf) == c_surface(surf, relative=True)


def test_component_validation():
    with pytest.raises(HstError):
        Component(1)          # odd
    with pytest.raises(HstError):
        Component(4)          # chi > 2
    with pytest.raises(HstError):
        Component(0, -1)


def test_compare_examples():
    assert compare_complexity((4,), (4, 0)) == LESS
    assert compare_complexity((16, 4), (16, 3, 3)) == GREATER
    assert compare_complexity((4, 4), (4, 4)) == EQUAL
    assert compare_complexity((), (0,)) == LESS


def test_complexity_vector_validation():
    with pytest.raises(HstError):
        ComplexityVector((1, 2))
    with pytest.raises(HstError):
        ComplexityVector((-1,))
    assert ComplexityVector((4, 4, 0)).entries == (4, 4, 0)


vectors = st.lists(st.integers(0, 40), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@given(vectors, vectors, vectors)
@settings(max_examples=200, deadline=None)
def test_compare_is_total_order(a, b, c):
    ab = compare_complexity(a, b)
    ba = compare_complexity(b, a)
    assert ab == -ba
    assert (ab == EQUAL) == (a == b)
    if ab != GREATER and compare_complexity(b, c) != GREATER:
        assert compare_complexity(a, c) != GREATER


# ---------------------------------------------------------------------------
# Splitting complexity
# ---------------------------------------------------------------------------

def test_splitting_complexity_examples():
    genus2 = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                  EMPTY_SURFACE)
    assert splitting_complexity(genus2).entries == (16,)

    torus = AbstractSurface.of(TORUS)
    product = AbstractSplitting.of(torus, torus, torus)
    assert splitting_complexity(product).entries == (4,)

    two_thick = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(TORUS), EMPTY_SURFACE,
        AbstractSurface.of(SPHERE), EMPTY_SURFACE)
    assert splitting_complexity(two_thick).entries == (4, 0)


def test_thick_levels_nonempty():
    with pytest.raises(HstError, match="thick"):
        AbstractSplitting.of(EMPTY_SURFACE, EMPTY_SURFACE, EMPTY_SURFACE)


# ---------------------------------------------------------------------------
# Compressions
# ---------------------------------------------------------------------------

def test_compress_nonseparating():
    surf = AbstractSurface.of(TORUS)
    out = compress(surf, NonseparatingCompression(0))
    assert out.components == (SPHERE,)
    assert (c_surface(surf), c_surface(out)) == (4, 0)


def test_compress_separating():
    surf = AbstractSurface.of(genus(2))
    out = compress(surf, SeparatingCompression(0, 0))
    assert out.components == (TORUS, TORUS)
    assert (c_surface(surf), c_surface(out)) == (16, 8)


def test_compress_relative():
    surf = AbstractSurface.of(Component(0, 2))
    out = compress(surf, RelativeCompression(0))
    assert out.components == (Component(0, 0),)
    assert c_surface(surf, relative=True) == 16
    assert c_surface(out, relative=True) == 4
    assert c_surface(out) == c_surface(surf)    # absolute unchanged


def test_compress_preconditions_name_essentiality():
    sphere = AbstractSurface.of(SPHERE)
    with pytest.raises(HstError, match="essentiality"):
        compress(sphere, NonseparatingCompression(0))
    torus = AbstractSurface.of(TORUS)
    with pytest.raises(HstError, match="essentiality"):
        compress(torus, SeparatingCompression(0, 2))
    with pytest.raises(HstError, match="punctures"):
        compress(AbstractSurface.of(Component(0, 1)), RelativeCompression(0))
    # a twice-punctured sphere is the thin-position case and is legal
    out = compress(AbstractSurface.of(Component(2, 2)),
                   RelativeCompression(0))
    assert out.components == (Component(2, 0),)


def test_compress_descent_window():
    for chi in range(-8, 2, 2):
        for punctures in range(7):
            surf = AbstractSurface.of(Component(chi, punctures))
            for move in component_moves(surf):
                out = compress(surf, move)
                assert c_surface(out, True) < c_surface(surf, True)
                if not isinstance(move, RelativeCompression):
                    assert c_surface(out) < c_surface(surf)


# ---------------------------------------------------------------------------
# Untangle step
# ---------------------------------------------------------------------------

def _torus_level():
    return AbstractSurface.of(TORUS)


def test_untangle_case_1():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0), False, False)
    assert len(out.levels) == 5
    assert out.thick_indices() == (1, 3)
    assert compare_complexity(splitting_complexity(out),
                              splitting_complexity(base)) == LESS


def test_untangle_case_2():
    base = AbstractSplitting.of(_torus_level(), AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0), True, False)
    assert len(out.levels) == 3
    # levels: G_DE (sphere), G_E (torus), empty
    assert out.levels[0].components == (SPHERE,)
    assert out.levels[1].components == (TORUS,)


def test_untangle_case_3():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                _torus_level())
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0), False, True)
    assert len(out.levels) == 3
    assert out.levels[1].components == (TORUS,)
    assert out.levels[2].components == (SPHERE,)


def test_untangle_case_4_collapses():
    base = AbstractSplitting.of(_torus_level(), AbstractSurface.of(genus(2)),
                                _torus_level())
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0), True, True)
    assert len(out.levels) == 1
    assert out.levels[0].components == (SPHERE,)
    assert compare_complexity(splitting_complexity(out),
                              splitting_complexity(base)) == LESS


def test_untangle_rejects_even_level():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    with pytest.raises(HstError, match="thin"):
        untangle_step(base, 0, NonseparatingCompression(0),
                      NonseparatingCompression(0), False, False)
    with pytest.raises(HstError, match="neighbours"):
        untangle_step(base, 3, NonseparatingCompression(0),
                      NonseparatingCompression(0), False, False)


def test_untangle_rejects_inconsistent_flags():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    with pytest.raises(HstError, match="inconsistent"):
        untangle_step(base, 1, NonseparatingCompression(0),
                      NonseparatingCompression(0), True, False)


def test_untangle_case_1_descent_window():
    # exhaustive over single-component thick levels in the chi window
    for chi in range(-8, 2, 2):
        level = AbstractSurface.of(Component(chi))
        base = AbstractSplitting.of(EMPTY_SURFACE, level, EMPTY_SURFACE)
        for d in component_moves(level):
            g_d = compress(level, d)
            for e in component_moves(level):
                from normalhst.hst import _compose_after
                try:
                    compress(g_d, _compose_after(d, e))
                except HstError:
                    continue
                out = untangle_step(base, 1, d, e, False, False)
                assert compare_complexity(
                    splitting_complexity(out, True),
                    splitting_complexity(base, True)) == LESS
                for p in out.thick_indices():
                    assert c_surface(out.levels[p], True) < \
                        c_surface(level, True)


def test_untangle_separating_branches():
    level = AbstractSurface.of(genus(3))
    base = AbstractSplitting.of(EMPTY_SURFACE, level, EMPTY_SURFACE)
    d = SeparatingCompression(0, -2)      # genus-3 -> genus-2 + torus
    for branch in (0, 1):
        e = NonseparatingCompression(0, branch=branch)
        out = untangle_step(base, 1, d, e, False, False)
        assert compare_complexity(splitting_complexity(out),
                                  splitting_complexity(base)) == LESS


# ---------------------------------------------------------------------------
# Underlying splitting
# ---------------------------------------------------------------------------

def test_underlying_merges_product_regions():
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE,
        AbstractSurface.of(TORUS, SPHERE),
        AbstractSurface.of(TORUS),
        AbstractSurface.of(TORUS, SPHERE),
        EMPTY_SURFACE)
    out = underlying_splitting(splitting)
    assert [lvl.multiset() for lvl in out.levels] == \
        [(), ((0, 0),), ()]


def test_underlying_all_spheres_degenerate():
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(Component(2, 4)), EMPTY_SURFACE)
    out = underlying_splitting(splitting)
    assert len(out.levels) == 1
    assert out.is_degenerate


def test_underlying_identity_when_clean():
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(TORUS),
        AbstractSurface.of(genus(2)), AbstractSurface.of(genus(3)),
        EMPTY_SURFACE)
    out = underlying_splitting(splitting)
    assert [lvl.multiset() for lvl in out.levels] == \
        [lvl.multiset() for lvl in splitting.levels]


def test_underlying_idempotent_random():
    rng = random.Random(11)
    for _ in range(100):
        splitting = random_splitting(rng)
        once = underlying_splitting(splitting)
        twice = underlying_splitting(once)
        assert [l.multiset() for l in once.levels] == \
            [l.multiset() for l in twice.levels]


def test_underlying_strips_punctures():
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(Component(0, 4)), EMPTY_SURFACE)
    out = underlying_splitting(splitting)
    assert out.levels[1].components == (Component(0, 0),)


# ---------------------------------------------------------------------------
# Searches and termination
# ---------------------------------------------------------------------------

def test_minimal_reachable_torus():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(TORUS),
                                EMPTY_SURFACE)
    result = is_minimal_reachable(base)
    assert result.minimum.entries == (0,)
    assert result.certified
    assert len(result.trace) == 1


def test_minimal_reachable_fixed_point():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(SPHERE),
                                EMPTY_SURFACE)
    result = is_minimal_reachable(base)
    assert result.minimum.entries == (0,)
    assert result.trace == ()
    assert result.states_explored == 1


def test_minimal_reachable_budget_exhausted():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    result = is_minimal_reachable(base, budget=1)
    assert not result.certified
    assert result.states_explored == 2


@pytest.mark.parametrize("budget", [0, -5])
def test_minimal_reachable_rejects_budget_below_one(budget):
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    with pytest.raises(ValueError, match="at least 1"):
        is_minimal_reachable(base, budget=budget)


def _seeded_splittings(count, seed, **kwargs):
    rng = random.Random(seed)
    return [random_splitting(rng, **kwargs) for _ in range(count)]


def _collapsible_splittings(count, seed):
    """Random splittings whose thin levels are each a compression of a
    neighbouring thick level, so untangle steps meet every pair of
    equality flags."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        levels = list(random_splitting(rng, max_punctures=2).levels)
        for i in range(0, len(levels), 2):
            thick = levels[rng.choice([j for j in (i - 1, i + 1)
                                       if 0 <= j < len(levels)])]
            if thick.moves:
                levels[i] = compress(thick, rng.choice(thick.moves))
        out.append(AbstractSplitting(tuple(levels)))
    return out


@pytest.mark.parametrize("budget", [1, 7, 100, 10000])
def test_minimal_reachable_matches_rebuilding_oracle(budget):
    # The oracle takes seconds to fill a budget of 10000, so that budget
    # runs on the first two splittings only: the first fills it and the
    # second is certified after 1344 states.
    if budget == 10000:
        cases = _seeded_splittings(2, 41, max_punctures=1)
    else:
        cases = (_seeded_splittings(12, 41, max_punctures=1)
                 + _seeded_splittings(12, 43)
                 + _collapsible_splittings(12, 59))
    results = [is_minimal_reachable(splitting, budget=budget)
               for splitting in cases]
    assert results == [minimal_reachable_by_rebuilding(splitting, budget)
                       for splitting in cases]
    if budget == 10000:
        assert [(r.certified, r.states_explored) for r in results] == \
            [(False, 10001), (True, 1344)]


def test_legal_rewrites_match_rebuilding_oracle():
    # The successors of a splitting repeat its levels, so they also
    # check rewrites spliced from cached triples met before.
    flags = set()
    for splitting in (_seeded_splittings(40, 47)
                      + _collapsible_splittings(40, 61)):
        rewrites = legal_rewrites(splitting)
        assert rewrites == rebuilt_rewrites(splitting)
        flags |= {move[4:] for move, _ in rewrites if move[0] == "untangle"}
        for _move, successor in rewrites[:3]:
            assert legal_rewrites(successor) == \
                rebuilt_rewrites(successor)
    assert flags == {(False, False), (True, False), (False, True),
                     (True, True)}


def _untangle_pairs_one_by_one(g_p):
    """Every legal untangle pair, each compressed by ``hst._untangle``."""
    for d in g_p.moves:
        for e in g_p.moves:
            for branch in (0, 1) if hst._splits_under(d, e) else (0,):
                e_branch = hst._readdressed(e, e.component, branch)
                try:
                    surfaces = hst._untangle(g_p, d, e_branch)
                except HstError:
                    continue
                yield (d, e_branch) + surfaces


def test_untangle_moves_match_pair_by_pair_untangle():
    # surfaces of one component, and of two whose closed chi adds to
    # at least -8 and whose punctures add to at most 4
    components = [(chi, p) for chi in range(-8, 1, 2) for p in range(5)]
    surfaces = [(c,) for c in components] + [
        (a, b) for a, b in itertools.combinations_with_replacement(
            components, 2) if a[0] + b[0] >= -8 and a[1] + b[1] <= 4]
    total = 0
    for pairs in surfaces:
        g_p = AbstractSurface.from_pairs(pairs)
        got = list(hst._untangle_moves(g_p))
        assert got == list(_untangle_pairs_one_by_one(g_p))
        total += len(got)
    assert total == 9615


@pytest.mark.parametrize("budget", [1, 7, 100, 10000])
def test_search_calls_legal_rewrites_once_per_expanded_state(
        monkeypatch, budget):
    calls = []
    original = hst.legal_rewrites

    def counting(splitting):
        calls.append(splitting)
        return original(splitting)

    monkeypatch.setattr(hst, "legal_rewrites", counting)
    for splitting in _seeded_splittings(6, 53, max_punctures=1):
        calls.clear()
        result = is_minimal_reachable(splitting, budget=budget)
        assert len(calls) == min(result.states_explored, budget)
        assert len({s.canonical() for s in calls}) == len(calls)


def test_move_count_matches_moves():
    for chi in range(-12, 3, 2):
        for punctures in range(8):
            pairs = ((chi, punctures),)
            assert hst._move_count(pairs) == len(
                component_moves(AbstractSurface.from_pairs(pairs)))
    rng = random.Random(11)
    for _ in range(200):
        pairs = tuple((2 * rng.randint(-5, 1), rng.randint(0, 6))
                      for _ in range(rng.randint(0, 3)))
        assert hst._move_count(pairs) == len(
            component_moves(AbstractSurface.from_pairs(pairs)))


def test_rewrites_ceiling_builds_no_move():
    # 10^5 punctures give 10^5 + 3 moves: refused before any is built
    splitting = splitting_from_json([[], [[-2, 10 ** 5]], []])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCeilingError, match="100003 compressions"):
            is_minimal_reachable(splitting, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_every_rewrite_decreases():
    rng = random.Random(3)
    for _ in range(20):
        splitting = random_splitting(rng, max_punctures=2)
        before = splitting_complexity(splitting, True)
        for _move, successor in legal_rewrites(splitting):
            after = splitting_complexity(successor, True)
            assert compare_complexity(after, before) == LESS


def test_random_descent_terminates():
    rng = random.Random(5)
    for _ in range(200):
        splitting = random_splitting(rng)
        steps, final = random_descent(splitting, rng)
        assert not legal_rewrites(final) or steps >= 0
        assert compare_complexity(
            splitting_complexity(final, True),
            splitting_complexity(splitting, True)) != GREATER


def test_random_descent_steps_are_legal_rewrites(monkeypatch):
    # random_descent reads the complexity of its start and of each
    # successor once, so wrapping _relative_entries records its path.
    path = []
    original = hst._relative_entries

    def recording(splitting):
        path.append(splitting)
        return original(splitting)

    monkeypatch.setattr(hst, "_relative_entries", recording)
    rng = random.Random(7)
    total = 0
    for _ in range(300):
        path.clear()
        steps, final = random_descent(random_splitting(rng), rng)
        assert len(path) == steps + 1 and path[-1] is final
        for before, after in zip(path, path[1:]):
            key = after.canonical()
            assert any(successor.canonical() == key
                       for _move, successor in legal_rewrites(before))
        total += steps
    assert total == 6487


def test_json_round_trip():
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(Component(-2, 3), TORUS),
        EMPTY_SURFACE)
    data = splitting_to_json(splitting)
    assert data == [[], [[-2, 3], [0, 0]], []]
    back = splitting_from_json(data)
    assert [l.multiset() for l in back.levels] == \
        [l.multiset() for l in splitting.levels]
