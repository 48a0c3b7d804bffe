import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalhst import hst
from normalhst.limits import ResourceCeilingError
from normalhst.hst import (EMPTY_SURFACE, SPHERE, TORUS, AbstractSplitting,
                           AbstractSurface, Component, HstError,
                           NonseparatingCompression, RelativeCompression,
                           SeparatingCompression,
                           c_surface, component_moves, compress,
                           genus, is_minimal_reachable, legal_rewrites,
                           random_descent, random_splitting,
                           splitting_complexity, splitting_from_json,
                           splitting_to_json, trace_to_json,
                           underlying_splitting, untangle_step)

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


def _lexicographically_less(a, b):
    """The order of the module docstring, written out: the first
    differing entry decides, and a proper prefix is smaller."""
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def test_compare_examples():
    assert (4,) < (4, 0)
    assert (16, 4) > (16, 3, 3)
    assert (4, 4) == (4, 4)
    assert () < (0,)


vectors = st.lists(st.integers(0, 40), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@given(vectors, vectors, vectors)
@settings(max_examples=200, deadline=None)
def test_compare_is_total_order(a, b, c):
    assert (a < b) == _lexicographically_less(a, b)
    assert (a < b) + (a == b) + (b < a) == 1
    if a <= b <= c:
        assert a <= c


# ---------------------------------------------------------------------------
# Splitting complexity
# ---------------------------------------------------------------------------

def test_splitting_complexity_examples():
    genus2 = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                  EMPTY_SURFACE)
    assert splitting_complexity(genus2) == (16,)

    torus = AbstractSurface.of(TORUS)
    product = AbstractSplitting.of(torus, torus, torus)
    assert splitting_complexity(product) == (4,)

    two_thick = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(TORUS), EMPTY_SURFACE,
        AbstractSurface.of(SPHERE), EMPTY_SURFACE)
    assert splitting_complexity(two_thick) == (4, 0)


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
                        NonseparatingCompression(0))
    assert len(out.levels) == 5
    assert out.thick_indices() == (1, 3)
    assert splitting_complexity(out) < \
        splitting_complexity(base)


def test_untangle_case_2():
    base = AbstractSplitting.of(_torus_level(), AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0))
    assert len(out.levels) == 3
    # levels: G_DE (sphere), G_E (torus), empty
    assert out.levels[0].components == (SPHERE,)
    assert out.levels[1].components == (TORUS,)


def test_untangle_case_3():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                _torus_level())
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0))
    assert len(out.levels) == 3
    assert out.levels[1].components == (TORUS,)
    assert out.levels[2].components == (SPHERE,)


def test_untangle_case_4_collapses():
    base = AbstractSplitting.of(_torus_level(), AbstractSurface.of(genus(2)),
                                _torus_level())
    out = untangle_step(base, 1, NonseparatingCompression(0),
                        NonseparatingCompression(0))
    assert len(out.levels) == 1
    assert out.levels[0].components == (SPHERE,)
    assert splitting_complexity(out) < \
        splitting_complexity(base)


def test_untangle_rejects_even_level():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                                EMPTY_SURFACE)
    with pytest.raises(HstError, match="thin"):
        untangle_step(base, 0, NonseparatingCompression(0),
                      NonseparatingCompression(0))
    with pytest.raises(HstError, match="neighbours"):
        untangle_step(base, 3, NonseparatingCompression(0),
                      NonseparatingCompression(0))


@pytest.mark.parametrize("d, e, message", [
    (NonseparatingCompression(0, branch=1), NonseparatingCompression(0),
     "D move names branch 1; only an E move names a branch"),
    (NonseparatingCompression(0), NonseparatingCompression(0, branch=1),
     "E move names branch 1; only a D that splits its component"),
    (NonseparatingCompression(0), NonseparatingCompression(0, branch=7),
     "E move names branch 7; only a D that splits its component"),
    (SeparatingCompression(0, -2), NonseparatingCompression(1, branch=1),
     "E move names branch 1; only a D that splits its component"),
    (SeparatingCompression(0, -2), NonseparatingCompression(0, branch=7),
     "E move names branch 7; only a D that splits its component gives "
     "branches 0, 1"),
])
def test_untangle_rejects_a_branch_no_split_gives(d, e, message):
    # only a separating D on E's component gives E two branches to name
    base = AbstractSplitting.of(EMPTY_SURFACE,
                                AbstractSurface.of(genus(3), TORUS),
                                EMPTY_SURFACE)
    with pytest.raises(HstError, match=message):
        untangle_step(base, 1, d, e)


@pytest.mark.parametrize("move, message", [
    (NonseparatingCompression(1), "no component 1"),
    (SimpleNamespace(component=0), r"unknown move namespace\(component=0\)"),
])
def test_compress_rejects_bad_moves(move, message):
    with pytest.raises(HstError, match=message):
        compress(AbstractSurface.of(genus(2)), move)


def test_trace_json_of_both_step_kinds():
    # an untangle step with a separating D and an E on branch 1, then a
    # compression of the new level G_E; each is a legal rewrite there
    d = SeparatingCompression(0, -2, 1)
    e = NonseparatingCompression(0, branch=1)
    trace = (("untangle", 1, d, e, False, False),
             ("compress", 3, RelativeCompression(0)))
    state = splitting_from_json([[], [[-4, 2]], []])
    for step in trace:
        _, start, stop, replacement, _ = next(
            r for r in legal_rewrites(state.levels) if r[0] == step)
        state = AbstractSplitting(state.levels[:start] + replacement
                                  + state.levels[stop:])
    assert splitting_to_json(state) == [
        [], [[-2, 1], [0, 1]], [[-2, 1], [2, 1]], [[-2, 0]], []]
    assert trace_to_json(trace) == [
        {"step": "untangle", "level": 1,
         "move_d": {"kind": "separating", "component": 0, "chi1": -2,
                    "punctures1": 1},
         "move_e": {"kind": "nonseparating", "component": 0, "branch": 1},
         "eq_d": False, "eq_e": False},
        {"step": "compress", "level": 3,
         "move": {"kind": "relative", "component": 0}}]


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
                out = untangle_step(base, 1, d, e)
                assert splitting_complexity(out, True) < \
                    splitting_complexity(base, True)
                for p in out.thick_indices():
                    assert c_surface(out.levels[p], True) < \
                        c_surface(level, True)


def test_untangle_separating_branches():
    level = AbstractSurface.of(genus(3))
    base = AbstractSplitting.of(EMPTY_SURFACE, level, EMPTY_SURFACE)
    d = SeparatingCompression(0, -2)      # genus-3 -> genus-2 + torus
    for branch in (0, 1):
        e = NonseparatingCompression(0, branch=branch)
        out = untangle_step(base, 1, d, e)
        assert splitting_complexity(out) < \
            splitting_complexity(base)


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
    assert result.minimum == (0,)
    assert result.certified
    assert len(result.trace) == 1


def test_minimal_reachable_fixed_point():
    base = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(SPHERE),
                                EMPTY_SURFACE)
    result = is_minimal_reachable(base)
    assert result.minimum == (0,)
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


def _stopped_at_floor(splitting, result):
    """Whether the search stopped at its floor: its best vector reached
    it, so the last state it counted was not expanded."""
    return result.minimum == hst._end_floor(splitting.levels)


@pytest.mark.parametrize("budget", [1, 7, 100, 10000])
def test_minimal_reachable_matches_rebuilding_oracle(budget):
    # The oracle takes seconds to fill a budget of 10000, so that budget
    # runs on the first two splittings only: neither reaches its floor,
    # the first fills the budget and the second is certified after 1344
    # states.  A search that stops at its floor at state k agrees with
    # the unpruned oracle cut at budget k, which has not yet reached the
    # floor at budget k - 1.
    if budget == 10000:
        cases = _seeded_splittings(2, 41, max_punctures=1)
    else:
        cases = (_seeded_splittings(12, 41, max_punctures=1)
                 + _seeded_splittings(12, 43)
                 + _collapsible_splittings(12, 59))
    results = [is_minimal_reachable(splitting, budget=budget)
               for splitting in cases]
    stopped = 0
    for splitting, result in zip(cases, results):
        if not _stopped_at_floor(splitting, result):
            assert result == minimal_reachable_by_rebuilding(splitting,
                                                             budget)
            continue
        stopped += 1
        k = result.states_explored
        assert result.certified and k <= budget
        cut = minimal_reachable_by_rebuilding(splitting, k)
        assert (cut.minimum, cut.splitting, cut.trace) == \
            (result.minimum, result.splitting, result.trace)
        if k > 1:
            floor = hst._end_floor(splitting.levels)
            assert minimal_reachable_by_rebuilding(
                splitting, k - 1).minimum > floor
    if budget == 10000:
        assert [(r.certified, r.states_explored) for r in results] == \
            [(False, 10001), (True, 1344)]
    assert stopped == {1: 0, 7: 15, 100: 16, 10000: 0}[budget]


def _pool_splittings():
    """The 96 pool splittings of perfbench's search workload."""
    return [random_splitting(random.Random(f"splitting-{i}"))
            for i in range(96)]


def test_floor_is_below_every_reachable_vector():
    # Every state the unpruned oracle visits is reachable, so its best
    # vector is never below the floor, certified or not; where it is
    # certified, that best is the minimum.
    certified = attained = 0
    for splitting in (_pool_splittings() + _seeded_splittings(40, 89)
                      + _collapsible_splittings(40, 97)):
        floor = hst._end_floor(splitting.levels)
        result = minimal_reachable_by_rebuilding(splitting, 100)
        assert result.minimum >= floor
        certified += result.certified
        attained += result.minimum == floor
    assert (certified, attained) == (23, 96)


def _end_invariants(levels):
    """The end flags and the length parity, which no rewrite changes."""
    return (not levels[0].components, not levels[-1].components,
            len(levels) % 2)


def _persistent_odd_counts(levels):
    """The odd-component counts of the bottom and top thick levels where
    the floor's proof says they persist, else None."""
    top = len(levels) - 1
    bottom = levels[1] if top and not levels[0].components else None
    if top % 2:
        upper = levels[top]
    elif top and not levels[top].components:
        upper = levels[top - 1]
    else:
        upper = None
    return tuple(None if level is None else
                 sum(p % 2 for _, p in level.pairs)
                 for level in (bottom, upper))


def _check_floor_step(before, after):
    assert _end_invariants(after) == _end_invariants(before)
    for old, new in zip(_persistent_odd_counts(before),
                        _persistent_odd_counts(after)):
        assert (old is None) == (new is None)
        assert old is None or new >= old


def test_floor_invariants_hold_along_every_rewrite():
    steps = 0
    for splitting in (_pool_splittings() + _seeded_splittings(40, 101)
                      + _collapsible_splittings(40, 103)):
        for _move, successor in _successors(splitting):
            _check_floor_step(splitting.levels, successor.levels)
            steps += 1
    assert steps == 11059


def test_floor_invariants_hold_along_random_descents(monkeypatch):
    # random_descent reads the complexity of its start and of each
    # successor once, so wrapping _relative_entries records its path.
    path = []
    original = hst._relative_entries

    def recording(levels):
        path.append(levels)
        return original(levels)

    monkeypatch.setattr(hst, "_relative_entries", recording)
    rng = random.Random(107)
    steps = 0
    for splitting in _pool_splittings() + _collapsible_splittings(40, 109):
        path.clear()
        steps += random_descent(splitting, rng)[0]
        for before, after in zip(path, path[1:]):
            _check_floor_step(before, after)
    assert steps == 2733


def test_search_at_its_floor_stops_after_one_state():
    # a once-punctured sphere costs 1, its odd-component count
    start = splitting_from_json([[], [[2, 1], [2, 0]], [[0, 0]], [[2, 1]]])
    assert hst._end_floor(start.levels) == (1, 1)
    result = is_minimal_reachable(start)
    assert (result.minimum, result.certified,
            result.states_explored) == ((1, 1), True, 1)


def test_floor_of_each_end_case():
    # both ends nonempty, or no thick level: nothing persists
    assert hst._end_floor(splitting_from_json([[]]).levels) == ()
    both_ends = splitting_from_json([[[0, 1]], [[-2, 3]], [[0, 1]]])
    assert hst._end_floor(both_ends.levels) == ()
    # an even length keeps its top thick level whatever the bottom holds
    assert hst._end_floor(splitting_from_json(
        [[[0, 1]], [[-2, 3], [0, 1]]]).levels) == (2,)
    assert hst._end_floor(splitting_from_json(
        [[], [[-2, 3]], [[0, 1]]]).levels) == (1,)
    # level 1 is both ends' level when it is the only one: counted once
    assert hst._end_floor(splitting_from_json(
        [[], [[0, 1], [0, 3]]]).levels) == (2,)
    assert hst._end_floor(splitting_from_json(
        [[], [[0, 1]], [], [[0, 0]], []]).levels) == (1, 0)


def _successors(splitting):
    """``legal_rewrites(splitting.levels)`` as (move, successor) pairs,
    each successor built by the checking constructor when it is reached."""
    levels = splitting.levels
    for move, start, stop, replacement, _codes in legal_rewrites(levels):
        yield move, AbstractSplitting(levels[:start] + replacement
                                      + levels[stop:])


def test_legal_rewrites_match_rebuilding_oracle():
    # The successors of a splitting repeat its levels, so they also
    # check rewrites spliced from cached triples met before.
    flags = set()
    for splitting in (_seeded_splittings(40, 47)
                      + _collapsible_splittings(40, 61)):
        rewrites = list(_successors(splitting))
        assert rewrites == rebuilt_rewrites(splitting)
        flags |= {move[4:] for move, _ in rewrites if move[0] == "untangle"}
        for _move, successor in rewrites[:3]:
            assert list(_successors(successor)) == \
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
        got = list(g_p.untangles)
        assert got == list(_untangle_pairs_one_by_one(g_p))
        total += len(got)
    assert total == 9615


@pytest.mark.parametrize("budget", [1, 7, 100, 10000])
def test_search_calls_legal_rewrites_once_per_expanded_state(
        monkeypatch, budget):
    calls = []
    original = hst.legal_rewrites

    def counting(levels):
        calls.append(levels)
        return original(levels)

    monkeypatch.setattr(hst, "legal_rewrites", counting)
    for splitting in _seeded_splittings(6, 53, max_punctures=1):
        calls.clear()
        result = is_minimal_reachable(splitting, budget=budget)
        # the state that reaches the floor is counted, not expanded
        assert len(calls) == (
            result.states_explored - 1
            if _stopped_at_floor(splitting, result)
            else min(result.states_explored, budget))
        assert len({AbstractSplitting(levels).canonical()
                    for levels in calls}) == len(calls)


def test_spliced_keys_match_keys_rebuilt_from_levels():
    # The search splices a successor's key from its parent's key and the
    # rewrite's codes, as it splices the levels.
    checked = 0
    for splitting in (_seeded_splittings(20, 67)
                      + _collapsible_splittings(20, 71)):
        frontier = [splitting]
        for _depth in range(3):
            successors = []
            for state in frontier:
                key = state.canonical()
                rewrites = legal_rewrites(state.levels)
                for (_move, start, stop, _replacement, codes), (
                        _, successor) in zip(rewrites, _successors(state)):
                    assert key[:start] + codes + key[stop:] == \
                        successor.canonical()
                    successors.append(successor)
            checked += len(successors)
            frontier = successors[::max(1, len(successors) // 4)]
    assert checked > 1000


def test_level_codes_equal_exactly_when_multisets_equal():
    components = [Component(chi, p) for chi in (2, 0, -2, -10, -12)
                  for p in (0, 1, 10, 11)]
    rng = random.Random(73)
    surfaces = [AbstractSurface(())]
    for size in (1, 2, 3):
        for _ in range(60):
            picked = [rng.choice(components) for _ in range(size)]
            surfaces.extend(AbstractSurface(order) for order in
                            set(itertools.permutations(picked)))
    for a in surfaces:
        for b in surfaces:
            assert (a.code == b.code) == \
                (sorted(a.pairs) == sorted(b.pairs))
    # hex has no digit limit, unlike str() of an int
    huge = AbstractSurface.of(Component(-2 * 10 ** 5000))
    assert huge.code != AbstractSurface.of(Component(-2 * 10 ** 5000 - 2)).code


def test_every_successor_passes_the_constructor():
    for splitting in (_seeded_splittings(40, 79)
                      + _collapsible_splittings(40, 83)):
        levels = splitting.levels
        for _move, start, stop, replacement, _codes in \
                legal_rewrites(levels):
            spliced = levels[:start] + replacement + levels[stop:]
            assert AbstractSplitting(spliced).levels == spliced


def test_emptiness_check_runs_once_per_cache_entry(monkeypatch):
    splitting = AbstractSplitting.of(
        EMPTY_SURFACE, AbstractSurface.of(genus(2)), EMPTY_SURFACE)
    original = hst.compress
    made = []

    def empties_second_compressions(surface, move):
        # G_DE, the only compression of a compressed surface, always
        # lands on a thin level, so emptying it breaks nothing
        if any(surface is g for g in made):
            return EMPTY_SURFACE
        out = original(surface, move)
        made.append(out)
        return out

    _clear_rewrite_caches()
    try:
        monkeypatch.setattr(hst, "compress", empties_second_compressions)
        assert any(successor.levels[2] is EMPTY_SURFACE
                   for _move, successor in _successors(splitting))
        _clear_rewrite_caches()
        monkeypatch.setattr(hst, "compress",
                            lambda surface, move: EMPTY_SURFACE)
        with pytest.raises(HstError, match="thick level 1 is empty"):
            legal_rewrites(splitting.levels)
    finally:
        _clear_rewrite_caches()


def _clear_rewrite_caches():
    hst._thick_level.cache_clear()
    hst._thick_level_rewrites.cache_clear()


def test_level_cache_fills_once_per_distinct_thick_level(monkeypatch):
    # Pool splittings 2, 10 and 20 of perfbench's search workload fill
    # their 10^4-state budgets; their thick levels meet many pairs of
    # neighbours.  One cold search evicts from neither cache.
    thick = set()
    original = hst.legal_rewrites

    def recording(levels):
        thick.update(levels[p].pairs for p in range(1, len(levels), 2))
        return original(levels)

    monkeypatch.setattr(hst, "legal_rewrites", recording)
    try:
        for i in (2, 10, 20):
            thick.clear()
            _clear_rewrite_caches()
            splitting = random_splitting(random.Random(f"splitting-{i}"))
            result = is_minimal_reachable(splitting, budget=10000)
            levels = hst._thick_level.cache_info()
            neighbourhoods = hst._thick_level_rewrites.cache_info()
            assert not result.certified
            assert levels.misses == levels.currsize == len(thick)
            assert neighbourhoods.misses > 10 * len(thick)
            for info in (levels, neighbourhoods):
                assert info.misses == info.currsize < hst.REWRITE_CACHE_SIZE
        # a thick level met only at the top has no untangle step
        _clear_rewrite_caches()
        assert legal_rewrites(splitting_from_json([[], [[-4, 2]]]).levels)
        assert "untangles" not in vars(hst._thick_level(((-4, 2),)))
    finally:
        _clear_rewrite_caches()


def test_thick_slots_hold_compressions_and_g_de_lands_thin():
    # Why _thick_level_rewrites checks only the level's compressions for
    # emptiness: every replacement level on an odd index is one of them,
    # and G_DE always lands on an even index.
    flags = set()
    for splitting in (_seeded_splittings(40, 79)
                      + _collapsible_splittings(40, 83)):
        levels = splitting.levels
        for move, start, _stop, replacement, _codes in \
                legal_rewrites(levels):
            p = move[1]
            compressed = {g.pairs for g in
                          hst._thick_level(levels[p].pairs).compressed}
            for i, level in enumerate(replacement, start):
                assert i % 2 == 0 or level.pairs in compressed
            if move[0] == "untangle":
                _, _, d, e, eq_d, eq_e = move
                flags.add((eq_d, eq_e))
                at = start if eq_d else start + 1
                assert at % 2 == 0
                assert replacement[at - start].pairs == \
                    hst._untangle(levels[p], d, e)[2].pairs
    assert len(flags) == 4


def test_random_descent_rejects_an_empty_thick_level(monkeypatch):
    monkeypatch.setattr(hst, "compress", lambda surface, move: EMPTY_SURFACE)
    with pytest.raises(HstError, match="thick level 1 is empty"):
        random_descent(splitting_from_json([[], [[-2, 0]]]),
                       random.Random(0))


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


def test_relative_compression_needs_only_two_punctures():
    # closed chi <= 2 and p >= 2 give chi - p <= 0, the relative
    # compression's essentiality clause, so the punctures decide alone
    for chi in range(-8, 3, 2):
        for punctures in range(7):
            surface = AbstractSurface.of(Component(chi, punctures))
            moves = component_moves(surface)
            assert any(isinstance(move, RelativeCompression)
                       for move in moves) == (punctures >= 2)
            assert hst._move_count(surface.pairs) == len(moves)


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
        for _move, successor in _successors(splitting):
            after = splitting_complexity(successor, True)
            assert after < before


def test_random_descent_terminates():
    rng = random.Random(5)
    for _ in range(200):
        splitting = random_splitting(rng)
        steps, final = random_descent(splitting, rng)
        assert not legal_rewrites(final.levels)
        assert splitting_complexity(final, True) <= \
            splitting_complexity(splitting, True)


def test_random_descent_steps_are_legal_rewrites(monkeypatch):
    # random_descent reads the complexity of its start and of each
    # successor once, so wrapping _relative_entries records the levels
    # of its path.
    path = []
    original = hst._relative_entries

    def recording(levels):
        path.append(levels)
        return original(levels)

    monkeypatch.setattr(hst, "_relative_entries", recording)
    rng = random.Random(7)
    total = 0
    for _ in range(300):
        path.clear()
        steps, final = random_descent(random_splitting(rng), rng)
        assert len(path) == steps + 1 and path[-1] is final.levels
        for before, after in zip(path, path[1:]):
            key = AbstractSplitting(after).canonical()
            assert any(successor.canonical() == key for _move, successor
                       in _successors(AbstractSplitting(before)))
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
