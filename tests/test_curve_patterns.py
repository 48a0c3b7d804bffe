import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalhst import model
from normalhst.curve_patterns import (CurvePattern, PatternError,
                                      _balanced_patterns, canonical_word,
                                      check_348, decompose_pattern,
                                      enumerate_normal_loops, loop_pattern,
                                      word_image)
from normalhst.limits import ResourceCeilingError
from oracles import (explicit_decompose_pattern, judge_348_loops,
                     naive_canonical_word)

TRIANGLE_WORDS = [canonical_word([e for e in range(6) if v in model.EDGES[e]])
                  for v in range(4)]
QUAD_WORDS = [canonical_word([s[3][0] for s in model.QUAD_CYCLES[q]])
              for q in range(3)]
OCT_BLOCKS = [((0, 0, 0, 0), (0, 0, 0), tuple(1 if i == q else 0
                                              for i in range(3)))
              for q in range(3)]


def test_single_triangle_loop():
    dec = decompose_pattern(loop_pattern(TRIANGLE_WORDS[0]))
    assert dec.lengths == (3,)


def test_single_quad_loop():
    for w in QUAD_WORDS:
        dec = decompose_pattern(loop_pattern(w))
        assert dec.lengths == (4,)


def test_parallel_quads():
    for k in (2, 3, 5):
        p = loop_pattern(QUAD_WORDS[0])
        total = p
        for _ in range(k - 1):
            total = total.add(p)
        dec = decompose_pattern(total)
        assert dec.lengths == (4,) * k


def test_two_quad_types_merge_to_octagon():
    p = loop_pattern(QUAD_WORDS[0]).add(loop_pattern(QUAD_WORDS[1]))
    assert decompose_pattern(p).lengths == (8,)


def test_edge_balance_violation():
    counts = [0] * 12
    counts[0] = 1
    with pytest.raises(PatternError, match="balance"):
        decompose_pattern(CurvePattern(tuple(counts)))
    with pytest.raises(PatternError, match="balance"):
        explicit_decompose_pattern(CurvePattern(tuple(counts)))


def test_counting_route_matches_explicit_on_small_patterns():
    patterns = _balanced_patterns(14)
    assert len(patterns) == 274
    for pattern in patterns:
        assert decompose_pattern(pattern) == \
            explicit_decompose_pattern(pattern), pattern.counts


def test_balanced_patterns_match_brute_force_filter():
    # every vector of 12 counts with at most 8 arcs, kept when each
    # edge's two faces put equally many arc ends on it
    sides = [[[i for i, (f, v) in enumerate(model.ARC_TYPES)
               if f == face and e in model.arc_endpoints(f, v)]
              for face in model.FACES_OF_EDGE[e]] for e in range(6)]
    balanced = []
    for total in range(9):
        for arcs in itertools.combinations_with_replacement(range(12), total):
            counts = [0] * 12
            for i in arcs:
                counts[i] += 1
            if all(sum(counts[i] for i in one) == sum(counts[i] for i in two)
                   for one, two in sides):
                balanced.append(tuple(counts))
    assert len(balanced) == 36
    assert sorted(p.counts for p in _balanced_patterns(8)) == sorted(balanced)


@pytest.mark.parametrize("octagons", [0, 1, 2])
def test_counting_route_matches_explicit_on_scaled_sums(octagons):
    # k times each loop pattern, k up to 300: sums of several quad types
    # merge into long loops, and a second octagon must stay a loop of
    # its own.
    rng = random.Random(f"scaled-sums-{octagons}")
    words = TRIANGLE_WORDS + QUAD_WORDS
    for _ in range(6):
        pattern = CurvePattern((0,) * 12)
        for word in words:
            k = rng.choice((0, 1, rng.randint(2, 300)))
            pattern = pattern.add(CurvePattern(
                tuple(k * c for c in loop_pattern(word).counts)))
        for _ in range(octagons):
            pattern = pattern.add(
                CurvePattern.from_block(rng.choice(OCT_BLOCKS)))
        dec = decompose_pattern(pattern)
        assert dec == explicit_decompose_pattern(pattern), pattern.counts
        assert sum(dec.lengths) == pattern.total()


def test_degenerate_words_rejected():
    with pytest.raises(PatternError):
        loop_pattern((0, 0, 1))
    with pytest.raises(PatternError):
        loop_pattern((0, 5, 1))      # opposite edges share no face
    with pytest.raises(PatternError):
        loop_pattern((0, 1))


def test_check_348_examples():
    oct_pattern = CurvePattern.from_block(OCT_BLOCKS[0])
    p = oct_pattern.add(loop_pattern(TRIANGLE_WORDS[2])) \
                   .add(loop_pattern(TRIANGLE_WORDS[3]))
    result = check_348(p)
    assert result.passed and result.octagons == 1

    assert check_348(CurvePattern((0,) * 12)).passed

    twelve = next(c for c in enumerate_normal_loops(12) if c.length == 12)
    bad = check_348(loop_pattern(twelve.representative))
    assert not bad.passed
    assert len(bad.witness) == 12


def test_check_348_two_octagons():
    double = CurvePattern.from_block(
        ((0, 0, 0, 0), (0, 0, 0), (2, 0, 0)))
    result = check_348(double)
    assert not result.passed and len(result.witness) == 8


def test_check_348_matches_expanded_judge_on_small_patterns():
    patterns = _balanced_patterns(12)
    for pattern in patterns:
        assert check_348(pattern) == judge_348_loops(
            explicit_decompose_pattern(pattern).loops), pattern.counts
    verdicts = {(check_348(p).passed, check_348(p).octagons) for p in patterns}
    assert verdicts == {(True, 0), (True, 1), (False, 0)}


@pytest.mark.parametrize("k", [1, 2, 3, 17, 1000])
def test_check_348_matches_expanded_judge_on_scaled_octagons(k):
    # k octagons alone, one or two octagons beside k triangles, and an
    # octagon with k loops of length 12 behind it in word order
    twelve = next(c for c in enumerate_normal_loops(12) if c.length == 12)
    octagon = CurvePattern.from_block(OCT_BLOCKS[0])
    triangles = CurvePattern(tuple(k * c for c in loop_pattern(
        TRIANGLE_WORDS[1]).counts))
    twelves = CurvePattern(tuple(k * c for c in loop_pattern(
        twelve.representative).counts))
    patterns = [CurvePattern(tuple(k * c for c in octagon.counts)),
                octagon.add(triangles),
                octagon.add(octagon).add(triangles),
                CurvePattern.from_block(((0, 0, 0, 0), (0, 0, 0), (2, 0, 0)))
                .add(triangles),
                octagon.add(twelves)]
    for pattern in patterns:
        assert check_348(pattern) == judge_348_loops(
            decompose_pattern(pattern).loops), pattern.counts
    assert check_348(patterns[0]).octagons == min(k, 2)
    assert check_348(patterns[2]).octagons == 2


def test_curve_loops_ceiling(monkeypatch):
    # five triangles around vertex 1 and one octagon
    pattern = CurvePattern(tuple(5 * c for c in loop_pattern(
        TRIANGLE_WORDS[1]).counts)).add(CurvePattern.from_block(OCT_BLOCKS[0]))
    monkeypatch.setenv("NORMALHST_CEILING", "6")
    assert decompose_pattern(pattern).lengths == (3, 3, 3, 3, 3, 8)
    monkeypatch.setenv("NORMALHST_CEILING", "5")
    with pytest.raises(ResourceCeilingError, match="6 loops exceed the "
                       "curve_loops ceiling 5"):
        decompose_pattern(pattern)
    # The 3/4/8 test lists no loops, so no ceiling applies to it.
    assert check_348(pattern).passed


def test_length_law_up_to_20():
    classes = enumerate_normal_loops(20)
    lengths = {c.length for c in classes}
    assert lengths <= {3, 4, 8, 12, 16, 20}
    assert all(c.length == 3 or c.length % 4 == 0 for c in classes)


def test_class_counts_3_4_8():
    classes = enumerate_normal_loops(8)
    by_length = {}
    for c in classes:
        by_length.setdefault(c.length, []).append(c)
    assert len(by_length[3]) == 1 and by_length[3][0].size == 4
    assert len(by_length[4]) == 1 and by_length[4][0].size == 3
    assert len(by_length[8]) == 1 and by_length[8][0].size == 3


def test_octagon_loops_match_octagon_coordinates():
    classes = enumerate_normal_loops(8)
    eights = next(c for c in classes if c.length == 8)
    loop_counts = {decompose_pattern(loop_pattern(w)).loops[0]
                   for w in eights.members}
    oct_counts = set()
    for block in OCT_BLOCKS:
        dec = decompose_pattern(CurvePattern.from_block(block))
        assert dec.lengths == (8,)
        oct_counts.add(dec.loops[0])
    assert loop_counts == oct_counts


def test_loop_words_round_trip():
    # a loop's own counts decompose back to exactly that loop
    for cls in enumerate_normal_loops(12):
        for word in cls.members:
            dec = decompose_pattern(loop_pattern(word))
            assert dec.loops == (canonical_word(word),)


def test_canonical_word_matches_naive_oracle():
    rng = random.Random("canonical-word")
    for _ in range(3000):
        letters = rng.randint(1, 6)
        word = [rng.randrange(letters) for _ in range(rng.randint(1, 40))]
        if rng.random() < 0.3:       # periodic: several least rotations
            word = word[:rng.randint(1, len(word))] * rng.randint(2, 5)
        expected = naive_canonical_word(word)
        assert canonical_word(word) == expected, word
        assert canonical_word(word[::-1]) == expected, word


def test_canonical_word_on_one_long_loop():
    # k quads of type 0 plus k - 1 of type 1 close up into one loop of
    # length 8k - 4
    k = 2000
    pattern = CurvePattern(tuple(
        k * a + (k - 1) * b
        for a, b in zip(loop_pattern(QUAD_WORDS[0]).counts,
                        loop_pattern(QUAD_WORDS[1]).counts)))
    (loop,) = decompose_pattern(pattern).loops
    assert len(loop) == 8 * k - 4
    turned = loop[k:] + loop[:k]
    assert naive_canonical_word(turned) == loop
    assert canonical_word(turned[::-1]) == loop


def test_symmetry_action_closes():
    classes = enumerate_normal_loops(8)
    all_words = {w for c in classes for w in c.members}
    for w in all_words:
        for p in model.S4:
            assert word_image(w, p) in all_words


def test_ceiling():
    with pytest.raises(ResourceCeilingError):
        enumerate_normal_loops(24)


@st.composite
def compatible_loop_multiset(draw):
    """Triangles, parallel quads of one type, at most one octagon."""
    tri_counts = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    quad_type = draw(st.integers(0, 2))
    quad_count = draw(st.integers(0, 3))
    use_oct = draw(st.booleans()) and quad_count == 0
    return tri_counts, quad_type, quad_count, use_oct


@given(compatible_loop_multiset())
@settings(max_examples=60, deadline=None)
def test_round_trip_compatible_families(spec):
    tri_counts, quad_type, quad_count, use_oct = spec
    pattern = CurvePattern((0,) * 12)
    expected = []
    for v, k in enumerate(tri_counts):
        for _ in range(k):
            pattern = pattern.add(loop_pattern(TRIANGLE_WORDS[v]))
            expected.append(3)
    for _ in range(quad_count):
        pattern = pattern.add(loop_pattern(QUAD_WORDS[quad_type]))
        expected.append(4)
    if use_oct:
        pattern = pattern.add(CurvePattern.from_block(OCT_BLOCKS[quad_type]))
        expected.append(8)
    dec = decompose_pattern(pattern)
    assert dec.lengths == tuple(sorted(expected))
