import random

import pytest

from normalhst.hst import AbstractSplitting, legal_rewrites
from normalhst.thin_position import (BIRTH, DEATH, Event, MorsePresentation,
                                     PresentationError, all_presentations,
                                     exchange_move, format_presentation,
                                     induced_splitting, legal_exchanges,
                                     parse_presentation,
                                     thin_position_search, width)
from oracles import (exchange_minimum_by_search, exchanges_by_trial,
                     least_width_by_enumeration)


def levels_of(splitting):
    return [[(c.closed_chi, c.punctures) for c in lvl.components]
            for lvl in splitting.levels]


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

def test_validation():
    with pytest.raises(PresentationError, match="death"):
        MorsePresentation.of("D")
    with pytest.raises(PresentationError, match="zero"):
        MorsePresentation.of("B")
    with pytest.raises(PresentationError, match="slot"):
        MorsePresentation.of(("B", 1), ("D", 0))
    with pytest.raises(PresentationError, match="slot"):
        MorsePresentation.of(("B", 0), ("D", 1))
    assert all_presentations(0) == []


def test_parse_and_format():
    text = "B 0\nB 2\nD 1\nD 0\n"
    pres = parse_presentation(text)
    assert pres.events == (Event("B", 0), Event("B", 2),
                           Event("D", 1), Event("D", 0))
    assert format_presentation(pres) == text
    with pytest.raises(PresentationError, match="line 1"):
        parse_presentation("X 0\n")
    with pytest.raises(PresentationError, match="empty"):
        parse_presentation("# nothing\n")


# ---------------------------------------------------------------------------
# Width
# ---------------------------------------------------------------------------

def test_width_unknot():
    prof = width(MorsePresentation.of("B", "D"))
    assert prof.profile == (2,)
    assert prof.width == 2
    assert prof.thick_indices == (0,)
    assert prof.thin_indices == ()


def test_width_bridge_shape():
    prof = width(MorsePresentation.of("B", "B", "D", "D"))
    assert prof.profile == (2, 4, 2)
    assert prof.width == 8
    assert prof.thick_indices == (1,)


def test_width_stacked_flagged():
    prof = width(MorsePresentation.of("B", "D", "B", "D"))
    assert prof.profile == (2, 0, 2)
    assert prof.width == 4
    assert prof.hits_zero_interior
    assert prof.thick_indices == (0, 2)
    assert prof.thin_indices == (1,)


def test_profile_steps_by_two():
    for pres in all_presentations(6):
        prof = width(pres)
        assert prof.width == sum(prof.profile)
        padded = (0,) + prof.profile + (0,)
        assert all(abs(padded[i + 1] - padded[i]) == 2
                   for i in range(len(padded) - 1))


def test_thick_thin_strict_inequalities():
    for pres in all_presentations(6):
        prof = width(pres)
        padded = (0,) + prof.profile + (0,)
        for j in prof.thick_indices:
            assert padded[j] < padded[j + 1] > padded[j + 2]
        for j in prof.thin_indices:
            assert prof.profile[j - 1] > prof.profile[j] < prof.profile[j + 1]
        # thick and thin alternate, starting and ending thick
        marks = sorted([(j, "T") for j in prof.thick_indices]
                       + [(j, "t") for j in prof.thin_indices])
        assert "".join(m for _, m in marks) == \
            "T" + "tT" * (len(prof.thick_indices) - 1)


# ---------------------------------------------------------------------------
# Induced splittings
# ---------------------------------------------------------------------------

def test_induced_unknot():
    s = induced_splitting(MorsePresentation.of("B", "D"))
    assert levels_of(s) == [[], [(2, 2)], []]


def test_induced_three_thick():
    pres = MorsePresentation.of("B", "B", "D", "B", "D", "D")
    assert width(pres).profile == (2, 4, 2, 4, 2)
    s = induced_splitting(pres)
    assert levels_of(s) == [[], [(2, 4)], [(2, 2)], [(2, 4)], []]


def test_induced_bridge_position():
    s = induced_splitting(MorsePresentation.of("B", "B", "D", "D"))
    assert levels_of(s) == [[], [(2, 4)], []]


def test_induced_matches_profile_maxima():
    for pres in all_presentations(6):
        prof = width(pres)
        splitting = induced_splitting(pres)
        thick_punctures = [splitting.levels[i].components[0].punctures
                           for i in splitting.thick_indices()]
        assert thick_punctures == [prof.profile[j]
                                   for j in prof.thick_indices]
        for lvl in splitting.levels[1:-1]:
            assert all(c.closed_chi == 2 for c in lvl.components)


# ---------------------------------------------------------------------------
# Exchange moves
# ---------------------------------------------------------------------------

def test_exchange_requires_birth_then_death():
    pres = MorsePresentation.of("B", "D")
    with pytest.raises(PresentationError, match="independent"):
        exchange_move(pres, 0)
    with pytest.raises(PresentationError, match="birth immediately"):
        exchange_move(MorsePresentation.of("B", "B", "D", "D"), 0)
    for index in (1, -1):
        with pytest.raises(PresentationError,
                           match="event index out of range"):
            exchange_move(pres, index)


def test_exchange_legal_case():
    # [B0, B0, B0, D2, D0, D0]: the birth at index 2 inserts strands
    # 0,1; the death at index 3 joins strands 2,3 (old ones): legal.
    pres = MorsePresentation.of(("B", 0), ("B", 0), ("B", 0), ("D", 2),
                                ("D", 0), ("D", 0))
    before = width(pres).width
    result = exchange_move(pres, 2)
    assert width(result).width == before - 4
    # the swapped events: death first (reindexed), then birth
    kinds = result.kinds()
    assert kinds == "BBDBDD"


def test_exchange_interleaved_rejected():
    # death joins exactly the newborn strands
    pres = MorsePresentation.of(("B", 0), ("B", 0), ("D", 0), ("D", 0))
    with pytest.raises(PresentationError, match="independent"):
        exchange_move(pres, 1)


def test_all_legal_exchanges_drop_width_by_four():
    checked = 0
    for count in range(2, 7):
        for pres in all_presentations(count):
            w0 = width(pres).width
            for b in legal_exchanges(pres):
                assert width(exchange_move(pres, b)).width == w0 - 4
                checked += 1
    assert checked > 0


def test_legal_exchanges_match_trial_moves():
    found = 0
    for count in range(2, 9, 2):
        for pres in all_presentations(count):
            legal = legal_exchanges(pres)
            assert legal == exchanges_by_trial(pres)
            found += len(legal)
    assert found > 1000


def test_every_exchange_is_one_hst_rewrite():
    # The splitting induced after each legal exchange has the key of a
    # legal_rewrites successor of the splitting induced before it.
    found = []
    for count in (4, 6, 8):
        found.append(0)
        for pres in all_presentations(count):
            exchanges = legal_exchanges(pres)
            if not exchanges:
                continue
            levels = induced_splitting(pres).levels
            successors = {
                AbstractSplitting(levels[:start] + replacement
                                  + levels[stop:]).canonical()
                for _move, start, stop, replacement, _codes
                in legal_rewrites(levels)}
            for b in exchanges:
                after = induced_splitting(exchange_move(pres, b))
                assert after.canonical() in successors
                found[-1] += 1
    assert found == [2, 148, 15810]


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def test_search_all_two_births_two_deaths():
    pres = MorsePresentation.of("B", "B", "D", "D")
    free = thin_position_search(pres, mode="all")
    assert free.minimum_width == 4
    assert free.witness.kinds() == "BDBD"
    tied = thin_position_search(pres, mode="all", single_component=True)
    assert tied.minimum_width == 8


def test_search_one_birth_one_death():
    res = thin_position_search(MorsePresentation.of("B", "D"), mode="all")
    assert res.minimum_width == 2


def test_search_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'best'"):
        thin_position_search(MorsePresentation.of("B", "D"), mode="best")


def test_search_stacks():
    for k in (2, 3):
        pres = MorsePresentation.of(*(["B", "D"] * k))
        res = thin_position_search(pres, mode="all")
        assert res.minimum_width == 2 * k


def test_search_exchange_mode():
    pres = MorsePresentation.of(("B", 0), ("B", 0), ("B", 0), ("D", 2),
                                ("D", 0), ("D", 0))
    res = thin_position_search(pres, mode="exchange")
    assert res.minimum_width == width(pres).width - 4
    assert res.states_explored == 2


@pytest.mark.parametrize("single_component", [False, True])
def test_all_mode_closed_form_matches_enumeration(single_component):
    for births in range(1, 9):
        pres = MorsePresentation.of(*("B" * births + "D" * births))
        res = thin_position_search(pres, mode="all",
                                   single_component=single_component)
        assert (res.minimum_width, res.witness) == \
            least_width_by_enumeration(births, single_component)
        assert res.states_explored == 1


def random_presentation(rng, births):
    """A random kind sequence with ``births`` births, random legal slots."""
    events = []
    count = 0
    left = births
    while left or count:
        if left and (count == 0 or rng.random() < 0.5):
            events.append(Event(BIRTH, rng.randint(0, count)))
            count += 2
            left -= 1
        else:
            events.append(Event(DEATH, rng.randint(0, count - 2)))
            count -= 2
    return MorsePresentation(tuple(events))


def assert_descent_matches_search(pres, single_component):
    try:
        minimum, witness, exhausted = exchange_minimum_by_search(
            pres, single_component=single_component)
    except PresentationError as exc:
        assert width(pres).hits_zero_interior
        with pytest.raises(PresentationError) as info:
            thin_position_search(pres, single_component=single_component)
        assert str(info.value) == str(exc)
        return
    assert exhausted
    res = thin_position_search(pres, single_component=single_component)
    assert (res.minimum_width, res.witness) == (minimum, witness)
    assert res.minimum_width == \
        width(pres).width - 4 * (res.states_explored - 1)


@pytest.mark.parametrize("single_component", [False, True])
def test_exchange_descent_matches_search_on_every_small_presentation(
        single_component):
    checked = 0
    for count in range(1, 9):
        for pres in all_presentations(count):
            assert_descent_matches_search(pres, single_component)
            checked += 1
    assert checked == 22486


@pytest.mark.parametrize("single_component", [False, True])
def test_exchange_descent_matches_search_on_random_presentations(
        single_component):
    rng = random.Random(20261019)
    for _ in range(500):
        pres = random_presentation(rng, rng.randint(5, 12))
        assert_descent_matches_search(pres, single_component)


def test_induced_splitting_feeds_complexity_calculus():
    # the splitting induced by a presentation is a valid input to the
    # complexity side: thick level spheres with p punctures weigh
    # (2 - (2 - p))^2 = p^2 relatively
    from normalhst.hst import splitting_complexity
    pres = MorsePresentation.of("B", "B", "D", "B", "D", "D")
    splitting = induced_splitting(pres)
    relative = splitting_complexity(splitting, relative=True)
    assert relative == (16, 16)
    absolute = splitting_complexity(splitting)
    assert absolute == (0, 0)
