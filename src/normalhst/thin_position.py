"""
Morse presentations of links and the width calculus.

A presentation lists critical events bottom to top: a birth inserts two
adjacent strands (a local minimum), a death joins two adjacent strands
(a local maximum).  Widths, thick and thin levels and the induced
splitting of the pair (3-sphere, link) depend only on the event
combinatorics, which is exactly what they are computed from here;
crossings between events are not modelled, so knot types are not
tracked.

Text format: one event per line, ``B i`` or ``D i``, i a canonical numeral.
"""

from .hst import AbstractSplitting, AbstractSurface, Component, EMPTY_SURFACE
from .record import Record, numeral, quoted, setfield


class PresentationError(ValueError):
    """Raised for invalid Morse presentations or illegal moves."""


BIRTH = "B"
DEATH = "D"


class Event(Record):
    __slots__ = ("kind", "position")

    def __init__(self, kind, position):
        if kind not in (BIRTH, DEATH):
            raise PresentationError(f"unknown event kind {quoted(kind)}")
        if position < 0:
            raise PresentationError("event position must be nonnegative")
        setfield(self, "kind", kind)
        setfield(self, "position", position)


class MorsePresentation(Record):
    """A validated nonempty event sequence with zero strands at both
    ends."""
    __slots__ = ("events",)

    def __init__(self, events):
        if not events:
            raise PresentationError("empty presentation")
        count = 0
        for i, ev in enumerate(events):
            if ev.kind == BIRTH:
                if ev.position > count:
                    raise PresentationError(
                        f"event {i}: birth at slot {quoted(ev.position)} "
                        f"with only {count} strands")
                count += 2
            else:
                if count < 2:
                    raise PresentationError(
                        f"event {i}: death with {count} strands")
                if ev.position > count - 2:
                    raise PresentationError(
                        f"event {i}: death at slot {quoted(ev.position)} "
                        f"with {count} strands")
                count -= 2
        if count != 0:
            raise PresentationError("strand count must return to zero")
        setfield(self, "events", events)

    @classmethod
    def of(cls, *specs):
        """From ('B', i) / ('D', i) pairs or 'B'/'D' strings (slot 0)."""
        events = []
        for spec in specs:
            if isinstance(spec, str):
                events.append(Event(spec, 0))
            else:
                events.append(Event(spec[0], spec[1]))
        return cls(tuple(events))

    def counts(self):
        """Strand counts after each event (length = event count)."""
        out = []
        count = 0
        for ev in self.events:
            count += 2 if ev.kind == BIRTH else -2
            out.append(count)
        return tuple(out)

    def kinds(self):
        return "".join(ev.kind for ev in self.events)


def parse_presentation(text):
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2 or parts[0] not in (BIRTH, DEATH):
            raise PresentationError(
                f"line {lineno}: expected 'B i' or 'D i', got {quoted(body)}")
        pos = numeral(parts[1])
        if pos is None or pos < 0:
            raise PresentationError(
                f"line {lineno}: bad position {quoted(parts[1])}")
        events.append(Event(parts[0], pos))
    return MorsePresentation(tuple(events))


def format_presentation(pres):
    return "\n".join(f"{ev.kind} {ev.position}" for ev in pres.events) + "\n"


# ---------------------------------------------------------------------------
# Width
# ---------------------------------------------------------------------------

class WidthProfile(Record):
    """Strand counts at the regular levels between consecutive events.

    The gaps before the first and after the last event carry zero
    strands and are excluded; they would contribute nothing to the
    width.  Thick indices are strict local maxima of the profile
    (against zero at the two ends), thin indices strict interior local
    minima.  ``hits_zero_interior`` flags presentations that fall apart
    into stacked pieces, the surrogate for a split or trivial component.
    """
    __slots__ = ("profile", "width", "thick_indices", "thin_indices",
                 "hits_zero_interior")

    def __init__(self, profile, width, thick_indices, thin_indices,
                 hits_zero_interior):
        setfield(self, "profile", profile)
        setfield(self, "width", width)
        setfield(self, "thick_indices", thick_indices)
        setfield(self, "thin_indices", thin_indices)
        setfield(self, "hits_zero_interior", hits_zero_interior)


def width(pres):
    """Width profile of a presentation."""
    counts = pres.counts()[:-1]      # regular levels between events
    profile = tuple(counts)
    padded = (0,) + profile + (0,)
    thick = tuple(j for j in range(len(profile))
                  if padded[j] < padded[j + 1] > padded[j + 2])
    thin = tuple(j for j in range(1, len(profile) - 1)
                 if profile[j - 1] > profile[j] < profile[j + 1])
    return WidthProfile(profile=profile, width=sum(profile),
                        thick_indices=thick, thin_indices=thin,
                        hits_zero_interior=0 in profile)


def induced_splitting(pres):
    """The splitting of (3-sphere, link) cut along regular level spheres.

    Level spheres at the thick and thin levels of the profile become the
    thick and thin levels of the splitting; each is a 2-sphere punctured
    by the strands it meets.  Ends are empty.  Every presentation has a
    thick level, since its constructor rejects the empty one:
    consecutive strand counts differ by 2 and both ends are padded with
    0, so the profile's maximum is a strict local maximum.
    """
    prof = width(pres)
    levels = [EMPTY_SURFACE]
    for k, j in enumerate(prof.thick_indices):
        levels.append(AbstractSurface.of(Component(2, prof.profile[j])))
        if k < len(prof.thick_indices) - 1:
            jt = prof.thin_indices[k]
            levels.append(AbstractSurface.of(Component(2, prof.profile[jt])))
    levels.append(EMPTY_SURFACE)
    return AbstractSplitting(tuple(levels))


# ---------------------------------------------------------------------------
# The width-reducing exchange
# ---------------------------------------------------------------------------

def _exchanged(birth, death):
    """The events (death, birth) that exchanging ``birth, death`` gives,
    or None when the death joins a newborn strand: |i_d - i_b| <= 1."""
    i_b, i_d = birth.position, death.position
    if i_d > i_b + 1:
        return Event(DEATH, i_d - 2), Event(BIRTH, i_b)
    if i_d < i_b - 1:
        return Event(DEATH, i_d), Event(BIRTH, i_b - 2)
    return None


def exchange_move(pres, birth_index):
    """Slide an independent maximum below the minimum just beneath it.

    The legal configuration is the birth at ``birth_index`` immediately
    followed by a death whose joined strands avoid the two newborn ones;
    swapping them replaces the intermediate regular level of n+2 strands
    by one of n-2, so the width of the returned presentation is exactly 4
    less.

    Each exchange is one HST rewrite of the induced splittings: over
    every presentation of 4, 6 and 8 events, the splitting induced after
    each legal exchange has the key of one :func:`.hst.legal_rewrites`
    successor of the splitting induced before it (2, 148 and 15,810
    exchanges; ``tests/test_thin_position.py``).  This is measured, not
    proved, and which untangle case an exchange is stays open.
    """
    events = pres.events
    if not 0 <= birth_index < len(events) - 1:
        raise PresentationError("event index out of range")
    birth, death = events[birth_index], events[birth_index + 1]
    if birth.kind != BIRTH or death.kind != DEATH:
        raise PresentationError(
            "exchange needs a birth immediately followed by a death")
    new_pair = _exchanged(birth, death)
    if new_pair is None:
        raise PresentationError(
            "events are not independent: the death touches a newborn strand")
    new_pres = MorsePresentation(
        events[:birth_index] + new_pair + events[birth_index + 2:])
    assert width(pres).width - width(new_pres).width == 4, \
        "exchange must drop the width by exactly 4"
    return new_pres


def legal_exchanges(pres):
    """The birth indices accepted by exchange_move.

    A birth at slot i_b followed by a death at slot i_d is one exactly
    when i_d lies outside [i_b - 1, i_b + 1]; swapping such a pair
    always leaves a valid presentation, so no move is built here.
    """
    events = pres.events
    return [b for b in range(len(events) - 1)
            if events[b].kind == BIRTH and events[b + 1].kind == DEATH
            and abs(events[b + 1].position - events[b].position) > 1]


# ---------------------------------------------------------------------------
# Width minimization
# ---------------------------------------------------------------------------

class ThinPositionResult(Record):
    __slots__ = ("minimum_width", "witness", "states_explored")

    def __init__(self, minimum_width, witness, states_explored):
        setfield(self, "minimum_width", minimum_width)
        setfield(self, "witness", witness)
        setfield(self, "states_explored", states_explored)


def thin_position_search(pres, mode="exchange", single_component=False):
    """Minimal width over a search space derived from a presentation.

    ``mode="exchange"`` minimizes over the presentations that exchange
    moves reach from ``pres``.  An exchange rewrites one adjacent pair of
    a birth then a death and changes only those two events and the level
    between them, which drops by exactly 4.  Whether it is legal depends
    only on its two events, and with ``single_component`` on the strand
    count n before the pair, which no other exchange changes.  So two
    distinct legal exchanges act on disjoint pairs and commute.  Every
    exchange lowers the width, so the rewriting terminates, and by
    Newman's lemma there is one normal form, the end of every maximal
    chain of exchanges; all such chains have one length.  With
    ``single_component`` an exchange at n = 2 makes a zero level that no
    exchange raises, so only exchanges at n >= 4 count, and the same
    holds for them.  A presentation of least width has no move left, so
    it is that normal form, the only one.

    One left-to-right insertion pass builds such a chain: each death
    sinks below every birth it may pass, and the births it passes are
    followed by births or nothing, so no move is left.  It costs
    O(events + exchanges), at most b^2 exchanges for b births;
    ``states_explored`` is 1 plus the number of exchanges.

    ``mode="all"`` minimizes over every valid presentation with the same
    b births and b deaths, in closed form.  The width is the sum of the
    strand counts h_1..h_{2b-1} after every event but the last, and h_i/2
    has the parity of i, so h_i >= 2 for odd i: the minimum is 2b,
    reached only by (B D)^b.  With ``single_component`` (no strand count
    of zero between events) also h_i >= 4 for even i, so the minimum is
    6b - 4, reached only by B (B D)^(b-1) D.  The witness puts every
    event at slot zero, and ``states_explored`` is 1.
    """
    if mode not in ("exchange", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all":
        births = sum(1 for e in pres.events if e.kind == BIRTH)
        if single_component:
            kinds = BIRTH + (BIRTH + DEATH) * (births - 1) + DEATH
        else:
            kinds = (BIRTH + DEATH) * births
        witness = MorsePresentation.of(*kinds)
        return ThinPositionResult(minimum_width=width(witness).width,
                                  witness=witness, states_explored=1)

    if single_component and width(pres).hits_zero_interior:
        raise PresentationError(
            "no presentation satisfies the single-component flag")
    # level is the strand count just before the sinking death, n + 2
    floor = 6 if single_component else 0
    events = []
    exchanges = 0
    for ev, level in zip(pres.events, (0,) + pres.counts()):
        j = len(events)
        events.append(ev)
        while ev.kind == DEATH and j and events[j - 1].kind == BIRTH \
                and level >= floor:
            pair = _exchanged(events[j - 1], events[j])
            if pair is None:
                break
            events[j - 1:j + 1] = pair
            j -= 1
            level -= 2
            exchanges += 1
    witness = MorsePresentation(tuple(events))
    return ThinPositionResult(minimum_width=width(witness).width,
                              witness=witness,
                              states_explored=1 + exchanges)


def all_presentations(event_count):
    """Every valid presentation with the given number of events; none
    has 0 events.

    Positions are enumerated exhaustively; used by the property checks
    on exchange moves.
    """
    out = []

    def extend(events, count, remaining):
        if remaining == 0:
            if count == 0 and events:
                out.append(MorsePresentation(tuple(events)))
            return
        if count > 2 * remaining:
            return                   # cannot fall back to zero strands
        for pos in range(count + 1):
            events.append(Event(BIRTH, pos))
            extend(events, count + 2, remaining - 1)
            events.pop()
        if count >= 2:
            for pos in range(count - 1):
                events.append(Event(DEATH, pos))
                extend(events, count - 2, remaining - 1)
                events.pop()

    extend([], 0, event_count)
    return out
