"""
Morse presentations of links and the width calculus.

A presentation lists critical events bottom to top: a birth inserts two
adjacent strands (a local minimum), a death joins two adjacent strands
(a local maximum).  Widths, thick and thin levels and the induced
splitting of the pair (3-sphere, link) depend only on the event
combinatorics, which is exactly what they are computed from here;
crossings between events are not modelled, so knot types are not
tracked.

Text format: one event per line, ``B i`` or ``D i``.
"""

from .hst import AbstractSplitting, AbstractSurface, Component, EMPTY_SURFACE
from .record import Record, setfield


class PresentationError(ValueError):
    """Raised for invalid Morse presentations or illegal moves."""


BIRTH = "B"
DEATH = "D"


class Event(Record):
    __slots__ = ("kind", "position")

    def __init__(self, kind, position):
        if kind not in (BIRTH, DEATH):
            raise PresentationError(f"unknown event kind {kind!r}")
        if position < 0:
            raise PresentationError("event position must be nonnegative")
        setfield(self, "kind", kind)
        setfield(self, "position", position)


class MorsePresentation(Record):
    """A validated event sequence with zero strands at both ends."""
    __slots__ = ("events",)

    def __init__(self, events):
        count = 0
        for i, ev in enumerate(events):
            if ev.kind == BIRTH:
                if ev.position > count:
                    raise PresentationError(
                        f"event {i}: birth at slot {ev.position} "
                        f"with only {count} strands")
                count += 2
            else:
                if count < 2:
                    raise PresentationError(
                        f"event {i}: death with {count} strands")
                if ev.position > count - 2:
                    raise PresentationError(
                        f"event {i}: death at slot {ev.position} "
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
                f"line {lineno}: expected 'B i' or 'D i', got {body!r}")
        try:
            pos = int(parts[1])
        except ValueError:
            raise PresentationError(
                f"line {lineno}: bad position {parts[1]!r}") from None
        events.append(Event(parts[0], pos))
    if not events:
        raise PresentationError("empty presentation")
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
    by the strands it meets.  Ends are empty.
    """
    prof = width(pres)
    if not prof.thick_indices:
        raise PresentationError("presentation has no thick level")
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

class ExchangeResult(Record):
    __slots__ = ("presentation", "width_decrease")

    def __init__(self, presentation, width_decrease):
        setfield(self, "presentation", presentation)
        setfield(self, "width_decrease", width_decrease)


def exchange_move(pres, death_index, birth_index):
    """Slide an independent maximum below the minimum just beneath it.

    The legal configuration is a birth immediately followed by a death
    (``death_index == birth_index + 1``) whose joined strands avoid the
    two newborn ones; swapping them replaces the intermediate regular
    level of n+2 strands by one of n-2, so the width drops by exactly 4.
    """
    events = pres.events
    if not (0 <= birth_index < len(events) and 0 <= death_index < len(events)):
        raise PresentationError("event index out of range")
    if death_index != birth_index + 1:
        raise PresentationError(
            "exchange needs a birth immediately followed by a death")
    birth = events[birth_index]
    death = events[death_index]
    if birth.kind != BIRTH or death.kind != DEATH:
        raise PresentationError(
            "exchange needs a birth immediately followed by a death")
    i_b, i_d = birth.position, death.position
    if i_b - 1 <= i_d <= i_b + 1:
        raise PresentationError(
            "events are not independent: the death touches a newborn strand")
    if i_d > i_b + 1:
        new_pair = (Event(DEATH, i_d - 2), Event(BIRTH, i_b))
    else:
        new_pair = (Event(DEATH, i_d), Event(BIRTH, i_b - 2))
    new_events = events[:birth_index] + new_pair + events[death_index + 1:]
    new_pres = MorsePresentation(new_events)
    decrease = width(pres).width - width(new_pres).width
    assert decrease == 4, "exchange must drop the width by exactly 4"
    return ExchangeResult(presentation=new_pres, width_decrease=decrease)


def legal_exchanges(pres):
    """All (death_index, birth_index) pairs accepted by exchange_move.

    A birth at slot i_b followed by a death at slot i_d is one exactly
    when i_d lies outside [i_b - 1, i_b + 1]; swapping such a pair
    always leaves a valid presentation, so no move is built here.
    """
    events = pres.events
    return [(b + 1, b) for b in range(len(events) - 1)
            if events[b].kind == BIRTH and events[b + 1].kind == DEATH
            and abs(events[b + 1].position - events[b].position) > 1]


# ---------------------------------------------------------------------------
# Width minimization
# ---------------------------------------------------------------------------

class ThinPositionResult(Record):
    __slots__ = ("minimum_width", "witness", "certified", "states_explored")

    def __init__(self, minimum_width, witness, certified, states_explored):
        setfield(self, "minimum_width", minimum_width)
        setfield(self, "witness", witness)
        setfield(self, "certified", certified)
        setfield(self, "states_explored", states_explored)


def thin_position_search(pres, budget=100000, mode="exchange",
                         single_component=False):
    """Minimal width over a search space derived from a presentation.

    ``mode="exchange"`` explores everything reachable from ``pres`` by
    exchange moves; each move strictly reduces width, so the space is
    finite, and ``budget``, at least 1, bounds the states it visits.

    ``mode="all"`` minimizes over every valid presentation with the same
    b births and b deaths, in closed form.  The width is the sum of the
    strand counts h_1..h_{2b-1} after every event but the last, and h_i/2
    has the parity of i, so h_i >= 2 for odd i: the minimum is 2b,
    reached only by (B D)^b.  With ``single_component`` (no strand count
    of zero between events) also h_i >= 4 for even i, so the minimum is
    6b - 4, reached only by B (B D)^(b-1) D.  The witness puts every
    event at slot zero; the answer is always certified.
    """
    if mode not in ("exchange", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exchange" and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if mode == "all":
        births = sum(1 for e in pres.events if e.kind == BIRTH)
        if single_component and births:
            kinds = BIRTH + (BIRTH + DEATH) * (births - 1) + DEATH
        else:
            kinds = (BIRTH + DEATH) * births
        witness = MorsePresentation.of(*kinds)
        return ThinPositionResult(minimum_width=width(witness).width,
                                  witness=witness, certified=True,
                                  states_explored=1)

    best = None
    best_pres = None
    explored = 0
    certified = True
    seen = set()
    stack = [pres]
    while stack:
        current = stack.pop()
        if current.events in seen:
            continue
        seen.add(current.events)
        explored += 1
        if explored > budget:
            certified = False
            break
        prof = width(current)
        if not (single_component and prof.hits_zero_interior) \
                and (best is None or prof.width < best):
            best, best_pres = prof.width, current
        for d, b in legal_exchanges(current):
            stack.append(exchange_move(current, d, b).presentation)

    if best is None:
        raise PresentationError(
            "no presentation satisfies the single-component flag")
    return ThinPositionResult(minimum_width=best, witness=best_pres,
                              certified=certified, states_explored=explored)


def all_presentations(event_count):
    """Every valid presentation with the given number of events.

    Positions are enumerated exhaustively; used by the property checks
    on exchange moves.
    """
    out = []

    def extend(events, count, remaining):
        if remaining == 0:
            if count == 0:
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
