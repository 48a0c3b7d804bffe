"""
The complexity calculus of Heegaard-Scharlemann-Thompson splittings.

Surfaces are modelled at the component level: a component is a closed
surface of even Euler characteristic at most 2, optionally punctured by
a transverse graph (only the puncture count matters).  A splitting is an
alternating sequence of such surfaces, thin levels at even positions and
thick levels at odd ones.

The complexity of a surface is the sum of (2 - chi)^2 over components;
a splitting's complexity is the non-increasing vector of its thick-level
complexities, compared lexicographically with the convention that a
proper prefix is smaller.  Compression rewrites and the four-case
weak-reduction step strictly decrease these complexities, which is what
makes every rewrite search terminate.
"""

from functools import cached_property, lru_cache

from .limits import ResourceCeilingError, ceiling
from .record import Record, json_int, setfield


class HstError(ValueError):
    """Raised for invalid surfaces, splittings or moves."""


class Component(Record):
    """One closed surface component, possibly punctured."""
    __slots__ = ("closed_chi", "punctures")

    def __init__(self, closed_chi, punctures=0):
        if closed_chi % 2 or closed_chi > 2:
            raise HstError(
                f"closed Euler characteristic must be even and <= 2, "
                f"got {closed_chi}")
        if punctures < 0:
            raise HstError("puncture count must be nonnegative")
        setfield(self, "closed_chi", closed_chi)
        setfield(self, "punctures", punctures)

    @property
    def punctured_chi(self):
        return self.closed_chi - self.punctures

    def chi(self, relative):
        return self.punctured_chi if relative else self.closed_chi


SPHERE = Component(2)
TORUS = Component(0)


def genus(g, punctures=0):
    """Orientable genus-g component."""
    return Component(2 - 2 * g, punctures)


class AbstractSurface(Record):
    """A surface as an addressable list of components.

    Components are kept in list order so that moves can name them by
    index; multiset equality is what the splitting calculus compares.
    The cached properties live in the instance ``__dict__``.
    """
    __slots__ = ("components", "__dict__")

    def __init__(self, components):
        setfield(self, "components", components)

    @classmethod
    def of(cls, *components):
        return cls(tuple(components))

    @classmethod
    def from_pairs(cls, pairs):
        """Inverse of ``pairs``: components from (closed_chi, punctures)."""
        return cls(tuple(Component(chi, p) for chi, p in pairs))

    @property
    def is_empty(self):
        return not self.components

    def multiset(self):
        return self._multiset

    @cached_property
    def _multiset(self):
        return tuple(sorted((c.closed_chi, c.punctures)
                            for c in self.components))

    @cached_property
    def pairs(self):
        """The components as (closed_chi, punctures) pairs, in order."""
        return tuple((c.closed_chi, c.punctures) for c in self.components)

    @cached_property
    def relative_cost(self):
        """``c_surface(self, relative=True)``, computed once per object."""
        return c_surface(self, relative=True)

    @cached_property
    def moves(self):
        """``component_moves(self)`` as a tuple, computed once per object."""
        return tuple(component_moves(self))

    def same_surface(self, other):
        return self._multiset == other._multiset


EMPTY_SURFACE = AbstractSurface(())


def c_surface(surface, relative=False):
    """Sum of (2 - chi)^2 over components.

    With ``relative`` the punctured Euler characteristic is used, so a
    torus with three punctures scores (2 - (0 - 3))^2 = 25.
    """
    return sum((2 - comp.chi(relative)) ** 2 for comp in surface.components)


# ---------------------------------------------------------------------------
# Complexity vectors
# ---------------------------------------------------------------------------

LESS, EQUAL, GREATER = -1, 0, 1


class ComplexityVector(Record):
    """Non-increasing vector of nonnegative integers."""
    __slots__ = ("entries",)

    def __init__(self, entries):
        if any(e < 0 for e in entries):
            raise HstError("complexity entries must be nonnegative")
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise HstError("complexity vector must be non-increasing")
        setfield(self, "entries", entries)

    def __len__(self):
        return len(self.entries)


def compare_complexity(a, b):
    """Lexicographic comparison; a proper prefix is smaller.

    This is Python's tuple order.  The prefix rule makes dropping a
    thick level a strict decrease, which the termination arguments rely
    on.
    """
    xs = a.entries if isinstance(a, ComplexityVector) else tuple(a)
    ys = b.entries if isinstance(b, ComplexityVector) else tuple(b)
    return (xs > ys) - (xs < ys)


# ---------------------------------------------------------------------------
# Splittings
# ---------------------------------------------------------------------------

class AbstractSplitting(Record):
    """Alternating sequence of surfaces: thin at even, thick at odd index.

    Thick levels must be nonempty surfaces; thin levels, including the
    ends, may be empty.
    """
    __slots__ = ("levels",)

    def __init__(self, levels):
        if not levels:
            raise HstError("a splitting has at least one level")
        for i in range(1, len(levels), 2):
            if not levels[i].components:
                raise HstError(f"thick level {i} is empty")
        setfield(self, "levels", levels)

    @classmethod
    def of(cls, *levels):
        return cls(tuple(levels))

    def thick_indices(self):
        return tuple(range(1, len(self.levels), 2))

    @property
    def is_degenerate(self):
        """No thick level at all (a product or a collapsed splitting)."""
        return not self.thick_indices()

    def canonical(self):
        return tuple([level._multiset for level in self.levels])


def splitting_complexity(splitting, relative=False):
    """Thick-level complexities, sorted non-increasing."""
    if relative:
        return ComplexityVector(_relative_entries(splitting))
    values = sorted((c_surface(splitting.levels[i])
                     for i in splitting.thick_indices()), reverse=True)
    return ComplexityVector(tuple(values))


def _relative_entries(splitting):
    """The entries of the relative complexity vector, from each thick
    level's cached cost."""
    levels = splitting.levels
    return tuple(sorted([levels[i].relative_cost
                         for i in range(1, len(levels), 2)], reverse=True))


# ---------------------------------------------------------------------------
# Compressions
# ---------------------------------------------------------------------------

# A compression's ``kind`` is a field kept on its class: it takes part
# in equality, hashing and the repr, and is not a constructor argument.

class NonseparatingCompression(Record):
    """Compress along a nonseparating disk: chi increases by 2."""
    __slots__ = ("component", "branch")
    _fields = ("component", "branch", "kind")
    kind = "nonseparating"

    def __init__(self, component, branch=0):
        setfield(self, "component", component)
        setfield(self, "branch", branch)


class SeparatingCompression(Record):
    """Compress along a separating disk, splitting one component in two.

    chi1 + chi2 = chi + 2 with both parts of nonpositive Euler
    characteristic (no sphere is cut off); punctures are divided as the
    caller directs.
    """
    __slots__ = ("component", "chi1", "punctures1", "branch")
    _fields = ("component", "chi1", "punctures1", "branch", "kind")
    kind = "separating"

    def __init__(self, component, chi1, punctures1=0, branch=0):
        setfield(self, "component", component)
        setfield(self, "chi1", chi1)
        setfield(self, "punctures1", punctures1)
        setfield(self, "branch", branch)


class RelativeCompression(Record):
    """Isotopy across a disk cutting |F ∩ K| down by exactly two."""
    __slots__ = ("component", "branch")
    _fields = ("component", "branch", "kind")
    kind = "relative"

    def __init__(self, component, branch=0):
        setfield(self, "component", component)
        setfield(self, "branch", branch)


def compress(surface, move):
    """Apply one compression move; raises HstError on precondition failure."""
    comps = list(surface.components)
    if not (0 <= move.component < len(comps)):
        raise HstError(f"no component {move.component}")
    comp = comps[move.component]
    if isinstance(move, NonseparatingCompression):
        if comp.closed_chi > 0:
            raise HstError(
                "nonseparating compression needs chi <= 0 "
                "(essentiality: spheres admit none)")
        comps[move.component] = Component(comp.closed_chi + 2, comp.punctures)
    elif isinstance(move, SeparatingCompression):
        chi2 = comp.closed_chi + 2 - move.chi1
        if move.chi1 > 0 or chi2 > 0:
            raise HstError(
                "separating compression must not cut off a sphere "
                "(essentiality: both sides need chi <= 0)")
        if not (0 <= move.punctures1 <= comp.punctures):
            raise HstError("puncture split out of range")
        comps[move.component: move.component + 1] = [
            Component(move.chi1, move.punctures1),
            Component(chi2, comp.punctures - move.punctures1),
        ]
    elif isinstance(move, RelativeCompression):
        if comp.punctures < 2:
            raise HstError("relative compression needs at least 2 punctures")
        if comp.punctured_chi > 0:
            raise HstError(
                "relative compression needs punctured chi <= 0 "
                "(essentiality clause)")
        comps[move.component] = Component(comp.closed_chi, comp.punctures - 2)
    else:
        raise HstError(f"unknown move {move!r}")
    return AbstractSurface(tuple(comps))


def _compose_after(d_move, e_move):
    """Re-address the E move so it applies after the D move.

    When D was separating and both moves target the same component,
    ``e_move.branch`` picks which of the two pieces E acts on.
    """
    shift = 0
    if isinstance(d_move, SeparatingCompression):
        if e_move.component > d_move.component:
            shift = 1
        elif e_move.component == d_move.component:
            if e_move.branch not in (0, 1):
                raise HstError(
                    "E move on the component split by D needs branch 0 or 1")
            shift = e_move.branch
    return _readdressed(e_move, e_move.component + shift)


def _readdressed(move, component, branch=0):
    """A copy of ``move`` on ``component`` with ``branch``."""
    if isinstance(move, SeparatingCompression):
        return SeparatingCompression(component, move.chi1, move.punctures1,
                                     branch)
    return type(move)(component, branch)


def _splits_under(d_move, e_move):
    """Whether D cuts E's component in two, so E names a branch."""
    return isinstance(d_move, SeparatingCompression) \
        and e_move.component == d_move.component


# ---------------------------------------------------------------------------
# The four-case weak reduction step
# ---------------------------------------------------------------------------

def untangle_step(splitting, p, move_d, move_e, eq_d, eq_e):
    """Rewrite a thick level along a pair of opposite-side compressions.

    ``move_d`` compresses toward the thin level below, ``move_e`` toward
    the one above; both address components of level p.  ``eq_d`` and
    ``eq_e`` assert that the compressed surface is (parallel to) the
    neighbouring thin level; an equality claim whose surfaces do not
    even agree as multisets is rejected.  The four cases, written once
    in :func:`_splice` on the surfaces of :func:`_untangle`:

    1. neither equal: level p becomes G_D, G_DE, G_E;
    2. G_D equal below: levels p-1, p become G_DE, G_E;
    3. G_E equal above: levels p, p+1 become G_D, G_DE;
    4. both equal: levels p-1, p, p+1 collapse to G_DE.
    """
    levels = splitting.levels
    if p % 2 == 0:
        raise HstError(f"level {p} is thin; untangling rewrites thick levels")
    if not (1 <= p < len(levels) - 1):
        raise HstError(f"thick level {p} needs thin neighbours on both sides")
    g_d, g_e, g_de = _untangle(levels[p], move_d, move_e)
    if eq_d and not g_d.same_surface(levels[p - 1]):
        raise HstError("equality flag for the D side is inconsistent")
    if eq_e and not g_e.same_surface(levels[p + 1]):
        raise HstError("equality flag for the E side is inconsistent")
    start, stop, replacement = _splice(p, eq_d, eq_e, g_d, g_e, g_de)
    return AbstractSplitting(levels[:start] + replacement + levels[stop:])


def _untangle(g_p, move_d, move_e):
    """G_D, G_E and G_DE of the thick surface ``g_p``, compressed in
    that order, so an illegal pair raises :class:`HstError`."""
    g_d = compress(g_p, move_d)
    g_e = compress(g_p, move_e)
    return g_d, g_e, compress(g_d, _compose_after(move_d, move_e))


def _splice(p, eq_d, eq_e, g_d, g_e, g_de):
    """The four cases of :func:`untangle_step` at thick level p, as
    (start, stop, replacement) for ``levels[start:stop]``."""
    return (p - 1 if eq_d else p, p + 2 if eq_e else p + 1,
            ((g_de,) if eq_d else (g_d, g_de)) + (() if eq_e else (g_e,)))


# ---------------------------------------------------------------------------
# Underlying splitting
# ---------------------------------------------------------------------------

def _strip_spheres(surface):
    return AbstractSurface(tuple(Component(c.closed_chi)
                                 for c in surface.components
                                 if c.closed_chi != 2))


def underlying_splitting(splitting):
    """Forget sphere components and punctures, then renormalize.

    Sphere components are dropped from every level (punctures with
    them: the underlying splitting lives in the ambient manifold, not
    the pair).  Runs of consecutive levels that become equal multisets
    collapse to one level, the abstract surrogate for cobounding a
    product; empty surfaces landing at thick positions are then removed
    until the alternating shape is restored.  Idempotent; a result with
    no thick level is flagged via ``is_degenerate``.
    """
    seq = [_strip_spheres(level) for level in splitting.levels]
    while True:
        merged = []
        for level in seq:
            if not merged or not merged[-1].same_surface(level):
                merged.append(level)
        for i, level in enumerate(merged):
            if i % 2 == 1 and level.is_empty:
                del merged[i]
                break
        else:
            return AbstractSplitting(tuple(merged))
        seq = merged


# ---------------------------------------------------------------------------
# Move generation and the descent search
# ---------------------------------------------------------------------------

def component_moves(surface):
    """All legal compression moves on a surface, in deterministic order."""
    moves = []
    for i, comp in enumerate(surface.components):
        chi, p = comp.closed_chi, comp.punctures
        if chi <= 0:
            moves.append(NonseparatingCompression(i))
        for chi1 in range(chi + 2, 1, 2):
            for p1 in range(p + 1):
                moves.append(SeparatingCompression(i, chi1, p1))
        if p >= 2 and comp.punctured_chi <= 0:
            moves.append(RelativeCompression(i))
    return moves


def _move_count(pairs):
    """``len(component_moves(...))`` of the surface with these
    (closed_chi, punctures) components, without building a move.

    Per component: one nonseparating move when chi <= 0, p + 1 puncture
    splits for each of the -chi/2 values chi1 of a separating move, and
    one relative move when p >= 2 and chi - p <= 0.  The count is
    arithmetic, so a huge chi costs no more than a small one.
    """
    return sum((chi <= 0) + max(0, -chi // 2) * (p + 1)
               + (p >= 2 and chi - p <= 0)
               for chi, p in pairs)


def _untangle_moves(g_p):
    """Every legal untangle pair on the thick surface ``g_p``, as
    (D, E, G_D, G_E, G_DE), in deterministic order: each D, each E, and
    both branches of E where D splits E's component.

    Each move is compressed once, and each pair only for G_DE: every
    move in ``g_p.moves`` is legal on ``g_p``, so only G_DE can raise.
    G_E does not depend on E's branch, which only addresses G_DE.
    """
    moves = g_p.moves
    compressed = [compress(g_p, move) for move in moves]
    for d, g_d in zip(moves, compressed):
        for e, g_e in zip(moves, compressed):
            for branch in (0, 1) if _splits_under(d, e) else (0,):
                e_branch = _readdressed(e, e.component, branch)
                try:
                    g_de = compress(g_d, _compose_after(d, e_branch))
                except HstError:
                    continue
                yield d, e_branch, g_d, g_e, g_de


# Level triples kept by _thick_level_rewrites.  A 10000-state search on
# any of the 96 splittings of perfbench's search pool meets at most 886.
REWRITE_CACHE_SIZE = 1024


@lru_cache(maxsize=REWRITE_CACHE_SIZE)
def _thick_level_rewrites(p, below, thick, above):
    """The rewrites at thick level p, in the order of :func:`legal_rewrites`.

    ``thick`` is the level's ``pairs`` and ``below`` and ``above`` are
    the multisets of its thin neighbours (``above`` is None at the top):
    the moves address the thick level's components by index, and the
    neighbours only decide the untangle equality flags.  Returns
    (move, start, stop, replacement) tuples; a rewrite replaces
    ``levels[start:stop]`` by ``replacement``, which never holds a thin
    neighbour itself, so one triple serves every splitting that has it.
    Untangle steps come from :func:`_untangle_moves`, which compresses
    each move once and each move pair once more, and from
    :func:`_splice`.

    A level with m moves has up to about m^2 untangle candidates, and m
    grows with the level's |chi| and punctures.  m is counted by
    :func:`_move_count`, so a level whose m^2 passes the ``rewrites``
    ceiling raises :class:`ResourceCeilingError` before any move is
    built, at a cost that does not grow with chi or the punctures.  The
    ceiling is read only on a cache miss, so a level cached earlier in
    the same process is not checked again; reading the environment once
    per state would add to every state's cost.
    """
    moves = _move_count(thick)
    limit = ceiling("rewrites")
    if moves * moves > limit:
        raise ResourceCeilingError(
            f"thick level {p} has {moves} compressions, so {moves * moves} "
            f"move pairs to untangle, over the rewrites ceiling {limit}")
    level = AbstractSurface.from_pairs(thick)
    out = [(("compress", p, move), p, p + 1, (compress(level, move),))
           for move in level.moves]
    if above is not None:
        for d, e, g_d, g_e, g_de in _untangle_moves(level):
            eq_d, eq_e = g_d.multiset() == below, g_e.multiset() == above
            out.append((("untangle", p, d, e, eq_d, eq_e),)
                       + _splice(p, eq_d, eq_e, g_d, g_e, g_de))
    return tuple(out)


def legal_rewrites(splitting):
    """All single-move successors: thick-level compressions and
    untangle steps.  Deterministic order.

    Each thick level's rewrites come from a bounded cache keyed by the
    level and its two neighbours; a successor splices the cached
    replacement levels into this splitting's levels.
    """
    out = []
    levels = splitting.levels
    top = len(levels) - 1
    for p in range(1, len(levels), 2):
        above = levels[p + 1]._multiset if p < top else None
        for move, start, stop, replacement in _thick_level_rewrites(
                p, levels[p - 1]._multiset, levels[p].pairs, above):
            out.append((move, AbstractSplitting(
                levels[:start] + replacement + levels[stop:])))
    return out


class MinimalSearchResult(Record):
    __slots__ = ("minimum", "splitting", "trace", "certified",
                 "states_explored")

    def __init__(self, minimum, splitting, trace, certified, states_explored):
        setfield(self, "minimum", minimum)
        setfield(self, "splitting", splitting)
        setfield(self, "trace", trace)
        setfield(self, "certified", certified)
        setfield(self, "states_explored", states_explored)


def is_minimal_reachable(splitting, budget=10000):
    """Smallest complexity vector reachable by legal rewrites.

    Exhaustive depth-first search; every move strictly decreases the
    (relative) complexity vector, so the search space is finite and the
    search terminates.  ``budget``, at least 1, bounds the distinct
    states it visits, and ``certified`` reports whether it was exhausted
    within the budget; with punctures absent the relative vector equals
    the absolute one.

    Each visited state costs one :func:`legal_rewrites` call, which
    builds one splitting per successor by splicing cached level
    rewrites, and one canonical key per successor, a tuple of the
    levels' cached multisets; a successor whose key was already visited
    is not pushed.  So a state costs time linear in its number of
    successors times its number of levels.  Compressions and untangle
    steps are computed once per triple of a thick level, its index and
    its two thin neighbours; that cache is shared by all calls and keeps
    the ``REWRITE_CACHE_SIZE`` (1024) triples used most recently.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    best = _relative_entries(splitting)
    best_state = splitting
    best_trace = ()
    visited = set()
    explored = 0
    exhausted = True

    stack = [(splitting, splitting.canonical(), ())]
    while stack:
        state, key, trace = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        if explored > budget:
            exhausted = False
            break
        vec = _relative_entries(state)
        if vec < best:
            best, best_state, best_trace = vec, state, trace
        for move, successor in reversed(legal_rewrites(state)):
            successor_key = successor.canonical()
            if successor_key not in visited:
                stack.append((successor, successor_key, trace + (move,)))

    return MinimalSearchResult(minimum=ComplexityVector(best),
                               splitting=best_state,
                               trace=best_trace, certified=exhausted,
                               states_explored=explored)


def random_descent(splitting, rng):
    """Apply random legal rewrites until none remain.

    Draws single compressions directly and, on half of the steps,
    first attempts untangle steps with randomly paired moves (full
    enumeration of move pairs is avoided, so long runs stay cheap).
    Returns (moves applied, final splitting); asserts strict
    lexicographic descent at every step, so nontermination would
    surface as an error.
    """
    steps = 0
    current = splitting
    vec = _relative_entries(current)
    while True:
        thicks = current.thick_indices()
        levels = current.levels
        compressions = sum(len(levels[p].moves) for p in thicks)
        if not compressions:
            return steps, current
        successor = None
        interior = [p for p in thicks if 1 <= p < len(levels) - 1]
        if interior and rng.random() < 0.5:
            for _ in range(4):
                p = rng.choice(interior)
                moves = levels[p].moves
                if not moves:
                    continue
                d = rng.choice(moves)
                e = rng.choice(moves)
                if _splits_under(d, e):
                    e = _readdressed(e, e.component, rng.randint(0, 1))
                try:
                    g_d, g_e, g_de = _untangle(levels[p], d, e)
                except HstError:
                    continue
                start, stop, replacement = _splice(
                    p, g_d.same_surface(levels[p - 1]),
                    g_e.same_surface(levels[p + 1]), g_d, g_e, g_de)
                successor = AbstractSplitting(
                    levels[:start] + replacement + levels[stop:])
                break
        if successor is None:
            # The draw rng.choice(compressions) made over the list of
            # every (p, move), taken as an index into the per-level moves.
            k = rng.choice(range(compressions))
            for p in thicks:
                moves = levels[p].moves
                if k < len(moves):
                    break
                k -= len(moves)
            successor = AbstractSplitting(
                levels[:p] + (compress(levels[p], moves[k]),)
                + levels[p + 1:])
        new_vec = _relative_entries(successor)
        assert new_vec < vec, \
            "a rewrite failed to decrease complexity"
        current, vec = successor, new_vec
        steps += 1


def random_splitting(rng, max_punctures=3):
    """A random valid splitting for termination experiments.

    Above an empty bottom level come one or two pairs of a thick level
    of one or two components and a thin level of zero to two.  Each
    component has closed chi -4, -2 or 0 and at most ``max_punctures``
    punctures.
    """
    levels = [EMPTY_SURFACE]
    for _ in range(rng.randint(1, 2)):
        for least in (1, 0):
            levels.append(AbstractSurface(tuple(
                Component(2 * rng.randint(-2, 0),
                          rng.randint(0, max_punctures))
                for _ in range(rng.randint(least, 2)))))
    return AbstractSplitting(tuple(levels))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def surface_to_json(surface):
    return [[c.closed_chi, c.punctures] for c in surface.components]


def surface_from_json(data):
    """Parse ``[[chi, punctures], ...]``; both entries must be JSON integers.

    Floats, booleans and strings are rejected rather than coerced, so
    ``-2.7`` never reads as -2 nor ``true`` as one puncture.
    """
    return AbstractSurface(tuple(Component(json_int(chi, HstError),
                                           json_int(p, HstError))
                                 for chi, p in data))


def splitting_to_json(splitting):
    return [surface_to_json(level) for level in splitting.levels]


def splitting_from_json(data):
    return AbstractSplitting(tuple(surface_from_json(level)
                                   for level in data))


def move_to_json(move):
    out = {"kind": move.kind, "component": move.component}
    if isinstance(move, SeparatingCompression):
        out["chi1"] = move.chi1
        out["punctures1"] = move.punctures1
    if move.branch:
        out["branch"] = move.branch
    return out


def trace_to_json(trace):
    out = []
    for step in trace:
        if step[0] == "compress":
            out.append({"step": "compress", "level": step[1],
                        "move": move_to_json(step[2])})
        else:
            out.append({"step": "untangle", "level": step[1],
                        "move_d": move_to_json(step[2]),
                        "move_e": move_to_json(step[3]),
                        "eq_d": step[4], "eq_e": step[5]})
    return out
