"""
The complexity calculus of Heegaard-Scharlemann-Thompson splittings.

Surfaces are modelled at the component level: a component is a closed
surface of even Euler characteristic at most 2, optionally punctured by
a transverse graph (only the puncture count matters).  A splitting is an
alternating sequence of such surfaces, thin levels at even positions and
thick levels at odd ones.

The complexity of a surface is the sum of (2 - chi)^2 over components;
a splitting's complexity is the non-increasing vector of its thick-level
complexities, a tuple compared by Python's tuple order: lexicographic,
with a proper prefix smaller.  The prefix rule makes dropping a thick
level a strict decrease.  Compression rewrites and the four-case
weak-reduction step strictly decrease these complexities, which is what
makes every rewrite search terminate.
"""

from functools import lru_cache

from .limits import ResourceCeilingError, ceiling
from .record import Record, derived, json_array, json_int, quoted, setfield


class HstError(ValueError):
    """Raised for invalid surfaces, splittings or moves."""


class Component(Record):
    """One closed surface component, possibly punctured."""
    __slots__ = ("closed_chi", "punctures")

    def __init__(self, closed_chi, punctures=0):
        if closed_chi % 2 or closed_chi > 2:
            raise HstError(
                f"closed Euler characteristic must be even and <= 2, "
                f"got {quoted(closed_chi)}")
        if punctures < 0:
            raise HstError("puncture count must be nonnegative")
        setfield(self, "closed_chi", closed_chi)
        setfield(self, "punctures", punctures)

    def chi(self, relative):
        return self.closed_chi - (self.punctures if relative else 0)


SPHERE = Component(2)
TORUS = Component(0)


def genus(g, punctures=0):
    """Orientable genus-g component."""
    return Component(2 - 2 * g, punctures)


class AbstractSurface(Record):
    """A surface as an addressable list of components.

    Components are kept in list order so that moves can name them by
    index; multiset equality is what the splitting calculus compares.
    The derived values live in the instance ``__dict__``.
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

    def multiset(self):
        return tuple(sorted(self.pairs))

    @derived
    def pairs(self):
        """The components as (closed_chi, punctures) pairs, in order."""
        return tuple([(c.closed_chi, c.punctures) for c in self.components])

    @derived
    def code(self):
        """The multiset of components as one string: each component's
        closed chi and punctures in hex, sorted and joined.  Each piece
        reads back as one (closed_chi, punctures) pair, so equal codes
        mean equal multisets.  A string keeps its hash once computed,
        and hex has no digit limit."""
        return " ".join(sorted([f"{c.closed_chi:x},{c.punctures:x}"
                                for c in self.components]))

    @derived
    def relative_cost(self):
        """``c_surface(self, relative=True)``, computed once per object."""
        return c_surface(self, relative=True)

    @derived
    def moves(self):
        """``component_moves(self)`` as a tuple, computed once per object."""
        return tuple(component_moves(self))

    @derived
    def compressed(self):
        """``compress(self, move)`` for each of ``moves``, in order,
        computed once per object."""
        return tuple([compress(self, move) for move in self.moves])

    @derived
    def untangles(self):
        """Every legal untangle pair on this surface as a thick level:
        (D, E, G_D, G_E, G_DE) for each D, each E, and both branches of E
        where D splits E's component, computed once per object.  G_D and
        G_E come from ``compressed``, so only G_DE is compressed per pair
        and only it can raise; G_E does not depend on E's branch."""
        out = []
        for d, g_d in zip(self.moves, self.compressed):
            for e, g_e in zip(self.moves, self.compressed):
                for branch in (0, 1) if _splits_under(d, e) else (0,):
                    # the moves of self.moves all have branch 0
                    e_branch = _readdressed(e, e.component, branch) \
                        if branch else e
                    try:
                        g_de = compress(g_d, _compose_after(d, e_branch))
                    except HstError:
                        continue
                    out.append((d, e_branch, g_d, g_e, g_de))
        return tuple(out)


EMPTY_SURFACE = AbstractSurface(())


def c_surface(surface, relative=False):
    """Sum of (2 - chi)^2 over components.

    With ``relative`` the punctured Euler characteristic is used, so a
    torus with three punctures scores (2 - (0 - 3))^2 = 25.
    """
    return sum((2 - comp.chi(relative)) ** 2 for comp in surface.components)


# ---------------------------------------------------------------------------
# Splittings
# ---------------------------------------------------------------------------

class AbstractSplitting(Record):
    """Alternating sequence of surfaces: thin at even, thick at odd index.

    Thick levels must be nonempty surfaces; thin levels, including the
    ends, may be empty.  The constructor checks every thick level.
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
        """The levels' codes in order.

        Two splittings have equal keys exactly when their levels are
        equal multisets, level by level.  The search does not call this
        on its successors: it splices each successor's key from its
        parent's and the rewrite's codes (see :func:`is_minimal_reachable`).
        """
        return tuple([level.code for level in self.levels])


def splitting_complexity(splitting, relative=False):
    """Thick-level complexities as a tuple, sorted non-increasing."""
    if relative:
        return _relative_entries(splitting.levels)
    return tuple(sorted([c_surface(splitting.levels[i])
                         for i in splitting.thick_indices()], reverse=True))


def _relative_entries(levels):
    """The entries of the relative complexity vector of the splitting
    with these levels, from each thick level's cached cost."""
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
    """Isotopy across a disk cutting |F ∩ K| down by exactly two.  It
    needs p >= 2 punctures, and its essentiality clause chi - p <= 0 then
    holds, since a component's closed chi is at most 2."""
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
        comps[move.component] = Component(comp.closed_chi, comp.punctures - 2)
    else:
        raise HstError(f"unknown move {move!r}")
    return AbstractSurface(tuple(comps))


def _compose_after(d_move, e_move):
    """Re-address the E move so it applies after the D move.

    When D was separating and both moves target the same component,
    ``e_move.branch``, 0 or 1, picks which of the two pieces E acts on.
    """
    shift = 0
    if isinstance(d_move, SeparatingCompression):
        if e_move.component > d_move.component:
            shift = 1
        elif e_move.component == d_move.component:
            shift = e_move.branch
    if not (shift or e_move.branch):
        return e_move
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

def untangle_step(splitting, p, move_d, move_e):
    """Rewrite a thick level along a pair of opposite-side compressions.

    ``move_d`` compresses toward the thin level below, ``move_e`` toward
    the one above; both address components of level p, and only E names
    a branch, where D splits E's component.  G_D collapses into the thin
    level below when the two are equal multisets, and G_E into the one
    above likewise.  The four cases, written once in :func:`_splice` on
    the surfaces of :func:`_untangle`:

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
    if move_d.branch:
        raise HstError(f"D move names branch {quoted(move_d.branch)}; "
                       f"only an E move names a branch")
    branches = (0, 1) if _splits_under(move_d, move_e) else (0,)
    if move_e.branch not in branches:
        raise HstError(f"E move names branch {quoted(move_e.branch)}; only "
                       f"a D that splits its component gives branches 0, 1")
    return AbstractSplitting(_untangled(levels, p, move_d, move_e))


def _untangled(levels, p, move_d, move_e):
    """The levels after :func:`untangle_step`; an illegal pair raises."""
    g_d, g_e, g_de = _untangle(levels[p], move_d, move_e)
    start, stop, replacement = _splice(
        p, g_d.code == levels[p - 1].code, g_e.code == levels[p + 1].code,
        g_d, g_e, g_de)
    return levels[:start] + replacement + levels[stop:]


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
            if not merged or merged[-1].code != level.code:
                merged.append(level)
        for i, level in enumerate(merged):
            if i % 2 == 1 and not level.components:
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
        if p >= 2:
            moves.append(RelativeCompression(i))
    return moves


def _move_count(pairs):
    """``len(component_moves(...))`` of the surface with these
    (closed_chi, punctures) components, without building a move.

    Per component: one nonseparating move when chi <= 0, p + 1 puncture
    splits for each of the -chi/2 values chi1 of a separating move, and
    one relative move when p >= 2.  The count is arithmetic, so a huge
    chi costs no more than a small one.
    """
    return sum((chi <= 0) + max(0, -chi // 2) * (p + 1) + (p >= 2)
               for chi, p in pairs)


# Entries kept by each of the two rewrite caches.  One cold 10000-state
# search fits in both without eviction (30/24/18 and 668/543/232 entries
# on pool splittings 2, 10 and 20 of perfbench's search workload); the 96
# pool searches in one process fill the second with 13,680 misses.
REWRITE_CACHE_SIZE = 1024


@lru_cache(maxsize=REWRITE_CACHE_SIZE)
def _thick_level(thick):
    """The surface whose components are ``thick`` (a thick level's
    ``pairs``), one object per distinct thick level.

    Its derived ``compressed`` and ``untangles`` hold the level's
    compressions and untangle pairs, computed on first read.  Neither
    depends on the level's index or its neighbours, so a thick level is
    compressed once while it stays in this cache, whatever neighbours it
    meets, and a level met only at the top computes no untangle pair.
    The caller has checked the ``rewrites`` ceiling first.
    """
    return AbstractSurface.from_pairs(thick)


@lru_cache(maxsize=REWRITE_CACHE_SIZE)
def _thick_level_rewrites(p, below, thick, above):
    """The rewrites at thick level p, in the order of :func:`legal_rewrites`.

    ``thick`` is the level's ``pairs`` and ``below`` and ``above`` are
    the codes of its thin neighbours (``above`` is None at the top): the
    moves address the thick level's components by index, and the
    neighbours only decide the untangle equality flags, which compare
    G_D and G_E with them by code.  Returns (move, start, stop,
    replacement, codes) tuples; a rewrite replaces ``levels[start:stop]``
    by ``replacement``, whose levels have the codes ``codes`` and never
    include a thin neighbour itself, so one entry serves every splitting
    that has this level and these neighbours.  The compressed surfaces
    come from :func:`_thick_level`, keyed by the thick level alone; this
    entry adds the flags and, by :func:`_splice`, the four cases of each
    untangle step.

    On a miss each of the level's compressions is checked once: an empty
    one raises ``thick level {p} is empty``.  Every thick slot of every
    replacement holds one of them: G in a compression rewrite, G_D at p
    (untangle cases 1 and 3), G_E at p (case 2) or p + 2 (case 1), and
    G_E does not depend on E's branch.  G_DE lands on p - 1 (cases 2 and
    4) or p + 1 (cases 1 and 3), both thin.

    A level with m moves has up to about m^2 untangle candidates, and m
    grows with the level's |chi| and punctures.  m is counted by
    :func:`_move_count`, so a level whose m^2 passes the ``rewrites``
    ceiling raises :class:`ResourceCeilingError` before any move is
    built, at a cost that does not grow with chi or the punctures.  The
    ceiling is read only on a miss of this cache, so a level cached
    earlier in the same process is not checked again; reading the
    environment once per state would add to every state's cost.
    """
    moves = _move_count(thick)
    limit = ceiling("rewrites")
    if moves * moves > limit:
        raise ResourceCeilingError(
            f"thick level {p} has {moves} compressions, so {moves * moves} "
            f"move pairs to untangle, over the rewrites ceiling {limit}")
    level = _thick_level(thick)
    if not all([g.components for g in level.compressed]):
        raise HstError(f"thick level {p} is empty")
    rewrites = [(("compress", p, move), p, p + 1, (g,), (g.code,))
                for move, g in zip(level.moves, level.compressed)]
    if above is not None:
        for d, e, g_d, g_e, g_de in level.untangles:
            eq_d, eq_e = g_d.code == below, g_e.code == above
            start, stop, replacement = _splice(p, eq_d, eq_e, g_d, g_e, g_de)
            rewrites.append((("untangle", p, d, e, eq_d, eq_e), start, stop,
                             replacement,
                             tuple([g.code for g in replacement])))
    return tuple(rewrites)


def legal_rewrites(levels):
    """All single-move rewrites of the splitting with these levels:
    thick-level compressions and untangle steps, in deterministic order.

    Each is (move, start, stop, replacement, codes): the successor has
    the levels ``levels[:start] + replacement + levels[stop:]``, and its
    key (see :meth:`AbstractSplitting.canonical`) is the splitting's key
    with ``codes`` spliced in the same way.  The checking constructor
    accepts every successor.  The rewrites of each thick level come from
    a bounded cache keyed by the level and its two neighbours
    (:func:`_thick_level_rewrites`), and the result joins those cached
    tuples.  So a call costs one cache lookup per thick level, hashing
    its index, its pairs and two string codes, and builds no successor.
    """
    top = len(levels) - 1
    out = []
    for p in range(1, len(levels), 2):
        out += _thick_level_rewrites(p, levels[p - 1].code, levels[p].pairs,
                                     levels[p + 1].code if p < top else None)
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


def _end_floor(levels):
    """A vector at most the relative complexity vector of every splitting
    reachable by rewrites from the splitting with these levels.

    Call a thick level persistent when no rewrite removes it and a
    rewrite that changes it puts one of its own compressions in its
    place.  Up to two thick levels persist:

    - Compressions never lower a surface's component count, so G_D and
      G_E are never empty and an empty neighbour never passes an
      equality flag.
    - If ``levels[0]`` is empty, no rewrite starts at index 0: that
      would be an untangle step at level 1 with the D flag.  So level 1
      stays thick and is replaced only by its own compressions: G, or
      G_D in untangle cases 1 and 3.
    - The top thick level stays and is replaced only by its own
      compressions in two cases.  (i) The length is even: the top level
      is thick and has no untangle step.  (ii) The length is odd and
      ``levels[-1]`` is empty: no flag on the E side passes, so the top
      thick level at len - 2 is replaced only by G or G_E.  Every
      rewrite changes the length by an even count, so the parity holds.
    - Untangle case 4 needs both flags, so it removes neither of these
      levels, and the two stay distinct when they start distinct.

    Compressions never lower a level's number of components with an odd
    puncture count: a nonseparating compression keeps p, a relative one
    takes p to p - 2, and a separating split of an odd p leaves exactly
    one odd part.  Such a component costs (2 - chi + p)^2 >= 1, since
    2 - chi + p is odd.  So each persistent level's cost is at least its
    odd-component count at the start, and the k-th largest entry of
    every reachable vector is at least the k-th largest of these counts.
    With the prefix rule, every reachable vector is at least the tuple
    of the persistent levels' odd-component counts sorted
    non-increasing, which is () when neither end persists.
    """
    top = len(levels) - 1
    ends = set()
    if top and not levels[0].components:
        ends.add(1)
    if top % 2:
        ends.add(top)
    elif top and not levels[top].components:
        ends.add(top - 1)
    return tuple(sorted([sum([p % 2 for _, p in levels[i].pairs])
                         for i in ends], reverse=True))


def is_minimal_reachable(splitting, budget=10000):
    """Smallest complexity vector reachable by legal rewrites.

    Depth-first search; every move strictly decreases the (relative)
    complexity vector, so the search space is finite and the search
    terminates.  ``budget``, at least 1, bounds the distinct states it
    visits, and ``certified`` reports whether it was exhausted within
    the budget or stopped at the floor; with punctures absent the
    relative vector equals the absolute one.

    The floor, from :func:`_end_floor` on the start, is at most every
    reachable vector.  So the search stops, certified, once its best
    vector equals the floor.  The check follows the best update, so a
    start at its floor stops after one state, and the state that reaches
    the floor is counted in ``states_explored`` but not expanded.  (It
    has no rewrite anyway: each of its thick levels costs exactly its
    odd-component count, so it holds only spheres with at most one
    puncture.)  It is the first state at the minimum in the search
    order, so its vector, levels and trace are those an exhaustive
    search would return: that search keeps the first state it meets at
    the least vector.

    The stack holds (levels, key, trace) triples, and a state is its
    tuple of levels: no splitting is built per state, and only the
    returned best splitting goes through the constructor.  Each state
    would pass its emptiness check.  It comes from a checked splitting by
    rewrites of :func:`legal_rewrites`, ``levels[:start] + replacement +
    levels[stop:]``.  The replacement's thick levels are compressions,
    checked nonempty (see :func:`_thick_level_rewrites`).  The levels
    after it move by len(replacement) - (stop - start), which is even for
    every rewrite (+2 in untangle case 1, -2 in case 4, 0 otherwise), so
    each keeps its parity and was checked where it came from.

    Each expanded state costs one :func:`legal_rewrites` call, one cache
    lookup per thick level.  Per rewrite, the successor's key is spliced
    first, from the state's key and the rewrite's cached codes: a tuple
    of string codes, which keep their hashes, so a successor already
    visited, about three in four, is dropped for the cost of two tuple
    slices, two joins and one hash.  Only an unvisited successor has its
    levels spliced.  So a state costs time linear in its number of
    successors times its number of levels.  Compressions and untangle
    pairs are computed once per distinct thick level, and their flags
    and splices once per thick level, index and pair of thin neighbours;
    both caches are shared by all calls and each keeps the
    ``REWRITE_CACHE_SIZE`` (1024) entries used most recently.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    best_levels = splitting.levels
    best = _relative_entries(best_levels)
    best_trace = ()
    floor = _end_floor(best_levels)
    visited = set()
    explored = 0
    exhausted = True

    stack = [(best_levels, splitting.canonical(), ())]
    while stack:
        levels, key, trace = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        if explored > budget:
            exhausted = False
            break
        vec = _relative_entries(levels)
        if vec < best:
            best, best_levels, best_trace = vec, levels, trace
        if best == floor:
            break
        for move, start, stop, replacement, codes in reversed(
                legal_rewrites(levels)):
            successor_key = key[:start] + codes + key[stop:]
            if successor_key not in visited:
                stack.append((levels[:start] + replacement + levels[stop:],
                              successor_key, trace + (move,)))

    return MinimalSearchResult(minimum=best,
                               splitting=AbstractSplitting(best_levels),
                               trace=best_trace, certified=exhausted,
                               states_explored=explored)


def random_descent(splitting, rng):
    """Apply random legal rewrites until none remain.

    Draws single compressions directly and, on half of the steps,
    first attempts untangle steps with randomly paired moves (full
    enumeration of move pairs is avoided, so long runs stay cheap).
    Returns (moves applied, final splitting); asserts strict descent of
    the complexity vector at every step, so nontermination would surface
    as an error.

    Like :func:`is_minimal_reachable`, it holds each state as its tuple
    of levels, each of which would pass the constructor's check by the
    parity argument there, and builds only the splitting it returns.
    """
    steps = 0
    levels = splitting.levels
    vec = _relative_entries(levels)
    while True:
        thicks = range(1, len(levels), 2)
        compressions = sum(len(levels[p].moves) for p in thicks)
        if not compressions:
            return steps, AbstractSplitting(levels)
        successor = None
        interior = range(1, len(levels) - 1, 2)
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
                    successor = _untangled(levels, p, d, e)
                except HstError:
                    continue
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
            successor = levels[:p] + (compress(levels[p], moves[k]),) \
                + levels[p + 1:]
        levels = successor
        new_vec = _relative_entries(levels)
        assert new_vec < vec, \
            "a rewrite failed to decrease complexity"
        vec = new_vec
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
    """Parse ``[[chi, punctures], ...]``, an array of arrays of two JSON
    integers; nothing else is coerced, so ``{}`` never reads as an empty
    surface, ``-2.7`` as -2 nor ``true`` as one puncture.  An error names
    the component."""
    components = []
    for j, pair in enumerate(json_array(data, error=HstError)):
        try:
            chi, p = json_array(pair, 2, HstError)
            components.append(Component(json_int(chi, HstError),
                                        json_int(p, HstError)))
        except HstError as exc:
            raise HstError(f"component {j}: {exc}") from None
    return AbstractSurface(tuple(components))


def splitting_to_json(splitting):
    return [surface_to_json(level) for level in splitting.levels]


def splitting_from_json(data):
    """Parse an array of levels, each read by :func:`surface_from_json`;
    an error names the level."""
    levels = []
    for i, level in enumerate(json_array(data, error=HstError)):
        try:
            levels.append(surface_from_json(level))
        except HstError as exc:
            raise HstError(f"level {i}: {exc}") from None
    return AbstractSplitting(tuple(levels))


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
