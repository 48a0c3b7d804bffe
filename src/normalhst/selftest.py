"""
The acceptance suite: seven checks with independent oracles.

Each criterion is a function returning a :class:`CriterionResult`; the
CLI ``selftest`` subcommand and the pytest acceptance module both run
these, so there is a single source of truth for what passing means.
"""

import random

from . import library
from .curve_patterns import (CurvePattern, check_348, check_348_surface,
                             enumerate_normal_loops, loop_pattern)
from .enumeration import (brute_force_enumerate, cross_check,
                          octagon_augmentations)
from .hst import (EMPTY_SURFACE, LESS, AbstractSplitting, AbstractSurface,
                  Component, c_surface, compare_complexity, component_moves,
                  compress, random_descent, random_splitting,
                  splitting_complexity, _untangle_moves,
                  untangle_step, RelativeCompression)
from .normal_surfaces import (euler_characteristic, reconstruct_surface,
                              vertex_link)
from .record import Record, setfield
from .thin_position import (MorsePresentation, all_presentations,
                            exchange_move, legal_exchanges,
                            thin_position_search, width)
from .triangulation import compute_skeleton, validate_manifold


class CriterionResult(Record):
    __slots__ = ("number", "title", "passed", "detail")

    def __init__(self, number, title, passed, detail):
        setfield(self, "number", number)
        setfield(self, "title", title)
        setfield(self, "passed", passed)
        setfield(self, "detail", detail)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.title}: {self.detail}"


def criterion_1():
    """Curve length law on the tetrahedron boundary."""
    classes = enumerate_normal_loops(20)
    lengths = sorted({c.length for c in classes})
    ok = set(lengths) <= {3, 4, 8, 12, 16, 20}
    sizes = {}
    for c in classes:
        sizes.setdefault(c.length, []).append(c.size)
    for length, want in ((3, 4), (4, 3), (8, 3)):
        ok = ok and sizes.get(length) == [want]
    detail = (f"lengths {lengths}, classes at 3/4/8 = "
              f"{sizes.get(3)}/{sizes.get(4)}/{sizes.get(8)}")
    return CriterionResult(1, "curve length law", ok, detail)


def criterion_2():
    """348 condition on octagon augmentations, violations rejected."""
    ok = True
    augmented = 0
    for name, tri in library.corpus():
        bases = brute_force_enumerate(tri, 4)
        for vec in octagon_augmentations(tri, bases):
            augmented += 1
            verdict = check_348_surface(vec.tets)
            if not verdict.passed or verdict.octagons != 1:
                ok = False
    # Hand-built violations: a length-12 loop, and two octagons in one
    # tetrahedron.
    twelve = next(c for c in enumerate_normal_loops(12) if c.length == 12)
    r12 = check_348(loop_pattern(twelve.representative))
    ok = ok and (not r12.passed) and len(r12.witness) == 12
    double_oct = CurvePattern.from_block(((0, 0, 0, 0), (0, 0, 0), (2, 0, 0)))
    r2o = check_348(double_oct)
    ok = ok and (not r2o.passed) and len(r2o.witness) == 8
    detail = (f"{augmented} augmented vectors pass; length-12 witness and "
              f"double octagon rejected")
    return CriterionResult(2, "348 checker", ok, detail)


def criterion_3():
    """Double description agrees with the brute-force oracle at bound 6."""
    ok = True
    parts = []
    for name, tri in library.corpus():
        rays, oracle = cross_check(tri, 6)
        same = rays == oracle
        ok = ok and same
        parts.append(f"{name}:{len(rays)}{'=' if same else '!'}{len(oracle)}")
    return CriterionResult(3, "enumeration oracle agreement", ok,
                           " ".join(parts))


def criterion_4():
    """Euler characteristic two-path agreement; vertex links are spheres."""
    ok = True
    checked = 0
    for name, tri in library.corpus():
        skeleton = compute_skeleton(tri)
        vectors = brute_force_enumerate(tri, 6)
        vectors += octagon_augmentations(tri, brute_force_enumerate(tri, 4))
        for vec in vectors:
            if vec.total_weight() > 6:
                continue
            chi = euler_characteristic(tri, vec, skeleton)
            summary = reconstruct_surface(tri, vec, skeleton)
            if chi != sum(summary.component_chis):
                ok = False
            checked += 1
        if tri.is_closed() and validate_manifold(tri, skeleton).is_manifold:
            for i in range(len(skeleton.vertex_orbits)):
                link = vertex_link(tri, i, skeleton)
                summary = reconstruct_surface(tri, link, skeleton)
                if summary.component_count != 1 or \
                        summary.euler_characteristic != 2:
                    ok = False
    return CriterionResult(4, "chi two-path agreement", ok,
                           f"{checked} vectors, links spherical")


def criterion_5(seed=20260810):
    """Strict descent of all rewrites; randomized runs terminate."""
    ok = True
    compress_checked = 0
    for chi in range(-8, 2, 2):
        for punctures in range(7):
            surface = AbstractSurface.of(Component(chi, punctures))
            for move in component_moves(surface):
                after = compress(surface, move)
                relative_drop = (c_surface(after, True)
                                 < c_surface(surface, True))
                absolute_drop = (c_surface(after) < c_surface(surface))
                if isinstance(move, RelativeCompression):
                    if not relative_drop or \
                            c_surface(after) != c_surface(surface):
                        ok = False
                else:
                    if not (relative_drop and absolute_drop):
                        ok = False
                compress_checked += 1

    untangle_checked = 0
    for chi in range(-8, 2, 2):
        for punctures in range(7):
            g_p = AbstractSurface.of(Component(chi, punctures))
            for d, e, g_d, g_e, _g_de in _untangle_moves(g_p):
                for eq_d in (False, True):
                    for eq_e in (False, True):
                        below = g_d if eq_d else EMPTY_SURFACE
                        above = g_e if eq_e else EMPTY_SURFACE
                        splitting = AbstractSplitting.of(below, g_p, above)
                        result = untangle_step(splitting, 1, d, e, eq_d, eq_e)
                        before_c = splitting_complexity(splitting, True)
                        after_c = splitting_complexity(result, True)
                        if compare_complexity(after_c, before_c) != LESS:
                            ok = False
                        untangle_checked += 1

    rng = random.Random(seed)
    runs = 10000
    total_steps = 0
    for _ in range(runs):
        steps, _final = random_descent(random_splitting(rng), rng)
        total_steps += steps
    detail = (f"{compress_checked} compressions, {untangle_checked} "
              f"untangle steps, {runs} random runs ({total_steps} moves)")
    return CriterionResult(5, "descent and termination", ok, detail)


def criterion_6():
    """Width arithmetic and the exchange move."""
    ok = True
    ok = ok and width(MorsePresentation.of("B", "D")).width == 2
    ok = ok and width(MorsePresentation.of("B", "B", "D", "D")).width == 8
    four = MorsePresentation.of("B", "B", "D", "D")
    free = thin_position_search(four, mode="all")
    tied = thin_position_search(four, mode="all", single_component=True)
    ok = ok and free.minimum_width == 4 and tied.minimum_width == 8
    # the same minima, literally over every 4-event presentation
    all_four = all_presentations(4)
    ok = ok and min(width(p).width for p in all_four) == 4
    ok = ok and min(width(p).width for p in all_four
                    if not width(p).hits_zero_interior) == 8
    exchanges = 0
    for count in range(1, 7):
        for pres in all_presentations(count):
            before = width(pres).width
            for d, b in legal_exchanges(pres):
                result = exchange_move(pres, d, b)
                if width(result.presentation).width != before - 4:
                    ok = False
                exchanges += 1
    return CriterionResult(6, "width arithmetic", ok,
                           f"minima 4/{free.minimum_width} and "
                           f"8/{tied.minimum_width}, {exchanges} exchanges")


def criterion_7():
    """Documented commands are byte-deterministic across repeated runs.

    Runs every data-bearing subcommand twice in-process and compares the
    captured bytes; the pytest acceptance module repeats this at the
    subprocess level with ``selftest`` itself included.
    """
    import io
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        tri_file = tmpdir / "doubled.tri"
        tri_file.write_text(library.doubled_tetrahedron().to_text())
        vec_file = tmpdir / "link.json"
        import json
        tri = library.doubled_tetrahedron()
        vec_file.write_text(json.dumps(
            vertex_link(tri, 0).to_json_dict(), sort_keys=True))
        split_file = tmpdir / "splitting.json"
        split_file.write_text("[[], [[-2, 0]], []]")
        pres_file = tmpdir / "pres.txt"
        pres_file.write_text("B 0\nB 0\nD 0\nD 0\n")

        commands = [
            ["validate", str(tri_file)],
            ["validate", str(tri_file), "--format", "json"],
            ["surface", str(tri_file), str(vec_file)],
            ["enumerate", str(tri_file), "--method", "vertex"],
            ["enumerate", str(tri_file), "--method", "brute", "--bound", "4"],
            ["enumerate", str(tri_file), "--cross-check", "--bound", "6"],
            ["hst", str(split_file), "--action", "complexity"],
            ["hst", str(split_file), "--action", "search"],
            ["width", str(pres_file), "--action", "width"],
            ["width", str(pres_file), "--action", "search", "--search-mode",
             "all"],
        ]
        ok = True
        for argv in commands:
            outputs = []
            for _ in range(2):
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    cli.main(argv)
                outputs.append(buffer.getvalue())
            if outputs[0] != outputs[1]:
                ok = False
    return CriterionResult(7, "determinism", ok,
                           f"{len(commands)} commands byte-identical twice")


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
}


def run(numbers=None, seed=20260810):
    """Run the chosen criteria (all by default), in order."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    return [criterion_5(seed) if n == 5 else CRITERIA[n]()
            for n in numbers]
