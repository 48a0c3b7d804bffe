"""
Command-line front end.

Subcommands: ``validate``, ``surface``, ``enumerate``, ``hst``,
``width``, ``selftest``.  JSON is the machine format; the table format
is produced from the same payload by one renderer, so the two never
diverge.  Exit codes: 0 success, 1 semantic failure, 2 input error,
3 resource ceiling exceeded.
"""

import argparse
import json
import os
import sys

# Each subcommand imports the layers it runs at its own top, so a call
# loads only those; ``main`` catches the two errors of ``limits``.
from .limits import CeilingSettingError, ResourceCeilingError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_CEILING = 3


def render_table(value, indent=0):
    """Flatten a JSON payload into aligned text, one renderer for all.

    Tuples render as lists, as ``json.dumps`` writes them.
    """
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if _inlineable(item):
                lines.append(f"{pad}{key}: {_scalar(item)}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(render_table(item, indent + 1))
    elif isinstance(value, (list, tuple)):
        for item in value:
            if _inlineable(item):
                lines.append(f"{pad}- {_scalar(item)}")
            else:
                lines.append(f"{pad}-")
                lines.extend(render_table(item, indent + 1))
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _inlineable(value):
    """Lists without dicts anywhere render on one line."""
    if isinstance(value, dict):
        return not value
    if isinstance(value, (list, tuple)):
        return all(_inlineable(x) for x in value)
    return True


def _scalar(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    return str(value)


def emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(render_table(payload)))


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputProblem(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputProblem(f"{path}: not UTF-8 text: {exc.reason} at byte "
                           f"{exc.start}")


class InputProblem(Exception):
    pass


def _load_triangulation(path):
    from .triangulation import ParseError, TriangulationError, \
        parse_triangulation
    try:
        return parse_triangulation(_read(path))
    except (ParseError, TriangulationError) as exc:
        raise InputProblem(f"{path}: {exc}")


def _load_json(path):
    try:
        return json.loads(_read(path))
    except ValueError as exc:
        # JSONDecodeError, or an integer past the conversion limit
        raise InputProblem(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise InputProblem(f"{path}: invalid JSON: nested too deeply")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    from .triangulation import compute_skeleton, validate_manifold
    tri = _load_triangulation(args.triangulation)
    skeleton = compute_skeleton(tri)
    report = validate_manifold(tri, skeleton)
    payload = {
        "tetrahedra": tri.tetrahedron_count,
        "closed": tri.is_closed(),
        "orientable": report.orientable,
        "counts": {"vertices": skeleton.counts[0],
                   "edges": skeleton.counts[1],
                   "faces": skeleton.counts[2],
                   "alternating_sum":
                       skeleton.euler_alternating_sum(tri.tetrahedron_count)},
        # Tuples are written as arrays, by both formats.
        "vertex_orbits": skeleton.vertex_orbits,
        "edge_orbits": skeleton.edge_orbits,
        "face_orbits": skeleton.face_orbits,
        "links": [{"vertex_orbit": link.vertex_orbit,
                   "chi": link.euler_characteristic,
                   "closed": link.closed,
                   "kind": ("sphere" if link.is_sphere else
                            "disk" if link.is_disk else "other")}
                  for link in report.links],
        "reversed_edges": list(report.reversed_edges),
        "is_manifold": report.is_manifold,
    }
    if not report.is_manifold:
        payload["offending_vertices"] = [link.vertex_orbit
                                         for link in report.links
                                         if not link.passes]
    emit(payload, args.format)
    return EXIT_OK if report.is_manifold else EXIT_SEMANTIC


def cmd_surface(args):
    from .curve_patterns import check_348_surface
    from .normal_surfaces import (SurfaceError, SurfaceVector,
                                  check_admissible, classify,
                                  reconstruct_surface)
    tri = _load_triangulation(args.triangulation)
    try:
        vector = SurfaceVector.from_json_dict(_load_json(args.vector))
    except SurfaceError as exc:
        raise InputProblem(f"{args.vector}: {exc}")
    if len(vector.tets) != tri.tetrahedron_count:
        raise InputProblem(
            f"{args.vector}: vector sized for {len(vector.tets)} tetrahedra, "
            f"triangulation has {tri.tetrahedron_count}")
    report = check_admissible(tri, vector)
    payload = {"classification": classify(tri, vector, report),
               "mode": report.mode,
               "admissible": report.admissible,
               "violations": [{"code": v.code, "message": v.message}
                              for v in report.violations]}
    ok = report.admissible
    if ok:
        summary = reconstruct_surface(tri, vector, report=report)
        payload["summary"] = {
            "euler_characteristic": summary.euler_characteristic,
            "components": summary.component_count,
            "component_chis": list(summary.component_chis),
            "component_closed": list(summary.component_closed),
            "orientable": summary.orientable,
            "edge_weights": list(summary.edge_weights),
            "sphere_components": list(summary.is_sphere_component),
        }
        verdict = check_348_surface(vector.tets)
        payload["check_348"] = {
            "per_tetrahedron": [{"tet": t, "passed": r.passed,
                                 "loops_of_length_8": r.octagons,
                                 "witness": list(r.witness)
                                 if r.witness else None}
                                for t, r in enumerate(verdict.results)],
            "octagon_loops_total": verdict.octagons,
            "single_octagon_globally": verdict.octagons <= 1,
            "passed": verdict.passed}
        ok = verdict.passed
    emit(payload, args.format)
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_enumerate(args):
    import hashlib

    from .enumeration import (brute_force_enumerate, cross_check,
                              enumerate_vertex_surfaces)
    if args.bound < 0:
        raise InputProblem(f"--bound must be at least 0, got {args.bound}")
    tri = _load_triangulation(args.triangulation)
    digest = hashlib.sha256(tri.to_text().encode()).hexdigest()
    if args.cross_check:
        left, right = cross_check(tri, args.bound)
        match = left == right
        print(json.dumps({"triangulation": digest, "method": "cross-check",
                          "bound": args.bound}, sort_keys=True))
        print(f"double_description={len(left)} brute_force={len(right)} "
              + ("MATCH" if match else "MISMATCH"))
        if not match:
            for flat in sorted(set(left) ^ set(right)):
                print(f"  only one side: {list(flat)}")
        return EXIT_OK if match else EXIT_SEMANTIC
    if args.method == "vertex":
        vectors = enumerate_vertex_surfaces(tri)
    else:
        vectors = brute_force_enumerate(tri, args.bound)
    print(json.dumps({"triangulation": digest, "method": args.method,
                      "bound": args.bound if args.method == "brute" else None},
                     sort_keys=True))
    for vector in vectors:
        print(json.dumps(vector.to_json_dict(), sort_keys=True))
    return EXIT_OK


def cmd_hst(args):
    from .hst import (HstError, is_minimal_reachable, splitting_complexity,
                      splitting_from_json, splitting_to_json, trace_to_json,
                      underlying_splitting)
    if args.budget < 1:
        raise InputProblem(f"--budget must be at least 1, got {args.budget}")
    try:
        splitting = splitting_from_json(_load_json(args.splitting))
    except (HstError, TypeError, ValueError) as exc:
        raise InputProblem(f"{args.splitting}: {exc}")
    if args.action == "complexity":
        payload = {
            "levels": splitting_to_json(splitting),
            "thick_levels": list(splitting.thick_indices()),
            "complexity": list(splitting_complexity(splitting).entries),
            "relative_complexity":
                list(splitting_complexity(splitting, relative=True).entries),
        }
    elif args.action == "underlying":
        result = underlying_splitting(splitting)
        payload = {
            "levels": splitting_to_json(result),
            "degenerate": result.is_degenerate,
        }
    else:
        result = is_minimal_reachable(splitting, budget=args.budget)
        payload = {
            "minimum": list(result.minimum.entries),
            "splitting": splitting_to_json(result.splitting),
            "trace": trace_to_json(result.trace),
            "states_explored": result.states_explored,
            "status": "certified" if result.certified else "budget exhausted",
        }
    emit(payload, args.format)
    return EXIT_OK


def cmd_width(args):
    from .hst import splitting_to_json
    from .thin_position import (PresentationError, induced_splitting,
                                parse_presentation, thin_position_search,
                                width)
    try:
        pres = parse_presentation(_read(args.presentation))
        profile = width(pres)
        if args.action == "width":
            payload = {
                "profile": list(profile.profile),
                "width": profile.width,
                "thick_levels": list(profile.thick_indices),
                "thin_levels": list(profile.thin_indices),
                "hits_zero_interior": profile.hits_zero_interior,
            }
        elif args.action == "split":
            payload = {"levels": splitting_to_json(induced_splitting(pres)),
                       "width": profile.width}
        else:
            result = thin_position_search(
                pres, mode=args.search_mode,
                single_component=args.single_component)
            payload = {
                "minimum_width": result.minimum_width,
                "witness": [[e.kind, e.position]
                            for e in result.witness.events],
                "states_explored": result.states_explored,
                "status": "certified",
            }
    except PresentationError as exc:
        raise InputProblem(f"{args.presentation}: {exc}")
    emit(payload, args.format)
    return EXIT_OK


def cmd_curves(args):
    from .curve_patterns import (CurvePattern, PatternError, check_348,
                                 decompose_pattern)
    try:
        pattern = CurvePattern(tuple(args.counts))
        decomposition = decompose_pattern(pattern)
    except PatternError as exc:
        raise InputProblem(str(exc))
    payload = {
        "counts": list(pattern.counts),
        "loops": [list(word) for word in decomposition.loops],
        "lengths": list(decomposition.lengths),
    }
    ok = True
    if args.check_348:
        result = check_348(pattern)
        payload["check_348"] = {
            "passed": result.passed,
            "loops_of_length_8": result.octagons,
            "witness": list(result.witness) if result.witness else None,
        }
        ok = result.passed
    emit(payload, args.format)
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_selftest(args):
    from . import selftest
    numbers = None
    if args.criteria is not None:
        known = {str(n): n for n in selftest.CRITERIA}
        parts = [x.strip() for x in args.criteria.split(",")]
        unknown = [x for x in parts if x not in known]
        if unknown:
            raise InputProblem(
                f"--criteria: unknown criterion {unknown[0]!r}, "
                f"choose from {', '.join(sorted(known))}")
        numbers = sorted(known[x] for x in parts)
    results = selftest.run(numbers, seed=args.seed)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common(parser):
    parser.add_argument("--format", choices=("json", "table"),
                        default="table", help="output format")


def _integer(text):
    """The type of every integer argument: a canonical decimal numeral."""
    from .record import numeral
    value = numeral(text)
    if value is None:
        raise ValueError(text)
    return value


# argparse names the type in its message: "invalid int value: 'abc'".
_integer.__name__ = "int"


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with one stderr line and exit 2, no usage."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="normalhst",
        description="Normal surface, splitting-complexity and width "
                    "calculations on triangulated 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a triangulation file")
    p.add_argument("triangulation")
    _common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("surface", help="classify a surface vector")
    p.add_argument("triangulation")
    p.add_argument("vector", help="SurfaceVector JSON file")
    _common(p)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("enumerate", help="enumerate admissible surfaces")
    p.add_argument("triangulation")
    p.add_argument("--method", choices=("vertex", "brute"), default="vertex")
    p.add_argument("--bound", type=_integer, default=4,
                   help="total weight bound for brute force / cross-check")
    p.add_argument("--cross-check", action="store_true",
                   help="diff double description against the brute-force "
                        "oracle")
    _common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hst", help="splitting complexity calculus")
    p.add_argument("splitting", help="splitting JSON file")
    p.add_argument("--action", choices=("complexity", "underlying", "search"),
                   default="complexity")
    p.add_argument("--budget", type=_integer, default=10000)
    _common(p)
    p.set_defaults(fn=cmd_hst)

    p = sub.add_parser("width", help="Morse presentation width calculus")
    p.add_argument("presentation", help="presentation text file")
    p.add_argument("--action", choices=("width", "split", "search"),
                   default="width")
    p.add_argument("--search-mode", choices=("exchange", "all"),
                   default="exchange")
    p.add_argument("--single-component", action="store_true",
                   help="forbid the strand count hitting zero between events")
    _common(p)
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("curves",
                       help="decompose a curve pattern on one tetrahedron")
    p.add_argument("counts", nargs=12, type=_integer, metavar="N",
                   help="arc counts, face-major, cut-vertex-minor")
    p.add_argument("--check-348", action="store_true",
                   help="test the length-3/4/8 condition")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.add_argument("--seed", type=_integer, default=20260810,
                   help="seed of criterion 5's random descents")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does.  Point
        # stdout at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_SEMANTIC
    except (InputProblem, CeilingSettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCeilingError as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except ValueError as exc:
        # str() refuses an integer past Python's digit limit, as the
        # square of a long input can be; long inputs exit 2 where read.
        if "integer string conversion" not in str(exc):
            raise
        print("resource ceiling: the result holds an integer past Python's "
              "integer string conversion limit", file=sys.stderr)
        return EXIT_CEILING


if __name__ == "__main__":
    sys.exit(main())
