"""
Command-line front end.

Subcommands: ``validate``, ``surface``, ``enumerate``, ``hst``,
``width``, ``curves``, ``selftest``.  JSON is the machine format; the
table format is produced from the same payload by one renderer, so the
two never diverge.  The subcommands and their arguments are one table,
``COMMANDS``: the parser reads a command line against it, and help is
rendered from it.  Exit codes: 0 success, 1 semantic failure, 2 input
error, 3 resource ceiling exceeded.
"""

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

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
    except json.JSONDecodeError as exc:
        raise InputProblem(f"{path}: invalid JSON: {exc}")
    except ValueError:
        # int() refused a numeral past the conversion limit
        raise InputProblem(
            f"{path}: invalid JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits")
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


def _check_348_json(result):
    """The JSON of one 3/4/8 verdict: a tetrahedron's in ``surface``, the
    pattern's in ``curves``."""
    return {"passed": result.passed, "loops_of_length_8": result.octagons,
            "witness": list(result.witness) if result.witness else None}


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
            "per_tetrahedron": [{"tet": t, **_check_348_json(r)}
                                for t, r in enumerate(verdict.results)],
            "octagon_loops_total": verdict.octagons,
            "single_octagon_globally": verdict.octagons <= 1,
            "passed": verdict.passed}
        ok = verdict.passed
    emit(payload, args.format)
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_enumerate(args):
    try:                        # the builtin sha256, without OpenSSL's import
        from _sha256 import sha256
    except ImportError:         # Python 3.12 and later name it _sha2
        from hashlib import sha256

    from .enumeration import (brute_force_enumerate, cross_check,
                              enumerate_vertex_surfaces)
    from .record import quoted
    if args.bound < 0:
        raise InputProblem(
            f"--bound must be at least 0, got {quoted(args.bound)}")
    tri = _load_triangulation(args.triangulation)
    digest = sha256(tri.to_text().encode()).hexdigest()
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
    from .record import quoted
    if args.budget < 1:
        raise InputProblem(
            f"--budget must be at least 1, got {quoted(args.budget)}")
    try:
        splitting = splitting_from_json(_load_json(args.splitting))
    except HstError as exc:
        raise InputProblem(f"{args.splitting}: {exc}")
    if args.action == "complexity":
        payload = {
            "levels": splitting_to_json(splitting),
            "thick_levels": list(splitting.thick_indices()),
            "complexity": list(splitting_complexity(splitting)),
            "relative_complexity":
                list(splitting_complexity(splitting, relative=True)),
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
            "minimum": list(result.minimum),
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
        payload["check_348"] = _check_348_json(result)
        ok = result.passed
    emit(payload, args.format)
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_selftest(args):
    from . import selftest
    from .record import quoted
    numbers = None
    if args.criteria is not None:
        known = {str(n): n for n in selftest.CRITERIA}
        parts = [x.strip() for x in args.criteria.split(",")]
        unknown = [x for x in parts if x not in known]
        if unknown:
            raise InputProblem(
                f"--criteria: unknown criterion {quoted(unknown[0])}, "
                f"choose from {', '.join(sorted(known))}")
        numbers = sorted({known[x] for x in parts})
    results = selftest.run(numbers)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# Command table and parser
# ---------------------------------------------------------------------------

class Argument:
    """One argument of a subcommand.

    A ``name`` that starts with ``-`` makes an option, which keeps the
    last value given; any other name makes a positional of ``count``
    words, one value or, for a count above 1, a list.  ``kind`` is
    ``str`` for any text, ``int`` for a canonical decimal numeral (see
    :func:`.record.numeral`), a tuple of the accepted choices, or
    ``bool`` for an option that takes no value and stores True.  A
    handler reads the value as ``args.<dest>``.
    """

    def __init__(self, name, kind=str, default=None, help=None, count=1,
                 dest=None):
        self.name = name
        self.kind = kind
        self.default = default
        self.help = help
        self.count = count
        self.dest = dest or name.lstrip("-").replace("-", "_")


class Command:
    """A subcommand: its handler, its help line and its arguments."""

    def __init__(self, handler, help, *arguments):
        self.handler = handler
        self.help = help
        self.positionals = [a for a in arguments if a.name[0] != "-"]
        self.options = [a for a in arguments if a.name[0] == "-"]


HELP = Argument("-h/--help", None, help="show this help message and exit")
FORMAT = Argument("--format", ("json", "table"), "table", "output format")

COMMANDS = {
    "validate": Command(cmd_validate, "check a triangulation file",
                        Argument("triangulation"), FORMAT),
    "surface": Command(cmd_surface, "classify a surface vector",
                       Argument("triangulation"),
                       Argument("vector", help="SurfaceVector JSON file"),
                       FORMAT),
    "enumerate": Command(
        cmd_enumerate, "enumerate admissible surfaces",
        Argument("triangulation"),
        Argument("--method", ("vertex", "brute"), "vertex"),
        Argument("--bound", int, 4,
                 "total weight bound for brute force / cross-check"),
        Argument("--cross-check", bool, False,
                 "diff double description against the brute-force oracle"),
        FORMAT),
    "hst": Command(
        cmd_hst, "splitting complexity calculus",
        Argument("splitting", help="splitting JSON file"),
        Argument("--action", ("complexity", "underlying", "search"),
                 "complexity"),
        Argument("--budget", int, 10000),
        FORMAT),
    "width": Command(
        cmd_width, "Morse presentation width calculus",
        Argument("presentation", help="presentation text file"),
        Argument("--action", ("width", "split", "search"), "width"),
        Argument("--search-mode", ("exchange", "all"), "exchange"),
        Argument("--single-component", bool, False,
                 "forbid the strand count hitting zero between events"),
        FORMAT),
    "curves": Command(
        cmd_curves, "decompose a curve pattern on one tetrahedron",
        Argument("N", int, count=12, dest="counts",
                 help="arc counts, face-major, cut-vertex-minor"),
        Argument("--check-348", bool, False,
                 "test the length-3/4/8 condition"),
        Argument("--format", ("json", "table"), "json")),
    "selftest": Command(
        cmd_selftest, "run the acceptance suite",
        Argument("--criteria",
                 help="comma-separated criterion numbers (default: all)")),
}

PROG = "normalhst"
DESCRIPTION = ("Normal surface, splitting-complexity and width calculations "
               "on triangulated 3-manifolds.")
WIDTH = 78                      # columns of the help text
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _print(stream, text):
    try:                        # a closed or missing stream takes nothing
        stream.write(text)
    except (AttributeError, OSError):
        pass


def _error(prog, message):
    """Reject the command line with one stderr line and exit 2."""
    _print(sys.stderr, f"error: {prog}: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _option(word, strings, prog):
    """How one word reads against the option ``strings``.

    None for a positional word: one that does not start with ``-``, a
    lone ``-``, a negative numeral or a word with a space.  Else
    (argument or None if unknown, option string, text after ``=`` or
    None); a unique prefix of a long option names it, and ``-hX`` is
    ``-h`` with ``X`` attached.
    """
    if word[:1] != "-" or word == "-":
        return None
    if word in strings:
        return strings[word], word, None
    flag, eq, value = word.partition("=")
    if eq and flag in strings:
        return strings[flag], flag, value
    if word[1] == "-":
        matches = [(strings[s], s, value if eq else None)
                   for s in strings if s.startswith(flag)]
    else:
        matches = [(strings[s], s, word[2:])
                   for s in strings if s == word[:2]]
    if len(matches) > 1:
        _error(prog, f"ambiguous option: {word} could match "
                     f"{', '.join(s for _, s, _ in matches)}")
    if matches:
        return matches[0]
    if _NEGATIVE.match(word) or " " in word:
        return None
    return None, word, None


def _value(argument, word, prog):
    if argument.kind is int:
        from .record import numeral, quoted
        value = numeral(word)
        if value is None:
            _error(prog, f"argument {argument.name}: invalid int value: "
                         f"{quoted(word)}")
        return value
    if isinstance(argument.kind, tuple) and word not in argument.kind:
        _error(prog, f"argument {argument.name}: invalid choice: {word!r} "
                     f"(choose from {', '.join(map(repr, argument.kind))})")
    return word


def _help_flag(found, prog, render):
    """Print help and exit 0, unless text is attached to the flag."""
    _, string, attached = found
    if string == "-h" and attached:     # -hh is -h given twice
        attached = attached.lstrip("h") or None
    if attached is not None:
        _error(prog, f"argument {HELP.name}: ignored explicit argument "
                     f"{attached!r}")
    _print(sys.stdout, render())
    raise SystemExit(EXIT_OK)


def _read_command(name, words):
    """The values of subcommand ``name`` and the words it did not take."""
    command = COMMANDS[name]
    prog = f"{PROG} {name}"
    strings = {"-h": HELP, "--help": HELP}
    strings.update((a.name, a) for a in command.options)
    # The first "--" and every word after it are positional words.
    marker = words.index("--") if "--" in words else len(words)
    kinds = [_option(word, strings, prog) for word in words[:marker]]
    kinds += [None] * (len(words) - marker)
    values = {a.dest: a.default for a in command.options}
    todo = list(command.positionals)
    extras = []
    i = 0
    while i < len(words):
        if kinds[i] is None:
            # The positional words up to the next option fill the
            # positionals in order while they suffice; the "--" among
            # or just after a positional's words is dropped, and what
            # is left over is extra.
            end = i
            while end < len(words) and kinds[end] is None:
                end += 1
            while todo:
                taken, j = [], i
                while len(taken) < todo[0].count and j < end:
                    if j != marker:
                        taken.append(words[j])
                    j += 1
                if len(taken) < todo[0].count:
                    break
                i = j + 1 if j == marker < end else j
                argument = todo.pop(0)
                taken = [_value(argument, word, prog) for word in taken]
                values[argument.dest] = \
                    taken if argument.count > 1 else taken[0]
            extras += words[i:end]
            i = end
            continue
        found = kinds[i]
        argument, string, attached = found
        i += 1
        if argument is None:
            extras.append(string)
        elif argument is HELP:
            _help_flag(found, prog, lambda: _command_help(name))
        elif argument.kind is bool:
            if attached is not None:
                _error(prog, f"argument {argument.name}: ignored explicit "
                             f"argument {attached!r}")
            values[argument.dest] = True
        elif attached is not None:
            values[argument.dest] = _value(argument, attached, prog)
        elif i < marker and kinds[i] is None:
            values[argument.dest] = _value(argument, words[i], prog)
            i += 1
        else:
            _error(prog, f"argument {argument.name}: expected one argument")
    if todo:
        _error(prog, "the following arguments are required: "
                     + ", ".join(a.name for a in todo))
    return values, extras


def parse_args(argv):
    """The name of the subcommand ``argv`` calls, and its values as
    ``args.<dest>``.

    Options take ``--opt value`` or ``--opt=value``, and a unique
    prefix of a long option names it; ``-h``/``--help`` may come
    anywhere, and every word after ``--`` is positional.  A
    rejected command line writes one stderr line and raises
    ``SystemExit(2)``; help goes to stdout with ``SystemExit(0)``.
    """
    strings = {"-h": HELP, "--help": HELP}
    extras = []
    for i, word in enumerate(argv):
        found = None if word == "--" else _option(word, strings, PROG)
        if found is None:
            if word == "--" and i + 1 == len(argv):
                break
            if word not in COMMANDS:
                _error(PROG, f"argument command: invalid choice: {word!r} "
                             f"(choose from "
                             f"{', '.join(map(repr, COMMANDS))})")
            values, more = _read_command(word, argv[i + 1:])
            extras += more
            if extras:
                _error(PROG, f"unrecognized arguments: {' '.join(extras)}")
            return word, SimpleNamespace(**values)
        if found[0] is None:
            extras.append(word)
        else:
            _help_flag(found, PROG, _top_help)
    _error(PROG, "the following arguments are required: command")


def _fill(words, indent):
    """``words`` in lines of at most WIDTH columns; later lines start
    with ``indent``, and a word too long for any line gets its own."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > WIDTH:
            lines.append(indent + word)
        else:
            lines[-1] += " " + word
    return lines


def _render(prog, options, positionals, description, sections):
    """Help text: the usage, wrapped under the program name when too
    long, then the description and each section's rows of (indent,
    name, help), the help text aligned at column 24 at most."""
    usage = " ".join(["usage:", prog, *options, *positionals])
    if len(usage) > WIDTH:
        hang = " " * (len("usage: ") + len(prog) + 1)
        lines = _fill([f"usage: {prog}", *options], hang)
        if positionals:
            lines += _fill([hang + positionals[0], *positionals[1:]], hang)
        usage = "\n".join(lines)
    blocks = [usage]
    if description:
        blocks.append("\n".join(_fill(description.split(), "")))
    column = min(max(indent + len(name) for _, rows in sections
                     for indent, name, _ in rows) + 2, 24)
    for title, rows in sections:
        lines = [title]
        for indent, name, text in rows:
            line = " " * indent + name
            if text is not None:
                if len(line) + 2 > column:
                    lines.append(line)
                    line = ""
                line = line.ljust(column) + text
            lines.append(line)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _top_help():
    choices = "{" + ",".join(COMMANDS) + "}"
    rows = [(2, choices, None)]
    rows += [(4, name, command.help) for name, command in COMMANDS.items()]
    return _render(PROG, ["[-h]"], [choices, "..."], DESCRIPTION,
                   [("positional arguments:", rows),
                    ("options:", [(2, "-h, --help", HELP.help)])])


def _command_help(name):
    command = COMMANDS[name]
    options = ["[-h]"]
    option_rows = [(2, "-h, --help", HELP.help)]
    for a in command.options:
        if a.kind is bool:
            shown = a.name
        elif isinstance(a.kind, tuple):
            shown = f"{a.name} {{{','.join(a.kind)}}}"
        else:
            shown = f"{a.name} {a.dest.upper()}"
        options.append(f"[{shown}]")
        option_rows.append((2, shown, a.help))
    sections = [("options:", option_rows)]
    if command.positionals:
        sections.insert(0, ("positional arguments:",
                            [(2, a.name, a.help)
                             for a in command.positionals]))
    return _render(f"{PROG} {name}", options,
                   [a.name for a in command.positionals
                    for _ in range(a.count)],
                   None, sections)


def main(argv=None):
    """Run one command; ``argv`` None reads ``sys.argv``, as a process.

    Run that way, it freezes the collector on every way out, ``--help``
    and argument errors (``SystemExit``) included, so the collections
    at interpreter exit skip the objects still alive instead of walking
    them.  A caller that passes ``argv`` runs in process, and the
    collector is left as it was.
    """
    try:
        name, args = parse_args(sys.argv[1:] if argv is None else argv)
        code = COMMANDS[name].handler(args)
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
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
