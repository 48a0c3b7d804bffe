"""Answer checkers: one per operation kind.

Each checker takes the operation (its ``expect`` dict), the exit code and
the captured standard output, and returns ``None`` when the answer is
right or a one-line reason when it is wrong.  Answers are read from
parsed JSON by the keys they need, so new keys in the program's output
never fail an operation.  Closed forms are used where they exist;
otherwise the answer is compared with the one recorded from the seed
commit in ``data/expected.json``.
"""

import hashlib
import json

EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Position of arc type (face, cut vertex) in the CLI's face-major order.
ARC_INDEX = {a: i for i, a in enumerate(
    (f, v) for f in range(4) for v in range(4) if v != f)}
# Arc type joining two edges that share a vertex: the face holding both
# edges, and the shared vertex it cuts off.
ARC_OF_EDGES = {(e1, e2): ((set(range(4)) - set(p) - set(q)).pop(),
                           (set(p) & set(q)).pop())
                for e1, p in enumerate(EDGES) for e2, q in enumerate(EDGES)
                if e1 != e2 and set(p) & set(q)}


def vector_key(data):
    """Normal coordinates of a surface vector JSON object, as a tuple."""
    out = []
    for block in data["tets"]:
        out.extend(int(x) for x in block["tri"])
        out.extend(int(x) for x in block["quad"])
        out.extend(int(x) for x in block["oct"])
    return tuple(out)


def vertex_digest(keys):
    """Order-free digest of a set of surface vectors."""
    text = "\n".join(",".join(map(str, k)) for k in sorted(keys))
    return hashlib.sha256(text.encode()).hexdigest()


def vertex_answer(stdout):
    """(method, sorted vector keys) of ``enumerate`` JSON-lines output."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return lines[0].get("method"), sorted(vector_key(v) for v in lines[1:])


def check_enumerate(expect, code, stdout):
    if code != 0:
        return f"exit {code}"
    method, keys = vertex_answer(stdout)
    if method != "vertex":
        return f"header method {method!r}"
    if len(keys) != expect["count"]:
        return f"{len(keys)} vertex surfaces, expected {expect['count']}"
    if vertex_digest(keys) != expect["digest"]:
        return "vertex surfaces differ from the recorded set"
    return None


def check_cross(expect, code, stdout):
    lines = stdout.splitlines()
    if code != 0 or len(lines) < 2:
        return f"exit {code}"
    words = dict(w.split("=") for w in lines[1].split() if "=" in w)
    if "MATCH" not in lines[1].split():
        return "cross-check did not print MATCH"
    dd, bf = int(words["double_description"]), int(words["brute_force"])
    if dd != bf or dd != expect["count"]:
        return f"cross-check counts {dd}/{bf}, expected {expect['count']}"
    return None


def check_validate(expect, code, stdout):
    if code != 0:
        return f"exit {code}"
    p = json.loads(stdout)
    counts = p["counts"]
    problems = []
    if p["is_manifold"] is not True:
        problems.append("not reported as a manifold")
    if counts["alternating_sum"] != 0:
        problems.append(f"alternating sum {counts['alternating_sum']}")
    if p["tetrahedra"] != expect["tetrahedra"]:
        problems.append(f"{p['tetrahedra']} tetrahedra")
    if counts["vertices"] != expect["vertices"]:
        problems.append(f"{counts['vertices']} vertices")
    if p["orientable"] != expect["orientable"]:
        problems.append("orientability")
    links = p["links"]
    if len(links) != expect["vertices"] or any(
            link["chi"] != 2 or link["kind"] != "sphere" for link in links):
        problems.append("a vertex link is not a sphere with chi 2")
    return "; ".join(problems) or None


def check_link_surface(expect, code, stdout):
    """A union of c vertex links: c sphere components, chi 2c."""
    if code != 0:
        return f"exit {code}"
    p = json.loads(stdout)
    c = expect["components"]
    s = p.get("summary")
    if p["classification"] != "Normal" or not p["admissible"] or s is None:
        return "a vertex link was not reported as an admissible normal surface"
    if s["components"] != c or s["euler_characteristic"] != 2 * c:
        return (f"{s['components']} components with chi "
                f"{s['euler_characteristic']}, expected {c} with chi {2 * c}")
    if len(s["component_chis"]) != c or any(x != 2 for x in s["component_chis"]) \
            or not all(s["sphere_components"]):
        return "a link component is not a sphere"
    if not p["check_348"]["passed"]:
        return "3/4/8 check failed on a vertex link"
    return None


def check_scaled_surface(expect, code, stdout):
    """k times a recorded surface, plus at most one octagon."""
    if code != 0:
        return f"exit {code}"
    p = json.loads(stdout)
    s = p.get("summary")
    if p["classification"] != expect["classification"] or not p["admissible"] \
            or s is None:
        return f"classified {p['classification']}, expected {expect['classification']}"
    if s["euler_characteristic"] != expect["chi"]:
        return f"chi {s['euler_characteristic']}, expected {expect['chi']}"
    if s["edge_weights"] != expect["edge_weights"]:
        return "edge weights are not the scaled ones"
    if sum(s["component_chis"]) != expect["chi"] \
            or len(s["component_chis"]) != s["components"]:
        return "component chis do not add up"
    if expect.get("components") is not None \
            and s["components"] != expect["components"]:
        return f"{s['components']} components, expected {expect['components']}"
    if expect.get("orientable") is not None \
            and s["orientable"] != expect["orientable"]:
        return "orientability"
    check = p["check_348"]
    if not check["passed"] or check["octagon_loops_total"] != expect["octagons"]:
        return "3/4/8 check"
    return None


def loops_counts(loops):
    """Arc-type counts covered by a list of cyclic edge words."""
    counts = [0] * 12
    for word in loops:
        for i, e in enumerate(word):
            counts[ARC_INDEX[ARC_OF_EDGES[(e, word[(i + 1) % len(word)])]]] += 1
    return counts


def check_curves(expect, code, stdout):
    p = json.loads(stdout)
    if sorted(p["lengths"]) != expect["lengths"]:
        return "loop lengths differ from the closed form"
    if len(p["loops"]) != len(expect["lengths"]) \
            or loops_counts(p["loops"]) != expect["counts"]:
        return "loops do not reassemble the arc counts"
    if "check_348" in expect:
        want = expect["check_348"]
        got = p["check_348"]
        if got["passed"] != want["passed"] \
                or got["loops_of_length_8"] != want["octagons"]:
            return "3/4/8 verdict"
        if code != (0 if want["passed"] else 1):
            return f"exit {code}"
    elif code != 0:
        return f"exit {code}"
    return None


def hst_complexity(levels):
    """Relative complexity vector of splitting levels, non-increasing."""
    return sorted((sum((2 - (chi - punct)) ** 2 for chi, punct in levels[i])
                   for i in range(1, len(levels), 2)), reverse=True)


def check_hst(expect, code, stdout):
    """Any answer must be consistent with itself and not below a recorded
    certified minimum; only a certified one must equal it (or not exceed
    the recorded reachable minimum).  An uncertified answer may stop
    anywhere above the true minimum: it only lowers ``certified_ratio``.
    """
    if code != 0:
        return f"exit {code}"
    p = json.loads(stdout)
    minimum = list(p["minimum"])
    if hst_complexity(p["splitting"]) != minimum:
        return "reported minimum is not the complexity of the reported splitting"
    if p["status"] not in ("certified", "budget exhausted"):
        return f"status {p['status']!r}"
    recorded = list(expect["minimum"])
    if expect["certified"] and minimum < recorded:
        return f"minimum {minimum} below the certified {recorded}"
    if p["status"] == "certified":
        if expect["certified"] and minimum != recorded:
            return f"certified minimum {minimum}, recorded {recorded}"
        if minimum > recorded:
            return f"certified minimum {minimum} above the recorded reachable {recorded}"
    return None


def min_width(births):
    """Least width over strand-count sequences with the given births.

    ``best[(b, d)]`` is the least sum of the strand counts 2 (b - d)
    after each event of a valid prefix with b births and d deaths.
    """
    best = {(0, 0): 0}
    for b in range(births + 1):
        for d in range(b + 1):
            for nb, nd in ((b + 1, d), (b, d + 1)):
                if (b, d) in best and nb <= births and nd <= nb:
                    cost = best[(b, d)] + 2 * (nb - nd)
                    best[(nb, nd)] = min(best.get((nb, nd), cost), cost)
    return best[(births, births)]


def presentation_width(events):
    count, total = 0, 0
    for kind, _ in events[:-1]:
        count += 2 if kind == "B" else -2
        total += count
    return total


def check_width(expect, code, stdout):
    """Any answer must be consistent with itself and reachable (never
    below the closed-form floor; in exchange mode at most the start
    width and a multiple of 4 below it); only a certified ``all``-mode
    answer must equal the floor.
    """
    if code != 0:
        return f"exit {code}"
    p = json.loads(stdout)
    got = p["minimum_width"]
    witness = p["witness"]
    if len(witness) != 2 * expect["births"]:
        return "witness has the wrong number of events"
    if presentation_width(witness) != got:
        return "witness width differs from the reported minimum"
    floor = min_width(expect["births"])
    if got < floor:
        return f"minimum width {got} below the least possible {floor}"
    if expect["mode"] == "exchange" and not (
            got <= expect["start"] and (expect["start"] - got) % 4 == 0):
        return f"exchange minimum {got} not reachable from {expect['start']}"
    if expect["mode"] == "all" and p["status"] == "certified" and got != floor:
        return f"certified minimum width {got}, expected {floor}"
    return None


CHECKERS = {
    "enumerate": check_enumerate,
    "cross": check_cross,
    "validate": check_validate,
    "link_surface": check_link_surface,
    "scaled_surface": check_scaled_surface,
    "curves": check_curves,
    "hst": check_hst,
    "width": check_width,
}


def check(op, code, stdout):
    """Reason the operation's answer is wrong, or None."""
    try:
        return CHECKERS[op["check"]](op["expect"], code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"


def certified(op, stdout):
    """Whether an answer is certified complete.

    Search answers say so in their status; every other answer is exact.
    """
    if op["check"] not in ("hst", "width"):
        return True
    try:
        return json.loads(stdout).get("status") == "certified"
    except ValueError:
        return False
