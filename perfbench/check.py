"""Independent verdict checker.

``check(job, rc, text)`` verifies one CLI result against the expectation
the generator attached to the job, and returns the number of output cells
(vertices plus cubes, or the closest size for outputs that are not
complexes). Nothing here calls the code under test: negative certificates
are re-verified by breadth-first search over the input file, and tree-space
sizes come from a separate enumeration of compatible clusters.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
from collections import deque
from functools import lru_cache


class CheckError(Exception):
    """A result that does not match its expectation."""


def _require(cond, what):
    if not cond:
        raise CheckError(what)


def check(job: dict, rc: int, text: str) -> int:
    """Raise CheckError on any mismatch; return the job's output cells."""
    _require(text.endswith("\n") and text.count("\n") == 1,
             "stdout is not exactly one line")
    verdict = json.loads(text)
    _require(set(verdict) == {"ok", "certificate", "stats"},
             f"unexpected verdict keys {sorted(verdict)}")
    return CHECKS[job["kind"]](job, rc, verdict)


def _ok(rc, verdict, want=True):
    _require(verdict["ok"] is want, f"ok is {verdict['ok']}, expected {want}")
    _require(rc == (0 if want else 1), f"exit code {rc}")


def _euler(counts) -> int:
    return counts["vertices"] + sum(
        (-1) ** int(k) * n for k, n in counts["cubes"].items())


def _counts(stats, exp):
    _require(stats["vertices"] == exp["vertices"],
             f"vertices {stats['vertices']} != {exp['vertices']}")
    _require(stats["cubes"] == exp["cubes"],
             f"cubes {stats['cubes']} != {exp['cubes']}")
    _require(stats["euler_characteristic"] == _euler(exp),
             "Euler characteristic does not match the cell counts")
    return exp["vertices"] + sum(exp["cubes"].values())


# ---------------------------------------------------------------------------
# cube complexes


class InputComplex:
    """The input file of a job, indexed for witness checks."""

    def __init__(self, data):
        self.vertices = data["vertices"]
        self.by_label = {str(v): v for v in self.vertices}
        self.cubes = {int(k): [tuple(c) for c in cs]
                      for k, cs in data["cubes"].items()}
        self.adj = {v: set() for v in self.vertices}
        for a, b in self.cubes.get(1, []):
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.at = {v: [] for v in self.vertices}
        for cs in self.cubes.values():
            for c in cs:
                for pos, v in enumerate(c):
                    self.at[v].append((c, pos))

    def vertex(self, label):
        _require(label in self.by_label, f"unknown vertex {label!r}")
        return self.by_label[label]

    def spans(self, v) -> set:
        """Direction sets of the cubes at v: the neighbours of v inside
        each cube containing it."""
        out = set()
        for c, pos in self.at[v]:
            k = len(c).bit_length() - 1
            out.add(frozenset(c[pos ^ (1 << a)] for a in range(k)))
        return out

    def distances(self, src) -> dict:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def _load_input(path) -> InputComplex:
    with open(path) as fh:
        return InputComplex(json.load(fh))


def check_link_witness(x: InputComplex, cert: dict):
    """The simplex must be empty in the link of its vertex while all of
    its proper faces are present."""
    v = x.vertex(cert["vertex"])
    dirs = set()
    for label in cert["empty_simplex"]:
        edge = ast.literal_eval(label)
        _require(isinstance(edge, tuple) and len(edge) == 2 and v in edge,
                 f"link vertex {label} is not an edge at the witness vertex")
        u = edge[1] if edge[0] == v else edge[0]
        _require(u in x.adj[v], f"{label} is not an edge of the input")
        dirs.add(u)
    _require(len(dirs) >= 2, "empty simplex has fewer than two vertices")
    spans = x.spans(v)
    _require(frozenset(dirs) not in spans, "the simplex is filled by a cube")
    for u in dirs:
        _require(frozenset(dirs - {u}) in spans, "a proper face is missing")


def check_square_witness(x: InputComplex, cert: dict):
    """The 4-cycle must exist and bound no listed square."""
    cycle = [x.vertex(label) for label in cert["cycle"]]
    _require(len(set(cycle)) == 4, "cycle repeats a vertex")
    for i in range(4):
        _require(cycle[(i + 1) % 4] in x.adj[cycle[i]], "cycle edge missing")
    corners = set(cycle)
    _require(all(set(sq) != corners for sq in x.cubes.get(2, [])),
             "the 4-cycle bounds a listed square")


def medians_of(x: InputComplex, triple) -> set:
    d = [x.distances(t) for t in triple]
    a, b, c = triple
    return {m for m in x.vertices
            if d[0][m] + d[1][m] == d[0][b]
            and d[1][m] + d[2][m] == d[1][c]
            and d[0][m] + d[2][m] == d[0][c]}


def check_median_witness(x: InputComplex, cert: dict):
    """The triple must have zero or several medians, exactly those listed."""
    triple = [x.vertex(label) for label in cert["triple"]]
    _require(len(set(triple)) == 3, "triple repeats a vertex")
    found = medians_of(x, triple)
    _require(len(found) != 1, "triple has a unique median")
    listed = {x.vertex(label) for label in cert["medians"]}
    _require(listed == found, "listed medians differ from the triple's")


def _complex_check(job, rc, verdict):
    exp = job["expect"]
    cells = _counts(verdict["stats"], exp)
    cert = verdict["certificate"]
    kind = exp["verdict"]
    if kind == "ok":
        _ok(rc, verdict)
        _require(cert == {"locally_cat0": {"ok": True}, "cat0": {"ok": True}},
                 f"positive certificate {cert}")
        return cells
    _ok(rc, verdict, want=False)
    x = _load_input(job["file"])
    local, cat0 = cert["locally_cat0"], cert["cat0"]
    if kind == "link":
        _require(local["ok"] is False, "link failure not reported")
        _require(cat0 == {"ok": False, "reason": "link"}, f"cat0 {cat0}")
        check_link_witness(x, local)
        return cells
    _require(local == {"ok": True}, f"locally_cat0 {local}")
    _require(cat0["ok"] is False and cat0["reason"] == kind,
             f"cat0 reason {cat0.get('reason')}, expected {kind}")
    if kind == "square":
        check_square_witness(x, cat0)
    else:
        check_median_witness(x, cat0)
    return cells


def _complex_hyperplanes(job, rc, verdict):
    exp = job["expect"]
    _ok(rc, verdict)
    st = verdict["stats"]
    cells = _counts(st, exp)
    sizes = exp["factors"]
    edges = [n - 1 for n in sizes]
    _require(st["hyperplanes"] == sum(edges), "hyperplane count")
    want = sorted(math.prod(sizes) // n
                  for n, e in zip(sizes, edges) for _ in range(e))
    _require(sorted(st["edge_class_sizes"]) == want, "edge class sizes")
    _require(all(c == 2 for c in st["halfspace_counts"].values()),
             "a hyperplane does not separate into two halves")
    crossing = sum(a * b for a, b in itertools.combinations(edges, 2))
    _require(len(st["crossing_pairs"]) == crossing, "crossing pair count")
    return cells


# ---------------------------------------------------------------------------
# tree space


@lru_cache(maxsize=None)
def compatible_set_sizes(n: int) -> dict:
    """Number of pairwise-compatible sets of nontrivial clusters of
    {1..n}, by size (nested or disjoint clusters are compatible)."""
    clusters = [frozenset(c) for size in range(2, n)
                for c in itertools.combinations(range(1, n + 1), size)]
    ok = [[a <= b or b <= a or not (a & b) for b in clusters]
          for a in clusters]
    sizes: dict[int, int] = {}

    def extend(chosen, start):
        sizes[len(chosen)] = sizes.get(len(chosen), 0) + 1
        for i in range(start, len(clusters)):
            if all(ok[i][j] for j in chosen):
                chosen.append(i)
                extend(chosen, i + 1)
                chosen.pop()

    extend([], 0)
    return sizes


def _tree(job, rc, verdict):
    _ok(rc, verdict)
    cmd, n = job["argv"][1], int(job["argv"][3])
    st = verdict["stats"]
    sets = compatible_set_sizes(n)
    if cmd == "enumerate":
        want = math.prod(range(1, 2 * n - 2, 2))
        _require(st["enumerated"] == want == st["formula"],
                 f"enumerated {st['enumerated']}, expected {want}")
        return want
    if cmd == "link":
        simplices = {str(k): c for k, c in sorted(sets.items()) if k}
        _require(st["vertices"] == sets[1], "link vertices")
        _require(st["simplices"] == simplices, "link simplices")
        _require(st["edges"] == sets.get(2, 0), "link edges")
        if n == 4:
            _require(verdict["certificate"]["is_petersen"] is True,
                     "n = 4 link is not the Petersen graph")
        return sum(simplices.values())
    # complex: one vertex per compatible set u, C(|u|, k) k-cubes on it
    cubes: dict[int, int] = {}
    for size, count in sets.items():
        for k in range(1, size + 1):
            cubes[k] = cubes.get(k, 0) + count * math.comb(size, k)
    exp = {"vertices": sum(sets.values()),
           "cubes": {str(k): cubes[k] for k in sorted(cubes)}}
    cells = _counts(st, exp)
    _require(_euler(exp) == 1, "tree space truncation is not contractible")
    _require(verdict["certificate"] == {"cat0": {"ok": True}},
             f"tree complex certificate {verdict['certificate']}")
    return cells


# ---------------------------------------------------------------------------
# halfspace systems


def _pocset_validate(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    for key in ("halfspaces", "hyperplanes", "strict_relations"):
        _require(st[key] == exp[key], f"{key} {st[key]} != {exp[key]}")
    return exp["halfspaces"]


def _pocset_dual(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    dual = exp["dual"]
    cells = _counts(st, dual)
    _require(_euler(dual) == 1, "dual is not contractible")
    _require(st["hyperplanes"] == exp["hyperplanes"], "hyperplane count")
    payload = verdict["certificate"]["dual"]
    n = dual["vertices"]
    _require(payload["complex"]["vertices"] == list(range(n)),
             "dual vertex ids are not 0..n-1")
    _require({k: len(v) for k, v in payload["complex"]["cubes"].items()}
             == dual["cubes"], "embedded dual cube counts")
    bitmaps = payload["orientations"]
    _require(sorted(bitmaps) == sorted(str(i) for i in range(n)),
             "orientation table keys")
    _require(len(set(bitmaps.values())) == n, "orientations repeat")
    _require(all(len(b) == exp["hyperplanes"] for b in bitmaps.values()),
             "orientation width")
    for a, b in payload["complex"]["cubes"].get("1", []):
        diff = sum(x != y for x, y in zip(bitmaps[str(a)], bitmaps[str(b)]))
        _require(diff == 1, f"edge {a}-{b} flips {diff} hyperplanes")
    return cells


def _pocset_cubes(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    _require(st["maximal_cubes"] == exp["maximal_families"],
             f"maximal cubes {st['maximal_cubes']}")
    _require(st["dimensions"] == exp["dimensions"], "maximal dimensions")
    _require(len(st["families"]) == st["maximal_cubes"], "family count")
    _require(all(len(f) in exp["dimensions"] for f in st["families"]),
             "family size")
    return st["maximal_cubes"]


# ---------------------------------------------------------------------------
# Coxeter groups


def _cubulate(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    counts = {"vertices": st["vertices"], "cubes": st["cubes"]}
    if "dual" in exp:
        cells = _counts(st, exp["dual"])
    else:
        cells = _counts(st, counts)
    _require(_euler(counts) == 1, "dual is not contractible")
    if "dims" in exp:
        _require(st["maximal_cube_dimensions"] == exp["dims"],
                 f"maximal dims {st['maximal_cube_dimensions']}")
    if "walls" in exp:
        _require(st["walls_selected"] == exp["walls"], "selected walls")
    _require(st["trusted_radius"] == exp["radius"] - 2, "trusted radius")
    return cells


def _walls(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    _require(st["edges_in_walls"] == st["edges"] == sum(st["wall_sizes"]),
             "walls do not partition the ball's edges")
    _require(len(st["wall_sizes"]) == st["walls"], "wall count")
    if "walls" in exp:
        _require(st["walls"] == exp["walls"], f"walls {st['walls']}")
    return st["walls"]


def _halfspaces(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    system = verdict["certificate"]["system"]
    h = st["hyperplanes"]
    _require(h == st["walls_selected"], "hyperplanes != selected walls")
    _require(len(system["halfspaces"]) == 2 * h and len(system["star"]) == h,
             "system size")
    if "walls" in exp:
        _require(h == exp["walls"], "selected walls")
    return h


def _ends(job, rc, verdict):
    _ok(rc, verdict)
    want = job["expect"]["verdict"]
    _require(verdict["certificate"]["verdict"] == want,
             f"ends {verdict['certificate']['verdict']}, expected {want}")
    counts = verdict["stats"]["counts"]
    _require(len(counts) == job["expect"]["radius"] - 1, "annulus radii")
    return len(counts)


def _reduce(job, rc, verdict):
    _ok(rc, verdict)
    exp, st = job["expect"], verdict["stats"]
    _require(st["canonical"] == exp["canonical"],
             f"canonical {st['canonical']}, expected {exp['canonical']}")
    length = 0 if exp["canonical"] == "e" else len(exp["canonical"])
    _require(st["length"] == length, "length")
    _require(st["input_length"] == exp["input_length"], "input length")
    return length


CHECKS = {
    "complex_check": _complex_check,
    "complex_hyperplanes": _complex_hyperplanes,
    "tree": _tree,
    "pocset_validate": _pocset_validate,
    "pocset_dual": _pocset_dual,
    "pocset_cubes": _pocset_cubes,
    "cubulate": _cubulate,
    "walls": _walls,
    "halfspaces": _halfspaces,
    "ends": _ends,
    "reduce": _reduce,
}
