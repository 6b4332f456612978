"""Seeded inputs and job lists for the benchmark workloads.

``build(workload, seed, workdir)`` writes the input files of one workload
under ``workdir`` and returns its job list. The same workload and seed give
the same files byte for byte. Sizes and the job order are fixed per
workload; the seed picks tree shapes, vertex labels, corner orders,
listing orders and Coxeter generator orders. Output sizes therefore do not
depend on the seed, only the work needed to reach them.

Every job carries the expectation the checker verifies. Expectations come
from closed forms (product cell counts, chain and transversal duals,
dihedral normal forms) or from the source paper's landmarks, never from
the code under test.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

# ---------------------------------------------------------------------------
# cube complexes as products of trees


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree on 0..n-1, as (parent, child) edges."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def product_cells(factors):
    """Vertices and cubes of a product of trees. ``factors`` lists
    (vertex count, edges); product vertices are tuples of factor vertices
    and corners follow binary-coordinate order over the chosen axes."""
    verts = list(itertools.product(*[range(n) for n, _ in factors]))
    cubes: dict[int, list] = {}
    m = len(factors)
    for k in range(1, m + 1):
        for axes in itertools.combinations(range(m), k):
            pools = [factors[i][1] if i in axes else range(factors[i][0])
                     for i in range(m)]
            for choice in itertools.product(*pools):
                corners = []
                for bits in range(1 << k):
                    p = []
                    for i in range(m):
                        if i in axes:
                            p.append(choice[i][(bits >> axes.index(i)) & 1])
                        else:
                            p.append(choice[i])
                    corners.append(tuple(p))
                cubes.setdefault(k, []).append(tuple(corners))
    return verts, cubes


def product_counts(sizes) -> dict:
    """Closed form for a product of trees with the given vertex counts:
    k-cubes = sum over k-subsets S of prod_{S} E_i * prod_{not S} V_i."""
    out = {}
    for k in range(1, len(sizes) + 1):
        total = 0
        for axes in itertools.combinations(range(len(sizes)), k):
            total += math.prod(n - 1 if i in axes else n
                               for i, n in enumerate(sizes))
        out[str(k)] = total
    return {"vertices": math.prod(sizes), "cubes": out}


def torus_cells(n: int):
    """C4 x Cn, every square filled: locally CAT(0), but each C4 fibre is
    an unfilled 4-cycle."""
    verts = [(i, j) for i in range(4) for j in range(n)]
    edges, squares = [], []
    for i in range(4):
        for j in range(n):
            i1, j1 = (i + 1) % 4, (j + 1) % n
            edges.append(((i, j), (i1, j)))
            edges.append(((i, j), (i, j1)))
            squares.append(((i, j), (i1, j), (i, j1), (i1, j1)))
    return verts, {1: edges, 2: squares}


def glue_cube_boundary(verts, cubes, at):
    """Glue the boundary of a 3-cube (six squares, no solid) at vertex
    ``at``: every corner link is a hollow triangle."""
    corners = [at] + [("b", i) for i in range(1, 8)]
    new = {k: list(v) for k, v in cubes.items()}
    new.setdefault(2, [])
    for axis in range(3):
        rest = [a for a in range(3) if a != axis]
        for eps in (0, 1):
            face = []
            for bits in range(4):
                idx = eps << axis
                for pos, a in enumerate(rest):
                    idx |= ((bits >> pos) & 1) << a
                face.append(corners[idx])
            new[2].append(tuple(face))
    for j in range(8):
        for axis in range(3):
            if not (j >> axis) & 1:
                new[1].append((corners[j], corners[j | (1 << axis)]))
    return verts + corners[1:], new, corners[1:]


def glue_hexagon(verts, cubes, at):
    """Glue a 6-cycle through ``at``: links stay flag, no 4-cycle appears,
    and the alternate hexagon vertices have no median."""
    ring = [at] + [("h", i) for i in range(1, 6)]
    new = {k: list(v) for k, v in cubes.items()}
    for i in range(6):
        new[1].append((ring[i], ring[(i + 1) % 6]))
    return verts + ring[1:], new, ring[1:]


def counts_of(verts, cubes) -> dict:
    return {"vertices": len(verts),
            "cubes": {str(k): len(cubes[k]) for k in sorted(cubes) if cubes[k]}}


def _idkey(v):
    return (isinstance(v, str), v)


def make_labels(n: int, style: str, rng: random.Random) -> list:
    """n distinct vertex ids in ascending id order. Ints have five digits
    and strs are 'v' plus five digits, so the byte width of an id depends
    on its type only; "mixed" takes exactly half of each type."""
    nums = rng.sample(range(10000, 100000), n)
    if style == "int":
        ids = nums
    elif style == "str":
        ids = [f"v{x}" for x in nums]
    else:
        ids = [x if i % 2 == 0 else f"v{x}" for i, x in enumerate(nums)]
    return sorted(ids, key=_idkey)


def random_symmetry(corners: tuple, rng: random.Random) -> tuple:
    """The same cube, listed from a random corner along a random axis order."""
    k = len(corners).bit_length() - 1
    perm = list(range(k))
    rng.shuffle(perm)
    flips = rng.randrange(1 << k)
    out = []
    for j in range(1 << k):
        a = 0
        for i in range(k):
            a |= (((j >> i) & 1) ^ ((flips >> i) & 1)) << perm[i]
        out.append(corners[a])
    return tuple(out)


def complex_json(verts, cubes, rng, style, first=(), last=()) -> dict:
    """Relabel, shuffle and serialize. Vertices in ``first`` get the
    smallest ids and those in ``last`` the largest, so a witness among
    them is found early or late in the program's sorted scans."""
    labels = make_labels(len(verts), style, rng)
    pinned = set(first) | set(last)
    middle = [v for v in verts if v not in pinned]
    rng.shuffle(middle)
    order = list(first) + middle + list(last)
    name = dict(zip(order, labels))
    vlist = [name[v] for v in verts]
    rng.shuffle(vlist)
    out = {}
    for k in sorted(cubes):
        cs = [random_symmetry(tuple(name[v] for v in c), rng) for c in cubes[k]]
        rng.shuffle(cs)
        out[str(k)] = [list(c) for c in cs]
    return {"vertices": vlist, "cubes": out}


# ---------------------------------------------------------------------------
# halfspace systems


def tree_pocset(sizes, rng, style):
    """Halfspace system of a product of random trees. Each tree edge gives
    a hyperplane with halves d (below the edge) and u (above it). The
    generators are d(child edge) < d(parent edge) and d(a) < u(b) for
    sibling edges; the closure yields every nesting."""
    hs, star, leq = [], [], []
    for f, n in enumerate(sizes):
        edges = random_tree(n, rng)
        parent_edge = {c: p for p, c in edges}
        children: dict[int, list] = {}
        for p, c in edges:
            children.setdefault(p, []).append(c)

        def nm(c, side, f=f):
            return f"t{f}e{c:03d}{side}"

        for p, c in edges:
            hs += [nm(c, "d"), nm(c, "u")]
            star.append([nm(c, "d"), nm(c, "u")])
            if p in parent_edge:
                leq.append([nm(c, "d"), nm(p, "d")])
        for cs in children.values():
            for a, b in itertools.permutations(cs, 2):
                leq.append([nm(a, "d"), nm(b, "u")])
    return _shuffled_system(hs, star, leq, rng, style)


def chain_pocset(h, rng, style):
    """h nested hyperplanes c0+ < c1+ < ...: the dual is a path."""
    hs, star, leq = [], [], []
    for i in range(h):
        hs += [f"c{i:03d}+", f"c{i:03d}-"]
        star.append([f"c{i:03d}+", f"c{i:03d}-"])
        if i:
            leq.append([f"c{i - 1:03d}+", f"c{i:03d}+"])
    return _shuffled_system(hs, star, leq, rng, style)


def transversal_pocset(k, rng, style):
    """k pairwise-transversal hyperplanes: the dual is a k-cube."""
    hs = [f"p{i}{s}" for i in range(k) for s in "+-"]
    star = [[f"p{i}+", f"p{i}-"] for i in range(k)]
    return _shuffled_system(hs, star, [], rng, style)


def _shuffled_system(hs, star, leq, rng, style):
    if style == "int":
        # fixed-width ints in a seeded order
        ids = make_labels(len(hs), "int", rng)
        rng.shuffle(ids)
        name = dict(zip(hs, ids))
        hs = [name[h] for h in hs]
        star = [[name[a], name[b]] for a, b in star]
        leq = [[name[a], name[b]] for a, b in leq]
    hs = list(hs)
    rng.shuffle(hs)
    rng.shuffle(star)
    rng.shuffle(leq)
    return {"halfspaces": hs, "star": star, "leq": leq}


def tree_pocset_expect(sizes) -> dict:
    edges = [n - 1 for n in sizes]
    return {
        "halfspaces": 2 * sum(edges),
        "hyperplanes": sum(edges),
        "strict_relations": sum(e * (e - 1) for e in edges),
        "dual": {**product_counts(sizes), "euler": 1},
        "maximal_families": math.prod(edges),
        "dimensions": [len(sizes)],
    }


def chain_expect(h) -> dict:
    return {
        "halfspaces": 2 * h, "hyperplanes": h,
        "strict_relations": h * (h - 1),
        "dual": {"vertices": h + 1, "cubes": {"1": h}, "euler": 1},
        "maximal_families": h, "dimensions": [1],
    }


def transversal_expect(k) -> dict:
    return {
        "halfspaces": 2 * k, "hyperplanes": k, "strict_relations": 0,
        "dual": {**cube_counts(k), "euler": 1},
        "maximal_families": 1, "dimensions": [k],
    }


def cube_counts(k) -> dict:
    """A single k-cube: C(k, j) * 2^(k-j) faces of dimension j."""
    return {"vertices": 1 << k,
            "cubes": {str(j): math.comb(k, j) << (k - j)
                      for j in range(1, k + 1)}}


# ---------------------------------------------------------------------------
# Coxeter systems

GROUPS = {
    "A2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],      # affine A2
    "PGL2Z": [[1, 3, 2], [3, 1, 0], [2, 0, 1]],   # (2,3,inf)
    "T237": [[1, 2, 3], [2, 1, 7], [3, 7, 1]],    # hyperbolic (2,3,7)
    "T334": [[1, 3, 3], [3, 1, 4], [3, 4, 1]],    # hyperbolic (3,3,4)
    "I2_3": [[1, 3], [3, 1]],
    "I2_4": [[1, 4], [4, 1]],
    "I2_5": [[1, 5], [5, 1]],
    "I2_7": [[1, 7], [7, 1]],
    "DINF": [[1, 0], [0, 1]],                     # infinite dihedral
}

# Maximal cube dimensions from the source paper's landmarks. A dihedral
# group I2(m) whose whole ball fits (R >= m) cubulates to a single cube, one
# axis per selected wall (see dihedral_walls).
LANDMARK_DIMS = {"A2": [3], "PGL2Z": [2, 3]}

# Number of ends, known from the groups themselves: affine A2 is a plane
# group, PGL(2,Z) is virtually free, the infinite dihedral group is
# virtually Z and finite groups have none.
ENDS = {"A2": "1", "PGL2Z": "infinity", "DINF": "2", "I2_5": "0"}

MARGIN = 2


def permuted_matrix(name, rng):
    """The group with its generators in a seeded order: an isomorphic
    presentation, so every reported size is unchanged."""
    m = GROUPS[name]
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return {"rank": len(m), "m": [[m[perm[i]][perm[j]] for j in range(len(m))]
                                  for i in range(len(m))]}


REDUCE_WORD_LENGTH = 16


def padded_word(length: int, total: int, rng: random.Random) -> list:
    """A random word of ``total`` letters whose reduced length is
    ``length``: an alternating word with cancelling pairs ss inserted at
    random places. Lengths below m keep the output size seed-free."""
    start = rng.randrange(2)
    word = [(start + i) % 2 for i in range(length)]
    while len(word) < total:
        pos = rng.randrange(len(word) + 1)
        s = rng.randrange(2)
        word[pos:pos] = [s, s]
    return word


def dihedral_normal_form(m: int, word) -> str:
    """ShortLex-least reduced word of a product of generators 0/1 of I2(m)
    (m = 0 for the infinite dihedral group), from the rotation-reflection
    model of the group: x -> d*x + a on Z_m (on Z when m is infinite)."""
    def elem(w):
        a, d = 0, 1
        for s in w:
            # right-multiply by the reflection x -> s - x
            a, d = a + d * s, -d
            if m:
                a %= m
        return a, d

    target = elem(word)
    bound = m if m else len(word)
    for length in range(bound + 1):
        for start in (0, 1):
            w = [(start + i) % 2 for i in range(length)]
            if elem(w) == target:
                return "".join(str(s + 1) for s in w) or "e"
    raise ValueError("no reduced word found")


# ---------------------------------------------------------------------------
# workloads


def _tail(add):
    """One tiny job per layer entry point, shared by every workload, so
    that every per-layer metric is measured in every traced run."""
    add("complex_check", {"shape": "boxes", "sizes": [3, 3]})
    add("complex_hyperplanes", {"shape": "trees", "sizes": [3, 4]})
    add("pocset_dual", {"pocset": "trees", "sizes": [3, 3]})
    add("pocset_cubes", {"pocset": "chain", "h": 4})
    add("cubulate", {"group": "I2_3", "radius": 3})
    add("ends", {"group": "DINF", "radius": 4})
    add("tree", {"cmd": "complex", "n": 4})
    add("tree", {"cmd": "link", "n": 4})
    add("tree", {"cmd": "enumerate", "n": 5})


def _cat0_jobs(add):
    for _ in range(4):
        for sizes in ([3, 4], [4, 5], [5, 6], [6, 6], [4, 8]):
            add("complex_check", {"shape": "boxes", "sizes": sizes})
        for sizes in ([2, 3, 4], [3, 3, 4], [2, 4, 5]):
            add("complex_check", {"shape": "boxes", "sizes": sizes})
        for sizes in ([5, 6], [4, 8], [6, 6], [3, 3, 4]):
            add("complex_check", {"shape": "trees", "sizes": sizes})
        add("complex_check", {"shape": "cube_boundary", "sizes": [3, 4]})
        add("complex_check", {"shape": "torus", "n": 5})
        add("complex_check", {"shape": "torus", "n": 7})
        add("complex_check", {"shape": "hexagon", "sizes": [5, 6]})
        add("complex_hyperplanes", {"shape": "boxes", "sizes": [4, 5]})
        add("complex_hyperplanes", {"shape": "trees", "sizes": [5, 6]})
        add("complex_hyperplanes", {"shape": "boxes", "sizes": [2, 3, 4]})
    for sizes in ([8, 10], [4, 4, 5]):
        add("complex_check", {"shape": "boxes", "sizes": sizes})
    add("complex_check", {"shape": "trees", "sizes": [9, 11]})
    add("complex_check", {"shape": "torus", "n": 20})
    add("complex_check", {"shape": "cube_boundary", "sizes": [8, 10]})
    add("complex_check", {"shape": "hexagon", "sizes": [9, 10]})
    add("complex_hyperplanes", {"shape": "trees", "sizes": [9, 11]})
    add("complex_hyperplanes", {"shape": "boxes", "sizes": [4, 4, 5]})
    # ten equal boxes around the p90 rank, so that p90 does not hinge on
    # the shape of one random tree
    for _ in range(10):
        add("complex_check", {"shape": "boxes", "sizes": [10, 12]})
    for sizes in ([12, 14], [5, 5, 6]):
        add("complex_check", {"shape": "boxes", "sizes": sizes})
    for sizes in ([13, 14], [5, 5, 6]):
        add("complex_check", {"shape": "trees", "sizes": sizes})
    add("complex_check", {"shape": "torus", "n": 45})
    add("complex_check", {"shape": "cube_boundary", "sizes": [13, 14]})
    add("complex_check", {"shape": "hexagon", "sizes": [12, 15]})
    add("tree", {"cmd": "complex", "n": 5})
    add("tree", {"cmd": "link", "n": 6})
    add("tree", {"cmd": "enumerate", "n": 7})


def _cubulate_jobs(add):
    for group, radius in (("PGL2Z", 8), ("PGL2Z", 9), ("PGL2Z", 10),
                          ("T237", 5), ("A2", 6), ("A2", 8), ("A2", 9),
                          ("T334", 5), ("T334", 6), ("I2_5", 6)):
        add("cubulate", {"group": group, "radius": radius})
    # eight equal jobs around the p90 rank, so that p90 does not hinge on
    # the timing of one job
    for _ in range(8):
        add("cubulate", {"group": "A2", "radius": 7})
    for _ in range(4):
        for group, radius in (("PGL2Z", 4), ("PGL2Z", 5), ("PGL2Z", 6),
                              ("A2", 4), ("A2", 5), ("T237", 3),
                              ("T237", 4), ("I2_3", 3), ("I2_4", 4),
                              ("I2_5", 4), ("T334", 3)):
            add("cubulate", {"group": group, "radius": radius})
    for _ in range(2):
        for group, radius in (("A2", 4), ("A2", 5), ("PGL2Z", 5),
                              ("I2_5", 5), ("T237", 4)):
            add("walls", {"group": group, "radius": radius})
        for group, radius in (("A2", 5), ("PGL2Z", 6), ("T334", 4)):
            add("halfspaces", {"group": group, "radius": radius})
        for group, radius in (("A2", 6), ("PGL2Z", 6), ("DINF", 6),
                              ("I2_5", 6)):
            add("ends", {"group": group, "radius": radius})
    for length in (2, 4, 0, 4):
        for group in ("I2_5", "I2_7", "DINF"):
            add("reduce", {"group": group, "length": length})


def _pocset_jobs(add):
    for _ in range(4):
        for cmd in ("validate", "dual", "cubes"):
            add("pocset_" + cmd, {"pocset": "trees", "sizes": [3, 4]})
            add("pocset_" + cmd, {"pocset": "trees", "sizes": [5, 6]})
            add("pocset_" + cmd, {"pocset": "trees", "sizes": [3, 3, 3]})
            add("pocset_" + cmd, {"pocset": "chain", "h": 12})
            add("pocset_" + cmd, {"pocset": "chain", "h": 24})
            add("pocset_" + cmd, {"pocset": "transversal", "k": 3})
    for cmd in ("validate", "dual", "cubes"):
        add("pocset_" + cmd, {"pocset": "trees", "sizes": [12, 16]})
        add("pocset_" + cmd, {"pocset": "trees", "sizes": [4, 5, 5]})
        add("pocset_" + cmd, {"pocset": "chain", "h": 40})
        add("pocset_" + cmd, {"pocset": "chain", "h": 80})
        add("pocset_" + cmd, {"pocset": "transversal", "k": 4})
    add("pocset_validate", {"pocset": "chain", "h": 160})
    add("pocset_validate", {"pocset": "trees", "sizes": [30, 30]})
    add("pocset_dual", {"pocset": "trees", "sizes": [30, 30]})
    add("pocset_dual", {"pocset": "trees", "sizes": [6, 6, 6]})
    add("pocset_cubes", {"pocset": "trees", "sizes": [6, 6, 6]})
    add("pocset_cubes", {"pocset": "trees", "sizes": [6, 6, 7]})
    add("pocset_dual", {"pocset": "trees", "sizes": [20, 24]})
    add("pocset_cubes", {"pocset": "chain", "h": 100})
    add("pocset_dual", {"pocset": "transversal", "k": 5})
    # eight equal chains around the p90 rank, so that p90 does not hinge on
    # the shape of one random tree
    for _ in range(8):
        add("pocset_dual", {"pocset": "chain", "h": 120})


WORKLOADS = {
    "cat0_check": _cat0_jobs,
    "cubulate": _cubulate_jobs,
    "pocset_dual": _pocset_jobs,
}

# Id types cycle with the job index, so the mix does not depend on the seed.
STYLES = ("int", "str", "mixed")


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one workload and return its seeded job list."""
    rng = random.Random(f"{workload}:{seed}")
    specs: list[tuple[str, dict]] = []

    def add(kind, params):
        specs.append((kind, params))

    WORKLOADS[workload](add)
    _tail(add)
    os.makedirs(workdir, exist_ok=True)
    jobs = [_make_job(i, kind, params, rng, workdir)
            for i, (kind, params) in enumerate(specs)]
    # one interleaving of job sizes per workload, whatever the seed
    random.Random(workload).shuffle(jobs)
    return jobs


def _write(workdir, name, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
    return path


def _make_job(i, kind, params, rng, workdir) -> dict:
    job = {"id": f"{i:03d}", "kind": kind, "params": params}
    if kind in ("complex_check", "complex_hyperplanes"):
        data, expect = _complex_input(params, rng, STYLES[i % 3])
        path = _write(workdir, f"j{i:03d}_complex.json", data)
        cmd = kind.split("_")[1]
        job.update(argv=["complex", cmd, path], file=path, expect=expect)
    elif kind.startswith("pocset_"):
        data, expect = _pocset_input(params, rng, STYLES[i % 2])
        path = _write(workdir, f"j{i:03d}_pocset.json", data)
        job.update(argv=["pocset", kind.split("_")[1], path], expect=expect)
    elif kind in ("cubulate", "walls", "halfspaces", "ends", "reduce"):
        group = params["group"]
        path = _write(workdir, f"j{i:03d}_matrix.json",
                      permuted_matrix(group, rng))
        argv = ["coxeter", kind, "--matrix", path]
        if kind == "reduce":
            m = GROUPS[group][0][1]
            word = padded_word(params["length"], REDUCE_WORD_LENGTH, rng)
            argv += ["--word", " ".join(str(s + 1) for s in word)]
            job["expect"] = {"input_length": len(word),
                             "canonical": dihedral_normal_form(m, word)}
        else:
            argv += ["--radius", str(params["radius"])]
            if kind in ("cubulate", "halfspaces"):
                argv += ["--margin", str(MARGIN)]
            job["expect"] = _coxeter_expect(kind, group, params["radius"])
        job["argv"] = argv
    elif kind == "tree":
        job["argv"] = ["tree", params["cmd"], "-n", str(params["n"])]
        job["expect"] = {}
    else:
        raise ValueError(f"unknown job kind {kind}")
    return job


def dihedral_walls(m: int, bound: int) -> int:
    """Reflections of I2(m) with a ball edge (u, v) where len(v) <= bound.
    A reflection of length 2j+1 first meets the ball at an edge with
    len(v) = j+1; lengths below m occur twice, length m (odd m) once."""
    count = 0
    for j in range(m):
        if 2 * j + 1 > m or j + 1 > bound:
            break
        count += 1 if 2 * j + 1 == m else 2
    return count


def _coxeter_expect(kind, group, radius) -> dict:
    out = {"group": group, "radius": radius}
    if group.startswith("I2_"):
        m = int(group[3:])
        if radius >= m:
            # the whole finite group fits, and any two of its walls cross:
            # the selected walls span a single cube
            k = dihedral_walls(m, radius if kind == "walls" else radius - MARGIN)
            out["walls"] = k
            out["dual"] = cube_counts(k)
            out["dims"] = [k]
    elif group in LANDMARK_DIMS:
        out["dims"] = LANDMARK_DIMS[group]
    if kind == "ends":
        out["verdict"] = ENDS[group]
    return out


def _complex_input(params, rng, style):
    shape = params["shape"]
    first, last = (), ()
    if shape == "torus":
        verts, cubes = torus_cells(params["n"])
        expect = {"verdict": "square", **counts_of(verts, cubes)}
    else:
        sizes = params["sizes"]
        if shape == "boxes":
            factors = [(n, path_tree(n)) for n in sizes]
        else:
            factors = [(n, random_tree(n, rng)) for n in sizes]
        verts, cubes = product_cells(factors)
        expect = {"verdict": "ok", "factors": sizes,
                  **product_counts(sizes)}
        if shape == "cube_boundary":
            verts, cubes, first = glue_cube_boundary(
                verts, cubes, rng.choice(verts))
            expect = {"verdict": "link", **counts_of(verts, cubes)}
        elif shape == "hexagon":
            verts, cubes, last = glue_hexagon(verts, cubes, rng.choice(verts))
            expect = {"verdict": "median", **counts_of(verts, cubes)}
    return complex_json(verts, cubes, rng, style, first, last), expect


def _pocset_input(params, rng, style):
    kind = params["pocset"]
    if kind == "trees":
        return (tree_pocset(params["sizes"], rng, style),
                tree_pocset_expect(params["sizes"]))
    if kind == "chain":
        return chain_pocset(params["h"], rng, style), chain_expect(params["h"])
    return (transversal_pocset(params["k"], rng, style),
            transversal_expect(params["k"]))
