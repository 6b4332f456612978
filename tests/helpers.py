"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: grid and
torus complexes are written down cell by cell; dihedral groups, the rank-3
affine reflection group, and PGL(2,Z) are modeled by exact arithmetic
(signed rotations, affine permutations, integer matrices up to sign); the
ShortLex normal form oracle is a plain BFS over those models.

A ``CubeComplex`` holds its vertices as ranks; ``named`` is the one place
the tests read its cells back by vertex id.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from cubical import build_complex
from cubical.complexes import (
    CubeComplex,
    build_simplicial,
    canonical_cube,
    cube_dim,
    cube_faces,
    hyperplanes,
)
from cubical.coxeter import (
    CayleyBall,
    TruncatedHalfspaces,
    Wall,
    _crossed_walls,
    _hid,
    distance,
    walls,
)
from cubical.errors import (
    CapExceededError,
    ComparableComplementsError,
    CyclicOrderError,
    DisconnectedError,
    DoubleGluingError,
    DuplicateCubeError,
    IncompatibleClustersError,
    InputFormatError,
    MissingFaceError,
    MultipleMediansError,
    NestingViolationError,
    NoMedianError,
    NonPositiveLengthError,
    NotAVertexError,
    NotInvolutionError,
    PartialOrientationError,
    SelfGluingError,
    SelfPairedError,
    UnknownVertexError,
)
from cubical.graphs import cliques
from cubical.pocsets import DualComplex, HalfspaceSystem, Orientation, VertexResult, _chosen
from cubical.treespace import Orthant, PhyloTree, _ckey, compatible
from cubical.util import skey, ssorted


# ---------------------------------------------------------------------------
# cube symmetries (oracle for canonical_cube)


@lru_cache(maxsize=None)
def symmetry_maps(dim: int) -> tuple[tuple[int, ...], ...]:
    """Index maps realizing the full symmetry group of the dim-cube
    (axis permutations composed with axis flips), acting on corner indices."""
    maps = []
    for perm in itertools.permutations(range(dim)):
        for flips in range(1 << dim):
            sigma = []
            for j in range(1 << dim):
                a = 0
                for i in range(dim):
                    bit = ((j >> i) & 1) ^ ((flips >> i) & 1)
                    a |= bit << perm[i]
                sigma.append(a)
            maps.append(tuple(sigma))
    return tuple(maps)


def lexmin_cube(corners: tuple) -> tuple:
    """Lexicographically least image of a corner tuple under all 2^d * d!
    cube symmetries, by exhaustive search."""
    images = (tuple(corners[j] for j in sigma)
              for sigma in symmetry_maps(len(corners).bit_length() - 1))
    return min(images, key=lambda img: [skey(v) for v in img])


def skey_canonical_cube(corners: tuple) -> tuple:
    """Oracle for ``complexes.canonical_cube`` on vertex ids: the same
    closed form with the corners compared by ``skey``, as it ran before
    vertices were ranked."""
    keys = [skey(v) for v in corners]
    origin = min(range(len(corners)), key=keys.__getitem__)
    axes = sorted((1 << i for i in range(len(corners).bit_length() - 1)),
                  key=lambda a: keys[origin ^ a])
    index = [origin]
    for a in axes:
        index += [j ^ a for j in index]
    return tuple(corners[j] for j in index)


# ---------------------------------------------------------------------------
# complexes keyed by vertex ids (oracle for the ranked build)


@dataclass(frozen=True)
class LabelComplex:
    """A cube complex keyed by vertex ids: ``vertices`` is the id set,
    ``cubes`` and ``maximal`` hold corner-id tuples, canonical by
    ``skey``. ``named`` reads a ``CubeComplex`` this way, and
    ``label_build_complex`` builds one directly."""

    vertices: frozenset
    cubes: frozenset
    maximal: frozenset

    @cached_property
    def by_dim(self) -> dict:
        out: dict = {}
        for c in self.cubes:
            out.setdefault(cube_dim(c), set()).add(c)
        return {k: frozenset(v) for k, v in out.items()}

    @property
    def edges(self) -> frozenset:
        return self.by_dim.get(1, frozenset())

    @property
    def squares(self) -> frozenset:
        return self.by_dim.get(2, frozenset())

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(ns) for v, ns in adj.items()}


def named(x: CubeComplex) -> LabelComplex:
    """x with every rank replaced by its vertex id. Rank order is ``skey``
    order, so the rank-canonical cubes come out ``skey``-canonical."""
    return LabelComplex(vertices=frozenset(x.labels),
                        cubes=frozenset(map(x.named, x.cubes)),
                        maximal=frozenset(map(x.named, x.maximal)))


def faces_of_larger(cubes, canon=canonical_cube) -> set:
    """Oracle for the face record of ``complexes.build_complex``: every
    codimension-1 face of every cube of dimension >= 2, each one
    canonicalized by ``canon``."""
    return {canon(f) for c in cubes if cube_dim(c) >= 2 for f in cube_faces(c)}


def label_build_complex(vertices, cubes_by_dim: dict) -> LabelComplex:
    """Oracle for ``complexes.build_complex``: the same checks in the same
    order on vertex ids, every cube and every face canonicalized by
    ``skey_canonical_cube``, as the builder ran before vertices were
    ranked; the maximal cubes come from ``faces_of_larger``."""
    vertex_list = list(vertices)
    vertex_set = frozenset(vertex_list)
    if len(vertex_set) != len(vertex_list):
        raise DuplicateCubeError("duplicate vertex id", dim=0)
    listed: dict[int, set] = {}
    for dim_key, raw_cubes in cubes_by_dim.items():
        k = int(dim_key)
        if k < 1:
            raise InputFormatError(f"cube dimension must be >= 1, got {k}")
        if k > 62:
            raise InputFormatError(f"cube dimension {k} is too large")
        listed.setdefault(k, set())
        for corners in raw_cubes:
            corners = tuple(corners)
            if len(corners) != 1 << k:
                raise InputFormatError(
                    f"{k}-cube needs {1 << k} corners, got {len(corners)}",
                    cube=corners)
            for v in corners:
                if v not in vertex_set:
                    raise UnknownVertexError(
                        f"cube corner {v!r} is not a listed vertex",
                        vertex=v, cube=corners)
            if len(set(corners)) != len(corners):
                raise SelfGluingError(
                    "cube has a repeated corner id", cube=corners, dim=k)
            canon = skey_canonical_cube(corners)
            if canon in listed[k]:
                raise DuplicateCubeError(
                    "cube listed twice (up to symmetry)", cube=corners, dim=k)
            listed[k].add(canon)
    cubes = frozenset(c for cs in listed.values() for c in cs)
    walk = sorted(cubes, key=lambda c: (len(c), [skey(v) for v in c]))
    for c in walk:
        k = cube_dim(c)
        if k == 1:
            continue
        for f in cube_faces(c):
            if skey_canonical_cube(f) not in listed.get(k - 1, ()):
                raise MissingFaceError(
                    "face of a listed cube is not listed",
                    cube=c, face=f, dim=k - 1)
    owner: dict = {}
    for c in walk:
        top = len(c) - 1
        for p in range(len(c) // 2):
            a = owner.setdefault(frozenset((c[p], c[p ^ top])), c)
            if a is not c:
                raise DoubleGluingError(
                    "cubes intersect in more than one common face",
                    cube_a=a, cube_b=c, shared=ssorted(set(a) & set(c)))
    return LabelComplex(vertices=vertex_set, cubes=cubes,
                        maximal=cubes - faces_of_larger(cubes, skey_canonical_cube))


def scan_maximal_cubes(dual: DualComplex) -> list[tuple]:
    """Oracle for ``pocsets.maximal_cubes``: the cubes that are no face of
    a larger one, by ``faces_of_larger``, with their families, ordered by
    (size, corners)."""
    x = dual.complex
    covered = faces_of_larger(x.cubes)
    return [(c, dual.cube_families[c])
            for c in sorted(x.cubes, key=lambda t: (len(t), t)) if c not in covered]


# ---------------------------------------------------------------------------
# complexes


def tree_product(*trees) -> CubeComplex:
    """Product of trees, each given as an edge list on 0..n-1. Vertices are
    tuples; a cube picks an edge in some factors and a vertex in the rest,
    with corners in binary-coordinate order over the picked edges."""
    factor_cells = []
    for edges in trees:
        size = 1 + max((max(e) for e in edges), default=0)
        factor_cells.append([(v,) for v in range(size)] + [tuple(e) for e in edges])
    vertices, cubes = [], {}
    for cell in itertools.product(*factor_cells):
        axes = [i for i, c in enumerate(cell) if len(c) == 2]
        corners = []
        for bits in range(1 << len(axes)):
            point = [c[0] for c in cell]
            for j, i in enumerate(axes):
                point[i] = cell[i][(bits >> j) & 1]
            corners.append(tuple(point))
        if axes:
            cubes.setdefault(len(axes), []).append(tuple(corners))
        else:
            vertices.append(corners[0])
    return build_complex(vertices, cubes)


def grid_complex(*cells) -> CubeComplex:
    """Standard cubing of a box with the given cell counts per axis."""
    return tree_product(*[[(i, i + 1) for i in range(c)] for c in cells])


def grid_from_cells(cells_2d) -> CubeComplex:
    """2-complex from a list of unit-square cells (i, j)."""
    vertices = set()
    edges = set()
    squares = []
    for (i, j) in cells_2d:
        quad = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
        vertices.update(quad)
        edges.add(((i, j), (i + 1, j)))
        edges.add(((i, j + 1), (i + 1, j + 1)))
        edges.add(((i, j), (i, j + 1)))
        edges.add(((i + 1, j), (i + 1, j + 1)))
        squares.append(tuple(quad))
    return build_complex(sorted(vertices), {1: sorted(edges), 2: squares})


def torus(m: int, n: int) -> CubeComplex:
    """Product of the cycles C_m and C_n (m, n >= 3), cell by cell."""
    vertices = [(i, j) for i in range(m) for j in range(n)]
    edges, squares = [], []
    for i in range(m):
        for j in range(n):
            edges.append(((i, j), ((i + 1) % m, j)))
            edges.append(((i, j), (i, (j + 1) % n)))
            squares.append(((i, j), ((i + 1) % m, j),
                            (i, (j + 1) % n), ((i + 1) % m, (j + 1) % n)))
    return build_complex(vertices, {1: edges, 2: squares})


def torus_3x3() -> CubeComplex:
    return torus(3, 3)


def cube_boundary_3() -> CubeComplex:
    """The six squares of a 3-cube without the solid cube."""
    solid = named(grid_complex(1, 1, 1))
    squares = sorted(solid.by_dim[2])
    edges = sorted(solid.by_dim[1])
    return build_complex(sorted(solid.vertices), {1: edges, 2: squares})


def hollow_square() -> CubeComplex:
    return build_complex(
        "abcd", {1: [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]})


def tree_complex(edges) -> CubeComplex:
    vertices = sorted({v for e in edges for v in e})
    return build_complex(vertices, {1: sorted(tuple(e) for e in edges)})


def path_complex(k: int) -> CubeComplex:
    return tree_complex([(i, i + 1) for i in range(k)])


def star_complex(k: int) -> CubeComplex:
    return tree_complex([(0, i) for i in range(1, k + 1)])


def random_tree_complex(n: int, seed: int) -> CubeComplex:
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return tree_complex(edges)


def glue_hexagon(x: CubeComplex, at) -> CubeComplex:
    """x with a 6-cycle of new vertices ("hex", 1..5) glued on at vertex
    ``at``: flag links and no 4-cycle, but not median."""
    ring = [at] + [("hex", i) for i in range(1, 6)]
    edges = [(ring[i], ring[(i + 1) % 6]) for i in range(6)]
    return _glue(x, ring[1:], {1: edges})


def glue_cube_boundary(x: CubeComplex, at) -> CubeComplex:
    """x with the boundary of a 3-cube glued on at vertex ``at``: the
    corner links of the boundary are empty triangles."""
    corner = [at] + [("cb", i) for i in range(1, 8)]
    solid = named(grid_complex(1, 1, 1))
    rename = {p: corner[p[0] + 2 * p[1] + 4 * p[2]] for p in solid.vertices}
    cells = {k: [tuple(rename[p] for p in c) for c in solid.by_dim[k]]
             for k in (1, 2)}
    return _glue(x, corner[1:], cells)


def _glue(x: CubeComplex, new_vertices, new_cubes) -> CubeComplex:
    cubes = {k: list(cs) for k, cs in named(x).by_dim.items()}
    for k, cs in new_cubes.items():
        cubes.setdefault(k, []).extend(cs)
    return build_complex(list(x.labels) + list(new_vertices), cubes)


def relabel(x: CubeComplex, rename) -> CubeComplex:
    """Copy of x with vertex id v renamed to rename[v]."""
    return build_complex(
        [rename[v] for v in x.labels],
        {k: [tuple(rename[v] for v in c) for c in cs]
         for k, cs in named(x).by_dim.items()})


def bfs_distances(x: CubeComplex) -> dict:
    """(u, v) -> 1-skeleton distance, by vertex ids, for every connected
    pair, by a plain breadth-first search per vertex."""
    y = named(x)
    out = {}
    for start in y.vertices:
        seen = {start: 0}
        queue = [start]
        for v in queue:
            for w in y.adjacency[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    queue.append(w)
        out.update(((start, v), d) for v, d in seen.items())
    return out


def distance_matrix(x: CubeComplex) -> np.ndarray:
    """All-pairs 1-skeleton distances from ``bfs_distances``, indexed like
    ranks; -1 for unreachable pairs."""
    dist = bfs_distances(x)
    order = x.labels
    return np.array([[dist.get((u, v), -1) for v in order] for u in order],
                    dtype=np.int32).reshape(len(order), len(order))


def dense_median_violation(x: CubeComplex, cap: int):
    """Oracle for ``complexes._median_violation``: the exhaustive
    unique-median check over all vertex triples, through a dense
    interval[x, y, m] tensor (O(n^3) memory, one einsum per slice).
    Returns None or a witness dict."""
    n = len(x.labels)
    if n > cap:
        raise CapExceededError(
            f"median check over {n} vertices exceeds cap {cap}", cap=cap)
    if n < 3:
        return None
    dist = distance_matrix(x)
    # interval[x, y, m] == 1 iff m lies on a geodesic from x to y
    interval = (dist[:, None, :] + dist[None, :, :] == dist[:, :, None])
    interval = interval.astype(np.uint8)
    for a in range(n - 2):
        sub = interval[a + 1:, a + 1:, :]
        row = interval[a, a + 1:, :]
        counts = np.einsum("bm,bcm,cm->bc", row, sub, row, dtype=np.int64)
        bad = np.argwhere(counts != 1)
        bad = bad[bad[:, 0] < bad[:, 1]]
        if bad.size:
            b, c = (int(t) for t in bad[0])
            triple = (x.labels[a], x.labels[a + 1 + b], x.labels[a + 1 + c])
            medians = [x.labels[m] for m in range(n)
                       if interval[x.vertex_index[triple[0]],
                                   x.vertex_index[triple[1]], m]
                       and interval[x.vertex_index[triple[1]],
                                    x.vertex_index[triple[2]], m]
                       and interval[x.vertex_index[triple[0]],
                                    x.vertex_index[triple[2]], m]]
            return {"triple": triple, "medians": medians}
    return None


def label_median_violation(x: CubeComplex, cap: int):
    """Oracle for ``complexes._median_violation``: the partial-cube label
    check. Each vertex gets one bit per hyperplane; a median graph embeds
    isometrically by these labels, and then a triple has a median iff its
    bitwise majority is a label. Labels that are not isometric prove the
    graph is not median, and the intervals are scanned one pair at a time
    for the least bad triple. Returns None or a witness dict."""
    n = len(x.labels)
    if n > cap:
        raise CapExceededError(
            f"median check over {n} vertices exceeds cap {cap}", cap=cap)
    if n < 3:
        return None
    dist = distance_matrix(x)
    labels = _hyperplane_labels(x, dist)
    found = _pairwise_violation(dist) if labels is None else _majority_miss(labels)
    if found is None:
        return None
    triple, medians = found
    return {"triple": tuple(x.labels[i] for i in triple),
            "medians": [x.labels[m] for m in medians]}


def _hyperplane_labels(x: CubeComplex, dist: np.ndarray):
    """(n, k) bool labels, bit i of vertex w set iff w is nearer the first
    end of one edge (u, v) of hyperplane i than the second; or None when
    the Hamming distance of two labels is not always their distance."""
    ends = [min(h.edges) for h in hyperplanes(x)]
    u, v = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    labels = dist[:, u] < dist[:, v]
    for w in range(len(labels)):
        if not np.array_equal(np.count_nonzero(labels[w] != labels, axis=1),
                              dist[w]):
            return None
    return labels


def _majority_miss(labels: np.ndarray):
    """First triple a < b < c of label rows whose bitwise majority is no
    row, as (triple, []); None if there is none. Rows are packed to uint64
    words and looked up in sorted order, one slice of triples at a time."""
    n, k = labels.shape
    words = -(-k // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :-(-k // 8)] = np.packbits(labels, axis=1)
    packed = packed.view(np.uint64)
    key = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))
    known = np.sort(packed.view(key).ravel())
    for a in range(n - 2):
        rest = packed[a + 1:]
        b, c = np.triu_indices(len(rest), 1)
        rb, rc = rest[b], rest[c]
        majority = ((packed[a] & (rb | rc)) | (rb & rc)).view(key).ravel()
        pos = np.minimum(np.searchsorted(known, majority), n - 1)
        miss = np.flatnonzero(known[pos] != majority)
        if miss.size:
            i = miss[0]
            return (a, a + 1 + int(b[i]), a + 1 + int(c[i])), []
    return None


def _pairwise_violation(dist: np.ndarray):
    """First triple a < b < c whose pairwise geodesic intervals do not meet
    in exactly one vertex, as (triple, medians); None if there is none."""
    n = len(dist)
    for a in range(n - 2):
        from_a = dist[a] + dist == dist[a][:, None]
        for b in range(a + 1, n - 1):
            from_b = dist[b] + dist[b + 1:] == dist[b, b + 1:, None]
            common = from_a[b] & from_a[b + 1:] & from_b
            bad = np.flatnonzero(np.count_nonzero(common, axis=1) != 1)
            if bad.size:
                c = int(bad[0])
                return (a, b, b + 1 + c), np.flatnonzero(common[c]).tolist()
    return None


def matrix_median(x: CubeComplex, a, b, c):
    """Oracle for ``complexes.median``: the vertices in all three pairwise
    intervals, read off the distance matrix, or the error it raises."""
    for v in (a, b, c):
        if v not in x.labels:
            raise UnknownVertexError(f"unknown vertex {v!r}", vertex=v)
    dist = distance_matrix(x)
    if len(x.labels) and (dist[0] < 0).any():
        raise DisconnectedError("median requires a connected complex")
    ia, ib, ic = (x.labels.index(v) for v in (a, b, c))
    hits = [x.labels[m] for m in range(len(x.labels))
            if dist[ia, m] + dist[m, ib] == dist[ia, ib]
            and dist[ib, m] + dist[m, ic] == dist[ib, ic]
            and dist[ia, m] + dist[m, ic] == dist[ia, ic]]
    if not hits:
        raise NoMedianError("triple has no median", triple=(a, b, c))
    if len(hits) > 1:
        raise MultipleMediansError("triple has several medians",
                                   triple=(a, b, c), medians=hits)
    return hits[0]


# ---------------------------------------------------------------------------
# exhaustive scans (oracles for the indexed ones in complexes and treespace)


def all_faces(corners: tuple) -> dict[frozenset, tuple]:
    """Map corner-id set -> canonical cube (by ``skey``), over every face of
    every dimension (including the cube itself)."""
    out = {frozenset(corners): skey_canonical_cube(corners)}
    stack = [corners]
    while stack:
        c = stack.pop()
        if cube_dim(c) == 0:
            continue
        for f in cube_faces(c):
            key = frozenset(f)
            if key not in out:
                out[key] = skey_canonical_cube(f)
                stack.append(f)
    return out


def pairwise_double_gluing(all_cubes) -> None:
    """Oracle for ``complexes._check_double_gluing``: every two cubes with
    a common vertex must share at most the corner set of one common face.
    Raises DoubleGluingError for the first bad pair met."""
    by_vertex: dict = {}
    for c in all_cubes:
        for v in set(c):
            by_vertex.setdefault(v, []).append(c)
    face_maps: dict[tuple, dict] = {}

    def faces_of(c):
        if c not in face_maps:
            face_maps[c] = all_faces(c)
        return face_maps[c]

    checked = set()
    for cubes_here in by_vertex.values():
        for a, b in itertools.combinations(cubes_here, 2):
            ka, kb = (cube_dim(a), [skey(v) for v in a]), (cube_dim(b), [skey(v) for v in b])
            pair = (a, b) if ka <= kb else (b, a)
            if pair in checked:
                continue
            checked.add(pair)
            shared = frozenset(pair[0]) & frozenset(pair[1])
            if len(shared) <= 1:
                continue
            fa = faces_of(pair[0]).get(shared)
            fb = faces_of(pair[1]).get(shared)
            if fa is None or fb is None or fa != fb:
                raise DoubleGluingError(
                    "cubes intersect in more than one common face",
                    cube_a=pair[0], cube_b=pair[1], shared=ssorted(shared))


def scan_vertex_link(x: CubeComplex, v):
    """Oracle for ``complexes.vertex_link``: the link of the vertex with id
    v from a scan of every cube of x."""
    r = x.labels.index(v)
    link_vertices: set[tuple] = set()
    simplices: list[frozenset] = []
    for c in x.cubes:
        for pos, corner in enumerate(c):
            if corner != r:
                continue
            dirs = [canonical_cube((r, c[pos ^ (1 << axis)]))
                    for axis in range(cube_dim(c))]
            link_vertices.update(dirs)
            simplices.append(frozenset(dirs))
    return build_simplicial(link_vertices, simplices)


def all_pairs_unfilled_square(x: CubeComplex):
    """Oracle for ``complexes._unfilled_square``: the first 4-cycle a-v-b-w
    with no listed square, over all vertex pairs a < b of ids in ``skey``
    order, on the complex keyed by ids."""
    y = named(x)
    adj = y.adjacency
    order = ssorted(y.vertices)
    rank = {v: i for i, v in enumerate(order)}
    for a in order:
        for b in order:
            if rank[b] <= rank[a] or b in adj[a]:
                continue
            common = ssorted(adj[a] & adj[b])
            for v, w in itertools.combinations(common, 2):
                if skey_canonical_cube((a, v, w, b)) not in y.squares:
                    return {"cycle": (a, v, b, w)}
    return None


def pairwise_make_orthant(n: int, coords: dict) -> Orthant:
    """Oracle for ``treespace.make_orthant``: compatibility checked on every
    pair of clusters."""
    items = tuple(sorted(((frozenset(c), float(l)) for c, l in coords.items()),
                         key=lambda cl: _ckey(cl[0])))
    for c, l in items:
        if not (2 <= len(c) <= n - 1) or not all(
                isinstance(x, int) and 1 <= x <= n for x in c):
            raise IncompatibleClustersError(f"bad cluster {sorted(c)}",
                                            cluster=sorted(c))
        if l <= 0:
            raise NonPositiveLengthError(f"cluster {sorted(c)} has length {l}")
    clusters = [c for c, _ in items]
    for a, b in itertools.combinations(clusters, 2):
        if not compatible(a, b):
            raise IncompatibleClustersError(
                f"clusters {sorted(a)} and {sorted(b)} overlap improperly",
                pair=(sorted(a), sorted(b)))
    if len(items) > n - 2:
        raise IncompatibleClustersError(
            f"{len(items)} clusters exceed the maximum n-2 = {n - 2}")
    return Orthant(n=n, coords=items)


def scan_hyperplanes_cross(x: CubeComplex, h1, h2) -> bool:
    """Oracle for ``complexes.hyperplanes_cross``: some listed square has
    one of its axes in each class (both in the class when h1 is h2)."""
    edge_to = {}
    for h in (h1, h2):
        for e in h.edges:
            edge_to.setdefault(e, set()).add(h.index)
    for sq in x.squares:
        c00, c10, c01, c11 = sq
        d0 = edge_to.get(canonical_cube((c00, c10)), set())
        d1 = edge_to.get(canonical_cube((c00, c01)), set())
        if (h1.index in d0 and h2.index in d1) or (h2.index in d0 and h1.index in d1):
            return True
    return False


def swapped_torus(m: int, k: int) -> CubeComplex:
    """C_m x C_m modulo (x, y) -> (y + k, x), which turns horizontal edges
    into vertical ones: every hyperplane crosses itself. (m, k) = (10, 5)
    gives a valid complex with 25 vertices and 5 hyperplanes."""
    def orbit_min(p):
        orbit = [p]
        while (q := ((orbit[-1][1] + k) % m, orbit[-1][0])) != p:
            orbit.append(q)
        return min(orbit)

    edges, squares = set(), set()
    for i in range(m):
        for j in range(m):
            a, b, c, d = (orbit_min(((i + di) % m, (j + dj) % m))
                          for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)))
            edges |= {skey_canonical_cube((a, b)), skey_canonical_cube((a, c))}
            squares.add(skey_canonical_cube((a, b, c, d)))
    vertices = sorted({v for e in edges for v in e})
    return build_complex(vertices, {1: sorted(edges), 2: sorted(squares)})


def pairwise_from_orthant(o: Orthant) -> PhyloTree:
    """Oracle for ``treespace.from_orthant``: compatibility checked on every
    pair of clusters, and each cluster's parent and each leaf's host found
    by a scan of all clusters."""
    n = o.n
    clusters = sorted(o.topology, key=_ckey)
    for a, b in itertools.combinations(clusters, 2):
        if not compatible(a, b):
            raise IncompatibleClustersError(
                f"clusters {sorted(a)} and {sorted(b)} overlap improperly")

    def node_id(c: frozenset) -> str:
        return "c" + ".".join(str(x) for x in sorted(c))

    children: dict = {"root": []}
    for c in clusters:
        children[node_id(c)] = []
    leaf_parent: dict = {}
    for lab in range(1, n + 1):
        containing = [c for c in clusters if lab in c]
        host = min(containing, key=_ckey) if containing else None
        leaf_parent[lab] = node_id(host) if host is not None else "root"
    for c in clusters:
        supersets = [d for d in clusters if c < d]
        parent = node_id(min(supersets, key=_ckey)) if supersets else "root"
        children[parent].append(node_id(c))
    for lab in range(1, n + 1):
        children[leaf_parent[lab]].append(f"l{lab}")
        children[f"l{lab}"] = []
    lengths = {node_id(c): o.lengths[c] for c in clusters}
    return PhyloTree(
        n=n, root="root",
        children={v: tuple(cs) for v, cs in children.items()},
        leaf_label={f"l{lab}": lab for lab in range(1, n + 1)},
        lengths=lengths)


# ---------------------------------------------------------------------------
# halfspace systems on id pairs (oracles for the bitset code in pocsets)


@dataclass(frozen=True)
class PairSystem:
    """Oracle for ``pocsets.HalfspaceSystem``: the order as a frozenset of
    strict id pairs (a, b), a < b, with every derived table read off the
    pairs and the hyperplanes sorted again from the star map."""

    halfspaces: tuple
    star_pairs: tuple
    leq: frozenset

    @classmethod
    def of(cls, s: HalfspaceSystem) -> PairSystem:
        return cls(halfspaces=s.halfspaces, star_pairs=s.star_pairs, leq=s.leq)

    @cached_property
    def star(self) -> dict:
        out = {}
        for a, b in self.star_pairs:
            out[a] = b
            out[b] = a
        return out

    @cached_property
    def hyperplanes(self) -> tuple:
        pairs = [tuple(ssorted((a, b))) for a, b in self.star_pairs]
        return tuple(sorted(pairs, key=lambda p: (skey(p[0]), skey(p[1]))))

    @cached_property
    def hyperplane_of(self) -> dict:
        return {h: i for i, pair in enumerate(self.hyperplanes) for h in pair}

    @cached_property
    def transversal_adjacency(self) -> dict:
        n = len(self.hyperplanes)
        adj = {i: set(range(n)) - {i} for i in range(n)}
        for a, b in self.leq:
            i, j = self.hyperplane_of[a], self.hyperplane_of[b]
            adj[i].discard(j)
            adj[j].discard(i)
        return {i: frozenset(js) for i, js in adj.items()}

    @cached_property
    def strictly_below(self) -> dict:
        below = {h: set() for h in self.halfspaces}
        for a, b in self.leq:
            below[b].add(a)
        return {h: frozenset(v) for h, v in below.items()}

    def lt(self, a, b) -> bool:
        return (a, b) in self.leq


def system_of_pairs(halfspaces, star_pairs, strict) -> HalfspaceSystem:
    """A ``HalfspaceSystem`` with the closed order ``strict`` (id pairs),
    written into the ``above`` bitsets one pair at a time."""
    labels = [h for pair in star_pairs for h in pair]
    position = {h: p for p, h in enumerate(labels)}
    above = [0] * len(labels)
    for a, b in strict:
        above[position[a]] |= 1 << position[b]
    return HalfspaceSystem(halfspaces=tuple(halfspaces), star_pairs=tuple(star_pairs),
                           above=tuple(above))


def _check_star(ids, star_pairs) -> dict:
    """The involution checks shared by both builder oracles."""
    idset = set(ids)
    if len(idset) != len(ids):
        raise InputFormatError("duplicate halfspace id")
    star = {}
    for a, b in star_pairs:
        if a not in idset or b not in idset:
            raise InputFormatError(f"star pair ({a!r},{b!r}) uses unknown ids")
        if a == b:
            raise SelfPairedError(f"halfspace {a!r} paired with itself", halfspace=a)
        for x, y in ((a, b), (b, a)):
            if x in star and star[x] != y:
                raise NotInvolutionError(f"{x!r} paired twice", halfspace=x)
            star[x] = y
    unpaired = [h for h in ids if h not in star]
    if unpaired:
        raise NotInvolutionError("unpaired halfspaces", halfspaces=ssorted(unpaired))
    return star


def pair_build_system(halfspaces, star_pairs, leq_pairs) -> PairSystem:
    """Oracle for ``pocsets.build_system``: the closure as a set of id
    pairs, one reachability pass per halfspace, and every check on the
    pairs, in the same order and with the same witnesses."""
    ids = list(halfspaces)
    star = _check_star(ids, star_pairs)
    succ: dict = {h: set() for h in ids}
    for a, b in leq_pairs:
        if a not in succ or b not in succ:
            raise InputFormatError(f"leq pair ({a!r},{b!r}) uses unknown ids")
        if a != b:
            succ[a].add(b)
            succ[star[b]].add(star[a])
    strict: set[tuple] = set()
    for h in ids:
        stack = list(succ[h])
        while stack:
            k = stack.pop()
            if (h, k) not in strict:
                strict.add((h, k))
                stack.extend(succ[k])
    for a in ids:
        if (a, a) in strict:
            b = next(b for b in ids if b != a and (a, b) in strict and (b, a) in strict)
            raise CyclicOrderError(f"{a!r} and {b!r} are mutually below each other",
                                   pair=(a, b))
    pairs = sorted({tuple(ssorted((a, b))) for a, b in star.items()},
                   key=lambda p: (skey(p[0]), skey(p[1])))
    for (a, _), (c, _) in itertools.combinations(pairs, 2):
        b, d = star[a], star[c]
        rels = [r for r in ((a, c), (a, d), (b, c), (b, d)) if r in strict]
        if len(rels) > 1:
            raise NestingViolationError(
                "more than one nesting relation between two hyperplanes",
                pair=((a, b), (c, d)), relations=rels)
    for h in ids:
        if (h, star[h]) in strict or (star[h], h) in strict:
            raise ComparableComplementsError(
                f"halfspace {h!r} comparable with its complement", halfspace=h)
    return PairSystem(halfspaces=tuple(ssorted(ids)), star_pairs=tuple(pairs),
                      leq=frozenset(strict))


def pair_is_vertex(s: PairSystem, o: Orientation) -> VertexResult:
    """Oracle for ``pocsets.is_vertex``: every pair of choices, in index
    order, tested both ways."""
    if len(o.choices) != len(s.hyperplanes):
        raise PartialOrientationError(
            f"orientation fixes {len(o.choices)} of {len(s.hyperplanes)} hyperplanes")
    chosen = o.choices
    for i, a in enumerate(chosen):
        if s.hyperplane_of.get(a) != i:
            raise PartialOrientationError(
                f"choice {a!r} does not belong to hyperplane {i}")
    for i, j in itertools.combinations(range(len(chosen)), 2):
        a, b = chosen[i], chosen[j]
        if s.lt(a, s.star[b]):
            return VertexResult(ok=False, witness=(a, b))
        if s.lt(b, s.star[a]):
            return VertexResult(ok=False, witness=(b, a))
    return VertexResult(ok=True)


class TwoSat:
    """2-SAT via strongly connected components of the implication graph
    (Tarjan). Literals are ints: variable v has positive literal 2*v and
    negative 2*v+1."""

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.adj: list[list[int]] = [[] for _ in range(2 * n_vars)]

    def add_clause(self, a: int, b: int) -> None:
        """Require a OR b."""
        self.adj[a ^ 1].append(b)
        self.adj[b ^ 1].append(a)

    def _tarjan(self) -> list[int]:
        n = 2 * self.n
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        ncomp = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for i in range(pi, len(self.adj[v])):
                    w = self.adj[v][i]
                    if index[w] == -1:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        return comp

    def solve(self) -> list[bool] | None:
        """Satisfying assignment, or None. Deterministic for a fixed input."""
        comp = self._tarjan()
        out = []
        for v in range(self.n):
            if comp[2 * v] == comp[2 * v + 1]:
                return None
            # Tarjan numbers components in reverse topological order, so the
            # literal with the smaller component id is implied later and safe
            # to set true.
            out.append(comp[2 * v] < comp[2 * v + 1])
        return out


def pair_seed_vertex(s: PairSystem, clauses=None) -> Orientation:
    """Oracle for ``pocsets.seed_vertex``: one 2-SAT clause per strict pair
    (a, b), "not a or not b*", added in the order of ``clauses`` (default:
    the iteration order of ``s.leq``), solved by ``TwoSat``."""
    n = len(s.hyperplanes)

    def as_literal(h):
        i = s.hyperplane_of[h]
        return 2 * i if s.hyperplanes[i][0] == h else 2 * i + 1

    sat = TwoSat(n)
    for a, b in (s.leq if clauses is None else clauses):
        bs = s.star[b]
        if s.hyperplane_of[a] == s.hyperplane_of[bs]:
            continue
        sat.add_clause(as_literal(a) ^ 1, as_literal(bs) ^ 1)
    assignment = sat.solve()
    assert assignment is not None, "no consistent orientation exists"
    return Orientation(choices=tuple(
        s.hyperplanes[i][0] if assignment[i] else s.hyperplanes[i][1]
        for i in range(n)))


def pair_minimal(s: PairSystem, v: Orientation) -> tuple:
    """Oracle for the minimal choices: no chosen halfspace strictly below."""
    chosen = set(v.choices)
    return tuple(h for h in v.choices if not (s.strictly_below[h] & chosen))


def pair_flip_at(s: PairSystem, v: Orientation, idxs) -> Orientation:
    choices = list(v.choices)
    for i in idxs:
        choices[i] = s.star[choices[i]]
    return Orientation(choices=tuple(choices))


def pair_dual_complex(s: PairSystem, seed: Orientation, cap: int = 100_000,
                      all_corners: bool = False):
    """Oracle for ``pocsets.dual_complex``: the BFS over flips on
    ``Orientation`` tuples, and each cube assembled at the one corner that
    chooses the first halfspace of each of its hyperplanes, or, with
    ``all_corners``, at each of its 2^k corners. Returns the orientations
    in BFS order, the complex and the cube families."""
    res = pair_is_vertex(s, seed)
    if not res.ok:
        raise NotAVertexError("seed orientation is not a vertex", witness=res.witness)
    if cap < 1:
        raise CapExceededError(f"dual component exceeds cap {cap}", cap=cap)
    order = [seed]
    ids = {seed: 0}
    minimal_at = []
    for v in order:
        minimal = sorted(s.hyperplane_of[h] for h in pair_minimal(s, v))
        minimal_at.append(minimal)
        for i in minimal:
            w = pair_flip_at(s, v, (i,))
            if w not in ids:
                if len(order) >= cap:
                    raise CapExceededError(f"dual component exceeds cap {cap}", cap=cap)
                ids[w] = len(order)
                order.append(w)
    cubes_by_dim: dict[int, set] = {}
    families: dict[tuple, tuple] = {}
    for v, minimal in zip(order, minimal_at):
        if not all_corners:
            minimal = [i for i in minimal if v.choices[i] == s.hyperplanes[i][0]]
        for fam in cliques(s.transversal_adjacency, minimal):
            if not fam:
                continue
            corners = tuple(
                ids[pair_flip_at(s, v, [i for pos, i in enumerate(fam) if (bits >> pos) & 1])]
                for bits in range(1 << len(fam)))
            canon = canonical_cube(corners)
            cubes_by_dim.setdefault(len(fam), set()).add(canon)
            families[canon] = fam
    complex_ = build_complex(list(range(len(order))),
                             {k: sorted(v) for k, v in cubes_by_dim.items()})
    return tuple(order), complex_, families


def all_corners_dual_complex(s: HalfspaceSystem, seed, cap: int = 100_000) -> DualComplex:
    """Oracle for ``pocsets.dual_complex``: the pair-set BFS over flips,
    with every cube assembled at each of its 2^k corners, from every family
    of pairwise-transversal minimal hyperplanes there."""
    order, complex_, families = pair_dual_complex(PairSystem.of(s), seed, cap,
                                                  all_corners=True)
    return DualComplex(system=s, seed=seed, complex=complex_,
                       masks=tuple(_chosen(s, o) for o in order),
                       cube_families=families)


def fixpoint_closure(star: dict, leq_pairs) -> set:
    """Oracle for the closure in ``pocsets.build_system``: the generators
    and their star images, closed under transitivity and re-closed under
    star until nothing changes. Raises CyclicOrderError for some
    mutually-below pair, and asserts that the result is order-reversing."""
    strict: set[tuple] = set()
    for a, b in leq_pairs:
        if a != b:
            strict.add((a, b))
            strict.add((star[b], star[a]))
    changed = True
    while changed:
        changed = False
        succ: dict = {}
        for a, b in strict:
            succ.setdefault(a, set()).add(b)
        new = set()
        for a in succ:
            for b in succ[a]:
                for c in succ.get(b, ()):
                    if a != c and (a, c) not in strict:
                        new.add((a, c))
        for a, b in list(new):
            new.add((star[b], star[a]))
        if new - strict:
            strict |= new
            changed = True
    for a, b in strict:
        if (b, a) in strict:
            raise CyclicOrderError(f"{a!r} and {b!r} are mutually below each other",
                                   pair=(a, b))
        assert (star[b], star[a]) in strict, "closure is not order-reversing"
    return strict


def fixpoint_build_system(halfspaces, star_pairs, leq_pairs) -> HalfspaceSystem:
    """Oracle for ``pocsets.build_system``: the same checks in the same
    order, on the closure of ``fixpoint_closure``."""
    ids = list(halfspaces)
    star = _check_star(ids, star_pairs)
    for a, b in leq_pairs:
        if a not in star or b not in star:
            raise InputFormatError(f"leq pair ({a!r},{b!r}) uses unknown ids")
    strict = fixpoint_closure(star, leq_pairs)
    pairs = sorted({tuple(ssorted((a, b))) for a, b in star.items()},
                   key=lambda p: (skey(p[0]), skey(p[1])))
    for (a, _), (c, _) in itertools.combinations(pairs, 2):
        b, d = star[a], star[c]
        if sum(r in strict for r in ((a, c), (a, d), (b, c), (b, d))) > 1:
            raise NestingViolationError(
                "more than one nesting relation between two hyperplanes")
    for h in ids:
        if (h, star[h]) in strict or (star[h], h) in strict:
            raise ComparableComplementsError(
                f"halfspace {h!r} comparable with its complement", halfspace=h)
    return system_of_pairs(ssorted(ids), pairs, strict)


# ---------------------------------------------------------------------------
# braid-orbit word problem (oracle for coxeter.reduce_word)

BRAID_ORBIT_CAP = 200_000


class OrbitCapExceeded(Exception):
    pass


def _braid_images(sys_, w):
    for p in range(len(w) - 1):
        s, t = w[p], w[p + 1]
        if s == t:
            continue
        m = sys_.m(s, t)
        if m == math.inf or p + m > len(w):
            continue
        if all(w[p + i] == (s if i % 2 == 0 else t) for i in range(m)):
            run = tuple(t if i % 2 == 0 else s for i in range(m))
            yield w[:p] + run + w[p + m:]


def _orbit_step(sys_, start, memo: dict, cap: int):
    """Explore the braid orbit of ``start``. Returns ("canon", word) on a
    memo hit, ("shorter", word) when a doubled letter appears anywhere in
    the orbit, or ("reduced", orbit) when the full orbit has no deletion."""
    orbit = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        hit = memo.get(w)
        if hit is not None:
            return "canon", hit, orbit
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                return "shorter", w[:i] + w[i + 2:], orbit
        for img in _braid_images(sys_, w):
            if img not in orbit:
                if len(orbit) >= cap:
                    raise OrbitCapExceeded(f"braid orbit exceeds cap {cap}")
                orbit.add(img)
                queue.append(img)
    return "reduced", None, orbit


def braid_reduce_word(sys_, word, memo: dict, orbit_cap: int = BRAID_ORBIT_CAP):
    """Oracle for ``coxeter.reduce_word``, by Tits' solution of the word
    problem: a word is reduced iff no word in its braid-move orbit has a
    doubled letter, and the reduced words of an element form one orbit.
    So the normal form is the least word of the orbit reached after
    deleting doubled letters. Every word met goes into ``memo``, which
    maps words of this system to their normal forms."""
    w = tuple(word)
    if w in memo:
        return memo[w]
    trail: list = []
    current = w
    while True:
        kind, payload, orbit = _orbit_step(sys_, current, memo, orbit_cap)
        trail.extend(orbit)
        if kind == "canon":
            canon = payload
            break
        if kind == "shorter":
            current = payload
            continue
        canon = min(orbit)
        break
    for u in trail:
        memo[u] = canon
    memo[w] = canon
    return canon


def reflection_word_walls(ball) -> list[Wall]:
    """Oracle for ``coxeter.walls``: the ball's edges grouped by the braid
    normal form of their reflection u s u^-1, sorted by that word."""
    grouped: dict = {}
    memo: dict = {}
    for u, v, s in ball.edges:
        r = braid_reduce_word(ball.system, u + (s,) + tuple(reversed(u)), memo)
        grouped.setdefault(r, []).append((u, v))
    return [Wall(reflection=r, edges=tuple(sorted(grouped[r])))
            for r in sorted(grouped, key=lambda w: (len(w), w))]


# ---------------------------------------------------------------------------
# Cayley balls


def two_pass_cayley_ball(sys_, radius: int, cap: int = 100_000) -> CayleyBall:
    """Oracle for ``coxeter.cayley_ball``: the BFS lists the elements level
    by level, by braid normal forms, and a second pass over all of them
    reduces every w + (s,) again to list the edges. Each element's point
    w^-1 rho is its word's letters acting on rho, first letter first."""
    if radius < 0:
        raise InputFormatError("radius must be >= 0")
    levels = [[()]]
    seen = {()}
    memo: dict = {}
    for d in range(radius):
        nxt = set()
        for w in levels[d]:
            for s in range(sys_.rank):
                u = braid_reduce_word(sys_, w + (s,), memo)
                if len(u) == d + 1 and u not in seen:
                    nxt.add(u)
        if not nxt:
            break
        if len(seen) + len(nxt) > cap:
            raise CapExceededError(f"ball exceeds cap {cap}", cap=cap)
        seen |= nxt
        levels.append(sorted(nxt))
    elements = tuple(w for level in levels for w in level)
    edges = []
    for w in elements:
        for s in range(sys_.rank):
            u = braid_reduce_word(sys_, w + (s,), memo)
            if len(u) == len(w) + 1 and u in seen:
                edges.append((w, u, s))
    tits = sys_.tits
    points = []
    for w in elements:
        p = tits.rho
        for s in w:
            p = tits.act(s, p)
        points.append(p)
    return CayleyBall(system=sys_, radius=radius, elements=elements,
                      edges=tuple(edges), points=tuple(points))


# ---------------------------------------------------------------------------
# Coxeter wall sides (oracles for the inversion-set rule in coxeter)


def distance_members(ball, margin: int) -> dict:
    """Oracle for ``coxeter.halfspace_system(...).members``: per selected
    wall, "+" holds the ball elements nearer to u than to v, for the wall's
    first edge (u, v), by two word-metric distances each."""
    sys_ = ball.system
    selected = [w for w in walls(ball)
                if any(len(v) <= ball.radius - margin for _, v in w.edges)]
    universe = frozenset(ball.elements)
    members = {}
    for i, w in enumerate(selected):
        u, v = w.edges[0]
        side_u = frozenset(g for g in ball.elements
                           if distance(sys_, g, u) < distance(sys_, g, v))
        members[_hid(i, "+")] = side_u
        members[_hid(i, "-")] = universe - side_u
    return members


def frozenset_trust_report(th: TruncatedHalfspaces) -> tuple:
    """Oracle for ``TruncatedHalfspaces.untrusted_pairs``: per wall pair,
    the four quarters of the member frozensets, each empty one kept when
    both of its factors meet the boundary sphere."""
    sphere = frozenset(th.ball.sphere(th.ball.radius))
    out = []
    for i, j in itertools.combinations(range(len(th.walls)), 2):
        empty = [(_hid(i, si), _hid(j, sj))
                 for si, sj in itertools.product("+-", repeat=2)
                 if not th.members[_hid(i, si)] & th.members[_hid(j, sj)]
                 and th.members[_hid(i, si)] & sphere and th.members[_hid(j, sj)] & sphere]
        if empty:
            out.append((i, j, tuple(empty)))
    return tuple(out)


def frozenset_leq(th: TruncatedHalfspaces) -> frozenset:
    """Oracle for ``th.system.leq``: the proper inclusions of the member
    frozensets, closed by the pair-set builder."""
    ids = [_hid(i, sign) for i in range(len(th.walls)) for sign in "+-"]
    leq = [(a, b) for a in ids for b in ids if a != b and th.members[a] < th.members[b]]
    return pair_build_system(ids, list(zip(ids[::2], ids[1::2])), leq).leq


def distance_side(th: TruncatedHalfspaces, wall_index: int, g) -> str:
    """Oracle for ``TruncatedHalfspaces.side_containing``: the side of the
    wall's first edge (u, v) whose end is nearer to g."""
    u, v = th.defining_edges[wall_index]
    sys_ = th.ball.system
    return _hid(wall_index, "+" if distance(sys_, g, u) < distance(sys_, g, v) else "-")


def distance_orientation(th: TruncatedHalfspaces, g) -> tuple:
    """Oracle for ``TruncatedHalfspaces.orientation_of``: the choices, per
    hyperplane, from ``distance_side``."""
    by_hyperplane = {th.hyperplane_of_wall(i): distance_side(th, i, g)
                     for i in range(len(th.walls))}
    return tuple(by_hyperplane[i] for i in range(len(by_hyperplane)))


def walked_crossings(th: TruncatedHalfspaces) -> tuple:
    """Oracle for ``TruncatedHalfspaces.crossed``: per ball element, the
    bitset of the selected walls whose reflections ``_crossed_walls``
    meets on the walk of the element's normal form from the identity."""
    sys_ = th.ball.system
    wall_of = {w.reflection: i for i, w in enumerate(th.walls)}
    return tuple(sum(1 << wall_of[r] for r in _crossed_walls(sys_, g) if r in wall_of)
                 for g in th.ball.elements)


def cat0_corpus() -> list[tuple[str, CubeComplex]]:
    """At least 20 CAT(0) complexes, all with <= 64 vertices."""
    out = [
        ("edge", grid_complex(1)),
        ("square", grid_complex(1, 1)),
        ("cube3", grid_complex(1, 1, 1)),
        ("cube4", grid_complex(1, 1, 1, 1)),
        ("grid2x2", grid_complex(2, 2)),
        ("grid3x3", grid_complex(3, 3)),
        ("grid4x4", grid_complex(4, 4)),
        ("grid2x4", grid_complex(2, 4)),
        ("grid7x1", grid_complex(7, 1)),
        ("grid2x2x2", grid_complex(2, 2, 2)),
        ("grid3x2x1", grid_complex(3, 2, 1)),
        ("lshape", grid_from_cells([(0, 0), (1, 0), (0, 1)])),
        ("staircase", grid_from_cells([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])),
        ("plus", grid_from_cells([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])),
        ("path1", path_complex(1)),
        ("path5", path_complex(5)),
        ("star3", star_complex(3)),
        ("star5", star_complex(5)),
        ("rtree17", random_tree_complex(17, seed=1)),
        ("rtree30", random_tree_complex(30, seed=7)),
        ("corner3d", grid_from_cells_3d([(0, 0, 0), (1, 0, 0), (0, 1, 0)])),
        ("tripod_square", tripod_with_square()),
    ]
    for name, x in out:
        assert len(x.vertices) <= 64, name
    return out


def grid_from_cells_3d(cells) -> CubeComplex:
    """3-complex from a list of unit-cube cells (i, j, k)."""
    vertices = set()
    cubes: dict[int, set] = {1: set(), 2: set(), 3: set()}
    for cell in cells:
        i, j, k = cell
        corners = []
        for bits in range(8):
            corners.append((i + (bits & 1), j + ((bits >> 1) & 1),
                            k + ((bits >> 2) & 1)))
        vertices.update(corners)
        cubes[3].add(tuple(corners))
        for axis in range(3):
            for eps in (0, 1):
                face = tuple(c for idx, c in enumerate(corners)
                             if (idx >> axis) & 1 == eps)
                cubes[2].add(face)
        for a in range(3):
            for bits in range(8):
                if (bits >> a) & 1:
                    continue
                cubes[1].add((corners[bits], corners[bits | (1 << a)]))
    return build_complex(sorted(vertices), {k: sorted(v) for k, v in cubes.items()})


def tripod_with_square() -> CubeComplex:
    """A square with a path of two edges hanging off one corner."""
    return build_complex(
        ["a", "b", "c", "d", "e", "f"],
        {1: [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d"),
             ("d", "e"), ("e", "f")],
         2: [("a", "b", "c", "d")]})


# ---------------------------------------------------------------------------
# exact group models (oracles for the Coxeter module)


class DihedralOracle:
    """I2(m) as signed rotations of Z_m: element (a, d) acts x -> d*x + a."""

    def __init__(self, m: int):
        self.m = m

    def identity(self):
        return (0, 1)

    def generator(self, i: int):
        # two reflections whose product is the rotation x -> x + 1
        return (0, -1) if i == 0 else (1, -1)

    def mul(self, g, h):
        a, d = g
        b, e = h
        return ((b * d + a) % self.m, d * e)

    def eval_word(self, word):
        g = self.identity()
        for s in word:
            g = self.mul(g, self.generator(s))
        return g


class AffinePermOracle:
    """Rank-3 affine reflection group of the plane as affine permutations
    f: Z -> Z with f(i + 3) = f(i) + 3, stored by the window (f1, f2, f3)."""

    def identity(self):
        return (1, 2, 3)

    def generator(self, i: int):
        # right multiplication swaps window slots i, i+1 with a shift at the seam
        return i

    def eval_word(self, word):
        window = list(self.identity())
        for s in word:
            window = self._apply(window, s)
        return tuple(window)

    def _apply(self, window, s):
        w = list(window)
        if s == 0:
            w[0], w[1] = w[1], w[0]
        elif s == 1:
            w[1], w[2] = w[2], w[1]
        else:
            w[0], w[2] = w[2] - 3, w[0] + 3
        return w


class PGL2ZOracle:
    """PGL(2,Z) by integer matrices up to sign, generated by the three
    reflections in the sides of the fundamental hyperbolic triangle
    (unit circle, Re z = 1/2, imaginary axis); their orders match the
    Coxeter matrix [[1,3,2],[3,1,inf],[2,inf,1]]."""

    GENS = (
        ((0, 1), (1, 0)),    # g1: z -> 1/conj(z)
        ((-1, 1), (0, 1)),   # g2: z -> 1 - conj(z); (g1 g2)^3 = 1
        ((1, 0), (0, -1)),   # g3: z -> -conj(z); (g1 g3)^2 = 1, g2 g3 free
    )

    def identity(self):
        return ((1, 0), (0, 1))

    def generator(self, i: int):
        return self.GENS[i]

    def _norm(self, m):
        flat = (m[0][0], m[0][1], m[1][0], m[1][1])
        for x in flat:
            if x != 0:
                return m if x > 0 else tuple(tuple(-v for v in row) for row in m)
        raise ValueError("zero matrix")

    def mul(self, a, b):
        out = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2))
        return self._norm(out)

    def eval_word(self, word):
        g = self.identity()
        for s in word:
            g = self.mul(g, self.generator(s))
        return g


def oracle_shortlex_forms(oracle, rank: int, radius: int):
    """BFS normal forms: element -> ShortLex-least reduced word, expanding
    words in lexicographic order level by level."""
    forms = {oracle.eval_word(()): ()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in range(rank):
                u = w + (s,)
                g = oracle.eval_word(u)
                if g not in forms:
                    forms[g] = u
                    nxt.append(u)
        frontier = sorted(nxt)
        if not frontier:
            break
    return forms
