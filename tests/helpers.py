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
    Cat0Result,
    CubeComplex,
    FlagResult,
    HalfspaceDecomposition,
    LocalCat0Result,
    _least_empty_simplex,
    _median_violation,
    _unfilled_square,
    build_simplicial,
    canonical_cube,
    cube_dim,
    cube_faces,
    halfspaces_of,
    hyperplanes,
    is_cat0,
    is_locally_cat0,
    vertex_link,
)
from cubical.coxeter import (
    CayleyBall,
    TruncatedHalfspaces,
    Wall,
    _hid,
    _inv,
    _point,
    _sign,
    distance,
    reduce_word,
    walls,
)
from cubical.errors import (
    CapExceededError,
    ComparableComplementsError,
    CubicalError,
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
    NotCat0Error,
    NotInvolutionError,
    PartialOrientationError,
    SelfGluingError,
    SelfPairedError,
    UnknownVertexError,
)
from cubical.graphs import bits
from cubical.pocsets import (
    DualComplex,
    HalfspaceSystem,
    Orientation,
    VertexResult,
    _chosen,
    _dual_cubes,
    _evens,
    _flip_walk,
    _orientation,
    build_system,
    is_vertex,
)
from cubical.treespace import (
    Orthant,
    PhyloTree,
    _ckey,
    _cluster_name,
    all_clusters,
    compatible,
)
from cubical.util import DEFAULT_CAP, skey, ssorted


# ---------------------------------------------------------------------------
# graphs


def preorder_cliques(adj, order):
    """Oracle for the clique walks of ``graphs.cliques`` and
    ``pocsets._dual_cubes``: every clique of the graph induced on
    ``order``, the empty one included, as a tuple listed in ``order``, in
    lexicographic pre-order of their positions: each clique before its
    extensions, extensions by earlier vertices first. ``adj`` maps a
    vertex to a container of its neighbours; neighbours outside ``order``
    are ignored."""
    stack = [((), list(order))]
    while stack:
        clique, cands = stack.pop()
        yield clique
        for i in range(len(cands) - 1, -1, -1):
            v = cands[i]
            nbrs = adj[v]
            stack.append((clique + (v,), [w for w in cands[i + 1:] if w in nbrs]))


def set_components(order, adj) -> list[list]:
    """Oracle for ``graphs.components``: the components of the graph induced
    on ``order``, each in breadth-first order from its first vertex, found
    with sets of vertices rather than positions."""
    members = set(order)
    seen = set()
    out = []
    for root in order:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for v in comp:  # comp grows while it is read: a breadth-first queue
            for w in adj[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(comp)
    return out


def dict_girth(adj: dict) -> int | None:
    """Oracle for ``graphs.girth``: a full breadth-first search from every
    vertex of a dict adjacency, each non-tree edge closing a walk of length
    dist[v] + dist[w] + 1; the least is the girth, None for forests."""
    best = None
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        order = [root]
        for v in order:  # order grows while it is read: a breadth-first queue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    order.append(w)
                elif parent[v] != w:
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def neighbour_lists(edges) -> list[list[int]]:
    """The graph of ``edges`` on positions: its vertices sorted and numbered
    0..n-1, and each one's neighbours as a sorted list of positions."""
    labels = sorted({v for e in edges for v in e})
    at = {v: i for i, v in enumerate(labels)}
    nbrs: list[set] = [set() for _ in labels]
    for a, b in edges:
        nbrs[at[a]].add(at[b])
        nbrs[at[b]].add(at[a])
    return [sorted(ns) for ns in nbrs]


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
    a larger one, by ``faces_of_larger``, ordered by (size, corners), each
    with its family read off its axis edges: the hyperplane that corners 0
    and 2^i differ on, for each axis i, in increasing order. This does not
    rely on the diagonal law that ``maximal_cubes`` reads."""
    x = dual.complex
    covered = faces_of_larger(x.cubes)
    return [(c, tuple(sorted(h for i in range(cube_dim(c))
                             for h in dual.differing(c[0], c[1 << i]))))
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


def component_roller_halfspaces(x: CubeComplex) -> list[int] | None:
    """Oracle for ``complexes._roller_halfspaces``: the three Roller
    conditions checked one class at a time, through ``hyperplanes`` and one
    ``halfspaces_of`` component search per class.
    (a) Deleting any class leaves exactly two components, its halfspaces,
        and every edge of the class joins them.
    (b) The side labels, one bit per class, are pairwise distinct.
    (c) At every vertex v, the classes of v's edges are exactly those
        whose halfspace holding v is inclusion-minimal among v's.
    Halfspaces 2i and 2i + 1 are the sides of class i in ``halfspaces_of``
    order, (size, least vertex)."""
    n = len(x.labels)
    halfspaces = []  # vertex bitsets
    chosen = [0] * n  # vertex -> bitset of the halfspaces holding it
    borders = [0] * n  # vertex -> bit 2i for each class i of its edges
    for h in hyperplanes(x):
        sides = halfspaces_of(x, h)
        if len(sides) != 2 or any((a in sides[0]) == (b in sides[0])  # (a)
                                  for a, b in h.edges):
            return None
        for part, bit in zip(sides, (1 << 2 * h.index, 2 << 2 * h.index)):
            halfspaces.append(sum(1 << v for v in part))
            for v in part:
                chosen[v] |= bit
        for a, b in h.edges:
            borders[a] |= 1 << 2 * h.index
            borders[b] |= 1 << 2 * h.index
    if len(set(chosen)) != n:  # (b)
        return None
    below = [sum(1 << q for q, low in enumerate(halfspaces)
                 if q != p and not low & ~high)
             for p, high in enumerate(halfspaces)]
    for v in range(n):  # (c), over every position
        minimal = sum(1 << (p & ~1) for p in range(len(halfspaces))
                      if chosen[v] >> p & 1 and not below[p] & chosen[v])
        if borders[v] != minimal:
            return None
    return halfspaces


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


@dataclass(frozen=True)
class SetSimplicialComplex:
    """Oracle for ``complexes.SimplicialComplex``: the family kept as
    frozensets of ids, with every view read off them."""

    vertices: frozenset
    simplices: frozenset

    @property
    def edges(self) -> frozenset:
        return frozenset(s for s in self.simplices if len(s) == 2)

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def counts(self) -> dict:
        sizes: dict[int, int] = {}
        for s in self.simplices:
            sizes[len(s)] = sizes.get(len(s), 0) + 1
        return {"vertices": len(self.vertices),
                "simplices": {str(k): sizes[k] for k in sorted(sizes)}}


def set_build_simplicial(vertices, simplices) -> SetSimplicialComplex:
    """Oracle for ``complexes.build_simplicial``: the downward closure on
    frozensets of ids, one vertex dropped at a time."""
    vertices = frozenset(vertices)
    closed: set[frozenset] = set()
    stack = [frozenset(s) for s in simplices]
    for s in stack:
        for v in s:
            if v not in vertices:
                raise UnknownVertexError(f"simplex uses unknown vertex {v!r}", vertex=v)
    while stack:
        s = stack.pop()
        if s in closed or not s:
            continue
        closed.add(s)
        if len(s) > 1:
            for v in s:
                stack.append(s - {v})
    return SetSimplicialComplex(vertices=vertices, simplices=frozenset(closed))


def sorted_is_flag(link) -> FlagResult:
    """Oracle for ``complexes.is_flag`` on any complex that lists its
    ``vertices`` and ``simplices`` by id: the ids sorted with ``ssorted``
    and indexed, each simplex rewritten as a mask, and the least empty
    simplex by (size, positions) named by its ids."""
    order = ssorted(link.vertices)
    index = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    simplices = set()
    for s in link.simplices:
        simplices.add(sum(1 << index[v] for v in s))
        if len(s) == 2:
            a, b = map(index.__getitem__, s)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    empty = _least_empty_simplex(adj, simplices)
    if empty:
        return FlagResult(ok=False, witness=tuple(order[i] for i in range(len(order))
                                                  if empty >> i & 1))
    return FlagResult(ok=True)


def scan_is_locally_cat0(x: CubeComplex) -> LocalCat0Result:
    """Oracle for ``complexes.is_locally_cat0``: each vertex link built as
    a ``SimplicialComplex`` by ``vertex_link``, every clique of its
    1-skeleton listed by ``preorder_cliques`` in ``ssorted`` order, and the
    least one of size >= 3 missing from the simplices, by (size, sorted
    ids), as the witness of the first vertex that has one."""
    for v in x.labels:
        link = vertex_link(x, v)
        failures = [c for c in preorder_cliques(link.adjacency, ssorted(link.vertices))
                    if len(c) >= 3 and frozenset(c) not in link.simplices]
        if failures:
            least = min(failures, key=lambda t: (len(t), [skey(u) for u in t]))
            return LocalCat0Result(ok=False, vertex=v,
                                   witness=tuple(map(x.named, least)))
    return LocalCat0Result(ok=True)


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


def ordered_is_cat0(x: CubeComplex) -> Cat0Result:
    """Oracle for ``complexes.is_cat0``: its stages one after another, with
    no comparison against the dual, so every verdict, positive ones
    included, comes from the link test, the connectivity test, the 4-cycle
    scan and the median stage, in that order."""
    local = is_locally_cat0(x)
    if not local.ok:
        return Cat0Result(ok=False, reason="link",
                          witness={"vertex": local.vertex,
                                   "empty_simplex": local.witness})
    if not x.is_connected():
        raise DisconnectedError("is_cat0 requires a connected complex")
    hole = _unfilled_square(x)
    if hole is not None:
        return Cat0Result(ok=False, reason="square", witness=hole)
    violation = _median_violation(x)
    if violation is not None:
        return Cat0Result(ok=False, reason="median", witness=violation)
    return Cat0Result(ok=True)


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


def corner_treespace_complex(n: int, cap: int = 100_000) -> CubeComplex:
    """Oracle for ``treespace.treespace_complex``, with no halfspace system:
    one k-cube per pair (frozen clusters O, free clusters F) with O and F
    jointly compatible and |F| = k, its 2^k corners listed directly. The
    vertices are the cliques of the compatibility graph, counted with the
    empty one against ``cap``, and each is named by its sorted cluster
    names."""
    clusters = all_clusters(n)
    adj = {c: {d for d in clusters if d != c and compatible(c, d)}
           for c in clusters}
    vertex_sets = []
    for clique in preorder_cliques(adj, clusters):
        vertex_sets.append(frozenset(clique))
        if len(vertex_sets) > cap:
            raise CapExceededError(
                f"compatible-set enumeration exceeds cap {cap}", cap=cap)
    names = {s: "|".join(sorted(map(_cluster_name, s))) or "*" for s in vertex_sets}
    cubes: dict[int, list] = {}
    for u in vertex_sets:
        members = sorted(u, key=_ckey)
        for size in range(1, len(members) + 1):
            for free in itertools.combinations(members, size):
                base = u - frozenset(free)
                corners = []
                for bits in range(1 << size):
                    present = base | {free[i] for i in range(size)
                                      if (bits >> i) & 1}
                    corners.append(names[present])
                cubes.setdefault(size, []).append(tuple(corners))
    return build_complex([names[s] for s in vertex_sets], cubes)


def cluster_system(n: int) -> tuple[HalfspaceSystem, Orientation]:
    """Oracle for ``treespace._cluster_pocset``: the cluster pocset closed
    by ``build_system`` from its ids and ``leq`` pairs, c+ <= d- for each
    incompatible pair, and its origin, where every cluster is absent."""
    clusters = all_clusters(n)
    cname = {c: _cluster_name(c) for c in clusters}
    ids = [cname[c] + side for c in clusters for side in "+-"]
    leq = [(cname[c] + "+", cname[d] + "-")
           for c, d in itertools.combinations(clusters, 2) if not compatible(c, d)]
    s = build_system(ids, zip(ids[::2], ids[1::2]), leq)
    return s, Orientation(choices=tuple(absent for _, absent in s.star_pairs))


def named_treespace_complex(n: int, cap: int = DEFAULT_CAP) -> CubeComplex:
    """Oracle for ``treespace.treespace_complex``: the same walk from the
    origin, with every corner of every cube named by its compatible
    cluster set and the named listing validated by ``build_complex``."""
    s, origin = cluster_system(n)
    assert is_vertex(s, origin).ok
    walk = _flip_walk(s, _chosen(s, origin), cap)
    if walk is None:
        raise CapExceededError(f"compatible-set enumeration exceeds cap {cap}", cap=cap)
    order, ids, minimal_at = walk
    names_of = [present[:-1] for present, _ in s.star_pairs]
    even = _evens(len(s.above))
    names = ["|".join([names_of[p >> 1] for p in bits(m & even)]) or "*"
             for m in order]
    cubes: dict[int, list] = {}
    for cube in _dual_cubes(s, order, minimal_at, ids):
        cubes.setdefault(len(cube).bit_length() - 1, []).append(
            tuple(names[i] for i in cube))
    return build_complex(names, cubes)


def leaf_sets(topology: tuple) -> frozenset:
    """A topology of ``treespace.enumerate_topologies``, a tuple of int leaf
    masks, as the frozenset of its clusters' leaf sets."""
    return frozenset(frozenset(bits(c)) for c in topology)


def frozenset_topologies(n: int, cap: int = DEFAULT_CAP) -> list[frozenset]:
    """Oracle for ``treespace.enumerate_topologies``: the same leaf
    insertion with each cluster a frozenset of leaves, checked against
    ``cap`` as each topology is added."""
    if n < 2:
        raise InputFormatError("need n >= 2")
    tops: list[frozenset] = [frozenset()]
    for k in range(3, n + 1):
        nxt = []
        everything = frozenset(range(1, k))
        for t in tops:
            # 2k-3 insertion sites: every cluster edge, every leaf edge, and
            # a fresh root; clusters strictly above the site absorb leaf k
            sites = list(t) + [frozenset({j}) for j in range(1, k)] + [everything]
            for site in sites:
                grown = {(c | {k}) if site < c else c for c in t}
                if site == everything:
                    grown.add(everything)
                else:
                    grown.add(site | {k})
                nxt.append(frozenset(grown))
                if len(nxt) > cap:
                    raise CapExceededError(
                        f"topology enumeration exceeds cap {cap}", cap=cap)
        tops = nxt
    if len(tops) > cap:
        raise CapExceededError(f"topology enumeration exceeds cap {cap}", cap=cap)
    return tops


def union_find_square_classes(x: CubeComplex) -> list[list[tuple]]:
    """Oracle for ``CubeComplex._square_classes``: one union-find over the
    sorted edges that merges the opposite edges of every square, each
    class's root its least edge; the classes in the order of their least
    edge, each sorted."""
    edges = sorted(x.edges)
    index = {e: k for k, e in enumerate(edges)}
    root = list(range(len(edges)))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    for c00, c10, c01, c11 in x.squares:
        # the edges at the origin c00 of a canonical square are canonical
        for e, (a, b) in (((c00, c10), (c01, c11)), ((c00, c01), (c10, c11))):
            r, s = find(index[e]), find(index[(a, b) if a < b else (b, a)])
            if r < s:
                root[s] = r
            elif s < r:
                root[r] = s
    classes = {}  # root -> its class, first met at the root, its least edge
    for k, e in enumerate(edges):
        classes.setdefault(find(k), []).append(e)
    return list(classes.values())


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


def crossed_cube_sets(x: CubeComplex) -> list[frozenset]:
    """Oracle for ``complexes.helly_check``: per square class of
    ``hyperplanes(x)``, the set of cubes with one of its edges, read off
    every edge of every cube rather than the edges at the origin."""
    class_of = {e: h.index for h in hyperplanes(x) for e in h.edges}
    crossed = [set() for _ in set(class_of.values())]
    for c in x.cubes:
        for p in range(len(c)):
            for axis in range(cube_dim(c)):
                crossed[class_of[canonical_cube((c[p], c[p ^ (1 << axis)]))]].add(c)
    return [frozenset(s) for s in crossed]



def frozenset_halfspace_system_of(x: CubeComplex) -> HalfspaceDecomposition:
    """Oracle for ``complexes.halfspace_system_of``: a second pass over the
    hyperplanes, one component search per class, and the proper inclusions
    of the named member frozensets."""
    cat0 = is_cat0(x)
    if not cat0.ok:
        raise NotCat0Error("halfspace_system_of requires a CAT(0) complex",
                           certificate=cat0.certificate())
    members = {}
    ids = []
    star_pairs = []
    for h in hyperplanes(x):
        comps = halfspaces_of(x, h)
        if len(comps) != 2:
            raise NotCat0Error(
                f"hyperplane {h.index} separates into {len(comps)} components",
                hyperplane=h.index)
        plus, minus = f"h{h.index}+", f"h{h.index}-"
        members[plus], members[minus] = (frozenset(x.named(c)) for c in comps)
        ids += [plus, minus]
        star_pairs.append((plus, minus))
    leq = [(a, b) for a in ids for b in ids
           if a != b and members[a] < members[b]]
    return HalfspaceDecomposition(system=build_system(ids, star_pairs, leq),
                                  members=members)

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


def folded_cube(n: int) -> CubeComplex:
    """The n-cube modulo its antipodal map, with every square, for n >= 5
    (below that two squares share a diagonal). Its n classes are the
    directions, and a path from v to its antipode closes a loop that
    crosses every class once: no labelling flips one class per edge, yet
    the labels along a search tree are distinct and pass the minimal-side
    test."""
    full = (1 << n) - 1

    def fold(v):
        return min(v, v ^ full)

    corners = {frozenset(sq): sq for sq in (
        tuple(fold(v ^ c) for c in (0, 1 << i, 1 << j, 1 << i | 1 << j))
        for v in range(1 << n) for i, j in itertools.combinations(range(n), 2))}
    edges = {tuple(sorted((fold(v), fold(v ^ 1 << i)))) for v in range(1 << n) for i in range(n)}
    return build_complex(sorted({fold(v) for v in range(1 << n)}),
                         {1: sorted(edges), 2: sorted(corners.values())})


def cube_double_cover() -> CubeComplex:
    """A connected double cover of the 4-cube graph: vertex (v, s) for each
    corner v and sheet s, and the edge (v, w) lifts to (v, s)-(w, s ^ t)
    with t = 1 on six edges. A square lifts to two squares when its
    voltage is 0; the others are left out. Each class is the preimage of
    one direction, so the labels flip one class per edge and pass the
    minimal-side test, but the two lifts of a corner share a label."""
    ones = {(0, 1), (0, 2), (1, 5), (2, 6), (5, 7), (8, 9)}

    def t(u, w):
        return int((min(u, w), max(u, w)) in ones)

    edges, squares = [], []
    for v in range(16):
        for i in range(4):
            if not v >> i & 1:
                edges += [((v, s), (v | 1 << i, s ^ t(v, v | 1 << i))) for s in (0, 1)]
        for i, j in itertools.combinations(range(4), 2):
            a, b = 1 << i, 1 << j
            if v & (a | b) or t(v, v | a) ^ t(v | a, v | a | b) ^ t(v | b, v | a | b) ^ t(v, v | b):
                continue
            for s in (0, 1):
                sa, sb = s ^ t(v, v | a), s ^ t(v, v | b)
                squares.append(((v, s), (v | a, sa), (v | b, sb), (v | a | b, sa ^ t(v | a, v | a | b))))
    return build_complex([(v, s) for v in range(16) for s in (0, 1)], {1: edges, 2: squares})


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


def leq(s: HalfspaceSystem) -> frozenset:
    """The closed order of ``s`` as a frozenset of id pairs (a, b) meaning
    a < b, read off ``above``."""
    labels = s.labels
    return frozenset((labels[p], labels[q])
                     for p, m in enumerate(s.above) for q in range(len(labels)) if m >> q & 1)


def lt(s: HalfspaceSystem, a, b) -> bool:
    """a < b in the closed order of ``s``, read off ``above``; False if
    either id is unknown."""
    p, q = s.position.get(a), s.position.get(b)
    return p is not None and q is not None and bool(s.above[p] >> q & 1)


@dataclass(frozen=True)
class PairSystem:
    """Oracle for ``pocsets.HalfspaceSystem``: the order as a frozenset of
    strict id pairs (a, b), a < b, with every derived table read off the
    pairs. The hyperplanes are the star pairs in the order given."""

    halfspaces: tuple
    star_pairs: tuple
    leq: frozenset

    @classmethod
    def of(cls, s: HalfspaceSystem) -> PairSystem:
        return cls(halfspaces=s.halfspaces, star_pairs=s.star_pairs, leq=leq(s))

    @cached_property
    def star(self) -> dict:
        out = {}
        for a, b in self.star_pairs:
            out[a] = b
            out[b] = a
        return out

    @property
    def hyperplanes(self) -> tuple:
        return self.star_pairs

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
    def transversal_masks(self) -> tuple:
        """Hyperplane i -> bit 2j for each hyperplane j transversal to it,
        as ``HalfspaceSystem.transversal_masks`` lists them."""
        adj = self.transversal_adjacency
        return tuple(sum(1 << 2 * j for j in adj[i]) for i in range(len(adj)))

    @cached_property
    def strictly_below(self) -> dict:
        below = {h: set() for h in self.halfspaces}
        for a, b in self.leq:
            below[b].add(a)
        return {h: frozenset(v) for h, v in below.items()}

    def lt(self, a, b) -> bool:
        return (a, b) in self.leq


def system_of_pairs(star_pairs, strict) -> HalfspaceSystem:
    """A ``HalfspaceSystem`` with the closed order ``strict`` (id pairs),
    written into the ``above`` bitsets one pair at a time."""
    labels = [h for pair in star_pairs for h in pair]
    position = {h: p for p, h in enumerate(labels)}
    above = [0] * len(labels)
    for a, b in strict:
        above[position[a]] |= 1 << position[b]
    return HalfspaceSystem(star_pairs=tuple(star_pairs), above=tuple(above))


def system_of_sides(ids, sides) -> HalfspaceSystem:
    """Oracle for ``pocsets._system_of_crossings`` and
    ``complexes.halfspace_system_of``: the sets ``sides`` (int bitsets)
    ordered by inclusion, one pair of them at a time, with no validation.
    Positions are in input order: ``ids[p]`` names ``sides[p]``, and
    ``ids[2i]`` and ``ids[2i + 1]`` are the sides of hyperplane i."""
    above = [sum(1 << q for q, other in enumerate(sides) if q != p and not side & ~other)
             for p, side in enumerate(sides)]
    return HalfspaceSystem(star_pairs=tuple(zip(ids[::2], ids[1::2])), above=tuple(above))


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


def _skey_pairs(star: dict) -> list:
    """The star pairs in hyperplane order, keyed per pair: the set of
    ``ssorted`` pairs, sorted by ``(skey(a), skey(b))``."""
    return sorted({tuple(ssorted((a, b))) for a, b in star.items()},
                  key=lambda p: (skey(p[0]), skey(p[1])))


def skey_star_layout(halfspaces, star_pairs) -> tuple[list, list, list]:
    """Oracle for ``pocsets._star_layout``, which ranks the ids once: the
    same checks, then the pairs by ``_skey_pairs`` and the ids sorted
    again by ``skey``."""
    ids = list(halfspaces)
    star = _check_star(ids, star_pairs)
    return ids, ssorted(ids), _skey_pairs(star)


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
    pairs = _skey_pairs(star)
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
    in BFS order, the complex and the cube families, each the clique it was
    assembled from."""
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
        for fam in preorder_cliques(s.transversal_adjacency, minimal):
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
    of pairwise-transversal minimal hyperplanes there. Asserts that each
    family is the mask difference of its cube's opposite corners, which is
    all the dual keeps of it."""
    order, complex_, families = pair_dual_complex(PairSystem.of(s), seed, cap,
                                                  all_corners=True)
    dual = DualComplex(system=s, seed=seed, complex=complex_,
                       masks=tuple(_chosen(s, o) for o in order))
    assert_families_on_diagonals(dual, families)
    return dual


def assert_families_on_diagonals(dual: DualComplex, families: dict) -> None:
    """Each cube's family, as an oracle assembled it, is the set of
    hyperplanes on which its opposite corners' masks differ."""
    assert families.keys() == dual.complex.cubes
    for c, fam in families.items():
        assert list(fam) == dual.differing(c[0], c[-1])


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
    pairs = _skey_pairs(star)
    for (a, _), (c, _) in itertools.combinations(pairs, 2):
        b, d = star[a], star[c]
        if sum(r in strict for r in ((a, c), (a, d), (b, c), (b, d))) > 1:
            raise NestingViolationError(
                "more than one nesting relation between two hyperplanes")
    for h in ids:
        if (h, star[h]) in strict or (star[h], h) in strict:
            raise ComparableComplementsError(
                f"halfspace {h!r} comparable with its complement", halfspace=h)
    return system_of_pairs(pairs, strict)


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
# Coxeter wall sides (oracles for the sign tests in coxeter)


def reflection_of_edge(sys_, u, s: int) -> tuple:
    """The reflection u s u^-1 of the wall of the edge (u, us)."""
    return reduce_word(sys_, tuple(u) + (s,) + tuple(reversed(u)))


def wall_crossings_on_path(sys_, x, letters) -> list:
    """Reflections crossed along the path x, xs1, xs1s2, ..., walked letter
    by letter with two reductions per letter."""
    cur = reduce_word(sys_, x)
    out = []
    for s in letters:
        out.append(reflection_of_edge(sys_, cur, s))
        cur = reduce_word(sys_, cur + (s,))
    return out


def point_wall_crossings(tits, start, letters, keys: dict) -> list:
    """The walls crossed along the path from the element g with
    g^-1 rho = ``start`` by ``letters``, walked on points with one act per
    letter: (gs)^-1 rho = s g^-1 rho. The wall of the edge (g, gs) is keyed
    by t.rho, t = g s g^-1, as ``walls`` keys it: g applied to (gs)^-1 rho,
    g's word read off ``start`` by one normal form. ``keys`` keeps each
    (point, letter)'s key for the next walk."""
    q = start
    out = []
    for s in letters:
        after = tits.act(s, q)
        if (q, s) not in keys:
            keys[q, s] = tits.point(tuple(reversed(tits.normal_form(q))), after)
        out.append(keys[q, s])
        q = after
    return out


def crossed_walls(sys_, g) -> frozenset:
    """Reflections of the walls a geodesic from the identity to g crosses:
    once each, and exactly the walls that separate g from the identity."""
    return frozenset(wall_crossings_on_path(sys_, (), reduce_word(sys_, g)))


def walked_parity(sys_, x, y, wall: Wall) -> int:
    """Oracle for ``coxeter.crossing_parity``: how often the walk of the
    normal form of x^-1 y from x crosses the wall, mod 2."""
    path = reduce_word(sys_, tuple(reversed(reduce_word(sys_, x))) + tuple(y))
    return wall_crossings_on_path(sys_, x, path).count(wall.reflection) % 2


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
    """Oracle for ``leq(th.system)``: the proper inclusions of the member
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
    wall, from ``distance_side``."""
    return tuple(distance_side(th, i, g) for i in range(len(th.walls)))


def reduce_word_first_edges(th: TruncatedHalfspaces) -> tuple:
    """Oracle for ``TruncatedHalfspaces._first_edges``: per wall, its first
    edge (u, v) as (u, s), s recovered as the normal form of u^-1 v."""
    sys_ = th.ball.system
    return tuple((u, reduce_word(sys_, _inv(u) + v)[0]) for u, v in th.defining_edges)


def first_edge_orientation(th: TruncatedHalfspaces, g) -> tuple:
    """Oracle for ``TruncatedHalfspaces.orientation_of``: per wall, the
    sign test at the generator of ``reduce_word_first_edges``."""
    sys_, p = th.ball.system, _point(th.ball.system, g)
    return tuple(pair[_sign(sys_, u, s, p) < 0]
                 for pair, (u, s) in zip(th.system.star_pairs, reduce_word_first_edges(th)))


def mask_embedding(th: TruncatedHalfspaces, dual: DualComplex) -> tuple:
    """Oracle for the embedding checks of ``coxeter.cubulate``: nu,
    ``injective_on_ball`` and ``trusted_radius`` with every check made on
    the dual's masks. Two orientations differ on a hyperplane iff their
    masks differ in both of its bits, so the edge across wall i must flip
    exactly ``3 << 2 * i``, with the wall of each edge from ``th.walls``;
    nu is injective where the vertex ids are distinct. Raises the errors
    ``cubulate`` raises, with the same details."""
    ball = th.ball
    identity = _evens(2 * len(th.walls))
    flips = [3 << 2 * i for i in range(len(th.walls))]
    nu = {}
    for g, crossed in zip(ball.elements, th.crossed):
        mask = identity ^ sum(flips[i] for i in bits(crossed))
        vid = dual.vertex_of.get(mask)
        if vid is None:
            res = is_vertex(th.system, _orientation(th.system, mask))
            if not res.ok:
                raise CubicalError(f"principal orientation of {g!r} is not a vertex",
                                   element=g, witness=res.witness)
            raise CubicalError(f"orientation of {g!r} falls outside the component",
                               element=g)
        nu[g] = vid
    wall_of = {e: i for i, w in enumerate(th.walls) for e in w.edges}
    masks = dual.masks
    for u, v, _ in ball.edges:
        i = wall_of.get((u, v))
        if masks[nu[u]] ^ masks[nu[v]] != (flips[i] if i is not None else 0):
            raise CubicalError(
                "ball edge on an unselected wall maps to distinct vertices" if i is None
                else "adjacent ball elements do not differ exactly on their wall",
                edge=(u, v), differing=dual.differing(nu[u], nu[v]))
    trusted_radius = ball.radius - th.margin
    trusted = [g for g in ball.elements if len(g) <= trusted_radius]
    if len({nu[g] for g in trusted}) != len(trusted):
        raise CubicalError("nu is not injective on the trusted sub-ball",
                           radius=trusted_radius)
    return nu, len(set(nu.values())) == len(nu), trusted_radius


def walked_crossings(th: TruncatedHalfspaces) -> tuple:
    """Oracle for ``TruncatedHalfspaces.crossed``: per ball element, the
    bitset of the selected walls whose reflections ``crossed_walls``
    meets on the walk of the element's normal form from the identity."""
    sys_ = th.ball.system
    wall_of = {w.reflection: i for i, w in enumerate(th.walls)}
    return tuple(sum(1 << wall_of[r] for r in crossed_walls(sys_, g) if r in wall_of)
                 for g in th.ball.elements)


def assert_sageev_isomorphism(x: CubeComplex, dec: HalfspaceDecomposition,
                              d: DualComplex) -> None:
    """Check the explicit map of Sageev duality, x -> d, where ``dec`` is
    x's halfspace system and ``d`` its dual: vertex rank r goes to the dual
    vertex of its principal orientation, the halfspaces that hold it. The
    map must be a bijection onto the dual's vertices that carries the cubes
    of x onto the cubes of d."""
    vertex_of = d.vertex_of
    phi = [vertex_of[_chosen(dec.system, dec.principal_orientation(v))]
           for v in x.labels]
    assert sorted(phi) == list(d.complex.vertices)
    assert {canonical_cube(tuple(phi[r] for r in c)) for c in x.cubes} == d.complex.cubes


def assert_link_is_petersen(link) -> None:
    """Check the explicit map of the n = 4 origin link onto the Kneser
    graph K(5,2), the Petersen graph: 2-subsets of {1..5}, adjacent iff
    disjoint. A 2-cluster c of {1..4} maps to c, a 3-cluster c to
    {5} | ({1..4} - c). The map must be a bijection of the vertices that
    carries the link edges exactly onto the disjoint pairs."""
    four = frozenset({1, 2, 3, 4})

    def image(name):
        c = frozenset(int(x) for x in name.split("."))
        return c if len(c) == 2 else (four - c) | {5}

    phi = {v: image(v) for v in link.vertices}
    pairs = {frozenset(p) for p in itertools.combinations(range(1, 6), 2)}
    assert len(phi) == 10 and set(phi.values()) == pairs
    assert {frozenset(phi[v] for v in e) for e in link.edges} == {
        frozenset((a, b)) for a, b in itertools.combinations(pairs, 2) if not a & b}


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
