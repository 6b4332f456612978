"""Finite cubical complexes with exact combinatorial CAT(0) certificates.

Vertices are interned once, by ``build_complex``: the vertex ids, sorted
by ``skey``, get the ranks 0..n-1, and everything after the build works
on ranks. The dual of a halfspace system ranks its vertices as its
caller chooses, ``dual_complex`` in walk order and tree space by vertex
name, and canonicalizes the cubes it assembles, so it skips the ranking
and hands its rank tuples straight to the validating core that
``build_complex`` ends in. ``CubeComplex.labels`` maps a rank back
to its id. Ids appear only at the edges: in the loaders and
``dump_complex``, in the vertices that public functions take
(``vertex_link``, ``median``), and in witnesses and error details. Rank
order is ``skey`` order, so every "least" choice names the same cell in
either form.

A k-cube is stored as a tuple of 2^k corner ranks indexed by binary
coordinate vectors: position b encodes corner b of [0,1]^k (bit i of the
index is coordinate i). Cubes are canonicalized up to the symmetry group
of the cube, so cube identity is a set-membership test. A complex stores
each cube once, in the frozenset of its dimension that the build made.

A valid complex lists every face of every cube, and any two cubes meet in
at most one common face. Given the faces, the second condition holds iff
no two cubes share a diagonal (a pair of opposite corners). Set passes
over whole dimensions decide every check of the build: the canonical
faces of each dimension must lie in the one below, and the set of all
diagonals must be as large as their count. Only a failed pass scans the
cubes in a fixed order, to name the first defect, so a witness does not
depend on set iteration order.

The CAT(0) oracle is fully combinatorial: a finite complex is CAT(0) iff
it is connected, all vertex links are flag (the Gromov link condition),
every 4-cycle of the 1-skeleton bounds a listed square, and the
1-skeleton is a median graph (Chepoi 2000). Equivalently, it is the cube
complex dual to the pocset of its own halfspaces (Sageev 1995; Roller
1998), and ``is_cat0`` answers yes by that one comparison: once the
Roller test below passes, every listed cube is a cube of the dual, so x
is the dual iff the dual has as many cells as x, which ``pocsets``
counts without listing them. A complex that fails the comparison goes
through the four stages in order, and its certificate names the first
that fails. One builder, ``_link_masks``, makes a vertex link in one
pass over its incidences, on int bitmasks over the vertex's neighbours:
each incidence gives a simplex, each square a link edge. The link test
reads the masks, ``vertex_link`` keeps them as a ``SimplicialComplex``,
and ``graphs.cliques`` lists a link's cliques by size, so the least empty
simplex comes first. The median test is Sageev-Roller duality: the
1-skeleton is median iff it is the dual of the pocset of its square
classes' sides (Roller 1998). This Roller test runs once per complex,
as its cached ``_roller``. The classes are the components of the graph
on the edges that joins opposite sides of squares, found by
``graphs.components`` as a cached property of the complex that
``hyperplanes`` reads too, and one breadth-first pass labels each vertex
with its crossing row, one bit per class; each edge must flip its own
class's bit alone, and the rows must be distinct. ``pocsets`` then
orders the sides from the rows and walks their dual from rank 0's
orientation, with the flip walk of ``dual_complex``, and the dual must
have x's vertices and edges. The complex keeps the rows, the ordered
sides and the walk: the cell count of the comparison runs on that walk,
and ``halfspace_system_of`` reads the halfspaces and their order back.
Halfspaces are int bitsets, with no distance matrix and no size limit;
only a failure scans geodesic intervals, to name the least bad triple.

Two classes cross iff some square has an edge of each at its origin
(Sageev 1995); ``hyperplanes`` reads them in one pass over the squares.

All types are immutable after construction and every operation is a pure
function of its inputs; concurrent reads are safe.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import (
    CapExceededError,
    CubicalError,
    DisconnectedError,
    DoubleGluingError,
    DuplicateCubeError,
    InputFormatError,
    MissingFaceError,
    MultipleMediansError,
    NoMedianError,
    NotCat0Error,
    SelfGluingError,
    UnknownVertexError,
)
from .graphs import bfs, bits, cliques, components
from .util import check_ids, parse_int, parse_list, ssorted, string_forms

DEFAULT_MEDIAN_CAP = 600


# ---------------------------------------------------------------------------
# cube symmetries


def canonical_cube(corners: tuple) -> tuple:
    """Lexicographically least image of a tuple of distinct corner ranks
    under the 2^d * d! symmetries of the cube, in closed form.

    A symmetry picks the corner that goes to position 0 and the order of
    the axes. Position 0 must hold the least corner; position 2^i holds the
    neighbour of that origin along new axis i, and every other position is
    fixed once the axes below its top bit are. So the greedy choice is the
    least one: the least corner becomes the origin, and its axes are
    ordered by the neighbour across each one. For d <= 2 that is spelled
    out: an edge is its sorted pair, and a square with origin o keeps the
    smaller of its neighbours o ^ 1, o ^ 2 at position 1, with o ^ 3
    opposite. Larger cubes are read by one cached ``itemgetter`` per
    (origin, axis order).

    Hence the faces of a canonical cube through its origin (eps = 0 in
    ``cube_faces``) are canonical as they stand: each holds the least
    corner at position 0 and keeps the cube's order of the neighbours."""
    k = len(corners)
    if k == 2:
        a, b = corners
        return (a, b) if a < b else (b, a)
    if k == 4:
        o = corners.index(min(corners))
        a, b = corners[o ^ 1], corners[o ^ 2]
        return (corners[o], a, b, corners[o ^ 3]) if a < b else (
            corners[o], b, a, corners[o ^ 3])
    if k == 1:
        return (corners[0],)  # an itemgetter of one index returns it bare
    origin = corners.index(min(corners))
    # the corners are distinct, so the pairs are ordered by the neighbour
    axes = tuple([a for _, a in sorted([(corners[origin ^ a], a) for a in _AXES[k]])])
    return _corner_picker(origin, axes)(corners)


def cube_dim(corners: tuple) -> int:
    return len(corners).bit_length() - 1


# corner count 2^k -> the position offsets 1 << axis of a k-cube's axes
_AXES = {1 << k: tuple(1 << axis for axis in range(k)) for k in range(63)}


@functools.lru_cache(maxsize=8192)  # every (origin, axis order) of a cube up to dimension 5
def _corner_picker(origin: int, axes: tuple) -> itemgetter:
    """The corners of a cube read from ``origin``: position 0 holds the
    corner at ``origin``, and position 2^i its neighbour across the offset
    ``axes[i]``."""
    index = [origin]
    for a in axes:
        index += [j ^ a for j in index]
    return itemgetter(*index)


@functools.cache
def _face_pickers(dim: int) -> tuple:
    """(eps, pick) per codimension-1 face of a dim-cube, axis by axis and
    eps = 0 first: pick(corners) is the face's corner tuple, in induced
    order."""
    out = []
    for axis in range(dim):
        for eps in (0, 1):
            index = [j for j in range(1 << dim) if (j >> axis) & 1 == eps]
            pick = itemgetter(*index) if len(index) > 1 else (lambda c, j=index[0]: (c[j],))
            out.append((eps, pick))
    return tuple(out)


def cube_faces(corners: tuple):
    """Yield the 2*dim codimension-1 faces, in induced corner order."""
    for _, pick in _face_pickers(cube_dim(corners)):
        yield pick(corners)


def _named(labels: tuple, cell) -> tuple:
    return tuple(labels[r] for r in cell)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CubeComplex:
    """Validated cubical complex on ranked vertices.

    ``labels[r]`` is the id of the vertex of rank r, in ``skey`` order;
    the vertices are the ranks ``range(len(labels))``. ``by_dim`` maps
    each nonempty dimension k >= 1 to the frozenset of its canonical rank
    tuples, as the builder made it: each cell is stored once. ``maximal``
    holds the cubes that are a face of no larger cube, as the face pass of
    ``_complex_of_ranks`` records them. Adjacency and incidence are indexed
    by rank."""

    labels: tuple
    by_dim: dict = field(hash=False)  # a dict: the hash reads the other two
    maximal: frozenset

    @property
    def vertices(self) -> range:
        return range(len(self.labels))

    @cached_property
    def vertex_index(self) -> dict:
        """Vertex id -> rank."""
        return {v: r for r, v in enumerate(self.labels)}

    def named(self, cell) -> tuple:
        """The ids of the ranks in ``cell``, in order."""
        return _named(self.labels, cell)

    @cached_property
    def cubes(self) -> frozenset:
        """Every cube of positive dimension, the union of ``by_dim``. No
        operation of the package reads it."""
        return frozenset().union(*self.by_dim.values())

    @property
    def dim(self) -> int:
        return max(self.by_dim, default=0)

    @property
    def edges(self) -> frozenset:
        return self.by_dim.get(1, frozenset())

    @property
    def squares(self) -> frozenset:
        return self.by_dim.get(2, frozenset())

    @cached_property
    def adjacency(self) -> tuple:
        """Rank -> the ranks of its 1-skeleton neighbours."""
        adj = [set() for _ in self.labels]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(ns) for ns in adj)

    @cached_property
    def incidence(self) -> tuple:
        """Rank -> the (cube, position) pairs with that vertex at that
        corner position."""
        out = [[] for _ in self.labels]
        for c in itertools.chain.from_iterable(self.by_dim.values()):
            for pos, r in enumerate(c):
                out[r].append((c, pos))
        return tuple(tuple(ps) for ps in out)

    def is_connected(self) -> bool:
        return len(components(self.vertices, self.adjacency)) <= 1

    @cached_property
    def _square_classes(self) -> list[list[tuple]]:
        """Square-equivalence classes of edges, the hyperplanes: the
        components of the graph on the sorted edges that joins the opposite
        edges of every square. ``graphs.components`` lists them in the
        order of their least edge, each in breadth-first order from it;
        ``hyperplanes`` and the Roller test both read them, and neither
        depends on the order inside a class."""
        edges = sorted(self.edges)
        index = {e: k for k, e in enumerate(edges)}
        nbrs = [[] for _ in edges]
        for c00, c10, c01, c11 in self.squares:
            # the edges at the origin c00 of a canonical square are canonical
            for e, (a, b) in (((c00, c10), (c01, c11)), ((c00, c01), (c10, c11))):
                i, j = index[e], index[(a, b) if a < b else (b, a)]
                nbrs[i].append(j)
                nbrs[j].append(i)
        return [[edges[k] for k in cls] for cls in components(range(len(edges)), nbrs)]

    @cached_property
    def _roller(self) -> tuple | None:
        """``_roller_test`` of this complex, run once: the crossing rows,
        the system of their sides and its flip walk, or None. The Sageev
        comparison and the median stage of ``is_cat0``,
        ``_roller_halfspaces``, ``halfspace_system_of`` and ``complex
        hyperplanes`` all read it."""
        return _roller_test(self)

    def euler_characteristic(self) -> int:
        chi = len(self.labels)
        for k, cs in self.by_dim.items():
            chi += (-1) ** k * len(cs)
        return chi

    def counts(self) -> dict:
        return {
            "vertices": len(self.labels),
            "cubes": {str(k): len(self.by_dim[k]) for k in sorted(self.by_dim)},
            "euler_characteristic": self.euler_characteristic(),
        }


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex: ``labels`` holds the vertex ids in
    ``skey`` order, and ``masks`` the downward-closed family of simplices,
    each the bitmask of its vertices' positions there. The id views below
    are derived when read, from the masks and the cached neighbour masks."""

    labels: tuple
    masks: frozenset

    @cached_property
    def neighbours(self) -> tuple:
        adj = [0] * len(self.labels)
        for m in self.masks:
            if m.bit_count() == 2:
                for i in bits(m):
                    adj[i] |= m ^ 1 << i
        return tuple(adj)

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.labels)

    @property
    def simplices(self) -> frozenset:
        at = self.labels.__getitem__
        return frozenset(frozenset(map(at, bits(m))) for m in self.masks)

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset((v, w)) for v, ws in self.adjacency.items() for w in ws)

    @cached_property
    def adjacency(self) -> dict:
        at = self.labels.__getitem__
        return {at(i): frozenset(map(at, bits(nbrs))) for i, nbrs in enumerate(self.neighbours)}

    def counts(self) -> dict:
        sizes = Counter(map(int.bit_count, self.masks))
        return {"vertices": len(self.labels),
                "simplices": {str(k): sizes[k] for k in sorted(sizes)}}


def build_simplicial(vertices, simplices) -> SimplicialComplex:
    """Intern the ids in ``skey`` order, validate the simplices' vertices and
    close the family downward: a simplex not in yet adds all its submasks."""
    labels = tuple(ssorted(frozenset(vertices)))
    bit = {v: 1 << i for i, v in enumerate(labels)}
    closed = set()
    for s in simplices:
        top = 0
        for v in s:
            if v not in bit:
                raise UnknownVertexError(f"simplex uses unknown vertex {v!r}", vertex=v)
            top |= bit[v]
        sub = 0 if top in closed else top
        while sub:
            closed.add(sub)
            sub = (sub - 1) & top
    return SimplicialComplex(labels=labels, masks=frozenset(closed))


@dataclass(frozen=True)
class Hyperplane:
    """Square class of edges, as rank pairs, and the indices of the
    classes it crosses: its own among them iff one of its squares has both
    axes in it."""

    index: int
    edges: frozenset
    crosses: frozenset


# ---------------------------------------------------------------------------
# building and validating


def build_complex(vertices, cubes_by_dim: dict) -> CubeComplex:
    """Validate raw cube data and return a canonical CubeComplex.

    The ids are ranked once, in ``skey`` order, and every listed cube is
    rewritten to ranks and canonicalized once; ``_complex_of_ranks`` then
    validates the canonical rank tuples. Faces must be listed explicitly;
    nothing is inferred. Raises SelfGluingError, DuplicateCubeError,
    MissingFaceError, DoubleGluingError, or UnknownVertexError with the
    offending cells attached, by their ids.

    Each dimension's listing is decided in whole-list passes: corner
    counts, ranking, canonical forms, repeated corners, and duplicates by
    set size. Only a dimension with a defect is scanned cube by cube, in
    listing order, to name the first one.
    """
    vertex_list = list(vertices)
    if len(set(vertex_list)) != len(vertex_list):
        raise DuplicateCubeError("duplicate vertex id", dim=0)
    labels = tuple(ssorted(vertex_list))
    rank = {v: r for r, v in enumerate(labels)}
    listed: dict[int, frozenset] = {}
    for dim_key, raw_cubes in cubes_by_dim.items():
        k = int(dim_key)
        if k < 1:
            raise InputFormatError(f"cube dimension must be >= 1, got {k}")
        if k > 62:  # 2^k corners could not be listed
            raise InputFormatError(f"cube dimension {k} is too large")
        seen = listed.get(k, frozenset())
        raw = list(map(tuple, raw_cubes))
        new = _canonical_set(raw, rank, 1 << k)
        if new is None or not seen.isdisjoint(new):
            _scan_listing(raw, k, rank, set(seen))
            raise _disagreement("listing")
        listed[k] = seen | new if seen else new
    return _complex_of_ranks(labels, listed)


def _canonical_set(raw: list, rank: dict, size: int) -> frozenset | None:
    """The set of canonical rank tuples of the cubes in ``raw``, or None
    unless each has ``size`` corners, all of them distinct listed vertices,
    and no two are one cube. ``canonical_cube`` permutes a tuple's
    entries, whatever they are, so repeated corners show in its output."""
    if not set(map(len, raw)) <= {size}:
        return None
    get = rank.__getitem__
    try:
        ranked = [tuple(map(get, c)) for c in raw]
    except KeyError:
        return None
    canon = list(map(canonical_cube, ranked))
    distinct = frozenset(canon)
    if len(distinct) != len(canon) or not set(map(len, map(set, canon))) <= {size}:
        return None
    return distinct


def _scan_listing(raw: list, k: int, rank: dict, seen: set) -> None:
    """Raise the first defect of the k-cubes ``raw``, cube by cube in
    listing order, with ``seen`` the canonical k-cubes listed before
    them."""
    for corners in raw:
        if len(corners) != 1 << k:
            raise InputFormatError(
                f"{k}-cube needs {1 << k} corners, got {len(corners)}",
                cube=corners)
        try:
            ranked = tuple(map(rank.__getitem__, corners))
        except KeyError:
            v = next(v for v in corners if v not in rank)
            raise UnknownVertexError(
                f"cube corner {v!r} is not a listed vertex",
                vertex=v, cube=corners) from None
        if len(set(ranked)) != len(ranked):
            raise SelfGluingError(
                "cube has a repeated corner id", cube=corners, dim=k)
        canon = canonical_cube(ranked)
        if canon in seen:
            raise DuplicateCubeError(
                "cube listed twice (up to symmetry)", cube=corners, dim=k)
        seen.add(canon)


def _disagreement(check: str) -> CubicalError:
    return CubicalError(f"the {check} set pass found a defect that the "
                        "ordered scan does not name")


def _complex_of_ranks(labels: tuple, listed: dict) -> CubeComplex:
    """The validating core of ``build_complex``, on ranks: ``listed`` maps
    each dimension k >= 1 to the frozenset of its canonical rank tuples,
    each free of repeated corners, and ``labels`` names the ranks.

    Set passes decide. Per dimension, the set of canonical codimension-1
    faces must lie in the dimension below; only the faces off the origin
    need canonicalizing (see ``canonical_cube``), and the cubes below that
    are no such face are maximal. Then one set of diagonals rules out
    double gluing (see ``_check_double_gluing``). Only a failed pass walks
    the cubes in order, to name the witness: it raises MissingFaceError or
    DoubleGluingError, naming cells by their labels. The nonempty
    dimensions of ``listed`` become ``by_dim``, their frozensets kept as
    they are."""
    maximal = set()
    for k in sorted(listed):
        if k + 1 not in listed:  # no larger cube has a k-face
            maximal |= listed[k]
        if k == 1:
            continue  # an edge's faces are its corners, which are ranks
        faces = _face_set(k, listed[k])
        below = listed.get(k - 1, frozenset())
        if not faces <= below:
            _scan_faces(labels, listed)
            raise _disagreement("face")
        maximal |= below - faces

    # the diagonal {u, w}, u < w, as the int u * n + w; an edge is its own
    n = len(labels)
    diagonals = {u * n + w for u, w in listed.get(1, ())}
    count = len(diagonals)
    for k, cubes in listed.items():
        if k > 1:
            top = (1 << k) - 1
            # the origin is a canonical cube's least corner
            diagonals.update(c[0] * n + c[top] for c in cubes)
            for p in range(1, 1 << (k - 1)):
                q = p ^ top
                diagonals.update(c[p] * n + c[q] if c[p] < c[q] else c[q] * n + c[p]
                                 for c in cubes)
            count += len(cubes) << (k - 1)
    if len(diagonals) != count:
        _check_double_gluing([c for k in sorted(listed) for c in sorted(listed[k])],
                             labels)
        raise _disagreement("diagonal")
    del diagonals  # before the frozenset of maximal cubes is built

    return CubeComplex(labels=labels, by_dim={k: cs for k, cs in listed.items() if cs},
                       maximal=frozenset(maximal))


def _face_set(k: int, cubes) -> set:
    """The canonical codimension-1 faces of the canonical k-cubes, k >= 2.
    A square (a, b, c, d) has least corner a, so its faces (a, b) and
    (a, c) are canonical as they stand."""
    if k == 2:
        return {f for a, b, c, d in cubes
                for f in ((a, b), (a, c), (b, d) if b < d else (d, b),
                          (c, d) if c < d else (d, c))}
    faces = set()
    for eps, pick in _face_pickers(k):
        faces.update(map(canonical_cube, map(pick, cubes)) if eps else map(pick, cubes))
    return faces


def _scan_faces(labels: tuple, listed: dict) -> None:
    """Raise MissingFaceError for the first unlisted face, walking by
    dimension, then by canonical cube, then by face in ``_face_pickers``
    order, so the cubes named do not depend on set iteration order."""
    for k in sorted(listed):
        if k == 1:
            continue
        below = listed.get(k - 1, ())
        pickers = _face_pickers(k)
        for c in sorted(listed[k]):
            for eps, pick in pickers:
                f = pick(c)
                if (canonical_cube(f) if eps else f) not in below:
                    raise MissingFaceError(
                        "face of a listed cube is not listed",
                        cube=_named(labels, c), face=_named(labels, f), dim=k - 1)


def _check_double_gluing(walk: list[tuple], labels: tuple) -> None:
    """Two distinct cubes may share at most the corner set of one common
    face; anything else is a double gluing. Given that every face of every
    cube is listed, this holds iff no two cubes share a diagonal, a pair of
    opposite corners:
    - if cubes a and b share the diagonal {u, w}, a common face holding u
      and w would be all of a and all of b, so a = b;
    - if no diagonal is shared, then for corners u, w of both a and b the
      least face of a holding them is the listed cube with diagonal {u, w},
      so it is also a face of b. The shared corners are closed under these
      spans, hence convex in a, and convex corner sets of a cube are its
      faces: they form the one face that a and b have in common.
    So the diagonal set of ``_complex_of_ranks`` decides, and this scan,
    over the diagonals as rank pairs in ``walk`` order, names the witness:
    ``cube_a`` is the earlier owner of the first repeated diagonal."""
    owner: dict = {}
    for c in walk:
        top = len(c) - 1
        for p in range(len(c) // 2):
            u, w = c[p], c[p ^ top]
            a = owner.setdefault((u, w) if u < w else (w, u), c)
            if a is not c:
                raise DoubleGluingError(
                    "cubes intersect in more than one common face",
                    cube_a=_named(labels, a), cube_b=_named(labels, c),
                    shared=[labels[r] for r in sorted(set(a) & set(c))])


class _Corners:
    """The corners of every cube of a listing, walked afresh by each
    ``iter``: ``check_ids`` can walk them twice without a list of them all."""

    def __init__(self, cubes: dict):
        self.cubes = cubes

    def __iter__(self):
        return itertools.chain.from_iterable(itertools.chain.from_iterable(self.cubes.values()))


def load_complex(data: dict) -> CubeComplex:
    """Ingest the JSON form {"vertices": [...], "cubes": {"1": [[..]..], ...}}.

    Witnesses and certificates name a vertex by ``str(v)``, so two
    distinct ids with one string form (1 and "1") are an input error, and
    so are two keys naming one dimension ("1" and "01"), as the later
    listing would replace the earlier."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise InputFormatError("complex JSON needs 'vertices' and 'cubes'")
    vertices = parse_list(data["vertices"], "'vertices'")
    raw = data.get("cubes", {})
    if not isinstance(raw, dict):
        raise InputFormatError(f"'cubes' must map dimensions to cube lists, got {raw!r}")
    cubes = {}
    key_of = {}  # dimension -> the key that names it
    for k, cs in raw.items():
        d = parse_int(k, "cube dimension")
        if key_of.setdefault(d, k) != k:
            raise InputFormatError(
                f"cube keys {key_of[d]!r} and {k!r} both name dimension {d}",
                keys=[key_of[d], k])
        cubes[d] = [tuple(parse_list(c, "a cube")) for c in parse_list(cs, f"cubes[{k!r}]")]
    check_ids(vertices, "vertex ids")
    check_ids(_Corners(cubes), "cube corners")
    string_forms(vertices, "vertex ids")
    return build_complex(vertices, cubes)


def dump_complex(x: CubeComplex) -> dict:
    names = [",".join(map(str, v)) if isinstance(v, tuple) else v
             for v in x.labels]
    return {
        "vertices": names,
        "cubes": {
            str(k): [[names[r] for r in c] for c in sorted(x.by_dim[k])]
            for k in sorted(x.by_dim)
        },
    }


# ---------------------------------------------------------------------------
# links and the flag condition


def _link_masks(x: CubeComplex, r: int) -> tuple[list, list, set]:
    """r's neighbours in rank order, which give the link vertices their
    positions; the link's neighbour masks, an edge per square at r; and its
    simplex masks, one per incidence, closed downward as every face is listed."""
    nbrs = sorted(x.adjacency[r])
    bit = {u: 1 << i for i, u in enumerate(nbrs)}
    adj = [0] * len(nbrs)
    simplices = set()
    for c, pos in x.incidence[r]:
        mask = 0
        for axis in _AXES[len(c)]:
            mask |= bit[c[pos ^ axis]]
        simplices.add(mask)
        if len(c) == 4:
            a, b = bit[c[pos ^ 1]], bit[c[pos ^ 2]]
            adj[a.bit_length() - 1] |= b
            adj[b.bit_length() - 1] |= a
    return nbrs, adj, simplices


def vertex_link(x: CubeComplex, v) -> SimplicialComplex:
    """Link of the vertex with id v: one link vertex per edge at v, one
    (k-1)-simplex per (k-cube, corner-at-v) incidence, spanned by that
    cube's edges at v, from ``_link_masks``. Link vertices are edges of x:
    rank pairs, least rank first, which sort as their other ends do."""
    r = x.vertex_index.get(v)
    if r is None:
        raise UnknownVertexError(f"unknown vertex {v!r}", vertex=v)
    nbrs, _, simplices = _link_masks(x, r)
    return SimplicialComplex(tuple((u, r) if u < r else (r, u) for u in nbrs), frozenset(simplices))


def _least_empty_simplex(adj: list, simplices: set) -> int:
    """The least clique of size >= 3 not in ``simplices``, by (size,
    positions), as the bitmask of its positions 0..d-1; 0 if there is
    none. ``adj[i]`` is the mask of i's neighbours. ``graphs.cliques``
    lists the cliques in that order, so the first one missing is the
    least, and a minimal empty simplex, since its faces are smaller
    cliques."""
    for c in cliques(adj):
        if c not in simplices and c.bit_count() >= 3:
            return c
    return 0


@dataclass(frozen=True)
class FlagResult:
    ok: bool
    witness: tuple | None = None  # minimal empty simplex, as sorted link-vertex tuple

    def certificate(self) -> dict:
        if self.ok:
            return {}
        return {"empty_simplex": [str(v) for v in self.witness]}


def is_flag(link: SimplicialComplex) -> FlagResult:
    """Every clique of the 1-skeleton must span a listed simplex. On failure
    the witness is the least empty simplex by (size, sorted ids): a minimal
    one, since all its proper faces are smaller cliques. Positions are in
    ``skey`` order: it is the least by (size, positions)."""
    empty = _least_empty_simplex(link.neighbours, link.masks)
    if empty:
        return FlagResult(ok=False, witness=tuple(map(link.labels.__getitem__, bits(empty))))
    return FlagResult(ok=True)


@dataclass(frozen=True)
class LocalCat0Result:
    ok: bool
    vertex: object = None
    witness: tuple | None = None

    def certificate(self) -> dict:
        if self.ok:
            return {}
        return {"vertex": str(self.vertex),
                "empty_simplex": [str(v) for v in self.witness]}


def is_locally_cat0(x: CubeComplex) -> LocalCat0Result:
    """Gromov link test: every vertex link must be flag. The witness names
    the vertex and the edges of its empty simplex by their ids.

    Each vertex is ``_link_masks``, with no ``SimplicialComplex`` built;
    the witness is that of ``is_flag(vertex_link(x, v))``."""
    for r in x.vertices:
        nbrs, adj, simplices = _link_masks(x, r)
        empty = _least_empty_simplex(adj, simplices)
        if empty:
            edges = ((u, r) if u < r else (r, u)
                     for u in map(nbrs.__getitem__, bits(empty)))
            return LocalCat0Result(ok=False, vertex=x.labels[r],
                                   witness=tuple(map(x.named, edges)))
    return LocalCat0Result(ok=True)


# ---------------------------------------------------------------------------
# medians and the global CAT(0) test


def median(x: CubeComplex, a, b, c):
    """The unique vertex in all three pairwise geodesic intervals, given
    and returned by id.

    Raises NoMedianError / MultipleMediansError when the triple has zero or
    several candidates (both certify that the complex is not CAT(0)).
    """
    for v in (a, b, c):
        if v not in x.vertex_index:
            raise UnknownVertexError(f"unknown vertex {v!r}", vertex=v)
    if not x.is_connected():
        raise DisconnectedError("median requires a connected complex")
    ia, ib, ic = (x.vertex_index[v] for v in (a, b, c))
    da, db, dc = (bfs(x.adjacency, i)[0] for i in (ia, ib, ic))
    hits = [
        x.labels[m]
        for m in x.vertices
        if da[m] + db[m] == da[ib]
        and db[m] + dc[m] == db[ic]
        and da[m] + dc[m] == da[ic]
    ]
    if not hits:
        raise NoMedianError("triple has no median", triple=(a, b, c))
    if len(hits) > 1:
        raise MultipleMediansError("triple has several medians",
                                   triple=(a, b, c), medians=hits)
    return hits[0]


def _median_violation(x: CubeComplex):
    """Exact unique-median check over all vertex triples of a connected
    complex whose 4-cycles all bound listed squares. Returns None or a
    witness dict, by ids: the first triple (a, b, c) of ranks a < b < c,
    in lexicographic order, whose pairwise geodesic intervals do not meet
    in exactly one vertex, and the vertices they meet in.

    ``_roller_halfspaces`` decides at any size, from the Roller test that
    ``CubeComplex._roller`` runs once per complex. Only a failure runs
    ``_first_bad_triple``, and above ``DEFAULT_MEDIAN_CAP`` vertices raises
    CapExceededError before that scan allocates its n^2 interval bitsets."""
    if _roller_halfspaces(x) is not None:
        return None
    n, cap = len(x.labels), DEFAULT_MEDIAN_CAP
    if n > cap:
        raise CapExceededError(
            f"median check over {n} vertices exceeds cap {cap}", cap=cap)
    found = _first_bad_triple(x.adjacency)
    if found is None:
        return None
    triple, medians = found
    return {"triple": x.named(triple), "medians": [x.labels[m] for m in medians]}


def _roller_test(x: CubeComplex) -> tuple | None:
    """The Roller test of x: (rows, system, walk) if the 1-skeleton of x,
    connected with every 4-cycle bounding a listed square, is median, and
    None if not. It is median iff it is the dual of the pocset of its
    square classes' sides (Roller 1998, Chepoi 2000).

    One breadth-first pass from rank 0 labels each vertex with its
    crossing row, ``rows[r]``: bit i for each class i that its search tree
    path from rank 0 crosses an odd number of times. Then x is median iff
    (a) every edge of class i changes bit i of the row and no other;
    (b) the rows are pairwise distinct;
    (c) the dual of the sides has x's vertices and edges.
    By (a) an edge of class i has its ends on the two sides of class i and
    on one side of every other class, so no two sides are equal, and by
    the flip lemma the edge is an edge of the dual: each row is a
    consistent orientation of the sides under inclusion. With (b) the
    dual's component thus holds all n rows. It is exactly them iff it has
    n vertices, and its edges are then x's iff there are as many. A median
    graph passes all three, as its square classes are its convex splits.
    ``pocsets._system_of_crossings`` orders the sides from the rows into
    ``system``, with class i at hyperplane i, and ``pocsets._flip_walk``
    walks the dual from rank 0's orientation (every "+" side), giving up
    past n vertices, as the dual can be exponentially larger; ``walk`` is
    its (order, ids, minimal_at). Its vertices' minimal sides count its
    edges twice. The pass keeps its own queue, not ``graphs.bfs``, as it
    labels each vertex by the edge that reaches it and checks (a) on each
    edge it reads."""
    from .pocsets import _evens, _flip_walk, _system_of_crossings

    n = len(x.labels)
    classes = x._square_classes
    positions = [(p, p + 1) for p in range(0, 2 * len(classes), 2)]  # as ids
    if not n:
        return [], _system_of_crossings([], positions), ([], {}, [])
    nbrs = [[] for _ in range(n)]  # vertex -> (neighbour, its class's bit)
    for i, edges in enumerate(classes):
        for a, b in edges:
            nbrs[a].append((b, 1 << i))
            nbrs[b].append((a, 1 << i))
    row = [-1] * n
    row[0] = 0
    order = [0]
    for v in order:  # order grows while it is read: a breadth-first queue
        for w, bit in nbrs[v]:
            if row[w] < 0:
                row[w] = row[v] ^ bit
                order.append(w)
            elif row[w] ^ row[v] != bit:  # (a)
                return None
    if len(order) < n or len(set(row)) < n:  # connected, (b)
        return None
    system = _system_of_crossings(row, positions)
    walk = _flip_walk(system, _evens(2 * len(classes)), n)
    if walk is None or sum(map(int.bit_count, walk[2])) != 2 * len(x.edges):  # (c)
        return None
    return row, system, walk


def _roller_halfspaces(x: CubeComplex) -> list[int] | None:
    """The halfspaces of x as vertex bitsets if x passes the Roller test
    of ``x._roller``, and None if not: class i's far side from rank 0 is
    column i of the crossing rows. Halfspaces 2i and 2i + 1 are the
    smaller and the larger side of class i, the one holding rank 0 first
    on a tie, as ``halfspaces_of`` orders them by (size, least vertex); so
    halfspace p ^ 1 is the complement of halfspace p, as in ``pocsets``."""
    from .pocsets import _columns

    if x._roller is None:
        return None
    rows = x._roller[0]
    n = len(rows)
    halfspaces = []  # each class's smaller side first
    full = (1 << n) - 1
    for away in _columns(rows, len(x._square_classes)):  # class i -> its far side
        halfspaces += [away, full ^ away] if 2 * away.bit_count() < n else [full ^ away, away]
    return halfspaces


def _is_own_dual(x: CubeComplex) -> bool:
    """True iff x is the cube complex dual to its own halfspaces, which
    decides that x is CAT(0) (Sageev 1995; Roller 1998).

    Say x passes the Roller test of ``x._roller``. Then a listed k-cube's
    corners have the rows of one corner XOR the subsets of k distinct
    class bits, as two axes in one class would give two corners one row;
    so it is a k-cube of the dual, and distinct cubes give distinct ones.
    Hence x is the dual iff the dual has exactly as many cells as x, the
    vertices included. ``pocsets._dual_cell_count`` counts them on the
    Roller test's walk without listing them, and gives up one past that
    count, as the dual can be exponentially larger. A CAT(0) complex is
    its own dual, so this answers every positive case."""
    from .pocsets import _dual_cell_count

    if x._roller is None:
        return False
    _, system, (_, _, minimal_at) = x._roller
    cells = len(x.labels) + sum(map(len, x.by_dim.values()))
    return _dual_cell_count(system, minimal_at, cells) == cells


def _first_bad_triple(nbrs):
    """First triple a < b < c of vertex positions, in lexicographic order,
    whose pairwise geodesic intervals do not meet in exactly one vertex, as
    (triple, sorted common vertices); None if there is none. Intervals are
    bitsets, I(a, z) = {z} | the union of I(a, w) over the neighbours w of
    z one step nearer a, built in breadth-first order from a, one source
    at a time as the scan first needs it."""
    n = len(nbrs)
    rows: list = [None] * n

    def intervals(a):
        if rows[a] is None:
            dist, order = bfs(nbrs, a)
            row = [0] * n
            for z in order:
                row[z] = 1 << z
                for w in nbrs[z]:
                    if dist[w] == dist[z] - 1:
                        row[z] |= row[w]
            rows[a] = row
        return rows[a]

    for a in range(n - 2):
        from_a = intervals(a)
        for b in range(a + 1, n - 1):
            from_b = intervals(b)
            ab = from_a[b]
            for c in range(b + 1, n):
                common = ab & from_a[c] & from_b[c]
                if not common or common & (common - 1):
                    return (a, b, c), [m for m in range(n) if common >> m & 1]
    return None


def _unfilled_square(x: CubeComplex):
    """A 4-cycle of the 1-skeleton with no listed square on it, if any, by
    ids. Cycle a-v-b-w: a,b opposite, v,w opposite."""
    adj = x.adjacency
    squares = x.squares
    for a in x.vertices:
        # the pairs (a, b) of the all-pairs scan that can close a 4-cycle:
        # b after a at distance 2, in the same order
        near = {b for v in adj[a] for b in adj[v] if b > a and b not in adj[a]}
        for b in sorted(near):
            for v, w in itertools.combinations(sorted(adj[a] & adj[b]), 2):
                if canonical_cube((a, v, w, b)) not in squares:
                    return {"cycle": x.named((a, v, b, w))}
    return None


@dataclass(frozen=True)
class Cat0Result:
    ok: bool
    reason: str | None = None  # "link" | "square" | "median"
    witness: dict | None = None

    def certificate(self) -> dict:
        if self.ok:
            return {}
        cert = {"reason": self.reason}
        for key, val in (self.witness or {}).items():
            if isinstance(val, (list, tuple)):
                cert[key] = [str(v) for v in val]
            else:
                cert[key] = str(val)
        return cert


def is_cat0(x: CubeComplex) -> Cat0Result:
    """Decide CAT(0) exactly: flag links + connected + every 4-cycle bounds
    a square + median 1-skeleton. A positive answer is ``_is_own_dual``'s
    one comparison of x with the dual of its halfspaces, with no link or
    4-cycle scanned. Any other complex goes through those stages in that
    order, and the witness names its first failure; a non-flag link is one
    even on a disconnected complex. The verdict has no size limit:
    ``DEFAULT_MEDIAN_CAP`` bounds only the scan that names a median
    failure's triple, which raises CapExceededError above it."""
    if _is_own_dual(x):
        return Cat0Result(ok=True)
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
    # Chepoi: a connected complex with flag links, every 4-cycle filled and
    # a median 1-skeleton is its own dual, so some stage above must fail
    raise CubicalError("the Sageev comparison found a defect that the "
                       "ordered stages do not name")


# ---------------------------------------------------------------------------
# hyperplanes


def hyperplanes(x: CubeComplex) -> list[Hyperplane]:
    """``x._square_classes``, in the order of their least edge, each with
    the classes it crosses, read in one pass over the squares: a square's
    two edges at its origin are canonical and lie on its two axes."""
    classes = x._square_classes
    class_of = {e: i for i, cls in enumerate(classes) for e in cls}
    crosses = [set() for _ in classes]
    for c00, c10, c01, _ in x.squares:
        i, j = class_of[c00, c10], class_of[c00, c01]
        crosses[i].add(j)
        crosses[j].add(i)
    return [Hyperplane(index=i, edges=frozenset(cls), crosses=frozenset(crosses[i]))
            for i, cls in enumerate(classes)]


def halfspaces_of(x: CubeComplex, h: Hyperplane) -> list[frozenset]:
    """Connected components of the 1-skeleton after deleting the class
    edges, as rank sets. CAT(0) complexes give exactly two; other counts
    are reported."""
    adj = list(x.adjacency)  # only the class edges' ends get new sets
    for a, b in h.edges:
        adj[a] = adj[a] - {b}
        adj[b] = adj[b] - {a}
    # components come ordered by least vertex, and the sort is stable: the
    # result is ordered by (size, least vertex)
    comps = [frozenset(c) for c in components(x.vertices, adj)]
    comps.sort(key=len)
    return comps


def hyperplanes_cross(x: CubeComplex, h1: Hyperplane, h2: Hyperplane) -> bool:
    """True iff some square has one axis in each class (both in the class
    when h1 is h2), as ``hyperplanes`` read them off the squares. ``x`` is
    not read; it is kept for callers."""
    return h2.index in h1.crosses


@dataclass(frozen=True)
class HellyResult:
    ok: bool
    family: tuple
    common_cube: tuple | None
    detail: str = ""

    def certificate(self) -> dict:
        if self.ok:
            return {}
        return {"family": list(self.family), "detail": self.detail}


def helly_check(x: CubeComplex, family: list[Hyperplane],
                cat0: Cat0Result | None = None) -> HellyResult:
    """For a pairwise-crossing family on a CAT(0) complex: a common crossed
    cube must exist and the family size is bounded by the dimension. The
    common cube is the least by (size, ranks) that every class of the
    family crosses, by holding one of its edges at its origin. No
    hyperplane of a CAT(0) complex crosses itself, so the classes are
    distinct and the cube's dimension is at least the family size."""
    if cat0 is None:
        cat0 = is_cat0(x)
    if not cat0.ok:
        raise NotCat0Error("helly_check requires a CAT(0) complex",
                           certificate=cat0.certificate())
    idxs = tuple(sorted(h.index for h in family))
    for h1, h2 in itertools.combinations(family, 2):
        if not hyperplanes_cross(x, h1, h2):
            return HellyResult(ok=False, family=idxs, common_cube=None,
                               detail=f"hyperplanes {h1.index},{h2.index} do not cross")
    if len(family) > x.dim:
        return HellyResult(ok=False, family=idxs, common_cube=None,
                           detail=f"family of size {len(family)} exceeds dimension {x.dim}")
    best = min((c for c in itertools.chain.from_iterable(x.by_dim.values())
                if all(any((c[0], c[a]) in h.edges for a in _AXES[len(c)])
                       for h in family)),
               key=lambda c: (len(c), c), default=None)
    if best is None:
        return HellyResult(ok=False, family=idxs, common_cube=None,
                           detail="no common crossed cube")
    return HellyResult(ok=True, family=idxs, common_cube=best)


# ---------------------------------------------------------------------------
# halfspace system of a CAT(0) complex


@dataclass(frozen=True)
class HalfspaceDecomposition:
    """Halfspace system of a CAT(0) complex plus the vertex membership of
    each abstract halfspace, by vertex id, so concrete orientations can be
    read off."""

    system: object  # pocsets.HalfspaceSystem
    members: dict

    def principal_orientation(self, v):
        from .pocsets import Orientation

        choices = []
        for pair in self.system.hyperplanes:
            a, b = pair
            if v in self.members[a]:
                choices.append(a)
            elif v in self.members[b]:
                choices.append(b)
            else:
                raise UnknownVertexError(
                    f"{v!r} lies in neither side of {pair}", vertex=v)
        return Orientation(choices=tuple(choices))


def halfspace_system_of(x: CubeComplex) -> HalfspaceDecomposition:
    """The halfspaces that the Roller test of ``is_cat0`` finds, ordered
    by inclusion, with complementation as the involution: x is the dual of
    this system. Both are read back from ``x._roller``, so the Roller test
    runs once. Hyperplane i is square class i, and ``h{i}+`` and ``h{i}-``
    are its smaller and its larger side, as ``halfspaces_of`` orders them.

    The Roller test's system puts the side holding rank 0 at position 2i;
    the two bits of every class whose smaller side does not hold rank 0
    are swapped, in each row of its order and between the rows."""
    from .pocsets import HalfspaceSystem

    cat0 = is_cat0(x)
    if not cat0.ok:
        raise NotCat0Error("halfspace_system_of requires a CAT(0) complex",
                           certificate=cat0.certificate())
    sides = _roller_halfspaces(x)
    ids = [f"h{p >> 1}{'+-'[p & 1]}" for p in range(len(sides))]
    swap = sum(1 << p for p in range(0, len(sides), 2) if not sides[p] & 1)
    above = []
    for m in x._roller[1].above:
        t = (m ^ m >> 1) & swap
        above.append(m ^ t ^ t << 1)
    s = HalfspaceSystem(star_pairs=tuple(zip(ids[::2], ids[1::2])),
                        above=tuple(above[p ^ (swap >> (p & ~1) & 1)] for p in range(len(above))))
    members = {h: frozenset(x.named(bits(m))) for h, m in zip(ids, sides)}
    return HalfspaceDecomposition(system=s, members=members)
