"""BHV space of rooted phylogenetic trees.

A tree with n labeled leaves is coordinatized by its clusters: the leaf
sets below interior edges, with positive lengths. Cluster sets that are
pairwise nested-or-disjoint index orthants; binary topologies have the
maximal n-2 clusters. The space of all topologies glues the orthants
along shared faces; its unit truncation, the Sageev dual of the cluster
pocset, is a cube complex whose CAT(0) certificate is checked
combinatorially.

Leaf-edge and root-edge lengths are outside the model: inputs carrying
them are accepted and the lengths ignored with a note. Zero-length
interior edges are collapsed to reach the canonical form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .complexes import CubeComplex, SimplicialComplex
from .errors import (
    BadRootValencyError,
    CapExceededError,
    CyclicError,
    IncompatibleClustersError,
    InputFormatError,
    InteriorValencyTwoError,
    LeafCountMismatchError,
    NonPositiveLengthError,
    UnlabeledLeafError,
)
from .graphs import bits, cliques, girth, is_regular
from .pocsets import HalfspaceSystem, _dual_cells, _evens, _flip_walk, _spread
from .util import DEFAULT_CAP, check_ids, parse_float, parse_int, parse_list, string_forms

MAX_COMPLEX_N = 6  # cell counts of treespace_complex explode past it
MAX_LINK_N = 8  # link_of_origin(9) would list 12,818,911 simplices
MAX_COUNT_N = 20_000  # (2n-3)!! and its decimal text grow quadratically past it


@dataclass(frozen=True, eq=False)
class PhyloTree:
    """Canonical rooted metric n-tree (zero-length interior edges already
    collapsed). Equality of trees is equality of their orthants."""

    n: int
    root: object
    children: dict     # node -> tuple of children
    leaf_label: dict   # leaf node -> label in 1..n
    lengths: dict      # interior child node -> positive length
    notes: tuple = ()

    def leaves_below(self, node) -> frozenset:
        """Labels of the leaves below ``node``; iterative, so deep trees hit
        no recursion limit."""
        out = set()
        stack = [node]
        while stack:
            v = stack.pop()
            if v in self.leaf_label:
                out.add(self.leaf_label[v])
            else:
                stack.extend(self.children[v])
        return frozenset(out)


@dataclass(frozen=True)
class Orthant:
    """Point of tree space: compatible clusters with positive lengths."""

    n: int
    coords: tuple  # ((cluster, length), ...) sorted

    @cached_property
    def topology(self) -> frozenset:
        return frozenset(c for c, _ in self.coords)

    @cached_property
    def lengths(self) -> dict:
        return dict(self.coords)

    def norm(self) -> float:
        return math.sqrt(sum(l * l for _, l in self.coords))


def _ckey(cluster: frozenset):
    return (len(cluster), tuple(sorted(cluster)))


def make_orthant(n: int, coords: dict) -> Orthant:
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
    if _hierarchy(clusters) is None:
        raise _incompatible(clusters)
    if len(items) > n - 2:
        raise IncompatibleClustersError(
            f"{len(items)} clusters exceed the maximum n-2 = {n - 2}")
    return Orthant(n=n, coords=items)


def _hierarchy(clusters: list[frozenset]) -> tuple[dict, dict] | None:
    """Each cluster's parent (its least proper superset, None for the root)
    and each leaf's host (its least cluster; absent for the root), or None
    if two of the distinct clusters, listed by increasing size, are
    incompatible. Going through them by decreasing size, a cluster is
    compatible with every larger one iff all its leaves have the same least
    cluster seen so far that holds them, or none: O(total size)."""
    parent: dict = {}
    host: dict = {}
    for c in reversed(clusters):
        owners = {host.get(x) for x in c}
        if len(owners) > 1:
            return None
        parent[c] = owners.pop()
        host.update(dict.fromkeys(c, c))
    return parent, host


def _incompatible(clusters: list[frozenset]) -> IncompatibleClustersError:
    """The first incompatible pair, by a pairwise scan, as an error."""
    a, b = next(p for p in itertools.combinations(clusters, 2) if not compatible(*p))
    return IncompatibleClustersError(
        f"clusters {sorted(a)} and {sorted(b)} overlap improperly",
        pair=(sorted(a), sorted(b)))


def compatible(a: frozenset, b: frozenset) -> bool:
    """Nested or disjoint."""
    return a <= b or b <= a or not (a & b)


# ---------------------------------------------------------------------------
# validation and canonicalization


def validate_tree(data: dict) -> PhyloTree:
    """Ingest {"n":, "root":, "nodes": [...], "edges": [[parent, child,
    length]...], "leaf_labels": {node: label}} and canonicalize.

    JSON object keys are strings, so a ``leaf_labels`` key names the node
    whose ``str`` it is, and two nodes with one string form (1 and "1")
    are an input error."""
    if not isinstance(data, dict) or "n" not in data or "root" not in data:
        raise InputFormatError("tree JSON needs n, root, nodes, edges, leaf_labels")
    n = parse_int(data["n"], "n")
    if n < 2:
        raise InputFormatError("need at least 2 leaves")
    nodes = parse_list(data.get("nodes", []), "'nodes'")
    root = data["root"]
    check_ids(nodes + [root], "node ids")
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise InputFormatError("duplicate node id")
    if root not in node_set:
        raise InputFormatError("root is not a listed node")
    node_of = string_forms(nodes, "node ids")
    labels = data.get("leaf_labels", {})
    if not isinstance(labels, dict):
        raise InputFormatError(f"'leaf_labels' must map nodes to labels, got {labels!r}")
    raw_labels = {node_of.get(str(k), k): parse_int(v, "a leaf label")
                  for k, v in labels.items()}

    parent: dict = {}
    children: dict = {v: [] for v in nodes}
    length: dict = {}
    for e in parse_list(data.get("edges", []), "'edges'"):
        p, c, l = parse_list(e, "an edge [parent, child, length]", 3)
        check_ids((p, c), "edge endpoints")
        l = parse_float(l, "an edge length")
        if p not in node_set or c not in node_set:
            raise InputFormatError(f"edge ({p!r},{c!r}) uses unknown nodes")
        if c in parent:
            raise CyclicError(f"node {c!r} has two parents", node=c)
        if c == root:
            raise CyclicError("root has a parent", node=c)
        parent[c] = p
        children[p].append(c)
        length[c] = l

    # reachability doubles as the acyclicity check
    reached = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for c in children[v]:
            if c in reached:
                raise CyclicError(f"node {c!r} reached twice", node=c)
            reached.add(c)
            stack.append(c)
    if reached != node_set:
        raise CyclicError("nodes unreachable from the root",
                          unreachable=sorted(map(str, node_set - reached)))

    leaves = [v for v in nodes if not children[v]]
    if root in leaves:
        raise BadRootValencyError("root has no children")
    for v in leaves:
        if v not in raw_labels:
            raise UnlabeledLeafError(f"leaf {v!r} has no label", node=v)
    for v in raw_labels:
        if v not in node_set or children[v]:
            raise UnlabeledLeafError(f"label on non-leaf node {v!r}", node=v)
    if len(raw_labels) != n or sorted(raw_labels.values()) != list(range(1, n + 1)):
        raise UnlabeledLeafError(
            f"leaf labels must be a bijection onto 1..{n}",
            labels=sorted(raw_labels.values()))

    notes = []
    collapse = []
    for c, l in length.items():
        if children[c]:  # interior edge: child is not a leaf
            if l < 0:
                raise NonPositiveLengthError(
                    f"interior edge above {c!r} has negative length {l}", node=c)
            if l == 0:
                collapse.append(c)
        elif l != 0:
            notes.append(f"leaf edge above {c!r}: length {l} ignored")

    child_map = {v: list(cs) for v, cs in children.items()}
    for c in collapse:
        p = parent[c]
        while p not in child_map:  # parent may itself have been collapsed
            p = parent[p]
        child_map[p].remove(c)
        child_map[p].extend(child_map[c])
        for g in child_map[c]:
            parent[g] = p
        del child_map[c]
    if collapse:
        notes.append(f"collapsed {len(collapse)} zero-length interior edges")

    if len(child_map[root]) < 2:
        raise BadRootValencyError(
            f"root has valency {len(child_map[root])}, need >= 2")
    for v, cs in child_map.items():
        if v != root and cs and len(cs) < 2:
            raise InteriorValencyTwoError(
                f"interior node {v!r} has valency 2", node=v)

    final_lengths = {c: length[c] for c in length
                     if c in child_map and child_map[c] and length[c] > 0}
    tree = PhyloTree(
        n=n, root=root,
        children={v: tuple(cs) for v, cs in child_map.items()},
        leaf_label=raw_labels,
        lengths=final_lengths,
        notes=tuple(notes))
    return tree


def to_orthant(t: PhyloTree) -> Orthant:
    coords = {}
    for c, l in t.lengths.items():
        coords[t.leaves_below(c)] = l
    return make_orthant(t.n, coords)


def from_orthant(o: Orthant) -> PhyloTree:
    """Build the canonical tree of a compatible cluster set: each cluster's
    parent is its least proper superset, or the root."""
    n = o.n
    clusters = sorted(o.topology, key=_ckey)
    tree = _hierarchy(clusters)
    if tree is None:
        raise _incompatible(clusters)
    parent, host = tree
    node_id = {None: "root"}
    node_id.update((c, "c" + ".".join(str(x) for x in sorted(c))) for c in clusters)
    children: dict = {v: [] for v in node_id.values()}
    for c in clusters:
        children[node_id[parent[c]]].append(node_id[c])
    for lab in range(1, n + 1):
        children[node_id[host.get(lab)]].append(f"l{lab}")
        children[f"l{lab}"] = []
    lengths = {node_id[c]: o.lengths[c] for c in clusters}
    return PhyloTree(
        n=n, root="root",
        children={v: tuple(cs) for v, cs in children.items()},
        leaf_label={f"l{lab}": lab for lab in range(1, n + 1)},
        lengths=lengths)


def dump_tree(t: PhyloTree) -> dict:
    nodes = sorted(map(str, t.children))
    edges = []
    for p, cs in sorted(t.children.items(), key=lambda kv: str(kv[0])):
        for c in cs:
            edges.append([str(p), str(c), float(t.lengths.get(c, 0.0))])
    return {"n": t.n, "root": str(t.root), "nodes": nodes, "edges": edges,
            "leaf_labels": {str(v): lab for v, lab in t.leaf_label.items()}}


def dump_orthant(o: Orthant) -> dict:
    return {"n": o.n,
            "clusters": [sorted(c) for c, _ in o.coords],
            "lengths": [l for _, l in o.coords]}


def load_orthant(data: dict) -> Orthant:
    if not isinstance(data, dict) or "clusters" not in data:
        raise InputFormatError("orthant JSON needs n, clusters, lengths")
    clusters = [parse_list(c, "a cluster")
                for c in parse_list(data["clusters"], "'clusters'")]
    if not all(isinstance(x, int) and not isinstance(x, bool)
               for c in clusters for x in c):
        raise InputFormatError(f"clusters must list integer leaf labels, got {clusters!r}")
    lengths = [parse_float(x, "a length")
               for x in parse_list(data.get("lengths"), "'lengths'")]
    if len(clusters) != len(lengths):
        raise InputFormatError("clusters and lengths differ in length")
    return make_orthant(parse_int(data.get("n"), "n"),
                        dict(zip(map(frozenset, clusters), lengths)))


# ---------------------------------------------------------------------------
# enumeration


def count_binary(n: int) -> int:
    """(2n-3)!! rooted binary topologies on n labeled leaves."""
    if n < 2:
        raise InputFormatError("need n >= 2")
    if n > MAX_COUNT_N:
        raise CapExceededError(
            f"n = {n} exceeds the configured bound {MAX_COUNT_N}", cap=MAX_COUNT_N)
    return math.prod(range(3, 2 * n - 2, 2))


def enumerate_topologies(n: int, cap: int = DEFAULT_CAP) -> list[tuple]:
    """All binary topologies on leaves 1..n, each the increasing tuple of
    its n - 2 clusters as int leaf masks, bit j for leaf j (``graphs.bits``
    lists a cluster's leaves). By recursive leaf insertion: leaf k can be
    attached above any cluster, above any leaf, or above the old root.

    Level k holds exactly 2k - 3 topologies per topology of level k - 1,
    so each level is sized against ``cap`` before it is built: more than
    ``cap`` topologies raise ``CapExceededError`` with nothing of that
    level allocated."""
    if n < 2:
        raise InputFormatError("need n >= 2")
    tops: list[tuple] = [()]
    for k in range(3, n + 1):
        if len(tops) * (2 * k - 3) > cap:
            raise CapExceededError(f"topology enumeration exceeds cap {cap}", cap=cap)
        nxt = []
        leaf = 1 << k
        singles = [1 << j for j in range(1, k)]
        for t in tops:
            # 2k-3 insertion sites: every cluster edge, every leaf edge, and
            # a fresh root; clusters strictly above the site absorb leaf k
            for site in [*t, *singles]:
                nxt.append(tuple(sorted([c | leaf if c & site == site and c != site else c
                                         for c in t] + [site | leaf])))
            nxt.append((*t, leaf - 2))  # leaves 1..k-1, above every old cluster
        tops = nxt
    if len(tops) > cap:  # n = 2 inserts nothing: its one topology meets no check above
        raise CapExceededError(f"topology enumeration exceeds cap {cap}", cap=cap)
    return tops


# ---------------------------------------------------------------------------
# the link of the origin and the truncated complex


def all_clusters(n: int) -> list[frozenset]:
    labels = list(range(1, n + 1))
    out = []
    for size in range(2, n):
        out.extend(frozenset(c) for c in itertools.combinations(labels, size))
    return sorted(out, key=_ckey)


def link_of_origin(n: int) -> SimplicialComplex:
    """Flag complex of the cluster-compatibility graph: vertices are
    clusters, simplices are pairwise-compatible sets (orthant faces): the
    vertex link of ``treespace_complex(n)`` at the origin. Their number
    explodes with n, which is bounded before any enumeration."""
    if n < 3:
        raise InputFormatError("need n >= 3")
    if n > MAX_LINK_N:
        raise CapExceededError(
            f"n = {n} exceeds the configured bound {MAX_LINK_N}", cap=MAX_LINK_N)
    names, adj = _compatibility(n)
    # every clique is a simplex: pairwise compatibility makes the set an
    # orthant face. The cliques are closed under subsets, as a family must be.
    link = SimplicialComplex(tuple(names), frozenset(cliques(adj)))
    link.__dict__["neighbours"] = tuple(adj)  # the cached property, already built
    return link


def _compatibility(n: int) -> tuple[list[str], list[int]]:
    """The names of the clusters on n leaves in string order, which is
    ``skey`` order, and per cluster i the bitset of the other clusters
    compatible with it, bit j for the j-th name: the one table that
    ``link_of_origin`` and ``_cluster_pocset`` read."""
    clusters = sorted(all_clusters(n), key=_cluster_name)
    adj = [sum(1 << j for j, d in enumerate(clusters) if j != i and compatible(c, d))
           for i, c in enumerate(clusters)]
    return list(map(_cluster_name, clusters)), adj


def petersen_checks(nbrs) -> dict:
    """The checks that the graph on positions with neighbours ``nbrs`` is the
    Petersen graph, as ``tree link -n 4`` reports them. The last follows from
    the others with no search: in a 3-regular graph of girth 5, a vertex, its
    3 neighbours and their 6 further neighbours are distinct, so it has at
    least 1 + 3 + 6 = 10 vertices (the Moore bound), and at exactly 10 it
    is the Petersen graph, the unique (3,5)-cage (Hoffman & Singleton, "On
    Moore graphs with diameters 2 and 3", IBM J. Res. Dev. 1960)."""
    checks = {
        "vertices": len(nbrs) == 10,
        "edges": sum(map(len, nbrs)) // 2 == 15,
        "three_regular": is_regular(nbrs, 3),
        "girth_five": girth(nbrs) == 5,
    }
    checks["isomorphic_to_petersen"] = (
        checks["vertices"] and checks["three_regular"] and checks["girth_five"])
    return checks


def _cluster_name(c: frozenset) -> str:
    return ".".join(str(x) for x in sorted(c))


def _cluster_pocset(n: int) -> HalfspaceSystem:
    """The cluster pocset on n leaves, built valid from one compatibility
    table: hyperplane i is the i-th cluster by name, with the ids
    ``name+`` (present) at position 2i and ``name-`` (absent) at 2i + 1,
    and ``c+ < d-`` exactly when c and d are incompatible. So
    ``above[2i]`` holds the odd positions of the clusters incompatible
    with cluster i, and ``above[2i + 1]`` is 0. No check runs, as none
    could fail:
    - "-" sides lie below nothing, so the relations are closed as they
      stand, and star-closed, as c+ < d- iff d+ < c-;
    - every relation goes from a "+" side to a "-" side: no cycle;
    - two clusters' hyperplanes have one relation if incompatible and
      none if not, so nesting holds;
    - no cluster is incompatible with itself, so no side is comparable
      with its complement.
    It is the system ``build_system`` makes of the same ids and relations,
    ``covers`` too, as no relation has another between its ends."""
    names, compatible_with = _compatibility(n)
    full = (1 << len(names)) - 1
    above = []
    for i, m in enumerate(compatible_with):
        above += [_spread(full & ~m & ~(1 << i)) << 1, 0]
    return HalfspaceSystem(star_pairs=tuple((c + "+", c + "-") for c in names),
                           above=tuple(above))


def treespace_complex(n: int, cap: int = DEFAULT_CAP) -> CubeComplex:
    """Unit truncation of tree space: the dual of the cluster pocset of
    ``_cluster_pocset``, where ``c+ <= d-`` (c present, d absent) whenever
    c and d are incompatible, walked from the origin, every cluster
    absent: the odd positions. A vertex is a compatible cluster set held
    at length 1; a k-cube frees k of them. Hyperplane i is the i-th
    cluster by name, so a vertex's present clusters joined in position
    order make its sorted name (``*`` for the origin). Each mask is
    ranked by its name in string order, which is ``skey`` order, for
    ``pocsets._dual_cells``, the assembler of every dual. More than
    ``cap`` vertices, the origin included, raise ``CapExceededError``."""
    if n < 3:
        raise InputFormatError("need n >= 3")
    if n > MAX_COMPLEX_N:
        raise CapExceededError(
            f"n = {n} exceeds the configured bound {MAX_COMPLEX_N}", cap=MAX_COMPLEX_N)
    s = _cluster_pocset(n)
    even = _evens(len(s.above))
    walk = _flip_walk(s, even << 1, cap)
    if walk is None:
        raise CapExceededError(f"compatible-set enumeration exceeds cap {cap}", cap=cap)
    order, rank, minimal_at = walk
    names_of = [present[:-1] for present, _ in s.star_pairs]
    names = ["|".join([names_of[p >> 1] for p in bits(m & even)]) or "*"
             for m in order]
    by_name = sorted(range(len(order)), key=names.__getitem__)
    rank.update((order[i], r) for r, i in enumerate(by_name))  # walk ids -> name ranks
    return _dual_cells(s, order, minimal_at, rank, tuple(map(names.__getitem__, by_name)))


# ---------------------------------------------------------------------------
# distances


@dataclass(frozen=True)
class DistanceResult:
    value: float
    exact: bool
    path: str  # "orthant" | "bent" | "cone"


def cone_distance(t1: PhyloTree, t2: PhyloTree) -> DistanceResult:
    """Distance between two trees.

    Compatible topologies share an orthant: exact Euclidean distance.
    Otherwise the path bends through the largest common face (which beats
    any smaller face and in particular the origin cone path), giving an
    upper bound on the geodesic; for n = 3 every such path is exact.
    """
    if t1.n != t2.n:
        raise LeafCountMismatchError(f"trees have {t1.n} and {t2.n} leaves")
    p, q = to_orthant(t1), to_orthant(t2)
    union = p.topology | q.topology
    if _hierarchy(sorted(union, key=_ckey)) is not None:
        value = math.sqrt(sum(
            (p.lengths.get(c, 0.0) - q.lengths.get(c, 0.0)) ** 2
            for c in union))
        return DistanceResult(value=value, exact=True, path="orthant")
    shared = p.topology & q.topology
    a = math.sqrt(sum(l * l for c, l in p.coords if c not in shared))
    b = math.sqrt(sum(l * l for c, l in q.coords if c not in shared))
    across = sum((p.lengths[c] - q.lengths[c]) ** 2 for c in shared)
    value = math.sqrt((a + b) ** 2 + across)
    exact = t1.n == 3
    return DistanceResult(value=value, exact=exact,
                          path="bent" if shared else "cone")
