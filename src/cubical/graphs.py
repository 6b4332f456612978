"""Plain-graph utilities on positions 0..n-1: cliques, set bits,
breadth-first search, connected components, girth, regularity. A graph
is one entry per vertex: an int neighbour mask for ``cliques``, neighbour
positions for the rest; ids stay with the callers.

``cliques`` is the one clique walk of the package and ``bfs`` its one
breadth-first search over a given adjacency, both iterative, so deep or
large inputs hit no recursion limit. Links, the link of the BHV origin
and maximal transversal families are clique enumerations, by size, so the
least empty simplex of a link comes first. ``components`` (square
classes, halfspaces, annuli, connectedness), ``girth`` and the medians of
``complexes`` run ``bfs``. Walks that build or label their graph as they
go keep their own loop: the Roller row labelling of ``complexes``,
``pocsets._flip_walk``, ``coxeter.cayley_ball``, and the cube walk
``pocsets._dual_cubes``, which builds each cube's corners from its
parent family's.

There is no isomorphism search. ``girth`` and ``is_regular`` recognise
the one named graph, the Petersen graph (``treespace.petersen_checks``),
and the tests check each isomorphism they assert through its explicit map.
"""

from __future__ import annotations


def cliques(adj: list):
    """Yield every nonempty clique of the graph on 0..n-1 whose vertex i
    has the neighbour mask ``adj[i]``, as the bitmask of its vertices: by
    size, and in lexicographic order of the sorted vertices within a size.
    A clique grows by each later common neighbour, least first, and the
    cliques of one size are grown in their own order, so the next size
    comes out in order too."""
    level = [(1 << i, adj[i] >> (i + 1) << (i + 1)) for i in range(len(adj))]
    while level:
        longer = []
        for clique, cands in level:
            yield clique
            while cands:
                low = cands & -cands
                cands ^= low
                longer.append((clique | low, cands & adj[low.bit_length() - 1]))
        level = longer


def bits(mask: int):
    """The positions of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs(nbrs, root: int, dist: list | None = None) -> tuple[list[int], list[int]]:
    """Distances from ``root`` (-1 where unreachable) and the vertices
    reached, in breadth-first order. A given ``dist`` is filled in place,
    and its vertices at >= 0 count as reached already."""
    if dist is None:
        dist = [-1] * len(nbrs)
    dist[root] = 0
    order = [root]
    for v in order:  # order grows while it is read: a breadth-first queue
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist, order


def components(order, nbrs) -> list[list[int]]:
    """Connected components of the graph induced on ``order``, in the order
    of their first vertex, each in breadth-first order from it; neighbours
    outside ``order`` are ignored."""
    dist = [0] * len(nbrs)
    for v in order:
        dist[v] = -1
    return [bfs(nbrs, root, dist)[1] for root in order if dist[root] < 0]


def girth(nbrs) -> int | None:
    """Length of a shortest cycle, None for forests. From a root on one,
    an edge inside level d closes a cycle of 2d + 1, or a vertex at level d
    has two neighbours at level d - 1 and closes one of 2d. Each root's
    levels are read until 2d reaches the best; 3 ends the search."""
    best = None
    for root in range(len(nbrs)):
        dist, order = bfs(nbrs, root)
        for v in order:
            d = dist[v]
            if best is not None and 2 * d >= best:
                break
            if any(dist[w] == d for w in nbrs[v]):
                best = 2 * d + 1
            if sum(dist[w] == d - 1 for w in nbrs[v]) > 1:
                best = 2 * d
        if best == 3:
            return best
    return best


def is_regular(nbrs, degree: int) -> bool:
    return all(len(ns) == degree for ns in nbrs)
