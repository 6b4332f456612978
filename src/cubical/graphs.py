"""Plain-graph utilities: cliques, set bits, connected components,
girth, regularity.

``cliques`` and ``components`` are the one clique walk and the one
component finder of the package. The link condition, the link of the BHV
origin and the maximal transversal families are clique enumerations;
hyperplanes, halfspaces and annuli are components. Both are iterative, so
deep or large inputs hit no recursion limit. ``cliques`` works on int
bitmasks and lists the cliques by size, so the least empty simplex of a
link comes first. The cubes of a dual complex are cliques too, but
``pocsets._dual_cubes`` walks them itself, as it builds each cube's
corners from its parent family's.

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


def components(order, adj) -> list[list]:
    """Connected components of the graph induced on ``order``, in the order
    of their first vertex. Each component is listed in breadth-first order
    from that vertex, following each vertex's neighbours in ``adj`` order;
    neighbours outside ``order`` are ignored."""
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


def girth(adj: dict) -> int | None:
    """Length of a shortest cycle, None for forests."""
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


def is_regular(adj: dict, degree: int) -> bool:
    return all(len(ns) == degree for ns in adj.values())
