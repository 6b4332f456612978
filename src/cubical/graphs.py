"""Plain-graph utilities: cliques, connected components, girth,
regularity.

``cliques`` and ``components`` are the general clique enumerator and the
one component finder of the package: the cubes of a dual complex, maximal
transversal families and the link of the BHV origin are clique
enumerations; hyperplanes, halfspaces and annuli are components. Both are
iterative, so deep or large inputs hit no recursion limit. The link
condition alone takes its cliques level by level on int bitmasks, in
``complexes``, so that the least empty simplex comes first.

There is no isomorphism search. ``girth`` and ``is_regular`` recognise
the one named graph, the Petersen graph (``treespace.petersen_checks``),
and the tests check each isomorphism they assert through its explicit map.
"""

from __future__ import annotations


def cliques(adj, order):
    """Yield every clique of the graph induced on ``order``, the empty one
    included, as a tuple listed in ``order``. Cliques come in
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
