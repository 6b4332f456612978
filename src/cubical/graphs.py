"""Plain-graph utilities: cliques, connected components, isomorphism
search, girth, regularity.

``cliques`` and ``components`` are the one clique enumerator and the one
component finder of the package: the link condition, the cubes of a dual
complex, maximal transversal families and the link of the BHV origin are
clique enumerations; hyperplanes, halfspaces and annuli are components.
Both are iterative, so deep or large inputs hit no recursion limit.

The isomorphism search is deliberately independent of any complex
construction so it can serve as an oracle for round-trip checks.
"""

from __future__ import annotations

from .util import ssorted


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


def degree_sequence(adj: dict) -> list[int]:
    return sorted(len(adj[v]) for v in adj)


def graph_isomorphisms(adj1: dict, adj2: dict):
    """Yield vertex bijections adj1 -> adj2 preserving adjacency both ways.
    Backtracking in BFS order with degree pruning."""
    if len(adj1) != len(adj2):
        return
    if degree_sequence(adj1) != degree_sequence(adj2):
        return
    nodes1 = ssorted(adj1)
    if not nodes1:
        yield {}
        return
    # BFS order keeps each new vertex adjacent to an already-mapped one
    sorted_adj1 = {v: ssorted(adj1[v]) for v in nodes1}
    order = [v for comp in components(nodes1, sorted_adj1) for v in comp]
    nodes2 = ssorted(adj2)

    def extend(i, mapping, used):
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        mapped_nbrs = [w for w in adj1[v] if w in mapping]
        for cand in nodes2:
            if cand in used or len(adj2[cand]) != len(adj1[v]):
                continue
            if any(mapping[w] not in adj2[cand] for w in mapped_nbrs):
                continue
            # image must not be adjacent to images of non-neighbors
            ok = True
            for w, img in mapping.items():
                if (img in adj2[cand]) != (w in adj1[v]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = cand
            used.add(cand)
            yield from extend(i + 1, mapping, used)
            del mapping[v]
            used.discard(cand)

    yield from extend(0, {}, set())


def graph_isomorphic(adj1: dict, adj2: dict) -> bool:
    return next(graph_isomorphisms(adj1, adj2), None) is not None


def complex_isomorphic(x, y, attempts: int = 10_000):
    """Cube-complex isomorphism: a 1-skeleton isomorphism that maps the cube
    set of x onto the cube set of y. Returns the mapping of vertex ids, or
    None."""
    from .complexes import canonical_cube

    if len(x.vertices) != len(y.vertices) or len(x.cubes) != len(y.cubes):
        return None
    if sorted(map(len, x.cubes)) != sorted(map(len, y.cubes)):
        return None
    tried = 0
    for phi in graph_isomorphisms(dict(enumerate(x.adjacency)),
                                  dict(enumerate(y.adjacency))):
        tried += 1
        image = {canonical_cube(tuple(phi[r] for r in c)) for c in x.cubes}
        if image == y.cubes:
            return {x.labels[r]: y.labels[phi[r]] for r in phi}
        if tried >= attempts:
            break
    return None


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
