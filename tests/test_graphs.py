"""The shared clique walk, bit iterator and component finder, against
brute force."""

from __future__ import annotations

import itertools
from collections import deque

from helpers import preorder_cliques
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical.graphs import bits, cliques, components


@st.composite
def graphs(draw):
    """A random graph on at most 10 vertices, as (vertex order, adjacency)."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    adj = {v: set() for v in order}
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[a].add(b)
            adj[b].add(a)
    return order, adj


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_cliques_match_all_subsets(graph):
    order, adj = graph
    # every vertex subset, by size and lexicographically within a size
    expected = [
        subset
        for size in range(1, len(order) + 1)
        for subset in itertools.combinations(range(len(order)), size)
        if all(b in adj[a] for a, b in itertools.combinations(subset, 2))
    ]
    found = list(cliques([sum(1 << w for w in adj[v]) for v in range(len(order))]))
    assert [tuple(bits(c)) for c in found] == expected
    assert found == [sum(1 << v for v in c) for c in expected]
    # the pre-order oracle: the same cliques and the empty one, as tuples
    # listed in ``order``, each once and before its extensions
    walked = list(preorder_cliques(adj, order))
    rank = {v: i for i, v in enumerate(order)}
    assert sorted(tuple(sorted(c)) for c in walked) == sorted([(), *expected])
    assert all(list(c) == sorted(c, key=rank.get) for c in walked)
    seen = set()
    for c in walked:
        assert c[:-1] in seen or not c
        seen.add(c)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_cliques_and_components_ignore_vertices_outside_order(graph, data):
    order, adj = graph
    sub = [v for v in order if data.draw(st.booleans())]
    inside = set(sub)
    assert all(set(c) <= inside for c in preorder_cliques(adj, sub))
    assert all(set(c) <= inside for c in components(sub, adj))


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_components_match_bfs(graph):
    order, adj = graph
    expected = []
    seen = set()
    for root in order:
        if root in seen:
            continue
        comp, queue = {root}, deque([root])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        expected.append(comp)
    found = components(order, adj)
    assert [set(c) for c in found] == expected
    rank = {v: i for i, v in enumerate(order)}
    assert all(c[0] == min(c, key=rank.get) for c in found)


def test_cliques_of_the_empty_graph():
    assert list(cliques([])) == []
    assert list(preorder_cliques({}, [])) == [()]
    assert list(bits(0)) == []
    assert components([], {}) == []
