"""The shared clique walk, bit iterator, breadth-first search, component
finder and girth, against brute force and the set- and dict-based
oracles."""

from __future__ import annotations

import itertools
from collections import deque

import pytest
from helpers import dict_girth, neighbour_lists, preorder_cliques, set_components
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical import graphs as graphs_module
from cubical.graphs import bfs, bits, cliques, components, girth, is_regular
from cubical.treespace import link_of_origin


@st.composite
def graphs(draw):
    """A random graph on at most 10 positions, as (vertex order, adjacency):
    each pair an edge with probability 1/2, 1/4, 1/8 or 1/16, so sparse
    graphs with long shortest cycles come up too."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    sparsity = draw(st.integers(0, 3))
    adj = [set() for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if all(draw(st.booleans()) for _ in range(sparsity + 1)):
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
    assert components([], []) == []
    assert girth([]) is None


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_bfs_girth_and_components_match_oracles(graph, data):
    order, adj = graph
    assert girth(adj) == dict_girth(dict(enumerate(adj)))
    sub = [v for v in order if data.draw(st.booleans())]
    assert components(order, adj) == set_components(order, adj)
    assert components(sub, adj) == set_components(sub, adj)
    for root in range(len(adj)):
        expected = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in expected:
                    expected[w] = expected[v] + 1
                    queue.append(w)
        dist, reached = bfs(adj, root)
        assert dist == [expected.get(v, -1) for v in range(len(adj))]
        assert sorted(reached) == sorted(expected)
        assert [dist[v] for v in reached] == sorted(expected.values())


def _cycle(k, start=0):
    return [(start + i, start + (i + 1) % k) for i in range(k)]


PETERSEN = [(a, b) for a, b in itertools.combinations(
    itertools.combinations(range(5), 2), 2) if not set(a) & set(b)]
PRISM = _cycle(5) + _cycle(5, 5) + [(i, 5 + i) for i in range(5)]
CUBE3 = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
K33 = [(a, b) for a in "abc" for b in "xyz"]


@pytest.mark.parametrize("edges, expected", [
    (PETERSEN, 5),
    (PRISM, 4),
    (CUBE3, 4),
    (K33, 4),
    (_cycle(5), 5),
    ([(0, 1), (1, 2), (2, 0), (2, 3)], 3),  # a triangle with a pendant edge
    ([(0, 1), (1, 2), (1, 3), (4, 5), (6, 7), (6, 8)], None),  # a forest
    # the pentagon's roots come first and find 5; a square's root must then
    # read its level 2, where 2d = 4 is below 5 though 2d + 1 is not
    (_cycle(5) + _cycle(4, 5), 4),
], ids=["petersen", "prism", "cube3", "k33", "c5", "triangle_pendant", "forest",
        "c5_then_c4"])
def test_girth_of_named_graphs(edges, expected):
    nbrs = neighbour_lists(edges)
    assert girth(nbrs) == expected
    assert dict_girth(dict(enumerate(nbrs))) == expected
    assert is_regular(nbrs, 3) == (edges in (PETERSEN, PRISM, CUBE3, K33))


def test_girth_of_the_n8_link_is_one_search(monkeypatch):
    link = link_of_origin(8)
    nbrs = [list(bits(m)) for m in link.neighbours]
    calls = []

    def counted(*args):
        calls.append(args[1])
        return bfs(*args)

    monkeypatch.setattr(graphs_module, "bfs", counted)
    assert girth(nbrs) == 3
    assert calls == [0]
