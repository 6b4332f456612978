"""BHV tree space: validation, orthants, enumeration, the origin link,
the truncated complex, and cone distances."""

from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc

import pytest
from helpers import (
    SetSimplicialComplex,
    assert_link_is_petersen,
    cluster_system,
    corner_treespace_complex,
    frozenset_topologies,
    leaf_sets,
    named,
    named_treespace_complex,
    neighbour_lists,
    pairwise_from_orthant,
    pairwise_make_orthant,
    preorder_cliques,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical import (
    cone_distance,
    count_binary,
    enumerate_topologies,
    from_orthant,
    is_cat0,
    is_locally_cat0,
    link_of_origin,
    make_orthant,
    to_orthant,
    treespace_complex,
    validate_tree,
)
from cubical.complexes import SimplicialComplex, dump_complex, is_flag, vertex_link
from cubical.errors import (
    BadRootValencyError,
    CapExceededError,
    CyclicError,
    IncompatibleClustersError,
    InteriorValencyTwoError,
    LeafCountMismatchError,
    NonPositiveLengthError,
    UnlabeledLeafError,
)
from cubical.graphs import bits, girth, is_regular
from cubical.pocsets import _chosen, _evens, _validated, is_vertex
from cubical.treespace import (
    Orthant,
    _ckey,
    _cluster_pocset,
    all_clusters,
    compatible,
    dump_orthant,
    dump_tree,
    load_orthant,
    petersen_checks,
)


def tree_json(n, edges, leaf_labels, root="r", nodes=None):
    if nodes is None:
        nodes = sorted({root} | {e[0] for e in edges} | {e[1] for e in edges},
                       key=str)
    return {"n": n, "root": root, "nodes": nodes, "edges": edges,
            "leaf_labels": leaf_labels}


def caterpillar4(a=1.0, b=1.0):
    """((1,2),3),4 with clusters {1,2} and {1,2,3}."""
    edges = [["r", "u", b], ["u", "v", a], ["v", "l1", 0], ["v", "l2", 0],
             ["u", "l3", 0], ["r", "l4", 0]]
    return tree_json(4, edges, {"l1": 1, "l2": 2, "l3": 3, "l4": 4})


# ---------------------------------------------------------------------------
# validation


def test_cherry_is_valid():
    t = validate_tree(tree_json(2, [["r", "a", 0], ["r", "b", 0]],
                                {"a": 1, "b": 2}))
    assert t.n == 2
    assert to_orthant(t).topology == frozenset()


def test_caterpillar_clusters():
    t = validate_tree(caterpillar4(a=0.5, b=1.25))
    o = to_orthant(t)
    assert o.lengths == {frozenset({1, 2}): 0.5, frozenset({1, 2, 3}): 1.25}


def test_star_tree_is_origin():
    t = validate_tree(tree_json(
        4, [["r", f"l{i}", 1.0] for i in range(1, 5)],
        {f"l{i}": i for i in range(1, 5)}))
    assert to_orthant(t).topology == frozenset()
    assert t.notes  # leaf lengths ignored with a note


def test_same_tree_two_drawings():
    # identical metric labeled trees given with different node names and
    # different edge orders canonicalize to the same orthant
    one = validate_tree(caterpillar4(a=2.0, b=3.0))
    edges = [["root", "x4", 0], ["root", "w", 3.0], ["w", "x3", 0],
             ["w", "z", 2.0], ["z", "x2", 0], ["z", "x1", 0]]
    other = validate_tree(tree_json(4, edges,
                                    {"x1": 1, "x2": 2, "x3": 3, "x4": 4},
                                    root="root"))
    assert to_orthant(one) == to_orthant(other)


def test_zero_length_edges_collapse():
    data = caterpillar4(a=0.0, b=1.0)
    t = validate_tree(data)
    assert to_orthant(t).topology == {frozenset({1, 2, 3})}


def test_interior_valency_two_rejected():
    edges = [["r", "a", 1], ["a", "b", 1], ["b", "l1", 0], ["b", "l2", 0],
             ["r", "l3", 0]]
    with pytest.raises(InteriorValencyTwoError):
        validate_tree(tree_json(3, edges, {"l1": 1, "l2": 2, "l3": 3}))


def test_bad_root_valency_rejected():
    edges = [["r", "a", 1], ["a", "l1", 0], ["a", "l2", 0]]
    with pytest.raises(BadRootValencyError):
        validate_tree(tree_json(2, edges, {"l1": 1, "l2": 2}))


def test_negative_length_rejected():
    with pytest.raises(NonPositiveLengthError):
        validate_tree(caterpillar4(a=-1.0))


def test_unlabeled_leaf_rejected():
    edges = [["r", "a", 0], ["r", "b", 0]]
    with pytest.raises(UnlabeledLeafError):
        validate_tree(tree_json(2, edges, {"a": 1}))


def test_cycle_rejected():
    edges = [["r", "a", 1], ["a", "b", 1], ["b", "a", 1], ["r", "c", 0]]
    with pytest.raises(CyclicError):
        validate_tree(tree_json(2, edges, {"b": 1, "c": 2},
                                nodes=["r", "a", "b", "c"]))


# ---------------------------------------------------------------------------
# orthants


def test_orthant_round_trip_all_binary_4():
    rng = random.Random(3)
    for topology in map(leaf_sets, enumerate_topologies(4)):
        coords = {c: rng.uniform(0.1, 2.0) for c in topology}
        o = make_orthant(4, coords)
        assert to_orthant(from_orthant(o)) == o


def test_from_orthant_rejects_incompatible():
    with pytest.raises(IncompatibleClustersError):
        make_orthant(4, {frozenset({1, 2}): 1.0, frozenset({2, 3}): 1.0})


@st.composite
def cluster_families(draw):
    """(n, coords): the clusters of a random hierarchy on leaves 1..n, plus
    0-2 random leaf sets that may overlap them improperly."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 12))
    nodes = [frozenset({i}) for i in range(1, n + 1)]
    clusters = set()
    for _ in range(draw(st.integers(0, n - 1))):
        if len(nodes) < 2:
            break
        merged = rng.sample(nodes, rng.randint(2, len(nodes)))
        nodes = [c for c in nodes if c not in merged] + [frozenset().union(*merged)]
        clusters.add(nodes[-1])
    for _ in range(draw(st.integers(0, 2))):
        clusters.add(frozenset(rng.sample(range(1, n + 1), rng.randint(2, n - 1))))
    clusters = [c for c in clusters if len(c) < n]
    return n, {c: draw(st.sampled_from([1.0, 0.5, 2.25])) for c in clusters}


@settings(max_examples=200, deadline=None)
@given(cluster_families())
def test_make_orthant_matches_pairwise_scan(family):
    n, coords = family
    try:
        expected = pairwise_make_orthant(n, coords)
    except IncompatibleClustersError as exc:
        with pytest.raises(IncompatibleClustersError) as info:
            make_orthant(n, coords)
        assert (info.value.message, info.value.details) == (exc.message, exc.details)
    else:
        assert make_orthant(n, coords) == expected


@settings(max_examples=200, deadline=None)
@given(cluster_families())
def test_from_orthant_matches_pairwise_scan(family):
    # built directly, so incompatible families reach from_orthant too
    n, coords = family
    o = Orthant(n=n, coords=tuple(sorted(coords.items(), key=lambda cl: _ckey(cl[0]))))
    try:
        expected = pairwise_from_orthant(o)
    except IncompatibleClustersError as exc:
        with pytest.raises(IncompatibleClustersError) as info:
            from_orthant(o)
        assert info.value.message == exc.message
    else:
        t = from_orthant(o)
        assert (t.root, t.children, t.leaf_label, t.lengths) == (
            expected.root, expected.children, expected.leaf_label, expected.lengths)


def test_orthant_json_round_trip():
    o = make_orthant(4, {frozenset({1, 2}): 0.5, frozenset({1, 2, 3}): 1.25})
    assert load_orthant(dump_orthant(o)) == o


def test_tree_json_round_trip():
    t = validate_tree(caterpillar4(a=0.5, b=1.25))
    again = validate_tree(dump_tree(t))
    assert to_orthant(again) == to_orthant(t)


def test_interior_edge_bound():
    for topology in map(leaf_sets, enumerate_topologies(5)):
        assert len(topology) == 3  # n - 2, binary
    o = make_orthant(5, {frozenset({1, 2}): 1.0})
    t = from_orthant(o)
    assert len(to_orthant(t).topology) == 1  # non-binary face


# ---------------------------------------------------------------------------
# counting and enumeration


def test_schroeder_counts():
    assert [count_binary(n) for n in range(2, 8)] == [1, 3, 15, 105, 945, 10395]


@pytest.mark.parametrize("n", range(2, 8))
def test_enumeration_matches_formula(n):
    # on masks compatible(a, b) would hold vacuously, as ints always
    # compare with <=; the leaf sets are what it tests. Each topology is
    # the tuple of its masks in increasing order.
    masks = enumerate_topologies(n)
    assert all(type(t) is tuple and list(t) == sorted(set(t)) for t in masks)
    tops = list(map(leaf_sets, masks))
    assert len(tops) == count_binary(n)
    assert len(set(tops)) == len(tops)
    for t in tops:
        assert len(t) == max(n - 2, 0)
        for c in t:
            assert 2 <= len(c) <= n - 1 and c <= set(range(1, n + 1))
        for a, b in itertools.combinations(t, 2):
            assert compatible(a, b)


@pytest.mark.parametrize("n", range(2, 8))
def test_enumeration_matches_frozenset_oracle(n):
    assert set(map(leaf_sets, enumerate_topologies(n))) == set(frozenset_topologies(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_cap_matches_frozenset_oracle(n):
    levels = [count_binary(k) for k in range(2, n + 1)]
    for cap in sorted({0, *levels, *(c - 1 for c in levels), levels[-1] + 1}):
        try:
            expected = len(frozenset_topologies(n, cap))
        except CapExceededError as exc:
            with pytest.raises(CapExceededError) as info:
                enumerate_topologies(n, cap)
            assert (info.value.message, info.value.details) == (exc.message, exc.details)
        else:
            assert len(enumerate_topologies(n, cap)) == expected


def test_enumeration_past_its_cap_allocates_no_level():
    # the default cap, 100,000, that of tree enumerate too, lies between
    # level 7 (10,395 topologies) and level 8 (135,135): level 8 is sized,
    # not built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as info:
            enumerate_topologies(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.message == "topology enumeration exceeds cap 100000"
    # level 7 alone takes a few MB; level 8 would take thirteen times more
    assert peak < 2 * sum(map(sys.getsizeof, enumerate_topologies(7)))


# ---------------------------------------------------------------------------
# the origin link


def test_link_n3_is_three_points():
    link = link_of_origin(3)
    assert len(link.vertices) == 3
    assert not link.edges


def test_link_n4_is_petersen():
    link = link_of_origin(4)
    nbrs = [list(bits(m)) for m in link.neighbours]
    assert len(link.vertices) == 10
    assert len(link.edges) == 15
    assert is_regular(nbrs, 3)
    assert girth(nbrs) == 5
    assert_link_is_petersen(link)
    # maximal simplices have size n - 2 = 2
    assert max(len(s) for s in link.simplices) == 2


def test_petersen_checks_need_ten_vertices_and_girth_five():
    link = link_of_origin(4)
    assert all(petersen_checks([list(bits(m)) for m in link.neighbours]).values())
    prism = neighbour_lists([(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                            + [(i, 5 + i) for i in range(5)])
    cube3 = neighbour_lists([(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)])
    k33 = neighbour_lists([(a, b) for a in "abc" for b in "xyz"])
    for adj in (prism, cube3, k33):
        checks = petersen_checks(adj)
        assert checks["three_regular"] and not checks["girth_five"]
        assert not checks["isomorphic_to_petersen"]
    # the pentagonal prism passes every other check
    assert petersen_checks(prism) == {
        "vertices": True, "edges": True, "three_regular": True,
        "girth_five": False, "isomorphic_to_petersen": False}


def test_link_n5_simplices_reach_dimension():
    link = link_of_origin(5)
    assert max(len(s) for s in link.simplices) == 3
    assert len([s for s in link.simplices if len(s) == 3]) == count_binary(5)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_link_of_origin_matches_frozenset_cliques(n):
    # the frozenset construction: every clique of the compatibility graph
    # on the cluster names, from the pre-order oracle walk
    names = {c: ".".join(map(str, sorted(c))) for c in all_clusters(n)}
    adj = {names[c]: {names[d] for d in names if d != c and compatible(c, d)}
           for c in names}
    expected = SetSimplicialComplex(
        vertices=frozenset(adj),
        simplices=frozenset(frozenset(s) for s in preorder_cliques(adj, sorted(adj)) if s))
    link = link_of_origin(n)
    assert link.labels == tuple(sorted(adj))
    assert link.simplices == expected.simplices
    assert link.edges == expected.edges
    assert link.adjacency == expected.adjacency
    assert link.counts() == expected.counts()
    # the neighbour masks handed over are those the masks give
    assert link.neighbours == SimplicialComplex(link.labels, link.masks).neighbours
    assert is_flag(link).ok


# ---------------------------------------------------------------------------
# the truncated complex


def test_treespace_3_is_tripod():
    x = treespace_complex(3)
    assert len(x.vertices) == 4
    assert len(x.edges) == 3
    assert x.dim == 1
    assert is_cat0(x).ok


def test_treespace_4_counts():
    x = treespace_complex(4)
    assert len(x.vertices) == 26  # origin + 10 clusters + 15 binary sets
    assert len(x.squares) == 15
    origin_edges = [e for e in named(x).edges if "*" in e]
    assert len(origin_edges) == 10
    assert is_locally_cat0(x).ok
    assert is_cat0(x).ok


def test_treespace_5_is_cat0():
    x = treespace_complex(5)
    assert len(x.by_dim[3]) == count_binary(5)
    assert is_cat0(x).ok


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_treespace_complex_matches_corner_oracle(n):
    # the dual of the cluster pocset against the direct listing of every
    # (frozen, free) pair of compatible cluster sets
    x, y = treespace_complex(n), corner_treespace_complex(n)
    assert x.labels == y.labels
    assert x.cubes == y.cubes
    assert x.maximal == y.maximal
    assert dump_complex(x) == dump_complex(y)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_treespace_complex_matches_named_listing_oracle(monkeypatch, n):
    # the walk's masks ranked by their names against the same walk's cubes
    # named corner by corner and validated as a listing by build_complex,
    # which tree space itself never calls
    import cubical.complexes

    def refuse(*args):
        raise AssertionError("build_complex called")

    monkeypatch.setattr(cubical.complexes, "build_complex", refuse)
    x = treespace_complex(n)
    monkeypatch.undo()
    y = named_treespace_complex(n)
    assert x == y
    assert x.by_dim == y.by_dim


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_treespace_origin_is_a_vertex(n):
    # the walk starts at the odd positions, every cluster absent, with no
    # vertex check of its own
    s, origin = cluster_system(n)
    assert _chosen(s, origin) == _evens(len(s.above)) << 1
    assert is_vertex(s, origin).ok


@pytest.mark.parametrize("n", range(3, 9))
def test_cluster_pocset_matches_build_system(n):
    # written directly from the compatibility table, against the closure
    # that build_system makes of the leq pairs: the same hyperplanes, order
    # and covers, and every check of an input file passes
    s, expected = _cluster_pocset(n), cluster_system(n)[0]
    assert s.star_pairs == expected.star_pairs
    assert s.above == expected.above
    assert s.covers == expected.covers == s.above
    assert _validated(s, s.labels) is s


# Schroeder's fourth problem (OEIS A000311): the compatible cluster sets,
# the empty one included
COMPATIBLE_SETS = {3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208, 8: 660032}


@pytest.mark.parametrize("n", range(3, 9))
def test_link_of_origin_is_the_transversality_of_the_cluster_pocset(n):
    # two clusters are compatible iff their hyperplanes are transversal in
    # the cluster pocset that build_system makes, so that pocset gives the
    # link's vertices in order and its edges; its simplices are the
    # nonempty compatible sets
    s = cluster_system(n)[0]
    link = link_of_origin(n)
    assert link.labels == tuple(present[:-1] for present, _ in s.star_pairs)
    assert link.neighbours == tuple(sum(1 << (p >> 1) for p in bits(m))
                                    for m in s.transversal_masks)
    assert len(link.masks) == COMPATIBLE_SETS[n] - 1


@pytest.mark.parametrize("n", [4, 5])
def test_treespace_vertex_names_are_sorted_joins(n):
    clusters = {".".join(map(str, sorted(c))): c for c in all_clusters(n)}
    for name in treespace_complex(n).labels:
        parts = [] if name == "*" else name.split("|")
        assert parts == sorted(parts) and len(set(parts)) == len(parts)
        assert all(compatible(clusters[a], clusters[b])
                   for a, b in itertools.combinations(parts, 2))


@pytest.mark.parametrize("n, vertices", [(3, 4), (4, 26), (5, 236), (6, 2752)])
def test_treespace_cap_matches_corner_oracle(n, vertices):
    # the walk counts vertices and the oracles count compatible sets or
    # walked vertices, each with the origin, and all raise once the count
    # passes the cap
    for cap in (-1, 0, 1, vertices - 2, vertices - 1, vertices, vertices + 1):
        outcomes = []
        for build in (treespace_complex, corner_treespace_complex, named_treespace_complex):
            try:
                outcomes.append(dump_complex(build(n, cap)))
            except CapExceededError as e:
                outcomes.append(e.certificate())
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert ("error" in outcomes[0]) == (cap < vertices)


@pytest.mark.parametrize("n", [4, 5])
def test_link_of_origin_is_vertex_link_at_origin(n):
    # link vertex (*, c) is the cluster c: the vertex named c sits at
    # length 1 on c's axis, one edge from the origin
    x = treespace_complex(n)
    origin = x.vertex_index["*"]
    link = vertex_link(x, "*")
    assert all(origin in e for e in link.vertices)
    cluster = {e: x.labels[e[0] if e[1] == origin else e[1]] for e in link.vertices}
    expected = link_of_origin(n)
    assert len(set(cluster.values())) == len(cluster)
    assert set(cluster.values()) == expected.vertices
    assert {frozenset(map(cluster.__getitem__, s)) for s in link.simplices} \
        == expected.simplices


# ---------------------------------------------------------------------------
# distances


def test_same_topology_distance():
    t1 = validate_tree(caterpillar4(a=1.0, b=2.0))
    t2 = validate_tree(caterpillar4(a=4.0, b=6.0))
    res = cone_distance(t1, t2)
    assert res.exact
    assert res.value == pytest.approx(5.0)  # sqrt(9 + 16)


def test_tripod_distance_between_rays():
    def ray(cluster, length):
        return from_orthant(make_orthant(3, {frozenset(cluster): length}))

    t1 = ray({1, 2}, 2.0)
    t2 = ray({1, 3}, 1.5)
    res = cone_distance(t1, t2)
    assert res.exact
    assert res.value == pytest.approx(3.5)  # through the origin
    res = cone_distance(t1, ray({1, 2}, 0.5))
    assert res.exact and res.value == pytest.approx(1.5)


def test_incompatible_topologies_upper_bound():
    t1 = from_orthant(make_orthant(
        4, {frozenset({1, 2}): 3.0, frozenset({1, 2, 3}): 4.0}))
    t2 = from_orthant(make_orthant(
        4, {frozenset({1, 3}): 1.0, frozenset({1, 3, 4}): 1.0}))
    res = cone_distance(t1, t2)
    assert not res.exact
    assert res.path == "cone"
    assert res.value == pytest.approx(5.0 + math.sqrt(2.0))


def test_shared_face_beats_cone_path():
    t1 = from_orthant(make_orthant(
        4, {frozenset({1, 2}): 1.0, frozenset({1, 2, 3}): 2.0}))
    t2 = from_orthant(make_orthant(
        4, {frozenset({1, 2}): 1.0, frozenset({1, 2, 4}): 2.0}))
    res = cone_distance(t1, t2)
    assert res.path == "bent"
    cone = to_orthant(t1).norm() + to_orthant(t2).norm()
    assert res.value <= cone
    assert res.value == pytest.approx(4.0)  # unfolds to a straight segment


def test_leaf_count_mismatch():
    t3 = from_orthant(make_orthant(3, {frozenset({1, 2}): 1.0}))
    t4 = from_orthant(make_orthant(4, {frozenset({1, 2}): 1.0}))
    with pytest.raises(LeafCountMismatchError):
        cone_distance(t3, t4)


def test_upper_bound_dominates_exact_on_shared_topologies():
    rng = random.Random(9)
    for topology in map(leaf_sets, enumerate_topologies(4)[:6]):
        p = make_orthant(4, {c: rng.uniform(0.5, 2) for c in topology})
        q = make_orthant(4, {c: rng.uniform(0.5, 2) for c in topology})
        exact = cone_distance(from_orthant(p), from_orthant(q))
        cone = p.norm() + q.norm()
        assert exact.exact
        assert exact.value <= cone + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_metric_axioms_sampled(data):
    topology = min(map(leaf_sets, enumerate_topologies(4)),
                   key=lambda t: sorted(sorted(c) for c in t))
    lengths = st.floats(0.1, 5.0, allow_nan=False)
    coords = {c: data.draw(lengths) for c in topology}
    coords2 = {c: data.draw(lengths) for c in topology}
    coords3 = {c: data.draw(lengths) for c in topology}
    trees = [from_orthant(make_orthant(4, c)) for c in (coords, coords2, coords3)]
    d12 = cone_distance(trees[0], trees[1]).value
    d21 = cone_distance(trees[1], trees[0]).value
    assert d12 == pytest.approx(d21)
    d13 = cone_distance(trees[0], trees[2]).value
    d23 = cone_distance(trees[1], trees[2]).value
    assert d13 <= d12 + d23 + 1e-9
    assert cone_distance(trees[0], trees[0]).value == 0.0


def test_tripod_triangle_inequality_exhaustive():
    pts = [(c, l) for c in ({1, 2}, {1, 3}, {2, 3}) for l in (0.5, 1.0, 2.0)]
    trees = [from_orthant(make_orthant(3, {frozenset(c): l})) for c, l in pts]
    for a, b, c in itertools.product(trees, repeat=3):
        dab = cone_distance(a, b).value
        dbc = cone_distance(b, c).value
        dac = cone_distance(a, c).value
        assert dac <= dab + dbc + 1e-12


def test_treespace_bound_enforced():
    from cubical.errors import CapExceededError

    with pytest.raises(CapExceededError):
        treespace_complex(7)
    with pytest.raises(CapExceededError):
        treespace_complex(5, cap=10)


def test_binary_trees_have_binary_valencies():
    # |clusters| = n - 2 exactly when the root has 2 children and every
    # other interior node has 2 children (valency 3)
    for topology in map(leaf_sets, enumerate_topologies(5)):
        t = from_orthant(make_orthant(5, {c: 1.0 for c in topology}))
        assert len(t.children[t.root]) == 2
        for node, kids in t.children.items():
            if kids and node != t.root:
                assert len(kids) == 2
    partial = from_orthant(make_orthant(5, {frozenset({1, 2}): 1.0}))
    assert len(to_orthant(partial).topology) < 3
    assert len(partial.children[partial.root]) > 2
