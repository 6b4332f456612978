"""Cube complexes: validation, links, flag tests, medians, hyperplanes."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (
    _majority_miss,
    all_faces,
    all_pairs_unfilled_square,
    bfs_distances,
    cat0_corpus,
    component_roller_halfspaces,
    crossed_cube_sets,
    cube_boundary_3,
    cube_double_cover,
    dense_median_violation,
    distance_matrix,
    folded_cube,
    frozenset_halfspace_system_of,
    glue_cube_boundary,
    glue_hexagon,
    grid_complex,
    hollow_square,
    label_build_complex,
    label_median_violation,
    leq,
    lexmin_cube,
    matrix_median,
    named,
    ordered_is_cat0,
    pairwise_double_gluing,
    path_complex,
    relabel,
    scan_hyperplanes_cross,
    scan_is_locally_cat0,
    scan_vertex_link,
    set_build_simplicial,
    skey_canonical_cube,
    sorted_is_flag,
    star_complex,
    swapped_torus,
    symmetry_maps,
    system_of_sides,
    torus,
    torus_3x3,
    tree_complex,
    tree_product,
    union_find_square_classes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical import complexes, pocsets
from cubical import (
    build_complex,
    halfspace_system_of,
    halfspaces_of,
    helly_check,
    hyperplanes,
    hyperplanes_cross,
    is_cat0,
    is_flag,
    is_locally_cat0,
    median,
    vertex_link,
)
from cubical.complexes import (
    Cat0Result,
    CubeComplex,
    LocalCat0Result,
    SimplicialComplex,
    _complex_of_ranks,
    _first_bad_triple,
    _least_empty_simplex,
    _median_violation,
    _roller_halfspaces,
    _unfilled_square,
    build_simplicial,
    canonical_cube,
    cube_dim,
    cube_faces,
    dump_complex,
    load_complex,
)
from cubical.errors import (
    CapExceededError,
    CubicalError,
    DoubleGluingError,
    DuplicateCubeError,
    MissingFaceError,
    MultipleMediansError,
    NoMedianError,
    NotCat0Error,
    SelfGluingError,
    UnknownVertexError,
)
from cubical.graphs import bfs
from cubical.treespace import treespace_complex
from cubical.util import skey, ssorted


# ---------------------------------------------------------------------------
# canonical cubes


@st.composite
def cube_corner_tuples(draw):
    """Distinct corner ids of a 1- to 5-cube: all int, all str, or mixed."""
    dim = draw(st.integers(1, 5))
    ints = st.integers(-50, 50)
    strs = st.text("abcxyz", min_size=0, max_size=3)
    ids = draw(st.sampled_from([ints, strs, ints | strs]))
    return tuple(draw(st.lists(ids, min_size=1 << dim, max_size=1 << dim,
                               unique=True)))


@settings(max_examples=150, deadline=None)
@given(cube_corner_tuples())
def test_canonical_cube_matches_symmetry_search(corners):
    # on ranks in skey order the int form names the cube the skey form does
    labels = ssorted(corners)
    rank = {v: r for r, v in enumerate(labels)}
    ranked = tuple(rank[v] for v in corners)
    assert canonical_cube(ranked) == lexmin_cube(ranked)
    assert tuple(labels[r] for r in canonical_cube(ranked)) == lexmin_cube(corners)
    assert skey_canonical_cube(corners) == lexmin_cube(corners)


@pytest.mark.parametrize("ranks", [(0, 1), (7, 3), (0, 1, 2, 3), (3, 9, 4, 17),
                                   (40, 2, 11, 5), (8, 6, 7, 5)])
def test_closed_form_edges_and_squares_match_symmetry_search(ranks):
    # every order of the corners, symmetric or not
    for corners in itertools.permutations(ranks):
        assert canonical_cube(corners) == lexmin_cube(corners)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_origin_faces_of_a_canonical_cube_are_canonical(dim, rng):
    # build_complex canonicalizes only the faces off the origin (eps = 1)
    c = canonical_cube(tuple(rng.sample(range(200), 1 << dim)))
    sides = itertools.product(range(dim), (0, 1))
    for (_, eps), f in zip(sides, cube_faces(c)):
        if eps == 0:
            assert canonical_cube(f) == f
    # while a face off the origin may need it
    assert [canonical_cube(f) == f for f in cube_faces((0, 2, 3, 1))] == [
        True, False, True, False]


# ---------------------------------------------------------------------------
# building and validation


def test_single_square_builds():
    x = build_complex(
        "abcd", {1: [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")],
                 2: [("a", "b", "c", "d")]})
    assert len(x.vertices) == 4
    assert len(x.squares) == 1


def test_by_dim_is_the_listed_cubes_by_dimension():
    # an empty dimension lists nothing, as if it were left out
    x = build_complex("ab", {1: [("a", "b")], 2: []})
    assert x.by_dim == {1: frozenset({(0, 1)})}
    assert x.counts() == {"vertices": 2, "cubes": {"1": 1}, "euler_characteristic": 1}
    for y in (torus_3x3(), build_complex("abcd", {
            1: [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")], 2: [("a", "b", "c", "d")]})):
        bucketed = {}
        for c in y.cubes:
            bucketed.setdefault(cube_dim(c), set()).add(c)
        assert y.by_dim == bucketed


def test_cells_are_stored_once():
    for x in [x for _, x in cat0_corpus()] + [torus(3, 3), treespace_complex(4)]:
        assert x.cubes == frozenset().union(*x.by_dim.values())
    # the builder's frozensets become the complex's cells, uncopied
    listed = {1: frozenset({(0, 1), (1, 2)}), 2: frozenset()}
    x = _complex_of_ranks(("a", "b", "c"), listed)
    assert x.by_dim == {1: listed[1]} and x.by_dim[1] is listed[1]
    # no step of the verdict or the counts builds the union
    box = grid_complex(3, 3)
    assert is_cat0(box).ok
    box.counts()
    assert "cubes" not in vars(box)
    assert hash(box) == hash(grid_complex(3, 3))  # the dict of cells is not hashed


def test_torus_counts():
    x = torus_3x3()
    assert len(x.vertices) == 9
    assert len(x.edges) == 18
    assert len(x.squares) == 9
    assert x.euler_characteristic() == 0


def test_self_gluing_rejected():
    with pytest.raises(SelfGluingError):
        build_complex(["a"], {1: [("a", "a")]})


def test_missing_face_rejected():
    with pytest.raises(MissingFaceError):
        build_complex("abcd", {1: [("a", "b"), ("c", "d"), ("a", "c")],
                               2: [("a", "b", "c", "d")]})


def test_duplicate_cube_rejected():
    with pytest.raises(DuplicateCubeError):
        build_complex("ab", {1: [("a", "b"), ("b", "a")]})


def test_double_gluing_rejected():
    # 2x2 torus: adjacent squares share two opposite edges
    vertices = [(i, j) for i in range(2) for j in range(2)]
    edges, squares = set(), []
    for i in range(2):
        for j in range(2):
            edges.add(skey_canonical_cube(((i, j), ((i + 1) % 2, j))))
            edges.add(skey_canonical_cube(((i, j), (i, (j + 1) % 2))))
            squares.append(((i, j), ((i + 1) % 2, j),
                            (i, (j + 1) % 2), ((i + 1) % 2, (j + 1) % 2)))
    with pytest.raises((DoubleGluingError, DuplicateCubeError, SelfGluingError)):
        build_complex(vertices, {1: sorted(edges), 2: squares})


def test_diagonal_edge_rejected():
    with pytest.raises(DoubleGluingError):
        build_complex(
            "abcd", {1: [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d"),
                         ("a", "d")],
                     2: [("a", "b", "c", "d")]})


def test_unknown_corner_rejected():
    with pytest.raises(UnknownVertexError):
        build_complex(["a"], {1: [("a", "b")]})


# added vertices per defect: none, an extra diagonal edge, a second square
# on the corners of one, a square on two opposite corners of one, a 3-cube
# on two edges as its opposite edges
_DEFECTS = {None: 0, "diagonal": 0, "twin": 0, "opposite": 2, "cube": 4}


@st.composite
def glued_complexes(draw):
    """(vertices, cubes) with every face of every cube listed, on at most 9
    vertices: a random subcomplex of a product of trees, and in half of the
    cases one injected defect that may glue two cubes wrongly. Ids are int,
    str or mixed."""
    rng = draw(st.randoms(use_true_random=False))
    defect = draw(st.sampled_from([None] * 4 + list(_DEFECTS)[1:]))
    room = 9 - _DEFECTS[defect]
    shapes = [s for k in (1, 2, 3) for s in itertools.product(range(2, 10), repeat=k)
              if math.prod(s) <= room and (k > 1 or defect in (None, "cube"))]
    sizes = draw(st.sampled_from(shapes))
    x = named(tree_product(*[[(rng.randrange(i), i) for i in range(1, s)] for s in sizes]))
    tops = [c for c in x.cubes if rng.random() < 0.5]
    new_cubes = []
    if defect in ("diagonal", "twin", "opposite"):
        c = rng.choice(sorted(x.by_dim.get(2, ()) if defect != "diagonal"
                              else [c for c in x.cubes if cube_dim(c) >= 2]))
        tops.append(c)
        if defect == "diagonal":
            p, q = rng.choice([(p, q) for p, q in itertools.combinations(range(len(c)), 2)
                               if bin(p ^ q).count("1") >= 2])
            new_cubes.append((c[p], c[q]))
        elif defect == "twin":
            new_cubes.append((c[0], c[1], c[3], c[2]))
        else:
            new_cubes.append((c[0], ("new", 1), ("new", 2), c[3]))
    elif defect == "cube":
        pairs = [(e, f) for e, f in itertools.combinations(sorted(x.edges), 2)
                 if not set(e) & set(f)]
        if pairs:
            e, f = rng.choice(pairs)
            f = f if rng.random() < 0.5 else f[::-1]
            tops += [e, f]
            new_cubes.append((e[0], e[1]) + tuple(("new", i) for i in range(4)) + f)
    cubes = {face for c in tops + new_cubes for face in all_faces(c).values()
             if len(face) > 1}
    vertices = set(x.vertices) | {v for c in cubes for v in c}
    name = draw(st.sampled_from([lambda i: i, lambda i: f"v{i}",
                                 lambda i: i if i % 2 else f"v{i}"]))
    rename = {v: name(i) for i, v in enumerate(rng.sample(ssorted(vertices), len(vertices)))}
    return ([rename[v] for v in vertices],
            {skey_canonical_cube(tuple(rename[v] for v in c)) for c in cubes})


@settings(max_examples=300, deadline=None)
@given(glued_complexes())
def test_double_gluing_matches_pairwise_oracle(case):
    vertices, cubes = case
    by_dim: dict = {}
    for c in cubes:
        by_dim.setdefault(cube_dim(c), []).append(c)
    try:
        pairwise_double_gluing(cubes)
    except DoubleGluingError:
        with pytest.raises(DoubleGluingError) as info:
            build_complex(vertices, by_dim)
        a, b = info.value.details["cube_a"], info.value.details["cube_b"]
        assert a != b and a in cubes and b in cubes
        shared = frozenset(a) & frozenset(b)
        assert info.value.details["shared"] == ssorted(shared)
        face_a, face_b = all_faces(a).get(shared), all_faces(b).get(shared)
        assert face_a is None or face_b is None or face_a != face_b
    else:
        assert named(build_complex(vertices, by_dim)).cubes == cubes


def test_double_gluing_witness_is_first_repeated_diagonal():
    # an edge across a square face of a 3-cube shares its ends with the
    # square and the cube; the edge comes first, then the square
    solid = named(grid_complex(1, 1, 1))
    corner = {p: p[0] + 2 * p[1] + 4 * p[2] for p in solid.vertices}
    cubes = {k: [tuple(corner[p] for p in c) for c in cs]
             for k, cs in solid.by_dim.items()}
    cubes[1].append((0, 3))
    with pytest.raises(DoubleGluingError) as info:
        build_complex(range(8), cubes)
    assert info.value.details == {"cube_a": (0, 3), "cube_b": (0, 1, 2, 3),
                                  "shared": [0, 3]}


_LABEL_STYLES = [lambda i: i, lambda i: f"v{i}", lambda i: i if i % 2 else f"v{i}"]


@st.composite
def listed_complexes(draw):
    """(vertices, cubes by dimension) as an input may list them: a complex
    of ``glued_complexes`` (valid, or glued wrongly), with in a quarter of
    the cases one more defect (a repeated corner, a cube listed twice, a
    cube left out, an unknown corner), ids renamed to int, str or mixed
    ones, vertices, dimensions and cubes shuffled, and each cube's corners
    moved by a random symmetry of the cube."""
    rng = draw(st.randoms(use_true_random=False))
    vertices, cubes = draw(glued_complexes())
    cubes = sorted(cubes, key=lambda c: (len(c), [skey(v) for v in c]))
    defect = draw(st.sampled_from([None] * 4 + ["self", "duplicate", "missing", "unknown"]))
    if defect is not None and cubes:
        c = rng.choice(cubes)
        if defect == "self":
            cubes.append((c[-1],) + c[1:])
        elif defect == "duplicate":
            cubes.append(c[::-1])
        elif defect == "missing":
            cubes.remove(c)
        else:
            cubes.append(c[:-1] + (("ghost", 0),))
    return _as_listed(draw, rng, vertices, cubes)


def _as_listed(draw, rng, vertices, cubes):
    """(vertices, cubes by dimension) as an input may list them: ids renamed
    to int, str or mixed ones (``("ghost", 0)``, an unknown corner, to
    ``"ghost"``), vertices, dimensions and cubes shuffled, and each cube's
    corners moved by a random symmetry of the cube."""
    name = draw(st.sampled_from(_LABEL_STYLES))
    rename = {v: name(i) for i, v in enumerate(rng.sample(ssorted(vertices), len(vertices)))}
    rename[("ghost", 0)] = "ghost"
    by_dim: dict = {}
    for c in rng.sample(cubes, len(cubes)):
        sigma = rng.choice(symmetry_maps(cube_dim(c)))
        by_dim.setdefault(cube_dim(c), []).append(tuple(rename[c[j]] for j in sigma))
    dims = rng.sample(sorted(by_dim), len(by_dim))
    return rng.sample([rename[v] for v in vertices], len(vertices)), {k: by_dim[k] for k in dims}


def _built(build, vertices, by_dim):
    """The complex keyed by ids, or the class, message and details raised."""
    try:
        x = build(vertices, by_dim)
    except CubicalError as exc:
        return type(exc), str(exc), exc.details
    return x if build is label_build_complex else named(x)


@settings(max_examples=300, deadline=None)
@given(listed_complexes(), st.sampled_from(_LABEL_STYLES), st.randoms(use_true_random=False))
def test_build_complex_matches_label_oracle(case, style, rng):
    vertices, by_dim = case
    got = _built(build_complex, vertices, by_dim)
    assert got == _built(label_build_complex, vertices, by_dim)
    if isinstance(got, tuple):
        return
    # the same complex up to labels under any other naming
    rename = dict(zip(ssorted(vertices), map(style, rng.sample(range(len(vertices)),
                                                               len(vertices)))))
    again = named(build_complex([rename[v] for v in vertices],
                                {k: [tuple(rename[v] for v in c) for c in cs]
                                 for k, cs in by_dim.items()}))
    for key in ("cubes", "maximal"):
        assert getattr(again, key) == {skey_canonical_cube(tuple(rename[v] for v in c))
                                       for c in getattr(got, key)}


_LISTING_DEFECTS = ["drop", "relist", "diagonal", "unknown", "repeat"]


@st.composite
def defective_complexes(draw):
    """(vertices, cubes by dimension): a valid complex, a random subcomplex
    of a product of trees closed under faces, with 0-3 defects applied in
    turn: a cube dropped (a missing face, unless it was maximal), a cube
    listed again under a random symmetry, a new square with its edges on
    the diagonal of a cube, a corner replaced by an unknown id, a corner
    replaced by another of the same cube; listed by ``_as_listed``."""
    rng = draw(st.randoms(use_true_random=False))
    shapes = [s for k in (1, 2, 3) for s in itertools.product(range(2, 6), repeat=k)
              if math.prod(s) <= 12]
    sizes = draw(st.sampled_from(shapes))
    x = named(tree_product(*[[(rng.randrange(i), i) for i in range(1, s)] for s in sizes]))
    tops = [c for c in x.cubes if rng.random() < 0.5]
    cubes = sorted({face for c in tops for face in all_faces(c).values() if len(face) > 1},
                   key=lambda c: (len(c), [skey(v) for v in c]))
    vertices = set(x.vertices)
    for n, defect in enumerate(draw(st.lists(st.sampled_from(_LISTING_DEFECTS), max_size=3))):
        if not cubes:
            break
        c = rng.choice(cubes)
        j = rng.randrange(len(c))
        if defect == "drop":
            cubes.remove(c)
        elif defect == "relist":
            cubes.append(tuple(c[i] for i in rng.choice(symmetry_maps(cube_dim(c)))))
        elif defect == "diagonal":
            u, w = c[j], c[j ^ (len(c) - 1)]
            a, b = ("new", 2 * n), ("new", 2 * n + 1)
            vertices |= {a, b}
            cubes += [(u, a), (u, b), (a, w), (b, w), (u, a, b, w)]
        else:
            corner = ("ghost", 0) if defect == "unknown" else c[j ^ 1]
            cubes[cubes.index(c)] = c[:j] + (corner,) + c[j + 1:]
    return _as_listed(draw, rng, vertices, cubes)


@settings(max_examples=300, deadline=None)
@given(defective_complexes())
def test_set_passes_name_the_ordered_scan_witness(case):
    # the builder decides its checks on whole sets and scans only to name a
    # witness; the label oracle scans every cube in order. Both must raise
    # the same class with the same certificate, or build the same complex
    vertices, by_dim = case
    try:
        expected = label_build_complex(vertices, by_dim)
    except CubicalError as exc:
        with pytest.raises(type(exc)) as info:
            build_complex(vertices, by_dim)
        assert info.value.certificate() == exc.certificate()
        return
    x = build_complex(vertices, by_dim)
    assert named(x) == expected
    assert x.by_dim == {k: frozenset(c for c in x.cubes if cube_dim(c) == k)
                        for k in {cube_dim(c) for c in x.cubes}}


@pytest.mark.parametrize("scan,by_dim", [
    ("_scan_listing", {1: [("a", "b"), ("b", "a")]}),
    ("_scan_faces", {1: [("a", "b")], 2: [("a", "b", "c", "d")]}),
    ("_check_double_gluing", {1: [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                                  ("a", "d")], 2: [("a", "b", "c", "d")]}),
])
def test_a_set_pass_defect_the_scan_misses_is_an_internal_error(monkeypatch, scan, by_dim):
    monkeypatch.setattr(complexes, scan, lambda *args: None)
    with pytest.raises(CubicalError) as info:
        build_complex("abcd", by_dim)
    assert type(info.value) is CubicalError
    assert "ordered scan does not name" in str(info.value)


def test_build_errors_match_label_oracle():
    # one input per kind of invalid complex; the details are pinned
    square = [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")]
    cases = [
        ("abc", {1: [("a", "b"), ("c", "c")]}),
        ("abcd", {1: square, 2: [("a", "b", "c", "d"), ("d", "c", "b", "a")]}),
        ("abcd", {1: square[:3], 2: [("b", "d", "a", "c")]}),
        ("abcd", {1: square + [("d", "a")], 2: [("a", "b", "c", "d")]}),
        ([2, "b", 1], {1: [(1, 2), ("b", 3)]}),
    ]
    kinds = []
    for vertices, by_dim in cases:
        got = _built(build_complex, vertices, by_dim)
        assert got == _built(label_build_complex, vertices, by_dim)
        kinds.append((got[0].__name__, got[2]))
    assert kinds == [
        ("SelfGluingError", {"cube": ("c", "c"), "dim": 1}),
        ("DuplicateCubeError", {"cube": ("d", "c", "b", "a"), "dim": 2}),
        ("MissingFaceError", {"cube": ("a", "b", "c", "d"), "face": ("b", "d"), "dim": 1}),
        ("DoubleGluingError", {"cube_a": ("a", "d"), "cube_b": ("a", "b", "c", "d"),
                               "shared": ["a", "d"]}),
        ("UnknownVertexError", {"vertex": 3, "cube": ("b", 3)}),
    ]


def test_face_closure_holds_on_corpus():
    from cubical.complexes import cube_faces

    for name, x in cat0_corpus():
        for c in x.cubes:
            for f in cube_faces(c):
                if cube_dim(c) == 1:
                    continue
                assert canonical_cube(f) in x.by_dim[cube_dim(c) - 1], name


def test_json_round_trip():
    x = torus_3x3()
    data = dump_complex(x)
    y = load_complex(data)
    assert dump_complex(y) == data
    assert y.counts() == x.counts()


# ---------------------------------------------------------------------------
# links and flag


def test_link_of_square_corner_is_edge():
    x = grid_complex(1, 1)
    link = vertex_link(x, (0, 0))
    assert len(link.vertices) == 2
    assert len([s for s in link.simplices if len(s) == 2]) == 1


def test_link_on_torus_is_4_cycle():
    x = torus_3x3()
    for v in x.labels:
        link = vertex_link(x, v)
        assert len(link.vertices) == 4
        assert len(link.edges) == 4
        assert not [s for s in link.simplices if len(s) == 3]
        assert is_flag(link).ok


def test_link_on_cube_boundary_is_3_cycle():
    x = cube_boundary_3()
    link = vertex_link(x, (0, 0, 0))
    assert len(link.vertices) == 3
    assert len(link.edges) == 3
    res = is_flag(link)
    assert not res.ok
    assert len(res.witness) == 3


def test_link_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        vertex_link(grid_complex(1), "nope")


def test_flag_4_cycle():
    sc = build_simplicial("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}])
    assert is_flag(sc).ok


def test_flag_empty_triangle_witness():
    sc = build_simplicial("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    res = is_flag(sc)
    assert not res.ok
    assert set(res.witness) == {"a", "b", "c"}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.data())
def test_flag_witness_is_least_empty_simplex(n, data):
    """The witness is the least non-simplex clique of size >= 3 by (size,
    sorted ids), found here over all vertex subsets."""
    verts = list(range(n))
    pairs = list(itertools.combinations(verts, 2))
    edges = [set(p) for p in pairs if data.draw(st.booleans())]
    triples = [set(t) for t in itertools.combinations(verts, 3)
               if data.draw(st.booleans())]
    sc = build_simplicial(verts, edges + triples)
    adj = sc.adjacency
    empty = [t for size in range(3, n + 1)
             for t in itertools.combinations(verts, size)
             if all(b in adj[a] for a, b in itertools.combinations(t, 2))
             and frozenset(t) not in sc.simplices]
    res = is_flag(sc)
    assert res.ok == (not empty)
    if empty:
        assert res.witness == min(empty, key=lambda t: (len(t), t))


def test_least_empty_simplex_tests_no_vertex_or_edge():
    # a link's vertices and edges are simplices as built, so only cliques of
    # size >= 3 are looked up: here the triangle, though its edges are not
    # listed, and nothing once it is
    triangle = [0b110, 0b101, 0b011]
    assert _least_empty_simplex(triangle, set()) == 0b111
    assert _least_empty_simplex(triangle, {0b111}) == 0


def test_flag_octahedron():
    # link of a vertex in the standard cubing of R^3: all triangles filled
    verts = ["x+", "x-", "y+", "y-", "z+", "z-"]
    opposite = {"x+": "x-", "x-": "x+", "y+": "y-", "y-": "y+",
                "z+": "z-", "z-": "z+"}
    simplices = [set(t) for t in itertools.combinations(verts, 3)
                 if not any(opposite[a] == b for a, b in itertools.combinations(t, 2))]
    edges = [set(p) for p in itertools.combinations(verts, 2)
             if opposite[p[0]] != p[1]]
    assert len(simplices) == 8 and len(edges) == 12
    sc = build_simplicial(verts, edges + simplices)
    assert is_flag(sc).ok


def test_locally_cat0():
    assert is_locally_cat0(torus_3x3()).ok
    res = is_locally_cat0(cube_boundary_3())
    assert not res.ok and res.witness is not None
    assert is_locally_cat0(path_complex(4)).ok
    assert is_locally_cat0(star_complex(5)).ok


_mixed_ids = st.lists(st.one_of(st.integers(-3, 12), st.text("abxy", min_size=1, max_size=2)),
                      min_size=1, max_size=7, unique=True)


@settings(max_examples=150, deadline=None)
@given(_mixed_ids, st.data())
def test_mask_closure_matches_frozenset_oracle(ids, data):
    """``build_simplicial`` closes on masks over the ids in ``skey`` order;
    the frozenset closure and the label-sorting flag test must agree on
    every view, the counts and the witness."""
    pick = st.sampled_from(ids)
    family = data.draw(st.lists(st.lists(pick, min_size=2, max_size=2), max_size=10))
    family += data.draw(st.lists(st.lists(pick, max_size=5), max_size=4))
    sc = build_simplicial(ids, family)
    oracle = set_build_simplicial(ids, family)
    assert sc.labels == tuple(ssorted(ids))
    assert sc.vertices == oracle.vertices
    assert sc.simplices == oracle.simplices
    assert sc.edges == oracle.edges
    assert sc.adjacency == oracle.adjacency
    assert sc.counts() == oracle.counts()
    assert is_flag(sc) == sorted_is_flag(oracle)


def test_link_test_is_vertex_link_and_is_flag():
    # is_locally_cat0 reads the link masks with no link built: its verdict
    # is the first non-flag vertex of vertex_link and is_flag, whose
    # witness the label-sorting oracle names too
    xs = [x for _, x in cat0_corpus()]
    xs += [folded_cube(5), cube_double_cover(), swapped_torus(10, 5)]
    verdicts = []
    for x in xs:
        expected = LocalCat0Result(ok=True)
        for v in x.labels:
            link = vertex_link(x, v)
            res = is_flag(link)
            assert res == sorted_is_flag(link)
            # the neighbour masks handed over are those the masks give
            assert link.neighbours == SimplicialComplex(link.labels, link.masks).neighbours
            if not res.ok:
                expected = LocalCat0Result(ok=False, vertex=v,
                                           witness=tuple(map(x.named, res.witness)))
                break
        assert is_locally_cat0(x) == expected
        verdicts.append(expected.ok)
    assert not all(verdicts)


# ---------------------------------------------------------------------------
# medians and CAT(0)


def test_median_grid_corner():
    x = grid_complex(2, 2)
    assert median(x, (0, 0), (2, 0), (0, 2)) == (0, 0)


def test_median_grid_interior():
    x = grid_complex(2, 2)
    assert median(x, (0, 0), (1, 1), (2, 0)) == (1, 0)


def test_median_on_triangle_graph():
    x = build_complex("abc", {1: [("a", "b"), ("b", "c"), ("a", "c")]})
    # pairwise intervals are the bare edges, so the triple intersection
    # is empty: this certifies the failure as NoMedian
    with pytest.raises(NoMedianError):
        median(x, "a", "b", "c")


def test_multiple_medians_on_k23():
    # K_{2,3} is the classic two-median graph
    edges = [(a, b) for a in ("u", "v") for b in ("x", "y", "z")]
    x = build_complex(["u", "v", "x", "y", "z"], {1: edges})
    with pytest.raises(MultipleMediansError):
        median(x, "x", "y", "z")


def test_cat0_link_failure_beats_disconnection(capsys, tmp_path):
    """A non-flag link is a witnessed negative even when the complex is
    disconnected."""
    import json

    from cubical.cli import main

    x = named(cube_boundary_3())
    y = build_complex(sorted(x.vertices) + [(9, 9, 9)],
                      {k: sorted(cs) for k, cs in x.by_dim.items()})
    res = is_cat0(y)
    assert not res.ok and res.reason == "link"
    path = tmp_path / "split.json"
    path.write_text(json.dumps(dump_complex(y)))
    assert main(["complex", "check", str(path)]) == 1
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["cat0"] == {"ok": False, "reason": "link"}
    assert cert["locally_cat0"]["ok"] is False
    assert len(cert["locally_cat0"]["empty_simplex"]) == 3


def test_cat0_verdicts():
    assert is_cat0(grid_complex(1, 1, 1, 1)).ok
    res = is_cat0(torus_3x3())
    assert not res.ok and res.reason == "median"
    assert is_cat0(tree_complex([(0, 1), (1, 2), (1, 3)])).ok


def test_hollow_square_is_not_cat0():
    # flag links and a median 1-skeleton, but the square itself is missing
    res = is_cat0(hollow_square())
    assert not res.ok
    assert res.reason == "square"


def test_cube_boundary_not_cat0():
    res = is_cat0(cube_boundary_3())
    assert not res.ok and res.reason == "link"


def test_corpus_is_cat0():
    for name, x in cat0_corpus():
        assert is_cat0(x).ok, name


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.randoms(use_true_random=False))
def test_random_trees_are_cat0_with_unique_medians(n, rng):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    x = tree_complex(edges)
    assert is_cat0(x).ok
    verts = x.labels
    a, b, c = (rng.choice(verts) for _ in range(3))
    assert median(x, a, b, c) is not None


# ---------------------------------------------------------------------------
# the median stage against the label and dense interval oracles


def _oracle_is_cat0(x, oracle):
    """is_cat0 with its median stage replaced by an oracle, at the same cap."""
    with mock.patch.object(complexes, "_median_violation",
                           lambda y: oracle(y, complexes.DEFAULT_MEDIAN_CAP)):
        return is_cat0(x)


def _path(size):
    return [(i, i + 1) for i in range(size - 1)]


@st.composite
def median_test_complexes(draw, tops={1: 190, 2: 13, 3: 5},
                          glues=[None, glue_hexagon, glue_cube_boundary]):
    """At most 200 vertices: a product of 1-3 random trees or paths (boxes),
    as is or with a hexagon or a 3-cube boundary glued on (one of
    ``glues``), with int, str or mixed vertex ids in a random order. A
    factor has at most ``tops[k]`` vertices in a product of k."""
    rng = draw(st.randoms(use_true_random=False))
    factors = draw(st.integers(1, 3))
    top = tops[factors]
    sizes = draw(st.lists(st.integers(2, top), min_size=factors, max_size=factors))
    if draw(st.booleans()):
        trees = [_path(s) for s in sizes]
    else:
        trees = [[(rng.randrange(i), i) for i in range(1, s)] for s in sizes]
    x = tree_product(*trees)
    glue = draw(st.sampled_from(glues))
    if glue is not None:
        x = glue(x, rng.choice(x.labels))
    name = draw(st.sampled_from([lambda i: i, lambda i: f"v{i}",
                                 lambda i: i if i % 2 else f"v{i}"]))
    places = rng.sample(range(len(x.vertices)), len(x.vertices))
    return relabel(x, {v: name(i) for v, i in zip(x.labels, places)})


@settings(max_examples=40, deadline=None)
@given(median_test_complexes())
def test_is_cat0_matches_dense_median_oracle(x):
    assert is_cat0(x) == _oracle_is_cat0(x, dense_median_violation)


@settings(max_examples=40, deadline=None)
@given(median_test_complexes())
def test_is_cat0_matches_label_median_oracle(x):
    assert is_cat0(x) == _oracle_is_cat0(x, label_median_violation)


@settings(max_examples=40, deadline=None)
@given(median_test_complexes(tops={1: 30, 2: 6, 3: 3}), st.randoms(use_true_random=False))
def test_median_matches_matrix_oracle(x, rng):
    def outcome(fn, triple):
        try:
            return fn(x, *triple)
        except CubicalError as exc:
            return type(exc), exc.certificate()

    for _ in range(20):
        triple = [rng.choice(x.labels) for _ in range(3)]
        assert outcome(median, triple) == outcome(matrix_median, triple)


@settings(max_examples=40, deadline=None)
@given(median_test_complexes(tops={1: 30, 2: 6, 3: 3}))
def test_vertex_link_matches_full_scan(x):
    for v in x.labels:
        assert vertex_link(x, v) == scan_vertex_link(x, v)


@st.composite
def products_less_a_cube(draw):
    """A product of 3 random trees with one random 3-cube deleted: each of
    that cube's 8 corners keeps its 3 squares, an empty triangle in its
    link."""
    rng = draw(st.randoms(use_true_random=False))
    sizes = draw(st.lists(st.integers(2, 5), min_size=3, max_size=3))
    x = named(tree_product(*[[(rng.randrange(i), i) for i in range(1, s)]
                             for s in sizes]))
    cubes = {k: sorted(cs) for k, cs in x.by_dim.items()}
    cubes[3].remove(rng.choice(cubes[3]))
    return build_complex(sorted(x.vertices), cubes)


@st.composite
def products_less_an_edge(draw):
    """A product of 2 or 3 random trees with one random edge deleted,
    together with every cube on it. It stays connected, and every 4-cycle
    left bounds a listed square."""
    rng = draw(st.randoms(use_true_random=False))
    factors = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 5), min_size=factors, max_size=factors))
    x = named(tree_product(*[[(rng.randrange(i), i) for i in range(1, s)]
                             for s in sizes]))
    gone = set(rng.choice(sorted(c for c in x.cubes if len(c) == 2)))
    return build_complex(sorted(x.vertices), {
        k: sorted(c for c in x.cubes if len(c) == 1 << k and not gone <= set(c))
        for k in range(1, factors + 1)})


@settings(max_examples=60, deadline=None)
@given(st.one_of(median_test_complexes(),
                 products_less_a_cube(),
                 st.builds(treespace_complex, st.just(5))))
def test_is_locally_cat0_matches_link_scan(x):
    assert is_locally_cat0(x) == scan_is_locally_cat0(x)


def _shuffled_ids(x: CubeComplex, rng) -> dict:
    """Vertex id -> an int, str or mixed id, in a random order."""
    name = rng.choice([lambda i: i, lambda i: f"v{i}", lambda i: i if i % 2 else f"v{i}"])
    n = len(x.vertices)
    return dict(zip(x.labels, map(name, rng.sample(range(n), n))))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.randoms(use_true_random=False))
def test_unfilled_square_on_c4_torus_matches_all_pairs_scan(n, rng):
    # the 4-cycles around the C4 factor bound no square (for n = 4, those
    # around the other factor neither)
    x = torus(4, n)
    x = relabel(x, _shuffled_ids(x, rng))
    hole = _unfilled_square(x)
    assert hole is not None and hole == all_pairs_unfilled_square(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.randoms(use_true_random=False))
def test_unfilled_square_with_squares_removed_matches_all_pairs_scan(m, n, rng):
    x = tree_product(*[[(rng.randrange(i), i) for i in range(1, s)] for s in (m, n)])
    rename = _shuffled_ids(x, rng)
    x = named(x)
    gone = set(rng.sample(sorted(x.squares), min(len(x.squares), rng.randint(1, 3))))
    y = build_complex([rename[v] for v in x.vertices],
                      {k: [tuple(rename[v] for v in c) for c in cs if c not in gone]
                       for k, cs in x.by_dim.items()})
    hole = _unfilled_square(y)
    assert hole is not None and hole == all_pairs_unfilled_square(y)


def _cut_cube() -> CubeComplex:
    """The 3-cube without corner 7, corners numbered by their bits."""
    solid = named(grid_complex(1, 1, 1))
    name = {p: p[0] + 2 * p[1] + 4 * p[2] for p in solid.vertices}
    return build_complex(range(7), {
        k: [tuple(name[p] for p in c) for c in solid.by_dim[k]
            if (1, 1, 1) not in c] for k in (1, 2)})


def _cube_less_an_edge() -> CubeComplex:
    """The solid 3-cube less the edge 6-7, its two squares and the cube,
    corners numbered by their bits: 8 vertices, 11 edges, 4 squares."""
    solid = named(grid_complex(1, 1, 1))
    name = {p: p[0] + 2 * p[1] + 4 * p[2] for p in solid.vertices}
    return build_complex(range(8), {
        k: [tuple(name[p] for p in c) for c in solid.by_dim[k]
            if not {(0, 1, 1), (1, 1, 1)} <= set(c)] for k in (1, 2)})


def _low_weight_cube(k: int) -> CubeComplex:
    """The corners of weight at most 2 of the k-cube, as bitsets, with the
    squares at 0. Its k classes, one per direction, cross pairwise, so
    the dual of their sides is the whole k-cube."""
    pairs = list(itertools.combinations(range(k), 2))
    return build_complex(
        [0] + [1 << i for i in range(k)] + [1 << i | 1 << j for i, j in pairs], {
            1: [(0, 1 << i) for i in range(k)]
            + [(1 << a, 1 << i | 1 << j) for i, j in pairs for a in (i, j)],
            2: [(0, 1 << i, 1 << j, 1 << i | 1 << j) for i, j in pairs]})


def test_median_stage_branches_match_dense_oracle():
    # a box is its own halfspaces' dual
    box = tree_product(_path(3), _path(4))
    assert _roller_halfspaces(box) is not None
    assert _median_violation(box) is None
    assert label_median_violation(box, 600) is dense_median_violation(box, 600) is None
    # a glued hexagon: deleting one of its edges leaves one component (a)
    hexed = glue_hexagon(box, (0, 0))
    assert _roller_halfspaces(hexed) is None
    witness = dense_median_violation(hexed, 600)
    assert witness is not None
    assert _median_violation(hexed) == label_median_violation(hexed, 600) == witness
    # the 3-cube without corner 7 (its link at corner 0 is an empty
    # triangle, so is_cat0 never gets this far): its three classes cut it
    # in two with distinct labels, but they cross pairwise, so their dual
    # is the whole 3-cube (c); the majority of 3, 5, 6 is 7
    cut = _cut_cube()
    assert _roller_halfspaces(cut) is None
    witness = {"triple": (3, 5, 6), "medians": []}
    assert dense_median_violation(cut, 600) == witness
    assert label_median_violation(cut, 600) == witness
    assert _median_violation(cut) == witness


@settings(max_examples=60, deadline=None)
@given(st.one_of(median_test_complexes(), products_less_a_cube(),
                 products_less_an_edge()))
def test_roller_halfspaces_match_component_oracle(x):
    assert _roller_halfspaces(x) == component_roller_halfspaces(x)


def _roller_walks(x: CubeComplex) -> tuple:
    """``_roller_halfspaces(x)``, and each (system, start, cap, result) of
    the ``pocsets._flip_walk`` calls it made."""
    real, calls = pocsets._flip_walk, []

    def record(*args):
        calls.append((*args, real(*args)))
        return calls[-1][-1]

    with mock.patch.object(pocsets, "_flip_walk", record):
        return _roller_halfspaces(x), calls


@pytest.mark.parametrize("make,walked", [
    (lambda: folded_cube(5), None),  # (a): an edge flips more than its class
    (cube_double_cover, None),  # (b): two vertices with one row
    (_cut_cube, False),  # the dual is the 3-cube: 8 vertices for 7
    (lambda: _low_weight_cube(12), False),  # 79 vertices, a dual of 4,096
    (_cube_less_an_edge, True),  # the dual is the 3-cube: 12 edges for 11
], ids=["folded_cube", "double_cover", "cut_cube", "low_weight_cube", "cube_less_an_edge"])
def test_each_roller_step_rejects_its_complex(make, walked):
    # walked: None if the labels reject x before the dual is walked, False
    # if the walk finds more vertices than x has, True if it finds x's
    # vertices and only the edge count rejects
    x = make()
    sides, calls = _roller_walks(x)
    assert sides is component_roller_halfspaces(x) is None
    if walked is None:
        assert calls == []
    else:
        [(s, _, cap, result)] = calls
        assert cap == len(x.labels) and len(s.star_pairs) == len(hyperplanes(x))
        assert (result is not None) is walked


def test_roller_walk_is_the_dual_of_the_sides():
    # on a median complex the capped walk is the whole dual, and its
    # vertices' minimal sides are the edges of x
    x = tree_product(_path(3), _path(2), [(0, 1), (0, 2)])
    sides, [(s, start, cap, (order, _, minimal_at))] = _roller_walks(x)
    assert sides == component_roller_halfspaces(x)
    dual = pocsets.dual_complex(s, pocsets._orientation(s, start), cap)
    assert order == list(dual.masks) and len(order) == cap
    assert sum(map(int.bit_count, minimal_at)) == 2 * len(x.edges) == 2 * len(dual.complex.edges)


def test_roller_halfspaces_match_component_oracle_on_fixed_complexes():
    box = tree_product(_path(3), _path(4))
    passing = [x for _, x in cat0_corpus()] + [
        treespace_complex(5), build_complex(["v"], {}), build_complex([], {})]
    failing = [
        _cut_cube(),
        _cube_less_an_edge(),
        _low_weight_cube(5),
        glue_hexagon(box, (0, 0)),
        glue_hexagon(grid_complex(3, 3), (1, 1)),
        torus_3x3(),  # deleting a class leaves one component
        swapped_torus(10, 5),
        folded_cube(5),  # fails the oracle's (a) alone
        cube_double_cover(),  # fails the oracle's (b) alone
        build_complex([0, 1], {}),
    ] + [torus(4, n) for n in range(3, 9)]
    for x in passing:
        sides = _roller_halfspaces(x)
        assert sides is not None and sides == component_roller_halfspaces(x)
    for x in failing:
        assert _roller_halfspaces(x) is component_roller_halfspaces(x) is None
    assert _roller_halfspaces(build_complex([], {})) == []


@pytest.mark.parametrize("make", [lambda: grid_complex(2, 3), torus_3x3])
def test_halfspace_system_of_runs_the_roller_test_once(make):
    x = make()
    with mock.patch.object(complexes, "_roller_halfspaces",
                           wraps=complexes._roller_halfspaces) as roller:
        try:
            dec = halfspace_system_of(x)
        except NotCat0Error as exc:
            dec = exc.details["certificate"]
    assert roller.call_count == 1
    fresh = make()  # a second complex, so nothing is read back from x
    if is_cat0(fresh).ok:
        oracle = frozenset_halfspace_system_of(fresh)
        assert leq(dec.system) == leq(oracle.system) and dec.members == oracle.members
    else:
        assert dec == is_cat0(fresh).certificate()


# ---------------------------------------------------------------------------
# the Sageev comparison against the ordered stages


def _outcome(fn, x):
    try:
        return fn(x)
    except CubicalError as exc:
        return type(exc), exc.certificate()


def _assert_matches_ordered_stages(x) -> bool:
    """``is_cat0(x)`` equals the ordered stages' verdict, or raises the same
    error, and the comparison with the dual accepts x iff x is CAT(0).
    Returns whether it did."""
    verdict = _outcome(is_cat0, x)
    assert verdict == _outcome(ordered_is_cat0, x)
    own_dual = complexes._is_own_dual(x)
    assert own_dual == (verdict == Cat0Result(ok=True))
    return own_dual


@st.composite
def built_glued_complexes(draw):
    """A ``glued_complexes`` draft as a complex, or None if
    ``build_complex`` refuses it."""
    vertices, cubes = draw(glued_complexes())
    by_dim: dict = {}
    for c in cubes:
        by_dim.setdefault(cube_dim(c), []).append(c)
    try:
        return build_complex(vertices, by_dim)
    except CubicalError:
        return None


@settings(max_examples=120, deadline=None)
@given(st.one_of(median_test_complexes(), products_less_a_cube(),
                 products_less_an_edge(), built_glued_complexes()))
def test_is_cat0_matches_ordered_stages(x):
    if x is not None:
        _assert_matches_ordered_stages(x)


def test_is_cat0_matches_ordered_stages_on_named_complexes():
    box = tree_product(_path(3), _path(4))
    positive = [x for _, x in cat0_corpus()] + [
        treespace_complex(4), treespace_complex(5), build_complex(["v"], {}),
        build_complex([], {})]
    negative = [
        folded_cube(5), cube_double_cover(), swapped_torus(10, 5), _cut_cube(),
        _cube_less_an_edge(), cube_boundary_3(), torus_3x3(), hollow_square(),
        glue_hexagon(box, (0, 0)), glue_cube_boundary(box, (1, 1)),
        build_complex([0, 1], {}),
    ] + [_low_weight_cube(k) for k in range(3, 13)]
    assert all(map(_assert_matches_ordered_stages, positive))
    assert not any(map(_assert_matches_ordered_stages, negative))


def _roller_system_is_valid(x: CubeComplex) -> bool:
    """Whether x passes the label steps (a) and (b) of the Roller test,
    asserting that the system ``pocsets._system_of_crossings`` then builds
    from its rows passes the input-file checks it is built without."""
    real, built = pocsets._system_of_crossings, []

    def record(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(pocsets, "_system_of_crossings", record):
        x._roller
    for s in built:
        assert pocsets._validated(s, s.labels) is s
    return bool(built)


@settings(max_examples=120, deadline=None)
@given(st.one_of(median_test_complexes(), products_less_a_cube(),
                 products_less_an_edge(), built_glued_complexes()))
def test_roller_systems_are_built_valid(x):
    # whatever the walk (c) then finds
    if x is not None:
        _roller_system_is_valid(x)


def test_roller_systems_are_built_valid_on_named_complexes():
    # the last three pass (a) and (b) and fail the walk (c)
    passing = [x for _, x in cat0_corpus()] + [treespace_complex(n) for n in range(3, 7)] + [
        _cut_cube(), _cube_less_an_edge(), _low_weight_cube(12)]
    assert all(map(_roller_system_is_valid, passing))
    failing = [folded_cube(5), cube_double_cover(), torus_3x3()]
    assert not any(map(_roller_system_is_valid, failing))


def _two_skeleton_of_cube(k: int) -> CubeComplex:
    """The vertices, edges and squares of the k-cube, corners numbered by
    their bits."""
    axes = [1 << i for i in range(k)]
    return build_complex(range(1 << k), {
        1: [(v, v | a) for a in axes for v in range(1 << k) if not v & a],
        2: [(v, v | a, v | b, v | a | b) for a, b in itertools.combinations(axes, 2)
            for v in range(1 << k) if not v & (a | b)]})


def test_cell_count_stops_one_past_the_complex():
    # the 2-skeleton of the 10-cube has a median 1-skeleton, so it passes
    # the Roller test, but its dual is the whole 10-cube, 3^10 cells: the
    # count gives up one family past the complex's own cells, and the link
    # test names the empty triangle at vertex 0
    x = _two_skeleton_of_cube(10)
    cells = len(x.labels) + len(x.cubes)
    assert (len(x.labels), len(x.edges), len(x.squares)) == (1024, 5120, 11520)
    counts = []
    real = pocsets._dual_cell_count

    def record(s, minimal_at, budget):
        counts.append((budget, real(s, minimal_at, budget)))
        return counts[-1][1]

    with mock.patch.object(pocsets, "_dual_cell_count", record):
        verdict = is_cat0(x)
    assert verdict == Cat0Result(ok=False, reason="link", witness={
        "vertex": 0, "empty_simplex": ((0, 1), (0, 2), (0, 4))})
    assert counts == [(cells, cells + 1)]
    assert verdict == ordered_is_cat0(_two_skeleton_of_cube(10))
    # the whole 10-cube is its own dual, and is counted to the last cell
    assert real(x._roller[1], x._roller[2][2], 3 ** 10) == 3 ** 10
    assert real(x._roller[1], x._roller[2][2], 3 ** 10 - 1) == 3 ** 10


@pytest.mark.parametrize("make", [lambda: grid_complex(2, 3), torus_3x3, cube_boundary_3])
def test_one_roller_labelling_walk_and_system_per_complex(make):
    x = make()
    calls = {name: 0 for name in ("_roller_test", "_flip_walk", "_system_of_crossings",
                                  "_dual_cell_count")}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return mock.patch.object(module, name, wrapper)

    with counted(complexes, "_roller_test"), counted(pocsets, "_flip_walk"), \
            counted(pocsets, "_system_of_crossings"), counted(pocsets, "_dual_cell_count"):
        try:
            halfspace_system_of(x)
        except NotCat0Error:
            pass
        is_cat0(x)
        hyperplanes(x)
    # a complex that passes the Roller test builds one system and walks it
    # once (the torus fails at its labels, before either), and each
    # is_cat0 call counts the dual's cells once
    walked = int(x._roller is not None)
    assert calls == {"_roller_test": 1, "_flip_walk": walked, "_system_of_crossings": walked,
                     "_dual_cell_count": 2 * walked}


def test_majority_miss_on_hexagon_labels_any_width():
    # the label oracle's majority lookup: the hexagon embeds isometrically
    # in the 3-cube, by its opposite-edge classes; its alternate corners
    # 0, 2, 4 have no median
    hexagon = build_complex(range(6), {1: [(i, (i + 1) % 6) for i in range(6)]})
    assert dense_median_violation(hexagon, 600) == {"triple": (0, 2, 4), "medians": []}
    assert _median_violation(hexagon) == {"triple": (0, 2, 4), "medians": []}
    labels = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0],
                       [1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    for pad in (0, 61, 130):  # one, two and three packed words
        wide = np.hstack([labels, np.ones((6, pad), dtype=bool)])
        assert _majority_miss(wide) == ((0, 2, 4), [])


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 9), st.randoms(use_true_random=False), st.data())
def test_first_bad_triple_matches_dense_oracle(n, rng, data):
    # connected graphs, half of them bipartite (even and odd parity ids
    # alternate), where the first bad triple may have several medians
    step = 2 if data.draw(st.booleans()) else 1
    edges = {(rng.randrange(i - 1, -1, -step), i) for i in range(1, n)}
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2)
             if step == 1 or (b - a) % 2]
    edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    x = build_complex(range(n), {1: sorted(edges)})
    found = _first_bad_triple(x.adjacency)
    witness = None if found is None else {"triple": found[0], "medians": found[1]}
    assert witness == dense_median_violation(x, n)


def test_is_cat0_names_no_silent_yes(monkeypatch):
    # a complex that is not its own dual fails some ordered stage (Chepoi);
    # if none names a defect, is_cat0 raises rather than answer yes
    hexed = glue_hexagon(grid_complex(3, 3), (0, 0))
    assert is_cat0(hexed).reason == "median"
    monkeypatch.setattr(complexes, "_median_violation", lambda x: None)
    with pytest.raises(CubicalError) as info:
        is_cat0(hexed)
    assert type(info.value) is CubicalError
    assert "ordered stages" in info.value.message


def test_median_verdict_has_no_cap(monkeypatch):
    # the cap bounds only the witness scan of a failure
    x = grid_complex(30, 30)
    assert len(x.vertices) > 600 and is_cat0(x).ok
    monkeypatch.setattr("cubical.complexes.DEFAULT_MEDIAN_CAP", 5)
    assert _median_violation(grid_complex(3, 3)) is None
    hexed = glue_hexagon(grid_complex(3, 3), (0, 0))
    monkeypatch.setattr("cubical.complexes.DEFAULT_MEDIAN_CAP", 21)
    assert _median_violation(hexed) == dense_median_violation(hexed, 21)
    monkeypatch.setattr("cubical.complexes.DEFAULT_MEDIAN_CAP", 20)
    with pytest.raises(CapExceededError):
        _median_violation(hexed)


def test_median_check_memory_is_quadratic():
    x = grid_complex(17, 17)
    n = len(x.vertices)
    tracemalloc.start()
    try:
        assert _median_violation(x) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * n  # the dense interval tensor alone took n^3 bytes


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cubical.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_median_test_never_imports_coxeter():
    # the package's __init__ imports every module, so the package is
    # stubbed and cubical.coxeter made unimportable before complexes loads
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    code = """if True:
        import importlib.util, sys, types
        package = types.ModuleType("cubical")
        package.__path__ = importlib.util.find_spec("cubical").submodule_search_locations
        sys.modules.update({"cubical": package, "cubical.coxeter": None})
        from cubical.complexes import build_complex, halfspace_system_of
        x = build_complex(range(4), {1: [(0, 1), (0, 2), (1, 3), (2, 3)],
                                     2: [(0, 1, 2, 3)]})
        assert len(halfspace_system_of(x).system.star_pairs) == 2
        """
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 25), st.sampled_from([int, str]), st.data())
def test_distance_matrix_matches_bfs(n, name, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    x = build_complex([name(i) for i in range(n)],
                      {1: [(name(a), name(b)) for a, b in edges]})
    expected = bfs_distances(x)
    matrix = distance_matrix(x)
    assert matrix.shape == (n, n)
    for i, u in enumerate(x.labels):
        dist, order = bfs(x.adjacency, i)
        assert dist == [expected.get((u, v), -1) for v in x.labels]
        assert dist == matrix[i].tolist()
        assert sorted(order) == [j for j, d in enumerate(dist) if d >= 0]
        assert [dist[j] for j in order] == sorted(dist[j] for j in order)
    assert x.is_connected() == (len(expected) == n * n)


# ---------------------------------------------------------------------------
# hyperplanes


def _classes_sorted(x):
    return [sorted(cls) for cls in x._square_classes]


def test_square_classes_match_union_find_oracle():
    fixed = [x for _, x in cat0_corpus()] + [
        torus(3, 3), folded_cube(5), cube_double_cover(), swapped_torus(10, 5)]
    for x in fixed:
        assert _classes_sorted(x) == union_find_square_classes(x)


@settings(max_examples=40, deadline=None)
@given(median_test_complexes())
def test_square_classes_match_union_find_oracle_on_median_draws(x):
    assert _classes_sorted(x) == union_find_square_classes(x)


def test_square_has_two_hyperplanes():
    x = grid_complex(1, 1)
    hps = hyperplanes(x)
    assert len(hps) == 2
    assert all(len(h.edges) == 2 for h in hps)


def test_tree_hyperplanes_are_singletons():
    x = tree_complex([(0, 1), (1, 2), (1, 3), (3, 4)])
    hps = hyperplanes(x)
    assert len(hps) == 4
    assert all(len(h.edges) == 1 for h in hps)


def test_torus_hyperplanes():
    x = torus_3x3()
    hps = hyperplanes(x)
    assert len(hps) == 6
    for h in hps:
        assert len(h.edges) == 3
        assert len(h.crosses) == 3  # the other direction's classes, one square each
        assert len(halfspaces_of(x, h)) == 1  # self-parallel


def test_path_halfspace_sizes():
    x = path_complex(3)
    hps = hyperplanes(x)
    middle = next(h for h in hps if (1, 2) in map(x.named, h.edges))
    comps = halfspaces_of(x, middle)
    assert sorted(len(c) for c in comps) == [2, 2]


def test_grid_hyperplanes_separate():
    x = grid_complex(4, 4)
    for h in hyperplanes(x):
        assert len(halfspaces_of(x, h)) == 2


def test_crossing_in_square_and_strip():
    sq = grid_complex(1, 1)
    h1, h2 = hyperplanes(sq)
    assert hyperplanes_cross(sq, h1, h2)
    strip = grid_complex(2, 1)
    hps = hyperplanes(strip)
    vertical = [h for h in hps if len(h.edges) == 2]
    assert len(vertical) == 2
    assert not hyperplanes_cross(strip, vertical[0], vertical[1])


def test_hyperplanes_cross_matches_square_scan(capsys, tmp_path):
    import json

    from cubical.cli import main

    # every ordered pair, a hyperplane with itself included
    xs = [x for _, x in cat0_corpus()]
    xs += [torus(4, 5), torus_3x3(), cube_boundary_3(), swapped_torus(10, 5)]
    answers = []
    for x in xs:
        hps = hyperplanes(x)
        for h1, h2 in itertools.product(hps, repeat=2):
            answer = hyperplanes_cross(x, h1, h2)
            assert answer == scan_hyperplanes_cross(x, h1, h2)
            answers.append((answer, h1 is h2))
        for h in hps:
            assert h.crosses == {j for j, h2 in enumerate(hps)
                                 if scan_hyperplanes_cross(x, h, h2)}
    assert len(answers) > 1500
    # crossings, non-crossings and self-crossings (the swapped torus) all occur
    assert {(True, False), (False, False), (True, True), (False, True)} <= set(answers)

    # the CLI lists each crossing of distinct classes once, and no self-crossing
    x = swapped_torus(10, 5)
    hps = hyperplanes(x)
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(dump_complex(x)))
    main(["complex", "hyperplanes", str(path)])
    listed = json.loads(capsys.readouterr().out)["stats"]["crossing_pairs"]
    assert listed == [[i, j] for i, j in itertools.combinations(range(len(hps)), 2)
                      if scan_hyperplanes_cross(x, hps[i], hps[j])]
    assert any(scan_hyperplanes_cross(x, h, h) for h in hps)


def test_helly_on_cube():
    x = grid_complex(1, 1, 1)
    hps = hyperplanes(x)
    res = helly_check(x, hps)
    assert res.ok
    assert len(res.common_cube) == 8


def test_helly_rejects_non_cat0():
    x = torus_3x3()
    hps = hyperplanes(x)
    with pytest.raises(NotCat0Error):
        helly_check(x, hps[:2])


def test_helly_corpus_with_dimension_bound():
    for name, x in cat0_corpus():
        cat0 = is_cat0(x)
        hps = hyperplanes(x)
        crossing = {
            (h1.index, h2.index)
            for h1, h2 in itertools.combinations(hps, 2)
            if hyperplanes_cross(x, h1, h2)}
        # every pairwise-crossing family admits a common cube
        families = _crossing_cliques(len(hps), crossing)
        crossed = crossed_cube_sets(x)
        for fam in families:
            res = helly_check(x, [hps[i] for i in fam], cat0=cat0)
            assert res.ok, (name, fam)
            # the least common crossed cube of dimension >= |F|
            common = frozenset.intersection(*(crossed[i] for i in fam))
            assert res.common_cube == min(
                (c for c in common if cube_dim(c) >= len(fam)),
                key=lambda c: (len(c), c)), (name, fam)
        # the largest family realizes the dimension exactly
        top = max((len(f) for f in families), default=1 if hps else 0)
        if hps:
            assert top == x.dim, name


def _crossing_cliques(n, crossing):
    out = []

    def extend(clique, start):
        for k in range(start, n):
            if all((i, k) in crossing or (k, i) in crossing for i in clique):
                bigger = clique + [k]
                if len(bigger) >= 2:
                    out.append(tuple(bigger))
                extend(bigger, k + 1)

    extend([], 0)
    return out


# ---------------------------------------------------------------------------
# halfspace systems of complexes


def test_halfspace_system_of_edge():
    x = grid_complex(1)
    dec = halfspace_system_of(x)
    assert len(dec.system.hyperplanes) == 1


def test_halfspace_system_of_path_is_nested():
    from cubical import transversal

    x = path_complex(4)
    dec = halfspace_system_of(x)
    s = dec.system
    for (a, _), (c, _) in itertools.combinations(s.hyperplanes, 2):
        assert not transversal(s, a, c)


def test_halfspace_system_of_square_is_transversal():
    from cubical import transversal

    x = grid_complex(1, 1)
    dec = halfspace_system_of(x)
    s = dec.system
    (a, _), (c, _) = s.hyperplanes
    assert transversal(s, a, c)


def test_halfspace_system_rejects_torus():
    with pytest.raises(NotCat0Error):
        halfspace_system_of(torus_3x3())


def _assert_same_decomposition(x):
    # hyperplane i is square class i, whose ids the oracle lays out in id
    # order: h10 comes before h2. The order is the inclusion of the
    # oracle's members, pair by pair
    dec, oracle = halfspace_system_of(x), frozenset_halfspace_system_of(x)
    ids = [f"h{i}{sign}" for i in range(len(oracle.system.star_pairs)) for sign in "+-"]
    assert dec.system.star_pairs == tuple(zip(ids[::2], ids[1::2]))
    assert dec.system.halfspaces == oracle.system.halfspaces
    assert leq(dec.system) == leq(oracle.system)
    assert dec.members == oracle.members
    index = x.vertex_index
    sides = [sum(1 << index[v] for v in oracle.members[h]) for h in ids]
    assert dec.system == system_of_sides(ids, sides)


def test_halfspace_system_of_matches_frozenset_oracle_on_corpus():
    for _, x in cat0_corpus():
        _assert_same_decomposition(x)


@settings(max_examples=40, deadline=None)
@given(median_test_complexes(tops={1: 40, 2: 7, 3: 4}, glues=[None]))
def test_halfspace_system_of_matches_frozenset_oracle(x):
    _assert_same_decomposition(x)


def test_median_unique_on_all_triples_of_grid():
    # cross-check: the CAT(0) verdict matches per-triple median() calls
    x = grid_complex(3, 3)
    assert is_cat0(x).ok
    verts = x.labels
    for a in verts:
        for b in verts:
            for c in verts:
                assert median(x, a, b, c) is not None
