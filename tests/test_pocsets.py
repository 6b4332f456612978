"""Halfspace systems, orientations, flips, and dual complexes."""

from __future__ import annotations

import itertools

import pytest
from helpers import (
    all_corners_dual_complex,
    bfs_distances,
    fixpoint_build_system,
    grid_complex,
    path_complex,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical import (
    Orientation,
    build_system,
    dual_complex,
    dump_system,
    flip,
    halfspace_system_of,
    is_cat0,
    is_vertex,
    load_system,
    maximal_cubes,
    minimal_halfspaces,
    seed_vertex,
    transversal,
)
from cubical.complexes import cube_dim
from cubical.errors import (
    ComparableComplementsError,
    CubicalError,
    CyclicOrderError,
    NestingViolationError,
    NotInvolutionError,
    NotMinimalError,
    SameHyperplaneError,
    SelfPairedError,
)
from cubical.graphs import complex_isomorphic
from cubical.twosat import TwoSat


def pairs_system(n, leq=()):
    ids, star = [], []
    for i in range(n):
        ids += [f"a{i}+", f"a{i}-"]
        star.append((f"a{i}+", f"a{i}-"))
    return build_system(ids, star, leq)


def chain_system(k):
    return pairs_system(k, [(f"a{i}+", f"a{i + 1}+") for i in range(k - 1)])


# ---------------------------------------------------------------------------
# 2-SAT oracle: exhaustive assignment search on small instances


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_twosat_against_brute_force(n, data):
    n_clauses = data.draw(st.integers(0, 10))
    clauses = [
        (data.draw(st.integers(0, 2 * n - 1)), data.draw(st.integers(0, 2 * n - 1)))
        for _ in range(n_clauses)
    ]
    sat = TwoSat(n)
    for a, b in clauses:
        sat.add_clause(a, b)
    got = sat.solve()

    def satisfies(assign):
        def val(lit):
            v = assign[lit >> 1]
            return v if lit % 2 == 0 else not v
        return all(val(a) or val(b) for a, b in clauses)

    brute = any(satisfies(bits) for bits in itertools.product([True, False], repeat=n))
    if brute:
        assert got is not None and satisfies(got)
    else:
        assert got is None


# ---------------------------------------------------------------------------
# building systems


def test_single_pair_valid():
    s = pairs_system(1)
    assert len(s.hyperplanes) == 1


def test_nesting_violation():
    with pytest.raises(NestingViolationError):
        pairs_system(2, [("a0+", "a1+"), ("a0+", "a1-")])


def test_nested_pair_closure():
    s = pairs_system(2, [("a0+", "a1+")])
    assert s.lt("a0+", "a1+")
    assert s.lt("a1-", "a0-")  # forced by star-reversal


def test_self_paired_rejected():
    with pytest.raises(SelfPairedError):
        build_system(["a"], [("a", "a")], [])


def test_unpaired_rejected():
    with pytest.raises(NotInvolutionError):
        build_system(["a", "b", "c"], [("a", "b")], [])


def test_comparable_complements_rejected():
    with pytest.raises(ComparableComplementsError):
        build_system(["a", "b"], [("a", "b")], [("a", "b")])


def test_cyclic_order_rejected():
    with pytest.raises(CyclicOrderError):
        pairs_system(2, [("a0+", "a1+"), ("a1+", "a0+")])


@st.composite
def generator_sets(draw):
    """(halfspaces, star pairs, leq generators) on 1-5 hyperplanes, with int
    or str ids listed in a random order. The generators are arbitrary pairs,
    so cycles, nesting violations and comparable complements all occur."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        star = [(2 * i, 2 * i + 1) for i in range(k)]
    else:
        star = [(f"h{i}+", f"h{i}-") for i in range(k)]
    ids = draw(st.permutations([h for pair in star for h in pair]))
    leq = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                        max_size=2 * k + 2))
    return ids, star, leq


def _mutually_below(ids, star_pairs, leq):
    """Pairs (a, b), a != b, each below the other in the closure of the
    generators and their star images, by a plain Floyd-Warshall pass."""
    star = {}
    for a, b in star_pairs:
        star[a], star[b] = b, a
    below = {(a, b) for a, b in leq} | {(star[b], star[a]) for a, b in leq}
    for k in ids:
        below |= {(a, b) for a, b2 in below if b2 == k for k2, b in below if k2 == k}
    return {(a, b) for a, b in below if a != b and (b, a) in below}


@settings(max_examples=400, deadline=None)
@given(generator_sets())
def test_build_system_matches_fixpoint_closure(system):
    try:
        expected = fixpoint_build_system(*system)
    except CubicalError as exc:
        with pytest.raises(CubicalError) as info:
            build_system(*system)
        assert type(info.value) is type(exc)
        if isinstance(exc, CyclicOrderError):
            # the first mutually-below pair in input order
            ids = system[0]
            mutual = _mutually_below(*system)
            first = next((a, b) for a in ids for b in ids if (a, b) in mutual)
            assert info.value.details["pair"] == first
    else:
        assert build_system(*system) == expected


def test_dump_load_round_trip():
    s = chain_system(3)
    data = dump_system(s)
    assert dump_system(load_system(data)) == data


# ---------------------------------------------------------------------------
# transversality, vertices, flips


def test_transversal_square_vs_nested():
    free = pairs_system(2)
    assert transversal(free, "a0+", "a1+")
    nested = chain_system(2)
    assert not transversal(nested, "a0+", "a1+")
    with pytest.raises(SameHyperplaneError):
        transversal(free, "a0+", "a0-")


def test_path_end_hyperplanes_not_transversal():
    dec = halfspace_system_of(path_complex(3))
    s = dec.system
    first, last = s.hyperplanes[0][0], s.hyperplanes[-1][0]
    assert not transversal(s, first, last)


def test_is_vertex_single_pair():
    s = pairs_system(1)
    assert is_vertex(s, Orientation(("a0+",))).ok
    assert is_vertex(s, Orientation(("a0-",))).ok


def test_is_vertex_nested_violation():
    s = chain_system(2)
    # choosing the small halfspace and the complement of the big one
    bad = Orientation(("a0+", "a1-"))
    res = is_vertex(s, bad)
    assert not res.ok and res.witness == ("a0+", "a1-")


def test_square_all_orientations_are_vertices():
    s = pairs_system(2)
    for combo in itertools.product("+-", repeat=2):
        o = Orientation((f"a0{combo[0]}", f"a1{combo[1]}"))
        assert is_vertex(s, o).ok


def test_seed_vertex_consistent_everywhere():
    for s in [pairs_system(1), pairs_system(3), chain_system(4),
              halfspace_system_of(grid_complex(2, 2)).system]:
        assert is_vertex(s, seed_vertex(s)).ok


def test_minimal_halfspaces_chain():
    s = chain_system(2)
    v = Orientation(("a0+", "a1+"))
    assert minimal_halfspaces(s, v) == ("a0+",)


def test_minimal_halfspaces_square():
    s = pairs_system(2)
    v = Orientation(("a0+", "a1+"))
    assert set(minimal_halfspaces(s, v)) == {"a0+", "a1+"}


def test_flip_involution_single_pair():
    s = pairs_system(1)
    v = Orientation(("a0+",))
    w = flip(s, v, 0)
    assert w.choices == ("a0-",)
    assert flip(s, w, 0) == v


def test_flip_not_minimal():
    s = chain_system(2)
    v = Orientation(("a0+", "a1+"))
    with pytest.raises(NotMinimalError):
        flip(s, v, 1)
    w = flip(s, v, 0)
    assert is_vertex(s, w).ok


# ---------------------------------------------------------------------------
# dual complexes


def test_dual_single_pair_is_edge():
    s = pairs_system(1)
    d = dual_complex(s, seed_vertex(s))
    assert len(d.complex.vertices) == 2
    assert len(d.complex.edges) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_dual_of_chain_is_path(k):
    s = chain_system(k)
    d = dual_complex(s, seed_vertex(s))
    x = d.complex
    assert len(x.vertices) == k + 1
    assert len(x.edges) == k
    assert x.dim == 1
    degrees = sorted(len(x.adjacency[v]) for v in x.vertices)
    assert degrees == [1, 1] + [2] * (k - 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_dual_of_transversal_pairs_is_cube(n):
    s = pairs_system(n)
    d = dual_complex(s, seed_vertex(s))
    x = d.complex
    assert len(x.vertices) == 2 ** n
    assert x.dim == n
    assert len(x.by_dim[n]) == 1
    assert is_cat0(x).ok


def test_dual_components_are_cat0():
    for s in [chain_system(4), pairs_system(3),
              halfspace_system_of(grid_complex(2, 2)).system,
              halfspace_system_of(grid_complex(2, 1, 1)).system]:
        d = dual_complex(s, seed_vertex(s))
        assert is_cat0(d.complex).ok


def test_flip_involution_everywhere():
    for s in [chain_system(3), pairs_system(3)]:
        d = dual_complex(s, seed_vertex(s))
        for v in d.orientations:
            for h in minimal_halfspaces(s, v):
                i = s.hyperplane_of[h]
                w = flip(s, v, i)
                assert flip(s, w, i) == v


def test_diagonal_vertex_law():
    # the corner opposite the base differs on exactly the cube's family
    for s in [pairs_system(3), halfspace_system_of(grid_complex(2, 2)).system]:
        d = dual_complex(s, seed_vertex(s))
        for cube, fam in d.cube_families.items():
            k = cube_dim(cube)
            base = d.orientations[cube[0]]
            opposite = d.orientations[cube[(1 << k) - 1]]
            differing = {i for i in range(len(s.hyperplanes))
                         if base.choices[i] != opposite.choices[i]}
            assert differing == set(fam)


def test_d1_coherence():
    # graph distance equals the number of differing hyperplanes
    for s in [chain_system(5), pairs_system(3),
              halfspace_system_of(grid_complex(2, 2)).system]:
        d = dual_complex(s, seed_vertex(s))
        dist = bfs_distances(d.complex)
        for i, j in itertools.combinations(range(len(d.orientations)), 2):
            hamming = sum(
                a != b for a, b in zip(d.orientations[i].choices,
                                       d.orientations[j].choices))
            assert dist[i, j] == hamming


def _cubulated_systems():
    from cubical.coxeter import cayley_ball, halfspace_system, parse_system

    for matrix, radius in (([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 8),
                           ([[1, 3, 2], [3, 1, 0], [2, 0, 1]], 9)):
        yield halfspace_system(cayley_ball(parse_system(matrix), radius), 2).system


def test_dual_assembles_each_cube_once(monkeypatch):
    import cubical.pocsets

    calls = []
    original = cubical.pocsets.canonical_cube

    def counting(corners):
        calls.append(corners)
        return original(corners)

    systems = [pairs_system(4), chain_system(4),
               halfspace_system_of(grid_complex(2, 3, 1)).system,
               *_cubulated_systems()]
    for s in systems:
        seed = seed_vertex(s)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(cubical.pocsets, "canonical_cube", counting)
            d = dual_complex(s, seed)
        assert len(calls) == len(d.complex.cubes)
        assert d == all_corners_dual_complex(s, seed)


def test_cube_criterion_brute_force():
    # subsets of minimal halfspaces span a cube iff pairwise transversal
    systems = [pairs_system(3), chain_system(3),
               halfspace_system_of(grid_complex(2, 2)).system]
    for s in systems:
        assert len(s.hyperplanes) <= 6
        d = dual_complex(s, seed_vertex(s))
        vertex_set = set(d.orientations)
        for v in d.orientations:
            mins = minimal_halfspaces(s, v)
            for size in (2, 3):
                for combo in itertools.combinations(mins, size):
                    corners_exist = True
                    for bits in range(1 << size):
                        choices = list(v.choices)
                        for pos, h in enumerate(combo):
                            if (bits >> pos) & 1:
                                choices[s.hyperplane_of[h]] = s.star[h]
                        if Orientation(tuple(choices)) not in vertex_set:
                            corners_exist = False
                            break
                    pairwise = all(
                        transversal(s, a, b)
                        for a, b in itertools.combinations(combo, 2))
                    assert corners_exist == pairwise


def test_transversal_adjacency_matches_transversal():
    systems = [pairs_system(3), chain_system(4),
               halfspace_system_of(grid_complex(2, 2)).system,
               halfspace_system_of(path_complex(3)).system]
    for s in systems:
        adj = s.transversal_adjacency
        for i, j in itertools.permutations(range(len(s.hyperplanes)), 2):
            assert (j in adj[i]) == transversal(
                s, s.hyperplanes[i][0], s.hyperplanes[j][1])


def test_maximal_cubes_path_and_square():
    s = chain_system(3)
    cubes = maximal_cubes(dual_complex(s, seed_vertex(s)))
    assert sorted(len(fam) for _, fam in cubes) == [1, 1, 1]
    s = pairs_system(2)
    cubes = maximal_cubes(dual_complex(s, seed_vertex(s)))
    assert [len(fam) for _, fam in cubes] == [2]


def test_round_trip_small():
    for x in [grid_complex(2, 2), path_complex(3), grid_complex(1, 1, 1)]:
        dec = halfspace_system_of(x)
        seed = dec.principal_orientation(next(iter(x.vertices)))
        d = dual_complex(dec.system, seed)
        assert complex_isomorphic(x, d.complex) is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_round_trip_random_trees(n, rng):
    from helpers import tree_complex

    edges = [(rng.randrange(i), i) for i in range(1, n)]
    x = tree_complex(edges)
    dec = halfspace_system_of(x)
    seed = dec.principal_orientation(0)
    d = dual_complex(dec.system, seed)
    assert complex_isomorphic(x, d.complex) is not None


def test_dual_of_empty_system_is_a_point():
    s = build_system([], [], [])
    d = dual_complex(s, Orientation(()))
    assert len(d.complex.vertices) == 1
    assert not d.complex.cubes
