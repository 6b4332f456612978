"""Halfspace systems, orientations, flips, and dual complexes."""

from __future__ import annotations

import itertools

import pytest
from helpers import (
    PairSystem,
    TwoSat,
    all_corners_dual_complex,
    assert_families_on_diagonals,
    assert_sageev_isomorphism,
    bfs_distances,
    fixpoint_build_system,
    grid_complex,
    leq,
    lt,
    pair_build_system,
    pair_dual_complex,
    pair_is_vertex,
    pair_minimal,
    pair_seed_vertex,
    path_complex,
    preorder_cliques,
    scan_maximal_cubes,
    skey_star_layout,
    system_of_sides,
    tree_product,
)
from hypothesis import example, given, settings
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
    treespace_complex,
)
from cubical.complexes import canonical_cube, cube_dim
from cubical.errors import (
    ComparableComplementsError,
    CubicalError,
    CyclicOrderError,
    DuplicateCubeError,
    MissingFaceError,
    NestingViolationError,
    NotInvolutionError,
    NotMinimalError,
    SameHyperplaneError,
    SelfPairedError,
)
from cubical.graphs import bits
from cubical.pocsets import (
    DualComplex,
    HalfspaceSystem,
    _chosen,
    _dual_cubes,
    _star_layout,
    _system_of_crossings,
    _validated,
)
from cubical.util import skey


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
    assert lt(s, "a0+", "a1+")
    assert lt(s, "a1-", "a0-")  # forced by star-reversal


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


def _labels(draw, count):
    """``count`` distinct ids drawn from 0-99: all ints, all strs, all
    floats (n + 0.5, equal to no int), or a mix."""
    forms = {"int": int, "str": "h{}".format, "float": lambda n: n + 0.5}
    style = draw(st.sampled_from([*forms, "mixed"]))
    nums = draw(st.lists(st.integers(0, 99), min_size=count, max_size=count,
                         unique=True))
    if style != "mixed":
        return [forms[style](n) for n in nums]
    return [forms[draw(st.sampled_from(sorted(forms)))](n) for n in nums]


@st.composite
def valid_generator_sets(draw, max_hyperplanes=6):
    """(halfspaces, star pairs, leq generators) of a valid system: k
    distinct bipartitions of a set of 2-7 points, each half nonempty, and
    a random subset of the strict inclusions between halves. Any subset of
    a valid order closes to a valid order. Every list comes shuffled."""
    m = draw(st.integers(2, 7))
    k = draw(st.integers(0, min(max_hyperplanes, 2 ** (m - 1) - 1)))
    full = (1 << m) - 1
    cuts = draw(st.lists(st.integers(1, full - 1), min_size=k, max_size=k,
                         unique_by=lambda c: min(c, full ^ c)))
    names = _labels(draw, 2 * k)
    side = {}
    star = []
    for i, cut in enumerate(cuts):
        a, b = names[2 * i], names[2 * i + 1]
        side[a], side[b] = cut, full ^ cut
        star.append((a, b) if draw(st.booleans()) else (b, a))
    inclusions = [(a, b) for a in names for b in names
                  if a != b and side[a] & ~side[b] == 0]
    leq = draw(st.lists(st.sampled_from(inclusions), unique=True)) if inclusions else []
    return (draw(st.permutations(names)), draw(st.permutations(star)),
            draw(st.permutations(leq)))


@st.composite
def generator_sets(draw):
    """(halfspaces, star pairs, leq generators) on 1-5 hyperplanes, with
    int, str, float or mixed ids listed in a random order. Valid systems,
    valid systems with extra pairs, arbitrary pairs (so cycles, nesting
    violations and comparable complements all occur), and broken id lists
    and star maps."""
    kind = draw(st.sampled_from(["valid", "extra", "random", "broken"]))
    if kind in ("valid", "extra"):
        ids, star, leq = draw(valid_generator_sets(max_hyperplanes=5))
        ids = list(ids) or [0, 1]
        star = list(star) or [(0, 1)]
    else:
        k = draw(st.integers(1, 5))
        ids = _labels(draw, 2 * k)
        star = [(ids[2 * i], ids[2 * i + 1]) for i in range(k)]
        ids = draw(st.permutations(ids))
        leq = []
    if kind in ("extra", "random"):
        leq = list(leq) + draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
            min_size=1, max_size=2 * len(star) + 2))
    if kind == "broken":
        ids, star = list(ids), list(star)
        how = draw(st.sampled_from(
            ["duplicate", "self", "unpaired", "twice", "unknown star", "unknown leq"]))
        if how == "duplicate":
            ids.append(ids[0])
        elif how == "self":
            star.append((ids[0], ids[0]))
        elif how == "unpaired":
            ids.append("lonely")
        elif how == "twice":
            star.append((star[0][0], "lonely"))
            ids.append("lonely")
        elif how == "unknown star":
            star.append((ids[0], "ghost"))
        else:
            leq = [(ids[0], "ghost")]
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


_PAIRS4 = (["a+", "a-", "b+", "b-", "c+", "c-", "d+", "d-"],
           [("a+", "a-"), ("b+", "b-"), ("c+", "c-"), ("d+", "d-")])


@settings(max_examples=400, deadline=None)
@given(generator_sets())
# cycles, and an acyclic order whose paths one post-order sweep must close;
# in the third, positions 0-7 in id order, no root before b- (3) reaches
# the cycle c+ < d+ < c+ (4, 6), so the search enters it from root 3; the
# fourth is tests/fixtures/cyclic_order.json, and in the fifth the first
# root's path runs into a cycle
@example((*_PAIRS4, [("a+", "b+"), ("b+", "a+")]))
@example((*_PAIRS4, [("b+", "c+"), ("c+", "d+"), ("d+", "b+")]))
@example((*_PAIRS4, [("b-", "c+"), ("c+", "d+"), ("d+", "c+")]))
@example((*_PAIRS4, [("a+", "b+"), ("b+", "c+"), ("c+", "a+"), ("c+", "d+")]))
@example((*_PAIRS4, [("a+", "b+"), ("b+", "c+"), ("c+", "d+"), ("d+", "c+")]))
@example((*_PAIRS4, [("a+", "d-"), ("b+", "c+"), ("c+", "d+"), ("d+", "b+")]))
@example((*_PAIRS4, [("d+", "c+"), ("c+", "b+"), ("b+", "a+"), ("a-", "d+")]))
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


def _outcome(fn, *args):
    """What ``fn`` returns, or the class, message and details it raises."""
    try:
        return fn(*args)
    except CubicalError as exc:
        return type(exc), str(exc), exc.details


@settings(max_examples=400, deadline=None)
@given(generator_sets())
def test_build_system_matches_pair_oracle(system):
    got, expected = _outcome(build_system, *system), _outcome(pair_build_system, *system)
    if isinstance(expected, tuple):  # same error class, message and details
        assert got == expected
        return
    assert (got.halfspaces, got.star_pairs, leq(got)) == (
        expected.halfspaces, expected.star_pairs, expected.leq)
    assert got.hyperplanes == expected.hyperplanes
    position = got.position
    for p, h in enumerate(got.labels):
        assert got.below[p] == sum(1 << position[a] for a in expected.strictly_below[h])
        assert got.star[h] == expected.star[h]
    assert got.transversal_masks == expected.transversal_masks


def test_build_errors_match_pair_oracle():
    # one input per kind of invalid system; the witnesses are pinned
    cases = [
        (["a", "b", "a"], [], []),
        (["a", "b"], [("a", "c")], []),
        (["a"], [("a", "a")], []),
        (["a", "b", "c"], [("a", "b"), ("a", "c")], []),
        (["a", "b", "c"], [("a", "b")], []),
        (["a", "b"], [("a", "b")], [("a", "x")]),
        (["a", "b", "c", "d"], [("a", "b"), ("c", "d")], [("a", "c"), ("c", "a")]),
        ([2, 3, 0, 1], [(0, 1), (2, 3)], [(0, 2), (0, 3)]),
        (["a", "b"], [("a", "b")], [("b", "a")]),
    ]
    kinds = []
    for case in cases:
        got = _outcome(build_system, *case)
        assert got == _outcome(pair_build_system, *case)
        kinds.append((got[0].__name__, got[2]))
    assert kinds[-3:] == [
        ("CyclicOrderError", {"pair": ("a", "c")}),
        ("NestingViolationError", {"pair": ((0, 1), (2, 3)),
                                   "relations": [(0, 2), (0, 3)]}),
        ("ComparableComplementsError", {"halfspace": "a"}),
    ]


@settings(max_examples=400, deadline=None)
@given(generator_sets())
def test_star_layout_matches_skey_oracle(system):
    # ranking the ids once lays out the same pairs and sorted ids as
    # sorting each pair and then the pairs by skey; broken id lists and
    # star maps raise the same error, message and details
    ids, star, _ = system
    got, expected = _outcome(_star_layout, ids, star), _outcome(skey_star_layout, ids, star)
    assert got == expected
    assert repr(got) == repr(expected)  # the same objects: 1 and 1.0 print apart


@settings(max_examples=150, deadline=None)
@given(valid_generator_sets())
def test_vertices_seed_and_dual_match_pair_oracle(system):
    s, ps = build_system(*system), pair_build_system(*system)
    orientations = [Orientation(c) for c in itertools.product(*s.hyperplanes)]
    for o in orientations:  # every orientation of up to 6 hyperplanes
        res = is_vertex(s, o)
        assert res == pair_is_vertex(ps, o)
        if res.ok:
            assert minimal_halfspaces(s, o) == pair_minimal(ps, o)
    if len(s.hyperplanes) >= 2:
        swapped = Orientation(orientations[0].choices[::-1])
        assert _outcome(is_vertex, s, swapped) == _outcome(pair_is_vertex, ps, swapped)
    seed = seed_vertex(s)
    assert seed == pair_seed_vertex(ps)
    d = dual_complex(s, seed)
    order, complex_, families = pair_dual_complex(ps, seed)
    assert d.orientations == order
    assert d.complex.cubes == complex_.cubes
    assert_families_on_diagonals(d, families)
    masks = tuple(_chosen(s, o) for o in order)
    assert d.masks == masks
    for v, o in enumerate(order):  # bits and differences from the choice tuples
        diff = [i for i, (a, b) in enumerate(zip(o.choices, seed.choices)) if a != b]
        assert d.differing(v, 0) == d.differing(0, v) == diff
        assert d.bitmap(v) == "".join("1" if i in diff else "0"
                                      for i in range(len(s.hyperplanes)))
    oracle = DualComplex(system=ps, seed=seed, complex=complex_, masks=masks)
    assert maximal_cubes(d) == maximal_cubes(oracle) == scan_maximal_cubes(d)
    for cap in (0, len(order) - 1):
        assert _outcome(dual_complex, s, seed, cap) == _outcome(pair_dual_complex, ps, seed, cap)
    assert len(dual_complex(s, seed, len(order)).orientations) == len(order)


@settings(max_examples=200, deadline=None)
@given(valid_generator_sets(max_hyperplanes=12), st.randoms(use_true_random=False))
def test_seed_vertex_ignores_clause_order(system, rng):
    # the 2-SAT clauses of the closed order, added in any order, give the
    # seed that position order gives
    s = build_system(*system)
    clauses = sorted(leq(s), key=lambda r: (skey(r[0]), skey(r[1])))
    rng.shuffle(clauses)
    assert pair_seed_vertex(PairSystem.of(s), clauses) == seed_vertex(s)


def test_dump_load_round_trip():
    s = chain_system(3)
    data = dump_system(s)
    assert dump_system(load_system(data)) == data


def _skey_sorted_leq(s):
    return sorted(([a, b] for a, b in leq(s)), key=lambda p: (skey(p[0]), skey(p[1])))


def test_dump_system_sorts_leq_by_skey_on_mixed_ids():
    # a chain of four hyperplanes on ints, floats and strs: the pairs come
    # in the order of a (skey(a), skey(b)) sort
    ids = [10, "b", 2.5, "a", -3, "z", 7, 0.5]
    s = build_system(ids, [(10, "b"), (2.5, "a"), (-3, "z"), (7, 0.5)],
                     [(10, 2.5), (2.5, -3), (-3, 7)])
    leq = dump_system(s)["leq"]
    assert len(leq) == 12
    assert leq == _skey_sorted_leq(s)


@settings(max_examples=100, deadline=None)
@given(valid_generator_sets())
def test_dump_system_sorts_leq_by_skey(system):
    s = build_system(*system)
    assert dump_system(s)["leq"] == _skey_sorted_leq(s)


def test_dump_system_ignores_position_order():
    # the sides of a 7 x 7 grid's 12 walls, named w0+ ... w11- unpadded:
    # wall order puts w2 before w10, id order after it. The dump lists the
    # star pairs and the order in id order either way
    rows = [(1 << a) - 1 | ((1 << b) - 1) << 6 for a in range(7) for b in range(7)]
    pairs = [(f"w{i}+", f"w{i}-") for i in range(12)]
    s = _system_of_crossings(rows, pairs)
    assert s.star_pairs == tuple(pairs)
    rebuilt = build_system(s.labels, s.star_pairs, leq(s))
    assert rebuilt.star_pairs != s.star_pairs and leq(rebuilt) == leq(s)
    dumped = dump_system(s)
    assert dumped == dump_system(rebuilt)
    assert dumped["star"][:4] == [["w0+", "w0-"], ["w1+", "w1-"], ["w10+", "w10-"],
                                  ["w11+", "w11-"]]
    assert len(dumped["leq"]) == 2 * 15 * 2  # 2 factors, 15 nested wall pairs each, 2 relations a pair


# ---------------------------------------------------------------------------
# systems of sets, built valid


@st.composite
def crossing_rows(draw, max_walls=7, max_points=10):
    """Rows of crossed walls under the contract of ``_system_of_crossings``:
    point 0's row is 0, and some other point crosses every wall."""
    walls = draw(st.integers(0, max_walls))
    rows = [0] + draw(st.lists(st.integers(0, (1 << walls) - 1),
                               min_size=1, max_size=max_points))
    for i in range(walls):
        rows[draw(st.integers(1, len(rows) - 1))] |= 1 << i
    return walls, rows


@settings(max_examples=300, deadline=None)
@given(crossing_rows())
@example((2, [0, 0b11]))  # two walls with one "-" side
@example((3, [0, 0b001, 0b011, 0b111]))  # a chain
def test_system_of_crossings_is_built_valid(case):
    # the only defect such rows can have is two walls with identical
    # sides; every other system passes the input-file checks it is built
    # without, and orders the sides by inclusion
    walls, rows = case
    ids = [f"w{i}{sign}" for i in range(walls) for sign in "+-"]
    pairs = list(zip(ids[::2], ids[1::2]))
    full = (1 << len(rows)) - 1
    minus = [sum(1 << k for k, c in enumerate(rows) if c >> i & 1) for i in range(walls)]
    twins = [(minus.index(m), j) for j, m in enumerate(minus) if minus.index(m) < j]
    try:
        s = _system_of_crossings(rows, pairs)
    except NestingViolationError as err:
        i, j = twins[0]
        assert err.details == {"pair": (pairs[i][0], pairs[j][0])}
        assert "identical truncated sides" in err.message
        return
    assert not twins
    assert _validated(s, s.labels) is s
    sides = [side for m in minus for side in (full ^ m, m)]
    assert s == system_of_sides(ids, sides)


def test_system_of_crossings_refuses_an_empty_side():
    # a wall that no point crosses has an empty "-" side, which lies below
    # its complement; no caller passes one, as an edge of the wall crosses it
    pairs = [("w0+", "w0-"), ("w1+", "w1-"), ("w2+", "w2-")]
    with pytest.raises(ComparableComplementsError) as err:
        _system_of_crossings([0, 0b001, 0b101], pairs)
    assert err.value.details == {"halfspace": "w1-"}
    assert err.value.message == "halfspace 'w1-' is empty, so it lies below its complement"


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


def _assert_diagonal_law(s):
    # the corner opposite the base differs on exactly the cube's family, the
    # hyperplanes of its axis edges, each of which flips one of them
    d = dual_complex(s, seed_vertex(s))
    for cube in d.complex.cubes:
        k = cube_dim(cube)
        axes = [d.differing(cube[0], cube[1 << i]) for i in range(k)]
        assert all(len(flips) == 1 for flips in axes)
        fam = {flips[0] for flips in axes}
        base = d.orientations[cube[0]]
        opposite = d.orientations[cube[(1 << k) - 1]]
        differing = {i for i in range(len(s.hyperplanes))
                     if base.choices[i] != opposite.choices[i]}
        assert differing == fam and len(fam) == k


def test_diagonal_vertex_law():
    for s in [pairs_system(3), halfspace_system_of(grid_complex(2, 2)).system,
              *_cubulated_systems()]:
        _assert_diagonal_law(s)


@settings(max_examples=100, deadline=None)
@given(valid_generator_sets())
def test_diagonal_vertex_law_on_drawn_systems(system):
    _assert_diagonal_law(build_system(*system))


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

    # every cube the dual hands to the validating core is listed exactly once
    listed = []
    original = cubical.pocsets._complex_of_ranks

    def recording(labels, cubes_by_dim):
        listed.extend(c for cs in cubes_by_dim.values() for c in cs)
        return original(labels, cubes_by_dim)

    systems = [pairs_system(4), chain_system(4),
               halfspace_system_of(grid_complex(2, 3, 1)).system,
               *_cubulated_systems()]
    for s in systems:
        seed = seed_vertex(s)
        listed.clear()
        with monkeypatch.context() as m:
            m.setattr(cubical.pocsets, "_complex_of_ranks", recording)
            d = dual_complex(s, seed)
        assert len(listed) == len(d.complex.cubes)
        assert d == all_corners_dual_complex(s, seed)


def test_cube_walk_keeps_the_clique_pre_order():
    # the mask walk lists the families in the pre-order of the oracle, so a
    # duplicate cube is named as before; corner k flips fam[pos] for the
    # bits pos of k, and the family is the diagonal's mask difference
    systems = [pairs_system(4), chain_system(6),
               halfspace_system_of(grid_complex(2, 3, 1)).system, *_cubulated_systems()]
    for s in systems:
        d = dual_complex(s, seed_vertex(s))
        order, ids = list(d.masks), d.vertex_of
        minimal_at = [sum(1 << p for p in bits(v) if not s.below[p] & v) for v in order]
        expected = []
        for v in order:
            first = [p >> 1 for p in bits(v) if not s.below[p] & v and not p & 1]
            for fam in preorder_cliques(PairSystem.of(s).transversal_adjacency, first):
                corners = [v]
                for i in fam:
                    corners += [c ^ (3 << 2 * i) for c in corners]
                if fam:
                    ranked = tuple(ids[c] for c in corners)
                    assert d.differing(ranked[0], ranked[-1]) == list(fam)
                    expected.append(ranked)
        assert list(_dual_cubes(s, order, minimal_at, ids)) == expected


def _assert_covers_by_definition(s):
    # b covers a: a < b with nothing strictly between, on ids
    labels = s.labels
    for p, a in enumerate(labels):
        covering = {b for b in labels if lt(s, a, b)
                    and not any(lt(s, a, c) and lt(s, c, b) for c in labels)}
        assert {labels[q] for q in range(len(labels)) if s.covers[p] >> q & 1} == covering


def _assert_covers(s, seeded):
    # build_system seeds covers off its closure sweep; the systems of sets,
    # which have no generators, find them by the skip loop on first use.
    # Both must equal the skip loop's on the same order, and the definition
    assert ("covers" in s.__dict__) is seeded
    if seeded:
        assert s.covers == HalfspaceSystem(s.star_pairs, s.above).covers
    _assert_covers_by_definition(s)


# the oracle assembles every cube at each of its corners: a 12-cube has
# 3^12 - 2^12 of them, so larger duals are compared by their cap errors
ORACLE_CAP = 100


@settings(max_examples=150, deadline=None)
@given(valid_generator_sets(max_hyperplanes=12))
def test_covers_and_dual_match_oracles(system):
    # the dual's minimal sets are updated through covers, found once per
    # vertex; the pair-set BFS recomputes them at every vertex
    s = build_system(*system)
    _assert_covers(s, seeded=True)
    seed = seed_vertex(s)
    assert (_outcome(dual_complex, s, seed, ORACLE_CAP)
            == _outcome(all_corners_dual_complex, s, seed, ORACLE_CAP))


def test_covers_and_dual_match_oracles_on_deep_systems():
    trees = ([(0, 1), (1, 2), (1, 3), (3, 4)], [(0, 1), (0, 2), (0, 3)],
             [(0, 1), (1, 2), (2, 3), (2, 4)])
    systems = [(chain_system(40), True),  # "-" sides in id order run down the chain
               (halfspace_system_of(tree_product(*trees)).system, False),
               *((s, False) for s in _cubulated_systems())]  # all three _system_of_crossings
    for s, seeded in systems:
        _assert_covers(s, seeded)
        seed = seed_vertex(s)
        assert dual_complex(s, seed) == all_corners_dual_complex(s, seed)


def _relisted(cubes):
    # each cube again, reflected along its first axis: corner j goes to j ^ 1
    for ranked in cubes:
        yield ranked
        yield tuple(ranked[j ^ 1] for j in range(len(ranked)))


def _squares_twice(cubes):
    # each square again, as it stands, after edges that are all sound
    for ranked in cubes:
        yield ranked
        if len(ranked) == 4:
            yield ranked


@pytest.mark.parametrize("error,mangle", [
    (DuplicateCubeError, lambda cubes: (c for cube in cubes for c in (cube, cube))),
    (DuplicateCubeError, _relisted),
    (DuplicateCubeError, _squares_twice),
    (MissingFaceError, lambda cubes: (c for c in cubes if len(c) != 2)),
])
def test_dual_cubes_pass_the_builder_checks(monkeypatch, error, mangle):
    # each cube or each square assembled twice, as it stands or under a
    # symmetry, or the edges left out, on a 3-cube; a duplicate is named at
    # its first repeat in walk order, the first cube that repeats the one
    # walked before it
    import cubical.pocsets

    original = cubical.pocsets._dual_cubes
    walked = []  # the mangled walk, as the dual reads it

    def mangled(*args):
        for cube in mangle(original(*args)):
            walked.append(cube)
            yield cube

    monkeypatch.setattr(cubical.pocsets, "_dual_cubes", mangled)
    s = pairs_system(3)
    with pytest.raises(error) as info:
        dual_complex(s, seed_vertex(s))
    if error is DuplicateCubeError:
        repeat = next(b for a, b in zip(walked, walked[1:])
                      if canonical_cube(a) == canonical_cube(b))
        assert info.value.details == {"cube": repeat, "dim": cube_dim(repeat)}
    # tree space's cubes take the same checks, on ranks in name order; a
    # repeat is named by its vertex names
    with pytest.raises(error) as info:
        treespace_complex(4)
    if error is DuplicateCubeError:
        assert all(isinstance(v, str) for v in info.value.details["cube"])


def test_seed_vertex_matches_twosat_on_truncations():
    # the closed form against the 2-SAT oracle on Coxeter truncations
    for s in _cubulated_systems():
        clauses = sorted(leq(s), key=lambda r: (skey(r[0]), skey(r[1])))
        assert seed_vertex(s) == pair_seed_vertex(PairSystem.of(s), clauses)


def test_maximal_cubes_match_face_scan_on_corpus():
    # the face record of build_complex against the face-of-bigger scan, on
    # the dual of every system the tests build
    from helpers import cat0_corpus

    systems = [pairs_system(k) for k in range(1, 5)] + [chain_system(k) for k in range(1, 6)]
    systems += [halfspace_system_of(x).system for _, x in cat0_corpus()]
    systems += [halfspace_system_of(grid_complex(2, 3, 1)).system, *_cubulated_systems()]
    for s in systems:
        d = dual_complex(s, seed_vertex(s))
        scanned = scan_maximal_cubes(d)
        assert maximal_cubes(d) == scanned
        assert d.complex.maximal == {c for c, _ in scanned}


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


def test_transversal_masks_match_transversal():
    systems = [pairs_system(3), chain_system(4),
               halfspace_system_of(grid_complex(2, 2)).system,
               halfspace_system_of(path_complex(3)).system]
    for s in systems:
        masks, adj = s.transversal_masks, PairSystem.of(s).transversal_adjacency
        for i, j in itertools.permutations(range(len(s.hyperplanes)), 2):
            assert bool(masks[i] >> 2 * j & 1) == (j in adj[i]) == transversal(
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
        seed = dec.principal_orientation(x.labels[0])
        d = dual_complex(dec.system, seed)
        assert_sageev_isomorphism(x, dec, d)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_round_trip_random_trees(n, rng):
    from helpers import tree_complex

    edges = [(rng.randrange(i), i) for i in range(1, n)]
    x = tree_complex(edges)
    dec = halfspace_system_of(x)
    seed = dec.principal_orientation(0)
    d = dual_complex(dec.system, seed)
    assert_sageev_isomorphism(x, dec, d)


def test_dual_of_empty_system_is_a_point():
    s = build_system([], [], [])
    d = dual_complex(s, Orientation(()))
    assert len(d.complex.vertices) == 1
    assert not d.complex.cubes
