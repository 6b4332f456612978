"""Coxeter systems: reduction against exact group models, balls, walls,
parity, roots, halfspace systems, cubulation, ends."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from helpers import (
    AffinePermOracle,
    DihedralOracle,
    PGL2ZOracle,
    braid_reduce_word,
    crossed_walls,
    distance_members,
    distance_orientation,
    distance_side,
    frozenset_leq,
    frozenset_trust_report,
    leq,
    oracle_shortlex_forms,
    reflection_of_edge,
    reflection_word_walls,
    system_of_sides,
    two_pass_cayley_ball,
    wall_crossings_on_path,
    walked_crossings,
    walked_parity,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubical import (
    cayley_ball,
    crossing_parity,
    cubulate,
    distance,
    distances_differ_by_one,
    dump_matrix,
    ends_profile,
    halfspace,
    halfspace_system,
    is_cat0,
    load_matrix,
    parse_system,
    reduce_word,
    walls,
    word_length,
    words_equal,
)
from cubical.coxeter import (
    _hid,
    _system_of_crossings,
    act_on_halfspace,
)
from cubical.pocsets import _validated
from cubical.errors import (
    BadDiagonalError,
    CubicalError,
    EntryBelowTwoError,
    InputFormatError,
    NestingViolationError,
    NotSymmetricError,
)


def dihedral(m):
    return parse_system([[1, m], [m, 1]])


A2_TILDE = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
PGL2Z = [[1, 3, 2], [3, 1, 0], [2, 0, 1]]
TRIANGLE_237 = [[1, 2, 3], [2, 1, 7], [3, 7, 1]]


# ---------------------------------------------------------------------------
# parsing


def test_parse_landmark_matrices():
    assert parse_system(A2_TILDE).rank == 3
    pgl = parse_system(PGL2Z)
    assert pgl.m(1, 2) == math.inf
    assert pgl.diagram_edges() == [(0, 1, 3), (1, 2, math.inf)]


def test_parse_rejections():
    with pytest.raises(NotSymmetricError):
        parse_system([[1, 2], [3, 1]])
    with pytest.raises(BadDiagonalError):
        parse_system([[2, 3], [3, 1]])
    with pytest.raises(EntryBelowTwoError):
        parse_system([[1, 1], [1, 1]])


def test_matrix_json_round_trip():
    sys_ = parse_system(PGL2Z)
    assert load_matrix(dump_matrix(sys_)).matrix == sys_.matrix


# ---------------------------------------------------------------------------
# reduction: frozen examples, then oracle sweeps


def test_reduce_examples():
    a2 = dihedral(3)
    assert reduce_word(a2, (0, 1, 0)) == reduce_word(a2, (1, 0, 1)) == (0, 1, 0)
    assert reduce_word(a2, (0, 0)) == ()
    i24 = dihedral(4)
    assert len(reduce_word(i24, (0, 1, 0, 1, 0))) == 3
    a2t = parse_system(A2_TILDE)
    assert reduce_word(a2t, (0, 1)) != reduce_word(a2t, (1, 0))


def test_longest_element_of_s3():
    sys_ = dihedral(3)
    assert words_equal(sys_, (0, 1, 0), (1, 0, 1))
    assert word_length(sys_, (0, 1, 0)) == 3
    assert words_equal(sys_, (0, 1), (0, 1, 0, 0))


@pytest.mark.parametrize("m", range(2, 7))
def test_dihedral_oracle_all_words(m):
    """reduce agrees with the explicit normal form on every word of
    length <= 8 (511 words per group)."""
    sys_ = dihedral(m)
    oracle = DihedralOracle(m)
    forms = oracle_shortlex_forms(oracle, 2, 2 * m)
    assert len(forms) == 2 * m
    checked = 0
    for length in range(0, 9):
        for word in itertools.product((0, 1), repeat=length):
            expected = forms[oracle.eval_word(word)]
            assert reduce_word(sys_, word) == expected
            checked += 1
    assert checked == 511


def test_affine_oracle_relations():
    oracle = AffinePermOracle()
    for s in range(3):
        assert oracle.eval_word((s, s)) == oracle.identity()
    for s, t in itertools.permutations(range(3), 2):
        assert oracle.eval_word((s, t) * 3) == oracle.identity()


def test_affine_oracle_words():
    sys_ = parse_system(A2_TILDE)
    oracle = AffinePermOracle()
    forms = oracle_shortlex_forms(oracle, 3, 5)
    rng = random.Random(11)
    for _ in range(400):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(0, 9)))
        canon = reduce_word(sys_, word)
        g = oracle.eval_word(word)
        if g in forms:
            assert canon == forms[g]
        assert oracle.eval_word(canon) == g


def test_pgl_oracle_relations():
    oracle = PGL2ZOracle()
    ident = oracle.identity()
    for s in range(3):
        assert oracle.eval_word((s, s)) == ident
    assert oracle.eval_word((0, 1) * 3) == ident
    assert oracle.eval_word((0, 2) * 2) == ident
    assert oracle.eval_word((1, 2) * 6) != ident  # free pair


def test_pgl_oracle_words():
    sys_ = parse_system(PGL2Z)
    oracle = PGL2ZOracle()
    forms = oracle_shortlex_forms(oracle, 3, 5)
    rng = random.Random(13)
    for _ in range(400):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(0, 9)))
        canon = reduce_word(sys_, word)
        g = oracle.eval_word(word)
        if g in forms:
            assert canon == forms[g]
        assert oracle.eval_word(canon) == g


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10))
def test_reduce_properties(letters):
    sys_ = parse_system(A2_TILDE)
    w = tuple(letters)
    canon = reduce_word(sys_, w)
    assert len(canon) <= len(w)
    assert (len(w) - len(canon)) % 2 == 0  # moves change length by 0 or 2
    assert reduce_word(sys_, canon) == canon
    assert reduce_word(sys_, w + tuple(reversed(w))) == ()


# Tits' representation against the braid-orbit search: m = 2, 3, 4, 5, 7, 8
# and infinity, lcm M = 1, 4, 5, 7, 8, 20 and 35; in (2,4,5) and (5,7,inf) M
# is a proper multiple of the entries, so 2cos(pi/m) is a Chebyshev
# polynomial of degree >= 2 in lambda
ORACLE_GROUPS = {
    "A2~": A2_TILDE, "PGL(2,Z)": PGL2Z, "(3,3,4)": [[1, 3, 3], [3, 1, 4], [3, 4, 1]],
    "(4,4,4)": [[1, 4, 4], [4, 1, 4], [4, 4, 1]], "(2,3,7)": TRIANGLE_237,
    "I2(5)": [[1, 5], [5, 1]], "I2(7)": [[1, 7], [7, 1]], "I2(8)": [[1, 8], [8, 1]],
    "D_inf": [[1, 0], [0, 1]], "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    "(5,7,inf)": [[1, 5, 7], [5, 1, 0], [7, 0, 1]], "(2,4,5)": [[1, 2, 4], [2, 1, 5], [4, 5, 1]],
}


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_reduce_word_matches_braid_orbit_search(name):
    sys_ = parse_system(ORACLE_GROUPS[name])
    rng = random.Random(name)
    memo: dict = {}
    for _ in range(300):
        word = tuple(rng.randrange(sys_.rank) for _ in range(rng.randrange(16)))
        assert reduce_word(sys_, word) == braid_reduce_word(sys_, word, memo), word


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_walls_match_reflection_word_grouping(name):
    for radius in range(7):
        ball = cayley_ball(parse_system(ORACLE_GROUPS[name]), radius)
        assert walls(ball) == reflection_word_walls(ball)


def test_exact_sign_past_float_precision():
    # in I2(5), lambda = 2cos(pi/5) is the golden ratio, so the Fibonacci
    # numbers give F(n+1) - F(n) lambda = (-1/lambda)^n: below 10^-20 at
    # n = 100, where F(n) needs 69 bits and float evaluation says nothing
    tits = parse_system([[1, 5], [5, 1]]).tits
    assert tits.degree == 2
    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 101):
        assert tits.sign((fib[n + 1], -fib[n]), 0) == (-1) ** n, n
    assert len(tits._levels) == 2  # 80 bits, then 160: refined once, and kept
    golden = 2 * math.cos(math.pi / 5)
    assert any(math.copysign(1, fib[n + 1] - fib[n] * golden) != (-1) ** n
               for n in range(60, 101))


def test_degree_ceiling_checked_before_tables(monkeypatch, tmp_path, capsys):
    import json

    import cubical.coxeter as cox
    from cubical.cli import main
    from cubical.errors import CapExceededError

    assert cox.MAX_DEGREE == 128
    at = parse_system([[1, 257], [257, 1]])  # D = phi(514) / 2 = 128
    assert at.tits.degree == 128
    assert reduce_word(at, (0, 1) * 130) == (1, 0) * 127
    monkeypatch.setattr(cox, "_lambda_polynomial", None)  # no table may be built
    for matrix, degree in (([[1, 263], [263, 1]], 131),
                           ([[1, 89, 2], [89, 1, 97], [2, 97, 1]], 4224)):
        with pytest.raises(CapExceededError) as err:
            parse_system(matrix).tits
        assert err.value.details == {"cap": 128, "degree": degree}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 89, 2], [89, 1, 97], [2, 97, 1]]}))
    assert main(["coxeter", "reduce", "--matrix", str(path), "--word", " ".join("123" * 7)]) == 2
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert certificate["error"] == "cap_exceeded" and certificate["degree"] == 4224
    # past lcm 4 * 128^2, D = phi(2 lcm) / 2 >= sqrt(lcm) / 2 is over the cap
    # without factoring: a 21-digit prime entry would stall trial division
    monkeypatch.setattr(cox, "_primes", None)
    for m in (4 * 128 ** 2 + 1, 100000000000000000039):
        with pytest.raises(CapExceededError) as err:
            parse_system([[1, m], [m, 1]]).tits
        assert err.value.details == {"cap": 128, "lcm": m}
    path.write_text(json.dumps({"rank": 2, "m": [[1, 100000000000000000039],
                                                 [100000000000000000039, 1]]}))
    assert main(["coxeter", "reduce", "--matrix", str(path), "--word", "1 2"]) == 2
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert certificate["error"] == "cap_exceeded" and certificate["lcm"] == 100000000000000000039


# ---------------------------------------------------------------------------
# balls


def test_ball_sizes_dihedral():
    for m in range(2, 7):
        ball = cayley_ball(dihedral(m), 2 * m)
        assert len(ball.elements) == 2 * m


def test_ball_sizes_affine():
    sys_ = parse_system(A2_TILDE)
    ball = cayley_ball(sys_, 2)
    assert len(ball.elements) == 10  # 1 + 3 + 6
    ball4 = cayley_ball(sys_, 4)
    assert [len(ball4.sphere(r)) for r in range(5)] == [1, 3, 6, 9, 12]


def test_ball_matches_oracle_elements():
    sys_ = parse_system(A2_TILDE)
    ball = cayley_ball(sys_, 4)
    forms = oracle_shortlex_forms(AffinePermOracle(), 3, 4)
    assert sorted(ball.elements) == sorted(forms.values())

    pgl = parse_system(PGL2Z)
    ball = cayley_ball(pgl, 4)
    forms = oracle_shortlex_forms(PGL2ZOracle(), 3, 4)
    assert sorted(ball.elements) == sorted(forms.values())


LANDMARKS = {
    "I2(3)": [[1, 3], [3, 1]], "I2(4)": [[1, 4], [4, 1]], "I2(5)": [[1, 5], [5, 1]],
    "A2~": A2_TILDE, "PGL(2,Z)": PGL2Z, "(2,3,7)": TRIANGLE_237,
    "(3,3,4)": [[1, 3, 3], [3, 1, 4], [3, 4, 1]], "D_inf": [[1, 0], [0, 1]],
}


@pytest.mark.parametrize("name", LANDMARKS)
def test_ball_matches_two_pass_oracle(name):
    def outcome(build, radius, cap):
        try:
            ball = build(parse_system(LANDMARKS[name]), radius, cap)
        except CubicalError as exc:
            return type(exc), str(exc), exc.certificate()
        return ball.elements, ball.edges, ball.points

    for radius in range(7):
        elements, edges, points = outcome(two_pass_cayley_ball, radius, 100_000)
        assert outcome(cayley_ball, radius, 100_000) == (elements, edges, points)
        for cap in (1, len(elements) - 1, len(elements)):
            assert outcome(cayley_ball, radius, cap) == outcome(
                two_pass_cayley_ball, radius, cap)


def test_radius_zero():
    ball = cayley_ball(parse_system(A2_TILDE), 0)
    assert ball.elements == ((),)
    assert not ball.edges


def test_edge_levels():
    ball = cayley_ball(parse_system(PGL2Z), 3)
    for u, v, s in ball.edges:
        assert len(v) == len(u) + 1
        assert reduce_word(ball.system, u + (s,)) == v


# ---------------------------------------------------------------------------
# the plus/minus-one law


def test_plus_minus_one_exhaustive_s3():
    ball = cayley_ball(dihedral(3), 3)
    for x in ball.elements:
        for u, v, _ in ball.edges:
            assert distances_differ_by_one(ball, x, u, v)


def test_plus_minus_one_exhaustive_affine():
    ball = cayley_ball(parse_system(A2_TILDE), 3)
    for x in ball.elements:
        for u, v, _ in ball.edges:
            assert distances_differ_by_one(ball, x, u, v)


# ---------------------------------------------------------------------------
# walls


def test_s3_walls():
    ball = cayley_ball(dihedral(3), 3)
    ws = walls(ball)
    assert len(ws) == 3
    assert sorted(w.reflection for w in ws) == [(0,), (0, 1, 0), (1,)]
    assert all(len(w.edges) == 2 for w in ws)


def test_radius_one_walls():
    for matrix in (A2_TILDE, PGL2Z):
        ball = cayley_ball(parse_system(matrix), 1)
        ws = walls(ball)
        assert len(ws) == 3
        assert all(len(w.edges) == 1 for w in ws)


def test_every_edge_in_exactly_one_wall():
    for matrix, radius in ((A2_TILDE, 4), (PGL2Z, 4)):
        ball = cayley_ball(parse_system(matrix), radius)
        ws = walls(ball)
        seen = {}
        for w in ws:
            for e in w.edges:
                assert e not in seen
                seen[e] = w.reflection
        assert len(seen) == len(ball.edges)
        # the edge (w, ws) lies in the wall of wsw^-1
        for u, v, s in ball.edges:
            assert seen[(u, v)] == reflection_of_edge(ball.system, u, s)


# ---------------------------------------------------------------------------
# crossing parity and roots


def test_parity_identity_to_itself():
    ball = cayley_ball(dihedral(3), 3)
    for w in walls(ball):
        assert crossing_parity(ball.system, (), (), w) == 0


def test_minimal_paths_cross_walls_at_most_once():
    for matrix, radius in (([[1, 3], [3, 1]], 3), (A2_TILDE, 3)):
        sys_ = parse_system(matrix)
        ball = cayley_ball(sys_, radius)
        for x in ball.elements:
            for y in ball.elements:
                path = reduce_word(sys_, tuple(reversed(x)) + y)
                crossings = wall_crossings_on_path(sys_, x, path)
                for refl in set(crossings):
                    assert crossings.count(refl) == 1


def test_parity_path_independent_sampled():
    # the sign tests give the parity of crossings along any walked path
    rng = random.Random(5)
    for matrix, radius in (([[1, 3], [3, 1]], 3), (A2_TILDE, 3)):
        sys_ = parse_system(matrix)
        ball = cayley_ball(sys_, radius)
        ws = walls(ball)
        for _ in range(40):
            x = rng.choice(ball.elements)
            y = rng.choice(ball.elements)
            wall = rng.choice(ws)
            reference = crossing_parity(sys_, x, y, wall)
            for _ in range(20):
                detour = tuple(rng.randrange(sys_.rank)
                               for _ in range(rng.randrange(0, 5)))
                via = detour + reduce_word(
                    sys_, tuple(reversed(reduce_word(sys_, x + detour))) + y)
                crossings = wall_crossings_on_path(sys_, x, via)
                assert crossings.count(wall.reflection) % 2 == reference


@pytest.mark.parametrize("name", ["I2(5)", "A2~", "PGL(2,Z)", "(2,3,7)", "(3,3,4)"])
def test_parity_outside_the_ball_matches_walked_parity(name):
    # x and y of up to 12 letters lie mostly outside the radius-3 ball; the
    # walk of x^-1 y from x crosses a wall an odd number of times iff x and
    # y lie on opposite sides of it by the length test
    sys_ = parse_system(LANDMARKS[name])
    ws = walls(cayley_ball(sys_, 3))
    rng = random.Random(name)
    for _ in range(60):
        x, y = (tuple(rng.randrange(sys_.rank) for _ in range(rng.randrange(4, 13)))
                for _ in range(2))
        wall = rng.choice(ws)
        assert crossing_parity(sys_, x, y, wall) == walked_parity(sys_, x, y, wall)
    # the wall of the edge (01, 010) of D_inf misses the radius-1 ball, so it
    # keeps no edge; its sides are decided on elements in and out of the ball
    d_inf = parse_system(LANDMARKS["D_inf"])
    wall = halfspace(cayley_ball(d_inf, 1), (0, 1), (0, 1, 0)).wall
    assert wall.edges == ()
    elements = [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0, 1),
                (1, 0, 1, 0, 1)]
    for x, y in itertools.product(elements, repeat=2):
        assert crossing_parity(d_inf, x, y, wall) == walked_parity(d_inf, x, y, wall)
    assert crossing_parity(d_inf, (0, 1), (0, 1, 0), wall) == 1


def test_root_h_of_identity_and_s():
    # S3 with generators s, t: H(1, s) = {1, t, ts}
    ball = cayley_ball(dihedral(3), 3)
    root = halfspace(ball, (), (0,))
    assert root.side == {(), (1,), (1, 0)}
    assert root.complement == {(0,), (0, 1), (0, 1, 0)}


def test_roots_match_parity_everywhere():
    # the halfspace function itself asserts root == parity-0 side; the
    # edges the side splits are the wall of the edge in the wall table
    for matrix, radius in (([[1, 3], [3, 1]], 3), (A2_TILDE, 3), (PGL2Z, 4)):
        ball = cayley_ball(parse_system(matrix), radius)
        ws = walls(ball)
        for u, v, _ in ball.edges:
            root = halfspace(ball, u, v)
            assert u in root.side and v in root.complement
            assert root.wall in ws and (u, v) in root.wall.edges


def test_root_of_an_edge_whose_wall_misses_the_ball():
    # H(U, V) is defined by distances for any adjacent U and V: the wall of
    # (12, 121) in the infinite dihedral group has no edge in the radius-1
    # ball, which lies wholly on the side of 12
    ball = cayley_ball(parse_system([[1, 0], [0, 1]]), 1)
    root = halfspace(ball, (0, 1), (0, 1, 0))
    assert root.wall.reflection == (0, 1, 0, 1, 0) and root.wall.edges == ()
    assert root.side == set(ball.elements) and not root.complement


# ---------------------------------------------------------------------------
# truncated halfspace systems


def test_s3_halfspace_system_pairwise_transversal():
    from cubical import transversal

    ball = cayley_ball(dihedral(3), 3)
    th = halfspace_system(ball, 0)
    s = th.system
    assert len(s.hyperplanes) == 3
    for (a, _), (c, _) in itertools.combinations(s.hyperplanes, 2):
        assert transversal(s, a, c)


def test_empty_system_at_margin_radius():
    ball = cayley_ball(parse_system(A2_TILDE), 1)
    th = halfspace_system(ball, 1)
    assert len(th.system.hyperplanes) == 0


def test_affine_walls_in_transversal_triples():
    from cubical import transversal

    ball = cayley_ball(parse_system(A2_TILDE), 4)
    th = halfspace_system(ball, 2)
    s = th.system
    assert len(s.hyperplanes) == 6
    # three parallel classes of two: per class nested, across transversal
    crossing = {
        frozenset((i, j))
        for i, j in itertools.combinations(range(6), 2)
        if transversal(s, s.hyperplanes[i][0], s.hyperplanes[j][0])}
    assert len(crossing) == 12  # 15 pairs minus 3 parallel ones
    parallel = [p for p in itertools.combinations(range(6), 2)
                if frozenset(p) not in crossing]
    assert len(parallel) == 3
    assert th.untrusted_pairs  # nested pairs near the horizon stay unproven


@pytest.mark.parametrize("matrix, radius", [
    ([[1, 5], [5, 1]], 4), (A2_TILDE, 4), (PGL2Z, 4), (TRIANGLE_237, 5)],
    ids=["I2(5)", "affine A2", "PGL(2,Z)", "(2,3,7)"])
@pytest.mark.parametrize("margin", [0, 1, 2])
def test_wall_sides_match_distance_sides(matrix, radius, margin):
    # "+" is the side of the shorter end u of the first edge (u, v): in the
    # ball by the member sets, and on words of length R+1 to R+3 outside it
    ball = cayley_ball(parse_system(matrix), radius)
    th = halfspace_system(ball, margin)
    assert th.walls and th.members == distance_members(ball, margin)
    rng = random.Random(radius * 10 + margin)
    rank = ball.system.rank
    outside = [tuple(rng.randrange(rank) for _ in range(length))
               for length in range(radius + 1, radius + 4) for _ in range(10)]
    for g in list(ball.elements) + outside:
        for i in range(len(th.walls)):
            assert th.side_containing(i, g) == distance_side(th, i, g)
        assert th.orientation_of(g).choices == distance_orientation(th, g)


@pytest.mark.parametrize("name", ["I2(5)", "A2~", "PGL(2,Z)", "(2,3,7)", "(3,3,4)"])
def test_sides_of_long_words_match_walked_crossings(name):
    # words of up to 24 letters, far outside the ball: g lies on the "-"
    # side of a wall iff a geodesic from the identity to g crosses it
    ball = cayley_ball(parse_system(LANDMARKS[name]), 5)
    sys_ = ball.system
    th = halfspace_system(ball, 1)
    rng = random.Random(name)
    for length in list(range(25)) * 4:
        g = tuple(rng.randrange(sys_.rank) for _ in range(length))
        crossed = crossed_walls(sys_, g)
        expected = tuple(pair[w.reflection in crossed]
                         for pair, w in zip(th.system.star_pairs, th.walls))
        assert th.orientation_of(g).choices == expected
        i = rng.randrange(len(th.walls))
        assert th.side_containing(i, g) == expected[i]


@pytest.mark.parametrize("name", ["I2(5)", "A2~", "PGL(2,Z)", "(2,3,7)", "(3,3,4)"])
def test_act_on_halfspace_matches_distance_sides(name):
    # w.H(u, v) is H(wu, wv), the ball elements nearer to wu than to wv: the
    # selected halfspace with those members, or None when no selected wall
    # has them (a wall's edges tell its sides apart from every other wall's)
    ball = cayley_ball(parse_system(LANDMARKS[name]), 4)
    sys_ = ball.system
    th = halfspace_system(ball, 1)
    by_members = {m: h for h, m in th.members.items()}
    rng = random.Random(name)
    for _ in range(40):
        w = tuple(rng.randrange(sys_.rank) for _ in range(rng.randrange(9)))
        h = rng.choice(th.system.labels)
        u, v = th.defining_edges[th.system.position[h] >> 1]
        if h.endswith("-"):
            u, v = v, u
        wu, wv = reduce_word(sys_, w + u), reduce_word(sys_, w + v)
        side = frozenset(g for g in ball.elements
                         if distance(sys_, g, wu) < distance(sys_, g, wv))
        assert act_on_halfspace(th, w, h) == by_members.get(side)


@pytest.mark.parametrize("name", ["I2(5)", "A2~", "PGL(2,Z)", "(2,3,7)", "(3,3,4)"])
def test_wall_table_matches_walked_crossings(name):
    # each element's row of the wall table, filled from its parent edge,
    # is the set of selected walls a geodesic from the identity crosses
    for radius in range(7):
        ball = cayley_ball(parse_system(LANDMARKS[name]), radius)
        for margin in range(3):
            th = halfspace_system(ball, margin)
            assert len(th.crossed) == len(ball.elements)
            assert th.crossed == walked_crossings(th)


@pytest.mark.parametrize("matrix, radius, margin", [
    ([[1, 5], [5, 1]], 6, 2), (A2_TILDE, 6, 2), (PGL2Z, 10, 2), (TRIANGLE_237, 6, 2),
    (PGL2Z, 10, 0), (A2_TILDE, 14, 2), ([[1, 5], [5, 1]], 8, 2)],
    ids=["I2(5)", "affine A2", "PGL(2,Z)", "(2,3,7)", "PGL(2,Z) margin 0",
         "affine A2 R14", "I2(5) R8"])
def test_trust_report_and_order_match_frozensets(matrix, radius, margin):
    # the orders read off the crossing rows give the frozenset inclusions
    # and empty quarters
    ball = cayley_ball(parse_system(matrix), radius)
    th = halfspace_system(ball, margin)
    assert th.system.star_pairs == tuple((_hid(i, "+"), _hid(i, "-"))
                                         for i in range(len(th.walls)))
    assert th.untrusted_pairs == frozenset_trust_report(th)
    assert leq(th.system) == frozenset_leq(th)
    if matrix == PGL2Z and margin == 2:
        assert len(th.walls) == 59 and th.untrusted_pairs


@pytest.mark.parametrize("name", LANDMARKS)
def test_trust_report_and_order_match_frozensets_on_landmarks(name):
    for radius in range(7):
        ball = cayley_ball(parse_system(LANDMARKS[name]), radius)
        for margin in range(3):
            th = halfspace_system(ball, margin)
            assert th.untrusted_pairs == frozenset_trust_report(th)
            assert leq(th.system) == frozenset_leq(th)


def _assert_truncations_valid(ball):
    # each truncation returns, and its system passes the input-file checks
    # that it is built without
    for margin in range(4):
        s = halfspace_system(ball, margin).system
        assert _validated(s, s.labels) is s


@pytest.mark.parametrize("name", LANDMARKS)
def test_truncations_are_built_valid_on_landmarks(name):
    # parent edges separate every selected wall's sides, so no radius and
    # no margin makes a truncation that the checks would refuse
    for radius in range(7):
        _assert_truncations_valid(cayley_ball(parse_system(LANDMARKS[name]), radius))


@st.composite
def coxeter_matrices(draw):
    """A Coxeter matrix of rank 2 to 4 with entries 2 to 6 and infinity (0)."""
    rank = draw(st.integers(2, 4))
    m = [[1] * rank for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        m[i][j] = m[j][i] = draw(st.sampled_from([2, 3, 4, 5, 6, 0]))
    return m


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices(), st.integers(0, 6))
def test_truncations_are_built_valid(matrix, radius):
    _assert_truncations_valid(cayley_ball(parse_system(matrix), radius))


def _sides_of_rows(rows, count) -> list:
    """Per wall, its "+" and "-" sides as bitsets over the rows."""
    full = (1 << len(rows)) - 1
    sides = []
    for i in range(count):
        minus = sum(1 << k for k, c in enumerate(rows) if c >> i & 1)
        sides += [full ^ minus, minus]
    return sides


def test_crossing_rows_match_sides_past_wall_999():
    # a 1001 x 3 grid: the walls of each factor nest, and walls of
    # different factors are transversal. The ids of 1002 walls sort out of
    # wall order, but hyperplane i is wall i all the same.
    rows = [(1 << a) - 1 | ((1 << b) - 1) << 1000 for a in range(1001) for b in range(3)]
    count = 1002
    ids = [_hid(i, sign) for i in range(count) for sign in "+-"]
    pairs = list(zip(ids[::2], ids[1::2]))
    system = _system_of_crossings(rows, pairs)
    assert system.star_pairs[99:104] == tuple(pairs[99:104])  # walls 99 to 103
    assert system == system_of_sides(ids, _sides_of_rows(rows, count))


def test_identical_crossing_rows_raise_nesting_violation():
    # walls 0 and 2 agree on every point, and so do walls 1 and 3: the
    # error names the first wall j with an earlier twin, and its least twin i
    rows = [0b0000, 0b0101, 0b1010, 0b1111, 0b0101]
    ids = [_hid(i, sign) for i in range(4) for sign in "+-"]
    pairs = list(zip(ids[::2], ids[1::2]))
    with pytest.raises(NestingViolationError) as err:
        _system_of_crossings(rows, pairs)
    assert err.value.message == ("walls w000+ and w002+ have identical truncated "
                                 "sides; increase the radius or margin")
    assert err.value.details == {"pair": ("w000+", "w002+")}
    # walls that differ on one point are ordered as the pair path orders them
    rows[-1] = 0b1001
    assert _system_of_crossings(rows, pairs) == system_of_sides(ids, _sides_of_rows(rows, 4))


# ---------------------------------------------------------------------------
# cubulation landmarks


def test_cubulate_s3_is_one_3_cube():
    ball = cayley_ball(dihedral(3), 3)
    cub = cubulate(ball, 0)
    x = cub.dual.complex
    assert len(x.vertices) == 8
    assert x.dim == 3 and len(x.by_dim[3]) == 1
    assert cub.maximal_cube_dimensions() == {3}
    # all six group elements embed injectively
    assert len(set(cub.nu.values())) == 6
    assert cub.injective_on_ball


def test_cubulate_s3_equivariance():
    ball = cayley_ball(dihedral(3), 3)
    cub = cubulate(ball, 0)
    th = cub.truncated
    sys_ = ball.system
    for s in range(2):
        for g in ball.elements:
            sg = reduce_word(sys_, (s,) + g)
            for i, pair in enumerate(th.system.hyperplanes):
                choice = cub.dual.orientations[cub.nu[g]].choices[i]
                image = act_on_halfspace(th, (s,), choice)
                assert image is not None
                j = th.system.hyperplane_of[image]
                assert cub.dual.orientations[cub.nu[sg]].choices[j] == image


def test_cubulate_affine_is_locally_r3():
    ball = cayley_ball(parse_system(A2_TILDE), 4)
    cub = cubulate(ball, 2)
    assert cub.maximal_cube_dimensions() == {3}
    assert is_cat0(cub.dual.complex).ok
    assert cub.trusted_radius == 2
    trusted = [g for g in ball.elements if len(g) <= 2]
    assert len({cub.nu[g] for g in trusted}) == len(trusted)


def test_cubulate_tests_consistency_only_on_a_miss(monkeypatch):
    import dataclasses

    import cubical.coxeter as cox
    from cubical.errors import CubicalError
    from cubical.pocsets import Orientation, _chosen

    ball = cayley_ball(parse_system(A2_TILDE), 4)
    calls = []
    original = cox.is_vertex

    def counting(s, o):
        calls.append(o)
        return original(s, o)

    monkeypatch.setattr(cox, "is_vertex", counting)
    cub = cubulate(ball, 2)
    assert not calls  # dual_complex checks the seed; every ball element hits the dual
    # a consistent orientation missing from the dual falls outside it
    last = ball.elements[-1]
    lost = cub.dual.orientations[cub.nu[last]]
    dual = cox.dual_complex

    def without_lost(*args, **kwargs):
        d = dual(*args, **kwargs)
        lost_mask = _chosen(d.system, lost)
        return dataclasses.replace(
            d, masks=tuple(m for m in d.masks if m != lost_mask))

    with monkeypatch.context() as m:
        m.setattr(cox, "dual_complex", without_lost)
        with pytest.raises(CubicalError, match="falls outside the component"):
            cubulate(ball, 2)
    # an inconsistent one is reported as such: flip one wall in the last
    # element's row of the wall table
    th = cub.truncated
    system = th.system
    for i in range(len(lost.choices)):
        choices = list(lost.choices)
        choices[i] = system.star[choices[i]]
        if not original(system, Orientation(tuple(choices))).ok:
            break
    bad = Orientation(tuple(choices))
    truncate = cox.halfspace_system

    def flipped(*args, **kwargs):
        t = truncate(*args, **kwargs)
        return dataclasses.replace(
            t, crossed=t.crossed[:-1] + (t.crossed[-1] ^ 1 << i,))  # wall i is hyperplane i

    monkeypatch.setattr(cox, "halfspace_system", flipped)
    with pytest.raises(CubicalError, match="is not a vertex"):
        cubulate(ball, 2)
    assert calls[-1] == bad  # the miss tests the orientation the table gives


def test_cubulate_default_seed_makes_no_sign_test(monkeypatch):
    # the identity lies on every "+" side, so its orientation needs no test
    import cubical.coxeter as cox

    ball = cayley_ball(parse_system(PGL2Z), 6)
    tests = []
    sign = cox._sign
    monkeypatch.setattr(cox, "_sign", lambda *args: tests.append(args) or sign(*args))
    seeded = cubulate(ball, 2)
    assert not tests
    assert cubulate(ball, 2, seed_element=(0, 0)).nu == seeded.nu
    assert len(tests) == len(seeded.truncated.walls)  # one test per wall


def test_cubulate_rejects_an_inconsistent_seed():
    # outside the ball a principal orientation can choose two truncated
    # sides that are nested the wrong way: the dual rejects it as its seed
    from cubical.errors import NotAVertexError

    ball = cayley_ball(parse_system(PGL2Z), 3)
    with pytest.raises(NotAVertexError, match="seed orientation is not a vertex") as err:
        cubulate(ball, 0, seed_element=(0, 1, 2) * 3 + (0, 1))
    assert err.value.details["witness"] == ("w001-", "w006-")


@pytest.mark.parametrize("radius, margin, message", [
    (3, 0, "do not differ exactly on their wall"),
    (4, 2, "on an unselected wall maps to distinct vertices")])
def test_cubulate_checks_every_edge_against_the_wall_table(monkeypatch, radius,
                                                          margin, message):
    # swapped rows of the last two elements still hit dual vertices, so only
    # the adjacency check can notice
    import dataclasses

    import cubical.coxeter as cox

    ball = cayley_ball(parse_system(A2_TILDE), radius)
    truncate = cox.halfspace_system

    def swapped(*args, **kwargs):
        t = truncate(*args, **kwargs)
        *rest, a, b = t.crossed
        assert a != b
        return dataclasses.replace(t, crossed=(*rest, b, a))

    monkeypatch.setattr(cox, "halfspace_system", swapped)
    with pytest.raises(CubicalError, match=message):
        cubulate(ball, margin)


def test_cubulate_affine_equivariance_on_selected_walls():
    ball = cayley_ball(parse_system(A2_TILDE), 4)
    cub = cubulate(ball, 2)
    th = cub.truncated
    sys_ = ball.system
    for s in range(3):
        for g in ball.elements:
            sg = reduce_word(sys_, (s,) + g)
            if sg not in ball.element_set:
                continue
            for i in range(len(th.system.hyperplanes)):
                choice = cub.dual.orientations[cub.nu[g]].choices[i]
                image = act_on_halfspace(th, (s,), choice)
                if image is None:
                    continue
                j = th.system.hyperplane_of[image]
                assert cub.dual.orientations[cub.nu[sg]].choices[j] == image


def test_cubulate_pgl2z_dimensions():
    ball = cayley_ball(parse_system(PGL2Z), 4)
    cub = cubulate(ball, 2)
    assert cub.maximal_cube_dimensions() == {2, 3}
    assert is_cat0(cub.dual.complex).ok


# ---------------------------------------------------------------------------
# ends


def test_ends_infinite_dihedral():
    rep = ends_profile(parse_system([[1, 0], [0, 1]]), 6)
    assert rep.verdict == "2"
    assert all(c == 2 for c in rep.counts.values())


def test_ends_affine_one_end():
    rep = ends_profile(parse_system(A2_TILDE), 6)
    assert rep.verdict == "1"
    assert rep.counts[1] == rep.counts[2] == rep.counts[3] == 1


def test_ends_universal_strictly_increasing():
    # rank-3 free product of involutions: the 3-regular tree
    rep = ends_profile(parse_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 5)
    assert rep.verdict == "infinity"
    values = [rep.counts[r] for r in sorted(rep.counts)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # one annulus component per element just beyond the deleted ball
    for r, count in rep.counts.items():
        assert count == 3 * 2 ** r


def test_ends_finite_group_zero():
    rep = ends_profile(dihedral(3), 5)
    assert rep.verdict == "0"


def test_ends_estimate_single_pair():
    assert ends_profile(parse_system([[1, 0], [0, 1]]), 5).counts[2] == 2


def test_ends_need_an_annulus():
    # below radius 2 there is no annulus, so no count to read a verdict from
    for radius in (0, 1):
        with pytest.raises(InputFormatError):
            ends_profile(parse_system(PGL2Z), radius)
    rep = ends_profile(parse_system(PGL2Z), 2)
    assert rep.verdict_r == 1 and rep.counts == {1: 5}


def test_ends_verdicts_in_hopf_range():
    for matrix in ([[1, 0], [0, 1]], A2_TILDE, PGL2Z,
                   [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 3], [3, 1]]):
        rep = ends_profile(parse_system(matrix), 5)
        assert rep.verdict in {"0", "1", "2", "infinity"}


def test_cubulate_with_no_walls_collapses_to_a_point():
    ball = cayley_ball(parse_system(A2_TILDE), 1)
    cub = cubulate(ball, 1)
    assert len(cub.dual.complex.vertices) == 1
    assert cub.maximal_cube_dimensions() == {0}
    assert set(cub.nu.values()) == {0}
