"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. All checks are exact; no tolerances beyond float round-off in tree
distances (1e-12)."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from helpers import (
    DihedralOracle,
    assert_link_is_petersen,
    assert_sageev_isomorphism,
    cat0_corpus,
    cube_boundary_3,
    grid_complex,
    leaf_sets,
    oracle_shortlex_forms,
    path_complex,
    point_wall_crossings,
    torus_3x3,
    tree_complex,
    wall_crossings_on_path,
)

from cubical import (
    cayley_ball,
    cone_distance,
    count_binary,
    cubulate,
    dual_complex,
    ends_profile,
    enumerate_topologies,
    from_orthant,
    halfspace,
    halfspace_system_of,
    halfspaces_of,
    helly_check,
    hyperplanes,
    hyperplanes_cross,
    is_cat0,
    is_locally_cat0,
    link_of_origin,
    make_orthant,
    parse_system,
    reduce_word,
    treespace_complex,
    walls,
)
from cubical.cli import main
from cubical.coxeter import act_on_halfspace, distance
from cubical.graphs import bits, girth, is_regular
from cubical.pocsets import build_system, seed_vertex

A2_TILDE = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
PGL2Z = [[1, 3, 2], [3, 1, 0], [2, 0, 1]]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_gromov_corpus():
    with criterion(1, "Gromov criterion corpus"):
        torus = torus_3x3()
        assert is_locally_cat0(torus).ok
        verdict = is_cat0(torus)
        assert not verdict.ok and verdict.reason == "median"
        assert verdict.witness["triple"]

        boundary = cube_boundary_3()
        local = is_locally_cat0(boundary)
        assert not local.ok
        assert len(local.witness) == 3  # an empty triangle

        for x in [tree_complex([(0, 1), (1, 2), (1, 3), (3, 4)]),
                  path_complex(6),
                  grid_complex(3, 3), grid_complex(2, 4), grid_complex(2, 2, 2)]:
            assert is_cat0(x).ok


def test_criterion_2_hyperplane_laws():
    with criterion(2, "hyperplane laws on the CAT(0) corpus"):
        corpus = cat0_corpus()
        assert len(corpus) >= 20
        for name, x in corpus:
            assert len(x.vertices) <= 64, name
            cat0 = is_cat0(x)
            assert cat0.ok, name
            hps = hyperplanes(x)
            for h in hps:
                assert len(halfspaces_of(x, h)) == 2, (name, h.index)
            crossing = {
                (a.index, b.index)
                for a, b in itertools.combinations(hps, 2)
                if hyperplanes_cross(x, a, b)}
            for fam in _cliques(len(hps), crossing):
                assert len(fam) <= x.dim, (name, fam)
                res = helly_check(x, [hps[i] for i in fam], cat0=cat0)
                assert res.ok, (name, fam, res.detail)


def _cliques(n, crossing):
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


def test_criterion_3_sageev_duality():
    with criterion(3, "Sageev duality: chains, cubes, and the round trip"):
        for k in range(1, 6):
            s = _chain_system(k)
            d = dual_complex(s, seed_vertex(s))
            x = d.complex
            assert len(x.vertices) == k + 1 and len(x.edges) == k and x.dim == 1
            degrees = sorted(len(x.adjacency[v]) for v in x.vertices)
            assert degrees == [1, 1] + [2] * (k - 1)
        for n in range(1, 5):
            s = _free_system(n)
            d = dual_complex(s, seed_vertex(s))
            assert len(d.complex.vertices) == 2 ** n
            assert len(d.complex.by_dim[n]) == 1
        for name, x in cat0_corpus():
            dec = halfspace_system_of(x)
            seed = dec.principal_orientation(x.labels[0])
            d = dual_complex(dec.system, seed)
            assert_sageev_isomorphism(x, dec, d)


def _chain_system(k):
    ids, star = [], []
    for i in range(k):
        ids += [f"a{i}+", f"a{i}-"]
        star.append((f"a{i}+", f"a{i}-"))
    return build_system(ids, star,
                        [(f"a{i}+", f"a{i + 1}+") for i in range(k - 1)])


def _free_system(n):
    ids, star = [], []
    for i in range(n):
        ids += [f"a{i}+", f"a{i}-"]
        star.append((f"a{i}+", f"a{i}-"))
    return build_system(ids, star, [])


def test_criterion_4_dihedral_oracle():
    with criterion(4, "dihedral ball sizes and the normal-form oracle"):
        total = 0
        for m in range(2, 7):
            sys_ = parse_system([[1, m], [m, 1]])
            ball = cayley_ball(sys_, 2 * m)
            assert len(ball.elements) == 2 * m
            oracle = DihedralOracle(m)
            forms = oracle_shortlex_forms(oracle, 2, 2 * m)
            for length in range(0, 9):
                for word in itertools.product((0, 1), repeat=length):
                    assert reduce_word(sys_, word) == forms[oracle.eval_word(word)]
                    total += 1
        assert total == 5 * 511
        assert total <= 5 * 2000


def test_criterion_5_coxeter_wall_laws():
    with criterion(5, "wall partition, +-1 law, parity, roots"):
        for matrix, radius in (([[1, 3], [3, 1]], 3), (A2_TILDE, 4)):
            sys_ = parse_system(matrix)
            ball = cayley_ball(sys_, radius)
            ws = walls(ball)

            # every edge lies in exactly one wall
            seen = {}
            for w in ws:
                for e in w.edges:
                    assert e not in seen
                    seen[e] = w.reflection
            assert len(seen) == len(ball.edges)

            # +-1 law, exhaustively
            for x in ball.elements:
                for u, v, _ in ball.edges:
                    assert abs(distance(sys_, x, u) - distance(sys_, x, v)) == 1

            # crossing parity is path-independent: for every ordered pair
            # and every wall, 100 sampled paths agree with the canonical one.
            # Paths are walked on points, each crossed wall keyed by t.rho as
            # walls() keys it; the canonical paths' keys are those of the
            # reflections that the letter-by-letter word walk names
            tits = sys_.tits
            rng = random.Random(2024)
            reflections = [w.reflection for w in ws]
            wall_keys = [tits.point(refl) for refl in reflections]
            keys: dict = {}
            pairs = [(x, y) for x in ball.elements for y in ball.elements]
            for x, y in pairs:
                canonical = reduce_word(sys_, tuple(reversed(x)) + y)
                start, target = tits.point(tuple(reversed(x))), tits.point(canonical)
                walked = point_wall_crossings(tits, start, canonical, keys)
                assert walked == [tits.point(refl) for refl
                                  in wall_crossings_on_path(sys_, x, canonical)]
                reference = Counter(walked)
                for _ in range(100):
                    detour = tuple(rng.randrange(sys_.rank)
                                   for _ in range(rng.randrange(0, 5)))
                    # back is the normal form of (x detour)^-1 y
                    back = tits.normal_form(tits.point(tuple(reversed(detour)), target))
                    crossings = Counter(
                        point_wall_crossings(tits, start, detour + back, keys))
                    for refl, key in zip(reflections, wall_keys):
                        assert crossings[key] % 2 == reference[key] % 2, (x, y, refl)

            # H(u, v) equals the parity-0 root through u (asserted inside
            # halfspace as well)
            for u, v, _ in ball.edges:
                root = halfspace(ball, u, v)
                assert u in root.side and v in root.complement


def test_criterion_6_cubulation_landmarks():
    with criterion(6, "cubulation landmarks: I2(3), affine A2, PGL(2,Z)"):
        ball = cayley_ball(parse_system([[1, 3], [3, 1]]), 3)
        cub = cubulate(ball, 0)
        x = cub.dual.complex
        assert len(x.vertices) == 8 and len(x.by_dim[3]) == 1
        assert cub.maximal_cube_dimensions() == {3}
        assert len(set(cub.nu.values())) == 6  # injective embedding
        _check_equivariance(cub, ball)

        ball = cayley_ball(parse_system(A2_TILDE), 4)
        cub = cubulate(ball, 2)
        assert cub.maximal_cube_dimensions() == {3}
        assert is_cat0(cub.dual.complex).ok

        ball = cayley_ball(parse_system(PGL2Z), 4)
        cub = cubulate(ball, 2)
        assert cub.maximal_cube_dimensions() == {2, 3}


def _check_equivariance(cub, ball):
    th = cub.truncated
    sys_ = ball.system
    for s in range(sys_.rank):
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


def test_criterion_7_ends_estimator():
    with criterion(7, "ends estimator: 2, 1, and infinity"):
        rep = ends_profile(parse_system([[1, 0], [0, 1]]), 6)
        assert rep.verdict == "2"
        rep = ends_profile(parse_system(A2_TILDE), 6)
        assert rep.verdict == "1"
        rep = ends_profile(parse_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 5)
        values = [rep.counts[r] for r in sorted(rep.counts)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert rep.verdict == "infinity"
        for matrix in ([[1, 3], [3, 1]], [[1, 0], [0, 1]], A2_TILDE, PGL2Z):
            rep = ends_profile(parse_system(matrix), 5)
            assert rep.verdict in {"0", "1", "2", "infinity"}


def test_criterion_8_tree_space():
    with criterion(8, "tree space: counts, Petersen, CAT(0), tripod"):
        assert [count_binary(n) for n in range(3, 7)] == [3, 15, 105, 945]
        for n in range(2, 8):
            # as many distinct topologies, read as leaf sets, as the formula counts
            assert len(set(map(leaf_sets, enumerate_topologies(n)))) == count_binary(n)

        link = link_of_origin(4)
        nbrs = [list(bits(m)) for m in link.neighbours]
        assert len(link.vertices) == 10 and len(link.edges) == 15
        assert is_regular(nbrs, 3) and girth(nbrs) == 5
        assert_link_is_petersen(link)

        for n in (3, 4, 5):
            assert is_cat0(treespace_complex(n)).ok

        def ray(cluster, length):
            return from_orthant(make_orthant(3, {frozenset(cluster): length}))

        res = cone_distance(ray({1, 2}, 2.0), ray({2, 3}, 0.75))
        assert res.exact and res.value == pytest.approx(2.75)
        res = cone_distance(ray({1, 2}, 2.0), ray({1, 2}, 0.5))
        assert res.exact and res.value == pytest.approx(1.5)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "headless CLI verdicts, byte-identical seeded runs"):
        torus = tmp_path / "torus.json"
        from cubical.complexes import dump_complex

        torus.write_text(json.dumps(dump_complex(torus_3x3())))
        matrix = tmp_path / "a2t.json"
        matrix.write_text(json.dumps({"rank": 3, "m": A2_TILDE}))

        invocations = [
            ["complex", "check", str(torus), "--seed", "11"],
            ["coxeter", "cubulate", "--matrix", str(matrix), "--radius", "3",
             "--margin", "1", "--seed", "11"],
            ["tree", "link", "-n", "4", "--seed", "11"],
        ]
        for argv in invocations:
            code1 = main(list(argv))
            out1 = capsys.readouterr().out
            code2 = main(list(argv))
            out2 = capsys.readouterr().out
            assert out1 == out2
            assert code1 == code2
            verdict = json.loads(out1)
            assert set(verdict) >= {"ok", "certificate", "stats"}
