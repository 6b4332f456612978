"""CLI: verdict shapes, exit codes, determinism, round trips, DOT output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from helpers import glue_hexagon, grid_complex, torus_3x3

import cubical
from cubical.cli import main
from cubical.complexes import dump_complex, halfspaces_of, hyperplanes, load_complex
from cubical.errors import CubicalError


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(dump_complex(torus_3x3())))
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    data = {"vertices": ["a", "b", "c", "d"],
            "cubes": {"1": [["a", "b"], ["c", "d"], ["a", "c"], ["b", "d"]],
                      "2": [["a", "b", "c", "d"]]}}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def pgl_file(tmp_path):
    path = tmp_path / "pgl2z.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 3, 2], [3, 1, 0], [2, 0, 1]]}))
    return str(path)


@pytest.fixture()
def a2t_file(tmp_path):
    path = tmp_path / "a2t.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_complex_check_torus(capsys, torus_file):
    code, verdict = run_cli(capsys, "complex", "check", torus_file)
    assert code == 1
    assert verdict["ok"] is False
    assert verdict["certificate"]["locally_cat0"]["ok"] is True
    assert verdict["certificate"]["cat0"]["reason"] == "median"
    assert verdict["certificate"]["cat0"]["triple"]
    assert verdict["stats"]["vertices"] == 9


def test_complex_check_square(capsys, square_file):
    code, verdict = run_cli(capsys, "complex", "check", square_file)
    assert code == 0
    assert verdict["ok"] is True


def test_complex_links(capsys, torus_file):
    code, verdict = run_cli(capsys, "complex", "links", torus_file)
    assert code == 0
    assert verdict["stats"]["vertices_checked"] == 9


def test_complex_hyperplanes_torus(capsys, torus_file):
    code, verdict = run_cli(capsys, "complex", "hyperplanes", torus_file)
    assert code == 1  # self-parallel hyperplanes do not separate
    assert verdict["stats"]["hyperplanes"] == 6
    assert set(verdict["certificate"]["bad_separations"].values()) == {1}


def _fixture_complexes() -> dict:
    """The valid cube complexes among the fixtures, by file name."""
    out = {}
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        data = json.loads(path.read_text())
        try:
            out[path.name] = load_complex(data)
        except CubicalError:
            continue
    return out


@pytest.mark.parametrize("name", [*_fixture_complexes(), "torus"])
def test_complex_hyperplanes_counts_match_component_search(capsys, tmp_path, name):
    # median graphs skip the search: each class splits them in two
    x = torus_3x3() if name == "torus" else _fixture_complexes()[name]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(dump_complex(x)))
    x = load_complex(json.loads(path.read_text()))
    code, verdict = run_cli(capsys, "complex", "hyperplanes", str(path))
    counts = {str(h.index): len(halfspaces_of(x, h)) for h in hyperplanes(x)}
    assert verdict["stats"]["halfspace_counts"] == counts
    assert code == (0 if set(counts.values()) <= {2} else 1)


def test_complex_export_round_trip(capsys, tmp_path, square_file):
    out = tmp_path / "exported.json"
    code, _ = run_cli(capsys, "complex", "export", square_file,
                      "--out", str(out))
    assert code == 0
    first = json.loads(out.read_text())
    code, _ = run_cli(capsys, "complex", "export", str(out), "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == first


def test_complex_export_float_ids(capsys, tmp_path):
    # JSON ids may be numbers of any kind: floats are dumped as they are
    data = {"vertices": [1.5, 2], "cubes": {"1": [[1.5, 2]]}}
    path, out = tmp_path / "floats.json", tmp_path / "exported.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(capsys, "complex", "export", str(path), "--out", str(out))
    assert code == 0
    assert load_complex(json.loads(out.read_text())) == load_complex(data)


def test_input_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "cubes": {"1": [["a", "a"]]}}))
    code, verdict = run_cli(capsys, "complex", "check", str(bad))
    assert code == 2
    assert verdict["ok"] is False
    assert verdict["certificate"]["error"] == "self_gluing"


def test_missing_file_exit_2(capsys):
    code, verdict = run_cli(capsys, "complex", "check", "/nonexistent.json")
    assert code == 2


def test_pocset_validate_and_dual(capsys, tmp_path):
    data = {"halfspaces": ["a+", "a-", "b+", "b-"],
            "star": [["a+", "a-"], ["b+", "b-"]],
            "leq": [["a+", "b+"]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    code, verdict = run_cli(capsys, "pocset", "validate", str(path))
    assert code == 0 and verdict["stats"]["hyperplanes"] == 2
    code, verdict = run_cli(capsys, "pocset", "dual", str(path))
    assert code == 0
    assert verdict["stats"]["vertices"] == 3
    code, verdict = run_cli(capsys, "pocset", "cubes", str(path))
    assert code == 0
    assert verdict["stats"]["dimensions"] == [1]


@pytest.mark.parametrize("cmd", ["dual", "cubes"])
def test_pocset_dual_cap_counts_the_seed(capsys, cmd):
    # pairs5 has a 32-vertex dual: a 5-cube; the seed alone exceeds cap 0
    path = str(Path(__file__).resolve().parent / "fixtures" / "pairs5.json")
    for cap, expected in ((0, 2), (31, 2), (32, 0)):
        code, verdict = run_cli(capsys, "pocset", cmd, path, "--cap", str(cap))
        assert code == expected
        if expected == 2:
            assert verdict["certificate"] == {
                "cap": cap, "error": "cap_exceeded",
                "message": f"dual component exceeds cap {cap}"}


def test_pocset_nesting_violation_exit_2(capsys, tmp_path):
    data = {"halfspaces": ["a+", "a-", "b+", "b-"],
            "star": [["a+", "a-"], ["b+", "b-"]],
            "leq": [["a+", "b+"], ["a+", "b-"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, verdict = run_cli(capsys, "pocset", "validate", str(path))
    assert code == 2
    assert verdict["certificate"]["error"] == "nesting_violation"


def test_pocset_dual_sidecar(capsys, tmp_path):
    data = {"halfspaces": ["a+", "a-", "b+", "b-"],
            "star": [["a+", "a-"], ["b+", "b-"]], "leq": []}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "dual.json"
    code, _ = run_cli(capsys, "pocset", "dual", str(path), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["orientations"]) == 4
    assert payload["orientations"]["0"] == "00"
    assert sorted(payload["orientations"].values()) == ["00", "01", "10", "11"]


def test_coxeter_ball_and_walls(capsys, a2t_file):
    code, verdict = run_cli(capsys, "coxeter", "ball", "--matrix", a2t_file,
                            "--radius", "2")
    assert code == 0
    assert verdict["stats"]["elements"] == 10
    code, verdict = run_cli(capsys, "coxeter", "walls", "--matrix", a2t_file,
                            "--radius", "2")
    assert code == 0


def test_coxeter_walls_root_edge_without_dot(capsys, tmp_path, a2t_file):
    # the root is built whenever --root-edge is given: a bad value is an
    # input error and a good one reports its side, with or without --dot
    dot = tmp_path / "w.dot"
    base = ["coxeter", "walls", "--matrix", a2t_file, "--radius", "3"]
    for extra in ([], ["--dot", str(dot)]):
        code, verdict = run_cli(capsys, *base, "--root-edge", "garbage", *extra)
        assert code == 2
        assert verdict["certificate"] == {"error": "input_format",
                                          "message": "--root-edge wants 'U,V'"}
        assert not dot.exists()
        code, verdict = run_cli(capsys, *base, "--root-edge", "e,1", *extra)
        assert code == 0
        assert verdict["stats"]["root_side_size"] == 12
    assert "cayley" in dot.read_text()


def test_coxeter_walls_root_edge_off_the_ball(capsys):
    # the wall of (12, 121) has no edge in the radius-1 ball of the infinite
    # dihedral group; the root is still defined, and holds the whole ball
    path = str(Path(__file__).resolve().parent / "fixtures" / "infdihedral.json")
    code, verdict = run_cli(capsys, "coxeter", "walls", "--matrix", path,
                            "--radius", "1", "--root-edge", "12,121")
    assert code == 0
    assert verdict["stats"]["root_side_size"] == 3


def test_coxeter_reduce(capsys, a2t_file):
    code, verdict = run_cli(capsys, "coxeter", "reduce", "--matrix", a2t_file,
                            "--word", "1 1 2 1")
    assert code == 0
    assert verdict["stats"]["canonical"] == "21"
    assert verdict["stats"]["length"] == 2


def test_coxeter_cubulate_pgl(capsys, pgl_file):
    code, verdict = run_cli(capsys, "coxeter", "cubulate", "--matrix", pgl_file,
                            "--radius", "4")
    assert code == 0
    assert verdict["stats"]["maximal_cube_dimensions"] == [2, 3]


def test_coxeter_ends(capsys, tmp_path):
    path = tmp_path / "infdihedral.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 0], [0, 1]]}))
    code, verdict = run_cli(capsys, "coxeter", "ends", "--matrix", str(path),
                            "--radius", "6")
    assert code == 0
    assert verdict["certificate"]["verdict"] == "2"


def test_coxeter_ends_below_radius_2_is_an_input_error(capsys, pgl_file):
    # no annulus is counted there, so no verdict may be read
    for radius in ("0", "1"):
        code, verdict = run_cli(capsys, "coxeter", "ends", "--matrix", pgl_file,
                                "--radius", radius)
        assert code == 2
        assert verdict["certificate"] == {"error": "input_format",
                                          "message": f"ends needs radius >= 2, got {radius}"}


def test_tree_commands(capsys, tmp_path):
    code, verdict = run_cli(capsys, "tree", "count", "-n", "5")
    assert code == 0 and verdict["stats"]["binary_topologies"] == 105
    code, verdict = run_cli(capsys, "tree", "enumerate", "-n", "4")
    assert code == 0 and verdict["stats"]["enumerated"] == 15
    dot = tmp_path / "link.dot"
    code, verdict = run_cli(capsys, "tree", "link", "-n", "4",
                            "--dot", str(dot))
    assert code == 0
    assert verdict["certificate"]["is_petersen"] is True
    assert "graph link" in dot.read_text()
    code, verdict = run_cli(capsys, "tree", "complex", "-n", "3")
    assert code == 0 and verdict["certificate"]["cat0"]["ok"] is True


def test_tree_link_dot_lists_each_edge_once(capsys, tmp_path):
    # the Petersen graph's 15 edges, each once from its earlier end
    dot = tmp_path / "link.dot"
    code, _ = run_cli(capsys, "tree", "link", "-n", "4", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().count(" -- ") == 15
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "2a75edcdff185a92ba03baafdc26747047e1854a6a9e4fd4c70d8d60e076d312")


def test_tree_complex_n6(capsys):
    # 2752 cluster sets (Schroeder's fourth problem, OEIS A000311) and one
    # 4-cube per binary topology, (2n-3)!! = 945
    code, verdict = run_cli(capsys, "tree", "complex", "-n", "6")
    assert code == 0 and verdict["ok"] is True
    assert verdict["stats"]["vertices"] == 2752
    assert verdict["stats"]["cubes"]["4"] == 945
    # an exact verdict over all 2752 vertices, with no cap
    assert verdict["certificate"] == {"cat0": {"ok": True}}


def test_tree_link_n_is_bounded_before_enumeration(capsys, monkeypatch):
    # the link lists every compatible set, 12,818,911 of them at n = 9, so
    # n is refused before a single cluster is listed
    def unreachable(n):
        raise AssertionError(f"the clusters of n = {n} were listed")

    monkeypatch.setattr(cubical.treespace, "all_clusters", unreachable)
    for n in ("9", "1000000000"):
        code, verdict = run_cli(capsys, "tree", "link", "-n", n)
        assert code == 2
        assert verdict["certificate"] == {
            "cap": 8, "error": "cap_exceeded",
            "message": f"n = {n} exceeds the configured bound 8"}


def test_tree_count_n_is_bounded_before_multiplying(capsys):
    # the (2n-3)!! product and its decimal text grow quadratically in n, so
    # n past the bound is refused at once, and the bound itself is counted:
    # its 83,351 digits are read off the text, as json.loads caps int digits
    assert main(["tree", "count", "-n", "20000"]) == 0
    assert len(re.search(r'"binary_topologies":(\d+)', capsys.readouterr().out)[1]) == 83351
    for n in ("20001", "1000000000"):
        code, verdict = run_cli(capsys, "tree", "count", "-n", n)
        assert code == 2
        assert verdict["certificate"] == {
            "cap": 20000, "error": "cap_exceeded",
            "message": f"n = {n} exceeds the configured bound 20000"}


def test_tree_enumerate_cap_counts_every_topology(capsys):
    # n = 2 inserts no leaf, and its one topology exceeds cap 0 all the same
    for n, cap, expected in ((2, 0, 2), (2, 1, 0), (3, 2, 2), (3, 3, 0)):
        code, verdict = run_cli(capsys, "tree", "enumerate", "-n", str(n),
                                "--cap", str(cap))
        assert code == expected
        if expected == 2:
            assert verdict["certificate"] == {
                "cap": cap, "error": "cap_exceeded",
                "message": f"topology enumeration exceeds cap {cap}"}
        else:
            assert verdict["stats"]["enumerated"] == cap


@pytest.mark.parametrize("command, name, witness", [
    (("complex", "check"), "two_diagonals",
     {"error": "double_gluing", "cube_a": ["A", "C"], "cube_b": ["A", "B", "D", "C"]}),
    (("complex", "check"), "two_missing_edges",
     {"error": "missing_face", "cube": ["A", "B", "D", "C"], "face": ["D", "C"]}),
    # a+ < b+ < c+ < a+ and c+ < d+: the first mutually-below pair in input order
    (("pocset", "validate"), "cyclic_order",
     {"error": "cyclic_order", "pair": ["a+", "b+"]}),
    # the faces are checked before the gluing, listings before both
    (("complex", "check"), "missing_face_double_gluing",
     {"error": "missing_face", "cube": ["E", "F", "H", "G"], "face": ["F", "G"]}),
    (("complex", "check"), "duplicate_square_missing_edge",
     {"error": "duplicate_cube", "cube": ["E", "H", "F", "G"], "dim": 2}),
], ids=["two_diagonals-witness0", "two_missing_edges-witness1",  # stable test ids
        "cyclic_order-witness2", "missing_face_double_gluing-witness3",
        "duplicate_square_missing_edge-witness4"])
def test_build_witness_ignores_hash_seed(command, name, witness):
    # several defects in one input: the one named depends on the ids
    # alone, not on the iteration order of string hashes
    path = Path(__file__).resolve().parent / "fixtures" / f"{name}.json"
    src = str(Path(cubical.__file__).resolve().parents[1])
    outputs = set()
    for seed in "0123":
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "cubical", *command, str(path)],
            env=env, capture_output=True, check=False)
        outputs.add((proc.returncode, proc.stdout))
    assert len(outputs) == 1
    code, out = outputs.pop()
    assert code == 2 and witness.items() <= json.loads(out)["certificate"].items()


def test_tree_count_prints_counts_past_the_digit_limit(capsys):
    # (2n-3)!! for n = 2000 has 6333 digits, above Python's default limit
    # of 4300 for int <-> decimal text
    n = 2000
    code = main(["tree", "count", "-n", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out, parse_int=Decimal)
    assert int(verdict["stats"]["binary_topologies"]) == math.prod(range(1, 2 * n - 2, 2))
    assert verdict["stats"]["n"] == n


def test_tree_validate_deep_caterpillar(capsys, tmp_path):
    n = 1200
    path = caterpillar_file(tmp_path, n)
    code, verdict = run_cli(capsys, "tree", "validate", path)
    assert code == 0 and verdict["stats"]["binary"] is True
    clusters = verdict["stats"]["clusters"]
    assert clusters == [list(range(i, n + 1)) for i in range(n - 1, 1, -1)]


def caterpillar_file(tmp_path, n: int, length: float = 1.0) -> str:
    """A caterpillar with n leaves and every interior edge of the given
    length: one tree level per leaf, deeper than the recursion limit for
    n = 1200."""
    spine = [f"s{i}" for i in range(n - 1)]
    edges = [[spine[i], spine[i + 1], length] for i in range(n - 2)]
    edges += [[spine[i], f"l{i + 1}", 0] for i in range(n - 1)]
    edges.append([spine[-1], f"l{n}", 0])
    path = tmp_path / f"caterpillar{n}_{length}.json"
    path.write_text(json.dumps({
        "n": n, "root": spine[0], "edges": edges,
        "nodes": spine + [f"l{i}" for i in range(1, n + 1)],
        "leaf_labels": {f"l{i}": i for i in range(1, n + 1)}}))
    return str(path)


def test_tree_dist_deep_caterpillar(capsys, tmp_path):
    # same topology, so the union of the n-2 clusters is laminar and the
    # distance is Euclidean in one orthant: every cluster length differs by 1
    n = 1200
    f1, f2 = caterpillar_file(tmp_path, n), caterpillar_file(tmp_path, n, 2.0)
    code, verdict = run_cli(capsys, "tree", "dist", f1, f2)
    assert code == 0
    assert verdict["stats"] == {"value": pytest.approx(math.sqrt(n - 2)),
                                "exact": True, "path": "orthant"}


def test_tree_validate_and_dist(capsys, tmp_path):
    def tree_file(name, a):
        data = {"n": 4, "root": "r",
                "nodes": ["r", "u", "v", "l1", "l2", "l3", "l4"],
                "edges": [["r", "u", 1.0], ["u", "v", a], ["v", "l1", 0],
                          ["v", "l2", 0], ["u", "l3", 0], ["r", "l4", 0]],
                "leaf_labels": {"l1": 1, "l2": 2, "l3": 3, "l4": 4}}
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    f1, f2 = tree_file("t1.json", 1.0), tree_file("t2.json", 3.0)
    code, verdict = run_cli(capsys, "tree", "validate", f1)
    assert code == 0 and verdict["stats"]["binary"] is True
    code, verdict = run_cli(capsys, "tree", "dist", f1, f2)
    assert code == 0
    assert verdict["stats"]["value"] == pytest.approx(2.0)
    assert verdict["stats"]["exact"] is True


def test_determinism_byte_identical(capsys, torus_file, a2t_file):
    for argv in (
        ["complex", "check", torus_file, "--seed", "7"],
        ["complex", "hyperplanes", torus_file, "--seed", "7"],
        ["coxeter", "cubulate", "--matrix", a2t_file, "--radius", "3",
         "--margin", "1", "--seed", "7"],
        ["tree", "link", "-n", "4", "--seed", "7"],
    ):
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first).get("seed") == 7


def test_dot_outputs(capsys, tmp_path, square_file, a2t_file):
    dot = tmp_path / "out.dot"
    run_cli(capsys, "complex", "export", square_file, "--dot", str(dot))
    text = dot.read_text()
    assert text.startswith("graph skeleton")
    assert text.count("--") == 4
    run_cli(capsys, "coxeter", "ball", "--matrix", a2t_file, "--radius", "2",
            "--dot", str(dot))
    assert "cayley" in dot.read_text()


def test_parser_is_built_once(capsys, square_file):
    from cubical.cli import build_parser

    assert build_parser() is build_parser()
    first = run_cli(capsys, "complex", "check", square_file)
    assert run_cli(capsys, "complex", "check", square_file) == first


@pytest.mark.parametrize("cmd", ["check", "links", "hyperplanes", "export"])
def test_vertex_ids_with_one_string_form_exit_2(capsys, tmp_path, cmd):
    # certificates name vertices by str(v): 1 and "1" would share a name,
    # and one link entry would overwrite the other
    path = tmp_path / "clash.json"
    path.write_text(json.dumps({"vertices": [1, "1", 2],
                                "cubes": {"1": [[1, "1"], ["1", 2]]}}))
    code, verdict = run_cli(capsys, "complex", cmd, str(path))
    assert code == 2
    assert verdict["certificate"] == {
        "error": "input_format", "ids": [1, "1"],
        "message": "vertex ids 1 and '1' have the same string form"}


def test_complex_links_single_vertex(capsys, torus_file):
    code, verdict = run_cli(capsys, "complex", "links", torus_file,
                            "--vertex", "0,0")
    assert code == 0
    assert verdict["stats"]["vertices_checked"] == 1


@pytest.mark.parametrize("fixture", ["square_file", "torus_file"])
def test_complex_check_scans_links_once(capsys, monkeypatch, request, fixture):
    import cubical.cli
    import cubical.complexes

    calls = []
    original = cubical.complexes.is_locally_cat0

    def counting(x):
        calls.append(x)
        return original(x)

    # the CLI reaches the link scan only through is_cat0
    assert not hasattr(cubical.cli, "is_locally_cat0")
    monkeypatch.setattr(cubical.complexes, "is_locally_cat0", counting)
    code, verdict = run_cli(capsys, "complex", "check",
                            request.getfixturevalue(fixture))
    # the square is its own halfspaces' dual, which decides it with no link
    # scanned; the torus fails that comparison and runs the ordered stages
    assert len(calls) == (0 if fixture == "square_file" else 1)
    assert verdict["certificate"]["locally_cat0"] == {"ok": True}
    assert code == (0 if fixture == "square_file" else 1)


def test_positive_verdicts_scan_no_link_and_no_four_cycle(capsys, monkeypatch, square_file):
    import cubical.complexes

    def unreachable(x):
        raise AssertionError("a CAT(0) complex was scanned")

    monkeypatch.setattr(cubical.complexes, "is_locally_cat0", unreachable)
    monkeypatch.setattr(cubical.complexes, "_unfilled_square", unreachable)
    code, verdict = run_cli(capsys, "complex", "check", square_file)
    assert code == 0 and verdict["certificate"]["cat0"] == {"ok": True}
    code, verdict = run_cli(capsys, "tree", "complex", "-n", "5")
    assert code == 0 and verdict["certificate"]["cat0"] == {"ok": True}


DERIVED_SYSTEM_RUNS = [
    (["complex", "check", "grid3x3.json"], 0,
     "cb0b39cf0005330f949f0d451fd8264605991b9a2c82d537eb7ca10db886f8ab"),
    (["complex", "check", "torus3x3.json"], 1,  # the median negative
     "7c0b1ade5cb41f39afc8fb96a25806777bd5c278bb1782df44468b8f2f836fed"),
    (["coxeter", "halfspaces", "--matrix", "pgl2z.json", "--radius", "5", "--margin", "0"], 0,
     "0ce3e5dcebc18d852064ec116c88b5a0d7b263e7f75c14634cae8ba5418a61dd"),
    (["coxeter", "cubulate", "--matrix", "pgl2z.json", "--radius", "6", "--margin", "0"], 0,
     "fa1a27904da7e32d75461375be4a4c52d7e220a251768c48039890f0f47d9536"),
    (["tree", "complex", "-n", "5"], 0,
     "f27a6bdabaf2e0664bb62fbe62034629bc98792da3f8d73d3a6327de0f414e2f"),
    (["tree", "link", "-n", "5"], 0,
     "5728e262cab62e155c51b132731f7988b093a20c4fc8f3e2abb6e44db249a66f"),
]


@pytest.mark.parametrize("argv, code, digest", DERIVED_SYSTEM_RUNS,
                         ids=[" ".join(argv) for argv, _, _ in DERIVED_SYSTEM_RUNS])
def test_derived_systems_skip_the_input_file_checks(capsys, monkeypatch, argv, code, digest):
    # only input files go through build_system and _validated: the Roller,
    # Coxeter and tree-space systems are built valid, with the same bytes
    import cubical.pocsets

    def unreachable(*args):
        raise AssertionError("a derived system went through the input-file checks")

    monkeypatch.setattr(cubical.pocsets, "_validated", unreachable)
    monkeypatch.setattr(cubical.pocsets, "build_system", unreachable)
    fixtures = Path(__file__).parent / "fixtures"
    assert main([str(fixtures / a) if a.endswith(".json") else a for a in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_only_the_loader_builds_and_validates_a_system():
    # no module but pocsets holds either name, so the patch above sees
    # every call; in pocsets, build_system calls _validated and then
    # load_system calls build_system, and nothing else calls either
    import inspect

    for name, module in vars(cubical).items():
        if inspect.ismodule(module) and name != "pocsets":
            assert not {"_validated", "build_system"} & set(vars(module)), name
    calls = re.findall(r"(?<!def )\b(_validated|build_system)\(",
                       inspect.getsource(cubical.pocsets))
    assert calls == ["_validated", "build_system"]


def test_complex_check_stops_before_the_median_scan_above_its_cap(capsys, monkeypatch,
                                                                   tmp_path):
    import cubical.complexes

    def unreachable(nbrs):
        raise AssertionError("the triple scan ran above the median cap")

    # a non-median complex of 681 vertices: the scan that names its triple
    # would keep 681^2 interval bitsets, so the run stops at
    # DEFAULT_MEDIAN_CAP, and no flag lifts that bound
    monkeypatch.setattr(cubical.complexes, "_first_bad_triple", unreachable)
    path = tmp_path / "hexed.json"
    path.write_text(json.dumps(dump_complex(glue_hexagon(grid_complex(25, 25), (0, 0)))))
    code, verdict = run_cli(capsys, "complex", "check", str(path))
    assert code == 2
    assert verdict["certificate"] == {
        "cap": 600, "error": "cap_exceeded",
        "message": "median check over 681 vertices exceeds cap 600"}
    code, verdict = run_cli(capsys, "complex", "check", str(path), "--cap", "100000")
    assert code == 2 and verdict["certificate"]["error"] == "input_format"


@pytest.mark.parametrize("fixture", ["square_file", "torus_file"])
def test_complex_hyperplanes_finds_the_square_classes_once(capsys, monkeypatch, request,
                                                          fixture):
    from functools import cached_property

    from cubical.complexes import CubeComplex

    calls = []
    original = CubeComplex.__dict__["_square_classes"].func

    def counting(x):
        calls.append(x)
        return original(x)

    # the hyperplanes and the median stage both read the square classes
    counted = cached_property(counting)
    counted.__set_name__(CubeComplex, "_square_classes")
    monkeypatch.setattr(CubeComplex, "_square_classes", counted)
    code, verdict = run_cli(capsys, "complex", "hyperplanes",
                            request.getfixturevalue(fixture))
    assert len(calls) == 1
    assert code == (0 if fixture == "square_file" else 1)
