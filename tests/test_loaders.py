"""Malformed JSON input exits 2 with an input_format certificate, never
with a traceback."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubical.cli import main
from cubical.complexes import load_complex
from cubical.errors import CubicalError, InputFormatError
from cubical.treespace import load_orthant
from cubical.util import check_ids


def run_json(argv, *payloads):
    """Run the CLI with each payload written to a file substituted for the
    '{}' arguments in ``argv``; return the exit code and stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, payload in enumerate(payloads):
            path = Path(tmp) / f"in{i}.json"
            if isinstance(payload, bytes):
                path.write_bytes(payload)
            else:
                path.write_text(payload if isinstance(payload, str)
                                else json.dumps(payload))
            paths.append(str(path))
        it = iter(paths)
        argv = [next(it) if a == "{}" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue()


COMPLEX = ["complex", "check", "{}"]
TREE = ["tree", "validate", "{}"]
MATRIX = ["coxeter", "ball", "--matrix", "{}", "--radius", "2"]
POCSET = ["pocset", "dual", "{}"]
GOOD_TREE = {"n": 2, "root": "r", "nodes": ["r", "a", "b"],
             "edges": [["r", "a", 0], ["r", "b", 0]],
             "leaf_labels": {"a": 1, "b": 2}}


@pytest.mark.parametrize("argv,payload", [
    (COMPLEX, {"vertices": [[1], [2]], "cubes": {}}),
    (COMPLEX, {"vertices": [1, 2], "cubes": {"x": [[1, 2]]}}),
    (COMPLEX, {"vertices": [1, 2], "cubes": {"1": 5}}),
    (COMPLEX, {"vertices": [1, 2], "cubes": [[1, 2]]}),
    (COMPLEX, {"vertices": [1, 2], "cubes": {"1": [[1, [2]]]}}),
    (COMPLEX, {"vertices": [1, 2], "cubes": {"99999999999": [[1, 2]]}}),
    (COMPLEX, {"vertices": None}),
    (TREE, {**GOOD_TREE, "edges": [["r", "a"], ["r", "b", 0]]}),
    (TREE, {**GOOD_TREE, "n": "two"}),
    (TREE, {**GOOD_TREE, "nodes": "rab"}),
    (TREE, {**GOOD_TREE, "root": ["r"]}),
    (TREE, {**GOOD_TREE, "leaf_labels": {"a": 1, "b": "x"}}),
    (TREE, {**GOOD_TREE, "edges": [["r", "a", "long"], ["r", "b", 0]]}),
    (MATRIX, {"rank": 2, "m": [[1, "x"], ["x", 1]]}),
    (MATRIX, {"rank": "two", "m": [[1, 3], [3, 1]]}),
    (MATRIX, {"m": 5}),
    (MATRIX, {"m": [[1, 3], 3]}),
    (POCSET, {"halfspaces": ["a", "b"], "star": [["a", "b", "c"]]}),
    (POCSET, {"halfspaces": [["a"], "b"], "star": []}),
    (POCSET, {"halfspaces": ["a", "b"], "star": [["a", ["b"]]]}),
    (POCSET, {"halfspaces": ["a", "b"], "star": 3}),
    (COMPLEX, "[" * 100_000),
    (COMPLEX, b"\xff\xfe{"),
])
def test_malformed_input_exits_2(argv, payload):
    code, out = run_json(argv, payload)
    assert code == 2
    assert json.loads(out)["certificate"]["error"] == "input_format"


TREE1 = json.loads((Path(__file__).parent / "fixtures" / "tree1.json").read_text())


def _tree1_with_length(i, length):
    edges = [list(e) for e in TREE1["edges"]]
    edges[i][2] = length
    return {**TREE1, "edges": edges}


NAN_POCSET = '{"halfspaces":[NaN,1],"star":[[NaN,1]],"leq":[]}'


@pytest.mark.parametrize("argv,payloads", [
    # a NaN id is unequal to itself: validate counted two hyperplanes for
    # one star pair, and dual named a partial orientation
    (["pocset", "validate", "{}"], [NAN_POCSET]),
    (POCSET, [NAN_POCSET]),
    (["complex", "export", "{}"],
     ['{"vertices":[Infinity,1],"cubes":{"1":[[Infinity,1]]}}']),
    (TREE, [_tree1_with_length(0, float("inf"))]),
    (["tree", "dist", "{}", "{}"], [_tree1_with_length(0, float("inf")), TREE1]),
    # a NaN interior length was dropped, and the distance reported as exact
    (["tree", "dist", "{}", "{}"], [_tree1_with_length(1, float("nan")), TREE1]),
    (["tree", "dist", "{}", "{}"], [TREE1, _tree1_with_length(1, True)]),
    # true and false were vertices 1 and 0, and [1, true] a duplicate
    (COMPLEX, [{"vertices": [True, False], "cubes": {"1": [[True, False]]}}]),
    (COMPLEX, [{"vertices": [1, True], "cubes": {}}]),
    # a float vertex does not cut the corners' walk short
    (COMPLEX, ['{"vertices":[1.5,2],"cubes":{"1":[[1.5,NaN]]}}']),
    (["pocset", "validate", "{}"],
     [{"halfspaces": [False, 1], "star": [[False, 1]], "leq": []}]),
])
def test_non_finite_and_boolean_values_exit_2(argv, payloads):
    code, out = run_json(argv, *payloads)
    assert code == 2
    assert json.loads(out)["certificate"]["error"] == "input_format"


@pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, -math.inf, None, [1]])
def test_check_ids_names_the_first_bad_id(bad):
    # a finite float passes the per-id loop, and the later bad ids are not named
    for ids in ([1, "a", 2.5, bad, None, True], ("a", bad, math.nan)):
        with pytest.raises(InputFormatError) as info:
            check_ids(ids, "ids")
        assert info.value.message == f"ids must be finite numbers or strings, got {bad!r}"
    check_ids([1, "a", 2.5, -0.0], "ids")


def test_check_ids_walks_a_generator_once():
    # a one-shot iterable is walked once, in order, to the first bad id
    ids = (v for v in [1, "a", 2.5, math.nan, None])
    with pytest.raises(InputFormatError) as info:
        check_ids(ids, "ids")
    assert info.value.message == "ids must be finite numbers or strings, got nan"
    assert list(ids) == [None]
    # the result says whether a float passed, so only then are spellings compared
    assert check_ids((v for v in [1, "a"]), "ids") is False
    assert check_ids((v for v in [1, 2.5, "a"]), "ids") is True


def test_bad_corner_is_named_in_listing_order():
    # the corners are walked once, dimension by dimension, to the first bad one
    data = {"vertices": [0, 1, 2, 3],
            "cubes": {"1": [[0, 1], [1, 3], [2, math.inf]], "2": [[0, 1, 2, None]]}}
    with pytest.raises(InputFormatError) as info:
        load_complex(data)
    assert info.value.message == "cube corners must be finite numbers or strings, got inf"


REDUCE = ["coxeter", "reduce", "--matrix", "{}", "--word", "1 2 1 2 1 2 1"]


@pytest.mark.parametrize("argv,payload", [
    # int() truncated these: n = 4.7 validated as n = 4, and m = 5.9
    # reduced the word as in I2(5)
    (TREE, {**TREE1, "n": 4.7}),
    (REDUCE, {"m": [[1, 5.9], [5.9, 1]]}),
    (TREE, {**TREE1, "leaf_labels": {**TREE1["leaf_labels"], "l4": 4.5}}),
    (MATRIX, {"rank": 2.5, "m": [[1, 3], [3, 1]]}),
])
def test_fractional_integers_exit_2(argv, payload):
    code, out = run_json(argv, payload)
    assert code == 2
    assert json.loads(out)["certificate"]["error"] == "input_format"


@pytest.mark.parametrize("argv,payload,original", [
    (TREE, {**TREE1, "n": 4.0}, TREE1),
    (REDUCE, {"m": [[1, 5.0], [5.0, 1]]}, {"m": [[1, 5], [5, 1]]}),
    (TREE, {**TREE1, "leaf_labels": {**TREE1["leaf_labels"], "l4": 4.0}}, TREE1),
])
def test_integral_floats_load_as_integers(argv, payload, original):
    assert run_json(argv, payload) == run_json(argv, original)


@pytest.mark.parametrize("alias", ["01", " 1", "+1"])
def test_keys_naming_one_dimension_exit_2_naming_both(alias):
    # each key parses as dimension 1: the later listing replaced the
    # earlier, so edge (0, 1) vanished and the complex was "disconnected"
    payload = {"vertices": [0, 1, 2], "cubes": {"1": [[0, 1]], alias: [[1, 2]]}}
    code, out = run_json(COMPLEX, payload)
    cert = json.loads(out)["certificate"]
    assert code == 2 and cert["error"] == "input_format" and cert["keys"] == ["1", alias]


def test_numeric_node_ids_take_their_labels_by_string_form():
    # JSON keys are strings, so {"2": 1} never matched node 2 and every
    # numeric-id tree failed with "leaf 2 has no label"
    data = json.loads((Path(__file__).parent / "fixtures" / "tree_numeric_ids.json").read_text())
    code, out = run_json(TREE, data)
    assert code == 0 and json.loads(out)["stats"]["clusters"] == [[2, 3]]
    named = {**data, "root": "0", "nodes": [str(v) for v in data["nodes"]],
             "edges": [[str(p), str(c), l] for p, c, l in data["edges"]]}
    assert run_json(TREE, named) == (code, out)
    mixed = {**named, "nodes": [0, *named["nodes"]]}  # 0 and "0"
    code, out = run_json(TREE, mixed)
    cert = json.loads(out)["certificate"]
    assert code == 2 and cert["error"] == "input_format" and cert["ids"] == [0, "0"]


@pytest.mark.parametrize("argv,leq", [
    (["pocset", "validate", "{}"], [[1, "y"], [1, 2]]),
    (["pocset", "dual", "{}"], [[1, "y"]]),
])
def test_one_halfspace_spelt_two_ways_exits_2_naming_both(argv, leq):
    # 1 and 1.0 are one id to the builder: validate named a nesting witness
    # spelt 1.0, which the halfspaces list does not use, and dual went on
    payload = {"halfspaces": [1, "x", 2, "y"], "star": [[1.0, "x"], ["y", 2]], "leq": leq}
    code, out = run_json(argv, payload)
    cert = json.loads(out)["certificate"]
    assert code == 2 and cert["error"] == "input_format" and cert["ids"] == [1, 1.0]
    assert json.dumps(cert["ids"]) == "[1, 1.0]"


FIXTURES = Path(__file__).parent / "fixtures"
NUMERIC_TREE = json.loads((FIXTURES / "tree_numeric_ids.json").read_text())


@pytest.mark.parametrize("argv,payload,ids", [
    # a corner spelt 1.0 made edge (1, 2), and the complex passed
    (COMPLEX, {"vertices": [1, 2], "cubes": {"1": [[1.0, 2]]}}, [1, 1.0]),
    # the repeat was named by a spelling the vertex list does not use
    (COMPLEX, {"vertices": [1, 2], "cubes": {"1": [[1, 2], [2.0, 1]]}}, [2, 2.0]),
    (COMPLEX, {"vertices": [1, 1.0], "cubes": {}}, [1, 1.0]),
    (COMPLEX, {"vertices": [0.0, 1], "cubes": {"1": [[-0.0, 1]]}}, [0.0, -0.0]),
    (COMPLEX, (FIXTURES / "complex_spelt_twice.json").read_text(), [2, 2.0]),
    # --out wrote the edge to "1.0", and the file it wrote did not validate
    (TREE, (FIXTURES / "tree_spelt_twice.json").read_text(), [1, 1.0]),
    (TREE, {**NUMERIC_TREE, "root": 0.0}, [0, 0.0]),
    (TREE, {**NUMERIC_TREE, "nodes": [*NUMERIC_TREE["nodes"], 4.0]}, [4, 4.0]),
], ids=["corner", "repeat", "vertices", "signed_zero", "complex_fixture", "tree_fixture",
        "root", "nodes"])
def test_one_id_spelt_two_ways_exits_2_naming_both(argv, payload, ids):
    # the rule of load_system in every loader: the builders would merge 1
    # and 1.0, and an output could print the spelling its input did not list
    code, out = run_json(argv, payload)
    cert = json.loads(out)["certificate"]
    assert code == 2 and cert["error"] == "input_format" and cert["ids"] == ids
    assert json.dumps(cert["ids"]) == json.dumps(ids)


def test_float_ids_spelt_alike_load():
    code, out = run_json(COMPLEX, {"vertices": [1.5, 2.5], "cubes": {"1": [[2.5, 1.5]]}})
    assert code == 0 and json.loads(out)["stats"]["vertices"] == 2


def test_string_zero_in_a_matrix_denotes_infinity():
    # "0" parsed as 0 but missed the map to infinity: entry_below_two
    ball = ["coxeter", "ball", "--matrix", "{}", "--radius", "4"]
    code, out = run_json(ball, {"m": [[1, "0"], ["0", 1]]})
    assert code == 0 and (code, out) == run_json(ball, {"m": [[1, 0], [0, 1]]})


def test_huge_leaf_count_is_rejected_without_allocating():
    code, out = run_json(TREE, {**GOOD_TREE, "n": 10 ** 12})
    assert code == 2
    assert json.loads(out)["certificate"]["error"] == "unlabeled_leaf"


@pytest.mark.parametrize("data", [
    {"n": 4, "clusters": [[1, 2]]},
    {"n": 4, "clusters": [["1", 2]], "lengths": [1.0]},
    {"n": 4, "clusters": [[1, 2]], "lengths": ["x"]},
    {"clusters": [[1, 2]], "lengths": [1.0]},
    {"n": 4, "clusters": 5, "lengths": []},
])
def test_malformed_orthant_raises_input_format_error(data):
    with pytest.raises(InputFormatError):
        load_orthant(data)


def test_orthant_with_huge_leaf_count_loads_without_allocating():
    o = load_orthant({"n": 10 ** 12, "clusters": [[1, 2]], "lengths": [1.0]})
    assert o.n == 10 ** 12 and o.topology == {frozenset({1, 2})}


# ---------------------------------------------------------------------------
# fuzzing: JSON values shaped roughly like each format


scalars = (st.none() | st.booleans() | st.integers(-3, 8) | st.integers()
           | st.floats(allow_nan=False) | st.text("abr12x", max_size=3))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("abr12x", max_size=2), inner, max_size=3),
    max_leaves=12)


def maybe(strategy):
    """Mostly ``strategy``, sometimes any JSON value in its place."""
    return st.integers(0, 7).flatmap(lambda i: values if i == 0 else strategy)


ids = maybe(st.integers(0, 5) | st.text("abc", min_size=1, max_size=1))
dims = st.sampled_from(["1", "1", "2", "3", "0", "-1", "x", "99999999999"]) | st.text(max_size=2)


complexes = maybe(st.fixed_dictionaries({
    "vertices": maybe(st.lists(ids, max_size=6)),
    "cubes": maybe(st.dictionaries(dims, maybe(st.lists(
        maybe(st.lists(ids, max_size=4)), max_size=5)), max_size=3)),
}))
pairs = maybe(st.lists(maybe(st.lists(ids, min_size=2, max_size=2)), max_size=4))
pocsets = maybe(st.fixed_dictionaries({
    "halfspaces": maybe(st.lists(ids, max_size=8)), "star": pairs, "leq": pairs}))
matrix_entries = maybe(st.sampled_from([0, 1, 2, 3, 4, 5, None]))


@st.composite
def symmetric_matrices(draw):
    k = draw(st.integers(1, 3))
    m = [[1] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        m[i][j] = m[j][i] = draw(matrix_entries)
    for i in range(k):
        m[i][i] = draw(st.sampled_from([1, 1, 1, 2]))
    return m


matrices = maybe(st.fixed_dictionaries(
    {"m": maybe(symmetric_matrices() | st.lists(
        maybe(st.lists(matrix_entries, min_size=1, max_size=3)),
        min_size=1, max_size=3))},
    optional={"rank": maybe(st.integers(0, 3))}))
trees = maybe(st.fixed_dictionaries({
    "n": maybe(st.integers(0, 4)),
    "root": maybe(st.sampled_from(["r", "a"])),
    "nodes": maybe(st.lists(st.sampled_from(["r", "a", "b", "c", "u"]) | ids,
                            max_size=6)),
    "edges": maybe(st.lists(maybe(st.lists(
        st.sampled_from(["r", "a", "b", "c", "u"]) | scalars, min_size=2, max_size=4)),
        max_size=5)),
    "leaf_labels": maybe(st.dictionaries(st.sampled_from(["a", "b", "c", "u"]),
                                         maybe(st.integers(0, 4)), max_size=4)),
}))
orthants = maybe(st.fixed_dictionaries({
    "n": maybe(st.integers(2, 5)),
    "clusters": maybe(st.lists(maybe(st.lists(st.integers(0, 6), max_size=4)),
                               max_size=3)),
    "lengths": maybe(st.lists(maybe(st.floats(0, 3)), max_size=3)),
}))

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def assert_clean_exit(argv, *payloads):
    code, out = run_json(argv, *payloads)
    assert code in (0, 1, 2)
    assert json.loads(out)["ok"] is (code == 0)


@FUZZ
@given(complexes)
def test_fuzz_complex_loader(data):
    assert_clean_exit(COMPLEX, data)


@FUZZ
@given(pocsets)
def test_fuzz_pocset_loader(data):
    assert_clean_exit(POCSET, data)


@FUZZ
@given(matrices)
def test_fuzz_matrix_loader(data):
    assert_clean_exit(MATRIX, data)


@FUZZ
@given(trees, trees)
def test_fuzz_tree_loader(t1, t2):
    assert_clean_exit(TREE, t1)
    assert_clean_exit(["tree", "dist", "{}", "{}"], t1, t2)


@FUZZ
@given(orthants)
def test_fuzz_orthant_loader(data):
    try:
        load_orthant(data)
    except CubicalError:
        pass
