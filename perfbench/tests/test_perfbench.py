"""Tests of the benchmark itself: generator, checker, percentile rule and
tracer. Run with ``python3 -m pytest perfbench/tests -q`` from the
repository root."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cubical import cli  # noqa: E402


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _job(tmp_path, kind, params, seed=0):
    rng = __import__("random").Random(seed)
    return gen._make_job(0, kind, params, rng, str(tmp_path))


def _mutated(text, edit):
    verdict = json.loads(text)
    edit(verdict)
    return json.dumps(verdict) + "\n"


# -- generator -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, workload):
    a = gen.build(workload, 7, str(tmp_path / "a"))
    b = gen.build(workload, 7, str(tmp_path / "b"))
    c = gen.build(workload, 8, str(tmp_path / "c"))
    assert run.digest(tmp_path / "a") == run.digest(tmp_path / "b")
    assert run.digest(tmp_path / "a") != run.digest(tmp_path / "c")
    assert [j["id"] for j in a] == [j["id"] for j in b]
    assert len(a) >= 100


def test_output_sizes_do_not_depend_on_the_seed(tmp_path):
    sizes = []
    for seed in (1, 2):
        jobs = gen.build("pocset_dual", seed, str(tmp_path / str(seed)))
        sizes.append(sorted(json.dumps(j["expect"], sort_keys=True)
                            for j in jobs))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("sizes", [[3, 4], [2, 3, 4], [5]])
def test_product_closed_form_matches_enumeration(sizes):
    rng = __import__("random").Random(1)
    verts, cubes = gen.product_cells(
        [(n, gen.random_tree(n, rng)) for n in sizes])
    assert gen.counts_of(verts, cubes) == gen.product_counts(sizes)


def test_dihedral_normal_forms():
    assert gen.dihedral_normal_form(3, [0, 1, 0, 1]) == "21"
    assert gen.dihedral_normal_form(3, [1, 0, 1]) == "121"
    assert gen.dihedral_normal_form(5, [0, 0]) == "e"
    assert gen.dihedral_normal_form(0, [0, 1, 1, 0, 1]) == "2"


def test_dihedral_wall_counts():
    assert gen.dihedral_walls(5, 4) == 5
    assert gen.dihedral_walls(3, 1) == 2
    assert gen.dihedral_walls(4, 2) == 4


def test_tree_space_counts():
    # rooted phylogenetic trees on n labelled leaves (OEIS A000311)
    assert [sum(check.compatible_set_sizes(n).values())
            for n in (4, 5, 6)] == [26, 236, 2752]


# -- checker ---------------------------------------------------------------


def test_checker_accepts_and_rejects_positive(tmp_path):
    job = _job(tmp_path, "complex_check", {"shape": "trees", "sizes": [3, 4]})
    rc, text = _cli(job["argv"])
    assert check.check(job, rc, text) == 12 + 17 + 6
    flipped = _mutated(text, lambda v: v.update(ok=False))
    with pytest.raises(check.CheckError):
        check.check(job, 1, flipped)
    with pytest.raises(check.CheckError):
        check.check(job, 1, text)

    def wrong_count(v):
        v["stats"]["cubes"]["2"] += 1
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, wrong_count))


def test_checker_rejects_fake_median_witness(tmp_path):
    job = _job(tmp_path, "complex_check", {"shape": "hexagon", "sizes": [3, 3]})
    rc, text = _cli(job["argv"])
    assert rc == 1
    check.check(job, rc, text)
    x = check.InputComplex(json.load(open(job["file"])))
    good = [v for v in x.vertices if v not in
            json.loads(text)["certificate"]["cat0"]["triple"]]

    def fake(v):
        # a triple of one edge plus a neighbour has a unique median
        a = good[0]
        b = sorted(x.adj[a], key=str)[0]
        c = sorted(x.adj[b] - {a}, key=str)[0]
        v["certificate"]["cat0"]["triple"] = [str(a), str(b), str(c)]
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, fake))

    def drop_median(v):
        v["certificate"]["cat0"]["medians"] = ["no-such-vertex"]
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, drop_median))


def test_checker_verifies_link_and_square_witnesses(tmp_path):
    job = _job(tmp_path, "complex_check",
               {"shape": "cube_boundary", "sizes": [3, 3]})
    rc, text = _cli(job["argv"])
    check.check(job, rc, text)

    def filled(v):
        # two link vertices along one square span an edge of the link
        v["certificate"]["locally_cat0"]["empty_simplex"] = (
            v["certificate"]["locally_cat0"]["empty_simplex"][:2])
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, filled))

    job = _job(tmp_path, "complex_check", {"shape": "torus", "n": 5}, seed=1)
    rc, text = _cli(job["argv"])
    check.check(job, rc, text)

    def reversed_cycle(v):
        cycle = v["certificate"]["cat0"]["cycle"]
        cycle[1], cycle[2] = cycle[2], cycle[1]
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, reversed_cycle))


def test_checker_rejects_wrong_dual(tmp_path):
    job = _job(tmp_path, "pocset_dual", {"pocset": "transversal", "k": 3})
    rc, text = _cli(job["argv"])
    assert check.check(job, rc, text) == 8 + 12 + 6 + 1

    def swap_bitmaps(v):
        table = v["certificate"]["dual"]["orientations"]
        table["0"], table["7"] = table["7"], table["0"]
    with pytest.raises(check.CheckError):
        check.check(job, rc, _mutated(text, swap_bitmaps))


def test_checker_rejects_wrong_reduction(tmp_path):
    job = _job(tmp_path, "reduce", {"group": "I2_5", "length": 4})
    rc, text = _cli(job["argv"])
    check.check(job, rc, text)
    bad = copy.deepcopy(job)
    bad["expect"]["canonical"] += "1"
    with pytest.raises(check.CheckError):
        check.check(bad, rc, text)


# -- percentile rule -------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 100), 90) is None
    assert run.percentile([1.0] * 50 + [2.0] * 50, 90) is None
    assert run.percentile(range(1, 201), 50) == 100


def test_passes_for():
    assert run.passes_for(30, 14) == 2
    assert run.passes_for(30, 40) == 1
    assert run.passes_for(30, 9) == 3


# -- tracer ----------------------------------------------------------------


def test_tracer_counts_and_restores(tmp_path):
    from cubical import complexes

    original = complexes.is_locally_cat0
    job = _job(tmp_path, "complex_check", {"shape": "boxes", "sizes": [3, 3]})
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert complexes.is_locally_cat0 is not original
        rc, text = tracer.run_job("0", lambda: _cli(job["argv"]))
        tracer.add(tracer.job_times, 1.0)
    finally:
        tracer.uninstall()
    assert complexes.is_locally_cat0 is original
    check.check(job, rc, text)
    # complex check runs the links check, then is_cat0 runs it again
    assert tracer.counts["complexes.links_calls"] == 2
    assert tracer.counts["complexes.link_vertices"] == 2 * 9
    assert tracer.counts["complexes.cat0_vertices"] == 9
    roots = [s for s in tracer.spans if s[1] == spans.JOB_SPAN]
    assert len(roots) == 1 and all(s[2] == "0" for s in tracer.spans)
    total = roots[0][5] - roots[0][4]
    assert sum(tracer.times.values()) == pytest.approx(total)
