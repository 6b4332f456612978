"""Command-line front end with machine-readable JSON verdicts.

Exit codes: 0 for an ok verdict, 1 for a negative verdict (still a valid
run), 2 for input errors. Output is deterministic for a fixed invocation;
--seed is recorded in the verdict for reproducibility of any sampling a
caller layers on top.

``COMMANDS`` is the one list of commands. Each takes exactly the flags its
handler reads, plus --seed and --pretty:

    complex check FILE [--dot], links FILE [--vertex],
        hyperplanes FILE [--dot], export FILE [--dot --out]
    pocset validate FILE, dual FILE [--cap --dot --out], cubes FILE [--cap]
    coxeter --matrix M --radius R: ball [--cap --dot], walls [--cap --dot
        --root-edge], halfspaces [--margin --cap --out], cubulate [--margin
        --seed-element --cap --dot --out], ends [--cap]; reduce --matrix M --word W
    tree validate FILE [--out], count -n N, enumerate -n N [--cap --out],
        link -n N [--dot], complex -n N [--cap --dot --out], dist FILE1 FILE2

Any other flag, a missing flag or a bad value is an input error: nothing
runs, usage goes to stderr and the verdict to stdout, with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .complexes import (
    FlagResult,
    dump_complex,
    halfspaces_of,
    hyperplanes,
    is_cat0,
    is_flag,
    load_complex,
    vertex_link,
)
from .coxeter import (
    cayley_ball,
    cubulate,
    ends_profile,
    halfspace_system,
    load_matrix,
    reduce_word,
    walls,
)
from .coxeter import halfspace as cox_halfspace
from .dotio import ball_dot, crossing_graph_dot, simple_graph_dot, skeleton_dot
from .errors import CubicalError, InputFormatError
from .graphs import bits, girth
from .pocsets import dual_complex, dump_system, load_system, maximal_cubes, seed_vertex
from .treespace import (
    cone_distance,
    count_binary,
    dump_tree,
    enumerate_topologies,
    link_of_origin,
    petersen_checks,
    to_orthant,
    treespace_complex,
    validate_tree,
)
from .util import DEFAULT_CAP


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"no such file: {path}")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or text
        raise InputFormatError(f"invalid JSON in {path}: {exc}")


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


class Run:
    """Collects the verdict of one invocation."""

    def __init__(self, args):
        self.args = args
        self.ok = True
        self.certificate: dict = {}
        self.stats: dict = {}

    def emit(self) -> int:
        verdict = {"ok": self.ok, "certificate": self.certificate,
                   "stats": self.stats}
        if self.args.seed is not None:
            verdict["seed"] = self.args.seed
        print(_dumps(verdict, self.args.pretty))
        return 0 if self.ok else 1


def _dumps(verdict: dict, pretty: bool) -> str:
    """The verdict as JSON text. Exact counts such as (2n-3)!! can have
    more digits than the int-to-decimal limit Python sets against
    untrusted input; these numbers are computed, not parsed, so the limit
    is lifted while the verdict is encoded."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if pretty:
            return json.dumps(verdict, indent=2, sort_keys=True)
        return json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# handlers


def _complex_check(run):
    x = load_complex(_read_json(run.args.file))
    run.stats = x.counts()
    verdict = is_cat0(x)  # a CAT(0) input scans no link; the others scan them first
    cert = verdict.certificate()
    if verdict.reason == "link":
        run.certificate["locally_cat0"] = {
            "ok": False, "vertex": cert["vertex"],
            "empty_simplex": cert["empty_simplex"]}
        run.certificate["cat0"] = {"ok": False, "reason": "link"}
    else:
        run.certificate["locally_cat0"] = {"ok": True}
        run.certificate["cat0"] = {"ok": verdict.ok, **cert}
    run.ok = verdict.ok
    if run.args.dot:
        _write(run.args.dot, skeleton_dot(x, hyperplanes(x)))


def _complex_links(run):
    x = load_complex(_read_json(run.args.file))
    targets = list(x.labels)
    if run.args.vertex is not None:
        targets = [v for v in targets if str(v) == run.args.vertex]
        if not targets:
            raise InputFormatError(f"unknown vertex {run.args.vertex}")
    links = {}
    for v in targets:
        link = vertex_link(x, v)
        res = is_flag(link)
        if not res.ok:  # its link vertices are edges of x: name their ends
            res = FlagResult(ok=False, witness=tuple(map(x.named, res.witness)))
        links[str(v)] = {**link.counts(), "flag": res.ok, **res.certificate()}
    run.stats = {"vertices_checked": len(targets), "links": links}
    run.ok = all(entry["flag"] for entry in links.values())
    if not run.ok:
        run.certificate["non_flag_links"] = [
            v for v, entry in links.items() if not entry["flag"]]


def _complex_hyperplanes(run):
    x = load_complex(_read_json(run.args.file))
    hps = hyperplanes(x)
    if x._roller is not None:  # a median graph: each class splits it in two
        counts = {h.index: 2 for h in hps}
    else:
        counts = {h.index: len(halfspaces_of(x, h)) for h in hps}
    crossing = [(h.index, j) for h in hps for j in sorted(h.crosses) if j > h.index]
    run.stats = {
        **x.counts(),
        "hyperplanes": len(hps),
        "edge_class_sizes": [len(h.edges) for h in hps],
        "halfspace_counts": {str(i): c for i, c in counts.items()},
        "crossing_pairs": [list(p) for p in crossing],
    }
    run.ok = all(c == 2 for c in counts.values())
    if not run.ok:
        run.certificate["bad_separations"] = {
            str(i): c for i, c in counts.items() if c != 2}
    if run.args.dot:
        _write(run.args.dot, crossing_graph_dot(crossing, len(hps)))


def _complex_export(run):
    x = load_complex(_read_json(run.args.file))
    payload = dump_complex(x)
    run.stats = x.counts()
    if run.args.out:
        _write(run.args.out, json.dumps(payload, indent=2, sort_keys=True))
    else:
        run.certificate["complex"] = payload
    if run.args.dot:
        _write(run.args.dot, skeleton_dot(x, hyperplanes(x)))


def _pocset_validate(run):
    s = load_system(_read_json(run.args.file))
    run.stats = {"halfspaces": len(s.halfspaces),
                 "hyperplanes": len(s.hyperplanes),
                 "strict_relations": sum(m.bit_count() for m in s.above)}


def _pocset_dual(run):
    s = load_system(_read_json(run.args.file))
    seed = seed_vertex(s)
    dual = dual_complex(s, seed, cap=run.args.cap)
    x = dual.complex
    run.stats = {**x.counts(), "hyperplanes": len(s.hyperplanes)}
    payload = {
        "complex": dump_complex(x),
        "orientations": {str(i): dual.bitmap(i)
                         for i in range(len(dual.masks))},
    }
    if run.args.out:
        _write(run.args.out, json.dumps(payload, indent=2, sort_keys=True))
    else:
        run.certificate["dual"] = payload
    if run.args.dot:
        _write(run.args.dot, skeleton_dot(x, hyperplanes(x)))


def _pocset_cubes(run):
    s = load_system(_read_json(run.args.file))
    seed = seed_vertex(s)
    dual = dual_complex(s, seed, cap=run.args.cap)
    cubes = maximal_cubes(dual)
    run.stats = {
        "maximal_cubes": len(cubes),
        "dimensions": sorted({len(fam) for _, fam in cubes}),
        "families": [list(fam) for _, fam in cubes],
    }


def _parse_word(text: str) -> tuple:
    """1-based generator word: '1 2 1', '121', or 'e' for the identity."""
    text = text.strip()
    if text in ("e", ""):
        return ()
    letters = text.replace(",", " ").split()
    if len(letters) == 1 and len(letters[0]) > 1:
        letters = list(letters[0])
    try:
        return tuple(int(ch) - 1 for ch in letters)
    except ValueError:
        raise InputFormatError(f"cannot parse word {text!r}")


def _coxeter_ball(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    ball = cayley_ball(sys_, run.args.radius, cap=run.args.cap)
    run.stats = {
        "rank": sys_.rank,
        "radius": ball.radius,
        "elements": len(ball.elements),
        "sphere_sizes": {str(r): len(ball.sphere(r))
                         for r in range(ball.radius + 1) if ball.sphere(r)},
        "edges": len(ball.edges),
    }
    if run.args.dot:
        _write(run.args.dot, ball_dot(ball, walls(ball)))


def _coxeter_walls(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    ball = cayley_ball(sys_, run.args.radius, cap=run.args.cap)
    ws = walls(ball)
    covered = sum(len(w.edges) for w in ws)
    run.stats = {
        "walls": len(ws),
        "edges": len(ball.edges),
        "edges_in_walls": covered,
        "wall_sizes": [len(w.edges) for w in ws],
    }
    run.ok = covered == len(ball.edges)
    if not run.ok:
        run.certificate["uncovered_edges"] = len(ball.edges) - covered
    root = None
    if run.args.root_edge:
        parts = run.args.root_edge.split(",")
        if len(parts) != 2:
            raise InputFormatError("--root-edge wants 'U,V'")
        root = cox_halfspace(ball, _parse_word(parts[0]), _parse_word(parts[1]))
        run.stats["root_side_size"] = len(root.side)
    if run.args.dot:
        _write(run.args.dot, ball_dot(ball, ws, root=root))


def _coxeter_halfspaces(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    ball = cayley_ball(sys_, run.args.radius, cap=run.args.cap)
    th = halfspace_system(ball, run.args.margin)
    run.stats = {
        "walls_selected": len(th.walls),
        "hyperplanes": len(th.system.hyperplanes),
        "untrusted_pairs": [[i, j] for i, j, _ in th.untrusted_pairs],
    }
    payload = dump_system(th.system)
    if run.args.out:
        _write(run.args.out, json.dumps(payload, indent=2, sort_keys=True))
    else:
        run.certificate["system"] = payload


def _coxeter_cubulate(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    ball = cayley_ball(sys_, run.args.radius, cap=run.args.cap)
    seed_element = ()
    if run.args.seed_element:
        seed_element = _parse_word(run.args.seed_element)
    cub = cubulate(ball, run.args.margin, cap=run.args.cap,
                   seed_element=seed_element)
    dims = sorted(cub.maximal_cube_dimensions())
    run.stats = {
        **cub.dual.complex.counts(),
        "ball_elements": len(ball.elements),
        "walls_selected": len(cub.truncated.walls),
        "maximal_cube_dimensions": dims,
        "injective_on_ball": cub.injective_on_ball,
        "trusted_radius": cub.trusted_radius,
    }
    if run.args.out:
        payload = {
            "complex": dump_complex(cub.dual.complex),
            "nu": {"".join(str(s + 1) for s in g) or "e": vid
                   for g, vid in cub.nu.items()},
        }
        _write(run.args.out, json.dumps(payload, indent=2, sort_keys=True))
    if run.args.dot:
        _write(run.args.dot, skeleton_dot(cub.dual.complex))


def _coxeter_ends(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    report = ends_profile(sys_, run.args.radius, cap=run.args.cap)
    run.stats = report.certificate()
    run.certificate["verdict"] = report.verdict


def _coxeter_reduce(run):
    sys_ = load_matrix(_read_json(run.args.matrix))
    w = _parse_word(run.args.word)
    canon = reduce_word(sys_, w)
    run.stats = {
        "input_length": len(w),
        "length": len(canon),
        "canonical": "".join(str(s + 1) for s in canon) or "e",
    }


def _tree_validate(run):
    t = validate_tree(_read_json(run.args.file))
    o = to_orthant(t)
    run.stats = {
        "n": t.n,
        "clusters": [sorted(c) for c, _ in o.coords],
        "lengths": [l for _, l in o.coords],
        "binary": len(o.topology) == t.n - 2,
        "notes": list(t.notes),
    }
    if run.args.out:
        _write(run.args.out, json.dumps(dump_tree(t), indent=2, sort_keys=True))


def _tree_count(run):
    run.stats = {"n": run.args.n, "binary_topologies": count_binary(run.args.n)}


def _tree_enumerate(run):
    tops = enumerate_topologies(run.args.n, cap=run.args.cap)
    run.stats = {
        "n": run.args.n,
        "enumerated": len(tops),
        "formula": count_binary(run.args.n),
    }
    run.ok = run.stats["enumerated"] == run.stats["formula"]
    if not run.ok:
        run.certificate["count_mismatch"] = run.stats
    if run.args.out:
        payload = sorted(sorted(list(bits(c)) for c in t) for t in tops)
        _write(run.args.out, json.dumps(payload, indent=2))


def _tree_link(run):
    link = link_of_origin(run.args.n)
    nbrs = [list(bits(m)) for m in link.neighbours]
    run.stats = {
        "n": run.args.n,
        **link.counts(),
        "edges": sum(map(len, nbrs)) // 2,
        "girth": girth(nbrs),
    }
    if run.args.n == 4:
        cert = petersen_checks(nbrs)
        run.certificate["is_petersen"] = all(cert.values())
        run.certificate["petersen_checks"] = cert
        run.ok = all(cert.values())
    if run.args.dot:
        _write(run.args.dot, simple_graph_dot(link.labels, nbrs, "link"))


def _tree_complex(run):
    x = treespace_complex(run.args.n, cap=run.args.cap)
    run.stats = {**x.counts(), "n": run.args.n}
    verdict = is_cat0(x)
    run.certificate["cat0"] = {"ok": verdict.ok, **verdict.certificate()}
    run.ok = verdict.ok
    if run.args.out:
        _write(run.args.out,
               json.dumps(dump_complex(x), indent=2, sort_keys=True))
    if run.args.dot:
        _write(run.args.dot, skeleton_dot(x))


def _tree_dist(run):
    t1 = validate_tree(_read_json(run.args.file1))
    t2 = validate_tree(_read_json(run.args.file2))
    res = cone_distance(t1, t2)
    run.stats = {"value": res.value, "exact": res.exact, "path": res.path}


# ---------------------------------------------------------------------------
# the command table

# One spec per flag, keyed by its name on the command line. A handler reads
# the attribute argparse derives from that name: --root-edge is root_edge.
FLAGS = {
    "file": {}, "file1": {}, "file2": {},
    "-n": {"type": int, "required": True},
    "--matrix": {"required": True, "help": "Coxeter matrix JSON"},
    "--radius": {"type": int, "required": True},
    "--margin": {"type": int, "default": 2, "help": "walls are kept only when "
                 "defined within radius - margin (default 2)"},
    "--word": {"required": True, "help": "1-based generator indices, e.g. '1 2 1'"},
    "--root-edge": {"metavar": "U,V", "help": "two adjacent words ('e,1'): "
                    "color the DOT vertices by the root H(U,V)"},
    "--seed-element": {"help": "1-based word seeding the dual enumeration"},
    "--vertex": {"help": "restrict to one vertex id"},
    "--cap": {"type": int, "default": DEFAULT_CAP, "help": "size cap for enumerations"},
    "--dot": {"metavar": "PATH", "help": "write a DOT rendering here"},
    "--out": {"metavar": "PATH", "help": "write the primary JSON payload here"},
    # every command takes these two: Run.emit and main read them
    "--seed": {"type": int, "help": "seed recorded in the verdict"},
    "--pretty": {"action": "store_true", "help": "indent the verdict"},
}

GROUPS = {"complex": "cubical complexes", "pocset": "halfspace systems",
          "coxeter": "Coxeter groups", "tree": "BHV tree space"}

# (group, command) -> (handler, help, the flags the handler reads). The only
# list of commands: build_parser makes the subparsers from it, and main
# dispatches through it.
COMMANDS = {
    ("complex", "check"): (_complex_check, "link condition, medians, CAT(0) verdict",
                           "file --dot"),
    ("complex", "links"): (_complex_links, "vertex links and flag verdicts",
                           "file --vertex"),
    ("complex", "hyperplanes"): (_complex_hyperplanes,
                                 "hyperplanes, halfspaces, crossings", "file --dot"),
    ("complex", "export"): (_complex_export, "re-emit canonical JSON / DOT",
                            "file --dot --out"),
    ("pocset", "validate"): (_pocset_validate, "validate a halfspace system", "file"),
    ("pocset", "dual"): (_pocset_dual, "dual cube complex of one component",
                         "file --cap --dot --out"),
    ("pocset", "cubes"): (_pocset_cubes, "maximal cubes and their families",
                          "file --cap"),
    ("coxeter", "ball"): (_coxeter_ball, "exact Cayley ball",
                          "--matrix --radius --cap --dot"),
    ("coxeter", "walls"): (_coxeter_walls, "walls of the ball's edges",
                           "--matrix --radius --cap --dot --root-edge"),
    ("coxeter", "halfspaces"): (_coxeter_halfspaces, "truncated halfspace system",
                                "--matrix --radius --margin --cap --out"),
    ("coxeter", "cubulate"): (_coxeter_cubulate, "dual cube complex and embedding",
                              "--matrix --radius --margin --seed-element --cap "
                              "--dot --out"),
    ("coxeter", "ends"): (_coxeter_ends, "ends estimate", "--matrix --radius --cap"),
    ("coxeter", "reduce"): (_coxeter_reduce, "ShortLex normal form of a word",
                            "--matrix --word"),
    ("tree", "validate"): (_tree_validate, "canonicalize a tree", "file --out"),
    ("tree", "count"): (_tree_count, "(2n-3)!! binary topologies", "-n"),
    ("tree", "enumerate"): (_tree_enumerate, "enumerate binary topologies",
                            "-n --cap --out"),
    ("tree", "link"): (_tree_link, "link of the origin", "-n --dot"),
    ("tree", "complex"): (_tree_complex, "unit truncation as a cube complex",
                          "-n --cap --dot --out"),
    ("tree", "dist"): (_tree_dist, "distance between two trees", "file1 file2"),
}


class _Parser(argparse.ArgumentParser):  # add_subparsers makes its parsers of this class
    def error(self, message):  # usage on stderr, the message in the verdict
        self.print_usage(sys.stderr)
        raise InputFormatError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as
    is). Each command takes exactly the flags its table entry names, plus
    --seed and --pretty; any other flag is an input error (exit 2)."""
    top = _Parser(
        prog="cubical",
        description="exact CAT(0) cube complex combinatorics")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="group", required=True)
    groups = {group: sub.add_parser(group, help=text).add_subparsers(
        dest="cmd", required=True) for group, text in GROUPS.items()}
    for (group, cmd), (_, text, flags) in COMMANDS.items():
        p = groups[group].add_parser(cmd, help=text)
        for name in (*flags.split(), "--seed", "--pretty"):
            p.add_argument(name, **FLAGS[name])
    return top


def main(argv=None) -> int:
    run = None  # a command line that does not parse gets a compact verdict
    try:
        run = Run(build_parser().parse_args(argv))
        COMMANDS[run.args.group, run.args.cmd][0](run)
    except CubicalError as exc:
        verdict = {"ok": False, "certificate": exc.certificate(), "stats": {}}
        print(_dumps(verdict, run is not None and run.args.pretty))
        return 2
    return run.emit()


if __name__ == "__main__":
    sys.exit(main())
