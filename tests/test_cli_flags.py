"""The command table: every command takes exactly the flags its handler
reads, plus --seed and --pretty, and any other flag is an input error with
an ``input_format`` verdict.

Needs only pytest and the package, so it runs without the test extras.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cubical import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# the input file of each group's FILE commands
FILES = {"complex": "grid3x3.json", "pocset": "pairs5.json", "tree": "tree1.json"}


def _values(group: str, tmp_path: Path) -> dict:
    """A value for every flag, valid for any command that takes it."""
    return {
        "file": str(FIXTURES / FILES[group]) if group in FILES else None,
        "file1": str(FIXTURES / "tree1.json"),
        "file2": str(FIXTURES / "tree2.json"),
        "-n": "4",
        "--matrix": str(FIXTURES / "a2t.json"),
        "--radius": "3",
        "--margin": "1",
        "--word": "1 2 1",
        "--root-edge": "e,1",
        "--seed-element": "1",
        "--vertex": "1,1",
        "--cap": "1000",
        "--dot": str(tmp_path / "out.dot"),
        "--out": str(tmp_path / "out.json"),
        "--seed": "7",
        "--pretty": None,
    }


def _argv(key, names, values) -> list:
    argv = list(key)
    for name in names:
        if not name.startswith("-"):
            argv.append(values[name])
        elif values[name] is None:
            argv.append(name)
        else:
            argv += [name, values[name]]
    return argv


def _declared(key) -> list:
    return [*cli.COMMANDS[key][2].split(), "--seed", "--pretty"]


class Reads:
    """Parsed arguments that record the name of every attribute read."""

    def __init__(self, args):
        self.args = args
        self.names = set()

    def __getattr__(self, name):  # only for names not set in __init__
        self.names.add(name)
        return getattr(self.args, name)


COMMANDS = sorted(cli.COMMANDS)


@pytest.mark.parametrize("key", COMMANDS, ids=" ".join)
def test_handler_reads_every_declared_flag(capsys, tmp_path, key):
    declared = _declared(key)
    argv = _argv(key, declared, _values(key[0], tmp_path))
    args = Reads(cli.build_parser().parse_args(argv))
    run = cli.Run(args)
    cli.COMMANDS[key][0](run)
    assert run.emit() in (0, 1)
    assert capsys.readouterr().out
    assert args.names == {name.lstrip("-").replace("-", "_") for name in declared}


@pytest.mark.parametrize("key", COMMANDS, ids=" ".join)
def test_undeclared_flags_exit_2(capsys, tmp_path, key):
    values = _values(key[0], tmp_path)
    declared = _declared(key)
    base = _argv(key, declared, values)
    others = [name for name in cli.FLAGS
              if name.startswith("-") and name not in declared]
    assert others
    for name in others:
        assert cli.main(base + _argv((), [name], values)) == 2
        captured = capsys.readouterr()
        cert = json.loads(captured.out)["certificate"]
        assert cert["error"] == "input_format"
        assert cert["message"].startswith("unrecognized arguments: " + name)
        assert captured.err.startswith("usage: cubical")
        assert not any(tmp_path.iterdir())  # nothing ran, nothing was written


def test_tree_count_rejects_dot_and_out(capsys, tmp_path):
    dot, out = tmp_path / "x.dot", tmp_path / "y.json"
    assert cli.main(["tree", "count", "-n", "5", "--dot", str(dot), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "stats": {}, "certificate": {
            "error": "input_format",
            "message": f"unrecognized arguments: --dot {dot} --out {out}"}}
    assert not dot.exists() and not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: group"),
    (["tree", "count"], "the following arguments are required: -n"),
    (["tree", "count", "-n", "x"], "argument -n: invalid int value: 'x'"),
    (["coxeter", "ball", "--radius", "2"], "the following arguments are required: --matrix"),
    (["tree", "count", "-n", "5", "--bogus", "--pretty"], "unrecognized arguments: --bogus"),
])
def test_parse_errors_print_an_input_format_verdict(capsys, argv, message):
    # a command line that does not parse gets a compact verdict, usage on stderr
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == cli._dumps({"ok": False, "stats": {}, "certificate": {
        "error": "input_format", "message": message}}, False) + "\n"
    assert captured.err.startswith("usage: cubical")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["tree", "count", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code in (0, None)
    assert capsys.readouterr().out


def test_every_command_takes_seed_and_pretty_and_its_own_flags():
    # 19 commands, 68 optional flag slots beyond the required ones
    optional = [name for key in COMMANDS for name in _declared(key)
                if name.startswith("--") and not cli.FLAGS[name].get("required")]
    assert len(COMMANDS) == 19
    assert len(optional) == 68


def test_every_cap_default_is_the_cli_default():
    import inspect

    from cubical import (
        cayley_ball,
        cubulate,
        dual_complex,
        ends_profile,
        enumerate_topologies,
        treespace_complex,
    )

    default = cli.FLAGS["--cap"]["default"]
    assert default == 100_000
    for f in (cayley_ball, cubulate, dual_complex, ends_profile,
              enumerate_topologies, treespace_complex):
        assert inspect.signature(f).parameters["cap"].default == default, f.__name__
