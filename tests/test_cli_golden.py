"""Golden CLI outputs: exit code and stdout sha256 of fixed invocations.

``cli_golden.json`` holds one entry per invocation over the input files in
``fixtures/``; ``{fixtures}`` in an argument stands for that directory.
``{tmp}`` stands for an empty directory, and an entry's ``files`` maps the
name of each file the invocation writes there to its sha256: no other file
may appear, so an error exit writes nothing. The
table was recorded before the graph helpers were shared across layers and
the cube canonicalizer took its closed form, and pins the output those
refactors must keep byte for byte. Every invocation in it prints the same
bytes under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cubical.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
TABLE = json.loads((HERE / "cli_golden.json").read_text())


def _case_id(case):
    return " ".join(a.replace("{fixtures}/", "").replace("{tmp}/", "") for a in case["argv"])


def test_golden_table_covers_every_subcommand():
    from cubical.cli import COMMANDS

    assert {tuple(case["argv"][:2]) for case in TABLE} == set(COMMANDS)


@pytest.mark.parametrize("case", TABLE, ids=_case_id)
def test_cli_golden(capsys, tmp_path, case):
    argv = [a.replace("{fixtures}", str(FIXTURES)).replace("{tmp}", str(tmp_path))
            for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == case.get("files", {})
