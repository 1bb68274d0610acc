"""Byte identity of the lines that argparse reads: help, --version, usage
errors, argparse's own errors and the usage errors of `table` and
`pfaffian classify`.

The parity tests of `test_cli.py` build the direct grammar and the full
tree from one table, so a changed help line shows in both and they still
agree. `golden_argparse.json` pins these lines. For each argv it holds the
digest (as in `golden_cli.json`, a `SystemExit` counting as the exit code)
of the output of `cli.main` with COLUMNS=80, under each Python minor
version: argparse formats some of these lines differently from one version
to the next, and now and then from one patch release to the next. So an
entry may also hold a digest under a patch release's key ("3.13.0"), where
that release's output differs from its minor version's. The test reads the
running patch release's key where an entry has one, and the minor
version's otherwise. On a minor version with no digests the test fails.

The digests record the output of a known-good tree. Record or refresh the
running minor version's digests, keeping the others, with

    PYTHONPATH=src python tests/test_golden_argparse.py

and add `--patch` to record the running patch release's digests, only for
the lines whose output differs from the minor version's digest.
"""

import json
import os
import sys
from pathlib import Path
from unittest import mock

from grasstodd.cli import GROUPS, LEAVES
from test_golden_cli import digest, write_golden

GOLDEN = Path(__file__).with_name("golden_argparse.json")
VERSION = "%d.%d" % sys.version_info[:2]
PATCH = "%d.%d.%d" % sys.version_info[:3]

# lines that no leaf's direct grammar accepts, each for a reason of its own
ARGPARSE_LINES = [
    ["roberts", "2", "5", "--verd"],             # an abbreviation
    ["roberts", "2", "5", "--json", "--json"],   # a repeated flag
    ["roberts", "2", "5", "-h"],
    ["roberts", "2", "5", "--version"],
    ["roberts", "2", "--", "5"],
    ["roberts", "-1", "5"],                      # a token that starts with '-'
    ["roberts", "x", "5"],                       # a failed conversion
    ["roberts", "2"],                            # a missing positional
    ["roberts", "2", "5", "extra"],              # an extra positional
    ["chow", "basis", "2", "5", "--degree=1"],
    ["chow", "basis", "2", "5"],                 # a required option missing
    ["chow", "basis", "2", "5", "--degree", "--json"],
    ["chow", "basis", "2", "5", "--degree", "1", "--degree", "2"],
    ["chow", "reduce", "2", "5", "--class", "--json"],
    ["bundle", "2", "5"],                        # the required group missing
    ["bundle", "2", "5", "--todd", "--chern"],   # two members of the group
    ["bundle", "2", "5", "--todd", "--max-degree"],
    ["bundle", "2", "5", "--ch", "--max-degree", "-1"],
    ["bundle", "2", "5", "--todd", "--max-degree", "x"],  # a failed option conversion
    ["chow", "basis", "2", "5", "--degree", "1.5"],
    ["pfaffian", "eval", "-"],
]


def commands() -> list:
    """Every argv of the golden set, in a fixed order."""
    argvs = [["--help"], ["--version"], [], ["bogus"]]
    for head in [*([group] for group in GROUPS), *map(list, LEAVES)]:
        argvs += [head, [*head, "--help"]]
    return [*argvs, *ARGPARSE_LINES, ["table", "1"], ["table", "0"], ["pfaffian", "classify", "0", "5"]]


def digests() -> list:
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return [digest(argv) for argv in commands()]


def test_argparse_lines_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == commands()
    assert all(VERSION in entry["digests"] for entry in golden), (
        f"no digests recorded for Python {VERSION}; record them with this module as a script")
    wrong = [entry["argv"] for entry, got in zip(golden, digests())
             if got != entry["digests"].get(PATCH, entry["digests"][VERSION])]
    assert not wrong, f"{len(wrong)} of {len(golden)} lines changed output on Python {PATCH}, e.g. {wrong[:5]}"


if __name__ == "__main__":
    key = PATCH if sys.argv[1:] == ["--patch"] else VERSION
    old = {json.dumps(entry["argv"]): entry["digests"] for entry in json.loads(GOLDEN.read_text())} \
        if GOLDEN.exists() else {}
    entries = []
    for argv, got in zip(commands(), digests()):
        found = dict(old.get(json.dumps(argv), {}))
        found.pop(key, None)
        if found.get(VERSION) != got:
            found[key] = got
        entries.append({"argv": argv, "digests": dict(sorted(found.items()))})
    write_golden(GOLDEN, entries)
