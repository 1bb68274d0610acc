"""Byte identity of the command line on every shape with n <= 10.

`golden_cli.json` lists argvs with the first 16 hex digits of the sha256 of
each one's exit code, stdout and stderr. The test runs every argv through
`cli.main` in this one process, so engines warmed by one command serve the
next, and compares digests. The commands, each as JSON and as text:

- `roberts d n`, in report mode and with `--verdict-only`;
- `bundle d n --todd|--ch|--chern --mod-h`;
- `bundle d n --todd|--ch|--chern --max-degree 3`, for shapes with t >= 3;
- for every degree 1..t, one `chow reduce` of a seeded class.

The digests record the output of a known-good tree. After a change that is
meant to alter output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from grasstodd import GrassmannShape, enumerate_box
from grasstodd.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
MAX_N = 10


def digest(argv: list) -> str:
    """The first 16 hex digits of the sha256 of argv's exit code (a
    `SystemExit` counts), stdout and stderr, run through `main` in this
    process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def commands() -> list:
    """Every argv of the golden set, in a fixed order; the classes reduced
    come from one seeded generator."""
    rng = random.Random(18)
    argvs = []
    for n in range(2, MAX_N + 1):
        for d in range(1, n):
            shape = GrassmannShape(d, n)
            dn = [str(d), str(n)]
            base = [["roberts", *dn], ["roberts", *dn, "--verdict-only"]]
            base += [["bundle", *dn, f"--{w}", "--mod-h"] for w in ("todd", "ch", "chern")]
            if shape.dim >= 3:
                base += [["bundle", *dn, f"--{w}", "--max-degree", "3"] for w in ("todd", "ch", "chern")]
            for k in range(1, shape.dim + 1):
                basis = enumerate_box(shape, k)
                terms = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
                cls = " ".join(
                    "[" + ",".join(map(str, lam)) + "]:"
                    + str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))
                    for lam in terms
                )
                base.append(["chow", "reduce", *dn, "--class", cls])
            for argv in base:
                argvs += [argv + ["--json"], argv]
    return argvs


def test_cli_output_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == commands()
    wrong = [entry["argv"] for entry in golden if digest(entry["argv"]) != entry["digest"]]
    assert not wrong, f"{len(wrong)} of {len(golden)} commands changed output, e.g. {wrong[:5]}"


if __name__ == "__main__":
    entries = [json.dumps({"argv": argv, "digest": digest(argv)}) for argv in commands()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
    print(f"wrote {len(entries)} digests to {GOLDEN}")
