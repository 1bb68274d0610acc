"""Byte identity of the command line: every pinned output of the project.

Each golden file lists argvs with the first 16 hex digits of the sha256 of
each one's exit code, stdout and stderr, run through `cli.main` in this
process. `golden_cli.json` holds the warm set, every shape with n <= 10 in
one process, so engines warmed by one command serve the next. Each command
comes as JSON and as text, with `--diagrams` on the text forms of `chow`:

- `roberts d n`, in report mode and with `--verdict-only`;
- `bundle d n --todd|--ch|--chern --mod-h`;
- `bundle d n --todd|--ch|--chern --max-degree 3`, for shapes with t >= 3;
- for every degree 1..t, one `chow reduce` of a seeded class;
- one seeded `chow multiply`, one seeded `chow pieri`, and
  `chow basis --degree t//2`;
- `table 10`, and `pfaffian classify m n` for 1 <= m <= 4, 2m <= n <= 10.

`golden_cold.json` holds the cold set, each argv run after
`engine.cache_clear()`, as a fresh process would run it: ten `bundle`
answers on G(6,12) and G(7,14), report mode on all 75 shapes with
11 <= n <= 16, and two `chow reduce` on G(7,14). After each report the
test also checks the shape (`shape_failures`), and it checks the
`is_zero` of each reduced class.

The digests record the output of a known-good tree. After a change that is
meant to alter output, regenerate both files with

    PYTHONPATH=src python tests/test_golden_cli.py

Every golden file, `golden_pfaffian.json` and `golden_argparse.json` too,
is written by `write_golden`.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from oracles import gorenstein_parity_check

from grasstodd import GrassmannShape, cone_chow_dims, enumerate_box, roberts_verdict
from grasstodd.chow import engine
from grasstodd.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
COLD_GOLDEN = Path(__file__).with_name("golden_cold.json")
MAX_N = 10

# the cold `bundle` answers on G(6,12) and G(7,14)
HEAVY = [
    "bundle 6 12 --todd --json --force",
    "bundle 7 14 --todd --json --force",
    "bundle 7 14 --chern --json --force",
    "bundle 6 12 --todd --mod-h --json --force",
    "bundle 6 12 --chern --mod-h --json --force",
    "bundle 7 14 --todd --mod-h --json --force",
    "bundle 7 14 --todd --mod-h --force",
    "bundle 7 14 --chern --mod-h --json --force",
    "bundle 7 14 --ch --mod-h --json --force",
    "bundle 7 14 --ch --max-degree 6 --json --force",
]
# classes on G(7,14) that survive mod h (degree 20), and that do not (degree 40)
IS_ZERO = {"[7,7,6]:1 [6,6,5,3]:-2/3": False, "[7,7,7,7,6,6]:1 [7,7,7,7,7,5]:5/2": True}


def run(argv: list, cold: bool = False) -> tuple:
    """argv's exit code (a `SystemExit` counts), stdout and stderr, run
    through `main` in this process; after `engine.cache_clear()` if cold."""
    if cold:
        engine.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fingerprint(output: tuple) -> str:
    """The first 16 hex digits of the sha256 of an output of `run`."""
    return hashlib.sha256("\0".join(map(str, output)).encode()).hexdigest()[:16]


def digest(argv: list) -> str:
    """The fingerprint of argv, run in this process as it stands."""
    return fingerprint(run(argv))


def write_golden(path: Path, entries: list) -> None:
    """Write entries to path as a JSON list, one entry a line."""
    path.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} entries to {path}")


def box(shape: GrassmannShape, rng) -> str:
    """A seeded box partition of shape, as the command line spells it."""
    lam = rng.choice(enumerate_box(shape, rng.randint(0, shape.dim)))
    return "[" + ",".join(map(str, lam)) + "]"


def commands() -> list:
    """Every argv of the warm set, in a fixed order; the classes reduced
    come from one seeded generator, and the factors multiplied from another."""
    rng, factors = random.Random(18), random.Random(27)
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
            for argv in (["chow", "multiply", *dn, box(shape, factors), box(shape, factors)],
                         ["chow", "pieri", *dn, box(shape, factors), str(factors.randint(0, n - d))],
                         ["chow", "basis", *dn, "--degree", str(shape.dim // 2)]):
                argvs += [argv + ["--json"], argv + ["--diagrams"]]
    pfaffians = [["pfaffian", "classify", str(m), str(n)] for m in range(1, 5) for n in range(2 * m, MAX_N + 1)]
    for argv in (["table", str(MAX_N)], *pfaffians):
        argvs += [argv + ["--json"], argv]
    return argvs


def cold_commands() -> list:
    """Every argv of the cold set, in a fixed order."""
    reports = [["roberts", str(d), str(n), "--json", "--force"] for n in range(MAX_N + 1, 17) for d in range(1, n)]
    reduces = [["chow", "reduce", "7", "14", "--class", cls, "--json", "--force"] for cls in IS_ZERO]
    return [*map(str.split, HEAVY), *reports, *reduces]


def shape_failures(shape: GrassmannShape) -> list:
    """The checks on one shape that fail, each as a short description; run
    after its report, which the verdict mode here reads from the engine."""
    d, n, t = shape.d, shape.n, shape.dim
    report, scan = roberts_verdict(shape), roberts_verdict(shape, mode="verdict")
    failures = []
    if (scan.verdict, scan.witness) != (report.verdict, report.witness):
        failures.append(f"verdict mode gives {scan.verdict, scan.witness}, "
                        f"report mode {report.verdict, report.witness}")
    if report.verdict != (d in (1, n - 1)):
        failures.append(f"verdict {report.verdict} for d = {d}")
    if not gorenstein_parity_check(shape):
        failures.append("an odd Todd component is nonzero mod h")
    sizes = [len(enumerate_box(shape, k)) for k in range(t + 2)]
    lefschetz = tuple(max(0, sizes[k] - (sizes[k - 1] if k else 0)) for k in range(t + 1, -1, -1))
    if cone_chow_dims(shape).dims != lefschetz:
        failures.append(f"cone Chow dims {cone_chow_dims(shape).dims}, hard Lefschetz {lefschetz}")
    return failures


def test_cli_output_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == commands()
    wrong = [entry["argv"] for entry in golden if digest(entry["argv"]) != entry["digest"]]
    assert not wrong, f"{len(wrong)} of {len(golden)} commands changed output, e.g. {wrong[:5]}"


def test_cold_outputs_match_golden_digests_and_checks():
    golden = json.loads(COLD_GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == cold_commands()
    failures = []
    try:
        for entry in golden:
            argv = entry["argv"]
            output = run(argv, cold=True)
            if fingerprint(output) != entry["digest"]:
                failures.append(f"{' '.join(argv)}: output differs from {COLD_GOLDEN.name}")
            if argv[0] == "roberts":
                shape = GrassmannShape(int(argv[1]), int(argv[2]))
                failures += [f"G({shape.d},{shape.n}): {f}" for f in shape_failures(shape)]
            elif argv[0] == "chow":
                is_zero = json.loads(output[1])["result"]["is_zero"]
                if is_zero is not IS_ZERO[argv[5]]:
                    failures.append(f"{' '.join(argv)}: is_zero {is_zero}")
    finally:
        engine.cache_clear()
    assert not failures, f"{len(failures)} failures in {len(golden)} cold commands: {failures[:5]}"


if __name__ == "__main__":
    write_golden(GOLDEN, [{"argv": argv, "digest": digest(argv)} for argv in commands()])
    write_golden(COLD_GOLDEN, [{"argv": argv, "digest": fingerprint(run(argv, cold=True))} for argv in cold_commands()])
    engine.cache_clear()
