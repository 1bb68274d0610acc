"""Report mode on every shape with 13 <= n <= 16, checked end to end.

For each of the 54 shapes G_d(n) with 13 <= n <= 16, the script runs
`grasstodd roberts d n --json --force` through `cli.main`, all in this one
process, and compares the digest of its exit code, stdout and stderr
(`test_golden_cli.digest`) with `golden_sweep.json`. It also checks, for
each shape:

- verdict mode gives the verdict and the witness of report mode;
- the cone is a Roberts ring exactly when d = 1 or d = n - 1;
- every odd Todd component vanishes mod h (`oracles.gorenstein_parity_check`);
- `cone_chow_dims` is max(0, |A^k| - |A^(k-1)|) for k = t+1 down to 0, the
  hard-Lefschetz count.

It takes 9-16 s on a 2-core box, so its name has no `test_` prefix and
pytest does not collect it. From the repository root:

    PYTHONPATH=src python tests/sweep_reports.py           # exit 1 on any failure
    PYTHONPATH=src python tests/sweep_reports.py --record  # rewrite golden_sweep.json
"""

import json
import sys
from pathlib import Path

from oracles import gorenstein_parity_check
from test_golden_cli import digest

from grasstodd import GrassmannShape, cone_chow_dims, enumerate_box, roberts_verdict

GOLDEN = Path(__file__).with_name("golden_sweep.json")
N_RANGE = range(13, 17)


def commands() -> list:
    """Every argv of the sweep, in (n, d) order."""
    return [["roberts", str(d), str(n), "--json", "--force"] for n in N_RANGE for d in range(1, n)]


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


def main(argv: list) -> int:
    if argv not in ([], ["--record"]):
        print("usage: sweep_reports.py [--record]", file=sys.stderr)
        return 2
    record = bool(argv)
    golden = [] if record else json.loads(GOLDEN.read_text())
    if not record and [e["argv"] for e in golden] != commands():
        print(f"{GOLDEN.name} does not list the sweep's commands", file=sys.stderr)
        return 1
    entries, failures = [], []
    for i, argv in enumerate(commands()):
        entries.append({"argv": argv, "digest": digest(argv)})
        if not record and golden[i] != entries[-1]:
            failures.append(f"{' '.join(argv)}: output differs from {GOLDEN.name}")
        shape = GrassmannShape(int(argv[1]), int(argv[2]))
        failures += [f"G({shape.d},{shape.n}): {f}" for f in shape_failures(shape)]
    if record:
        GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
        print(f"wrote {len(entries)} digests to {GOLDEN}")
    for f in failures:
        print(f)
    print(f"{len(entries)} shapes, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
