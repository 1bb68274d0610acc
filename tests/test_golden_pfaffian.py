"""Byte identity of `pfaffian eval` on seeded matrix files of sizes 0..22.

`golden_pfaffian.json` lists each file's name and text with the digest (as
in `golden_cli.json`) of `pfaffian eval <name> --json` and of the text
form. The entries are spelled in every form the parser reads: integers,
`a/b` (also unreduced), decimals such as `.5`, `5.` and `0.50`, a leading
`+` or `-`, and leading zeros. A third of the files have most entries zero,
which forces pivot swaps; odd sizes have Pf = 0. Each file is read by a
relative name from the test's working directory, since the name is part of
the JSON answer.

The digests record the output of a known-good tree. After a change that is
meant to alter output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_pfaffian.py
"""

import json
import random
from pathlib import Path

from oracles import random_antisymmetric
from test_golden_cli import digest, write_golden

GOLDEN = Path(__file__).with_name("golden_pfaffian.json")
SIZES = range(0, 23)
ZERO_SHARES = (0.0, 0.5, 0.8)


def spell(q, rng) -> str:
    """One of the spellings of the rational q that the parser reads."""
    num, den = abs(q.numerator), q.denominator
    sign = "-" if q < 0 else rng.choice(("", "+", "-" if not num else ""))
    forms = [f"{num}/{den}", f"00{num}/{den}", f"{3 * num}/0{3 * den}"]
    if den == 1:
        forms += [str(num), f"0{num}"]
    places = next((p for p in range(4) if 10 ** p % den == 0), None)
    if places is not None:
        digits = str(num * 10 ** places // den).rjust(places + 1, "0")
        whole, frac = digits[: len(digits) - places], digits[len(digits) - places:]
        forms += [f"{whole}.{frac}0", f"{whole.lstrip('0')}.{frac}" if frac else f"{whole}."]
    return sign + rng.choice(forms)


def matrix_files() -> list:
    """(name, text) of every golden matrix file, from one seeded generator."""
    rng = random.Random(20)
    files = []
    for k in SIZES:
        for share in ZERO_SHARES:
            rows = random_antisymmetric(rng, k, zero_share=share)
            text = f"{k}\n" + "".join(" ".join(spell(q, rng) for q in row) + "\n" for row in rows)
            files.append((f"m{len(files):02d}-k{k}.txt", text))
    return files


def digests(name: str) -> list:
    return [digest(["pfaffian", "eval", name, "--json"]), digest(["pfaffian", "eval", name])]


def test_pfaffian_eval_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert [(entry["file"], entry["text"]) for entry in golden] == matrix_files()
    wrong = []
    for entry in golden:
        Path(entry["file"]).write_text(entry["text"], encoding="utf-8")
        if digests(entry["file"]) != entry["digests"]:
            wrong.append(entry["file"])
    assert not wrong, f"{len(wrong)} of {len(golden)} files changed output, e.g. {wrong[:5]}"


if __name__ == "__main__":
    import os
    import tempfile

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in matrix_files():
            Path(name).write_text(text, encoding="utf-8")
            entries.append({"file": name, "text": text, "digests": digests(name)})
    write_golden(GOLDEN, entries)
