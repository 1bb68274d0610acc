"""Command-line behavior: exit codes, text output, canonical JSON."""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import time
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import grasstodd.bundles as bundles_module
import grasstodd.cli as cli_module
import grasstodd.cone as cone_module
from grasstodd import GrassmannShape, enumerate_box, from_terms, reduce_mod_h
from grasstodd.chow import ChowElement, engine
from grasstodd.cli import UsageError, main, parse_partition, parse_rational, ser_class
from test_golden_argparse import ARGPARSE_LINES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# -- exit codes ---------------------------------------------------------------

def test_roberts_exit_codes(capsys):
    assert run(capsys, "roberts", "3", "6")[0] == 0
    assert run(capsys, "roberts", "2", "5")[0] == 1
    assert run(capsys, "roberts", "0", "5")[0] == 2


def test_guard_blocks_large_n(capsys):
    code, _, err = run(capsys, "roberts", "2", "14")
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("argv", [
    ["basis", "2", "13", "--degree", "1"],
    ["pieri", "2", "13", "1", "1"],
    ["multiply", "2", "13", "1", "1"],
    ["reduce", "2", "13", "--class", "[2]:1"],
])
def test_guard_covers_chow(capsys, argv):
    code, _, err = run(capsys, "chow", *argv)
    assert code == 2
    assert "--force" in err
    code, out, err = run(capsys, "chow", *argv, "--force")
    assert code == 0 and out and err == ""


def test_pfaffian_classify_exit_codes(capsys):
    assert run(capsys, "pfaffian", "classify", "2", "4")[0] == 0
    assert run(capsys, "pfaffian", "classify", "1", "7")[0] == 0
    assert run(capsys, "pfaffian", "classify", "2", "5")[0] == 1
    assert run(capsys, "pfaffian", "classify", "3", "5")[0] == 2


# -- text output --------------------------------------------------------------

def test_roberts_text_report(capsys):
    code, out, _ = run(capsys, "roberts", "2", "5")
    assert code == 1
    assert "Roberts: no" in out
    assert "witness degree 2" in out
    # one row per degree 1..6 plus headers
    assert out.count("\n") >= 8


def test_roberts_verdict_only_short_circuits(capsys):
    _, out_fast, _ = run(capsys, "roberts", "2", "6", "--verdict-only")
    _, out_full, _ = run(capsys, "roberts", "2", "6")
    assert len(out_fast.splitlines()) < len(out_full.splitlines())


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "6")
    assert code == 0
    assert "Roberts cases: 11 of 15" in out


def test_chow_basis_text(capsys):
    code, out, _ = run(capsys, "chow", "basis", "3", "6", "--degree", "4")
    assert code == 0
    assert "3 classes" in out
    assert "[3, 1]" in out and "[2, 2]" in out and "[2, 1, 1]" in out


def test_chow_basis_degree_out_of_range(capsys):
    code, _, err = run(capsys, "chow", "basis", "2", "4", "--degree", "9")
    assert code == 2
    assert "degree" in err


def test_chow_pieri_text(capsys):
    code, out, _ = run(capsys, "chow", "pieri", "2", "4", "1", "1")
    assert code == 0
    assert "[2]" in out and "[1,1]" in out


def test_chow_pieri_by_sigma_zero_lists_the_partition(capsys):
    code, out = run_json(capsys, "chow", "pieri", "2", "5", "[2,1]", "0", "--json")
    assert code == 0
    assert out["result"]["class"] == [
        {"coefficient": {"den": "1", "num": "1"}, "partition": [2, 1]}
    ]


def test_chow_multiply_text(capsys):
    code, out, _ = run(capsys, "chow", "multiply", "2", "4", "1", "1")
    assert code == 0
    assert "[2]" in out and "[1,1]" in out


def test_chow_multiply_diagrams(capsys):
    _, out, _ = run(capsys, "chow", "multiply", "2", "4", "1", "1", "--diagrams")
    assert "[][]" in out


def test_chow_reduce_text(capsys):
    code, out, _ = run(capsys, "chow", "reduce", "2", "5", "--class", "[2]:1 [1,1]:1")
    assert code == 0
    assert "zero mod h: yes" in out


def test_chow_reduce_json(capsys):
    s = GrassmannShape(2, 5)
    code, doc = run_json(capsys, "chow", "reduce", "2", "5", "--class", "[2]:1/2 [1,1]:-3", "--json")
    assert code == 0
    element = from_terms(s, {(2,): Fraction(1, 2), (1, 1): -3})
    rep, _ = reduce_mod_h(element)
    assert doc["parameters"] == {"d": 2, "n": 5, "class": ser_class(element)}
    assert doc["result"] == {"representative": ser_class(rep), "is_zero": False}
    assert doc["result"]["representative"] == [
        {"partition": [1, 1], "coefficient": {"num": "-7", "den": "2"}}
    ]
    # degree 3 of G(2,5) has a zero quotient
    _, doc = run_json(capsys, "chow", "reduce", "2", "5", "--class", "[3]:1 [2,1]:2", "--json")
    assert doc["result"] == {"representative": [], "is_zero": True}


def test_chow_reduce_rejects_mixed_degrees(capsys):
    code, _, err = run(capsys, "chow", "reduce", "2", "5", "--class", "[1]:1 [2]:1")
    assert code == 2
    assert "degree" in err


def test_bad_partition_is_usage_error(capsys):
    code, _, err = run(capsys, "chow", "pieri", "2", "4", "1,x", "1")
    assert code == 2
    assert "malformed" in err
    code, _, err = run(capsys, "chow", "pieri", "2", "4", "3,3", "1")
    assert code == 2
    assert "box" in err


def test_parse_partition_forms():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("[2,1]") == (2, 1)
    assert parse_partition("(2,1)") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition("[2, 1]") == (2, 1)
    # int() reads all of these; a part is ASCII digits only
    for text in ("1_0", "+2,\u0661", "+1", "\u0661", "2,-1", "\uff12"):
        with pytest.raises(UsageError, match="malformed"):
            parse_partition(text)


def test_bundle_text_ch(capsys):
    code, out, _ = run(capsys, "bundle", "2", "5", "--ch", "--max-degree", "2")
    assert code == 0
    assert "deg 0: 6" in out
    assert "deg 1: 5*[1]" in out
    assert "deg 2: 3/2*[2] + 1/2*[1,1]" in out


def test_bundle_text_todd_mod_h(capsys):
    code, out, _ = run(capsys, "bundle", "2", "5", "--todd", "--mod-h", "--max-degree", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("deg ")]
    assert lines[1] == "deg 1: 0"  # td_1 is a multiple of h
    assert "1/12" in lines[2]


def test_bundle_text_mod_h_builds_no_json(capsys, monkeypatch):
    engine.cache_clear()  # so that no earlier test has kept the JSON answer below
    calls = []
    ser_class = cli_module.ser_class
    monkeypatch.setattr(cli_module, "ser_class", lambda cls: calls.append(cls) or ser_class(cls))
    for which in ("--todd", "--ch", "--chern"):
        code, out, _ = run(capsys, "bundle", "3", "6", which, "--mod-h")
        assert code == 0 and "(reduced mod h)" in out
    assert calls == []
    code, _ = run_json(capsys, "bundle", "3", "6", "--todd", "--mod-h", "--json")
    assert code == 0 and calls  # the spy sees the JSON path


def bundle_queries(shapes):
    """Every `bundle` query on `shapes`: each class, cap (none or 3), with
    and without --mod-h, in JSON and in text."""
    return [
        ["bundle", str(d), str(n), which, *cap, *mod_h, *as_json]
        for d, n in shapes
        for which in ("--todd", "--ch", "--chern")
        for cap in ((), ("--max-degree", "3"))
        for mod_h in ((), ("--mod-h",))
        for as_json in ((), ("--json",))
    ]


# Each argv in its own fork of a process that has only imported the CLI, so
# every query starts as a fresh command-line invocation does.
FRESH_RUNS = textwrap.dedent("""
    import contextlib, io, json, os, sys
    import grasstodd.cli as cli
    results = []
    for argv in json.loads(sys.stdin.read()):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            os.write(write, json.dumps([code, out.getvalue()]).encode())
            os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            results.append(json.loads(fh.read()))
        os.waitpid(pid, 0)
    print(json.dumps(results))
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fresh runs fork a clean process")
def test_repeated_bundle_queries_match_fresh_processes(capsys):
    # the second run of a query writes the answer kept on the shape's engine
    queries = bundle_queries([(2, 6), (3, 7), (3, 8), (4, 8)])
    fresh = subprocess.run([sys.executable, "-c", FRESH_RUNS], input=json.dumps(queries),
                           capture_output=True, text=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    want = [tuple(r) for r in json.loads(fresh.stdout)]
    for _ in range(2):
        for argv, expected in zip(queries, want):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == expected, argv


def test_repeated_bundle_query_renders_nothing(capsys, monkeypatch):
    engine.cache_clear()
    queries = bundle_queries([(3, 6)])
    first = [run(capsys, *argv) for argv in queries]
    calls = []
    for owner, name in ((cli_module, "ser_class"), (json, "dumps"), (ChowElement, "__str__")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    assert [run(capsys, *argv) for argv in queries] == first
    assert calls == []
    # the answers, keyed (class, cap, mod_h, json); the character of T is kept too
    kept = {key: value for key, value in engine(GrassmannShape(3, 6))._kept.items()
            if isinstance(key, tuple) and key[0] in cli_module.BUNDLE_CLASSES}
    assert len(kept) == len(queries)
    assert all(type(value) is str and not gc.is_tracked(value) for value in kept.values())


def test_warm_queries_build_no_fraction(capsys, monkeypatch):
    # a class is one integer piece from argv to JSON: once a query has run,
    # its repeat constructs no Fraction
    queries = [
        ["chow", "multiply", "4", "8", "[2,1]", "[3,2,1]", "--json"],
        ["chow", "multiply", "3", "6", "[1]", "[2]", "--json"],
        ["chow", "pieri", "3", "7", "[3,1]", "2", "--json"],
        ["chow", "pieri", "2", "5", "[2,1]", "0", "--json"],
        ["chow", "reduce", "3", "6", "--class", "[2,1]:3 [3]:-2;[1,1,1]", "--json"],
        ["roberts", "3", "6", "--json"],
        ["roberts", "2", "5", "--json"],  # nonzero representatives
        ["bundle", "3", "6", "--todd", "--json"],
    ]
    first = [run(capsys, *argv) for argv in queries]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: built.append(a) or new(cls, *a, **kw))
    assert [run(capsys, *argv) for argv in queries] == first
    assert built == []
    # the spy sees a coefficient that is not an integer
    run(capsys, "chow", "reduce", "3", "6", "--class", "[2,1]:1/2", "--json")
    assert built


def test_bundle_builds_no_tau_stream(capsys, monkeypatch):
    # each reduced row of `bundle --mod-h` is `reduce_mod_h` of the row the
    # answer prints; only `roberts` reads a shape's tau stream
    shapes = [(3, 6), (2, 7)]
    engine.cache_clear()
    expected = [run(capsys, *argv) for argv in bundle_queries(shapes)]
    engine.cache_clear()
    built = []
    init = cone_module.TauStream.__init__
    monkeypatch.setattr(cone_module.TauStream, "__init__",
                        lambda self, shape: built.append(shape) or init(self, shape))
    assert [run(capsys, *argv) for argv in bundle_queries(shapes)] == expected
    assert built == []
    assert not any("tau stream" in engine(GrassmannShape(d, n))._kept for d, n in shapes)


def test_fractional_chern_piece_raises_on_the_command_line(monkeypatch):
    # `bundle --chern` reads its pieces through `chern_tangent`, so the one
    # integrality check covers every piece it prints
    weight = bundles_module._chern_weight
    monkeypatch.setattr(bundles_module, "_chern_weight",
                        lambda j: Fraction(1, 3) if j == 2 else weight(j))
    engine.cache_clear()
    with pytest.raises(ArithmeticError, match="denominator"):
        main(["bundle", "2", "4", "--chern", "--json"])
    engine.cache_clear()


def test_bundle_max_degree_validation(capsys):
    code, _, err = run(capsys, "bundle", "2", "4", "--todd", "--max-degree", "9")
    assert code == 2
    assert "max-degree" in err


def test_integer_arguments_take_the_form_of_partition_parts(capsys):
    # int alone reads '_' separators, other scripts' digits, spaces and '+',
    # all of which a partition part refuses
    for argv, word in [
        (["roberts", "2", "1_0"], "1_0"),
        (["roberts", "\u0662", "\u0665"], "\u0662"),
        (["chow", "basis", "2", "5", "--degree", " 3"], " 3"),
        (["pfaffian", "classify", "1", "+5"], "+5"),
        (["table", "1" * 4301], "1" * 4301),
    ]:
        path = tuple(argv[:2]) if argv[0] in cli_module.GROUPS else tuple(argv[:1])
        assert cli_module._leaf_grammar(path).parse(argv[len(path):]) is None, argv
        code, out, err = parse_outcome(main, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: ") and err.endswith(f": invalid int value: {word!r}\n"), argv
    # a negative value is still a value, and reaches its range check
    assert run(capsys, "roberts", "-1", "5")[0::2] == (2, "error: need 1 <= d <= n-1, got d=-1, n=5\n")
    assert run(capsys, "bundle", "2", "4", "--todd", "--max-degree", "-1")[0::2] == (
        2, "error: --max-degree must lie in [0, 4]\n")


def test_pfaffian_eval_text(tmp_path, capsys):
    f = tmp_path / "z.txt"
    f.write_text("4\n0 2 3 5\n-2 0 7 11\n-3 -7 0 13\n-5 -11 -13 0\n")
    code, out, _ = run(capsys, "pfaffian", "eval", str(f))
    assert code == 0
    # pf = 2*13 - 3*11 + 5*7 = 28
    assert "Pf  = 28" in out
    assert "Pf^2 == det: yes" in out


def test_pfaffian_eval_json(tmp_path, capsys):
    f = tmp_path / "z.txt"
    f.write_text("4\n0 1/2 3 5\n-1/2 0 7 11\n-3 -7 0 13\n-5 -11 -13 0\n")
    code, doc = run_json(capsys, "pfaffian", "eval", str(f), "--json")
    assert code == 0
    assert doc["parameters"] == {"file": str(f), "size": 4}
    # pf = 13/2 - 3*11 + 5*7 = 17/2
    assert doc["result"] == {
        "pfaffian": {"num": "17", "den": "2"},
        "determinant": {"num": "289", "den": "4"},
        "square_check": True,
    }


def test_pfaffian_eval_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n0 1\n1 0\n")
    code, _, err = run(capsys, "pfaffian", "eval", str(f))
    assert code == 2
    assert "negative" in err
    code, _, err = run(capsys, "pfaffian", "eval", str(tmp_path / "missing.txt"))
    assert code == 2
    f.write_bytes(b"\xff2\n0 1\n-1 0\n")  # not UTF-8
    code, out, err = run(capsys, "pfaffian", "eval", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


@contextlib.contextmanager
def every_digit():
    """No bound on int -> str in the body, where the interpreter has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_exact_answers_print_every_digit(tmp_path, capsys):
    # past CPython's default bound of 4300 digits on int -> str, which
    # reads the same once main returns
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rng = random.Random(19)
    a, b, c, d, e, f = (rng.randrange(10 ** 2999, 10 ** 3000) for _ in range(6))
    path = tmp_path / "big.txt"
    path.write_text(f"4\n0 {a} {b} {c}\n{-a} 0 {d} {e}\n{-b} {-d} 0 {f}\n{-c} {-e} {-f} 0\n")
    pf = a * f - b * e + c * d
    code, doc = run_json(capsys, "pfaffian", "eval", str(path), "--json")
    code_text, out, err = run(capsys, "pfaffian", "eval", str(path))
    code_b, out_b, err_b = run(capsys, "pfaffian", "classify", "5000", "20000")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with every_digit():
        assert (code, doc["result"]) == (0, {
            "pfaffian": {"num": str(pf), "den": "1"},
            "determinant": {"num": str(pf * pf), "den": "1"},
            "square_check": True,
        })
        assert len(str(pf * pf)) > 11_000
        assert (code_text, err) == (0, "")
        assert out == f"Pf  = {pf}\ndet = {pf * pf}\nPf^2 == det: yes\n"
        # B_5000(20000) is no Roberts ring: exit 1, with the whole answer
        assert (code_b, err_b) == (1, "")
        assert out_b.splitlines()[0] == f"B_5000(20000): generators = {comb(20000, 10000)}, height = 50015001"


def test_input_integers_stay_within_4300_digits(tmp_path, capsys):
    over, most = "7" * 4301, "7" * 4300
    f = tmp_path / "long.txt"
    for text in (f"1\n{over}\n", f"1\n-{over}/3\n", f"1\n1/{over}\n", f"1\n{most}.7\n", f"{over}\n"):
        f.write_text(text)
        code, out, err = run(capsys, "pfaffian", "eval", str(f))
        assert (code, out) == (2, ""), text[:8]
        assert err.startswith("error: ") and "more than 4300 digits" in err, text[:8]
    for argv in (
        ["chow", "reduce", "2", "5", "--class", f"[2]:{over}"],
        ["chow", "reduce", "2", "5", "--class", f"[{over}]:1"],
        ["chow", "pieri", "2", "5", f"{over},1", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[-2]
        assert err.startswith("error: ") and "more than 4300 digits" in err, argv[-2]
    # 4300 digits in each integer are read
    code, out, _ = run(capsys, "chow", "reduce", "2", "5", "--class", f"[2]:-{most}/{most}")
    assert (code, out) == (0, "representative: [1,1]\nzero mod h: no\n")


def test_pfaffian_eval_rejects_extra_tokens(tmp_path, capsys):
    f = tmp_path / "long.txt"
    f.write_text("2\n0 1\n-1 0\n7 8 9\n")
    code, out, err = run(capsys, "pfaffian", "eval", str(f))
    assert (code, out) == (2, "")
    assert "3 extra token(s)" in err


def test_parse_rational_forms():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("5") == 5
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("+1") == 1
    # "1_0" is 10 to Fraction on Python 3.11 only; the others on both
    for token in ("1e5", "2E-3", "1.5e0", "1/0", "x", "1_0", "1/1_0", "\u0661", "\u0661/2", ""):
        with pytest.raises(UsageError):
            parse_rational(token)


def test_parse_rational_agrees_with_fraction():
    # tokens that `int` reads on each side, and tokens only `Fraction` reads
    for token in ("+1", "-0", "007/010", "-12/18", "+3/1", "0/5", "9" * 4300, "1/" + "3" * 4300,
                  "1.5", ".5", "5.", "-0.250", "+.0", " 2/4", "7\n", "-1\t"):
        assert parse_rational(token) == Fraction(token), token
        assert type(parse_rational(token)) is Fraction, token
    # each refused token and its message, in the order the checks run
    over = "1" * 4301
    refused = {
        "1e5": "exponent notation is not accepted: '1e5'",
        "1_0": "malformed rational '1_0'",
        "\u0661": "malformed rational '\u0661'",
        over: "a rational has more than 4300 digits in one integer",
        over + "e": f"exponent notation is not accepted: '{over}e'",
        "1/0": "malformed rational '1/0'",
        "1/00": "malformed rational '1/00'",
        "3/-4": "malformed rational '3/-4'",
        "1/+4": "malformed rational '1/+4'",
        "+-1": "malformed rational '+-1'",
        "1//2": "malformed rational '1//2'",
        "/2": "malformed rational '/2'",
        "-/2": "malformed rational '-/2'",
        "1/": "malformed rational '1/'",
        "1 /2": "malformed rational '1 /2'",
        "1/ 2": "malformed rational '1/ 2'",
        "1.5/2": "malformed rational '1.5/2'",
    }
    for token, message in refused.items():
        with pytest.raises(UsageError) as info:
            parse_rational(token)
        assert str(info.value) == message, token[:12]


def test_class_term_needs_a_coefficient_after_the_colon(capsys):
    code, out, err = run(capsys, "chow", "reduce", "2", "5", "--class", "[2]:")
    assert (code, out) == (2, "")
    assert "malformed rational ''" in err
    code, out, _ = run(capsys, "chow", "reduce", "2", "5", "--class", "[2]")
    assert (code, out) == (0, "representative: -[1,1]\nzero mod h: no\n")


def test_matrix_size_line_is_plain_ascii(tmp_path, capsys):
    for head in ("\u0661", "1_0"):
        f = tmp_path / "z.txt"
        f.write_text(f"{head}\n0\n", encoding="utf-8")
        code, out, err = run(capsys, "pfaffian", "eval", str(f))
        assert (code, out) == (2, ""), head
        assert "malformed" in err, head


def test_exponent_tokens_exit_2_at_once(tmp_path, capsys):
    # Fraction("1e10000000") would build a ten-million-digit integer first
    f = tmp_path / "huge.txt"
    f.write_text("1\n1e10000000\n")
    for argv in (
        ["pfaffian", "eval", str(f)],
        ["chow", "reduce", "2", "5", "--class", "[1]:1e10000000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "exponent" in err, argv


def run_quiet(argv):
    """main() with stdout and stderr captured, usable inside @given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


NUMBER = st.builds(lambda p, q: f"{p}/{q}" if q > 1 else str(p),
                   st.integers(-9, 9), st.integers(1, 4))
BAD_TOKEN = st.sampled_from(["1/0", "x", "1/", "/2", "--3", "1//2", "0x1", "nan", "1.2.3", "1e5",
                            "1_0", "\u0661"])


@st.composite
def bad_matrix_files(draw):
    """Matrix-file text that `pfaffian eval` must reject with exit 2."""
    kind = draw(st.sampled_from(["size", "count", "token", "skew"]))
    if kind == "size":
        head = draw(st.one_of(
            BAD_TOKEN, st.integers(-5, -1).map(str), st.sampled_from(["2.0", "1/2", "k", "+"])))
        tail = draw(st.lists(NUMBER, max_size=6))
        return " ".join([head, *tail])
    k = draw(st.integers(0, 4))
    if kind == "count":
        # short or long by at least one token
        n = draw(st.integers(0, k * k + 4).filter(lambda n: n != k * k))
        return f"{k}\n" + " ".join(draw(st.lists(NUMBER, min_size=n, max_size=n)))
    upper = draw(st.lists(NUMBER, min_size=k * k, max_size=k * k))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = Fraction(upper[i * k + j])
            rows[j][i] = -rows[i][j]
    cells = [str(x) for row in rows for x in row]
    if kind == "token" and cells:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_TOKEN)
    elif kind == "skew" and k:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        cells[i * k + j] = str(rows[i][j] + draw(st.integers(1, 5)))
    else:
        cells.append(draw(NUMBER))  # k = 0: the only way to go wrong is a long file
    return f"{k}\n" + " ".join(cells) + "\n"


@given(text=bad_matrix_files(), as_json=st.booleans())
def test_pfaffian_eval_fuzzed_bad_files_exit_2(text, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "z.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = run_quiet(["pfaffian", "eval", path] + (["--json"] if as_json else []))
    assert (code, out) == (2, ""), text
    assert err.startswith("error: ") and "Traceback" not in err


SHAPE = st.sampled_from([(d, n) for n in range(2, 9) for d in range(1, n)])
WRAP = st.sampled_from(["{}", "[{}]", "({})"])
# none of these is a string of ASCII digits (int() reads the last three), and
# none holds a space or ';' that would split a --class chunk in two
BAD_PART = st.sampled_from(["x", "1.5", "1/2", "nan", "0x1", "1e3", "--1", "1-", "",
                            "1_0", "+1", "\u0661"])


@st.composite
def box_partition(draw, d, n):
    return tuple(sorted(draw(st.lists(st.integers(1, n - d), max_size=d)), reverse=True))


def _csv(lam):
    return ",".join(map(str, lam))


@st.composite
def good_partition_text(draw, d, n):
    return draw(WRAP).format(_csv(draw(box_partition(d, n))))


@st.composite
def bad_partition_text(draw, d, n):
    """Partition text that must be refused on the d x (n-d) box. It never
    starts with '-', which argparse would read as an option."""
    kind = draw(st.sampled_from(["token", "order", "negative", "rows", "cols"]))
    parts = [str(p) for p in draw(box_partition(d, n))]
    if kind == "token":
        parts.insert(draw(st.integers(0, len(parts))), draw(BAD_PART))
        if parts == [""]:
            parts.append("x")  # a lone empty token is the empty partition
    elif kind == "order":
        a = draw(st.integers(0, 4))
        parts = [str(a), str(a + draw(st.integers(1, 4)))]
    elif kind == "negative":
        parts = [str(draw(st.integers(1, 4))), str(-draw(st.integers(1, 4)))]
    elif kind == "rows":
        parts = ["1"] * (d + 1)
    else:
        parts[:1] = [str(n - d + draw(st.integers(1, 5)))]
    text = draw(WRAP).format(",".join(parts))
    return f"[{text}]" if text.startswith("-") else text


def assert_usage_error(code, out, err, argv):
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and "Traceback" not in err, argv


@given(shape=SHAPE, data=st.data(), as_json=st.booleans())
def test_chow_product_partition_arguments_fuzzed(shape, data, as_json):
    d, n = shape
    flag = ["--json"] if as_json else []
    good = data.draw(good_partition_text(d, n))
    bad = data.draw(bad_partition_text(d, n))
    m = str(data.draw(st.integers(1, n - d)))
    other = data.draw(good_partition_text(d, n))
    for argv in (["chow", "pieri", str(d), str(n), good, m, *flag],
                 ["chow", "multiply", str(d), str(n), good, other, *flag]):
        code, out, err = run_quiet(argv)
        assert (code, err) == (0, "") and out, argv
    pair = [bad, other] if data.draw(st.booleans()) else [other, bad]
    for argv in (["chow", "pieri", str(d), str(n), bad, m, *flag],
                 ["chow", "multiply", str(d), str(n), *pair, *flag]):
        assert_usage_error(*run_quiet(argv), argv)


@given(shape=SHAPE, data=st.data())
def test_chow_reduce_class_terms_fuzzed(shape, data):
    d, n = shape
    degree = data.draw(st.integers(1, d * (n - d)))
    basis = enumerate_box(GrassmannShape(d, n), degree)
    chosen = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    terms = [f"{data.draw(WRAP).format(_csv(lam))}:{data.draw(NUMBER)}" for lam in chosen]
    sep = data.draw(st.sampled_from([" ", ";", " ; "]))
    code, out, err = run_quiet(["chow", "reduce", str(d), str(n), "--class", sep.join(terms)])
    assert (code, err) == (0, "") and out, terms
    kind = data.draw(st.sampled_from(["partition", "coefficient", "mixed", "degree 0"]))
    if kind == "partition":
        bad = f"{data.draw(bad_partition_text(d, n))}:1"
    elif kind == "coefficient":
        bad = f"[{_csv(chosen[0])}]:{data.draw(BAD_TOKEN)}"
    elif kind == "mixed":
        # a drawn coefficient may be 0, which would leave one degree only
        other = data.draw(st.integers(0, d * (n - d)).filter(lambda w: w != degree))
        terms = [f"[{_csv(chosen[0])}]:1"]
        bad = f"[{_csv(enumerate_box(GrassmannShape(d, n), other)[0])}]:1"
    else:
        terms, bad = [], "[]:1"
    terms.insert(data.draw(st.integers(0, len(terms))), bad)
    argv = ["chow", "reduce", str(d), str(n), "--class", sep.join(terms)]
    assert_usage_error(*run_quiet(argv), argv)


# -- JSON output --------------------------------------------------------------

def test_json_envelope_fields(capsys):
    _, doc = run_json(capsys, "roberts", "2", "4", "--json")
    assert doc["command"] == "roberts"
    assert doc["exact"] is True
    assert doc["parameters"] == {"d": 2, "n": 4}
    assert doc["result"]["roberts"] is True
    assert doc["result"]["witness_degree"] is None
    taus = doc["result"]["tau"]
    assert [t["degree"] for t in taus] == [1, 2, 3, 4]
    assert all(t["is_zero"] for t in taus)


def test_json_rationals_as_string_pairs(capsys):
    _, doc = run_json(capsys, "bundle", "2", "4", "--todd", "--max-degree", "1", "--json")
    comp = doc["result"]["components"][1]
    assert comp["class"] == [
        {"partition": [1], "coefficient": {"num": "2", "den": "1"}}
    ]


def test_json_round_trip_byte_identical(capsys):
    for argv in (
        ["roberts", "2", "5", "--json"],
        ["table", "5", "--json"],
        ["chow", "multiply", "3", "6", "2,1", "2,1", "--json"],
        ["bundle", "2", "5", "--todd", "--mod-h", "--json"],
        ["pfaffian", "classify", "2", "6", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert err == ""
        doc = json.loads(out)
        again = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert again == out.strip()


def test_pfaffian_classify_json_fields(capsys):
    code, doc = run_json(capsys, "pfaffian", "classify", "2", "5", "--json")
    assert code == 1
    assert doc["result"] == {
        "generators": "5",
        "height": "3",
        "is_complete_intersection": False,
        "is_roberts": False,
    }


def test_json_and_text_agree_on_verdict(capsys):
    code_t, out_t, _ = run(capsys, "roberts", "2", "6")
    code_j, doc = run_json(capsys, "roberts", "2", "6", "--json")
    assert code_t == code_j == 1
    assert ("Roberts: no" in out_t) == (doc["result"]["roberts"] is False)
    assert doc["result"]["witness_degree"] == 2


def test_table_json_counts(capsys):
    _, doc = run_json(capsys, "table", "6", "--json")
    assert doc["result"]["total"] == 15
    assert doc["result"]["roberts_count"] == 11


def test_chow_basis_json(capsys):
    _, doc = run_json(capsys, "chow", "basis", "3", "6", "--degree", "4", "--json")
    assert doc["result"]["count"] == 3
    assert doc["result"]["partitions"] == [[3, 1], [2, 2], [2, 1, 1]]


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "grasstodd", "roberts", "2", "4", "--json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["roberts"] is True


@pytest.mark.parametrize("module", ["multiprocessing", "dataclasses", "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # every command is a fresh process, so what the import loads is start-up
    # cost: no command starts worker processes, and the records are named
    # tuples, which need neither dataclasses nor the inspect chain it pulls in
    probe = f"import sys, grasstodd.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_first_command_freezes_the_import_time_objects():
    # later collections then skip everything the imports built
    probe = ("import gc, sys, grasstodd.cli as cli; before = gc.get_freeze_count(); "
             "cli.main(['pfaffian', 'classify', '2', '4']); "
             "print(before == 0 and gc.get_freeze_count() > 0)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("True")


@pytest.fixture
def parsers_built(monkeypatch):
    """Every ArgumentParser built during the test, which starts with no full
    tree cached."""
    cli_module._full_tree.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch, parsers_built):
    # same usage-line wrapping in this process and in the fresh ones
    monkeypatch.setenv("COLUMNS", "80")
    sequence = (
        ["roberts", "2", "6", "--verdict-only"],
        ["roberts", "2", "6"],
        ["roberts", "2"],  # argparse usage error: n is missing
        ["chow", "multiply", "3", "7", "[2,1]", "[1]", "--json"],
        ["roberts", "2", "6", "--verd"],  # an abbreviation, which only argparse reads
        ["pfaffian", "classify", "2", "6"],
    )
    counts = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        counts.append(len(parsers_built))
        fresh = subprocess.run(
            [sys.executable, "-m", "grasstodd", *argv], capture_output=True, text=True,
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    # well-formed lines build no parser; the first other line builds the
    # full tree, and the second one reuses it
    tree = counts[2]
    assert tree > 0 and counts == [0, 0, tree, tree, tree, tree]
    info = cli_module._full_tree.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_second_command_freezes_nothing_more():
    # a second freeze would also freeze the caches the first command filled;
    # the count may fall, as frozen objects are freed
    probe = ("import gc, grasstodd.cli as cli; cli.main(['pfaffian', 'classify', '2', '4']); "
             "first = gc.get_freeze_count(); cli.main(['roberts', '2', '4']); "
             "print(0 < gc.get_freeze_count() <= first)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("True")


def test_cold_command_builds_only_its_own_leaf():
    # counts every parser built from the import on, so the import must build none
    probe = textwrap.dedent("""
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import grasstodd.cli as cli
        counts = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["roberts", "2", "5", "--verdict-only", "--json"],
                         ["roberts", "2", "5", "--verd", "--json"],
                         ["roberts", "2", "5", "extra"]):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
                counts.append(len(built))
        print(*counts, cli._leaf_grammar.cache_info().currsize, cli._full_tree.cache_info().misses)
    """)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    well_formed, abbreviated, extra, grammars, trees = map(int, out.stdout.split())
    # the well-formed command builds no parser and only its own leaf's
    # grammar; the two that argparse reads build the full tree once
    assert well_formed == 0
    assert 0 < abbreviated == extra
    assert (grammars, trees) == (1, 1)


# -- the narrowed parse against the full tree ---------------------------------

FULL_TREE = cli_module.build_parser()
ARGV_WORD = st.sampled_from([
    "roberts", "table", "chow", "basis", "pieri", "multiply", "reduce", "bundle", "pfaffian",
    "classify", "eval", "bogus", "2", "5", "13", "-1", "x", "[2,1]", "stray", "--",
    "--json", "--force", "--verd", "--todd", "--ch", "--mod-h", "--max-degree", "--degree",
    "--class", "--diagrams", "-h", "--help", "--version", "--vers", "-x",
    "--chern", "--verdict-only", "--degree=1", "--json=1", "-5", "",
])
# one argv tail that parses, per leaf, for the drawn words to break
VALID_TAIL = {
    ("roberts",): ["2", "5"],
    ("table",): ["5"],
    ("chow", "basis"): ["2", "5", "--degree", "1"],
    ("chow", "pieri"): ["2", "5", "[2,1]", "1"],
    ("chow", "multiply"): ["2", "5", "1", "1"],
    ("chow", "reduce"): ["2", "5", "--class", "[2]:1"],
    ("bundle",): ["2", "5", "--todd"],
    ("pfaffian", "classify"): ["2", "4"],
    ("pfaffian", "eval"): ["z.txt"],
}


# each leaf's optional arguments, each with the value it takes, if any
OPTIONAL = {
    ("roberts",): (["--json"], ["--force"], ["--verdict-only"]),
    ("table",): (["--json"], ["--force"]),
    ("chow", "basis"): (["--json"], ["--force"], ["--diagrams"]),
    ("chow", "pieri"): (["--json"], ["--force"], ["--diagrams"]),
    ("chow", "multiply"): (["--json"], ["--force"], ["--diagrams"]),
    ("chow", "reduce"): (["--json"], ["--force"], ["--class", "[1,1]:2"]),
    ("bundle",): (["--json"], ["--force"], ["--max-degree", "2"], ["--mod-h"]),
    ("pfaffian", "classify"): (["--json"],),
    ("pfaffian", "eval"): (["--json"],),
}


def test_valid_tails_name_every_leaf():
    assert set(VALID_TAIL) == set(OPTIONAL) == set(cli_module.LEAVES)


@st.composite
def command_lines(draw):
    head = draw(st.sampled_from([*VALID_TAIL, (), ("chow",), ("pfaffian",), ("bogus",)]))
    tail = list(VALID_TAIL.get(head, [])) if draw(st.booleans()) else []
    # distinct whole optional arguments first, which keep a valid tail
    # well-formed unless one lands between an option and its value
    units = draw(st.permutations(OPTIONAL.get(head, (["--json"],))))
    for unit in units[:draw(st.integers(0, len(units)))]:
        i = draw(st.integers(0, len(tail)))
        tail[i:i] = unit
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            tail.insert(draw(st.integers(0, len(tail))), draw(ARGV_WORD))
    # other numbers, so that the well-formed lines are not soon exhausted
    return [*head, *(str(draw(st.integers(0, 20))) if w.isdigit() else w for w in tail)]


def parse_outcome(parse, argv):
    """The Namespace that parse(argv) returns, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@given(argv=command_lines())
def test_narrowed_parse_matches_the_full_tree(argv):
    assert parse_outcome(cli_module.parse_args, argv) == parse_outcome(FULL_TREE.parse_args, argv)


@pytest.mark.parametrize("path", list(cli_module.LEAVES), ids=" ".join)
def test_leaf_help_matches_the_full_tree(path):
    argv = [*path, "--help"]
    got = parse_outcome(cli_module.parse_args, argv)
    assert got == parse_outcome(FULL_TREE.parse_args, argv)
    assert got[0] == 0 and got[1].startswith(f"usage: grasstodd {' '.join(path)} ")


def well_formed_lines(path):
    """The leaf's valid tail with every subset of its optional arguments,
    each in every order and interleaved with the positionals in every way.

    A valid tail is its positionals, then at most one required option with
    its value; that option moves with the optional ones.
    """
    tail = VALID_TAIL[path]
    cut = next((i for i, word in enumerate(tail) if word.startswith("-")), len(tail))
    positionals, required = tail[:cut], [tail[cut:]] if tail[cut:] else []
    optional = OPTIONAL[path]
    for size in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, size):
            for units in itertools.permutations([*required, *chosen]):
                length = len(positionals) + len(units)
                for places in itertools.combinations(range(length), len(units)):
                    words, rest, opts = [], iter(positionals), iter(units)
                    for i in range(length):
                        words.extend(next(opts) if i in places else [next(rest)])
                    yield [*path, *words]


def test_every_well_formed_line_parses_without_a_parser(parsers_built):
    lines = [argv for path in VALID_TAIL for argv in well_formed_lines(path)]
    for argv in lines:
        got = cli_module.parse_args(argv)
        assert parsers_built == [], argv
        assert got == FULL_TREE.parse_args(argv), argv
    assert any(argv.count("--class") == 2 for argv in lines)
    assert any("--max-degree" in argv for argv in lines)


@pytest.mark.parametrize("argv, unbuffered", [
    *(([*path, *tail], False) for path, tail in VALID_TAIL.items()),
    (["table", "12"], True),  # a print fails, not the flush at the end
    (["roberts", "--help"], False),
    (["--version"], False),
    (["roberts", "--help"], True),  # argparse's own write would drop the error
    (["--version"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"unbuffered={v}")
def test_closed_stdout_exits_141_without_a_traceback(argv, unbuffered, tmp_path):
    matrix = tmp_path / "z.txt"
    matrix.write_text("2\n0 1\n-1 0\n")
    argv = [str(matrix) if word == "z.txt" else word for word in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # every write to stdout now fails with EPIPE
    try:
        out = subprocess.run([sys.executable, "-m", "grasstodd", *argv], stdout=write,
                             stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, b""), argv


@pytest.mark.parametrize("argv", ARGPARSE_LINES, ids=" ".join)
def test_other_lines_are_left_to_argparse(argv):
    path = tuple(argv[:2]) if argv[0] in cli_module.GROUPS else tuple(argv[:1])
    assert cli_module._leaf_grammar(path).parse(argv[len(path):]) is None
    assert parse_outcome(cli_module.parse_args, argv) == parse_outcome(FULL_TREE.parse_args, argv)
