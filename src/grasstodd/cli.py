"""Command-line surface: verdicts, tables, Chow arithmetic, bundle classes,
and Pfaffian tools, in text or machine-readable JSON.

Exit codes: 0 for success/affirmative verdicts, 1 for negative verdicts,
2 for usage or validation errors, 141 when the reader of stdout has gone.
JSON output is canonical (sorted keys, no whitespace) so that parse +
re-serialize round-trips byte-identically; rationals are emitted as
{"num": ..., "den": ...} string pairs.

Each leaf command is declared once, in `LEAVES`: its help line, its
handler and its arguments as data. Two parsers read that one declaration.
A well-formed command line is read by its leaf's direct grammar, which
builds no argparse parser; every other line, help and errors among them,
is read by the full argparse tree (see `parse_args`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from . import __version__
from .bundles import ch_tangent, chern_tangent, todd_pieces
from .chow import (
    ChowElement,
    NonHomogeneousError,
    combine,
    engine,
    multiply,
    pieri,
    reduce_mod_h,
    schubert,
    term_order,
)
from .cone import roberts_verdict, verdict_table
from .partitions import GrassmannShape, enumerate_box, normalize_partition
from .pfaffian import check_antisymmetric, classify_B, determinant_ratio, lowest_terms, pfaffian_ratio

GUARD_N = 12
MAX_DIGITS = 4300  # in one input integer: CPython's default bound on str -> int


class UsageError(Exception):
    pass


def _checked(func, *args):
    """func(*args), with a ValueError that it raises raised as a UsageError."""
    try:
        return func(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- parsing helpers ----------------------------------------------------------


def parse_partition(text: str) -> tuple:
    """Accepts "2,1", "[2,1]", "(2,1)", or "" / "[]" / "0" for the empty one.

    Each part is a string of ASCII digits: no sign, no '_' separator and no
    other script's digits, all of which `int` would read.
    """
    s = text.strip().strip("[]()")
    if s in ("", "0"):
        return ()
    parts = [p.strip() for p in s.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise UsageError(f"malformed partition {text!r}")
    if max(map(len, parts)) > MAX_DIGITS:
        raise UsageError(f"a partition part has more than {MAX_DIGITS} digits")
    return _checked(normalize_partition, tuple(map(int, parts)))


def parse_int(text: str) -> int:
    """An integer argument: an optional '-', then 1 to MAX_DIGITS ASCII
    digits. `int` would also read '+', spaces, '_' and other scripts' digits."""
    digits = text.removeprefix("-")
    if len(digits) > MAX_DIGITS or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


parse_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _ascii_token(token: str, what: str) -> str:
    # int and Fraction also read '_' separators and other scripts' digits,
    # and Fraction reads '_' only from Python 3.11 on
    if not token.isascii() or "_" in token:
        raise UsageError(f"malformed {what} {token!r}")
    # Fraction reads 'a.b' as the integer ab over a power of ten
    if len(token) > MAX_DIGITS and any(
            sum(map(str.isdigit, side)) > MAX_DIGITS for side in token.split("/")):
        raise UsageError(f"a {what} has more than {MAX_DIGITS} digits in one integer")
    return token


def parse_ratio(token: str) -> tuple:
    """A rational such as "-3/7", "5" or "1.5", in ASCII without '_', in lowest terms.

    `int` reads each side of the forms of `str(Fraction)`, "[+-]digits" and
    "[+-]digits/digits"; `Fraction` reads the rest. Exponent notation is refused
    first: it would build the whole integer, and "1e10000000" takes seconds.
    """
    if "e" in token or "E" in token:
        raise UsageError(f"exponent notation is not accepted: {token!r}")
    num, slash, den = _ascii_token(token, "rational").partition("/")
    try:
        fast = (num[1:] if num[:1] in "+-" else num).isdigit() and (den.isdigit() or not slash)
        return lowest_terms(int(num), int(den or 1)) if fast else Fraction(token).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {token!r}") from None


def parse_rational(token: str) -> Fraction:
    """`parse_ratio`'s rational, as a Fraction."""
    return Fraction(*parse_ratio(token))


def parse_class(shape: GrassmannShape, specs: list) -> ChowElement:
    """Terms like "[2,1]:-3/4"; a bare "[2,1]" means coefficient 1, and a
    ':' with no coefficient after it is an error.

    Each --class flag may carry several terms separated by whitespace or ';'.
    Only the syntax is read here: `combine` checks each partition against
    the box, once every term has been read. An integer coefficient reaches
    `combine` as an int.
    """
    pairs = []
    for spec in specs:
        for chunk in spec.replace(";", " ").split():
            part, colon, coeff = chunk.partition(":")
            lam = parse_partition(part)
            try:
                c = parse_int(coeff) if colon else 1
            except ValueError:
                c = parse_rational(coeff)
            pairs.append((lam, c))
    return _checked(combine, shape, pairs)


def check_guard(n: int, force: bool) -> None:
    if n > GUARD_N and not force:
        raise UsageError(
            f"n = {n} exceeds the default guard of {GUARD_N}; pass --force to proceed"
        )


def _shape(args) -> GrassmannShape:
    """The shape of a d n command, checked against the size guard."""
    shape = _checked(GrassmannShape, args.d, args.n)
    check_guard(args.n, args.force)
    return shape


# -- serialization ------------------------------------------------------------


def ser_ratio(num: int, den: int) -> dict:
    """The rational num / den, for den > 0, in lowest terms."""
    g = gcd(num, den)
    return {"num": str(num // g), "den": str(den // g)}


def ser_class(a: ChowElement) -> list:
    """The terms in `term_order`, read from the integer piece: no Fraction."""
    return [{"partition": list(lam), "coefficient": ser_ratio(a.terms[lam], a.den)}
            for lam in sorted(a.terms, key=term_order)]


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def json_line(command: str, parameters: dict, result) -> str:
    """The canonical JSON envelope of an answer, as one line of stdout, by the
    process's one encoder: an envelope is a fresh tree, with no cycle to check for."""
    env = {"command": command, "parameters": parameters, "result": result,
           "engine_version": __version__, "exact": True}
    return _encode(env) + "\n"


def emit_json(command: str, parameters: dict, result) -> None:
    sys.stdout.write(json_line(command, parameters, result))


def diagram(lam: tuple, indent: str = "  ") -> str:
    return "\n".join(indent + "[]" * p for p in lam) if lam else indent + "(empty)"


def print_class(a: ChowElement, diagrams: bool = False) -> None:
    print(a)
    if diagrams:
        for lam, _ in a.ordered():
            print(f"  {list(lam)}:")
            print(diagram(lam, "    "))


# -- subcommands --------------------------------------------------------------


def cmd_roberts(args) -> int:
    shape = _shape(args)
    report = roberts_verdict(shape, mode="verdict" if args.verdict_only else "report")
    if args.json:
        payload = {
            "shape": {"d": shape.d, "n": shape.n, "t": shape.dim},
            "cone_dim": report.cone_dim,
            "roberts": report.verdict,
            "witness_degree": report.witness,
            "tau": [
                {
                    "degree": r.degree,
                    "tau_index": r.tau_index,
                    "representative": ser_class(r.representative),
                    "is_zero": r.is_zero,
                }
                for r in report.records
            ],
        }
        emit_json("roberts", {"d": args.d, "n": args.n}, payload)
    else:
        print(f"G_{shape.d}({shape.n}): t = {shape.dim}, cone dimension {report.cone_dim}")
        print(f"Roberts: {'yes' if report.verdict else 'no'}")
        if report.witness is not None:
            rec = report.record(report.witness)
            print(f"witness degree {report.witness}: tau = {rec.representative}")
        print(f"{'degree':>6}  {'tau-index':>9}  {'zero':>4}  representative")
        for r in report.records:
            print(f"{r.degree:>6}  {r.tau_index:>9}  {'yes' if r.is_zero else 'no':>4}  {r.representative}")
    return 0 if report.verdict else 1


def cmd_table(args) -> int:
    check_guard(args.max_n, args.force)
    entries = _checked(verdict_table, args.max_n)
    roberts_count = sum(1 for e in entries if e.roberts)
    if args.json:
        payload = {
            "entries": [
                {"d": e.d, "n": e.n, "roberts": e.roberts, "witness_degree": e.witness}
                for e in entries
            ],
            "roberts_count": roberts_count,
            "total": len(entries),
        }
        emit_json("table", {"max_n": args.max_n}, payload)
    else:
        print(f"{'d':>3} {'n':>3}  {'roberts':7}  witness")
        for e in entries:
            w = "-" if e.witness is None else str(e.witness)
            print(f"{e.d:>3} {e.n:>3}  {'yes' if e.roberts else 'no':7}  {w}")
        print(f"Roberts cases: {roberts_count} of {len(entries)}")
    return 0


def cmd_basis(args) -> int:
    shape = _shape(args)
    if not 0 <= args.degree <= shape.dim:
        raise UsageError(f"degree must lie in [0, {shape.dim}]")
    basis = enumerate_box(shape, args.degree)
    if args.json:
        emit_json("chow.basis", {"d": args.d, "n": args.n, "degree": args.degree},
                  {"partitions": [list(lam) for lam in basis], "count": len(basis)})
    else:
        print(f"degree {args.degree} basis of G_{shape.d}({shape.n}): {len(basis)} classes")
        for lam in basis:
            print(f"  {list(lam)}")
            if args.diagrams:
                print(diagram(lam))
    return 0


def _emit_product(args, command: str, params: dict, result: ChowElement) -> int:
    """The answer of `chow pieri` or `chow multiply`."""
    if args.json:
        emit_json(command, {"d": args.d, "n": args.n, **params}, {"class": ser_class(result)})
    else:
        print_class(result, args.diagrams)
    return 0


def cmd_pieri(args) -> int:
    shape = _shape(args)
    a = _checked(schubert, shape, parse_partition(args.lam))
    (lam,) = a.terms
    return _emit_product(args, "chow.pieri", {"partition": list(lam), "m": args.m}, pieri(a, args.m))


def cmd_multiply(args) -> int:
    shape = _shape(args)
    a, b = (_checked(schubert, shape, parse_partition(text)) for text in (args.lam, args.mu))
    (lam,), (mu,) = a.terms, b.terms
    return _emit_product(args, "chow.multiply", {"lam": list(lam), "mu": list(mu)}, multiply(a, b))


def cmd_reduce(args) -> int:
    shape = _shape(args)
    element = parse_class(shape, args.cls)
    try:
        rep, is_zero = reduce_mod_h(element)
    except NonHomogeneousError as exc:
        raise UsageError(str(exc)) from None
    if args.json:
        emit_json("chow.reduce", {"d": args.d, "n": args.n, "class": ser_class(element)},
                  {"representative": ser_class(rep), "is_zero": is_zero})
    else:
        print(f"representative: {rep}")
        print(f"zero mod h: {'yes' if is_zero else 'no'}")
    return 0


# Each `bundle` class: the constructor of its graded pieces, and its label.
BUNDLE_CLASSES = {"todd": (todd_pieces, "td"), "ch": (ch_tangent, "ch"), "chern": (chern_tangent, "c")}


def cmd_bundle(args) -> int:
    shape = _shape(args)
    cap = shape.dim if args.max_degree is None else args.max_degree
    if not 0 <= cap <= shape.dim:
        raise UsageError(f"--max-degree must lie in [0, {shape.dim}]")
    pieces, label = BUNDLE_CLASSES[args.which]

    def build() -> str:
        parts = pieces(shape, cap).parts
        degrees = range(1 if args.which == "chern" else 0, cap + 1)
        if not args.json:
            suffix = " (reduced mod h)" if args.mod_h else ""
            lines = [f"{label} of the tangent bundle on G_{shape.d}({shape.n}){suffix}"]
            lines += [f"deg {k}: {reduce_mod_h(parts[k])[0] if args.mod_h and k else parts[k]}"
                      for k in degrees]
            return "\n".join(lines) + "\n"
        entries = []
        for k in degrees:
            entry = {"degree": k, "class": ser_class(parts[k])}
            if args.mod_h and k:
                rep, is_zero = reduce_mod_h(parts[k])
                entry.update(is_zero=is_zero, reduced=ser_class(rep))
            entries.append(entry)
        return json_line(f"bundle.{args.which}", {"d": args.d, "n": args.n, "max_degree": cap,
                                                  "mod_h": args.mod_h}, {"components": entries})

    # the whole stdout, kept on the shape's engine: a repeat renders nothing
    sys.stdout.write(engine(shape).kept((args.which, cap, args.mod_h, args.json), build))
    return 0


def cmd_classify(args) -> int:
    c = _checked(classify_B, args.m, args.n2)
    if args.json:
        emit_json("pfaffian.classify", {"m": args.m, "n": args.n2}, {
            "generators": str(c.generators),
            "height": str(c.height),
            "is_complete_intersection": c.is_complete_intersection,
            "is_roberts": c.is_roberts,
        })
    else:
        print(f"B_{c.m}({c.n}): generators = {c.generators}, height = {c.height}")
        print(f"CI: {'yes' if c.is_complete_intersection else 'no'}; "
              f"Roberts: {'yes' if c.is_roberts else 'no'}")
    return 0 if c.is_roberts else 1


def cmd_eval(args) -> int:
    # each entry a (num, den) pair, into pfaffian's integer cores: no Fraction but for decimals
    try:
        with open(args.file, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(str(exc)) from None
    if not tokens:
        raise UsageError("empty matrix file")
    try:
        k = int(_ascii_token(tokens[0], "matrix size"))
    except ValueError as exc:
        raise UsageError(f"malformed matrix file: {exc}") from None
    if k < 0:
        raise UsageError(f"negative matrix size {k}")
    vals = [parse_ratio(tok) for tok in tokens[1 : 1 + k * k]]
    if len(vals) != k * k:
        raise UsageError(f"expected {k}x{k} entries after the size line")
    extra = len(tokens) - 1 - k * k
    if extra:
        raise UsageError(f"{extra} extra token(s) after the {k}x{k} entries")
    rows = [vals[i * k : (i + 1) * k] for i in range(k)]
    _checked(check_antisymmetric, rows)
    (pn, pd), (dn, dd) = pf, det = pfaffian_ratio(rows), determinant_ratio(rows)
    square = pn * pn * dd == dn * pd * pd
    if args.json:
        emit_json("pfaffian.eval", {"file": args.file, "size": k}, {
            "pfaffian": ser_ratio(*pf), "determinant": ser_ratio(*det), "square_check": square})
    else:
        print(f"Pf  = {pn}" + (f"/{pd}" if pd > 1 else ""))
        print(f"det = {dn}" + (f"/{dd}" if dd > 1 else ""))
        print(f"Pf^2 == det: {'yes' if square else 'no'}")
    return 0


# -- argument wiring ----------------------------------------------------------


# The arguments that several leaves share, each declared only here. An
# argument is its name and the keywords of `add_argument`.
INT, FLAG = {"type": parse_int}, {"action": "store_true"}
JSON = ("--json", FLAG)
FORCE = ("--force", {**FLAG, "help": f"lift the n <= {GUARD_N} guard"})
SHAPE = (JSON, FORCE, ("d", INT), ("n", INT))  # how every d n command begins
DIAGRAMS = ("--diagrams", FLAG)

# The leaf commands, in --help order: the words that name each one, mapped to
# its help line, the function that runs it and its arguments, in order; a
# nested tuple of arguments is a required mutually exclusive group. This is
# the one declaration of each leaf: `build_parser` adds these arguments to
# the leaf's subparser, and `_LeafGrammar` reads the same ones.
LEAVES = {
    ("roberts",): ("Roberts-ring verdict for the cone over G_d(n)", cmd_roberts, (
        *SHAPE, ("--verdict-only", {**FLAG, "help": "stop at the first nonzero component"}))),
    ("table",): ("verdict grid for all shapes up to max_n", cmd_table, (JSON, FORCE, ("max_n", INT))),
    ("chow", "basis"): ("graded basis partitions", cmd_basis, (
        *SHAPE, DIAGRAMS, ("--degree", {**INT, "required": True}))),
    ("chow", "pieri"): ("multiply a Schubert class by sigma_m", cmd_pieri, (
        *SHAPE, DIAGRAMS, ("lam", {"metavar": "partition"}), ("m", INT))),
    ("chow", "multiply"): ("product of two Schubert classes", cmd_multiply, (
        *SHAPE, DIAGRAMS, ("lam", {}), ("mu", {}))),
    ("chow", "reduce"): ("canonical representative modulo h", cmd_reduce, (*SHAPE, (
        "--class", {"dest": "cls", "action": "append", "required": True, "metavar": "TERMS",
                    "help": 'e.g. "[2]:1" or "[2,1]:-3/4 [1,1]:2"'}))),
    ("bundle",): ("tangent-bundle classes on G_d(n)", cmd_bundle, (
        *SHAPE,
        tuple((f"--{w}", {"dest": "which", "action": "store_const", "const": w})
              for w in ("todd", "chern", "ch")),
        ("--max-degree", INT),
        ("--mod-h", {**FLAG, "help": "print components reduced mod h"}))),
    ("pfaffian", "classify"): ("complete-intersection / Roberts flags for B_m(n)", cmd_classify, (
        JSON, ("m", INT), ("n2", {**INT, "metavar": "n"}))),
    ("pfaffian", "eval"): ("Pfaffian and determinant of a matrix file", cmd_eval,
                           (JSON, ("file", {}))),
}

# The first word of a two-word leaf: its help line and the attribute that
# holds the second word.
GROUPS = {
    "chow": ("Chow-ring arithmetic on the Schubert basis", "chow_op"),
    "pfaffian": ("Pfaffian evaluation and ring classification", "pf_op"),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help or --version
    to stdout raises, as argparse would drop it: with PYTHONUNBUFFERED set,
    a closed stdout then still exits 141 (see `main`)."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, every leaf of `LEAVES` under its group.

    `parse_args` hands it every argv that no leaf's direct grammar accepts:
    help, --version, unknown commands and every malformed command line.
    """
    top = _Parser(
        prog="grasstodd",
        description="Exact Schubert calculus and Roberts-ring verdicts for Grassmannian cones.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    ops = {}
    for path, (help_text, func, arguments) in LEAVES.items():
        if len(path) == 1:
            p = sub.add_parser(path[0], help=help_text)
        else:
            if path[0] not in ops:
                group_help, dest = GROUPS[path[0]]
                group = sub.add_parser(path[0], help=group_help)
                ops[path[0]] = group.add_subparsers(dest=dest, required=True)
            p = ops[path[0]].add_parser(path[1], help=help_text)
        _add_arguments(p, arguments)
        p.set_defaults(func=func)
    return top


def _add_arguments(p, arguments: tuple) -> None:
    """Adds a leaf's arguments, as `LEAVES` declares them, to its parser or
    to one of its groups."""
    for entry in arguments:
        if isinstance(entry[0], str):
            p.add_argument(entry[0], **entry[1])
        else:
            _add_arguments(p.add_mutually_exclusive_group(required=True), entry)


class _LeafGrammar:
    """The arguments of one leaf, read from its entry in `LEAVES`, the
    declaration that `build_parser` also reads, and a reader of the argv
    tails that are well-formed for them.

    A tail is well-formed when each token that starts with '-' is exactly
    one of the leaf's option strings, each option that takes a value has one
    after it that does not start with '-', each value converts by its
    declared type, the positionals are all there and no more, each required
    option and required group is present, and no option appears twice (an
    append option may) nor two members of one group.
    """

    def __init__(self, path: tuple):
        _, func, arguments = LEAVES[path]
        # the values the full tree gives this leaf before reading its tail
        self.defaults = {"command": path[0], "func": func}
        if len(path) == 2:
            self.defaults[GROUPS[path[0]][1]] = path[1]
        self.options = {}      # option string -> (dest, action, type or const, slot)
        self.positionals = []  # (dest, type), in order
        self.required = set()  # the slots that must appear
        for entry in arguments:
            if isinstance(entry[0], str):
                self._record(*entry, slot=entry[0])
                continue
            # a group's slot is its first option string, shared by its members
            self.required.add(entry[0][0])
            for name, spec in entry:
                self._record(name, spec, slot=entry[0][0])

    def _record(self, name: str, spec: dict, slot: str) -> None:
        """Records one argument, for the `add_argument` keywords the leaves
        use; the slot is the option string, or the group's."""
        action, type = spec.get("action", "store"), spec.get("type", str)
        if not name.startswith("-"):
            self.positionals.append((name, type))
            return
        const, default = spec.get("const"), spec.get("default")
        if action == "store_true":
            action, const, default = "store_const", True, False
        elif action not in ("store", "store_const", "append"):
            raise ValueError(f"{name}: action {action!r} has no direct grammar")
        dest = spec.get("dest") or name.lstrip("-").replace("-", "_")
        self.defaults[dest] = default
        self.options[name] = (dest, action, const if action == "store_const" else type, slot)
        if spec.get("required"):
            self.required.add(slot)

    def parse(self, tail: list):
        """The Namespace that the full tree gives the leaf's argv for a
        well-formed tail, or None for any other tail."""
        values, seen, words = dict(self.defaults), set(), []
        tokens = iter(tail)
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
                continue
            if token not in self.options:
                return None
            dest, action, arg, slot = self.options[token]
            if slot in seen and action != "append":
                return None
            seen.add(slot)
            if action == "store_const":
                values[dest] = arg
                continue
            word = next(tokens, "-")
            if word.startswith("-"):
                return None
            try:
                value = arg(word)
            except (TypeError, ValueError):
                return None
            values[dest] = [*(values[dest] or ()), value] if action == "append" else value
        if len(words) != len(self.positionals) or not self.required <= seen:
            return None
        for (dest, convert), word in zip(self.positionals, words):
            try:
                values[dest] = convert(word)
            except (TypeError, ValueError):
                return None
        return argparse.Namespace(**values)


@cache
def _leaf_grammar(path: tuple) -> _LeafGrammar:
    return _LeafGrammar(path)


@cache
def _full_tree() -> argparse.ArgumentParser:
    return build_parser()


def parse_args(argv: list) -> argparse.Namespace:
    """argv read by the direct grammar of the leaf that its first words
    name, when the rest is well-formed for that leaf, and by the full
    argparse tree otherwise.

    Both give the same Namespace for the lines the grammar accepts. All
    other lines, with help, --version, abbreviations, '--opt=value', '--'
    and every error among them, are argparse's alone, so their output is
    argparse's own. The tree is built on first use, once per process.
    """
    path = tuple(argv[:2]) if argv and argv[0] in GROUPS else tuple(argv[:1])
    args = _leaf_grammar(path).parse(argv[len(path):]) if path in LEAVES else None
    return _full_tree().parse_args(argv) if args is None else args


@cache
def _freeze_imports() -> None:
    # once per process, at the first command, so the objects the imports
    # built stay out of every later collection; a second freeze would also
    # take in what the first command cached
    gc.freeze()


def main(argv=None) -> int:
    _freeze_imports()
    # the interpreter's bound on int <-> str (Python 3.10.7 on) holds while
    # the command line is read, and is lifted so that answers print in full;
    # the commands' own parsers keep MAX_DIGITS
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else list(argv))
            if limit:
                sys.set_int_max_str_digits(0)
            return args.func(args)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
            # here, not at exit, so that the handler below sees a closed
            # stdout, also after help and --version, which raise SystemExit
            sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone (`grasstodd table 12 | head -1`): the
        # rest goes to devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as for a process that SIGPIPE ended


if __name__ == "__main__":
    sys.exit(main())
