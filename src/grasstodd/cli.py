"""Command-line surface: verdicts, tables, Chow arithmetic, bundle classes,
and Pfaffian tools, in text or machine-readable JSON.

Exit codes: 0 for success/affirmative verdicts, 1 for negative verdicts,
2 for usage or validation errors, 141 when the reader of stdout has gone.
JSON output is canonical (sorted keys, no whitespace) so that parse +
re-serialize round-trips byte-identically; rationals are emitted as
{"num": ..., "den": ...} string pairs.

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
from functools import cache, partial
from types import SimpleNamespace

from . import __version__
from .bundles import chow_pipeline
from .chow import (
    ChowElement,
    NonHomogeneousError,
    combine,
    engine,
    multiply,
    pieri,
    reduce_mod_h,
    schubert,
)
from .cone import roberts_verdict, tau_stream, verdict_table
from .partitions import GrassmannShape, enumerate_box, fits_box, normalize_partition
from .pfaffian import AntisymmetricMatrix, classify_B, determinant, pfaffian

GUARD_N = 12
MAX_DIGITS = 4300  # in one input integer: CPython's default bound on str -> int


class UsageError(Exception):
    pass


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
    try:
        return normalize_partition(tuple(map(int, parts)))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_box_partition(text: str, shape: GrassmannShape) -> tuple:
    """A partition argument that must fit the box of the shape."""
    lam = parse_partition(text)
    if not fits_box(lam, shape):
        raise UsageError(f"partition {lam} does not fit the box of {shape}")
    return lam


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


def parse_rational(token: str) -> Fraction:
    """A rational such as "-3/7", "5" or "1.5", in ASCII without '_'.

    Exponent notation is refused before `Fraction` reads the token: it
    would build the whole integer, and "1e10000000" takes seconds.
    """
    if "e" in token or "E" in token:
        raise UsageError(f"exponent notation is not accepted: {token!r}")
    try:
        return Fraction(_ascii_token(token, "rational"))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {token!r}") from None


def parse_class(shape: GrassmannShape, specs: list) -> ChowElement:
    """Terms like "[2,1]:-3/4"; a bare "[2,1]" means coefficient 1, and a
    ':' with no coefficient after it is an error.

    Each --class flag may carry several terms separated by whitespace or ';'.
    """
    pairs = []
    for spec in specs:
        for chunk in spec.replace(";", " ").split():
            part, colon, coeff = chunk.partition(":")
            lam = parse_box_partition(part, shape)
            pairs.append((lam, parse_rational(coeff) if colon else Fraction(1)))
    return combine(shape, pairs)


def check_guard(n: int, force: bool) -> None:
    if n > GUARD_N and not force:
        raise UsageError(
            f"n = {n} exceeds the default guard of {GUARD_N}; pass --force to proceed"
        )


def _shape(args) -> GrassmannShape:
    """The shape of a d n command, checked against the size guard."""
    try:
        shape = GrassmannShape(args.d, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    check_guard(args.n, args.force)
    return shape


# -- serialization ------------------------------------------------------------


def ser_fraction(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def ser_class(a: ChowElement) -> list:
    return [{"partition": list(lam), "coefficient": ser_fraction(c)} for lam, c in a.ordered()]


def emit_json(command: str, parameters: dict, result) -> None:
    env = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "engine_version": __version__,
        "exact": True,
    }
    print(json.dumps(env, sort_keys=True, separators=(",", ":")))


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
    if args.max_n < 2:
        raise UsageError("max_n must be at least 2")
    check_guard(args.max_n, args.force)
    entries = verdict_table(args.max_n)
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


def cmd_chow(args) -> int:
    shape = _shape(args)
    params = {"d": args.d, "n": args.n}
    if args.chow_op == "basis":
        if not 0 <= args.degree <= shape.dim:
            raise UsageError(f"degree must lie in [0, {shape.dim}]")
        basis = enumerate_box(shape, args.degree)
        if args.json:
            emit_json("chow.basis", {**params, "degree": args.degree},
                      {"partitions": [list(lam) for lam in basis], "count": len(basis)})
        else:
            print(f"degree {args.degree} basis of G_{shape.d}({shape.n}): {len(basis)} classes")
            for lam in basis:
                print(f"  {list(lam)}")
                if args.diagrams:
                    print(diagram(lam))
        return 0
    if args.chow_op in ("pieri", "multiply"):
        lam = parse_box_partition(args.lam, shape)
        if args.chow_op == "pieri":
            params.update(partition=list(lam), m=args.m)
            result = pieri(schubert(shape, lam), args.m)
        else:
            mu = parse_box_partition(args.mu, shape)
            params.update(lam=list(lam), mu=list(mu))
            result = multiply(schubert(shape, lam), schubert(shape, mu))
        if args.json:
            emit_json(f"chow.{args.chow_op}", params, {"class": ser_class(result)})
        else:
            print_class(result, args.diagrams)
        return 0
    # reduce
    element = parse_class(shape, args.cls)
    try:
        rep, is_zero = reduce_mod_h(element)
    except NonHomogeneousError as exc:
        raise UsageError(str(exc)) from None
    if args.json:
        emit_json("chow.reduce", {**params, "class": ser_class(element)},
                  {"representative": ser_class(rep), "is_zero": is_zero})
    else:
        print(f"representative: {rep}")
        print(f"zero mod h: {'yes' if is_zero else 'no'}")
    return 0


# Each `bundle` class: the name of its sequence on a pipeline, and its label.
BUNDLE_CLASSES = {"todd": ("todd", "td"), "ch": ("ch_tangent", "ch"), "chern": ("chern", "c")}


def _bundle_row(eng, which: str, k: int, mod_h: bool, render):
    """`render` (`ser_class` or `str`) of the degree-k piece of a `bundle`
    class on the engine's shape, or with `mod_h` of its reduction, read
    from the shape's tau stream. The result is kept on the engine and never
    mutated, so a repeated query renders nothing again."""

    def build():
        pipe = tau_stream(eng.shape) if mod_h else chow_pipeline(eng.shape)
        return render(getattr(pipe, BUNDLE_CLASSES[which][0])(k))

    return eng.kept((which, k, mod_h, render), build)


def cmd_bundle(args) -> int:
    shape = _shape(args)
    cap = shape.dim if args.max_degree is None else args.max_degree
    if not 0 <= cap <= shape.dim:
        raise UsageError(f"--max-degree must lie in [0, {shape.dim}]")
    degrees = range(1 if args.which == "chern" else 0, cap + 1)
    row = partial(_bundle_row, engine(shape), args.which)
    if args.json:
        entries = []
        for k in degrees:
            entry = {"degree": k, "class": row(k, False, ser_class)}
            if args.mod_h and k:
                reduced = row(k, True, ser_class)
                entry.update(is_zero=not reduced, reduced=reduced)
            entries.append(entry)
        emit_json(
            f"bundle.{args.which}",
            {"d": args.d, "n": args.n, "max_degree": cap, "mod_h": bool(args.mod_h)},
            {"components": entries},
        )
    else:
        suffix = " (reduced mod h)" if args.mod_h else ""
        print(f"{BUNDLE_CLASSES[args.which][1]} of the tangent bundle on G_{shape.d}({shape.n}){suffix}")
        for k in degrees:
            print(f"deg {k}: {row(k, bool(args.mod_h and k), str)}")
    return 0


def cmd_pfaffian(args) -> int:
    if args.pf_op == "classify":
        try:
            c = classify_B(args.m, args.n2)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
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
    # eval
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
    vals = [parse_rational(tok) for tok in tokens[1 : 1 + k * k]]
    if k < 0 or len(vals) != k * k:
        raise UsageError(f"expected {k}x{k} entries after the size line")
    extra = len(tokens) - 1 - k * k
    if extra:
        raise UsageError(f"{extra} extra token(s) after the {k}x{k} entries")
    rows = [vals[i * k : (i + 1) * k] for i in range(k)]
    try:
        z = AntisymmetricMatrix.from_rows(rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pf = pfaffian(z)
    det = determinant(rows)
    if args.json:
        emit_json("pfaffian.eval", {"file": args.file, "size": k}, {
            "pfaffian": ser_fraction(pf),
            "determinant": ser_fraction(det),
            "square_check": pf * pf == det,
        })
    else:
        print(f"Pf  = {pf}")
        print(f"det = {det}")
        print(f"Pf^2 == det: {'yes' if pf * pf == det else 'no'}")
    return 0


# -- argument wiring ----------------------------------------------------------


def _add_shared(p, *, force=True, shape=True, diagrams=False) -> None:
    """Adds the arguments that several commands share, each declared only
    here, in this order: --json, --force, d n, --diagrams."""
    p.add_argument("--json", action="store_true")
    if force:
        p.add_argument("--force", action="store_true", help=f"lift the n <= {GUARD_N} guard")
    if shape:
        p.add_argument("d", type=int)
        p.add_argument("n", type=int)
    if diagrams:
        p.add_argument("--diagrams", action="store_true")


def _roberts_args(p) -> None:
    _add_shared(p)
    p.add_argument("--verdict-only", action="store_true",
                   help="stop at the first nonzero component")


def _table_args(p) -> None:
    _add_shared(p, shape=False)
    p.add_argument("max_n", type=int)


def _basis_args(p) -> None:
    _add_shared(p, diagrams=True)
    p.add_argument("--degree", type=int, required=True)


def _pieri_args(p) -> None:
    _add_shared(p, diagrams=True)
    p.add_argument("lam", metavar="partition")
    p.add_argument("m", type=int)


def _multiply_args(p) -> None:
    _add_shared(p, diagrams=True)
    p.add_argument("lam")
    p.add_argument("mu")


def _reduce_args(p) -> None:
    _add_shared(p)
    p.add_argument("--class", dest="cls", action="append", required=True,
                   metavar="TERMS", help='e.g. "[2]:1" or "[2,1]:-3/4 [1,1]:2"')


def _bundle_args(p) -> None:
    _add_shared(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--todd", dest="which", action="store_const", const="todd")
    which.add_argument("--chern", dest="which", action="store_const", const="chern")
    which.add_argument("--ch", dest="which", action="store_const", const="ch")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--mod-h", action="store_true", help="print components reduced mod h")


def _classify_args(p) -> None:
    _add_shared(p, force=False, shape=False)
    p.add_argument("m", type=int)
    p.add_argument("n2", type=int, metavar="n")


def _eval_args(p) -> None:
    _add_shared(p, force=False, shape=False)
    p.add_argument("file")


# The leaf commands, in --help order: the words that name each one, mapped to
# its help line, the function that runs it and the function that declares its
# arguments. The full tree and every leaf's direct grammar are read from here.
LEAVES = {
    ("roberts",): ("Roberts-ring verdict for the cone over G_d(n)", cmd_roberts, _roberts_args),
    ("table",): ("verdict grid for all shapes up to max_n", cmd_table, _table_args),
    ("chow", "basis"): ("graded basis partitions", cmd_chow, _basis_args),
    ("chow", "pieri"): ("multiply a Schubert class by sigma_m", cmd_chow, _pieri_args),
    ("chow", "multiply"): ("product of two Schubert classes", cmd_chow, _multiply_args),
    ("chow", "reduce"): ("canonical representative modulo h", cmd_chow, _reduce_args),
    ("bundle",): ("tangent-bundle classes on G_d(n)", cmd_bundle, _bundle_args),
    ("pfaffian", "classify"): ("complete-intersection / Roberts flags for B_m(n)",
                               cmd_pfaffian, _classify_args),
    ("pfaffian", "eval"): ("Pfaffian and determinant of a matrix file", cmd_pfaffian, _eval_args),
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
    for path, (help_text, func, declare) in LEAVES.items():
        if len(path) == 1:
            p = sub.add_parser(path[0], help=help_text)
        else:
            if path[0] not in ops:
                group_help, dest = GROUPS[path[0]]
                group = sub.add_parser(path[0], help=group_help)
                ops[path[0]] = group.add_subparsers(dest=dest, required=True)
            p = ops[path[0]].add_parser(path[1], help=help_text)
        declare(p)
        p.set_defaults(func=func)
    return top


class _LeafGrammar:
    """The arguments of one leaf, recorded as its declaring function adds
    them here in place of a parser, and a reader of the argv tails that are
    well-formed for them.

    A tail is well-formed when each token that starts with '-' is exactly
    one of the leaf's option strings, each option that takes a value has one
    after it that does not start with '-', each value converts by its
    declared type, the positionals are all there and no more, each required
    option and required group is present, and no option appears twice (an
    append option may) nor two members of one group.
    """

    def __init__(self, path: tuple):
        _, func, declare = LEAVES[path]
        # the values the full tree gives this leaf before reading its tail
        self.defaults = {"command": path[0], "func": func}
        if len(path) == 2:
            self.defaults[GROUPS[path[0]][1]] = path[1]
        self.options = {}      # option string -> (dest, action, type or const, slot)
        self.positionals = []  # (dest, type), in order
        self.required = set()  # the slots that must appear
        declare(self)

    def add_argument(self, name, *, action="store", dest=None, type=str, const=None,
                     default=None, required=False, help=None, metavar=None, slot=None):
        """Records what `argparse.ArgumentParser.add_argument` would add, for
        the forms the leaves use; a slot is the option string, or the group
        that the option belongs to."""
        if not name.startswith("-"):
            self.positionals.append((name, type))
            return
        if action == "store_true":
            action, const, default = "store_const", True, False
        elif action not in ("store", "store_const", "append"):
            raise ValueError(f"{name}: action {action!r} has no direct grammar")
        dest, slot = dest or name.lstrip("-").replace("-", "_"), slot or name
        self.defaults[dest] = default
        self.options[name] = (dest, action, const if action == "store_const" else type, slot)
        if required:
            self.required.add(slot)

    def add_mutually_exclusive_group(self, *, required=False):
        slot = object()
        if required:
            self.required.add(slot)
        return SimpleNamespace(add_argument=partial(self.add_argument, slot=slot))

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
