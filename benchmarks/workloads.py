"""Seeded op lists for the benchmark workloads.

An op is a JSON-ready dict: ``id`` (its position in the workload's canonical
order), ``kind`` and either ``argv`` for ``grasstodd.cli.main`` or ``args``
for the one library call (``lr``). Everything here is generated from the
seed before any timing starts; the program only ever sees the generated
inputs.

``scale="tiny"`` gives the same op kinds on small shapes, for the
benchmark's own fast tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verdict-grid", "tau-report", "session", "pfaffian-eval")

# Workloads whose ops each run in a fresh process, as separate command-line
# invocations would; the session shares one process across its stream.
ISOLATED = ("verdict-grid", "tau-report", "pfaffian-eval")


def _box(d: int, cols: int, degree: int) -> list:
    """Partitions of `degree` in a d x cols box, in a fixed order."""
    out = []

    def rec(rem, cap, slots, prefix):
        if rem == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        for p in range(min(rem, cap), 0, -1):
            rec(rem - p, p, slots - 1, prefix + (p,))

    rec(degree, cols, d, ())
    return out


def _part(lam: tuple) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


def _shuffled(ops: list, rng: random.Random) -> list:
    order = list(ops)
    rng.shuffle(order)
    return order


def verdict_grid(seed: int, scale: str = "full") -> list:
    """`roberts d n --verdict-only` on every 1 <= d < n <= 12; the seed only
    permutes the order, so every seed does the same work.

    The grid stops at 12: its slowest op, G(6,12), takes about 0.12 s cold,
    so a run samples every op a dozen times or more. The middle shapes of
    n = 13 and 14 take 0.3-4 s each; on a shared box only short ops reach a
    steady fastest time, and with them the spread stayed above the bound.
    """
    top = 12 if scale == "full" else 5
    shapes = [(d, n) for n in range(2, top + 1) for d in range(1, n)]
    ops = [
        {"id": i, "kind": "roberts-verdict",
         "argv": ["roberts", str(d), str(n), "--verdict-only", "--json", "--force"]}
        for i, (d, n) in enumerate(shapes)
    ]
    return _shuffled(ops, random.Random(seed))


def tau_report(seed: int, scale: str = "full") -> list:
    """`roberts d n` in report mode for 2 <= d <= n-2, n <= 11, plus G(6,12);
    the seed only permutes the order.

    Runnable by name but not listed in BENCHMARK.json: its G(6,12) op takes
    about 8 s cold and fits only twice in a run, too few samples to hold its
    spread under the bound on a shared box whose speed swings by up to 2x.
    """
    if scale == "full":
        shapes = [(d, n) for n in range(4, 12) for d in range(2, n - 1)] + [(6, 12)]
    else:
        shapes = [(d, n) for n in range(4, 7) for d in range(2, n - 1)]
    ops = [
        {"id": i, "kind": "roberts-report", "argv": ["roberts", str(d), str(n), "--json"]}
        for i, (d, n) in enumerate(shapes)
    ]
    return _shuffled(ops, random.Random(seed))


# Session: a pool of four shapes; the two smallest also serve `lr_coefficient`.
# G(4,8) is the largest: its cold `bundle --todd --mod-h` takes about 0.08 s,
# where G(5,11)'s takes 2 s, too long to reach a steady fastest time.
SESSION_POOL = {"full": ((2, 6), (3, 7), (3, 8), (4, 8)), "tiny": ((2, 4), (2, 5), (3, 5), (3, 6))}
SESSION_COUNTS = {
    "full": {"multiply": 160, "pieri": 40, "reduce": 40, "lr": 24},
    "tiny": {"multiply": 12, "pieri": 4, "reduce": 4, "lr": 4},
}
HOT_PAIRS = 6      # hot basis pairs per shape
HOT_SHARE = 0.6    # share of multiplies drawn from the hot set
BUNDLE_CAP = 3     # the truncated `--max-degree` used by bundle ops


def _random_pair(rng: random.Random, d: int, n: int) -> tuple:
    dim = d * (n - d)
    a = rng.randint(0, dim)
    b = rng.randint(0, dim - a)
    return rng.choice(_box(d, n - d, a)), rng.choice(_box(d, n - d, b))


def session(seed: int, scale: str = "full") -> list:
    """One long-lived process answering a mixed stream of Chow and bundle queries.

    The stream opens with every bundle query (shape x class x cap x mod-h)
    once, in a fixed order: the session's first look at each shape, which
    fills the per-shape caches the same way for every seed. The rest mixes
    three more copies of each bundle query with the seeded Chow queries;
    their repeats make the slowest warm queries (the mod-h reductions on
    G(4,8)) a plateau that holds op_tail_ms steady across seeds.
    Multiplies draw basis pairs from a skewed hot-set distribution; pieri,
    reduce and lr arguments are uniform.
    """
    rng = random.Random(seed)
    pool = SESSION_POOL[scale]
    counts = SESSION_COUNTS[scale]
    bundles = []
    for d, n in pool:
        for which in ("--todd", "--ch", "--chern"):
            for cap in (None, BUNDLE_CAP):
                for mod_h in (False, True):
                    argv = ["bundle", str(d), str(n), which, "--json"]
                    if cap is not None:
                        argv += ["--max-degree", str(cap)]
                    if mod_h:
                        argv.append("--mod-h")
                    bundles.append({"kind": "bundle", "argv": argv})
    prologue = _shuffled(bundles, random.Random(0))
    body = bundles * 3
    hot = {shape: [_random_pair(rng, *shape) for _ in range(HOT_PAIRS)] for shape in pool}
    for _ in range(counts["multiply"]):
        d, n = rng.choice(pool)
        lam, mu = rng.choice(hot[(d, n)]) if rng.random() < HOT_SHARE else _random_pair(rng, d, n)
        body.append({"kind": "multiply",
                     "argv": ["chow", "multiply", str(d), str(n), _part(lam), _part(mu), "--json"]})
    for _ in range(counts["pieri"]):
        d, n = rng.choice(pool)
        lam = rng.choice(_box(d, n - d, rng.randint(0, d * (n - d))))
        m = rng.randint(1, n - d)
        body.append({"kind": "pieri",
                     "argv": ["chow", "pieri", str(d), str(n), _part(lam), str(m), "--json"]})
    for _ in range(counts["reduce"]):
        d, n = rng.choice(pool)
        degree = rng.randint(1, d * (n - d))
        basis = _box(d, n - d, degree)
        terms = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
        spec = " ".join(
            f"{_part(lam)}:{Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))}"
            for lam in terms
        )
        body.append({"kind": "reduce",
                     "argv": ["chow", "reduce", str(d), str(n), "--class", spec, "--json"]})
    for _ in range(counts["lr"]):
        d, n = rng.choice(pool[:2])
        lam, mu = _random_pair(rng, d, n)
        nu = rng.choice(_box(d, n - d, sum(lam) + sum(mu)))
        body.append({"kind": "lr", "args": [list(lam), list(mu), list(nu)]})
    ops = prologue + _shuffled(body, rng)
    return [{"id": i, **op} for i, op in enumerate(ops)]


def repeat_share(ops: list) -> float:
    """Share of basis products whose (shape, lam, mu) already occurred earlier."""
    seen = set()
    products = repeats = 0
    for op in ops:
        if op["kind"] != "multiply":
            continue
        key = tuple(op["argv"][2:6])
        products += 1
        repeats += key in seen
        seen.add(key)
    return repeats / products if products else 0.0


# Three matrices of each even size up to 18 and a few odd sizes. Sizes 20
# and 22 are left out: at today's O(2^k) cost they take 0.4 s and 2 s, too
# long to reach a steady fastest time on a shared box.
PFAFFIAN_SIZES = {
    "full": [k for k in range(2, 19, 2) for _ in range(3)] + [3, 9, 15],
    "tiny": [2, 4, 4, 6, 3],
}


def _matrix_text(k: int, rng: random.Random) -> str:
    # No zero entries above the diagonal: the expansion prunes on zeros, so
    # zeros would make the cost depend on the seed.
    z = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
            z[i][j], z[j][i] = q, -q
    return f"{k}\n" + "".join(" ".join(str(q) for q in row) + "\n" for row in z)


def pfaffian_eval(seed: int, root: Path, rel_dir: str, scale: str = "full") -> list:
    """`pfaffian eval` on seeded antisymmetric rational matrices of even
    sizes 2..18 and a few odd sizes, in seeded order.

    The files go to `root / rel_dir`. The argv names them relative to
    `root`, the child's working directory, because the path is part of the
    answer and must depend only on the seed.
    """
    rng = random.Random(seed)
    sizes = list(PFAFFIAN_SIZES[scale])
    rng.shuffle(sizes)
    (root / rel_dir).mkdir(parents=True, exist_ok=True)
    ops = []
    for i, k in enumerate(sizes):
        rel = f"{rel_dir}/m{i:02d}-k{k}.txt"
        (root / rel).write_text(_matrix_text(k, rng), encoding="utf-8")
        ops.append({"id": i, "kind": "pfaffian", "argv": ["pfaffian", "eval", rel, "--json"]})
    return ops


def build_ops(workload: str, seed: int, root: Path, out_rel: str, scale: str = "full") -> list:
    """The op list for one workload and seed, in execution order; input
    files are written under `root / out_rel`."""
    if workload == "verdict-grid":
        return verdict_grid(seed, scale)
    if workload == "tau-report":
        return tau_report(seed, scale)
    if workload == "session":
        return session(seed, scale)
    if workload == "pfaffian-eval":
        return pfaffian_eval(seed, root, f"{out_rel}/pfaffian-{scale}-s{seed}", scale)
    raise ValueError(f"unknown workload {workload!r}")
