"""Answer checks that do not trust the code under test.

Each check takes the op, its exit code and its captured stdout, and returns
None when the answer holds or a one-line reason when it does not. The
checks rest on closed forms and small independent oracles:

- Roberts iff d = 1, d = n-1 or (d, n) in {(2,4), (3,6)}; otherwise the
  first surviving tau component sits in degree 4 when n = 2d, else 2.
- Every odd-degree tau component vanishes.
- Schubert products are homogeneous of degree |lam|+|mu| with nonnegative
  integer coefficients; Pieri products are horizontal strips, each once.
- c_1 of the tangent bundle is n*sigma_1, ch_0 is d(n-d), td_1 is
  (n/2)*sigma_1, and every degree-1 class is a multiple of h.
- Pf^2 = det, Pf = 0 for odd sizes, and a perfect-matching-sum Pfaffian for
  sizes up to 8.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

MATCHING_SUM_MAX = 8


def is_roberts(d: int, n: int) -> bool:
    return d == 1 or d == n - 1 or (d, n) in ((2, 4), (3, 6))


def witness_degree(d: int, n: int):
    if is_roberts(d, n):
        return None
    return 4 if n == 2 * d else 2


def _q(ser: dict) -> Fraction:
    return Fraction(int(ser["num"]), int(ser["den"]))


def _terms(cls: list) -> dict:
    return {tuple(t["partition"]): _q(t["coefficient"]) for t in cls}


def _class_problem(terms: dict, d: int, n: int, degree: int):
    for lam, c in terms.items():
        if sum(lam) != degree:
            return f"term {list(lam)} is not in degree {degree}"
        if len(lam) > d or (lam and lam[0] > n - d):
            return f"term {list(lam)} leaves the {d}x{n - d} box"
        if list(lam) != sorted(lam, reverse=True) or (lam and lam[-1] <= 0):
            return f"term {list(lam)} is not a partition"
        if not c:
            return f"term {list(lam)} has a zero coefficient"
    return None


def _check_roberts(op, rc, out, report: bool):
    d, n = int(op["argv"][1]), int(op["argv"][2])
    res = out["result"]
    expect = is_roberts(d, n)
    if res["roberts"] is not expect:
        return f"G({d},{n}): roberts {res['roberts']}, closed form {expect}"
    if rc != (0 if expect else 1):
        return f"G({d},{n}): exit code {rc}"
    if res["witness_degree"] != witness_degree(d, n):
        return f"G({d},{n}): witness {res['witness_degree']}, closed form {witness_degree(d, n)}"
    t = d * (n - d)
    tau = res["tau"]
    for rec in tau:
        if rec["tau_index"] != t + 1 - rec["degree"]:
            return f"G({d},{n}): tau index {rec['tau_index']} at degree {rec['degree']}"
        if rec["is_zero"] != (not rec["representative"]):
            return f"G({d},{n}): is_zero disagrees with the representative in degree {rec['degree']}"
    if report or expect:
        if [r["degree"] for r in tau] != list(range(1, t + 1)):
            return f"G({d},{n}): tau degrees are not 1..{t}"
        for rec in tau:
            if rec["degree"] % 2 and not rec["is_zero"]:
                return f"G({d},{n}): odd-degree tau {rec['degree']} is nonzero"
    first = next((r["degree"] for r in tau if not r["is_zero"]), None)
    if first != witness_degree(d, n):
        return f"G({d},{n}): first nonzero tau in degree {first}"
    return None


def _check_multiply(op, rc, out):
    d, n = int(op["argv"][2]), int(op["argv"][3])
    res = out["parameters"]
    degree = sum(res["lam"]) + sum(res["mu"])
    terms = _terms(out["result"]["class"])
    if degree > d * (n - d) and terms:
        return "product above the top degree is nonzero"
    for lam, c in terms.items():
        if c.denominator != 1 or c < 0:
            return f"coefficient {c} of {list(lam)} is not a nonnegative integer"
    return _class_problem(terms, d, n, degree)


def _check_pieri(op, rc, out):
    d, n = int(op["argv"][2]), int(op["argv"][3])
    lam = tuple(out["parameters"]["partition"])
    m = out["parameters"]["m"]
    terms = _terms(out["result"]["class"])
    problem = _class_problem(terms, d, n, sum(lam) + m)
    if problem:
        return problem
    padded = lam + (0,) * (d - len(lam))
    for mu, c in terms.items():
        if c != 1:
            return f"Pieri coefficient {c} of {list(mu)}"
        mup = mu + (0,) * (d - len(mu))
        strip = all(mup[i] >= padded[i] for i in range(d)) and all(
            padded[i] >= mup[i + 1] for i in range(d - 1)
        )
        if not strip:
            return f"{list(mu)} is not {list(lam)} plus a horizontal strip"
    return None


def _check_reduce(op, rc, out):
    d, n = int(op["argv"][2]), int(op["argv"][3])
    source = _terms(out["parameters"]["class"])
    degree = sum(next(iter(source))) if source else 0
    rep = _terms(out["result"]["representative"])
    if out["result"]["is_zero"] != (not rep):
        return "is_zero disagrees with the representative"
    if degree == 1 and rep:
        return "a degree-1 class did not reduce to zero"
    return _class_problem(rep, d, n, degree)


def _check_bundle(op, rc, out):
    params = out["parameters"]
    d, n, cap = params["d"], params["n"], params["max_degree"]
    which = out["command"].split(".")[1]
    comps = out["result"]["components"]
    first = 1 if which == "chern" else 0
    if [c["degree"] for c in comps] != list(range(first, cap + 1)):
        return f"{which}: component degrees are not {first}..{cap}"
    for comp in comps:
        k = comp["degree"]
        terms = _terms(comp["class"])
        problem = _class_problem(terms, d, n, k)
        if problem:
            return f"{which} degree {k}: {problem}"
        if params["mod_h"] and k >= 1:
            rep = _terms(comp["reduced"])
            if comp["is_zero"] != (not rep):
                return f"{which} degree {k}: is_zero disagrees with the representative"
            if k == 1 and rep:
                return f"{which} degree 1 did not reduce to zero"
            problem = _class_problem(rep, d, n, k)
            if problem:
                return f"{which} degree {k} reduced: {problem}"
    known = {
        "todd": {0: {(): Fraction(1)}, 1: {(1,): Fraction(n, 2)}},
        "ch": {0: {(): Fraction(d * (n - d))}, 1: {(1,): Fraction(n)}},
        "chern": {1: {(1,): Fraction(n)}},
    }[which]
    for comp in comps:
        want = known.get(comp["degree"])
        if want is not None and _terms(comp["class"]) != want:
            return f"{which} degree {comp['degree']} is not the closed form"
    return None


def matching_sum_pfaffian(z: list) -> Fraction:
    """Signed sum over perfect matchings; the sign is the parity of the
    permutation (i1 j1 i2 j2 ...) with i < j in each pair."""
    k = len(z)
    if k % 2:
        return Fraction(0)

    def matchings(rest):
        if not rest:
            yield []
            return
        i = rest[0]
        for pos in range(1, len(rest)):
            j = rest[pos]
            for tail in matchings(rest[1:pos] + rest[pos + 1:]):
                yield [(i, j)] + tail

    total = Fraction(0)
    for match in matchings(list(range(k))):
        perm = [x for pair in match for x in pair]
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = Fraction(1)
        for i, j in match:
            term *= z[i][j]
        total += -term if inversions % 2 else term
    return total


def _check_pfaffian(op, rc, out):
    res = out["result"]
    pf, det = _q(res["pfaffian"]), _q(res["determinant"])
    if pf * pf != det:
        return f"Pf^2 = {pf * pf} but det = {det}"
    if res["square_check"] is not True:
        return "square_check is not true"
    with open(op["argv"][2], encoding="utf-8") as fh:
        tokens = fh.read().split()
    k = int(tokens[0])
    if k % 2 and pf:
        return f"odd size {k} with nonzero Pfaffian"
    if k <= MATCHING_SUM_MAX:
        vals = [Fraction(t) for t in tokens[1:]]
        z = [vals[i * k:(i + 1) * k] for i in range(k)]
        want = matching_sum_pfaffian(z)
        if pf != want:
            return f"Pf = {pf}, matching sum {want}"
    return None


def _check_lr(op, value):
    if not isinstance(value, int) or value < 0:
        return f"LR coefficient {value!r} is not a nonnegative integer"
    return None


_CLI_CHECKS = {
    "roberts-verdict": lambda op, rc, out: _check_roberts(op, rc, out, report=False),
    "roberts-report": lambda op, rc, out: _check_roberts(op, rc, out, report=True),
    "multiply": _check_multiply,
    "pieri": _check_pieri,
    "reduce": _check_reduce,
    "bundle": _check_bundle,
    "pfaffian": _check_pfaffian,
}


def check(op: dict, rc, answer):
    """None if the answer to `op` holds, else the reason it does not.

    For CLI ops `answer` is the captured stdout and `rc` the exit code; for
    the library op `lr` it is the returned value.
    """
    if op["kind"] == "lr":
        return _check_lr(op, answer)
    if op["kind"] not in ("roberts-verdict", "roberts-report") and rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(answer)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        return _CLI_CHECKS[op["kind"]](op, rc, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
