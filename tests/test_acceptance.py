"""Acceptance gate: ten exact criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Everything is exact rational arithmetic; the only tolerance anywhere
is zero. Random sampling uses the suite-wide `--seed` option.
"""

import time
from fractions import Fraction
from math import factorial

from grasstodd import (
    GrassmannShape,
    chern_tangent,
    cone_chow_dims,
    enumerate_box,
    lr_coefficient,
    multiply,
    pieri,
    plucker_relation_count,
    reduce_mod_h,
    roberts_verdict,
    scale,
    schubert,
    sigma,
    ssyt_count,
    tau_components,
    todd_log_coeff,
    todd_tangent,
    classify_B,
    cross_check_B2,
    pfaffian,
    determinant,
    AntisymmetricMatrix,
)
from oracles import (
    brute_force_ssyt,
    distinct_points,
    horizontal_strip,
    random_antisymmetric,
    schur_value,
)
from testbed import PolynomialAlgebra, chern_S_inverse_series, exp_graded, power_sums_from_elementary


def check(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {description}: {status}")
    assert not failures, f"criterion {number}: {failures[:10]}"


def all_shapes(max_n: int):
    for n in range(2, max_n + 1):
        for d in range(1, n):
            yield GrassmannShape(d, n)


def test_criterion_01_roberts_classification_grid():
    expected = lambda d, n: d == 1 or d == n - 1 or (d, n) in ((2, 4), (3, 6))
    failures = []
    start = time.monotonic()
    for s in all_shapes(10):
        got = roberts_verdict(s).verdict
        if got != expected(s.d, s.n):
            failures.append((s.d, s.n, got))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    check(1, "Roberts verdicts on the full grid n <= 10", failures)


def test_criterion_02_degree_two_tau_law():
    failures = []
    for n in range(4, 11):
        for d in range(2, n - 1):
            s = GrassmannShape(d, n)
            rec = tau_components(s).record(2)
            want, _ = reduce_mod_h(scale(Fraction(2 * d - n, 12), sigma(s, 2)))
            if rec.representative != want:
                failures.append((d, n, "value"))
            if rec.is_zero != (n == 2 * d):
                failures.append((d, n, "vanishing"))
    check(2, "degree-2 tau equals (2d-n)/12 * reduced sigma_2, zero iff n = 2d", failures)


def test_criterion_03_balanced_chain():
    failures = []
    for d in (3, 4, 5):
        s = GrassmannShape(d, 2 * d)
        ct = chern_tangent(s, max_degree=4)
        _, c2_dies = reduce_mod_h(ct.component(2))
        if not c2_dies:
            failures.append((d, "c2 survives"))
        sq = multiply(sigma(s, 2), sigma(s, 2))
        _, c4_rel = reduce_mod_h(ct.component(4) - scale(6, sq))
        if not c4_rel:
            failures.append((d, "c4 - 6 sigma_2^2 survives"))
        rec = tau_components(s).record(4)
        want, _ = reduce_mod_h(scale(Fraction(-1, 120), sq))
        if rec.representative != want:
            failures.append((d, "tau_4 value"))
        if rec.is_zero != (d == 3):
            failures.append((d, "tau_4 vanishing"))
    check(3, "balanced n = 2d chain: c2, c4 - 6 sigma_2^2, tau_4 = -1/120 sigma_2^2", failures)


def test_criterion_04_gorenstein_parity():
    failures = []
    for s in all_shapes(10):
        report = tau_components(s)
        bad = [r.degree for r in report.records if r.degree % 2 and not r.is_zero]
        if bad:
            failures.append((s.d, s.n, bad))
    check(4, "odd-degree tau components vanish on every shape n <= 10", failures)


def test_criterion_05_universal_expansions():
    alg = PolynomialAlgebra({"c1": 1, "c2": 2, "c3": 3, "c4": 4}, 4)
    ctx = alg.context()
    c1, c2, c3, c4 = (alg.generator(f"c{i}") for i in range(1, 5))
    e = [c1, c2, c3, c4]
    p = power_sums_from_elementary(e, 4, ctx)
    ch = [alg.constant(0)] + [
        alg.scale(Fraction(1, factorial(m)), p[m - 1]) for m in range(1, 5)
    ]
    want_ch = {
        1: c1,
        2: (c1 ** 2 - 2 * c2) / 2,
        3: (c1 ** 3 - 3 * c1 * c2 + 3 * c3) / 6,
        4: (c1 ** 4 - 4 * c1 ** 2 * c2 + 4 * c1 * c3 + 2 * c2 ** 2 - 4 * c4) / 24,
    }
    failures = [("ch", m) for m in range(1, 5) if ch[m] != want_ch[m]]
    x = alg.zero()
    for m in range(1, 5):
        x = x + todd_log_coeff(m) * factorial(m) * ch[m]
    td = exp_graded(x, ctx)
    want_td = {
        0: alg.one(),
        1: c1 / 2,
        2: (c1 ** 2 + c2) / 12,
        3: c1 * c2 / 24,
        4: (-(c1 ** 4) + 4 * c1 ** 2 * c2 + 3 * c2 ** 2 + c1 * c3 - c4) / 720,
    }
    failures += [("td", m) for m in range(5) if alg.component(td, m) != want_td[m]]
    check(5, "universal ch and td expansions through degree 4", failures)


def test_criterion_06_whitney_relations():
    failures = []
    for s in all_shapes(8):
        inv = chern_S_inverse_series(s)
        for k in range(s.d + 1, s.dim + 1):
            if not inv[k - 1].is_zero():
                failures.append((s.d, s.n, k))
    check(6, "inverse Chern series of S vanishes above degree d, n <= 8", failures)


def test_criterion_07_schubert_property_suite(rng):
    failures = []
    shapes = [GrassmannShape(d, n) for n in range(4, 9) for d in range(2, n - 1)]

    def random_partition(shape, max_weight):
        lam = []
        cap = shape.cols
        for _ in range(shape.d):
            if cap == 0 or sum(lam) >= max_weight:
                break
            part = rng.randint(0, min(cap, max_weight - sum(lam)))
            if part == 0:
                break
            lam.append(part)
            cap = part
        return tuple(lam)

    # Pieri multiplicity-freeness
    for _ in range(40):
        s = rng.choice(shapes)
        lam = random_partition(s, s.dim)
        m = rng.randint(1, s.cols)
        out = pieri(schubert(s, lam), m)
        if any(c != 1 for c in out.terms.values()):
            failures.append(("pieri-mult", s.d, s.n, lam, m))
        if any(not horizontal_strip(lam, mu) for mu in out.terms):
            failures.append(("pieri-strip", s.d, s.n, lam, m))

    # commutativity and associativity on random triples
    for _ in range(25):
        s = rng.choice(shapes)
        a = schubert(s, random_partition(s, 4))
        b = schubert(s, random_partition(s, 4))
        c = schubert(s, random_partition(s, 4))
        if multiply(a, b) != multiply(b, a):
            failures.append(("commutativity", s.d, s.n))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            failures.append(("associativity", s.d, s.n))

    # Poincare duality pairing
    for _ in range(15):
        s = rng.choice(shapes)
        lam = random_partition(s, s.dim)
        padded = list(lam) + [0] * (s.d - len(lam))
        comp = tuple(x for x in (s.cols - v for v in reversed(padded)) if x)
        box = tuple([s.cols] * s.d)
        for mu in enumerate_box(s, s.dim - sum(lam)):
            pairing = multiply(schubert(s, lam), schubert(s, mu)).coefficient(box)
            if pairing != (1 if mu == comp else 0):
                failures.append(("duality", s.d, s.n, lam, mu))

    # LR nonnegativity
    for _ in range(30):
        s = rng.choice(shapes)
        lam, mu = random_partition(s, 5), random_partition(s, 5)
        prod = multiply(schubert(s, lam), schubert(s, mu))
        for nu, coeff in prod.terms.items():
            if coeff < 0 or lr_coefficient(lam, mu, nu) != coeff:
                failures.append(("lr", s.d, s.n, lam, mu, nu))

    # numeric Schur oracle, 20 random evaluation points per product
    oracle_products = [
        (GrassmannShape(2, 5), (2, 1), (2, 1)),
        (GrassmannShape(3, 6), (2, 1, 1), (2, 1)),
        (GrassmannShape(3, 7), (3, 2), (2, 1, 1)),
        (GrassmannShape(4, 8), (2, 1, 1), (2, 2)),
    ]
    for s, lam, mu in oracle_products:
        big = GrassmannShape(s.d, s.d + s.cols + max(lam[0], mu[0]))
        full = multiply(schubert(big, lam), schubert(big, mu))
        for _ in range(20):
            xs = distinct_points(rng, s.d)
            lhs = schur_value(lam, xs) * schur_value(mu, xs)
            rhs = sum(
                (c * schur_value(nu, xs) for nu, c in full.terms.items()),
                Fraction(0),
            )
            if lhs != rhs:
                failures.append(("oracle", s.d, s.n, lam, mu, xs))
    check(7, "Pieri/commutativity/duality/LR/numeric-oracle property suite", failures)


def test_criterion_08_plucker_and_tableau_counts():
    failures = []
    if plucker_relation_count(GrassmannShape(3, 6)) != 35:
        failures.append("count (3,6)")
    if plucker_relation_count(GrassmannShape(2, 4)) != 1:
        failures.append("count (2,4)")

    def partitions_up_to(weight):
        found = {()}
        def grow(lam, remaining, cap):
            for part in range(1, min(cap, remaining) + 1):
                mu = lam + (part,)
                found.add(mu)
                grow(mu, remaining - part, part)
        grow((), weight, weight)
        return sorted(found)

    for lam in partitions_up_to(6):
        for n in range(1, 7):
            if ssyt_count(lam, n) != brute_force_ssyt(lam, n):
                failures.append(("ssyt", lam, n))
    check(8, "Plucker relation counts and tableau counts vs brute force", failures)


def test_criterion_09_pfaffian_suite(rng):
    failures = []
    for size in (2, 4, 6, 8):
        for i in range(100):
            rows = random_antisymmetric(rng, size)
            z = AntisymmetricMatrix.from_rows(rows)
            if pfaffian(z) ** 2 != determinant(rows):
                failures.append(("square", size, i))
    for m in range(1, 6):
        for n in range(2 * m, 13):
            c = classify_B(m, n)
            want = n == 2 * m or m == 1
            if c.is_roberts != want or c.is_complete_intersection != want:
                failures.append(("classify", m, n))
    for n in range(4, 10):
        if not cross_check_B2(n):
            failures.append(("cross-check", n))
    check(9, "Pfaffian square identity, ring classification, cone cross-check", failures)


def test_criterion_10_cone_chow_dimensions():
    failures = []
    if cone_chow_dims(GrassmannShape(2, 4)).dims != (0, 0, 0, 1, 0, 1):
        failures.append("(2,4) profile")
    for s in all_shapes(10):
        dims = cone_chow_dims(s).dims
        if dims[0] != 0 or dims[s.dim + 1] != 1 or dims[s.dim] != 0:
            failures.append((s.d, s.n, dims))
    check(10, "cone Chow dimensions: (2,4) profile and boundary groups", failures)
