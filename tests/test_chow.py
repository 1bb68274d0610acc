"""Ring structure tests: Pieri, general products, LR coefficients, and mod-h
reduction.

Products are checked three independent ways: against Giambelli's
determinant applied through a basis-scanning Pieri rule (tests/oracles.py),
against the Littlewood-Richardson coefficients free of the box, and
numerically against exact Schur polynomial evaluation at random rational
points.
"""

import contextlib
import gc
import io
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from grasstodd import (
    GrassmannShape,
    NonHomogeneousError,
    ShapeMismatchError,
    ch_tangent,
    chern_tangent,
    conjugate,
    enumerate_box,
    fits_box,
    from_terms,
    lr_coefficient,
    multiply,
    normalize_partition,
    pieri,
    reduce_mod_h,
    roberts_verdict,
    scale,
    schubert,
    sigma,
    tau_components,
    todd_tangent,
    unit,
    zero,
)
import grasstodd.bundles as bundles_module
import grasstodd.chow as chow_module
from grasstodd.bundles import TangentPipeline, chow_pipeline
from grasstodd.chow import ChowElement, Engine, combine, engine, piece, term_order
from grasstodd.cli import print_class, ser_class
from grasstodd.cone import TauStream, tau_stream
from oracles import (
    beta_power_sum,
    distinct_points,
    eager_h_echelons,
    eager_normal_forms,
    eager_tau,
    fraction_ser_class,
    gaussian_binomial,
    giambelli_expand,
    giambelli_pieri_product,
    horizontal_strip,
    newton_power_sums,
    schur_value,
)


SMALL_SHAPES = [GrassmannShape(d, n) for n in range(2, 9) for d in range(1, n)]


def shapes_strategy():
    return st.sampled_from(SMALL_SHAPES)


def partition_in(shape, rng, max_weight=None):
    lam = []
    cap = shape.cols
    for _ in range(shape.d):
        if cap == 0:
            break
        part = rng.randint(0, cap)
        if part == 0:
            break
        lam.append(part)
        cap = part
    lam = tuple(lam)
    if max_weight is not None and sum(lam) > max_weight:
        return partition_in(shape, rng, max_weight)
    return lam


# --- construction and arithmetic -----------------------------------------

def test_schubert_and_unit():
    s = GrassmannShape(2, 4)
    one = unit(s)
    assert one.coefficient(()) == 1
    assert schubert(s, (2, 1)).homogeneous_degree() == 3
    # a key with trailing zeros reads the same partition
    assert schubert(s, (2, 1)).coefficient((2, 1, 0)) == 1
    assert schubert(s, (2, 1, 0)) == schubert(s, (2, 1))
    assert scale(Fraction(2, 3), one).coefficient((0, 0)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        schubert(s, (3,))


def test_sigma_edges():
    s = GrassmannShape(2, 5)
    assert sigma(s, 0) == unit(s)
    assert sigma(s, 4).is_zero()
    assert sigma(s, 2) == schubert(s, (2,))


def test_add_scale_shape_mismatch():
    a = unit(GrassmannShape(2, 4))
    b = unit(GrassmannShape(2, 5))
    with pytest.raises(ShapeMismatchError):
        a + b
    assert scale(Fraction(0), a).is_zero()


def test_operators_are_the_named_functions():
    s = GrassmannShape(2, 5)
    a = from_terms(s, {(1,): 2, (2,): Fraction(-1, 3)})
    b = from_terms(s, {(1,): 1, (1, 1): 3})
    assert a * b == multiply(a, b)
    assert 2 * a == a * 2 == scale(2, a)
    assert Fraction(1, 2) * a == scale(Fraction(1, 2), a)
    with pytest.raises(TypeError):
        a * 1.5
    with pytest.raises(TypeError):
        a + 1


def test_str_rendering():
    s = GrassmannShape(2, 5)
    e = scale(Fraction(3, 2), schubert(s, (2,))) + scale(Fraction(-1), schubert(s, (1, 1)))
    text = str(e)
    assert "3/2" in text and "- " in text
    assert str(zero(s)) == "0"


# --- the one sparse-sum kernel --------------------------------------------

TINY_SHAPES = [s for s in SMALL_SHAPES if s.n <= 6]
# few coefficients and one low-degree basis, so sums often cancel
COEFF = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)])


@st.composite
def chow_classes(draw, shape):
    basis = [lam for w in range(min(shape.dim, 4) + 1) for lam in enumerate_box(shape, w)]
    return from_terms(shape, draw(st.dictionaries(st.sampled_from(basis), COEFF, max_size=6)))


def assert_clean(x):
    # every stored coefficient is a nonzero int, on a box partition, over a
    # positive denominator in lowest terms
    assert all(type(c) is int and c for c in x.terms.values()), x.terms
    assert all(fits_box(lam, x.shape) and lam == normalize_partition(lam) for lam in x.terms)
    assert type(x.den) is int and x.den > 0, x.den
    assert gcd(x.den, *x.terms.values()) == 1, (x.den, x.terms)


@given(st.sampled_from(TINY_SHAPES), st.data())
def test_class_arithmetic_never_stores_a_zero_coefficient(shape, data):
    a = data.draw(chow_classes(shape))
    b = data.draw(chow_classes(shape))
    q = data.draw(st.one_of(COEFF, st.just(Fraction(0))))
    m = data.draw(st.integers(-1, shape.cols + 1))
    for x in (a + b, a - b, b - a, multiply(a, b), pieri(a, m), scale(q, a)):
        assert_clean(x)
    assert (a - a).terms == {} and (a + (-a)).terms == {}
    assert combine(shape, [((), Fraction(1)), ((), Fraction(-1))]).terms == {}
    # keys equal after normalizing are summed, and cancelled ones dropped
    coeffs = dict(a.ordered())
    dropped = data.draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms else set()
    mapping = {**coeffs, **{lam + (0,): -coeffs[lam] for lam in dropped}}
    got = from_terms(shape, mapping)
    assert_clean(got)
    assert dict(got.ordered()) == {lam: c for lam, c in coeffs.items() if lam not in dropped}
    # a homogeneous piece and its sum with an h-multiple reduce alike
    for k in a.degrees():
        if k:
            rep, is_zero = reduce_mod_h(a.component(k))
            assert_clean(rep)
            assert is_zero == rep.is_zero()
            shifted = a.component(k) + pieri(b.component(k - 1), 1)
            if not shifted.is_zero():
                assert reduce_mod_h(shifted) == (rep, is_zero)


@given(st.sampled_from(TINY_SHAPES), st.data())
def test_rational_coefficients_round_trip(shape, data):
    # the Fractions that `ordered()` gives build the same class, and the
    # integer arithmetic over two denominators sums back to the class
    a = data.draw(chow_classes(shape))
    q = data.draw(st.fractions(min_value=-20, max_value=20, max_denominator=12))
    assert from_terms(shape, dict(a.ordered())) == a
    assert scale(q, a) + scale(1 - q, a) == a


def test_ser_class_matches_the_fraction_view():
    # seeded integer pieces on every shape with n <= 8: denominators above 1,
    # negative terms, terms that cancel, and coefficients sharing a factor
    # with the denominator in a piece that was never normalized
    rng = random.Random(28)
    seen_den = 0
    for shape in SMALL_SHAPES:
        basis = [lam for k in range(shape.dim + 1) for lam in enumerate_box(shape, k)]
        for _ in range(12):
            den = rng.randint(2, 36)
            terms = {lam: rng.randint(-24, 24) for lam in rng.sample(basis, min(len(basis), 5))}
            a = piece(shape, terms, den)
            cancel = piece(shape, {lam: -c for lam, c in list(terms.items())[:2]}, den)
            raw = ChowElement(shape, {lam: c for lam, c in terms.items() if c}, den)
            for x in (a, a + cancel, -a, raw):
                assert ser_class(x) == fraction_ser_class(x), x
            seen_den += a.den > 1
    assert seen_den > len(SMALL_SHAPES)


def test_schubert_int_coefficient_matches_from_terms():
    for shape in SMALL_SHAPES:
        for lam in [lam for k in range(shape.dim + 1) for lam in enumerate_box(shape, k)]:
            for c in (1, 0, -1, -6, 35):
                got = schubert(shape, lam + (0,), c)
                assert got == from_terms(shape, {lam: c}) and type(got.den) is int
        for outside in ((shape.cols + 1,), (1,) * (shape.d + 1), (1, 2)):
            messages = set()
            for build in (lambda: schubert(shape, outside, 3),
                          lambda: schubert(shape, outside, Fraction(1, 2)),
                          lambda: from_terms(shape, {outside: 3})):
                with pytest.raises(ValueError) as info:
                    build()
                messages.add(str(info.value))
            assert len(messages) == 1, messages


@given(st.sampled_from(TINY_SHAPES), st.data())
def test_str_json_and_diagrams_list_terms_in_one_order(shape, data):
    a = data.draw(chow_classes(shape))
    want = sorted(a.terms, key=term_order)
    assert [lam for lam, _ in a.ordered()] == want
    assert [tuple(t["partition"]) for t in ser_class(a)] == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print_class(a, diagrams=True)
    lines = out.getvalue().splitlines()
    assert lines[0] == str(a)
    shown = [tuple(int(p) for p in re.findall(r"\d+", line)) for line in lines if line.endswith(":")]
    assert shown == want
    # str prints the degree-0 term as a bare number
    named = [tuple(int(p) for p in re.findall(r"\d+", m)) for m in re.findall(r"\[[\d,]*\]", str(a))]
    assert named == [lam for lam in want if lam]


# --- Pieri ----------------------------------------------------------------

def test_pieri_zero_outside_range():
    # sigma_0 is the unit and sigma_m the zero class outside [0, n-d]
    s = GrassmannShape(2, 5)
    assert pieri(unit(s), 0) == unit(s)
    assert pieri(unit(s), 4).is_zero()
    assert pieri(unit(s), -1).is_zero()
    assert pieri(unit(s), 3).coefficient((3,)) == 1


def test_pieri_by_sigma_zero_is_the_identity():
    for s in TINY_SHAPES:
        for lam in (lam for w in range(s.dim + 1) for lam in enumerate_box(s, w)):
            assert pieri(schubert(s, lam), 0) == schubert(s, lam), (s, lam)


def test_pieri_single_box():
    s = GrassmannShape(2, 4)
    out = pieri(schubert(s, (1,)), 1)
    assert out.coefficient((2,)) == 1
    assert out.coefficient((1, 1)) == 1
    assert len(out.terms) == 2


def test_pieri_respects_box():
    s = GrassmannShape(2, 4)
    out = pieri(schubert(s, (2, 2)), 1)
    assert out.is_zero()


def test_pieri_terms_are_horizontal_strips():
    # every (lam, m) on every shape with n <= 8: exactly the horizontal
    # m-strips in the box, found by scanning the basis, each with coefficient 1
    for s in SMALL_SHAPES:
        basis = [lam for w in range(s.dim + 1) for lam in enumerate_box(s, w)]
        for lam in basis:
            for m in range(1, s.cols + 1):
                want = {nu: 1 for nu in enumerate_box(s, sum(lam) + m) if horizontal_strip(lam, nu)}
                assert pieri(schubert(s, lam), m).terms == want, (s, lam, m)


# --- Giambelli ------------------------------------------------------------

def test_giambelli_two_rows():
    # det [[s_2, s_3], [s_0, s_1]] = s_2 s_1 - s_3
    s = GrassmannShape(2, 6)
    out = giambelli_expand((2, 1), s)
    assert out == [(1, (2, 1)), (-1, (3,))]


def test_giambelli_hand_checked_three_rows():
    s = GrassmannShape(3, 7)
    out = dict(
        ((mono, coeff) for coeff, mono in giambelli_expand((2, 1, 1), s))
    )
    # det of [[s2,s3,s4],[1,s1,s2],[0,1,s1]]
    assert out == {(2, 1, 1): 1, (4,): 1, (2, 2): -1, (3, 1): -1}


def test_giambelli_reproduces_schubert_class(rng):
    # Multiplying out the monomials must recover the single Schubert class.
    for _ in range(25):
        shape = rng.choice(SMALL_SHAPES)
        lam = partition_in(shape, rng)
        total = zero(shape)
        for coeff, mono in giambelli_expand(lam, shape):
            term = unit(shape)
            for m in mono:
                term = pieri(term, m)
            total = total + scale(Fraction(coeff), term)
        assert total == schubert(shape, lam)


# --- general products -------------------------------------------------------

def test_multiply_degree_two_example():
    s = GrassmannShape(2, 4)
    sq = multiply(sigma(s, 1), sigma(s, 1))
    assert sq.coefficient((2,)) == 1
    assert sq.coefficient((1, 1)) == 1


def test_plucker_degrees_via_top_powers():
    # deg G(2,4) = 2, deg G(2,5) = 5, deg G(3,6) = 42
    for (d, n), expected in [((2, 4), 2), ((2, 5), 5), ((3, 6), 42)]:
        s = GrassmannShape(d, n)
        power = unit(s)
        for _ in range(s.dim):
            power = pieri(power, 1)
        box = tuple([s.cols] * s.d)
        assert power.coefficient(box) == expected


def test_multiply_matches_lr_coefficients(rng):
    for _ in range(30):
        shape = rng.choice(SMALL_SHAPES)
        lam = partition_in(shape, rng)
        mu = partition_in(shape, rng)
        prod = multiply(schubert(shape, lam), schubert(shape, mu))
        for nu, coeff in prod.terms.items():
            assert coeff == lr_coefficient(lam, mu, nu)


def test_pair_product_matches_giambelli_pieri_oracle():
    # every basis pair of every shape with n <= 8
    for s in SMALL_SHAPES:
        r = engine(s)
        basis = [lam for w in range(s.dim + 1) for lam in enumerate_box(s, w)]
        for lam in basis:
            for mu in basis:
                assert r.pair_product(lam, mu) == giambelli_pieri_product(lam, mu, s), (s, lam, mu)


def test_lr_coefficient_builds_no_ring():
    before = engine.cache_info()
    assert lr_coefficient((3, 2, 1), (3, 2, 1), (4, 3, 3, 1, 1)) == 3
    assert lr_coefficient((5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (6, 5, 5, 4, 3, 2, 2, 2, 1)) == 24
    assert engine.cache_info() == before


def test_lr_coefficient_zero_unless_both_factors_inside_nu():
    # right weight, but lam or mu is not contained in nu
    assert lr_coefficient((3,), (1,), (2, 2)) == 0
    assert lr_coefficient((1,), (3,), (2, 2)) == 0
    assert lr_coefficient((1, 1, 1), (1,), (2, 1, 1)) == 1
    assert lr_coefficient((1, 1, 1), (1,), (2, 2)) == 0
    assert lr_coefficient((2, 1), (1, 1, 1), (3, 2)) == 0
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((), (), ()) == 1


def _staircase(k):
    return tuple(range(k, 0, -1))


def test_lr_coefficient_matches_oracle_on_staircases():
    # up to (4,3,2,1) x (4,3,2,1): every nu of the right weight in the box
    # (l(lam) + l(mu)) x (lam_1 + mu_1), which holds every term
    for i in range(5):
        for j in range(i, 5):
            lam, mu = _staircase(i), _staircase(j)
            rows = max(1, i + j)
            shape = GrassmannShape(rows, 2 * rows)
            want = giambelli_pieri_product(lam, mu, shape)
            for nu in enumerate_box(shape, sum(lam) + sum(mu)):
                assert lr_coefficient(lam, mu, nu) == want.get(nu, 0), (lam, mu, nu)
                if i != j:
                    assert lr_coefficient(mu, lam, nu) == want.get(nu, 0), (lam, mu, nu)
    # (5,4,3,2,1)^2: a fixed sample of nu, each in its own len(nu) x nu_1 box;
    # the sample keeps nu_1 <= 7, as the oracle's basis scans grow with the box
    lam = _staircase(5)
    candidates = [nu for nu in enumerate_box(GrassmannShape(10, 17), 30)
                  if len(nu) >= 5 and all(p >= q for p, q in zip(nu, lam))]
    for nu in candidates[::90] + [(6, 5, 5, 4, 3, 2, 2, 2, 1)]:
        shape = GrassmannShape(len(nu), len(nu) + nu[0])
        want = giambelli_pieri_product(lam, lam, shape).get(nu, 0)
        assert lr_coefficient(lam, lam, nu) == want, nu


def test_lr_coefficient_known_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (3, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 1, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert lr_coefficient((2,), (1, 1), (4,)) == 0


def test_multiply_against_schur_oracle(rng):
    cases = [
        (GrassmannShape(2, 5), (2, 1), (2, 1)),
        (GrassmannShape(2, 5), (3, 1), (2,)),
        (GrassmannShape(3, 6), (2, 1), (2, 1)),
        (GrassmannShape(3, 6), (2, 1, 1), (2, 1)),
        (GrassmannShape(3, 7), (3, 2), (2, 1, 1)),
        (GrassmannShape(4, 8), (2, 1, 1), (2, 2)),
    ]
    for shape, lam, mu in cases:
        # Widen the box so no product term truncates; deeper partitions than
        # d rows cannot occur, and their Schur polynomials would vanish in d
        # variables anyway, so the numeric identity is exact.
        big = GrassmannShape(shape.d, shape.d + shape.cols + max(lam[0], mu[0]))
        full = multiply(schubert(big, lam), schubert(big, mu))
        for _ in range(3):
            xs = distinct_points(rng, shape.d)
            lhs = schur_value(lam, xs) * schur_value(mu, xs)
            rhs = sum(
                (coeff * schur_value(nu, xs) for nu, coeff in full.terms.items()),
                Fraction(0),
            )
            assert lhs == rhs


@given(shapes_strategy(), st.data())
def test_multiply_commutative_associative(shape, data):
    degs = st.integers(min_value=0, max_value=min(3, shape.cols))
    a = sigma(shape, data.draw(degs))
    b = sigma(shape, data.draw(degs))
    c = sigma(shape, data.draw(degs))
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_poincare_duality(rng):
    # <lam, mu> = 1 exactly when mu is the complement of lam in the box.
    for _ in range(20):
        shape = rng.choice(SMALL_SHAPES)
        lam = partition_in(shape, rng)
        comp = tuple(
            shape.cols - x
            for x in reversed(list(lam) + [0] * (shape.d - len(lam)))
        )
        comp = tuple(x for x in comp if x)
        box = tuple([shape.cols] * shape.d)
        for mu in enumerate_box(shape, shape.dim - sum(lam)):
            prod = multiply(schubert(shape, lam), schubert(shape, mu))
            expected = 1 if mu == comp else 0
            assert prod.coefficient(box) == expected


# --- mod-h structure --------------------------------------------------------

def test_h_matrix_ranks():
    # rank of multiplication by sigma_1 from degree i-1 into degree i
    def ranks(s):
        eng = Engine(s)
        return [len(eng.basis(i)) - eng.quotient_dim(i) for i in range(1, s.dim + 1)]

    assert ranks(GrassmannShape(2, 4)) == [1, 1, 1, 1]
    # graded basis sizes 1,1,2,2,2,1,1: the map is injective up the middle
    assert ranks(GrassmannShape(2, 5)) == [1, 1, 2, 2, 1, 1]


def test_lazy_echelons_match_eager_oracle(echelons_built):
    shapes = [GrassmannShape(d, n) for n in range(2, 11) for d in range(1, n)]
    for s in shapes + [GrassmannShape(6, 12)]:
        bases = [enumerate_box(s, i) for i in range(s.dim + 1)]
        eager = eager_h_echelons(bases, s.d, s.cols)
        forms = eager_normal_forms(bases, eager)
        eng = Engine(s)
        # top degree first: no degree may depend on another being built
        for i in range(s.dim, 0, -1):
            assert eng.normal_forms(i) == forms[i], (s, i)
            assert eng.quotient_dim(i) == len(bases[i]) - len(eager[i]), (s, i)
        assert [i for shape, i in echelons_built if shape == s] == list(range(s.dim, 0, -1))


@pytest.mark.parametrize("d, n, bound", [(6, 12, 4614), (7, 14, 29526)])
def test_h_tables_bound_their_elimination_steps(monkeypatch, d, n, bound):
    # the column order sets the cost of the h-tables, not their contents
    # (test_lazy_echelons_match_eager_oracle): smallest first part first
    # takes under half the steps of basis order on G(7,14)
    calls = []
    eliminate = chow_module._eliminate

    def spy(row, base, q):
        calls.append(q)
        return eliminate(row, base, q)

    monkeypatch.setattr(chow_module, "_eliminate", spy)
    s = GrassmannShape(d, n)
    eng = Engine(s)
    for i in range(1, s.dim + 1):
        eng.quotient_dim(i)
    assert len(calls) <= bound


def test_quotient_dims_match_hard_lefschetz():
    # h has full rank in every degree (Stanley 1980), so the quotient has
    # dimension max(0, |A^k| - |A^(k-1)|), with |A^k| the q^k coefficient
    # of the Gaussian binomial [n choose d]_q
    for n in range(2, 13):
        for d in range(1, n):
            sizes = gaussian_binomial(n, d)
            eng = Engine(GrassmannShape(d, n))
            for k in range(1, len(sizes)):
                assert eng.quotient_dim(k) == max(0, sizes[k] - sizes[k - 1]), (d, n, k)


def test_echelon_degree_range_builds_only_the_degree_read(echelons_built):
    s = GrassmannShape(2, 5)
    eng = Engine(s)
    for bad in (0, 7):
        with pytest.raises(ValueError):
            eng.normal_forms(bad)
    assert echelons_built == []
    assert len(eng.basis(3)) - eng.quotient_dim(3) == 2
    assert echelons_built == [(s, 3)]


def test_reduce_mod_h_kills_h_multiples(rng):
    for shape in [GrassmannShape(2, 5), GrassmannShape(3, 6)]:
        for _ in range(10):
            lam = partition_in(shape, rng, max_weight=shape.dim - 1)
            multiple = pieri(schubert(shape, lam), 1)
            if multiple.is_zero():
                continue
            _, is_zero = reduce_mod_h(multiple)
            assert is_zero


def test_reduce_mod_h_canonical_and_idempotent():
    s = GrassmannShape(2, 5)
    rep, is_zero = reduce_mod_h(sigma(s, 2))
    assert not is_zero
    rep2, _ = reduce_mod_h(rep)
    assert rep2 == rep
    # representatives of the same coset agree
    shifted = sigma(s, 2) + pieri(sigma(s, 1), 1)
    rep3, _ = reduce_mod_h(shifted)
    assert rep3 == rep


def test_reduce_mod_h_rejects_mixed_degrees():
    s = GrassmannShape(2, 5)
    mixed = sigma(s, 1) + sigma(s, 2)
    with pytest.raises(NonHomogeneousError):
        reduce_mod_h(mixed)


def test_reduce_mod_h_zero_input():
    s = GrassmannShape(2, 5)
    rep, is_zero = reduce_mod_h(zero(s))
    assert is_zero and rep.is_zero()


def random_class(shape, rng, terms=4):
    mapping = {}
    for _ in range(terms):
        lam = partition_in(shape, rng)
        mapping[lam] = mapping.get(lam, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return from_terms(shape, mapping)


def test_reduce_mod_h_matches_dense_elimination(rng):
    # random classes, and one with every basis class in its support, whose
    # reduction reads every integer row; from G(5,8) on some pivot entries
    # exceed 1
    for s in (GrassmannShape(d, n) for n in range(2, 11) for d in range(1, n)):
        bases = [enumerate_box(s, i) for i in range(s.dim + 1)]
        echelons = eager_h_echelons(bases, s.d, s.cols)
        hm = Engine(s)
        full = from_terms(s, {lam: Fraction(k + 1, k + 2)
                              for basis in bases for k, lam in enumerate(basis)})
        for a in [random_class(s, rng, terms=6) for _ in range(3)] + [full]:
            want = eager_tau(dict(a.ordered()), bases, echelons)
            for j in range(1, s.dim + 1):
                rep, is_zero = reduce_mod_h(a.component(j))
                assert_clean(rep)
                assert dict(rep.ordered()) == want[j], (s, j)
                assert is_zero == (not want[j])
                assert hm.quotient_dim(j) == len(bases[j]) - len(echelons[j])


def test_degree_one_quotient_needs_no_echelon(echelons_built):
    for s in SMALL_SHAPES:
        eng = Engine(s)
        assert eng.quotient_dim(1) == 0
        assert reduce_mod_h(sigma(s, 1)) == (zero(s), True)
        assert echelons_built == []
        assert eng.quotient_dim(0) == 1 and eng.quotient_dim(s.dim + 1) == 0


def test_power_sum_is_the_product_with_p_j():
    # the Murnaghan-Nakayama step against [lam] * p_j, with p_j(S*) the
    # Newton power sum of the special classes up to the sign (-1)^(j+1)
    for s in SMALL_SHAPES:
        r = engine(s)
        power_q = newton_power_sums(s)
        basis = [lam for w in range(s.dim + 1) for lam in enumerate_box(s, w)]
        for j in range(1, s.dim + 1):
            p_j = scale((-1) ** (j + 1), power_q[j])
            for lam in basis:
                got = r.power_sum(lam, j)
                assert from_terms(s, got) == multiply(schubert(s, lam), p_j), (s, lam, j)
                assert all(c in (1, -1) for c in got.values())


def test_h_columns_are_power_sum_one():
    # p_1 = sigma_1 = h: add a box, every sign +1, exactly the Pieri strip
    for s in SMALL_SHAPES:
        r = engine(s)
        for w in range(s.dim):
            for lam in enumerate_box(s, w):
                assert r.power_sum(lam, 1) == r.pair_product(lam, (1,))


def test_power_sum_matches_the_beta_list_oracle():
    # the step that slices lam against the step on the whole beta list, on
    # every (lam, j) of every shape with n <= 10
    for n in range(2, 11):
        for d in range(1, n):
            s = GrassmannShape(d, n)
            r = Engine(s)
            for w in range(s.dim + 1):
                for lam in enumerate_box(s, w):
                    for j in range(1, s.dim + 1):
                        assert r.power_sum(lam, j) == beta_power_sum(lam, j, d, n), (s, lam, j)


# --- the engine cache ---------------------------------------------------------

def test_registry_holds_at_most_its_bound():
    engine.cache_clear()
    for n in range(2, 11):
        for d in range(1, n):
            s = GrassmannShape(d, n)
            roberts_verdict(s, mode="verdict")
            multiply(sigma(s, 1), sigma(s, 1))
            assert engine.cache_info().currsize <= engine.cache_info().maxsize, s
    info = engine.cache_info()
    assert info.currsize == info.maxsize == 8
    # the most recently used shapes stay; a new one drops the least recent
    last = engine(GrassmannShape(9, 10))
    engine(GrassmannShape(1, 2))
    assert engine(GrassmannShape(9, 10)) is last
    after = engine.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (2, 1)
    assert after.currsize == after.maxsize


def test_held_pipelines_outlive_their_engine():
    # a pipeline looks its engine up by shape: once that engine is dropped,
    # reading more degrees builds on a new one, to the same pieces
    s = GrassmannShape(3, 6)
    engine.cache_clear()
    todd_weight, chern_weight = bundles_module._todd_weight, bundles_module._chern_weight
    todd, chern, stream = chow_pipeline(s, todd_weight), chow_pipeline(s, chern_weight), tau_stream(s)
    low = [(todd(k), chern(k), stream(k)) for k in range(3)]
    dropped = weakref.ref(engine(s))
    for n in range(2, 2 + engine.cache_info().maxsize):  # eight other shapes
        engine(GrassmannShape(1, n))
    assert dropped() is None
    fresh = TangentPipeline(s, todd_weight), TangentPipeline(s, chern_weight), TauStream(s)
    assert low == [tuple(y(k) for y in fresh) for k in range(3)]
    for k in range(s.dim + 1):
        assert (todd(k), chern(k), stream(k)) == tuple(y(k) for y in fresh), k
    # kept on the new engine, which did not have them
    assert chow_pipeline(s, todd_weight) is not todd and chow_pipeline(s, chern_weight) is not chern


def test_clear_frees_what_the_engines_held():
    def fill():
        for d, n in ((2, 6), (2, 7), (3, 7), (4, 8)):
            s = GrassmannShape(d, n)
            tau_components(s)
            todd_tangent(s)
            chern_tangent(s)
            ch_tangent(s)
            multiply(schubert(s, (2, 1)), schubert(s, (2, 1)))

    fill()  # the caches that are not per shape (Bernoulli numbers) fill here
    engine.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fill()
        held = tracemalloc.get_traced_memory()[0] - base
        engine.cache_clear()
        # nothing is cyclic; a full collection also empties CPython's free
        # lists, about 80 KB that tracemalloc still counts
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 250_000, held
    assert left < held // 50, (held, left)


FILL_SHAPES = [GrassmannShape(2, 6), GrassmannShape(3, 7), GrassmannShape(4, 8)]


def test_dropped_engines_free_without_the_collector():
    def fill() -> list:
        # weak references to each shape's engine, tau stream and Chow pipeline
        refs = []
        for s in FILL_SHAPES:
            tau_components(s)
            todd_tangent(s)
            chern_tangent(s)
            multiply(schubert(s, (2, 1)), schubert(s, (2, 1)))
            refs += map(weakref.ref, (engine(s), tau_stream(s),
                                      chow_pipeline(s, bundles_module._todd_weight)))
        return refs

    gc.disable()
    try:
        engine.cache_clear()
        refs = fill()
        assert all(r() is not None for r in refs)
        engine.cache_clear()
        assert all(r() is None for r in refs)
        refs = fill()
        for n in range(2, 2 + engine.cache_info().maxsize):  # as many new shapes as the bound
            engine(GrassmannShape(1, n))
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
        engine.cache_clear()


def test_queries_leave_no_cyclic_garbage():
    gc.disable()
    try:
        engine.cache_clear()  # cold memos, so every kernel runs
        gc.collect()
        for s in FILL_SHAPES:
            tau_components(s)
            todd_tangent(s)
        s = FILL_SHAPES[-1]
        multiply(schubert(s, (2, 1)), schubert(s, (2, 1)))
        assert gc.collect() == 0
    finally:
        gc.enable()
