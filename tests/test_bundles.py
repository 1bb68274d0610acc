"""Tautological bundle classes, pinned by global invariants.

The strongest checks here are integral ones: the Todd class integrates to 1
(arithmetic genus of a rational variety), the top Chern class of the tangent
bundle integrates to the number of Schubert cells, and Riemann-Roch for the
Plucker line bundle reproduces the tableau count of sections.
"""

import sys
from fractions import Fraction
from math import comb, factorial

import pytest

import grasstodd.bundles as bundles_module
import grasstodd.chow as chow_module
from grasstodd import (
    GrassmannShape,
    ch_Q,
    ch_S,
    ch_S_dual,
    ch_tangent,
    chern_Q,
    chern_tangent,
    conjugate,
    enumerate_box,
    from_terms,
    multiply,
    scale,
    schubert,
    sigma,
    ssyt_count,
    todd_tangent,
    unit,
    zero,
)
from grasstodd.bundles import chow_pipeline
from grasstodd.chow import engine
from grasstodd.cone import TauStream
from oracles import eager_tangent_classes
from test_chow import assert_clean
from testbed import chern_S_inverse_series, exp_graded, graded_context, power_sums_from_elementary

SHAPES = [GrassmannShape(d, n) for n in range(4, 9) for d in range(2, n - 1)]


def box_coefficient(element, shape):
    box = tuple([shape.cols] * shape.d)
    return element.component(shape.dim).coefficient(box)


def test_chern_Q_is_special_classes():
    s = GrassmannShape(3, 7)
    cq = chern_Q(s)
    assert cq.rank == 4
    for m in range(1, 5):
        assert cq.component(m) == sigma(s, m)
    assert cq.component(5).is_zero()


def test_ch_Q_low_degrees():
    s = GrassmannShape(3, 7)
    q = ch_Q(s)
    assert q.component(0) == scale(4, unit(s))
    assert q.component(1) == sigma(s, 1)
    # ch_2 = (sigma_1^2 - 2 sigma_2) / 2 = (sigma_{11} - sigma_2) / 2
    ch2 = q.component(2)
    assert ch2.coefficient((1, 1)) == Fraction(1, 2)
    assert ch2.coefficient((2,)) == Fraction(-1, 2)
    # ch_3 = (sigma_3 - sigma_{21} + sigma_{111}) / 6
    ch3 = q.component(3)
    assert ch3.coefficient((3,)) == Fraction(1, 6)
    assert ch3.coefficient((2, 1)) == Fraction(-1, 6)
    assert ch3.coefficient((1, 1, 1)) == Fraction(1, 6)


def test_ch_S_is_complement():
    s = GrassmannShape(2, 6)
    q, sub = ch_Q(s), ch_S(s)
    assert sub.component(0) == scale(2, unit(s))
    for m in range(1, s.dim + 1):
        assert sub.component(m) == -q.component(m)


def test_ch_S_dual_alternates_signs():
    s = GrassmannShape(2, 6)
    sub, dual = ch_S(s), ch_S_dual(s)
    for m in range(s.dim + 1):
        want = sub.component(m) if m % 2 == 0 else -sub.component(m)
        assert dual.component(m) == want


def test_whitney_inverse_series():
    # Degrees 1..d are the Chern classes of S; everything above d dies.
    for s in SHAPES:
        inv = chern_S_inverse_series(s)
        assert len(inv) == s.dim
        for k in range(1, s.d + 1):
            want = schubert(s, conjugate((k,)), coeff=(-1) ** k)
            assert inv[k - 1] == want
        for k in range(s.d + 1, s.dim + 1):
            assert inv[k - 1].is_zero(), (s, k)


def test_ch_S_from_its_chern_classes():
    # Independent route: Newton power sums of c(S) from the inverse series
    # must agree with ch(S) = d - ch(Q) from additivity.
    for s in [GrassmannShape(2, 5), GrassmannShape(3, 6), GrassmannShape(3, 7)]:
        ctx = graded_context(s)
        e = list(chern_S_inverse_series(s)[: s.d])
        p = power_sums_from_elementary(e, s.d, ctx)
        sub = ch_S(s)
        for m in range(1, s.dim + 1):
            assert scale(Fraction(1, factorial(m)), p[m - 1]) == sub.component(m)


def test_ch_tangent_low_degrees():
    # ch_1(T) = n sigma_1; ch_2(T) = (2d-n) ch_2(Q) + sigma_1^2
    for s in [GrassmannShape(2, 5), GrassmannShape(3, 6), GrassmannShape(2, 6)]:
        t = ch_tangent(s)
        assert t.rank == s.dim
        assert t.component(0) == scale(s.dim, unit(s))
        assert t.component(1) == scale(s.n, sigma(s, 1))
        q2 = ch_Q(s).component(2)
        h2 = multiply(sigma(s, 1), sigma(s, 1))
        assert t.component(2) == scale(2 * s.d - s.n, q2) + h2


def test_ch_tangent_example_g25():
    s = GrassmannShape(2, 5)
    ch2 = ch_tangent(s).component(2)
    assert ch2.coefficient((2,)) == Fraction(3, 2)
    assert ch2.coefficient((1, 1)) == Fraction(1, 2)


def test_chern_tangent_first_class_and_euler():
    for s in [GrassmannShape(2, 4), GrassmannShape(2, 5), GrassmannShape(3, 6)]:
        ct = chern_tangent(s)
        assert ct.component(1) == scale(s.n, sigma(s, 1))
        # top Chern class integrates to the cell count
        assert box_coefficient(ct.component(s.dim), s) == comb(s.n, s.d)


def test_todd_low_degrees():
    # td_0 = 1, td_1 = c_1/2, td_2 = (c_1^2 + c_2)/12
    for s in [GrassmannShape(2, 5), GrassmannShape(3, 6)]:
        td = todd_tangent(s)
        ct = chern_tangent(s)
        c1, c2 = ct.component(1), ct.component(2)
        assert td.component(0) == unit(s)
        assert td.component(1) == scale(Fraction(1, 2), c1)
        want2 = scale(Fraction(1, 12), multiply(c1, c1) + c2)
        assert td.component(2) == want2


def test_todd_integrates_to_one():
    for s in SHAPES:
        if s.dim > 12:
            continue
        assert box_coefficient(todd_tangent(s), s) == 1, s


def test_riemann_roch_for_plucker_twists():
    # chi(O(k)) = integral of e^{k h} td(T) = number of semistandard
    # tableaux on the k-fold rectangle; ties Todd, products, and the
    # hook-content count together through one identity.
    for s in [GrassmannShape(2, 4), GrassmannShape(2, 5), GrassmannShape(3, 6)]:
        td = todd_tangent(s)
        ctx = graded_context(s)
        for k in range(4):
            twist = exp_graded(scale(k, sigma(s, 1)), ctx)
            chi = box_coefficient(multiply(twist, td), s)
            want = ssyt_count(tuple([k] * s.d), s.n) if k else 1
            assert chi == want, (s, k)


def test_max_degree_truncation_consistency():
    s = GrassmannShape(3, 6)
    full = todd_tangent(s)
    part = todd_tangent(s, max_degree=4)
    assert max(part.degrees()) <= 4
    for m in range(5):
        assert part.component(m) == full.component(m)
    cht_full = ch_tangent(s)
    cht_part = ch_tangent(s, max_degree=3)
    for m in range(4):
        assert cht_part.component(m) == cht_full.component(m)
    assert cht_part.component(5).is_zero()


def test_component_out_of_range_is_zero():
    s = GrassmannShape(2, 5)
    assert ch_Q(s).component(99).is_zero()
    assert chern_Q(s).component(99).is_zero()
    assert ch_Q(s).component(0) == scale(3, unit(s))
    assert len(ch_Q(s).parts[1:]) == s.dim


def test_chern_classes_start_at_the_unit():
    # c_0 = 1, like sigma_0 = [G]
    for s in SHAPES:
        assert chern_Q(s).component(0) == chern_tangent(s).component(0) == unit(s), s
        assert chern_Q(s).parts == tuple(sigma(s, m) for m in range(s.cols + 1)), s


def test_max_degree_below_zero_is_an_error_and_above_t_is_everything():
    s = GrassmannShape(2, 5)
    for fn in (ch_Q, ch_S, ch_S_dual, ch_tangent, chern_tangent, todd_tangent):
        for bad in (-1, -3):
            with pytest.raises(ValueError, match="max_degree"):
                fn(s, bad)
        assert fn(s, s.dim + 4) == fn(s, s.dim) == fn(s), fn.__name__


def check_against_oracle(s, oracle, cap):
    top = s.dim if cap is None else cap
    want_todd = from_terms(s, {lam: c for lam, c in oracle["todd"].ordered() if sum(lam) <= top})
    assert todd_tangent(s, cap) == want_todd, (s, cap)
    for fn, rank in ((ch_Q, s.cols), (ch_S, s.d), (ch_S_dual, s.d), (ch_tangent, s.dim),
                     (chern_tangent, s.dim)):
        got = fn(s, cap)
        assert (got.rank, got.parts) == (rank, tuple(oracle[fn.__name__][: top + 1])), (s, cap)


def test_every_cap_matches_textbook_oracle_in_both_fill_orders():
    # the per-shape pipeline keeps no state that depends on a cap: each
    # truncation equals the oracle whether it or the full class came first
    for n in range(2, 9):
        for d in range(1, n):
            s = GrassmannShape(d, n)
            oracle = eager_tangent_classes(s)
            engine.cache_clear()
            check_against_oracle(s, oracle, None)
            for cap in range(s.dim + 1):
                check_against_oracle(s, oracle, cap)
            for cap in range(s.dim + 1):
                engine.cache_clear()
                check_against_oracle(s, oracle, cap)
                check_against_oracle(s, oracle, None)


def test_warm_repeat_does_no_arithmetic(monkeypatch):
    calls = []

    def spy(owner, name, seen=lambda *args: True):
        fn = getattr(owner, name)

        def wrapped(*args):
            if seen(*args):
                calls.append(name)
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapped)

    # the MN kernel past j = 1 (j = 1 is h), the recurrence, and the one
    # integer normalization every piece passes through
    spy(chow_module.Engine, "power_sum", lambda engine, lam, j: j > 1)
    spy(bundles_module.TangentPipeline, "_recurrence")
    spy(bundles_module, "piece")
    s = GrassmannShape(3, 6)
    engine.cache_clear()  # cold memos, so the spied kernels run
    queries = [(fn, cap) for cap in (3, None, 1)
               for fn in (todd_tangent, chern_tangent, ch_tangent, ch_Q, ch_S, ch_S_dual)]
    first = [fn(s, cap) for fn, cap in queries]
    assert {"power_sum", "_recurrence", "piece"} <= set(calls)
    calls.clear()
    assert [fn(s, cap) for fn, cap in queries] == first
    assert calls == []
    engine.cache_clear()


def test_pipeline_holds_only_the_tangent_sequences(monkeypatch):
    # the characters of S, S* and Q are one closed form each, kept on the
    # engine as a tuple of classes; no pipeline is built for them, and
    # neither pipeline has a sequence for them
    built = []
    init = bundles_module.TangentPipeline.__init__
    monkeypatch.setattr(bundles_module.TangentPipeline, "__init__",
                        lambda self, shape: built.append(shape) or init(self, shape))
    s = GrassmannShape(3, 7)
    engine.cache_clear()
    for fn in (ch_Q, ch_S, ch_S_dual):
        assert fn(s, 2).parts == fn(s).parts[:3]
    assert built == []
    kept = list(engine(s)._kept.values())
    assert len(kept) == 3
    assert all(type(y) is chow_module.ChowElement for parts in kept for y in parts)
    for cls in (bundles_module.TangentPipeline, TauStream):
        assert not [name for name in ("ch_q", "ch_s", "ch_s_dual") if hasattr(cls, name)]
    engine.cache_clear()


def test_cold_deep_query_recurses_a_bounded_depth():
    # a cold todd(k) or chern(k) builds its lower pieces lowest first, so it
    # needs far fewer frames than three per degree below k
    s, pipeline = GrassmannShape(1, 80), bundles_module.TangentPipeline
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        todd, chern = pipeline(s).todd(79), pipeline(s).chern(79)
    finally:
        sys.setrecursionlimit(limit)
    # on P^79 the Todd class integrates to 1 and c_79 to the Euler number 80
    assert todd == schubert(s, (79,))
    assert chern == scale(80, schubert(s, (79,)))


def test_tangent_operator_is_the_product_with_the_tangent_character():
    # T_j = j! ch_j(T) applied to every basis class of every shape with
    # n <= 8, against the textbook product; odd j checks T_j = n p_j, even j
    # the paired cross terms
    for s in (GrassmannShape(d, n) for n in range(2, 9) for d in range(1, n)):
        pipe = chow_pipeline(s)
        ch_t = eager_tangent_classes(s)["ch_tangent"]
        basis = [lam for w in range(s.dim + 1) for lam in enumerate_box(s, w)]
        for j in range(1, s.dim + 1):
            x_j = scale(factorial(j), ch_t[j])
            for lam in basis:
                got = from_terms(s, pipe._tangent([(j, 1, {lam: 1})]))
                assert got == multiply(x_j, schubert(s, lam)), (s, lam, j)


def test_fractional_chern_piece_raises(monkeypatch):
    # Chern classes are integral: a piece left with a denominator is an error
    weight = bundles_module._chern_weight
    monkeypatch.setattr(bundles_module, "_chern_weight",
                        lambda j: Fraction(1, 3) if j == 2 else weight(j))
    s = GrassmannShape(2, 4)
    engine.cache_clear()
    with pytest.raises(ArithmeticError, match="denominator"):
        chern_tangent(s)
    engine.cache_clear()


def test_pipeline_pieces_match_the_joined_classes():
    # `bundle` prints the pipeline's pieces; same terms in the same order as
    # the components of the public classes, so the output bytes cannot move
    for s in SHAPES:
        pipe = chow_pipeline(s)
        td, cht, ct = todd_tangent(s), ch_tangent(s), chern_tangent(s)
        for k in range(s.dim + 1):
            for piece, want in (
                (pipe.todd(k), td.component(k)),
                (pipe.ch_tangent(k), cht.component(k)),
                (pipe.chern(k), ct.component(k)),
            ):
                assert_clean(piece)
                assert piece == want and list(piece.terms) == list(want.terms), (s, k)
