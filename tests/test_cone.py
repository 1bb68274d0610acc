"""Cone Chow groups and Roberts verdicts.

The classification being tested: the cone over G_d(n) is Roberts exactly
for d = 1, d = n-1, and the two exceptional middle cases (2,4) and (3,6).
"""

from fractions import Fraction

import pytest

import grasstodd.bundles as bundles_module
import grasstodd.chow as chow_module
from grasstodd import (
    GrassmannShape,
    TauStream,
    cone_chow_dims,
    enumerate_box,
    multiply,
    reduce_mod_h,
    roberts_verdict,
    scale,
    sigma,
    tau_components,
    verdict_table,
)
from grasstodd.chow import ENGINES
from oracles import eager_h_echelons, eager_tangent_classes, eager_tau, gorenstein_parity_check


def expected_roberts(d: int, n: int) -> bool:
    return d == 1 or d == n - 1 or (d, n) in ((2, 4), (3, 6))


def test_cone_chow_dims_projective_space():
    # G_1(3) = P^2: cone is affine 3-space, only the top group survives.
    out = cone_chow_dims(GrassmannShape(1, 3))
    assert out.dims == (0, 0, 0, 1)


def test_cone_chow_dims_g24():
    # Quadric cone in A^6: one class in the middle from the h-defect.
    out = cone_chow_dims(GrassmannShape(2, 4))
    assert out.dims == (0, 0, 0, 1, 0, 1)


def test_cone_chow_dims_match_h_ranks():
    for d, n in [(2, 5), (2, 6), (3, 6), (3, 7)]:
        s = GrassmannShape(d, n)
        out = cone_chow_dims(s)
        assert len(out.dims) == s.dim + 2
        assert out.dims[0] == 0
        assert out.dims[-1] == 1
        # degree-t piece is one-dimensional and h hits it: A_1 = 0
        assert out.dims[1] == 0
        assert all(v >= 0 for v in out.dims)


def test_cone_chow_dims_match_eager_ranks():
    for n in range(2, 11):
        for d in range(1, n):
            s = GrassmannShape(d, n)
            t = s.dim
            bases = [enumerate_box(s, i) for i in range(t + 1)]
            eager = eager_h_echelons(bases, d, n - d)
            want = [0] * (t + 2)
            want[t + 1] = 1
            for i in range(1, t + 1):
                want[i] = len(bases[t + 1 - i]) - len(eager[t + 1 - i])
            assert cone_chow_dims(s).dims == tuple(want), (d, n)


def test_verdict_mode_builds_only_the_echelons_it_reads(echelons_built):
    ENGINES.clear()
    s = GrassmannShape(4, 9)
    report = roberts_verdict(s, mode="verdict")
    assert report.witness == 2
    assert echelons_built == [(s, 2)]
    s = GrassmannShape(4, 8)
    report = roberts_verdict(s, mode="verdict")
    assert report.witness == 4
    assert echelons_built[1:] == [(s, 2), (s, 4)]


def test_tau_stream_matches_eager_oracle(todd_work):
    # the slow path: the whole Todd class, then every degree reduced
    for n in range(2, 11):
        for d in range(1, n):
            s = GrassmannShape(d, n)
            bases = [enumerate_box(s, i) for i in range(s.dim + 1)]
            todd = eager_tangent_classes(s)["todd"]
            want = eager_tau(dict(todd.ordered()), bases, eager_h_echelons(bases, d, n - d))
            stream = TauStream(s)
            for j in range(1, s.dim + 1):
                rec = stream.record(j)
                assert dict(rec.representative.ordered()) == want[j], (d, n, j)
                assert rec.is_zero == (not want[j])
            # Todd work only where the quotient is nonzero
            nonzero = {j for j in range(1, s.dim + 1) if stream.engine.quotient_dim(j)}
            assert {k for pipe, k in todd_work if pipe is stream} <= nonzero, (d, n)
            assert tau_components(s).records == tuple(stream.record(j) for j in range(1, s.dim + 1))
            for rec in roberts_verdict(s, mode="verdict").records:
                assert dict(rec.representative.ordered()) == want[rec.degree], (d, n, rec.degree)


def test_verdict_on_projective_spaces_needs_only_rank_certificates(monkeypatch, echelons_built):
    calls = []

    def spy(owner, name, seen=lambda *args: True):
        fn = getattr(owner, name)

        def wrapped(*args):
            if seen(*args):
                calls.append(name)
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapped)

    # the h-columns are power_sum(lam, 1); any longer power sum is Todd work,
    # and a pipeline on the Chow ring itself (not a tau stream) is too
    spy(chow_module.Engine, "power_sum", lambda engine, lam, j: j > 1)
    spy(bundles_module.TangentPipeline, "_recurrence")
    spy(bundles_module.TangentPipeline, "__init__",
        lambda pipe, *args: type(pipe) is bundles_module.TangentPipeline)
    ENGINES.clear()  # cold kernel memos, so the control below reaches them
    for n in range(2, 13):
        for d in (1, n - 1):
            s = GrassmannShape(d, n)
            report = roberts_verdict(s, mode="verdict")
            assert report.verdict and all(r.is_zero for r in report.records)
            # every degree but the first certified by a 1x1 rank, degree 1 by enumeration
            built = [i for shape, i in echelons_built if shape == s]
            assert sorted(built) == list(range(2, s.dim + 1))
    assert calls == []
    # positive control: the same spies see the Todd work of G(2,4); there
    # n = 2d, so T_2 = 2 p_1^2 needs no longer power sum, which G(2,5) does
    roberts_verdict(GrassmannShape(2, 4), mode="verdict")
    assert calls == ["_recurrence"]
    roberts_verdict(GrassmannShape(2, 5), mode="verdict")
    assert {"power_sum", "_recurrence"} <= set(calls)
    assert "__init__" not in calls


def test_todd_work_stops_at_top_nonzero_quotient_degree(todd_work):
    # J = 2 for G(2,4) and J = 3 for G(3,6)
    for (d, n), dims in [((2, 4), (0, 1, 0, 0)), ((3, 6), (0, 1, 1) + (0,) * 6)]:
        s = GrassmannShape(d, n)
        stream = TauStream(s)
        assert tuple(stream.engine.quotient_dim(j) for j in range(1, s.dim + 1)) == dims
        assert all(stream.record(j).is_zero for j in range(1, s.dim + 1))
        worked = sorted(k for pipe, k in todd_work if pipe is stream)
        assert worked == [j for j, q in enumerate(dims, start=1) if q]


def test_tau_records_carry_both_indexings():
    s = GrassmannShape(2, 5)
    report = tau_components(s)
    assert report.cone_dim == s.dim + 1
    assert [r.degree for r in report.records] == list(range(1, s.dim + 1))
    for r in report.records:
        assert r.tau_index == s.dim + 1 - r.degree
        assert r.is_zero == r.representative.is_zero()
        if not r.representative.is_zero():
            assert r.representative.homogeneous_degree() == r.degree


def test_tau_degree_two_law():
    # Reduced degree-2 Todd component equals (2d-n)/12 times reduced sigma_2.
    for d, n in [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (4, 8)]:
        s = GrassmannShape(d, n)
        rep = tau_components(s).record(2).representative
        want, _ = reduce_mod_h(scale(Fraction(2 * d - n, 12), sigma(s, 2)))
        assert rep == want, (d, n)


def test_roberts_exceptional_cases():
    assert roberts_verdict(GrassmannShape(2, 4)).verdict
    assert roberts_verdict(GrassmannShape(3, 6)).verdict
    assert not roberts_verdict(GrassmannShape(2, 5)).verdict
    assert not roberts_verdict(GrassmannShape(2, 6)).verdict


def test_projective_space_always_roberts():
    for n in range(2, 8):
        assert roberts_verdict(GrassmannShape(1, n)).verdict
        assert roberts_verdict(GrassmannShape(n - 1, n)).verdict


def test_verdict_mode_agrees_with_report_mode():
    for d, n in [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7)]:
        s = GrassmannShape(d, n)
        fast = roberts_verdict(s, mode="verdict")
        full = roberts_verdict(s, mode="report")
        assert fast.verdict == full.verdict
        assert fast.witness == full.witness


def test_verdict_witness_is_first_nonzero_even_degree():
    report = roberts_verdict(GrassmannShape(2, 5), mode="verdict")
    assert report.witness == 2
    report = roberts_verdict(GrassmannShape(4, 8), mode="verdict")
    assert report.witness == 4  # balanced case: degree 2 vanishes, 4 does not


def test_bad_mode_raises():
    with pytest.raises(ValueError):
        roberts_verdict(GrassmannShape(2, 4), mode="fast")


def test_gorenstein_parity():
    for n in range(2, 9):
        for d in range(1, n):
            assert gorenstein_parity_check(GrassmannShape(d, n)), (d, n)


def test_verdict_table_matches_classification():
    table = verdict_table(8)
    assert len(table) == sum(n - 1 for n in range(2, 9))
    for entry in table:
        assert entry.roberts == expected_roberts(entry.d, entry.n), entry
        if entry.roberts:
            assert entry.witness is None
        else:
            assert entry.witness == (4 if entry.n == 2 * entry.d else 2)


def test_verdict_table_rejects_tiny_bound():
    with pytest.raises(ValueError):
        verdict_table(1)


def test_record_lookup_missing_degree():
    report = tau_components(GrassmannShape(2, 4))
    with pytest.raises(KeyError):
        report.record(99)
