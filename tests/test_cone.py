from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.cone import ConeTriple, normal_form, op1, op2, op3

from references import WSPair, ws_leq


def dominant(v):
    return all(x >= 0 for x in v) and all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def test_triple_validation():
    ConeTriple(2, 1, (0,), (0,), (1,))
    with pytest.raises(ValueError):
        ConeTriple(2, 1, (-1,), (0,), (1,))
    with pytest.raises(ValueError):
        ConeTriple(3, 2, (0, 0), (1,), (0, 1))  # d+r not dominant
    with pytest.raises(ValueError):
        ConeTriple(3, 2, (0, 0), (), (1, 0))  # a has wrong length
    with pytest.raises(ValueError, match="rank constraint"):
        ConeTriple(2, 2, (0, 0), (), (0, 0))


def test_op1_examples():
    t = ConeTriple(2, 1, (0,), (0,), (1,))
    out = op1(t)
    assert out.d == (1,) and out.r == (0,)
    # guard not met: unchanged
    t = ConeTriple(2, 1, (0,), (2,), (1,))
    assert op1(t) == t
    # m = 2 hand trace
    t = ConeTriple(3, 2, (0, 0), (2,), (3, 1))
    out = op1(t)
    assert out.d == (1, 0) and out.r == (2, 1)


def test_op2_examples():
    t = ConeTriple(3, 2, (1, 0), (3,), (2, 1))  # r already weakly decreasing
    assert op2(t, 1) == t
    t = ConeTriple(3, 2, (2, 0), (5,), (1, 3))
    out = op2(t, 1)
    assert out.r == (1, 1) and out.d == (2, 2)
    # m = 1: never changes anything
    t = ConeTriple(2, 1, (2,), (1,), (1,))
    assert op2(t, 1) == t
    with pytest.raises(IndexError):
        op2(t, 2)


def test_op3_examples():
    # d_j >= d_i for all j < i: vacuous
    t = ConeTriple(3, 2, (2, 1), (5,), (1, 1))
    assert op3(t, 2) == t
    t = ConeTriple(3, 2, (0, 1), (5,), (3, 1))
    out = op3(t, 2)
    assert out.d == (1, 1) and out.r == (2, 1)
    t = ConeTriple(2, 1, (1,), (3,), (1,))
    assert op3(t, 1) == t


def test_normal_form_examples():
    t = ConeTriple(2, 1, (0,), (0,), (1,))
    nf = normal_form(t)
    assert nf.d == (1,) and nf.r == (0,)
    # already normal: all guards idle
    t = ConeTriple(2, 1, (2,), (3,), (1,))
    assert normal_form(t) == t
    # trace includes no-ops: 1 + m + m entries
    trace = []
    normal_form(ConeTriple(2, 1, (0,), (0,), (1,)), trace=trace)
    assert len(trace) == 3
    assert [lbl for lbl, _, _ in trace] == ["op1", "op2,1", "op3,1"]


def triples(n, m, hi=4):
    a_vecs = st.lists(
        st.integers(min_value=0, max_value=hi), min_size=n - m, max_size=n - m
    ).map(lambda v: tuple(sorted(v, reverse=True)))
    dr = st.tuples(
        st.lists(st.integers(min_value=0, max_value=hi), min_size=m, max_size=m),
        st.lists(st.integers(min_value=0, max_value=hi), min_size=m, max_size=m),
    ).filter(lambda t: dominant([x + y for x, y in zip(t[0], t[1])]))
    return st.tuples(a_vecs, dr).map(
        lambda av_dr: ConeTriple(n, m, av_dr[1][0], av_dr[0], av_dr[1][1])
    )


@given(triples(3, 2))
@settings(max_examples=150, deadline=None)
def test_operations_preserve_sum(t):
    total = tuple(x + y for x, y in zip(t.d, t.r))
    for out in (op1(t), op2(t, 1), op2(t, 2), op3(t, 1), op3(t, 2), normal_form(t)):
        assert tuple(x + y for x, y in zip(out.d, out.r)) == total


@given(triples(3, 2))
@settings(max_examples=150, deadline=None)
def test_normal_form_contract(t):
    nf = normal_form(t)
    # d never decreases, output shapes are dominant, idempotent
    assert all(a >= b for a, b in zip(nf.d, t.d))
    assert dominant(nf.d)
    assert dominant(nf.a + nf.r)
    assert normal_form(nf) == nf


def exhaustive_minimal_check(n, m, bound):
    checked = 0
    a_choices = [
        a for a in iproduct(range(bound + 1), repeat=n - m) if dominant(a)
    ]
    for a in a_choices:
        for d in iproduct(range(bound + 1), repeat=m):
            for r in iproduct(range(bound + 1), repeat=m):
                total = tuple(x + y for x, y in zip(d, r))
                if not dominant(total):
                    continue
                t = ConeTriple(n, m, d, a, r)
                nf = normal_form(t)
                feasible = []
                for d2 in iproduct(*[range(d[j], total[j] + 1) for j in range(m)]):
                    r2 = tuple(x - y for x, y in zip(total, d2))
                    if any(x < 0 for x in r2):
                        continue
                    if dominant(d2) and dominant(a + r2):
                        feasible.append(d2)
                assert nf.d in feasible
                for d2 in feasible:
                    assert all(x <= y for x, y in zip(nf.d, d2))
                checked += 1
    return checked


def test_minimality_exhaustive_2_1():
    assert exhaustive_minimal_check(2, 1, 3) > 0


def test_minimality_exhaustive_3_2():
    assert exhaustive_minimal_check(3, 2, 3) > 0


def test_ws_leq_examples():
    p = WSPair(2, 1, (1,), (1, 0))
    assert ws_leq(p, p)  # reflexive
    q = WSPair(2, 1, (0,), (2, 0))
    # ((1),(1,0)) >= ((0),(2,0)) fails: condition (1) at l=1 reads 1 >= 2
    assert not ws_leq(q, p)
    # the reverse holds
    assert ws_leq(p, q)


def test_ws_leq_rank_mismatch():
    with pytest.raises(ValueError):
        ws_leq(WSPair(2, 1, (0,), (0, 0)), WSPair(3, 2, (0, 0), (0, 0, 0)))


def all_pairs(n, m, bound):
    fs = [f for f in iproduct(range(bound + 1), repeat=n) if dominant(f)]
    ds = [d for d in iproduct(range(bound + 1), repeat=m) if dominant(d)]
    return [WSPair(n, m, d, f) for d in ds for f in fs]


def test_partial_order_exhaustive_2_1():
    pairs = all_pairs(2, 1, 3)
    leq = {}
    for p in pairs:
        for q in pairs:
            leq[(p, q)] = ws_leq(p, q)
    for p in pairs:
        assert leq[(p, p)]
    for p in pairs:
        for q in pairs:
            if leq[(p, q)] and leq[(q, p)]:
                assert p == q
    for p in pairs:
        for q in pairs:
            if not leq[(p, q)]:
                continue
            for r in pairs:
                if leq[(q, r)]:
                    assert leq[(p, r)]
