import random

import pytest

from wscalc import charform, wsformula
from wscalc.ratfun import Poly, RatFun
from wscalc.weyl import character, enumerate_group
from wscalc.zetafactors import Context
from wscalc.charform import lhs_series, rhs_series, shintani_verify

from references import (
    add,
    elementary_sym,
    mutant,
    satake_multiset,
    so_char,
    sub,
    weyl_sum_direct,
    ws_torus,
)

C21 = Context(2, 1)
C32 = Context(3, 2)


def test_so_char_trivial_weight():
    V = Context(2, 0)
    assert so_char(V, (0, 0)) == RatFun.one(V)
    assert so_char(Context(1, 0), (0,)) == RatFun.one(Context(1, 0))


def test_so_char_standard_rep_so5():
    # the 5-dimensional standard representation of SO_5
    V = Context(2, 0)
    expect = Poly.constant(V, 1)
    for e in [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
        expect = expect + Poly.monomial(V, e)
    assert so_char(V, (1, 0)) == RatFun.from_poly(expect)


def test_so_char_vanishing_strip():
    # T_{m+1}((-k, 0, ..., 0)) = 0 for k = 1..2m
    for m in (1, 2):
        V = Context(m + 1, 0)
        for k in range(1, 2 * m + 1):
            lam = (-k,) + (0,) * m
            assert so_char(V, lam).is_zero()
        # and the next one is not zero
        lam = (-(2 * m + 1),) + (0,) * m
        assert not so_char(V, lam).is_zero()


def test_so_char_weyl_invariance_exact():
    for N in (1, 2):
        V = Context(N, 0)
        lam = tuple(range(N + 1, 1, -1))
        c = so_char(V, lam)
        for w in enumerate_group(N):
            remap = w.embed_remap(V.size, 1)
            assert c.substitute_exponents(remap) == c


def test_so_char_weyl_invariance_numeric_N3():
    import cmath

    V = Context(3, 0)
    c = so_char(V, (2, 1, 0))
    rng = random.Random(3)
    pts = [
        tuple(0.8 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(V.size))
        for _ in range(4)
    ]
    for w in enumerate_group(3):
        for pt in pts:
            wpt = (pt[0],) + w.act_on_point(pt[1:])
            assert abs(c.eval_at(pt) - c.eval_at(wpt)) < 1e-9


def test_elementary_sym():
    V = C21
    items = satake_multiset(C21)
    assert len(items) == 2 * C21.m
    assert elementary_sym(V, items, 0) == RatFun.one(V)
    # e_1 of {v y, v y^-1} is v(y + y^-1)
    expect = Poly.monomial(V, (1, 0, 0, 1)) + Poly.monomial(V, (1, 0, 0, -1))
    assert elementary_sym(V, items, 1) == RatFun.from_poly(expect)
    # e_2 is v^2 (the product)
    assert elementary_sym(V, items, 2) == RatFun.monomial(V, (2, 0, 0, 0))
    assert elementary_sym(V, items, 3).is_zero()


def test_exterior_powers_of_sp_standard():
    """Lambda^r of the standard representation of Sp(2m) is the sum of
    V(1^s) over s = r (mod 2), s <= min(r, 2m-r): its character is
    e_r(y_1^(+-1), .., y_m^(+-1)) for every r <= 2m, and e_r = 0 beyond."""
    for m in (1, 2, 3):
        ctx = Context(m + 1, m)
        ys = [tuple(sign if i == ctx.n + j else 0 for i in range(ctx.size))
              for j in range(1, m + 1) for sign in (1, -1)]
        pad = (0,) * (1 + ctx.n)  # v and the x slots
        for r in range(2 * m + 2):
            decomposed = {}
            for s in range(r % 2, min(r, 2 * m - r) + 1, 2):
                for e, c in character((1,) * s + (0,) * (m - s), "sp"):
                    decomposed[pad + e] = decomposed.get(pad + e, 0) + c
            assert RatFun.from_poly(Poly(ctx, decomposed)) == elementary_sym(ctx, ys, r)


def test_series_truncation_guards():
    # every n >= m+1 computes, and (3,1) passes
    assert len(lhs_series(Context(3, 1), 2)) == len(rhs_series(Context(3, 1), 2)) == 3
    assert shintani_verify(Context(3, 1), 2).ok
    for ctx in (C21, Context(3, 1)):
        with pytest.raises(ValueError):
            lhs_series(ctx, -1)
        with pytest.raises(ValueError):
            rhs_series(ctx, -1)
        with pytest.raises(ValueError):
            shintani_verify(ctx, -1)


def test_series_k0():
    lhs = lhs_series(C21, 0)
    rhs = rhs_series(C21, 0)
    assert len(lhs) == 1 and lhs[0].ratfun() == 1
    assert len(rhs) == 1 and rhs[0].ratfun() == 1


def test_rhs_coefficient_k1():
    # T_2((1,0)) - v (y + y^-1)
    V = C21
    expect = sub(so_char(V, (1, 0)), elementary_sym(V, satake_multiset(C21), 1))
    assert rhs_series(C21, 1)[1].ratfun() == expect


def test_lhs_coefficient_matches_torus_value():
    """The coefficient of T^l on the left is W0(p^(l,0,..)) |p|^(-ln)."""
    for ctx in (C21, Context(3, 1)):
        lhs = lhs_series(ctx, 2)
        for l in (1, 2):
            comp = RatFun.monomial(ctx, ctx.v_exp(2 * l * ctx.n))
            f = (l,) + (0,) * (ctx.n - 1)
            assert lhs[l].ratfun() * comp == ws_torus(ctx, f).ratfun()


def test_shintani_identity_2_1():
    rep = shintani_verify(C21, 8)
    assert rep.ok
    assert len(rep.diffs) == 9


@pytest.mark.parametrize("n,m,K", [(3, 1, 5), (2, 0, 3), (3, 0, 5)])
def test_shintani_identity_beyond_n_equal_m_plus_1(n, m, K):
    """With the normalization |p|^(-ln) the identity holds at n > m+1 too,
    an observation of this package (the paper proves n = m+1)."""
    assert shintani_verify(Context(n, m), K).ok


def test_the_old_normalization_fails_beyond_n_equal_m_plus_1():
    """The series normalized by |p|^(-l(m+1)), right only at n = m+1, fails
    at (3,1) at every l from 1 to 5, and still passes at (2,1)."""
    broken = mutant(charform, "2 * l * ctx.n", "2 * l * (ctx.m + 1)")
    diffs = broken.shintani_verify(Context(3, 1), 5).diffs
    assert [bool(diff) for diff in diffs] == [False] + [True] * 5
    assert broken.shintani_verify(C21, 5).ok


def test_branching_consistency_product_form():
    """rhs_series equals the truncated product of the pure character series
    with prod(1 - q^-gamma T) expanded directly, not through e_r."""
    K = 5
    V = C21

    def mul_truncated(a, b):
        out = []
        for k in range(K + 1):
            acc = RatFun.zero(V)
            for i in range(k + 1):
                if i < len(a) and k - i < len(b):
                    acc = add(acc, a[i] * b[k - i])
            out.append(acc)
        return out

    char_series = [so_char(V, (a, 0)) for a in range(K + 1)]
    # expand prod (1 - gamma T) as an explicit polynomial in T
    gammas = satake_multiset(C21)
    poly_coeffs = [RatFun.one(V)]
    for g in gammas:
        gm = RatFun.monomial(V, g)
        nxt = [RatFun.zero(V) for _ in range(len(poly_coeffs) + 1)]
        for i, c in enumerate(poly_coeffs):
            nxt[i] = add(nxt[i], c)
            nxt[i + 1] = sub(nxt[i + 1], c * gm)
        poly_coeffs = nxt
    assert mul_truncated(char_series, poly_coeffs) == [c.ratfun() for c in rhs_series(C21, K)]


def rhs_form_corrupted_at(l_bad):
    """charform._rhs_form with its first coefficient at T^l_bad multiplied
    by 1 + v^2."""
    rhs_form = charform._rhs_form

    def corrupted(ctx, l):
        form = rhs_form(ctx, l)
        if l != l_bad:
            return form
        (key, vpoly), rest = form[0], form[1:]
        doubled = {}
        for k, c in vpoly:
            for j in (k, k + 2):
                doubled[j] = doubled.get(j, 0) + c
        return ((key, tuple(sorted(doubled.items()))),) + rest

    return corrupted


def test_failing_coefficient_is_reported_not_raised(monkeypatch):
    """The failing coefficient carries its witness, the difference that
    `series` prints; passing ones carry l and pass alone."""
    monkeypatch.setattr(charform, "_rhs_form", rhs_form_corrupted_at(2))
    for ctx in (C21, C32):
        rep = shintani_verify(ctx, 4)
        assert [l for l, diff in enumerate(rep.diffs) if diff] == [2]
        doc = rep.as_dict()
        assert doc["pass"] is False
        witness = charform.difference_text(ctx, charform.coefficient_difference(ctx, 2))
        assert witness != "0"
        assert doc["coefficients"][2] == {"l": 2, "pass": False, "diff": witness}
        assert [c for c in doc["coefficients"] if c["l"] != 2] == [
            {"l": l, "pass": True} for l in (0, 1, 3, 4)
        ]


def test_corrupted_coefficient_fails_verify_and_series(monkeypatch, capsys):
    """`verify shintani` and `series` share the one equality decision: both
    exit 1 on a corrupted coefficient, with l = 2 as the witness."""
    import json

    from wscalc.cli import main

    monkeypatch.setattr(charform, "_rhs_form", rhs_form_corrupted_at(2))
    assert main(["verify", "shintani", "--n", "2", "--m", "1", "--K", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["report"]["failing"] == [2]
    witness = doc["report"]["coefficients"][2]["diff"]
    assert main(["series", "--n", "2", "--m", "1", "--K", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert [row["l"] for row in doc["rows"] if row["diff"] != "0"] == [2]
    # the diff is the value of left - right, as the tests' reference adder
    # takes it from the two sides' rational functions
    lhs, rhs = lhs_series(C21, 2)[2], rhs_series(C21, 2)[2]
    assert doc["rows"][2]["diff"] == witness == sub(lhs.ratfun(), rhs.ratfun()).text()


@pytest.mark.parametrize("offset", [1, -1], ids=["plus1", "minus1"])
def test_a_shifted_delta_half_fails_verify_and_series(monkeypatch, capsys, offset):
    """delta^(1/2)(p^f) off by one power of v, on the left of the series,
    fails every coefficient of `verify shintani` and `series` with a nonzero
    diff; neither raises.  At -1 the difference has a negative power of v,
    which the reduction moves into the shift."""
    import json

    from wscalc.cli import main

    delta_half_G = charform.delta_half_G
    monkeypatch.setattr(charform, "delta_half_G", lambda ctx, f: delta_half_G(ctx, f) + offset)
    assert main(["verify", "shintani", "--n", "2", "--m", "1", "--K", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" not in doc and doc["report"]["failing"] == [0, 1, 2, 3]
    witnesses = [c["diff"] for c in doc["report"]["coefficients"]]
    assert main(["series", "--n", "2", "--m", "1", "--K", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" not in doc and doc["pass"] is False
    assert [row["diff"] for row in doc["rows"]] == witnesses
    assert "0" not in witnesses


@pytest.mark.parametrize("ctx", [C21, C32], ids=["21", "32"])
def test_wrong_constant_fails_every_coefficient(monkeypatch, ctx):
    const = wsformula._constant_v

    def scaled(ctx):
        c = const(ctx)
        return tuple(a + b for a, b in zip(c + (0, 0), (0, 0) + c))

    monkeypatch.setattr(wsformula, "_constant_v", scaled)
    rep = shintani_verify(ctx, 4)
    assert all(rep.diffs)


# Casselman-Shalika: at m = 0 the value is the SO(2n+1) character of f,
# times delta^(1/2)(p^f) = v^(2 sum_i f_i (n-i+1)).
CS_WEIGHTS = {
    1: [(0,), (1,), (2,), (3,), (5,)],
    2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1)],
    4: [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1)],
}


def _delta_half(ctx, f):
    return RatFun.monomial(ctx, ctx.v_exp(2 * sum(fi * (ctx.n - i) for i, fi in enumerate(f))))


def test_casselman_shalika_at_m0():
    for n, weights in CS_WEIGHTS.items():
        ctx = Context(n, 0)
        for f in weights:
            expect = _delta_half(ctx, f) * so_char(ctx, f)
            assert ws_torus(ctx, f).ratfun() == expect
            if n <= 2:
                # the literal Weyl sum shares no character code with so_char
                assert _delta_half(ctx, f) * weyl_sum_direct(ctx, (), f) == expect


def test_casselman_shalika_pin_fails_on_wrong_delta(monkeypatch):
    def wrong_delta(ctx, f):
        return sum(2 * fi * (ctx.n - i) for i, fi in enumerate(f, 1))

    monkeypatch.setattr(wsformula, "delta_half_G", wrong_delta)
    for n, weights in CS_WEIGHTS.items():
        ctx = Context(n, 0)
        for f in weights[1:]:
            assert ws_torus(ctx, f).ratfun() != _delta_half(ctx, f) * so_char(ctx, f)
