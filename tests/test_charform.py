import random

import pytest

from wscalc import charform, wsformula
from wscalc.ratfun import Poly, RatFun, Vars
from wscalc.weyl import character, enumerate_group
from wscalc.zetafactors import Context
from wscalc.charform import lhs_series, rhs_series, shintani_verify

from references import elementary_sym, satake_multiset, so_char, weyl_sum_direct

C21 = Context(2, 1)
C32 = Context(3, 2)


def test_so_char_trivial_weight():
    V = Vars(2, 0)
    assert so_char(V, (0, 0)) == RatFun.one(V)
    assert so_char(Vars(1, 0), (0,)) == RatFun.one(Vars(1, 0))


def test_so_char_standard_rep_so5():
    # the 5-dimensional standard representation of SO_5
    V = Vars(2, 0)
    expect = Poly.constant(V, 1)
    for e in [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
        expect = expect + Poly.monomial(V, e)
    assert so_char(V, (1, 0)) == RatFun.from_poly(expect)


def test_so_char_vanishing_strip():
    # T_{m+1}((-k, 0, ..., 0)) = 0 for k = 1..2m
    for m in (1, 2):
        V = Vars(m + 1, 0)
        for k in range(1, 2 * m + 1):
            lam = (-k,) + (0,) * m
            assert so_char(V, lam).is_zero()
        # and the next one is not zero
        lam = (-(2 * m + 1),) + (0,) * m
        assert not so_char(V, lam).is_zero()


def test_so_char_weyl_invariance_exact():
    for N in (1, 2):
        V = Vars(N, 0)
        lam = tuple(range(N + 1, 1, -1))
        c = so_char(V, lam)
        for w in enumerate_group(N):
            remap = w.embed_remap(V.size, 1)
            assert c.substitute_exponents(remap) == c


def test_so_char_weyl_invariance_numeric_N3():
    import cmath

    V = Vars(3, 0)
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
    V = C21.vars
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
        V = Vars(0, m)
        ys = [tuple(sign if i == j else 0 for i in range(V.size)) for j in range(1, m + 1)
              for sign in (1, -1)]
        for r in range(2 * m + 2):
            decomposed = {}
            for s in range(r % 2, min(r, 2 * m - r) + 1, 2):
                for e, c in character((1,) * s + (0,) * (m - s), "sp"):
                    decomposed[(0,) + e] = decomposed.get((0,) + e, 0) + c
            assert RatFun.from_poly(Poly(V, decomposed)) == elementary_sym(V, ys, r)


def test_series_truncation_guards():
    with pytest.raises(ValueError):
        lhs_series(Context(3, 1), 2)  # needs n = m+1
    with pytest.raises(ValueError):
        rhs_series(Context(3, 1), 2)
    with pytest.raises(ValueError):
        shintani_verify(Context(3, 1), 2)
    with pytest.raises(ValueError):
        lhs_series(C21, -1)
    with pytest.raises(ValueError):
        shintani_verify(C21, -1)


def test_series_k0():
    lhs = lhs_series(C21, 0)
    rhs = rhs_series(C21, 0)
    assert len(lhs) == 1 and lhs[0].ratfun() == 1
    assert len(rhs) == 1 and rhs[0].ratfun() == 1


def test_rhs_coefficient_k1():
    # T_2((1,0)) - v (y + y^-1)
    V = C21.vars
    expect = so_char(V, (1, 0)) - elementary_sym(V, satake_multiset(C21), 1)
    assert rhs_series(C21, 1)[1].ratfun() == expect


def test_lhs_coefficient_matches_torus_value():
    from wscalc.wsformula import ws_torus

    lhs = lhs_series(C21, 2)
    V = C21.vars
    for l in (1, 2):
        comp = RatFun.monomial(V, V.v_exp(2 * l * (C21.m + 1)))
        assert lhs[l].ratfun() * comp == ws_torus(C21, (l, 0)).ratfun()


def test_shintani_identity_2_1():
    rep = shintani_verify(C21, 8)
    assert rep.ok
    assert len(rep.results) == 9


def test_branching_consistency_product_form():
    """rhs_series equals the truncated product of the pure character series
    with prod(1 - q^-gamma T) expanded directly, not through e_r."""
    K = 5
    V = C21.vars

    def mul_truncated(a, b):
        out = []
        for k in range(K + 1):
            acc = RatFun.zero(V)
            for i in range(k + 1):
                if i < len(a) and k - i < len(b):
                    acc = acc + a[i] * b[k - i]
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
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * gm
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
    monkeypatch.setattr(charform, "_rhs_form", rhs_form_corrupted_at(2))
    for ctx in (C21, C32):
        rep = shintani_verify(ctx, 4)
        assert [l for l, eq in rep.results if not eq] == [2]
        assert rep.as_dict()["pass"] is False


def test_corrupted_coefficient_fails_verify_and_series(monkeypatch, capsys):
    """`verify shintani` and `series` share the one equality decision: both
    exit 1 on a corrupted coefficient, with l = 2 as the witness."""
    import json

    from wscalc.cli import main

    monkeypatch.setattr(charform, "_rhs_form", rhs_form_corrupted_at(2))
    assert main(["verify", "shintani", "--n", "2", "--m", "1", "--K", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["report"]["failing"] == [2]
    assert main(["series", "--n", "2", "--m", "1", "--K", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert [row["l"] for row in doc["rows"] if row["diff"] != "0"] == [2]


@pytest.mark.parametrize("ctx", [C21, C32], ids=["21", "32"])
def test_wrong_constant_fails_every_coefficient(monkeypatch, ctx):
    const = wsformula._constant_v

    def scaled(ctx):
        c = const(ctx)
        return tuple(a + b for a, b in zip(c + (0, 0), (0, 0) + c))

    monkeypatch.setattr(wsformula, "_constant_v", scaled)
    rep = shintani_verify(ctx, 4)
    assert not any(eq for _, eq in rep.results)


# Casselman-Shalika: at m = 0 the value is the SO(2n+1) character of f,
# times delta^(1/2)(p^f) = v^(2 sum_i f_i (n-i+1)).
CS_WEIGHTS = {
    1: [(0,), (1,), (2,), (3,), (5,)],
    2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1)],
    4: [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1)],
}


def _delta_half(ctx, f):
    V = ctx.vars
    return RatFun.monomial(V, V.v_exp(2 * sum(fi * (ctx.n - i) for i, fi in enumerate(f))))


def test_casselman_shalika_at_m0():
    for n, weights in CS_WEIGHTS.items():
        ctx = Context(n, 0)
        for f in weights:
            expect = _delta_half(ctx, f) * so_char(ctx.vars, f)
            assert wsformula.ws_torus(ctx, f).ratfun() == expect
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
            assert wsformula.ws_torus(ctx, f).ratfun() != _delta_half(ctx, f) * so_char(ctx.vars, f)
