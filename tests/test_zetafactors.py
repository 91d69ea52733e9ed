from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from wscalc.ratfun import LinearForm, Poly, RatFun, zeta_inv_of, zeta_of
from wscalc.weyl import SignedPerm, enumerate_group
from wscalc.zetafactors import (
    Context,
    SimpleRoot,
    b_factor,
    b_factor_poly,
    b_linear_forms,
    c_tilde_w,
    c_w,
    d_factor,
    delta_half_G,
    delta_half_MJ,
    dprime_factor,
    gamma_alpha,
    gamma_beta,
    gamma_big,
    equivariance,
    inversion_set,
    reflection_factors,
    simple_roots_G,
    simple_roots_M,
)

C10 = Context(1, 0)
C21 = Context(2, 1)
C31 = Context(3, 1)
C32 = Context(3, 2)


def zeta(ctx, chi=(), xi=(), half=0):
    V = ctx.vars
    form = LinearForm(V, halves=half)
    for i, c in chi:
        form = form + LinearForm.chi_term(V, i, c)
    for j, c in xi:
        form = form + LinearForm.xi_term(V, j, c)
    return zeta_of(form)


def test_rank_constraint():
    with pytest.raises(ValueError):
        Context(1, 1)
    with pytest.raises(ValueError):
        Context(2, 2)
    Context(2, 0)  # fine


def test_d_factor_examples():
    assert d_factor(C10) == zeta(C10, chi=[(1, 1)])
    expect = (
        zeta(C21, chi=[(1, 1), (2, -1)])
        * zeta(C21, chi=[(1, 1), (2, 1)])
        * zeta(C21, chi=[(1, 1)])
        * zeta(C21, chi=[(2, 1)])
    )
    assert d_factor(C21) == expect


def test_d_factor_pole_at_equal_parameters():
    from wscalc.ratfun import PoleError

    with pytest.raises(PoleError):
        d_factor(C21).eval_at((0.5, 0.3, 0.3, 0.7))


def test_dprime_examples():
    assert dprime_factor(C21) == zeta(C21, xi=[(1, 2)])
    assert dprime_factor(C10) == RatFun.one(C10.vars)
    expect = (
        zeta(C32, xi=[(1, 1), (2, -1)])
        * zeta(C32, xi=[(1, 1), (2, 1)])
        * zeta(C32, xi=[(1, 2)])
        * zeta(C32, xi=[(2, 2)])
    )
    assert dprime_factor(C32) == expect


def test_b_factor_2_1():
    V = C21.vars
    one = Poly.constant(V, 1)

    def binom(v, x1, x2, y1):
        return RatFun.from_poly(one - Poly.monomial(V, (v, x1, x2, y1)))

    expect = (
        binom(1, 1, 0, -1) * binom(1, 0, 0, 1) * binom(1, 1, 0, 1) * binom(1, 0, 1, 1)
    )
    assert b_factor(C21) == expect
    assert len(b_linear_forms(C21)) == 4


def test_b_factor_empty_products():
    assert b_factor(C10) == RatFun.one(C10.vars)


def test_b_expansion_refused_beyond_rank_4():
    # the library refuses as the command line does, before expanding anything
    with pytest.raises(ValueError, match="n = 5"):
        b_factor_poly(Context(5, 1))


def test_b_factor_3_1_index_count():
    # brute-force count of the index sets: 2 (first) + 0 (second) + 1 + 3 = 6
    n, m = 3, 1
    count = 0
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            if i < j + n - m or i > j + n - m:
                count += 1
    count += m + n * m
    assert count == 6
    assert len(b_linear_forms(C31)) == 6


def test_gamma_big_1_0():
    V = C10.vars
    expect = RatFun.from_poly(
        Poly.constant(V, 1) - Poly.monomial(V, (2, 1))
    )
    assert gamma_big(C10) == expect


def test_gamma_big_2_1_contains_plus_factor():
    # the factor 1 + v*y1 shows up in the numerator factor list
    g = gamma_big(C21)
    V = C21.vars
    keys = set(g.nfac)
    plus = tuple(
        sorted({(0, 0, 0, 0): Fraction(1), (1, 0, 0, 1): Fraction(1)}.items())
    )
    assert plus in keys
    assert g * g.inverse() == RatFun.one(V)


def _hand_written(ctx):
    """d, d' and Gamma with their root blocks written out as loops over
    a < b: a reference for their construction from ``weyl.positive_roots``."""
    V, one, half = ctx.vars, LinearForm.const(ctx.vars, 1), ctx.half()
    chi, xi = ctx.chi, ctx.xi
    G_pairs = [(a, b, s) for a, b in combinations(range(1, ctx.n + 1), 2) for s in (-1, 1)]
    M_pairs = [(a, b, s) for a, b in combinations(range(1, ctx.m + 1), 2) for s in (-1, 1)]
    d = [zeta_of(chi(a) + s * chi(b)) for a, b, s in G_pairs]
    d += [zeta_of(chi(i)) for i in range(1, ctx.n + 1)]
    dp = [zeta_of(xi(a) + s * xi(b)) for a, b, s in M_pairs]
    dp += [zeta_of(xi(j) * 2) for j in range(1, ctx.m + 1)]
    g = [zeta_inv_of(chi(a) + s * chi(b) + one) for a, b, s in G_pairs]
    g += [zeta_inv_of(chi(i) + one) for i in range(1, ctx.n + 1)]
    g += [zeta_inv_of(xi(a) + s * xi(b) + one) for a, b, s in M_pairs]
    for j in range(1, ctx.m + 1):
        v_yj = Poly.monomial(V, (xi(j) + half).monomial())
        g.append(RatFun.from_poly(Poly.constant(V, 1) + v_yj))
        for i in range(1, ctx.n - ctx.m + j):
            g.append(zeta_of(chi(i) - xi(j) + half) / zeta_of(-1 * chi(i) + xi(j) + half))
        for i in range(1, ctx.n + 1):
            g.append(zeta_of(chi(i) + xi(j) + half) * zeta_of(-1 * chi(i) + xi(j) + half))
    return [prod(fs, start=RatFun.one(V)) for fs in (d, dp, g)]


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 1), (3, 2), (4, 3)])
def test_root_list_factors_match_hand_written_loops(n, m):
    """d, d' and Gamma built from the one list of positive roots hold the
    same factor keys, unit and monomial as the loops over a < b."""
    ctx = Context(n, m)
    built = (d_factor(ctx), dprime_factor(ctx), gamma_big(ctx))
    for b, h in zip(built, _hand_written(ctx)):
        assert (b.nfac, b.dfac, b.coeff, b.mono) == (h.nfac, h.dfac, h.coeff, h.mono)


def test_c_w_examples():
    assert c_w(C10, SignedPerm.identity(1)) == RatFun.one(C10.vars)
    w = SignedPerm.longest(1)
    expect = zeta(C10, chi=[(1, 1)]) / zeta(C10, chi=[(1, 1)], half=2)
    assert c_w(C10, w) == expect
    # w0 at n=1 is the long-root reflection: same element, same value
    assert c_w(C10, SignedPerm((1,), (-1,))) == expect


def test_c_tilde_examples():
    assert c_tilde_w(C21, SignedPerm.identity(1)) == RatFun.one(C21.vars)
    w = SignedPerm.longest(1)
    expect = zeta(C21, xi=[(1, 2)]) / zeta(C21, xi=[(1, 2)], half=2)
    assert c_tilde_w(C21, w) == expect
    swap = SignedPerm((2, 1), (1, 1))
    expect = zeta(C32, xi=[(1, 1), (2, -1)]) / zeta(C32, xi=[(1, 1), (2, -1)], half=2)
    assert c_tilde_w(C32, swap) == expect


def test_inversion_set_sizes():
    # longest element inverts every positive root: n^2 of them for C_n
    for k in (1, 2, 3):
        w0 = SignedPerm.longest(k)
        assert len(inversion_set(w0)) == k * k
    assert inversion_set(SignedPerm.identity(2)) == []


def test_cocycle_property_on_C2():
    """c_{w_a w}(chi) = c_a(w chi) c_w(chi) whenever lengths add.

    Length additivity (the inversion set grows) is exactly the condition
    under which the Gindikin-Karpelevich cocycle holds factor by factor.
    """
    ctx = Context(2, 0)
    V = ctx.vars
    for alpha in simple_roots_G(ctx):
        wa = alpha.reflection(ctx)
        for w in enumerate_group(2):
            if len(inversion_set(wa * w)) != len(inversion_set(w)) + 1:
                continue
            lhs = c_w(ctx, wa * w)
            remap = w.embed_remap(V.size, 1)
            rhs = c_w(ctx, wa).substitute_exponents(remap) * c_w(ctx, w)
            assert lhs == rhs


def test_gamma_alpha_case_formulas():
    # case 1 at (3,1): alpha = e1-e2 with i <= n-m-1
    ctx = C31
    root = SimpleRoot("G", "short", 1)
    expect = (
        c_w(ctx, root.reflection(ctx))
        * zeta(ctx, chi=[(1, 1), (2, -1)], half=2)
        / zeta(ctx, chi=[(2, 1), (1, -1)], half=2)
    )
    assert gamma_alpha(ctx, root) == expect
    # long root
    root = SimpleRoot("G", "long", 3)
    expect = (
        c_w(ctx, root.reflection(ctx))
        * zeta(ctx, chi=[(3, 1)], half=2)
        / zeta(ctx, chi=[(3, -1)], half=2)
    )
    assert gamma_alpha(ctx, root) == expect
    # case 2 at (2,1): i = 1 = n-m, the xi_1 factors appear
    root = SimpleRoot("G", "short", 1)
    g = gamma_alpha(C21, root)
    expect = (
        c_w(C21, root.reflection(C21))
        * zeta(C21, chi=[(1, 1), (2, -1)], half=2)
        / zeta(C21, chi=[(2, 1), (1, -1)], half=2)
        * zeta(C21, chi=[(2, 1)], xi=[(1, -1)], half=1)
        * zeta(C21, chi=[(1, -1)], xi=[(1, 1)], half=1)
        / zeta(C21, chi=[(1, 1)], xi=[(1, -1)], half=1)
        / zeta(C21, chi=[(2, -1)], xi=[(1, 1)], half=1)
    )
    assert g == expect


def test_gamma_beta_case_formulas():
    # short root at (3,2) with chi~_i = chi_{n-m+i}
    ctx = C32
    root = SimpleRoot("M", "short", 1)
    expect = (
        c_tilde_w(ctx, root.reflection(ctx))
        * zeta(ctx, xi=[(1, 1), (2, -1)], half=2)
        * zeta(ctx, chi=[(2, -1)], xi=[(2, 1)], half=1)
        * zeta(ctx, chi=[(2, 1)], xi=[(1, -1)], half=1)
        / zeta(ctx, xi=[(1, -1), (2, 1)], half=2)
        / zeta(ctx, chi=[(2, 1)], xi=[(2, -1)], half=1)
        / zeta(ctx, chi=[(2, -1)], xi=[(1, 1)], half=1)
    )
    assert gamma_beta(ctx, root) == expect
    # long root at (2,1): the fully expanded 8-zeta ratio in (x2, y1, v)
    root = SimpleRoot("M", "long", 1)
    expect = (
        c_tilde_w(C21, root.reflection(C21))
        * zeta(C21, xi=[(1, -1)], chi=[(2, -1)], half=1)
        * zeta(C21, xi=[(1, -1)], chi=[(2, 1)], half=1)
        * zeta(C21, xi=[(1, 2)], half=2)
        * zeta(C21, xi=[(1, -1)], half=1)
        / zeta(C21, xi=[(1, 1)], chi=[(2, -1)], half=1)
        / zeta(C21, xi=[(1, 1)], chi=[(2, 1)], half=1)
        / zeta(C21, xi=[(1, -2)], half=2)
        / zeta(C21, xi=[(1, 1)], half=1)
    )
    assert gamma_beta(C21, root) == expect


def test_gamma_consistency_all_simple_roots():
    """Gamma(reflected)/Gamma = c^-1 gamma for every simple root, exactly."""
    for ctx in (C21, C32):
        V = ctx.vars
        gamma = gamma_big(ctx)
        for root in simple_roots_G(ctx):
            remap = root.reflection(ctx).embed_remap(V.size, 1)
            assert gamma.substitute_exponents(remap) * c_w(ctx, root.reflection(ctx)) == gamma * gamma_alpha(ctx, root)
        for root in simple_roots_M(ctx):
            remap = root.reflection(ctx).embed_remap(V.size, 1 + ctx.n)
            assert gamma.substitute_exponents(remap) * c_tilde_w(ctx, root.reflection(ctx)) == gamma * gamma_beta(ctx, root)


def test_reflection_factors_are_the_rank_one_factors():
    """c_s = zeta(s)/zeta(s+1) at the rank-one argument: <chi, a^> for a root
    of G, <xi, b> for a root of M; gamma_s is the root's gamma-factor."""
    args = [
        dict(chi=[(1, 1), (2, -1)]),
        dict(chi=[(2, 1), (3, -1)]),
        dict(chi=[(3, 1)]),
        dict(xi=[(1, 1), (2, -1)]),
        dict(xi=[(2, 2)]),
    ]
    got = reflection_factors(C32)
    roots = simple_roots_G(C32) + simple_roots_M(C32)
    assert [r for r, *_ in got] == roots
    for (root, _, c, gamma), arg in zip(got, args):
        assert c == zeta(C32, **arg) / zeta(C32, half=2, **arg)
        expect = gamma_alpha(C32, root) if root.group == "G" else gamma_beta(C32, root)
        assert gamma == expect


def test_equivariance_of_gamma_and_a_wrong_gamma():
    assert all(ok for _, ok in equivariance(C32, gamma_big(C32)))
    wrong = gamma_big(C21) * zeta(C21, xi=[(1, 1)], half=1)
    assert [r.label for r, ok in equivariance(C21, wrong) if not ok] == ["2e1"]


def test_delta_half_G():
    assert delta_half_G(C21, (1, 0)) == 4
    assert delta_half_G(C21, (0, 0)) == 0
    assert delta_half_G(C21, (1, 1)) == 6
    # anchored derivation, n = m+1: exponent on the first slot is 2(m+1)
    for m in (0, 1, 2):
        ctx = Context(m + 1, m)
        assert delta_half_G(ctx, (1,) + (0,) * m) == 2 * (m + 1)


def test_delta_half_MJ():
    assert delta_half_MJ(C21, (1,)) == 3
    assert delta_half_MJ(C21, (0,)) == 0
    assert delta_half_MJ(C32, (1, 0)) == 5
    # gap check: consecutive coordinates differ by 2 in the v-exponent
    assert delta_half_MJ(C32, (1, 0)) - delta_half_MJ(C32, (0, 1)) == 2


def test_simple_root_enumeration():
    assert len(simple_roots_G(C32)) == 3
    assert len(simple_roots_M(C32)) == 2
    assert len(simple_roots_M(C10)) == 0
