from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from wscalc import ratfun, zetafactors
from wscalc.ratfun import Poly, RatFun, zeta_inv_of, zeta_of
from wscalc.weyl import reflection, simple_roots
from wscalc.zetafactors import (
    Context,
    b_factor,
    b_factor_poly,
    b_monomials,
    d_factor,
    delta_half_G,
    delta_half_MJ,
    dprime_factor,
    gamma_alpha,
    gamma_beta,
    gamma_big,
    equivariance,
    reflection_factors,
)

from references import mutant

C10 = Context(1, 0)
C21 = Context(2, 1)
C31 = Context(3, 1)
C32 = Context(3, 2)


def zeta(ctx, chi=(), xi=(), half=0):
    """zeta(s) at s = sum c chi_i over (i, c) in chi + sum c xi_j over (j, c)
    in xi + half/2, built from the exponent tuple of q^(-s)."""
    e = [half] + [0] * (ctx.n + ctx.m)
    for i, c in chi:
        e[i] += c
    for j, c in xi:
        e[ctx.n + j] += c
    return zeta_of(Poly.monomial(ctx, e))


def test_rank_constraint():
    assert Context is ratfun.Context  # one class for the ranks and the variables
    with pytest.raises(ValueError, match=r"need n >= m\+1"):
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
    assert dprime_factor(C10) == RatFun.one(C10)
    expect = (
        zeta(C32, xi=[(1, 1), (2, -1)])
        * zeta(C32, xi=[(1, 1), (2, 1)])
        * zeta(C32, xi=[(1, 2)])
        * zeta(C32, xi=[(2, 2)])
    )
    assert dprime_factor(C32) == expect


def test_b_factor_2_1():
    V = C21
    one = Poly.constant(V, 1)

    def binom(v, x1, x2, y1):
        return RatFun.from_poly(one - Poly.monomial(V, (v, x1, x2, y1)))

    expect = (
        binom(1, 1, 0, -1) * binom(1, 0, 0, 1) * binom(1, 1, 0, 1) * binom(1, 0, 1, 1)
    )
    assert b_factor(C21) == expect
    assert len(b_monomials(C21)) == 4


def test_b_factor_empty_products():
    assert b_factor(C10) == RatFun.one(C10)


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
    assert len(b_monomials(C31)) == 6


def test_gamma_big_1_0():
    V = C10
    expect = RatFun.from_poly(
        Poly.constant(V, 1) - Poly.monomial(V, (2, 1))
    )
    assert gamma_big(C10) == expect


def test_gamma_big_2_1_contains_plus_factor():
    # the factor 1 + v*y1 shows up in the numerator factor list
    g = gamma_big(C21)
    V = C21
    keys = set(g.nfac)
    plus = tuple(
        sorted({(0, 0, 0, 0): Fraction(1), (1, 0, 0, 1): Fraction(1)}.items())
    )
    assert plus in keys
    assert g * g.inverse() == RatFun.one(V)


def _hand_written(ctx):
    """d, d' and Gamma with their root blocks written out as loops over
    a < b: a reference for their construction from ``weyl.positive_roots``."""
    x, y, v, q1 = ctx.x, ctx.y, ctx.v(), ctx.v(2)
    G_pairs = [(a, b, s) for a, b in combinations(range(1, ctx.n + 1), 2) for s in (-1, 1)]
    M_pairs = [(a, b, s) for a, b in combinations(range(1, ctx.m + 1), 2) for s in (-1, 1)]
    d = [zeta_of(x(a) * x(b, s)) for a, b, s in G_pairs]
    d += [zeta_of(x(i)) for i in range(1, ctx.n + 1)]
    dp = [zeta_of(y(a) * y(b, s)) for a, b, s in M_pairs]
    dp += [zeta_of(y(j, 2)) for j in range(1, ctx.m + 1)]
    g = [zeta_inv_of(x(a) * x(b, s) * q1) for a, b, s in G_pairs]
    g += [zeta_inv_of(x(i) * q1) for i in range(1, ctx.n + 1)]
    g += [zeta_inv_of(y(a) * y(b, s) * q1) for a, b, s in M_pairs]
    for j in range(1, ctx.m + 1):
        g.append(RatFun.from_poly(Poly.constant(ctx, 1) + v * y(j)))
        for i in range(1, ctx.n - ctx.m + j):
            g.append(zeta_of(x(i) * y(j, -1) * v) / zeta_of(x(i, -1) * y(j) * v))
        for i in range(1, ctx.n + 1):
            g.append(zeta_of(x(i) * y(j) * v) * zeta_of(x(i, -1) * y(j) * v))
    return [prod(fs, start=RatFun.one(ctx)) for fs in (d, dp, g)]


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 1), (3, 2), (4, 3)])
def test_root_list_factors_match_hand_written_loops(n, m):
    """d, d' and Gamma built from the one list of positive roots hold the
    same factor keys, unit and monomial as the loops over a < b."""
    ctx = Context(n, m)
    built = (d_factor(ctx), dprime_factor(ctx), gamma_big(ctx))
    for b, h in zip(built, _hand_written(ctx)):
        assert (b.nfac, b.dfac, b.coeff, b.mono) == (h.nfac, h.dfac, h.coeff, h.mono)


def c_s(ctx, **arg):
    """zeta(p)/zeta(p+1) at the linear form p given as for ``zeta``."""
    return zeta(ctx, **arg) / zeta(ctx, half=2, **arg)


def test_c_w_examples():
    # c_s of a simple reflection of G, c_w(s) in Casselman's notation; at
    # n = 1 the long-root reflection is w0: c_s = zeta(chi_1)/zeta(chi_1 + 1)
    (group, alpha, _, c, _), = reflection_factors(C10)
    assert (group, alpha) == ("G", (2,))
    assert c == zeta(C10, chi=[(1, 1)]) / zeta(C10, chi=[(1, 1)], half=2)


def test_c_tilde_examples():
    # c_s of a simple reflection of M, c~_w(s): <xi, 2e_1> = 2 xi_1 at (2,1), and <xi, e_1 - e_2> = xi_1 - xi_2 at (3,2)
    c = {(g, a): c for g, a, _, c, _ in reflection_factors(C21)}
    assert c["M", (2,)] == zeta(C21, xi=[(1, 2)]) / zeta(C21, xi=[(1, 2)], half=2)
    c = {(g, a): c for g, a, _, c, _ in reflection_factors(C32)}
    expect = zeta(C32, xi=[(1, 1), (2, -1)]) / zeta(C32, xi=[(1, 1), (2, -1)], half=2)
    assert c["M", (1, -1)] == expect


def test_gamma_alpha_case_formulas():
    # case 1 at (3,1): alpha = e1-e2 with i <= n-m-1
    ctx = C31
    expect = (
        c_s(ctx, chi=[(1, 1), (2, -1)])
        * zeta(ctx, chi=[(1, 1), (2, -1)], half=2)
        / zeta(ctx, chi=[(2, 1), (1, -1)], half=2)
    )
    assert gamma_alpha(ctx, (1, -1, 0)) == expect
    # long root 2e3, whose coroot pairs to chi_3
    expect = (
        c_s(ctx, chi=[(3, 1)])
        * zeta(ctx, chi=[(3, 1)], half=2)
        / zeta(ctx, chi=[(3, -1)], half=2)
    )
    assert gamma_alpha(ctx, (0, 0, 2)) == expect
    # case 2 at (2,1): i = 1 = n-m, the xi_1 factors appear
    g = gamma_alpha(C21, (1, -1))
    expect = (
        c_s(C21, chi=[(1, 1), (2, -1)])
        * zeta(C21, chi=[(1, 1), (2, -1)], half=2)
        / zeta(C21, chi=[(2, 1), (1, -1)], half=2)
        * zeta(C21, chi=[(2, 1)], xi=[(1, -1)], half=1)
        * zeta(C21, chi=[(1, -1)], xi=[(1, 1)], half=1)
        / zeta(C21, chi=[(1, 1)], xi=[(1, -1)], half=1)
        / zeta(C21, chi=[(2, -1)], xi=[(1, 1)], half=1)
    )
    assert g == expect


def test_gamma_beta_case_formulas():
    # short root e1-e2 at (3,2) with chi~_i = chi_{n-m+i}
    ctx = C32
    expect = (
        c_s(ctx, xi=[(1, 1), (2, -1)])
        * zeta(ctx, xi=[(1, 1), (2, -1)], half=2)
        * zeta(ctx, chi=[(2, -1)], xi=[(2, 1)], half=1)
        * zeta(ctx, chi=[(2, 1)], xi=[(1, -1)], half=1)
        / zeta(ctx, xi=[(1, -1), (2, 1)], half=2)
        / zeta(ctx, chi=[(2, 1)], xi=[(2, -1)], half=1)
        / zeta(ctx, chi=[(2, -1)], xi=[(1, 1)], half=1)
    )
    assert gamma_beta(ctx, (1, -1)) == expect
    # long root 2e1 at (2,1): the fully expanded 8-zeta ratio in (x2, y1, v)
    expect = (
        c_s(C21, xi=[(1, 2)])
        * zeta(C21, xi=[(1, -1)], chi=[(2, -1)], half=1)
        * zeta(C21, xi=[(1, -1)], chi=[(2, 1)], half=1)
        * zeta(C21, xi=[(1, 2)], half=2)
        * zeta(C21, xi=[(1, -1)], half=1)
        / zeta(C21, xi=[(1, 1)], chi=[(2, -1)], half=1)
        / zeta(C21, xi=[(1, 1)], chi=[(2, 1)], half=1)
        / zeta(C21, xi=[(1, -2)], half=2)
        / zeta(C21, xi=[(1, 1)], half=1)
    )
    assert gamma_beta(C21, (2,)) == expect


def test_gamma_alpha_and_gamma_beta_refuse_other_roots():
    with pytest.raises(ValueError, match="simple root of G"):
        gamma_alpha(C32, (1, 1, 0))
    with pytest.raises(ValueError, match="simple root of M"):
        gamma_beta(C32, (0, 0, 2))


def test_gamma_consistency_all_simple_roots():
    """Gamma(reflected)/Gamma = c^-1 gamma for every simple root, exactly."""
    for ctx in (C21, C32):
        gamma = gamma_big(ctx)
        c = {(g, a): c for g, a, _, c, _ in reflection_factors(ctx)}
        for alpha in simple_roots(ctx.n):
            remap = reflection(alpha).embed_remap(ctx.size, 1)
            assert gamma.substitute_exponents(remap) * c["G", alpha] == gamma * gamma_alpha(ctx, alpha)
        for beta in simple_roots(ctx.m):
            remap = reflection(beta).embed_remap(ctx.size, 1 + ctx.n)
            assert gamma.substitute_exponents(remap) * c["M", beta] == gamma * gamma_beta(ctx, beta)


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
    roots = [("G", (1, -1, 0)), ("G", (0, 1, -1)), ("G", (0, 0, 2)), ("M", (1, -1)), ("M", (0, 2))]
    assert [(g, a) for g, a, *_ in got] == roots
    for (group, alpha, _, c, gamma), arg in zip(got, args):
        assert c == c_s(C32, **arg)
        assert gamma == (gamma_alpha if group == "G" else gamma_beta)(C32, alpha)


def test_equivariance_of_gamma_and_a_wrong_gamma():
    assert all(ok for _, _, ok in equivariance(C32, gamma_big(C32)))
    wrong = gamma_big(C21) * zeta(C21, xi=[(1, 1)], half=1)
    assert [(g, label) for g, label, ok in equivariance(C21, wrong) if not ok] == [("M", "2e1")]


# (old, new, the roots (group, label) that fail at (2,1) and at (3,2)): each
# mutant slips one exponent of one zeta argument's monomial q^(-s)
MONOMIAL_MUTATIONS = {
    "gamma_beta long root: +1/2 for +1": (
        "y(mm, 2) * q1", "y(mm, 2) * v",
        [("M", "2e1")], [("M", "2e2")],
    ),
    "gamma_alpha mixed: +chi_i for -chi_i": (
        "\n        * zeta_of(x(i, -1) * y(j) * v)", "\n        * zeta_of(x(i) * y(j) * v)",
        [("G", "e1-e2")], [("G", "e1-e2"), ("G", "e2-e3")],
    ),
    "gamma_big one-sided: -xi_j for +xi_j": (
        "out = out / zeta_of(x(i, -1) * y(j) * v)", "out = out / zeta_of(x(i, -1) * y(j, -1) * v)",
        [("G", "e1-e2"), ("M", "2e1")],
        [("G", "e1-e2"), ("G", "e2-e3"), ("M", "e1-e2"), ("M", "2e2")],
    ),
}


@pytest.mark.parametrize("mutation", sorted(MONOMIAL_MUTATIONS))
def test_equivariance_fails_on_a_slipped_monomial_exponent(mutation):
    """A copy of ``zetafactors`` with one exponent of one zeta argument
    slipped: Gamma's equivariance must fail, at the pinned roots."""
    old, new, *failing = MONOMIAL_MUTATIONS[mutation]
    mod = mutant(zetafactors, old, new)
    for (n, m), expect in zip([(2, 1), (3, 2)], failing):
        ctx = mod.Context(n, m)
        got = [(g, label) for g, label, ok in mod.equivariance(ctx, mod.gamma_big(ctx)) if not ok]
        assert got == expect


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
    assert len(simple_roots(C32.n)) == 3
    assert len(simple_roots(C32.m)) == 2
    assert len(simple_roots(C10.m)) == 0
