"""Closed-form local factor products: b, d, d', Gamma, the rank-one
Gindikin-Karpelevich factors c_s and gamma-factors of the simple
reflections, and modulus characters on torus cocharacters.

``equivariance`` is the one exact check of how a value transforms under the
simple reflections: value(s.) c_s == gamma_s value, with c_s = zeta(p) /
zeta(p + 1) at the pairing p of chi with the simple coroot of G (of xi with
the simple root of M).  ``verify gamma`` and ``verify invariance`` apply
it to Gamma; the latter then checks that S's characters are invariant, so
the unnormalized value Gamma S transforms as Gamma does.  Roots are the
integer vectors of ``weyl``.

Every function takes the ``Context`` of ``ratfun`` (re-exported here): the
ranks (n, m) and the variables x_i = q^(-chi_i), y_j = q^(-xi_j),
v = q^(-1/2), so each zeta argument s is held as the monomial q^(-s) and
every factor is an exact rational function.  A sum of arguments is the
product of their monomials, so zeta(chi_i - xi_j + 1/2) is
``zeta_of(x(i) * y(j, -1) * v)`` and zeta(s + 1) is ``zeta_of(m * v^2)``
at m = q^(-s).  The docstrings keep the paper's zeta(s).
"""

from functools import lru_cache
from math import prod

from .ratfun import Context, Poly, RatFun, zeta_of, zeta_inv_of
from .weyl import positive_roots, reflection, root_label, simple_roots

__all__ = [
    "Context",
    "d_factor",
    "dprime_factor",
    "b_factor",
    "require_b_expandable",
    "gamma_big",
    "gamma_alpha",
    "gamma_beta",
    "reflection_factors",
    "equivariance",
    "delta_half_G",
    "delta_half_MJ",
]


@lru_cache(maxsize=None)
def d_factor(ctx):
    """d(chi) = prod over the positive roots of C_n of zeta(<chi, alpha-check>):
    zeta(chi_a - chi_b) zeta(chi_a + chi_b) for a < b, and zeta(chi_i)."""
    roots = positive_roots(ctx.n, "sp")
    return prod((zeta_of(_coroot_pairing_chi(ctx, r)) for r in roots), start=RatFun.one(ctx))


@lru_cache(maxsize=None)
def dprime_factor(ctx):
    """d'(xi) = prod over the positive roots of C_m of zeta(<xi, alpha>):
    zeta(xi_a - xi_b) zeta(xi_a + xi_b) for a < b, and zeta(2 xi_j)."""
    roots = positive_roots(ctx.m, "sp")
    return prod((zeta_of(_root_pairing_xi(ctx, r)) for r in roots), start=RatFun.one(ctx))


def b_monomials(ctx):
    """The monomials q^(-s) of the zeta arguments s of b(chi, xi), one per
    inverse-zeta factor: chi_i - xi_j + 1/2 below the diagonal
    i = j + n - m, -chi_i + xi_j + 1/2 above it (the diagonal belongs to
    neither one-sided product), xi_j + 1/2 and chi_i + xi_j + 1/2.
    """
    x, y, v = ctx.x, ctx.y, ctx.v()
    out = []
    shift = ctx.n - ctx.m
    for j in range(1, ctx.m + 1):
        for i in range(1, ctx.n + 1):
            if i < j + shift:
                out.append(x(i) * y(j, -1) * v)
            elif i > j + shift:
                out.append(x(i, -1) * y(j) * v)
    for j in range(1, ctx.m + 1):
        out.append(y(j) * v)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.m + 1):
            out.append(x(i) * y(j) * v)
    return out


@lru_cache(maxsize=None)
def b_factor(ctx):
    """The polynomial factor b(chi, xi): a product of inverse zeta factors."""
    return prod((zeta_inv_of(m) for m in b_monomials(ctx)), start=RatFun.one(ctx))


# b has 2nm factors; at (4,3) its 24 expand to 765,904 terms (about 6 s and
# 270 MB on a 2-vCPU machine), and the count grows exponentially with the rank
B_EXPANSION_MAX_N = 4


def require_b_expandable(ctx):
    """Refuse a rank whose b(chi, xi) is too large to expand: n > 4."""
    if ctx.n > B_EXPANSION_MAX_N:
        raise ValueError(
            "b(chi, xi) is expanded only for n <= %d (at (4,3) it has 765,904 "
            "terms); rank n = %d, m = %d is out of range"
            % (B_EXPANSION_MAX_N, ctx.n, ctx.m)
        )


def b_factor_poly(ctx):
    """b(chi, xi) expanded as a Poly (it has trivial denominator).  Not
    cached: its one caller in the engine keeps b grouped by weight instead."""
    require_b_expandable(ctx)
    return b_factor(ctx).numerator_poly()


@lru_cache(maxsize=None)
def gamma_big(ctx):
    """The Gamma(chi, xi) product whose quotient normalizes the pairing.

    Four blocks: zeta(<chi, alpha-check> + 1)^-1 over the positive roots of
    G, zeta(<xi, alpha> + 1)^-1 over the short positive roots of M together
    with the factors 1 + v*y_j, a one-sided block of zeta ratios mixing chi
    and xi, and the full grid of zeta pairs.
    """
    x, y, v, q1 = ctx.x, ctx.y, ctx.v(), ctx.v(2)
    out = RatFun.one(ctx)
    for root in positive_roots(ctx.n, "sp"):
        out = out * zeta_inv_of(_coroot_pairing_chi(ctx, root) * q1)
    for root in positive_roots(ctx.m, "sp"):
        if 2 not in root:  # a short root; the factor 1 + v*y_j below stands for 2e_j
            out = out * zeta_inv_of(_root_pairing_xi(ctx, root) * q1)
    for j in range(1, ctx.m + 1):
        # 1 + xi_j(p)|p|^(1/2) = 1 + v*y_j
        out = out * RatFun.from_poly(Poly.constant(ctx, 1) + y(j) * v)
    for j in range(1, ctx.m + 1):
        for i in range(1, (ctx.n - ctx.m) + j):
            out = out * zeta_of(x(i) * y(j, -1) * v)
            out = out / zeta_of(x(i, -1) * y(j) * v)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.m + 1):
            out = out * zeta_of(x(i) * y(j) * v) * zeta_of(x(i, -1) * y(j) * v)
    return out


# -- Gindikin-Karpelevich factors ------------------------------------------


def _coroot_pairing_chi(ctx, root):
    """q^-<chi, alpha-check> for a root of G: e_a-e_b -> chi_a-chi_b,
    e_a+e_b -> chi_a+chi_b, 2e_i -> chi_i."""
    terms = [(i + 1, c) for i, c in enumerate(root) if c]
    if len(terms) == 1:
        (i, c), = terms
        assert abs(c) == 2
        return ctx.x(i, c // 2)
    (a, ca), (b, cb) = terms
    return ctx.x(a, ca) * ctx.x(b, cb)


def _root_pairing_xi(ctx, root):
    """q^-<xi, alpha> for a root of M: the plain pairing, so 2e_j -> 2 xi_j."""
    return prod((ctx.y(j, c) for j, c in enumerate(root, 1) if c), start=Poly.constant(ctx, 1))


def _c_simple(ctx, m):
    """The rank-one Gindikin-Karpelevich factor c_s = zeta(p)/zeta(p+1),
    from m = q^-p."""
    return zeta_of(m) / zeta_of(m * ctx.v(2))


def gamma_alpha(ctx, alpha):
    """The gamma-factor of (s_alpha, 1), alpha a simple root of G.

    Case split on where alpha sits relative to the GL part: pure chi ratio
    for e_i - e_{i+1} with i <= n-m-1, a mixed chi/xi correction for
    n-m <= i <= n-1 (with i' = i - (n-m)), and the chi_n reflection for 2e_n.
    """
    if alpha not in simple_roots(ctx.n):
        raise ValueError("expected a simple root of G")
    x, y, v, q1 = ctx.x, ctx.y, ctx.v(), ctx.v(2)
    out = _c_simple(ctx, _coroot_pairing_chi(ctx, alpha))
    if 2 in alpha:
        return out * zeta_of(x(ctx.n) * q1) / zeta_of(x(ctx.n, -1) * q1)
    i = alpha.index(1) + 1
    out = out * zeta_of(x(i) * x(i + 1, -1) * q1) / zeta_of(x(i + 1) * x(i, -1) * q1)
    if i <= ctx.n - ctx.m - 1:
        return out
    j = i - (ctx.n - ctx.m) + 1  # xi_{i'+1}
    return (
        out
        * zeta_of(x(i + 1) * y(j, -1) * v)
        * zeta_of(x(i, -1) * y(j) * v)
        / zeta_of(x(i) * y(j, -1) * v)
        / zeta_of(x(i + 1, -1) * y(j) * v)
    )


def gamma_beta(ctx, beta):
    """The gamma-factor of (1, s_beta), beta a simple root of M.

    Uses the shifted characters chi~_i = chi_{n-m+i}.
    """
    if beta not in simple_roots(ctx.m):
        raise ValueError("expected a simple root of M")
    y, v, q1 = ctx.y, ctx.v(), ctx.v(2)
    shift = ctx.n - ctx.m

    def xt(i, k=1):
        return ctx.x(shift + i, k)

    out = _c_simple(ctx, _root_pairing_xi(ctx, beta))
    if 2 not in beta:
        i = beta.index(1) + 1
        return (
            out
            * zeta_of(y(i) * y(i + 1, -1) * q1)
            * zeta_of(xt(i, -1) * y(i + 1) * v)
            * zeta_of(xt(i) * y(i, -1) * v)
            / zeta_of(y(i, -1) * y(i + 1) * q1)
            / zeta_of(xt(i) * y(i + 1, -1) * v)
            / zeta_of(xt(i, -1) * y(i) * v)
        )
    mm = ctx.m
    return (
        out
        * zeta_of(y(mm, -1) * xt(mm, -1) * v)
        * zeta_of(y(mm, -1) * xt(mm) * v)
        * zeta_of(y(mm, 2) * q1)
        * zeta_of(y(mm, -1) * v)
        / zeta_of(y(mm) * xt(mm, -1) * v)
        / zeta_of(y(mm) * xt(mm) * v)
        / zeta_of(y(mm, -2) * q1)
        / zeta_of(y(mm) * v)
    )


# -- equivariance under the simple reflections -------------------------------


@lru_cache(maxsize=None)
def reflection_factors(ctx):
    """Each simple reflection s = s_alpha of W_G, then of W_M, as (group,
    alpha, remap, c_s, gamma_s): remap is s acting on exponent tuples, c_s is
    zeta(p)/zeta(p+1) at p = <chi, alpha-check> for G and <xi, alpha> for M,
    and gamma_s is the gamma-factor of s."""
    size = ctx.size
    blocks = (
        ("G", ctx.n, 1, _coroot_pairing_chi, gamma_alpha),
        ("M", ctx.m, 1 + ctx.n, _root_pairing_xi, gamma_beta),
    )
    return tuple(
        (group, alpha, reflection(alpha).embed_remap(size, offset),
         _c_simple(ctx, pairing(ctx, alpha)), gamma(ctx, alpha))
        for group, rank, offset, pairing, gamma in blocks
        for alpha in simple_roots(rank)
    )


def equivariance(ctx, value):
    """[(group, label, ok)] per simple reflection s: ok when value(s.) c_s
    equals gamma_s value exactly.  Gamma and the unnormalized pairing value
    Gamma S transform this way (Casselman, Compositio Math. 40, 1980)."""
    return [
        (group, root_label(alpha), value.substitute_exponents(remap) * c == gamma * value)
        for group, alpha, remap, c, gamma in reflection_factors(ctx)
    ]


# -- modulus characters on torus cocharacters --------------------------------


def delta_half_G(ctx, f):
    """delta^(1/2)_{B_G}(p^f) as its v-exponent: prod_i v^(2 f_i (n-i+1)).

    The exponent n-i+1 is the i-th entry of the half-sum of positive roots
    of C_n; see the anchored evaluation delta^(1/2)(diag(t, I, t^-1)) = |t|^(m+1)
    for n = m+1, which pins the convention.
    """
    f = tuple(f)
    if len(f) != ctx.n:
        raise ValueError("f must have length n")
    return sum(2 * fi * (ctx.n - i + 1) for i, fi in enumerate(f, 1))


def delta_half_MJ(ctx, d):
    """delta^(1/2)_{B_{M^J}}(p^d) as its v-exponent: prod_j v^(d_j (2(m-j)+3)).

    The Jacobi-group Borel picks up an extra half power of |t| from the
    Heisenberg radical, giving exponent m-j+3/2 at coordinate j; the anchor
    is the evaluation |t|^(-3/2) at j = m.
    """
    d = tuple(d)
    if len(d) != ctx.m:
        raise ValueError("d must have length m")
    return sum(dj * (2 * (ctx.m - j) + 3) for j, dj in enumerate(d, 1))
