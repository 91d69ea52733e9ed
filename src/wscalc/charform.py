"""Odd orthogonal Weyl characters and the local L-function series identity.

T_N(lam; x) is the SO_{2N+1}(C) character value at
diag(x_1..x_N, 1, x_N^-1..x_1^-1), extended to arbitrary integer lam through
the alternant ratio

    T_N(lam; x) = A(x^(lam+rho)) / A(x^rho),   rho = (N-1/2, ..., 1/2),

computed with doubled exponents so the half-integers stay on the integer
lattice.  A(x^rho) is the product of the binomials x^(alpha/2) - x^(-alpha/2)
over the positive roots, and ``weyl.character`` divides by them one at a
time, each division exact and checked.  An arbitrary lam is first
straightened into the dominant chamber (``weyl.straighten_weight``), so
only dominant characters are ever computed, once each.  The series machinery expands
both sides of the torus-integral identity

    sum_l W0(p^(l,0,..,0)) |p|^(l(s-m-1))
        = L(pi, s) / (L_psi(sigma~, s+1/2) zeta(2s))

in the formal variable T = |p|^s and compares coefficients exactly.
"""

from itertools import combinations

from .ratfun import Poly, RatFun
from .weyl import character, straighten_weight
from .wsformula import ws_torus

__all__ = [
    "so_char",
    "satake_multiset",
    "elementary_sym",
    "lhs_series",
    "rhs_series",
    "shintani_verify",
]


def so_char(vars_, lam):
    """The SO_{2N+1} character T_N(lam; x_1..x_N), N = len(lam), lam in Z^N.

    For dominant lam this is the trace of the irreducible representation
    with highest weight lam; an arbitrary integer lam is first straightened
    by the dot action (sign and dominant weight, or 0 when lam+rho is
    non-regular) and the cached dominant character is reused.
    """
    lam = tuple(int(a) for a in lam)
    N = len(lam)
    if N > vars_.n:
        raise ValueError("not enough x variables for rank %d" % N)
    st = straighten_weight(lam, "so")
    if st is None:
        return RatFun.zero(vars_)
    sign, dom = st
    pad = (0,) * (vars_.size - 1 - N)
    terms = {(0,) + e + pad: sign * c for e, c in character(dom, "so")}
    return RatFun.from_poly(Poly(vars_, terms, prune=False))


def satake_multiset(ctx):
    """The multiset q^(-gamma) for gamma in {xi_j + 1/2, -xi_j + 1/2}:
    the 2m monomials v*y_j and v*y_j^-1, as exponent tuples."""
    V = ctx.vars
    out = []
    for j in range(1, ctx.m + 1):
        for sign in (1, -1):
            e = [0] * V.size
            e[0] = 1
            e[ctx.n + j] = sign
            out.append(tuple(e))
    return out


def elementary_sym(vars_, monomials, r):
    """The r-th elementary symmetric polynomial of a multiset of monomials."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return RatFun.one(vars_)
    if r > len(monomials):
        return RatFun.zero(vars_)
    acc = {}
    for subset in combinations(monomials, r):
        e = tuple(sum(col) for col in zip(*subset))
        acc[e] = acc.get(e, 0) + 1
    return RatFun.from_poly(Poly(vars_, acc))


def lhs_series(ctx, K):
    """The list of coefficients of sum_l W0(p^(l,0,...,0)) |p|^(l(s-m-1))
    up to T^K.

    Requires n = m+1.  The coefficient of T^l is ws_torus at (l,0,...,0)
    times v^(-2l(m+1)): the |t|^(-m-1) normalization exactly undoes the
    modulus character delta^(1/2)(diag(t, I, t^-1)) = |t|^(m+1) carried by
    the Whittaker-Shintani value, and both factors are kept explicit.
    """
    if ctx.n != ctx.m + 1:
        raise ValueError("the series identity needs n = m+1")
    if K < 0:
        raise ValueError("truncation must be nonnegative")
    V = ctx.vars
    out = []
    for l in range(K + 1):
        f = (l,) + (0,) * (ctx.n - 1)
        comp = RatFun.monomial(V, V.v_exp(-2 * l * (ctx.m + 1)))
        out.append(ws_torus(ctx, f) * comp)
    return out


def rhs_series(ctx, K):
    """The list of coefficients of
    (sum_a T_{m+1}((a,0,..); z_pi) T^a) * prod(1 - q^-g T) up to T^K, with
    the product over the 2m Satake monomials q^-g."""
    if ctx.n != ctx.m + 1:
        raise ValueError("the series identity needs n = m+1")
    if K < 0:
        raise ValueError("truncation must be nonnegative")
    V = ctx.vars
    gammas = satake_multiset(ctx)
    out = []
    for k in range(K + 1):
        acc = RatFun.zero(V)
        for r in range(0, min(k, 2 * ctx.m) + 1):
            sign = -1 if r % 2 else 1
            lam = (k - r,) + (0,) * ctx.m
            term = elementary_sym(V, gammas, r) * so_char(V, lam) * sign
            acc = acc + term
        out.append(acc)
    return out


class ShintaniReport:
    """Per-coefficient outcome of the series identity check."""

    def __init__(self, ctx, K, results):
        self.ctx = ctx
        self.K = K
        self.results = results  # list of (l, equal)

    @property
    def ok(self):
        return all(eq for _, eq in self.results)

    def as_dict(self):
        return {
            "n": self.ctx.n,
            "m": self.ctx.m,
            "K": self.K,
            "coefficients": [{"l": l, "pass": eq} for l, eq in self.results],
            "pass": self.ok,
        }


def shintani_verify(ctx, K):
    """Compare lhs_series and rhs_series coefficientwise, exactly.

    A failing coefficient is a reported result, not an exception.
    """
    lhs = lhs_series(ctx, K)
    rhs = rhs_series(ctx, K)
    results = [(l, lhs[l] == rhs[l]) for l in range(K + 1)]
    return ShintaniReport(ctx, K, results)
