"""Reference constructions for the tests, kept outside the library.

Each builds, the slow and literal way, a quantity that the engine computes
another way (through the character basis, or by a reindexed sum), so a test
can compare the two: among them the double Weyl sum term by term in
rational functions (``weyl_sum_direct``).  The Weyl-element matrices and the written-out minor
expansion are here too: only the tests of ``wscalc.padic`` use them; and so
is the support partial order on dominant pairs, which only the tests check.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from wscalc.padic import SympMatrix, minor
from wscalc.ratfun import Poly, RatFun
from wscalc.weyl import character, enumerate_group, is_dominant, straighten_weight
from wscalc.wsformula import require_dominant
from wscalc.zetafactors import b_factor, d_factor, dprime_factor


def so_char(vars_, lam):
    """The SO_{2N+1} character T_N(lam; x_1..x_N), N = len(lam), lam in Z^N,
    as a RatFun: the alternant ratio A(x^(lam+rho)) / A(x^rho), so an
    arbitrary lam is straightened by the dot action (sign and dominant
    weight, or 0 when lam+rho is singular) onto the cached dominant
    character.  A reference for the character basis that the engine works in.
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


def weyl_sum_direct(ctx, d, f):
    """Literal term-by-term evaluation of S(d, f) as rational functions:
    b d d' (w.chi)^-1(p^f) (w'.xi)^-1(p^d), summed over W(C_n) x W(C_m).

    Exponentially slower than ``wsformula.weyl_sum``, and shares no
    character code with it; an independent route for cross-checks at small
    rank.
    """
    d = require_dominant(d, "d")
    f = require_dominant(f, "f")
    V = ctx.vars
    n, m = ctx.n, ctx.m
    b = b_factor(ctx)
    dd = d_factor(ctx)
    dp = dprime_factor(ctx)
    total = RatFun.zero(V)
    for w in enumerate_group(n):
        remap_w = w.embed_remap(V.size, 1)
        torus_x = [0] * V.size
        for i in range(n):
            j = w.image[i] - 1
            torus_x[1 + i] = -w.flips[j] * f[j]
        part_w = (
            b.substitute_exponents(remap_w)
            * dd.substitute_exponents(remap_w)
            * RatFun.monomial(V, tuple(torus_x))
        )
        for w2 in enumerate_group(m) if m else [None]:
            if w2 is None:
                total = total + part_w
                continue
            remap_w2 = w2.embed_remap(V.size, 1 + n)
            torus_y = [0] * V.size
            for j in range(m):
                t = w2.image[j] - 1
                torus_y[1 + n + j] = -w2.flips[t] * d[t]
            term = (
                part_w.substitute_exponents(remap_w2)
                * dp.substitute_exponents(remap_w2)
                * RatFun.monomial(V, tuple(torus_y))
            )
            total = total + term
    return total


# The right-hand side through the 2m Satake monomials v y_j^(+-1): an
# independent reference for the Lambda^r decomposition that
# ``charform._rhs_form`` uses.


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


def gauss_shell_inverse_sum(i, j, q):
    """The Gauss-shell character sum as first written: psi((u^-1 mod p^k) / p^k)
    over the units u mod p^M, one modular inverse per unit, with the measure
    q^-(j+M) taken exactly.  A reference for ``padic.gauss_shell_numeric``,
    which sums psi(u / p^k) instead because inversion permutes the units."""
    k = j - i
    M = max(1, k)
    pM = q ** M
    measure = Fraction(q) ** (-(j + M))
    total = 0j
    for u in range(1, pM):
        if u % q == 0:
            continue
        frac = pow(u, -1, pM) / pM if k > 0 else 0.0
        total += cmath.exp(2j * cmath.pi * frac)
    return total * float(measure)


# Matrix constructions that only the tests use: a monomial representative of
# each Weyl element, and the triple-product minor expansion written out term
# by term against ``padic.minor``.


def weyl_matrix(n, w):
    """A symplectic monomial-matrix representative of a signed permutation.

    Coordinate i (i <= n) is sent to pi(i), or across the antidiagonal to
    2n+1-pi(i) on a sign flip; the mirrored column picks up a -1 so the
    form survives (checked on construction).
    """
    N = 2 * n
    ent = [[0] * N for _ in range(N)]
    for i in range(1, n + 1):
        j = w.image[i - 1]
        if w.flips[j - 1] == 1:
            ent[j - 1][i - 1] = 1
            ent[N - j][N - i] = 1
        else:
            ent[N - j][i - 1] = 1
            ent[j - 1][N - i] = -1
    return SympMatrix(n, ent)


def minor_expansion_check(g1, g2, g3, I, J, guard=3):
    """The triple-product minor expansion:

        Delta_{I,J}(g1 g2 g3) = sum_{A,C} f_{I,A}(g1) Delta_{A,C}(g2) f_{C,J}(g3)

    with f_{I,J}(g) = prod_s g[i_s, j_s] and A, C over all index tuples.
    True for correct arithmetic; the sum has (2n)^(2k) terms, so index
    tuples longer than ``guard`` are refused.
    """
    k = len(I)
    if k != len(J):
        raise ValueError("index tuples must have equal length")
    if k > guard:
        raise ValueError("index size %d exceeds the guard %d" % (k, guard))
    N = 2 * g1.n
    lhs = minor(g1 * g2 * g3, I, J)
    # f_{I,A} and f_{C,J} on the integer rows; their denominators come out
    # once at the end
    r1, r3 = g1.rows, g3.rows
    rhs = Fraction(0)
    all_tuples = list(product(range(1, N + 1), repeat=k))
    for A in all_tuples:
        fia = 1
        for s in range(k):
            fia *= r1[I[s] - 1][A[s] - 1]
        if not fia:
            continue
        for C in all_tuples:
            fcj = 1
            for s in range(k):
                fcj *= r3[C[s] - 1][J[s] - 1]
            if not fcj:
                continue
            rhs += fia * minor(g2, A, C) * fcj
    return lhs == rhs / (g1.den * g3.den) ** k


# The support partial order of the uniqueness argument, on dominant pairs.


@dataclass(frozen=True)
class WSPair:
    """A dominant pair (d, f) indexing a double coset p^d lambda p^f."""

    n: int
    m: int
    d: tuple
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "f", tuple(int(x) for x in self.f))
        if len(self.d) != self.m or len(self.f) != self.n:
            raise ValueError("shape mismatch: need |d| = m, |f| = n")
        if not is_dominant(self.d) or not is_dominant(self.f):
            raise ValueError("d and f must be dominant")


def _psum(vec, l):
    return sum(vec[:l])


def ws_leq(p, q):
    """True iff q dominates p in the support order: q >= p.

    Three families of inequalities on fundamental-weight pairings
    <w_l, f> = f_1 + ... + f_l:

      (1) <w_l, fq> >= <w_l, fp> for 1 <= l <= n-m;
      (2) <w_l, fq> + <w'_{l-(n-m)}, dq> >= same of p, for n-m+1 <= l <= n;
      (3) <w_{n-m+l-1}, fq> + <w'_l, dq> >= same of p, for 1 <= l <= m.
    """
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError("rank mismatch")
    n, m = p.n, p.m
    shift = n - m
    for l in range(1, shift + 1):
        if _psum(q.f, l) < _psum(p.f, l):
            return False
    for l in range(shift + 1, n + 1):
        if _psum(q.f, l) + _psum(q.d, l - shift) < _psum(p.f, l) + _psum(p.d, l - shift):
            return False
    for l in range(1, m + 1):
        if _psum(q.f, shift + l - 1) + _psum(q.d, l) < _psum(p.f, shift + l - 1) + _psum(
            p.d, l
        ):
            return False
    return True
