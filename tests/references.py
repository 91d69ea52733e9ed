"""Reference constructions for the tests, kept outside the library.

Each builds, the slow and literal way, a quantity that the engine computes
another way (through the character basis, or by a reindexed sum), so a test
can compare the two: among them the double Weyl sum term by term in
rational functions (``weyl_sum_direct``) and the alternant of W(C_k)
(``alternating_monomial_sum``), which the library's characters never form,
with its sign character ``sgn``.  ``ws_torus``, W0(p^f) = L(0, f), is here
because only the tests read L at d = 0 by that name.  The Weyl-element matrices, the written-out minor expansion and long
division by a cyclotomic polynomial are here too: only the tests of
``wscalc.padic`` use them; and so is the support
partial order on dominant pairs, which only the tests check.  So is the
reduction of L(d, f) that divides by the gcd even when it is 1
(``L_value_always_divided``), ``mutant``, which builds the
deliberately broken copies of a module that the mutation tests feed to the
verifiers, and ``clear_engine_caches``, which the tests that patch a piece
of the engine in place run before and after.
"""

import cmath
import inspect
import types
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

from wscalc import weyl, wsformula
from wscalc.padic import SympMatrix, minor
from wscalc.ratfun import (
    ContextMismatchError,
    Poly,
    RatFun,
    _cancel_multisets,
    _factors,
    canonical_factor,
)
from wscalc.weyl import character, enumerate_group, is_dominant, straighten_weight
from wscalc.wsformula import require_dominant
from wscalc.zetafactors import (
    b_factor,
    d_factor,
    delta_half_G,
    delta_half_MJ,
    dprime_factor,
)


def sgn(w):
    """The sign character of W(C_k) at the signed permutation w: the parity
    of its permutation times (-1)^#flips, its determinant."""
    sign = 1
    seen = [False] * w.k
    for i in range(w.k):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = w.image[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    for f in w.flips:
        if f == -1:
            sign = -sign
    return sign


def alternating_monomial_sum(vars_, mu, offset, k):
    """The alternant sum_w sgn(w) X^(w*mu) as a Poly, acting on slots
    offset..offset+k-1 of the exponent lattice; other slots of ``mu`` pass
    through unchanged.  Non-regular patterns collapse to 0.
    """
    acc = {}
    for w in enumerate_group(k):
        e = w.embed_remap(vars_.size, offset)(tuple(mu))
        s = acc.get(e, 0) + sgn(w)
        if s:
            acc[e] = s
        else:
            del acc[e]
    return Poly(vars_, acc, prune=False)


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


def add(a, b):
    """a + b for RatFuns: each numerator times the denominator factors that
    only the other one has, expanded and summed over the shared
    denominator.  ``wscalc.ratfun.RatFun`` has no addition; the references
    and the tests of rational functions add with this one."""
    if a.vars != b.vars:
        raise ContextMismatchError("operands live over different variable contexts")
    if a.is_zero() or b.is_zero():
        return b if a.is_zero() else a
    b_only, a_only = list(b.dfac), []
    for key in a.dfac:
        if key in b_only:
            b_only.remove(key)
        else:
            a_only.append(key)
    num = a.numerator_poly() * _key_product(a.vars, b_only)
    num = num + b.numerator_poly() * _key_product(a.vars, a_only)
    if num.is_zero():
        return RatFun.zero(a.vars)
    coeff, mono, key = canonical_factor(num)
    nfac, dfac = _cancel_multisets(_factors(key), a.dfac + tuple(b_only))
    return RatFun(a.vars, coeff, mono, nfac, dfac)


def sub(a, b):
    """a - b for RatFuns (``add``)."""
    return add(a, b * -1)


def _key_product(vars_, keys):
    return prod((Poly(vars_, dict(key), prune=False) for key in keys),
                start=Poly.constant(vars_, 1))


def weyl_sum_direct(ctx, d, f):
    """Literal term-by-term evaluation of S(d, f) as rational functions:
    b d d' (w.chi)^-1(p^f) (w'.xi)^-1(p^d), summed over W(C_n) x W(C_m).

    Exponentially slower than ``wsformula.weyl_sum``, and shares no
    character code with it; an independent route for cross-checks at small
    rank.
    """
    d = require_dominant(d, "d")
    f = require_dominant(f, "f")
    n, m = ctx.n, ctx.m
    b = b_factor(ctx)
    dd = d_factor(ctx)
    dp = dprime_factor(ctx)
    total = RatFun.zero(ctx)
    for w in enumerate_group(n):
        remap_w = w.embed_remap(ctx.size, 1)
        torus_x = [0] * ctx.size
        for i in range(n):
            j = w.image[i] - 1
            torus_x[1 + i] = -w.flips[j] * f[j]
        part_w = (
            b.substitute_exponents(remap_w)
            * dd.substitute_exponents(remap_w)
            * RatFun.monomial(ctx, tuple(torus_x))
        )
        for w2 in enumerate_group(m) if m else [None]:
            if w2 is None:
                total = add(total, part_w)
                continue
            remap_w2 = w2.embed_remap(ctx.size, 1 + n)
            torus_y = [0] * ctx.size
            for j in range(m):
                t = w2.image[j] - 1
                torus_y[1 + n + j] = -w2.flips[t] * d[t]
            term = (
                part_w.substitute_exponents(remap_w2)
                * dp.substitute_exponents(remap_w2)
                * RatFun.monomial(ctx, tuple(torus_y))
            )
            total = add(total, term)
    return total


def ws_torus(ctx, f):
    """The normalized Whittaker-Shintani function at p^f: W0(p^f) = L(0, f)."""
    return wsformula.L_value(ctx, (0,) * ctx.m, f)


def L_value_always_divided(ctx, d, f):
    """(shift, den, form) of L(d, f), with C(v) and every coefficient
    polynomial of the character form divided by their common gcd in Z[v]
    even when the gcd is 1: the reduction that ``wsformula.L_value`` makes
    only where the gcd is not 1."""
    coeffs = {
        key: wsformula._v_list(dict(vpoly))
        for key, vpoly in wsformula._character_form(ctx, d, f)
    }
    den = wsformula._constant_v(ctx)
    g = den
    for p in coeffs.values():
        if len(g) == 1:
            break
        g = wsformula._v_gcd(g, p)
    form = tuple(
        (key, tuple((k, c) for k, c in enumerate(wsformula._v_exact_quotient(p, g)) if c))
        for key, p in coeffs.items()
    )
    shift = delta_half_G(ctx, f) + delta_half_MJ(ctx, d)
    return shift, tuple(wsformula._v_exact_quotient(den, g)), form


# The right-hand side through the 2m Satake monomials v y_j^(+-1): an
# independent reference for the Lambda^r decomposition that
# ``charform._rhs_form`` uses.


def satake_multiset(ctx):
    """The multiset q^(-gamma) for gamma in {xi_j + 1/2, -xi_j + 1/2}:
    the 2m monomials v*y_j and v*y_j^-1, as exponent tuples."""
    out = []
    for j in range(1, ctx.m + 1):
        for sign in (1, -1):
            e = [0] * ctx.size
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


def cyclotomic_remainder(coeffs, p, k):
    """The remainder of sum_u coeffs[u] X^u on division by the cyclotomic
    polynomial Phi_{p^k}(X) = sum_{t<p} X^(t p^(k-1)), by schoolbook long
    division: while the degree is at least phi(p^k), subtract the leading
    coefficient times X^(degree - phi) Phi.  A reference for
    ``padic._reduce_mod_cyclotomic``; returns the phi(p^k) coefficients of
    1, X, .., X^(phi - 1)."""
    b = p ** (k - 1)
    phi = (p - 1) * b
    divisor = [1 if e % b == 0 else 0 for e in range(phi + 1)]
    rem = list(coeffs)
    for top in range(len(rem) - 1, phi - 1, -1):
        lead = rem[top]
        if lead:
            shift = top - phi
            for e, d in enumerate(divisor):
                rem[shift + e] -= lead * d
    return rem[:phi]


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


def mutant(module, old, new):
    """A copy of ``module`` whose source has the text ``old``, which must
    occur exactly once, replaced by ``new``.  Its caches are its own."""
    source = inspect.getsource(module)
    assert source.count(old) == 1
    copy = types.ModuleType(module.__name__ + "_mutant")
    copy.__package__ = module.__package__
    exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    return copy


def clear_engine_caches():
    """Empty every ``lru_cache`` of ``wscalc.weyl`` and ``wscalc.wsformula``:
    b grouped and straightened, the character forms, their evaluation
    plans and the characters.  A test that patches a piece of the engine
    in place runs it before and after, so that it neither reads a form
    built without its patch nor leaves one built with it."""
    for module in (weyl, wsformula):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
