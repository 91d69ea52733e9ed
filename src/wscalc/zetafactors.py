"""Closed-form local factor products: b, d, d', Gamma, Gindikin-Karpelevich
c_w and c~_w, the rank-one gamma-factors, and modulus characters on torus
cocharacters.

``equivariance`` is the one exact check of how a value transforms under the
simple reflections: value(s.) c_s == gamma_s value, with c_s = c_w(s) (or
c~_w(s)) the rank-one Gindikin-Karpelevich factor.  ``verify gamma`` applies
it to Gamma, and ``verify invariance`` to the unnormalized value Gamma S.

Variable convention throughout: x_i = q^(-chi_i), y_j = q^(-xi_j),
v = q^(-1/2), so each zeta argument (an affine form in chi, xi with
half-integer constant) becomes a Laurent monomial and every factor is an
exact rational function.
"""

from functools import lru_cache

from .ratfun import LinearForm, Poly, RatFun, Vars, zeta_of, zeta_inv_of
from .weyl import SignedPerm, positive_roots

__all__ = [
    "Context",
    "SimpleRoot",
    "simple_roots_G",
    "simple_roots_M",
    "d_factor",
    "dprime_factor",
    "b_factor",
    "require_b_expandable",
    "gamma_big",
    "c_w",
    "c_tilde_w",
    "gamma_alpha",
    "gamma_beta",
    "reflection_factors",
    "equivariance",
    "delta_half_G",
    "delta_half_MJ",
]


class Context:
    """Ranks of the two symplectic groups, G = Sp_2n and M = Sp_2m; n >= m+1.
    Immutable, and compared and hashed by (n, m): it keys the factor caches."""

    __slots__ = ("n", "m")

    def __init__(self, n, m):
        if m < 0:
            raise ValueError("m must be nonnegative")
        if n < m + 1:
            raise ValueError("rank constraint violated: need n >= m+1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *args):
        raise AttributeError("Context is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, Context) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return "Context(n=%r, m=%r)" % (self.n, self.m)

    @property
    def vars(self):
        return Vars(self.n, self.m)

    def chi(self, i):
        return LinearForm.chi_term(self.vars, i)

    def xi(self, j):
        return LinearForm.xi_term(self.vars, j)

    def half(self, k=1):
        """The constant linear form k/2."""
        return LinearForm(self.vars, halves=k)


class SimpleRoot:
    """A simple root of the type-C system of G or M.

    kind "short" with index i stands for e_i - e_{i+1} (1 <= i <= rank-1);
    kind "long" stands for 2e_rank.
    """

    __slots__ = ("group", "kind", "index")

    def __init__(self, group, kind, index):
        if group not in ("G", "M"):
            raise ValueError("group must be G or M")
        if kind not in ("short", "long"):
            raise ValueError("kind must be short or long")
        for name, value in zip(self.__slots__, (group, kind, index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("SimpleRoot is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return self.group, self.kind, self.index

    def __eq__(self, other):
        return isinstance(other, SimpleRoot) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SimpleRoot(group=%r, kind=%r, index=%r)" % self._key()

    @property
    def label(self):
        """"e<i>-e<i+1>" for a short root, "2e<rank>" for the long one."""
        if self.kind == "short":
            return "e%d-e%d" % (self.index, self.index + 1)
        return "2e%d" % self.index

    def rank_of(self, ctx):
        return ctx.n if self.group == "G" else ctx.m

    def reflection(self, ctx):
        """The simple reflection as a SignedPerm of W(C_rank)."""
        k = self.rank_of(ctx)
        if self.kind == "short":
            image = list(range(1, k + 1))
            image[self.index - 1], image[self.index] = (
                image[self.index],
                image[self.index - 1],
            )
            return SignedPerm(image, (1,) * k)
        flips = [1] * k
        flips[k - 1] = -1
        return SignedPerm(tuple(range(1, k + 1)), tuple(flips))


def simple_roots_G(ctx):
    roots = [SimpleRoot("G", "short", i) for i in range(1, ctx.n)]
    roots.append(SimpleRoot("G", "long", ctx.n))
    return roots


def simple_roots_M(ctx):
    roots = [SimpleRoot("M", "short", i) for i in range(1, ctx.m)]
    if ctx.m >= 1:
        roots.append(SimpleRoot("M", "long", ctx.m))
    return roots


def _prod(vars_, factors):
    out = RatFun.one(vars_)
    for f in factors:
        out = out * f
    return out


@lru_cache(maxsize=None)
def d_factor(ctx):
    """d(chi) = prod over the positive roots of C_n of zeta(<chi, alpha-check>):
    zeta(chi_a - chi_b) zeta(chi_a + chi_b) for a < b, and zeta(chi_i)."""
    roots = positive_roots(ctx.n, "sp")
    return _prod(ctx.vars, [zeta_of(_coroot_pairing_chi(ctx, r)) for r in roots])


@lru_cache(maxsize=None)
def dprime_factor(ctx):
    """d'(xi) = prod over the positive roots of C_m of zeta(<xi, alpha>):
    zeta(xi_a - xi_b) zeta(xi_a + xi_b) for a < b, and zeta(2 xi_j)."""
    roots = positive_roots(ctx.m, "sp")
    return _prod(ctx.vars, [zeta_of(_root_pairing_xi(ctx, r)) for r in roots])


def b_linear_forms(ctx):
    """The zeta arguments of b(chi, xi), one per inverse-zeta factor.

    The diagonal i = j + n - m belongs to neither one-sided product.
    """
    forms = []
    half = ctx.half()
    shift = ctx.n - ctx.m
    for j in range(1, ctx.m + 1):
        for i in range(1, ctx.n + 1):
            if i < j + shift:
                forms.append(ctx.chi(i) - ctx.xi(j) + half)
            elif i > j + shift:
                forms.append(-1 * ctx.chi(i) + ctx.xi(j) + half)
    for j in range(1, ctx.m + 1):
        forms.append(ctx.xi(j) + half)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.m + 1):
            forms.append(ctx.chi(i) + ctx.xi(j) + half)
    return forms


@lru_cache(maxsize=None)
def b_factor(ctx):
    """The polynomial factor b(chi, xi): a product of inverse zeta factors."""
    return _prod(ctx.vars, [zeta_inv_of(s) for s in b_linear_forms(ctx)])


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
    V = ctx.vars
    one = LinearForm.const(V, 1)
    half = ctx.half()
    out = RatFun.one(V)
    for root in positive_roots(ctx.n, "sp"):
        out = out * zeta_inv_of(_coroot_pairing_chi(ctx, root) + one)
    for root in positive_roots(ctx.m, "sp"):
        if 2 not in root:  # a short root; the factor 1 + v*y_j below stands for 2e_j
            out = out * zeta_inv_of(_root_pairing_xi(ctx, root) + one)
    for j in range(1, ctx.m + 1):
        # 1 + xi_j(p)|p|^(1/2) = 1 + v*y_j
        p = Poly.constant(V, 1) + Poly.monomial(V, (ctx.xi(j) + half).monomial())
        out = out * RatFun.from_poly(p)
    for j in range(1, ctx.m + 1):
        for i in range(1, (ctx.n - ctx.m) + j):
            out = out * zeta_of(ctx.chi(i) - ctx.xi(j) + half)
            out = out / zeta_of(-1 * ctx.chi(i) + ctx.xi(j) + half)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.m + 1):
            out = out * zeta_of(ctx.chi(i) + ctx.xi(j) + half)
            out = out * zeta_of(-1 * ctx.chi(i) + ctx.xi(j) + half)
    return out


# -- Gindikin-Karpelevich factors ------------------------------------------


def _is_negative_root(vec):
    for a in vec:
        if a:
            return a < 0
    return False


def _weight_action(w, vec):
    """The action of w on weight/root vectors: w.e_i = flips[image(i)] e_{image(i)}."""
    out = [0] * len(vec)
    for i, c in enumerate(vec):
        if c:
            j = w.image[i] - 1
            out[j] += w.flips[j] * c
    return tuple(out)


def inversion_set(w):
    """Positive roots sent to negative roots by w."""
    return [r for r in positive_roots(w.k, "sp") if _is_negative_root(_weight_action(w, r))]


def _coroot_pairing_chi(ctx, root):
    """<chi, alpha-check> for a root of G: e_a-e_b -> chi_a-chi_b,
    e_a+e_b -> chi_a+chi_b, 2e_i -> chi_i."""
    terms = [(i + 1, c) for i, c in enumerate(root) if c]
    if len(terms) == 1:
        (i, c), = terms
        assert abs(c) == 2
        return ctx.chi(i) * (c // 2)
    (a, ca), (b, cb) = terms
    return ctx.chi(a) * ca + ctx.chi(b) * cb


def _root_pairing_xi(ctx, root):
    """<xi, alpha> for a root of M: the plain pairing, so 2e_j -> 2 xi_j."""
    return sum(
        (ctx.xi(i + 1) * c for i, c in enumerate(root) if c),
        LinearForm(ctx.vars),
    )


def c_w(ctx, w):
    """c_w(chi) = prod over the inversion set of zeta(<chi,a^>)/zeta(<chi,a^>+1)."""
    if w.k != ctx.n:
        raise ValueError("w must lie in W(C_n)")
    out = RatFun.one(ctx.vars)
    one = LinearForm.const(ctx.vars, 1)
    for root in inversion_set(w):
        s = _coroot_pairing_chi(ctx, root)
        out = out * zeta_of(s) / zeta_of(s + one)
    return out


def c_tilde_w(ctx, w):
    """c~_w(xi): same shape as c_w but paired against the root, not the coroot."""
    if w.k != ctx.m:
        raise ValueError("w must lie in W(C_m)")
    out = RatFun.one(ctx.vars)
    one = LinearForm.const(ctx.vars, 1)
    for root in inversion_set(w):
        s = _root_pairing_xi(ctx, root)
        out = out * zeta_of(s) / zeta_of(s + one)
    return out


def gamma_alpha(ctx, root):
    """The gamma-factor of (w_alpha, 1), alpha a simple root of G.

    Case split on where alpha sits relative to the GL part: pure chi ratio
    for i <= n-m-1, a mixed chi/xi correction for n-m <= i <= n-1 (with
    i' = i - (n-m)), and the chi_n reflection for the long root.
    """
    if root.group != "G":
        raise ValueError("expected a simple root of G")
    V = ctx.vars
    one = LinearForm.const(V, 1)
    half = ctx.half()
    out = c_w(ctx, root.reflection(ctx))
    if root.kind == "long":
        return out * zeta_of(ctx.chi(ctx.n) + one) / zeta_of(-1 * ctx.chi(ctx.n) + one)
    i = root.index
    out = (
        out
        * zeta_of(ctx.chi(i) - ctx.chi(i + 1) + one)
        / zeta_of(ctx.chi(i + 1) - ctx.chi(i) + one)
    )
    if i <= ctx.n - ctx.m - 1:
        return out
    ip = i - (ctx.n - ctx.m)
    xi = ctx.xi(ip + 1)
    out = (
        out
        * zeta_of(ctx.chi(i + 1) - xi + half)
        * zeta_of(-1 * ctx.chi(i) + xi + half)
        / zeta_of(ctx.chi(i) - xi + half)
        / zeta_of(-1 * ctx.chi(i + 1) + xi + half)
    )
    return out


def gamma_beta(ctx, root):
    """The gamma-factor of (1, w_beta), beta a simple root of M.

    Uses the shifted characters chi~_i = chi_{n-m+i}.
    """
    if root.group != "M":
        raise ValueError("expected a simple root of M")
    V = ctx.vars
    one = LinearForm.const(V, 1)
    half = ctx.half()
    shift = ctx.n - ctx.m

    def chit(i):
        return ctx.chi(shift + i)

    out = c_tilde_w(ctx, root.reflection(ctx))
    if root.kind == "short":
        i = root.index
        out = (
            out
            * zeta_of(ctx.xi(i) - ctx.xi(i + 1) + one)
            * zeta_of(-1 * chit(i) + ctx.xi(i + 1) + half)
            * zeta_of(chit(i) - ctx.xi(i) + half)
            / zeta_of(-1 * ctx.xi(i) + ctx.xi(i + 1) + one)
            / zeta_of(chit(i) - ctx.xi(i + 1) + half)
            / zeta_of(-1 * chit(i) + ctx.xi(i) + half)
        )
        return out
    mm = ctx.m
    out = (
        out
        * zeta_of(-1 * ctx.xi(mm) - chit(mm) + half)
        * zeta_of(-1 * ctx.xi(mm) + chit(mm) + half)
        * zeta_of(ctx.xi(mm) * 2 + one)
        * zeta_of(-1 * ctx.xi(mm) + half)
        / zeta_of(ctx.xi(mm) - chit(mm) + half)
        / zeta_of(ctx.xi(mm) + chit(mm) + half)
        / zeta_of(ctx.xi(mm) * -2 + one)
        / zeta_of(ctx.xi(mm) + half)
    )
    return out


# -- equivariance under the simple reflections -------------------------------


@lru_cache(maxsize=None)
def reflection_factors(ctx):
    """Each simple reflection s of W_G, then of W_M, as (root, remap, c_s,
    gamma_s): remap is s acting on exponent tuples, c_s is c_w(s) for G and
    c~_w(s) for M, and gamma_s is the gamma-factor of s."""
    size = ctx.vars.size
    out = []
    for root in simple_roots_G(ctx):
        s = root.reflection(ctx)
        out.append((root, s.embed_remap(size, 1), c_w(ctx, s), gamma_alpha(ctx, root)))
    for root in simple_roots_M(ctx):
        s = root.reflection(ctx)
        out.append((root, s.embed_remap(size, 1 + ctx.n), c_tilde_w(ctx, s), gamma_beta(ctx, root)))
    return tuple(out)


def equivariance(ctx, value):
    """[(root, ok)] per simple reflection s: ok when value(s.) c_s equals
    gamma_s value exactly.  Gamma and the unnormalized pairing value
    Gamma S transform this way (Casselman, Compositio Math. 40, 1980)."""
    return [
        (root, value.substitute_exponents(remap) * c == gamma * value)
        for root, remap, c, gamma in reflection_factors(ctx)
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
