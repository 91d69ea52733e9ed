"""The local L-function series identity, in the character basis.

chi^B_lam is the SO_{2N+1}(C) character at diag(x_1..x_N, 1, x_N^-1..x_1^-1)
and chi^C_mu the Sp(2m) character, both of dominant highest weight and both
from ``weyl.character``.

For n = m+1 the torus-integral identity

    sum_l W0(p^(l,0,..,0)) |p|^(l(s-m-1))
        = L(pi, s) / (L_psi(sigma~, s+1/2) zeta(2s))

is decided coefficient by coefficient in the formal variable T = |p|^s, in
the character basis chi^B_lam chi^C_mu, where both sides are short integer
combinations.  The coefficient of T^l on the right is

    sum_{r <= min(l, 2m)} (-1)^r v^r chi^B_(l-r,0,..) chi^C(Lambda^r),

the v^r chi^C(Lambda^r) being the r-th elementary symmetric function of the
2m Satake monomials v y_j^(+-1).  The exterior power of the standard
representation of Sp(2m) decomposes as Lambda^r = sum of V(1^s) over
s = r (mod 2), s <= min(r, 2m-r) (Fulton-Harris, Representation Theory,
section 17.2).  On the left, C(v) times the coefficient of T^l is the
character form of the Weyl sum at d = 0, f = (l, 0, .., 0): delta^(1/2)(p^f)
= v^(2l(m+1)) cancels the series' normalization v^(-2l(m+1)).  No character
is expanded and no rational function is compared; ``verify constant`` makes
the comparison at l = 0.  ``series`` prints and evaluates both sides as
``LValue``s.
"""

from . import wsformula
from .wsformula import LValue, ws_torus
from .zetafactors import delta_half_G

__all__ = [
    "coefficient_agrees",
    "lhs_series",
    "rhs_series",
    "shintani_verify",
]


def _require_series(ctx, K):
    if ctx.n != ctx.m + 1:
        raise ValueError("the series identity needs n = m+1")
    if K < 0:
        raise ValueError("truncation must be nonnegative")


def _rhs_form(ctx, l):
    """The coefficient of T^l of the right-hand side in the character basis,
    in the format of ``wsformula._character_form``:
    sum over r <= min(l, 2m) and s = r (mod 2), s <= min(r, 2m-r), of
    (-1)^r v^r chi^B_(l-r,0,..,0) chi^C_(1^s,0,..), lam of length n."""
    m = ctx.m
    form = []
    for r in range(min(l, 2 * m) + 1):
        lam = (l - r,) + (0,) * (ctx.n - 1)
        for s in range(r % 2, min(r, 2 * m - r) + 1, 2):
            form.append(((lam, (1,) * s + (0,) * (m - s)), ((r, (-1) ** r),)))
    return tuple(sorted(form))


def lhs_series(ctx, K):
    """The ``LValue`` coefficients of sum_l W0(p^(l,0,...)) |p|^(l(s-m-1))
    up to T^K.

    Requires n = m+1.  The coefficient of T^l is ws_torus at (l,0,...,0)
    with its shift lowered by 2l(m+1): the |t|^(-m-1) normalization exactly
    undoes the modulus character delta^(1/2)(diag(t, I, t^-1)) = |t|^(m+1)
    carried by the Whittaker-Shintani value, and both factors are kept
    explicit.
    """
    _require_series(ctx, K)
    out = []
    for l in range(K + 1):
        L = ws_torus(ctx, (l,) + (0,) * (ctx.n - 1))
        out.append(LValue(ctx, L.shift - 2 * l * (ctx.m + 1), L.den, L.form))
    return out


def rhs_series(ctx, K):
    """The coefficients of L(pi, s) / (L_psi(sigma~, s+1/2) zeta(2s)) up to
    T^K, as ``LValue``s: each is its character form over den 1."""
    _require_series(ctx, K)
    return [LValue(ctx, 0, (1,), _rhs_form(ctx, l)) for l in range(K + 1)]


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


def _times_v(vpoly, poly):
    """The polynomial in v, ((k, c), ...), times poly, a coefficient list with
    the constant term first."""
    acc = {}
    for k, c in vpoly:
        for i, ci in enumerate(poly):
            acc[k + i] = acc.get(k + i, 0) + c * ci
    return tuple((k, c) for k, c in sorted(acc.items()) if c)


def coefficient_agrees(ctx, l):
    """Compare the coefficient of T^l on both sides of the series identity,
    exactly, in the character basis: C(v) times the coefficient on the left
    is the character form at d = 0, f = (l, 0, .., 0), shifted by
    delta^(1/2)(p^f) v^(-2l(m+1)) = 1, and on the right it is C(v) times
    ``_rhs_form``.  The products chi^B_lam chi^C_mu of dominant weights are
    linearly independent, so the sides agree exactly when the dicts do.  At
    l = 0 the right side is C(v) at every rank: ``verify constant``."""
    zero = (0,) * ctx.m
    f = (l,) + (0,) * (ctx.n - 1)
    shift = delta_half_G(ctx, f) - 2 * l * (ctx.m + 1)
    lhs = {key: tuple((k + shift, c) for k, c in vpoly)
           for key, vpoly in wsformula._character_form(ctx, zero, f)}
    const = wsformula._constant_v(ctx)
    rhs = {key: _times_v(vpoly, const) for key, vpoly in _rhs_form(ctx, l)}
    return lhs == rhs


def shintani_verify(ctx, K):
    """Compare both sides of the series identity coefficientwise for
    l = 0..K, exactly, in the character basis (``coefficient_agrees``).

    A failing coefficient is a reported result, not an exception.
    """
    _require_series(ctx, K)
    return ShintaniReport(ctx, K, [(l, coefficient_agrees(ctx, l)) for l in range(K + 1)])
