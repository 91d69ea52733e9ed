"""The local L-function series identity, in the character basis.

chi^B_lam is the SO_{2N+1}(C) character at diag(x_1..x_N, 1, x_N^-1..x_1^-1)
and chi^C_mu the Sp(2m) character, both of dominant highest weight and both
built by ``weyl.character`` from the multiplicities of their dominant
weights (Freudenthal's formula).

For n >= m+1 the torus-integral identity

    sum_l W0(p^(l,0,..,0)) |p|^(l(s-n))
        = L(pi, s) / (L_psi(sigma~, s+1/2) zeta(2s))

is decided coefficient by coefficient in the formal variable T = |p|^s, in
the character basis chi^B_lam chi^C_mu, where both sides are short integer
combinations.  The paper proves it for n = m+1; at n > m+1 it is an
observation of this package, checked the same way.  The coefficient of T^l
on the right is

    sum_{r <= min(l, 2m)} (-1)^r v^r chi^B_(l-r,0,..) chi^C(Lambda^r),

the v^r chi^C(Lambda^r) being the r-th elementary symmetric function of the
2m Satake monomials v y_j^(+-1).  The exterior power of the standard
representation of Sp(2m) decomposes as Lambda^r = sum of V(1^s) over
s = r (mod 2), s <= min(r, 2m-r) (Fulton-Harris, Representation Theory,
section 17.2).  On the left, C(v) times the coefficient of T^l is the
character form of the Weyl sum at d = 0, f = (l, 0, .., 0): delta^(1/2)(p^f)
= v^(2ln) cancels the series' normalization v^(-2ln).  The identity is
decided on the character form of C(v) (left - right) at each T^l
(``coefficient_difference``), which is empty exactly when the coefficient
agrees; no character is expanded and no rational function is added.
``verify constant`` makes the comparison at l = 0.  ``series`` prints both
sides as ``LValue``s, and the difference over C(v).
"""

from . import wsformula
from .wsformula import LValue
from .zetafactors import delta_half_G

__all__ = [
    "coefficient_difference",
    "difference_text",
    "lhs_series",
    "rhs_series",
    "shintani_verify",
]


def _require_series(K):
    if K < 0:
        raise ValueError("truncation must be nonnegative")


def _lhs_form(ctx, l):
    """(shift, form): C(v) times the coefficient of T^l on the left is v^shift
    times the character form at d = 0, f = (l, 0, .., 0).  The shift is
    delta^(1/2)(p^f) = v^(2ln), carried by the Whittaker-Shintani value,
    against the series' normalization |p|^(-ln) = v^(-2ln)."""
    f = (l,) + (0,) * (ctx.n - 1)
    shift = delta_half_G(ctx, f) - 2 * l * ctx.n
    return shift, wsformula._character_form(ctx, (0,) * ctx.m, f)


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
    """The ``LValue`` coefficients of sum_l W0(p^(l,0,...)) |p|^(l(s-n)) up
    to T^K: each is ``_lhs_form`` over C(v), reduced as ``L_value`` is."""
    _require_series(K)
    return [wsformula._over_constant(ctx, *_lhs_form(ctx, l)) for l in range(K + 1)]


def rhs_series(ctx, K):
    """The coefficients of L(pi, s) / (L_psi(sigma~, s+1/2) zeta(2s)) up to
    T^K, as ``LValue``s: each is its character form over den 1."""
    _require_series(K)
    return [LValue(ctx, 0, (1,), _rhs_form(ctx, l)) for l in range(K + 1)]


def coefficient_difference(ctx, l):
    """The character form of C(v) times (left - right) at T^l, exactly: on
    the left ``_lhs_form``, on the right C(v) times ``_rhs_form``.  The
    products chi^B_lam chi^C_mu of dominant weights are linearly
    independent, so it is empty exactly when the coefficient agrees.  At
    l = 0 the right side is C(v) at every rank: ``verify constant``."""
    shift, form = _lhs_form(ctx, l)
    acc = {}
    for key, vpoly in form:
        poly = acc.setdefault(key, {})
        for k, c in vpoly:
            poly[k + shift] = poly.get(k + shift, 0) + c
    const = wsformula._constant_v(ctx)
    for key, vpoly in _rhs_form(ctx, l):
        poly = acc.setdefault(key, {})
        for k, c in vpoly:
            for i, ci in enumerate(const):
                poly[k + i] = poly.get(k + i, 0) - c * ci
    return wsformula._normal_form(acc)


def difference_text(ctx, diff):
    """A ``coefficient_difference`` as ``series`` prints it: over C(v),
    reduced as ``L_value`` is, and expanded; "0" when it is empty."""
    return wsformula._over_constant(ctx, 0, diff).ratfun().text()


class ShintaniReport:
    """The series identity for l = 0..K: ``diffs[l]`` is the
    ``coefficient_difference`` at T^l, empty exactly where it agrees."""

    def __init__(self, ctx, K, diffs):
        self.ctx = ctx
        self.K = K
        self.diffs = diffs

    @property
    def ok(self):
        return not any(self.diffs)

    def as_dict(self):
        """A failing coefficient carries its witness, the ``series`` diff."""
        coefficients = [{"l": l, "pass": not diff} for l, diff in enumerate(self.diffs)]
        for entry, diff in zip(coefficients, self.diffs):
            if diff:
                entry["diff"] = difference_text(self.ctx, diff)
        return {
            "n": self.ctx.n,
            "m": self.ctx.m,
            "K": self.K,
            "coefficients": coefficients,
            "pass": self.ok,
        }


def shintani_verify(ctx, K):
    """Compare both sides of the series identity coefficientwise for
    l = 0..K, exactly, in the character basis (``coefficient_difference``).

    A failing coefficient is a reported result, not an exception.
    """
    _require_series(K)
    return ShintaniReport(ctx, K, [coefficient_difference(ctx, l) for l in range(K + 1)])
