"""The normalized Whittaker-Shintani values on the torus.

The central object is the double Weyl sum

    S(d, f) = sum over (w, w') in W(C_n) x W(C_m) of
              b(w.chi, w'.xi) d(w.chi) d'(w'.xi) (w.chi)^-1(p^f) (w'.xi)^-1(p^d)

and the normalized value

    L(d, f) = zeta(1)^-m prod_i zeta(2i) * delta_G^(1/2)(p^f)
              * delta_MJ^(1/2)(p^d) * S(d, f)

for dominant d, f.  d and d' are the Weyl denominators of SO(2n+1) and
Sp(2m), so the Weyl sum of one term c v^k x^a y^b of b is a product of
characters, c v^k chi^B_(f-a)(x) chi^C_(d-b)(y) (the Brauer-Klimyk rule).
A character of a non-dominant weight is straightened by the dot action:
lam + rho is reflected into the dominant chamber with sign sgn(w), and
dropped when it is singular.  b is grouped by weight, so each distinct
x-exponent a and y-exponent b is straightened once per (d, f).  The engine
therefore computes S as a short integer combination of characters, the
character form; no rational function is divided.

L(d, f) is held in that basis, as an ``LValue``: the shift v^k of
delta^(1/2), the monic denominator den(v) and the form's integer
coefficient polynomials in v, divided by their common gcd in Z[v].  It is
evaluated there, each distinct character once per point, and expanded into
a ``RatFun`` only as a view, for printing and for rational-function
arithmetic (``LValue.ratfun``).

The numeric sum at a sample point (``weyl_sum_numeric``) evaluates the
unreduced character form with the same evaluator: characters are Laurent
polynomials, so it meets no pole and no cancellation against the Weyl
denominators, which the 384 terms of the literal sum at (3,2) suffer where
two angles nearly coincide.  The tests keep the literal term-by-term
rational-function sum as an independent cross-check.

``invariance_report`` checks Gamma as ``verify gamma`` does, and that the
simple reflections fix each character of S's form, so that Gamma S
transforms as Gamma does; it builds no rational function of S, and cannot
see a fault in the form's coefficients, which the series identity sees.
"""

from functools import lru_cache
from math import gcd, prod

from .ratfun import (
    POLE_TOL,
    ContextMismatchError,
    PoleError,
    Poly,
    RatFun,
    zeta_of,
)
from .weyl import (
    character,
    distinct_permutations,
    dominant_weights,
    is_dominant,
    reflection,
    straighten_weight,
)
from .zetafactors import (
    b_factor_poly,
    delta_half_G,
    delta_half_MJ,
    equivariance,
    gamma_big,
    reflection_factors,
)

__all__ = [
    "require_dominant",
    "weyl_sum",
    "weyl_sum_numeric",
    "L_value",
    "LValue",
    "ws_torus",
    "normalization_constant_closed",
    "invariance_report",
    "sample_points",
]

_G_OFF = 1  # x-variables start at slot 1 of the exponent tuple


def require_dominant(vec, what):
    vec = tuple(int(a) for a in vec)
    if not is_dominant(vec):
        why = "negative entry in %r" if any(a < 0 for a in vec) else "%r is not weakly decreasing"
        raise ValueError("%s not dominant: %s" % (what, why % (vec,)))
    return vec


@lru_cache(maxsize=None)
def _b_grouped(ctx):
    """b(chi, xi) expanded and grouped by x-exponent, as (ys, blocks): ys are
    the distinct y-exponents, and each block (a, js, ks, cs) holds the terms
    c v^k x^a y^ys[j] in three parallel tuples of ints, 24 bytes a term."""
    n = ctx.n
    index = {}
    blocks = {}
    for e, c in b_factor_poly(ctx).terms.items():
        j = index.setdefault(e[_G_OFF + n :], len(index))
        a = e[_G_OFF : _G_OFF + n]
        cols = blocks.get(a)
        if cols is None:
            cols = blocks[a] = ([], [], [])
        cols[0].append(j)
        cols[1].append(e[0])
        cols[2].append(c)
    return tuple(index), tuple((a, *map(tuple, cols)) for a, cols in blocks.items())


def _character_form(ctx, d, f):
    """S(d, f) in the character basis: a sorted tuple of ((lam, mu), ((k, c),
    ...)) with lam and mu dominant, where the integer c is the coefficient of
    v^k chi^B_lam(x) chi^C_mu(y).

    Each term c v^k x^a y^b of b contributes c v^k chi^B_(f-a) chi^C_(d-b),
    straightened by the dot action (Brauer-Klimyk).  Straightening works on
    b grouped by weight: f - a once per x-exponent, a singular one skipping
    its whole block, and d - b once per y-exponent.  The form is built once
    per (ctx, d, f) and shared by the exact and the numeric sum.
    """
    return _straightened_b(ctx, require_dominant(d, "d"), require_dominant(f, "f"))


@lru_cache(maxsize=None)
def _straightened_b(ctx, d, f):
    n, m = ctx.n, ctx.m
    if len(f) != n or len(d) != m:
        raise ValueError("shape mismatch: need |f| = n, |d| = m")
    ys, blocks = _b_grouped(ctx)
    st_y = [straighten_weight(tuple(di - bi for di, bi in zip(d, b)), "sp") for b in ys]
    form = {}
    for a, js, ks, cs in blocks:
        st_b = straighten_weight(tuple(fi - ai for fi, ai in zip(f, a)), "so")
        if st_b is None:
            continue
        sx, lam = st_b
        for j, k, c in zip(js, ks, cs):
            st_c = st_y[j]
            if st_c is None:
                continue
            sy, mu = st_c
            acc = form.setdefault((lam, mu), {})
            acc[k] = acc.get(k, 0) + sx * sy * c
    out = []
    for key, acc in sorted(form.items()):
        vpoly = tuple((k, c) for k, c in sorted(acc.items()) if c)
        if vpoly:
            out.append((key, vpoly))
    return tuple(out)


def _expand(ctx, coeffs, shift=0):
    """The Poly v^shift * sum over ((lam, mu), ((k, c), ...)) in coeffs of
    c v^k chi_lam chi_mu, each character taken from the cache keyed by its
    highest weight."""
    acc = {}
    get = acc.get
    for (lam, mu), vpoly in coeffs:
        chi_y = character(mu, "sp")
        for ex, cx in character(lam, "so"):
            for ey, cy in chi_y:
                exy = ex + ey
                cxy = cx * cy
                for k, c in vpoly:
                    key = (k + shift,) + exy
                    acc[key] = get(key, 0) + c * cxy
    return Poly(ctx.vars, {e: c for e, c in acc.items() if c}, prune=False)


def weyl_sum(ctx, d, f):
    """The double Weyl sum S(d, f), exactly, as the expansion of its
    straightened character form.  The result is W_G x W_M-invariant by
    construction."""
    return RatFun.from_poly(_expand(ctx, _character_form(ctx, d, f)))


def normalization_constant_closed(ctx):
    """C = zeta(1)^m prod_{i=1}^m zeta^-1(2i), straight from the closed form."""
    V = ctx.vars
    out = RatFun.one(V)
    if ctx.m == 0:
        return out
    z1 = zeta_of(ctx.v(2))  # zeta(1), from q^-1 = v^2
    for i in range(1, ctx.m + 1):
        out = out * z1 / zeta_of(ctx.v(4 * i))
    return out


def _v_list(terms):
    """A polynomial in v, {power: coefficient}, as a coefficient list with the
    constant term first."""
    if min(terms) < 0:
        raise AssertionError("negative power of v")
    return [terms.get(k, 0) for k in range(max(terms) + 1)]


def _v_divmod(a, b):
    """Quotient and remainder in Z[v], as coefficient lists with the constant
    term first and a nonzero last entry.  Every step of the quotient must be
    divisible by b's leading coefficient; that is asserted, not assumed."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise AssertionError("quotient in v is not integral")
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    r = a[: len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _v_exact_quotient(a, b):
    """a / b in Z[v]; that b divides a is asserted."""
    q, r = _v_divmod(a, b)
    if r:
        raise AssertionError("polynomial in v does not divide")
    return q


def _v_primitive(a):
    """The primitive part of a in Z[v], with a positive leading coefficient."""
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def _v_gcd(a, b):
    """The gcd of two nonzero polynomials in Z[v], primitive with a positive
    leading coefficient: by Gauss's lemma the primitive parts of the
    pseudo-remainder sequence stay in Z[v]."""
    a, b = _v_primitive(a), _v_primitive(b)
    while len(b) > 1:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        r = _v_divmod([scale * c for c in a], b)[1]
        a, b = b, r and _v_primitive(r)
    return b if b else a


@lru_cache(maxsize=None)
def _constant_v(ctx):
    """C(v) = zeta(1)^m prod zeta^-1(2i), a monic polynomial in v, as a
    coefficient list with the constant term first."""
    closed = normalization_constant_closed(ctx)
    return tuple(_v_exact_quotient(
        *(_v_list({e[0]: c for e, c in p.terms.items()})
          for p in (closed.numerator_poly(), closed.denominator_poly()))
    ))


class LValue:
    """L(d, f) in the character basis:

        v^shift / den(v) * sum over ((lam, mu), ((k, c), ...)) in form of
                           c v^k chi^B_lam(x) chi^C_mu(y),

    with den a monic polynomial in v (a coefficient tuple, constant term
    first) sharing no factor with the integer coefficient polynomials of
    ``form``, which has the format of ``_character_form``.  The products
    chi^B_lam chi^C_mu of dominant weights are a basis of the invariants, so
    the form is the value's canonical expression.  ``eval_at`` evaluates it
    there; ``ratfun`` expands it, which is needed only to print it or to do
    rational-function arithmetic with it.

    An LValue is immutable and is not a number: arithmetic and comparison
    with it raise TypeError, so a caller that wants either takes
    ``ratfun()`` first.
    """

    __slots__ = ("ctx", "shift", "den", "form")

    def __init__(self, ctx, shift, den, form):
        for name, value in zip(self.__slots__, (ctx, shift, den, form)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("LValue is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        raise TypeError("an LValue does not compare; compare its ratfun()")

    def __repr__(self):
        return "LValue(shift=%r, den=%r, form=%r)" % (self.shift, self.den, self.form)

    def eval_at(self, point):
        """Evaluate at a point (v, x_1..x_n, y_1..y_m) of complex numbers,
        or exactly at a point of Fractions; raise PoleError where
        |den(v)| < POLE_TOL."""
        if len(point) != self.ctx.vars.size:
            raise ContextMismatchError("point shape does not match context")
        v = point[0]
        den = 0
        for c in reversed(self.den):
            den = den * v + c
        if abs(den) < POLE_TOL:
            raise PoleError(
                "evaluation within %g of a pole (|denominator| = %g)" % (POLE_TOL, abs(den)),
                magnitude=abs(den),
            )
        return v ** self.shift * _eval_form(self.form, point, self.ctx.n) / den

    def ratfun(self):
        """The value as a RatFun: the form expanded through the cached
        characters, over den(v).  In lowest terms, since the form is."""
        V = self.ctx.vars
        num = _expand(self.ctx, self.form, self.shift)
        den = Poly(V, {V.v_exp(k): c for k, c in enumerate(self.den)})
        return RatFun.from_poly(num) / RatFun.from_poly(den)


def L_value(ctx, d, f):
    """The normalized integrated Whittaker-Shintani value L(d, f), exactly,
    as an ``LValue`` in the character basis.

    Exact for dominant d in Z^m, f in Z^n; the prefactor is the closed-form
    reciprocal of the normalization constant, so L(0, 0) = 1 is a theorem
    about the Weyl sum, not a convention.

    The constant C(v) and the integer coefficient polynomials in v of the
    character form are divided by their common gcd, taken in Z[v].  C(v) is
    monic, so the gcd is monic and every quotient is integral, and the
    reduced form is canonical.  Nothing is expanded.
    """
    coeffs = {key: _v_list(dict(vpoly)) for key, vpoly in _character_form(ctx, d, f)}
    den = _constant_v(ctx)
    g = den
    for p in coeffs.values():
        if len(g) == 1:
            break
        g = _v_gcd(g, p)
    form = tuple(
        (key, tuple((k, c) for k, c in enumerate(_v_exact_quotient(p, g)) if c))
        for key, p in coeffs.items()
    )
    shift = delta_half_G(ctx, f) + delta_half_MJ(ctx, d)
    return LValue(ctx, shift, tuple(_v_exact_quotient(den, g)), form)


def ws_torus(ctx, f):
    """The normalized Whittaker-Shintani function at p^f: W0(p^f) = L(0, f)."""
    return L_value(ctx, (0,) * ctx.m, f)


# -- numeric backend ---------------------------------------------------------


def _orbit_rows(z, top):
    """One row per coordinate z_i: c_a(z_i) for a = 0..top, where c_0 = 1 and
    c_a(t) = t^a + t^-a."""
    rows = []
    for t in z:
        inv, up, down, row = 1 / t, 1, 1, [1]
        for _ in range(top):
            up *= t
            down *= inv
            row.append(up + down)
        rows.append(row)
    return rows


def _characters_at(z, group, top):
    """chi_lam(z) of ``group`` as a function of the dominant weight lam, with
    no entry of lam above top.  A character is W-invariant, so chi_lam is
    the sum of mult(mu) M_mu(z) over the dominant weights mu of V(lam), and
    the orbit sum M_mu(z) is the sum over the distinct permutations pi of mu
    of prod_i c_(pi_i)(z_i).  Each orbit sum and each character is computed
    once, and orbit sums are shared by the characters."""
    rows = _orbit_rows(z, top)
    orbits = {}
    chars = {}

    def chi(lam):
        val = chars.get(lam)
        if val is None:
            val = 0
            for mu, mult in dominant_weights(lam, group):
                orbit = orbits.get(mu)
                if orbit is None:
                    orbit = orbits[mu] = sum(
                        prod(map(list.__getitem__, rows, pi)) for pi in distinct_permutations(mu)
                    )
                val += mult * orbit
            chars[lam] = val
        return val

    return chi


def _eval_form(form, point, n):
    """The character form ((lam, mu), ((k, c), ...)), ... at a complex point,
    or exactly at a point of Fractions: sum of c v^k chi^B_lam(x) chi^C_mu(y).

    Characters are Laurent polynomials, so there is no pole to meet and no
    cancellation against the Weyl denominators.  Each character is evaluated
    as a sum of W-orbit sums over its dominant weights (``_characters_at``),
    from one table per side of x_i^a + x_i^-a; each orbit sum and each
    character is evaluated once per call.
    """
    v, xs, ys = point[0], point[1 : 1 + n], point[1 + n :]
    # every weight of V(lam) has entries at most lam_1
    top = max((max(lam[:1] + mu[:1]) for (lam, mu), _ in form), default=0)
    chi_x = _characters_at(xs, "so", top)
    chi_y = _characters_at(ys, "sp", top)
    total = 0
    for (lam, mu), vpoly in form:
        total += sum(c * v ** k for k, c in vpoly) * chi_x(lam) * chi_y(mu)
    return total


def weyl_sum_numeric(ctx, d, f, point):
    """S(d, f) at a numeric point: its unreduced character form, evaluated by
    the evaluator of ``LValue``."""
    return _eval_form(_character_form(ctx, d, f), point, ctx.n)


def sample_points(ctx, count, seed, q=3, radius=0.7):
    """Seeded sample points: x, y uniform on the circle of the given radius,
    v fixed to q^(-1/2).  The radius < 1 keeps zeta denominators away from 0."""
    import cmath
    import random

    rng = random.Random(seed)
    pts = []
    v = q ** (-0.5)
    for _ in range(count):
        xs = tuple(
            radius * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(ctx.n)
        )
        ys = tuple(
            radius * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(ctx.m)
        )
        pts.append((v,) + xs + ys)
    return pts


# -- invariance verifier -----------------------------------------------------


class InvarianceReport:
    """Per-generator outcome of the invariance check: Gamma's equivariance
    and the invariance of S's characters."""

    def __init__(self, ctx, d, f, results):
        self.ctx = ctx
        self.d = d
        self.f = f
        self.results = results  # list of (group, label, ok)

    @property
    def ok(self):
        return all(r[2] for r in self.results)

    def as_dict(self):
        return {
            "n": self.ctx.n,
            "m": self.ctx.m,
            "d": list(self.d),
            "f": list(self.f),
            "mode": "exact",
            "generators": [
                {"group": g, "root": lab, "pass": ok} for g, lab, ok in self.results
            ],
            "skipped_points": 0,
            "pass": self.ok,
        }


def _fixed_by(chi, alpha):
    """Whether the reflection s_alpha fixes the character chi, a tuple of
    (weight, multiplicity) pairs, as a multiset of weights."""
    act = reflection(alpha).embed_remap(len(alpha), 0)
    return {act(e): c for e, c in chi} == dict(chi)


def invariance_report(ctx, d, f, mode="exact"):
    """Check, under every simple reflection s = s_alpha of W_G and of W_M,
    that Gamma picks up gamma_s / c_s (``zetafactors.equivariance``) and
    that s fixes the character of every weight of its side in the character
    form of S(d, f): chi^B_lam for W_G, chi^C_mu for W_M, read from
    ``weyl.character``'s cache.  S is an integer combination of products of
    those characters, so then Gamma S picks up gamma_s / c_s too; a fault in
    the form's coefficients passes.  Only exact mode exists.
    """
    if mode != "exact":
        raise ValueError("invariance_report has only an exact mode, got %r" % (mode,))
    d = require_dominant(d, "d")
    f = require_dominant(f, "f")
    form = _character_form(ctx, d, f)
    sides = {
        "G": ("so", {lam for (lam, _), _ in form}),
        "M": ("sp", {mu for (_, mu), _ in form}),
    }
    results = []
    for (group, alpha, *_), (_, label, ok) in zip(
        reflection_factors(ctx), equivariance(ctx, gamma_big(ctx))
    ):
        kind, weights = sides[group]
        ok = ok and all(_fixed_by(character(w, kind), alpha) for w in weights)
        results.append((group, label, ok))
    return InvarianceReport(ctx, d, f, results)
