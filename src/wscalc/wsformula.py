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
dropped when it is singular.  b is grouped by weight, its x-side is
straightened once per f and its y-side once per d, and the dot action is
cached, so each distinct weight f - a and d - b is straightened once per
process.  The engine therefore computes S as a short integer combination of
characters, the character form; no rational function is divided.

L(d, f) is held in that basis, as an ``LValue``: the shift v^k of
delta^(1/2), the monic denominator den(v) and the form's integer
coefficient polynomials in v, divided by their common gcd in Z[v]; a form
whose gcd with C(v) is 1 is kept as it is, over C(v).  It is
evaluated there, from a plan cached per form that holds all that does not
depend on the point (``_form_plan``): each distinct character as W-orbit
sums, each orbit as its permutations.  It is expanded into a ``RatFun``
only as a view, for printing and for rational-function arithmetic
(``LValue.ratfun``).

The numeric sum at a sample point (``weyl_sum_numeric``) evaluates the
unreduced character form with the same plan: characters are Laurent
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
from math import gcd

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
    b grouped by weight, each side once: f - a once per x-exponent and f
    (``_straightened_x``), a singular one dropping its whole block, and
    d - b once per y-exponent and d (``_straightened_y``), so a (d, f) pair
    only accumulates.  The form is built once per (ctx, d, f) and shared by
    the exact and the numeric sum.
    """
    return _straightened_b(ctx, require_dominant(d, "d"), require_dominant(f, "f"))


@lru_cache(maxsize=None)
def _straightened_b(ctx, d, f):
    if len(f) != ctx.n or len(d) != ctx.m:
        raise ValueError("shape mismatch: need |f| = n, |d| = m")
    st_y = _straightened_y(ctx, d)
    form = {}
    for sx, lam, js, ks, cs in _straightened_x(ctx, f):
        for j, k, c in zip(js, ks, cs):
            st_c = st_y[j]
            if st_c is None:
                continue
            sy, mu = st_c
            acc = form.setdefault((lam, mu), {})
            acc[k] = acc.get(k, 0) + sx * sy * c
    return _normal_form(form)


def _normal_form(acc):
    """The character form of {(lam, mu): {k: c}}: its nonzero coefficients
    c v^k, each polynomial in v sorted by power and the nonempty ones sorted
    by (lam, mu).  Zero coefficients and empty polynomials are pruned, so two
    sums of the same value give the same tuple, and one that cancels gives ()."""
    out = []
    for key, poly in acc.items():
        vpoly = tuple(sorted((k, c) for k, c in poly.items() if c))
        if vpoly:
            out.append((key, vpoly))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _straightened_x(ctx, f):
    """The x-blocks of the grouped b straightened against f, once per (ctx,
    f): (sx, lam, js, ks, cs) for each block (a, js, ks, cs) whose weight
    f - a is not singular, with chi^B_(f-a) = sx chi^B_lam."""
    out = []
    for a, js, ks, cs in _b_grouped(ctx)[1]:
        st = straighten_weight(tuple(fi - ai for fi, ai in zip(f, a)), "so")
        if st is not None:
            out.append((*st, js, ks, cs))
    return tuple(out)


@lru_cache(maxsize=None)
def _straightened_y(ctx, d):
    """The y-exponents of the grouped b straightened against d, once per
    (ctx, d): (sy, mu) with chi^C_(d-b) = sy chi^C_mu, or None where d - b
    is singular."""
    return tuple(
        straighten_weight(tuple(di - bi for di, bi in zip(d, b)), "sp")
        for b in _b_grouped(ctx)[0]
    )


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
    return Poly(ctx, {e: c for e, c in acc.items() if c}, prune=False)


def weyl_sum(ctx, d, f):
    """The double Weyl sum S(d, f), exactly, as the expansion of its
    straightened character form.  The result is W_G x W_M-invariant by
    construction."""
    return RatFun.from_poly(_expand(ctx, _character_form(ctx, d, f)))


def normalization_constant_closed(ctx):
    """C = zeta(1)^m prod_{i=1}^m zeta^-1(2i), straight from the closed form."""
    out = RatFun.one(ctx)
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
        |den(v)| < POLE_TOL, and ContextMismatchError first on a point
        of the wrong length."""
        total = _eval_form(self.form, point, self.ctx)
        v = point[0]
        den = 0
        for c in reversed(self.den):
            den = den * v + c
        if abs(den) < POLE_TOL:
            raise PoleError(
                "evaluation within %g of a pole (|denominator| = %g)" % (POLE_TOL, abs(den)),
                magnitude=abs(den),
            )
        return v ** self.shift * total / den

    def ratfun(self):
        """The value as a RatFun: the form expanded through the cached
        characters, over den(v).  In lowest terms, since the form is."""
        ctx = self.ctx
        num = _expand(ctx, self.form, self.shift)
        den = Poly(ctx, {ctx.v_exp(k): c for k, c in enumerate(self.den)})
        return RatFun.from_poly(num) / RatFun.from_poly(den)


def L_value(ctx, d, f):
    """The normalized integrated Whittaker-Shintani value L(d, f), exactly,
    as an ``LValue`` in the character basis: the character form of S(d, f)
    over C(v), shifted by delta^(1/2)(p^f) delta_MJ^(1/2)(p^d) and reduced
    (``_over_constant``).

    Exact for dominant d in Z^m, f in Z^n; the prefactor is the closed-form
    reciprocal of the normalization constant, so L(0, 0) = 1 is a theorem
    about the Weyl sum, not a convention.  Nothing is expanded.
    """
    shift = delta_half_G(ctx, f) + delta_half_MJ(ctx, d)
    return _over_constant(ctx, shift, _character_form(ctx, d, f))


def _over_constant(ctx, shift, form):
    """v^shift / C(v) times the character form ``form``, as a reduced
    ``LValue``.

    The form's lowest power of v moves into the shift, so its coefficient
    polynomials start at v^0.  C(v) and those integer polynomials are then
    divided by their common gcd, taken in Z[v].  C(v) is monic, so the gcd
    is monic and every quotient is integral, and the reduced value is
    canonical.  When the gcd is 1 the form and C(v) are returned as they
    are, and a coefficient polynomial is listed only when the gcd loop
    reaches it.  A coefficient that is one monomial c v^k settles the gcd
    as 1 with no loop: C(v) is monic with constant term 1, so no divisor of
    c v^k of positive degree divides it.  An empty form is 0, over den 1.
    """
    low = min((vpoly[0][0] for _, vpoly in form), default=0)
    if low:
        form = tuple((key, tuple((k - low, c) for k, c in vpoly)) for key, vpoly in form)
        shift += low
    den = _constant_v(ctx)
    g = [1] if any(len(vpoly) == 1 for _, vpoly in form) else den
    for _, vpoly in form:
        if len(g) == 1:
            break
        g = _v_gcd(g, _v_list(dict(vpoly)))
    if len(g) > 1:
        quotients = ((key, _v_exact_quotient(_v_list(dict(vpoly)), g)) for key, vpoly in form)
        form = tuple((key, tuple((k, c) for k, c in enumerate(q) if c)) for key, q in quotients)
        den = tuple(_v_exact_quotient(den, g))
    return LValue(ctx, shift, den, form)


# -- numeric backend ---------------------------------------------------------


def _side_plan(weights, group):
    """The plan of one side of a form with the dominant weights ``weights``:
    (top, orbits, chars).  top is the largest entry of any weight, and so of
    any weight of its representation; each orbit is the distinct
    permutations pi of a dominant mu, each pi the flat indices i * (top + 1)
    + pi_i into the table of c_a(z_i) of its nonzero entries (c_0 = 1); each
    character chi_lam is ((orbit index, mult(mu)), ...) over the dominant
    weights mu of V(lam), orbits shared between characters."""
    top = max((lam[0] for lam in weights if lam), default=0)
    orbit_of = {}
    chars = tuple(
        tuple((orbit_of.setdefault(mu, len(orbit_of)), mult)
              for mu, mult in dominant_weights(lam, group))
        for lam in weights
    )
    orbits = tuple(
        tuple(tuple(i * (top + 1) + a for i, a in enumerate(pi) if a)
              for pi in distinct_permutations(mu))
        for mu in orbit_of
    )
    return top, orbits, chars


def _side_at(z, plan):
    """The value at the coordinates z of each character of a side plan: one
    table of c_a(z_i) = z_i^a + z_i^-a for a = 0..top, one product per
    permutation of each orbit, and one sum per character."""
    top, orbits, chars = plan
    table = []
    for t in z:
        inv, up, down = 1 / t, 1, 1
        table.append(1)
        for _ in range(top):
            up *= t
            down *= inv
            table.append(up + down)
    sums = []
    for orbit in orbits:
        acc = 0
        for pi in orbit:
            term = 1
            for i in pi:
                term *= table[i]
            acc += term
        sums.append(acc)
    values = []
    for char in chars:
        acc = 0
        for o, mult in char:
            acc += mult * sums[o]
        values.append(acc)
    return values


@lru_cache(maxsize=None)
def _form_plan(form):
    """The evaluation plan of a character form, built once per form: the
    side plans of its distinct lam and mu, and its terms as (lam index, mu
    index, vpoly)."""
    lams, mus = {}, {}
    terms = tuple(
        (lams.setdefault(lam, len(lams)), mus.setdefault(mu, len(mus)), vpoly)
        for (lam, mu), vpoly in form
    )
    return _side_plan(tuple(lams), "so"), _side_plan(tuple(mus), "sp"), terms


def _eval_form(form, point, ctx):
    """The character form ((lam, mu), ((k, c), ...)), ... at a complex point,
    or exactly at a point of Fractions: sum of c v^k chi^B_lam(x) chi^C_mu(y).
    A point without one coordinate per variable of ``ctx`` raises
    ContextMismatchError before any arithmetic.

    Characters are Laurent polynomials, so there is no pole to meet and no
    cancellation against the Weyl denominators.  A character is
    W-invariant, so chi_lam is the sum of mult(mu) times the orbit sum of
    mu over the dominant weights mu of V(lam), and the orbit sum is the sum
    over the distinct permutations pi of mu of prod_i c_(pi_i)(z_i).  What
    does not depend on the point is the form's plan (``_form_plan``), built
    once per form; a point costs one table of c_a(z_i) per side, one product
    per permutation and one pass over the terms.
    """
    if len(point) != ctx.size:
        raise ContextMismatchError("point shape does not match context")
    x_plan, y_plan, terms = _form_plan(form)
    v = point[0]
    chi_x = _side_at(point[1 : 1 + ctx.n], x_plan)
    chi_y = _side_at(point[1 + ctx.n :], y_plan)
    total = 0
    for i, j, vpoly in terms:
        coeff = 0
        for k, c in vpoly:
            coeff += c * v ** k
        total += coeff * chi_x[i] * chi_y[j]
    return total


def weyl_sum_numeric(ctx, d, f, point):
    """S(d, f) at a numeric point: its unreduced character form, evaluated
    from its cached plan as ``LValue.eval_at`` evaluates a reduced one."""
    return _eval_form(_character_form(ctx, d, f), point, ctx)


def sample_points(ctx, count, seed, q=3):
    """Seeded sample points: x, y uniform on the circle of radius 0.7, v fixed
    to q^(-1/2).  The radius < 1 keeps zeta denominators away from 0."""
    import cmath
    import random

    rng = random.Random(seed)
    pts = []
    v = q ** (-0.5)
    for _ in range(count):
        xs = tuple(
            0.7 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(ctx.n)
        )
        ys = tuple(
            0.7 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(ctx.m)
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
