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
dropped when it is singular.  The engine therefore computes S as a short
integer combination of characters, the character form, and expands it
through characters cached by highest weight; no rational function is
divided.  L applies its prefactor to the coefficient polynomials in v of
the form before anything is expanded.

The numeric sum at a sample point (``weyl_sum_numeric``) evaluates the same
character form: characters are Laurent polynomials, so it meets no pole and
no cancellation against the Weyl denominators, which the 384 terms of the
literal sum at (3,2) suffer where two angles nearly coincide.  The literal
term-by-term rational-function sum (``weyl_sum_direct``) is kept as an
independent cross-check.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ratfun import LinearForm, PoleError, Poly, RatFun, zeta_of
from .weyl import character, enumerate_group, is_dominant, straighten_weight
from .zetafactors import (
    b_factor,
    b_factor_poly,
    d_factor,
    delta_half_G,
    delta_half_MJ,
    dprime_factor,
    gamma_big,
    simple_roots_G,
    simple_roots_M,
)

__all__ = [
    "require_dominant",
    "weyl_sum",
    "weyl_sum_direct",
    "weyl_sum_numeric",
    "L_value",
    "ws_torus",
    "normalization_constant",
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
def _b_terms_int(ctx):
    """b(chi, xi) expanded, as a tuple of (exponent, int coefficient)."""
    return tuple(sorted(b_factor_poly(ctx).terms.items()))


def _character_form(ctx, d, f):
    """S(d, f) in the character basis: a sorted tuple of ((lam, mu), ((k, c),
    ...)) with lam and mu dominant, where the integer c is the coefficient of
    v^k chi^B_lam(x) chi^C_mu(y).

    Each term c v^k x^a y^b of b contributes c v^k chi^B_(f-a) chi^C_(d-b),
    straightened by the dot action (Brauer-Klimyk).  The form is built once
    per (ctx, d, f) and shared by the exact and the numeric sum.
    """
    return _straightened_b(ctx, require_dominant(d, "d"), require_dominant(f, "f"))


@lru_cache(maxsize=None)
def _straightened_b(ctx, d, f):
    n, m = ctx.n, ctx.m
    if len(f) != n or len(d) != m:
        raise ValueError("shape mismatch: need |f| = n, |d| = m")
    form = {}
    for e, c in _b_terms_int(ctx):
        st_b = straighten_weight(tuple(a - b for a, b in zip(f, e[_G_OFF : _G_OFF + n])), "so")
        st_c = st_b and straighten_weight(tuple(a - b for a, b in zip(d, e[_G_OFF + n :])), "sp")
        if not st_c:
            continue
        (sx, lam), (sy, mu) = st_b, st_c
        vpoly = form.setdefault((lam, mu), {})
        s = vpoly.get(e[0], 0) + sx * sy * c
        if s:
            vpoly[e[0]] = s
        else:
            del vpoly[e[0]]
    return tuple((key, tuple(sorted(vpoly.items()))) for key, vpoly in sorted(form.items()) if vpoly)


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


def weyl_sum_direct(ctx, d, f):
    """Literal term-by-term evaluation of S(d, f) as rational functions.

    Exponentially slower than ``weyl_sum``; kept as an independent route for
    cross-checks at small rank.
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
        remap_w = w.embed_remap(V.size, _G_OFF)
        torus_x = [0] * V.size
        for i in range(n):
            j = w.image[i] - 1
            torus_x[_G_OFF + i] = -w.flips[j] * f[j]
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


def normalization_constant(ctx):
    """The double Weyl sum with no torus insertion: all (chi, xi) dependence
    must cancel, leaving the constant C = zeta(1)^m prod zeta^-1(2i)."""
    return weyl_sum(ctx, (0,) * ctx.m, (0,) * ctx.n)


def normalization_constant_closed(ctx):
    """C = zeta(1)^m prod_{i=1}^m zeta^-1(2i), straight from the closed form."""
    V = ctx.vars
    out = RatFun.one(V)
    if ctx.m == 0:
        return out
    one = LinearForm.const(V, 1)
    z1 = zeta_of(one)
    for i in range(1, ctx.m + 1):
        out = out * z1 / zeta_of(LinearForm.const(V, 2 * i))
    return out


def _v_list(terms):
    """A polynomial in v, {power: coefficient}, as a coefficient list with the
    constant term first."""
    if min(terms) < 0:
        raise AssertionError("negative power of v")
    return [Fraction(terms.get(k, 0)) for k in range(max(terms) + 1)]


def _v_divmod(a, b):
    """Quotient and remainder of polynomials in v over Q, as coefficient
    lists with the constant term first and a nonzero last entry."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    r = a[: len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


@lru_cache(maxsize=None)
def _constant_v(ctx):
    """C(v) = zeta(1)^m prod zeta^-1(2i), a polynomial in v, as a coefficient
    list with the constant term first."""
    closed = normalization_constant_closed(ctx)
    den, rem = _v_divmod(
        *(_v_list({e[0]: c for e, c in p.terms.items()})
          for p in (closed.numerator_poly(), closed.denominator_poly()))
    )
    if rem:
        raise AssertionError("normalization constant is not a polynomial in v")
    return tuple(den)


def L_value(ctx, d, f):
    """The normalized integrated Whittaker-Shintani value L(d, f).

    Exact for dominant d in Z^m, f in Z^n; the prefactor is the closed-form
    reciprocal of the normalization constant, so L(0, 0) = 1 is a theorem
    about the Weyl sum, not a convention.

    The constant C(v) and the coefficient polynomials in v of the character
    form are divided by their common gcd before anything is expanded.  The
    products chi_lam chi_mu are a basis of the invariants, so the result is
    in lowest terms.
    """
    coeffs = {key: _v_list(dict(vpoly)) for key, vpoly in _character_form(ctx, d, f)}
    den = _constant_v(ctx)
    g = den
    for p in coeffs.values():
        while p and len(g) > 1:
            g, p = p, _v_divmod(g, p)[1]
    den = _v_divmod(den, g)[0]
    coeffs = {key: _v_divmod(p, g)[0] for key, p in coeffs.items()}
    scale = lcm(*(c.denominator for p in (den, *coeffs.values()) for c in p))
    shift = delta_half_G(ctx, f)[0] + delta_half_MJ(ctx, d)[0]
    num = _expand(
        ctx,
        [(key, [(k, int(c * scale)) for k, c in enumerate(p) if c]) for key, p in coeffs.items()],
        shift,
    )
    den = Poly(ctx.vars, {ctx.vars.v_exp(k): int(c * scale) for k, c in enumerate(den)})
    return RatFun.from_poly(num) / RatFun.from_poly(den)


def ws_torus(ctx, f):
    """The normalized Whittaker-Shintani function at p^f: W0(p^f) = L(0, f)."""
    return L_value(ctx, (0,) * ctx.m, f)


# -- numeric backend ---------------------------------------------------------


def _character_at(lam, group, zs):
    """The cached character chi_lam of SO(2k+1) or Sp(2k) at the point zs."""
    total = 0j
    for e, c in character(lam, group):
        term = c
        for z, a in zip(zs, e):
            if a:
                term *= z ** a
        total += term
    return total


def weyl_sum_numeric(ctx, d, f, point):
    """S(d, f) at a numeric point, from its character form:
    sum of c v^k chi^B_lam(x) chi^C_mu(y).

    Characters are Laurent polynomials, so there is no pole to meet and no
    cancellation against the Weyl denominators; each character is evaluated
    once per call.
    """
    n = ctx.n
    v, xs, ys = point[0], point[1 : 1 + n], point[1 + n :]
    chi_x = {}
    chi_y = {}
    total = 0j
    for (lam, mu), vpoly in _character_form(ctx, d, f):
        if lam not in chi_x:
            chi_x[lam] = _character_at(lam, "so", xs)
        if mu not in chi_y:
            chi_y[mu] = _character_at(mu, "sp", ys)
        total += sum(c * v ** k for k, c in vpoly) * chi_x[lam] * chi_y[mu]
    return total


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


def _generators(ctx):
    gens = []
    for root in simple_roots_G(ctx):
        gens.append(("G", root, root.reflection(ctx)))
    for root in simple_roots_M(ctx):
        gens.append(("M", root, root.reflection(ctx)))
    return gens


class InvarianceReport:
    """Per-generator outcome of the W_G x W_M invariance check of I/Gamma."""

    def __init__(self, ctx, d, f, mode, results, skipped=0):
        self.ctx = ctx
        self.d = d
        self.f = f
        self.mode = mode
        self.results = results  # list of (group, label, ok, deviation-or-None)
        self.skipped = skipped

    @property
    def ok(self):
        return all(r[2] for r in self.results)

    @property
    def max_deviation(self):
        devs = [r[3] for r in self.results if r[3] is not None]
        return max(devs) if devs else 0.0

    def as_dict(self):
        return {
            "n": self.ctx.n,
            "m": self.ctx.m,
            "d": list(self.d),
            "f": list(self.f),
            "mode": self.mode,
            "generators": [
                {"group": g, "root": lab, "pass": ok}
                | ({"deviation": dev} if dev is not None else {})
                for g, lab, ok, dev in self.results
            ],
            "skipped_points": self.skipped,
            "pass": self.ok,
        }


def invariance_report(ctx, d, f, mode="exact", samples=10, seed=0, q=3, radius=0.7,
                      tol=1e-9):
    """Check that the unnormalized pairing value over Gamma(chi, xi) is
    invariant under every simple reflection of W_G and of W_M.

    The unnormalized value is (1-v^2)^m Gamma(chi,xi) S(d,f) (times torus
    monomials that substitutions do not touch); its quotient by Gamma is
    computed by exact division in exact mode, so the check exercises both
    the Gamma bookkeeping and the invariance of the Weyl sum.

    In numeric mode a sample point where Gamma meets a pole is skipped and
    counted; a generator compared at no point fails, without a deviation.
    """
    d = require_dominant(d, "d")
    f = require_dominant(f, "f")
    V = ctx.vars
    gens = _generators(ctx)
    results = []
    if mode == "exact":
        gamma = gamma_big(ctx)
        one_minus_p = RatFun.from_poly(
            Poly.constant(V, 1) - Poly.monomial(V, V.v_exp(2))
        )
        unnorm = (one_minus_p ** ctx.m) * gamma * weyl_sum(ctx, d, f)
        base = unnorm / gamma
        for group, root, w in gens:
            offset = _G_OFF if group == "G" else 1 + ctx.n
            remap = w.embed_remap(V.size, offset)
            reflected = unnorm.substitute_exponents(remap) / gamma.substitute_exponents(
                remap
            )
            ok = reflected == base
            results.append((group, root.label, ok, None))
        return InvarianceReport(ctx, d, f, "exact", results)

    if mode != "numeric":
        raise ValueError("mode must be 'exact' or 'numeric'")

    pts = sample_points(ctx, samples, seed, q=q, radius=radius)
    gamma = gamma_big(ctx)
    # None until a generator is compared at some point: a generator that
    # every pole skipped has checked nothing and fails
    per_gen_dev = [None] * len(gens)
    skipped = 0
    for pt in pts:
        try:
            base_gamma = gamma.eval_at(pt)
        except PoleError:
            skipped += 1
            continue
        base = weyl_sum_numeric(ctx, d, f, pt)
        base_ratio = ((1 - pt[0] ** 2) ** ctx.m) * base_gamma * base / base_gamma
        for idx, (group, root, w) in enumerate(gens):
            if group == "G":
                wpt = (pt[0],) + w.act_on_point(pt[1 : 1 + ctx.n]) + pt[1 + ctx.n :]
            else:
                wpt = pt[: 1 + ctx.n] + w.act_on_point(pt[1 + ctx.n :])
            try:
                refl_gamma = gamma.eval_at(wpt)
            except PoleError:
                skipped += 1
                continue
            refl = weyl_sum_numeric(ctx, d, f, wpt)
            ratio = ((1 - wpt[0] ** 2) ** ctx.m) * refl_gamma * refl / refl_gamma
            dev = abs(ratio - base_ratio)
            per_gen_dev[idx] = max(dev, per_gen_dev[idx] or 0.0)
    for (group, root, w), dev in zip(gens, per_gen_dev):
        results.append((group, root.label, dev is not None and dev < tol, dev))
    return InvarianceReport(ctx, d, f, "numeric", results, skipped=skipped)
