import cmath
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc import wsformula
from wscalc.ratfun import PoleError, Poly, RatFun, eval_terms
from wscalc.weyl import (
    character,
    enumerate_group,
    is_dominant,
    straighten_weight,
)
from wscalc.zetafactors import (
    Context,
    b_factor,
    b_factor_poly,
    d_factor,
    delta_half_G,
    delta_half_MJ,
    dprime_factor,
)
from wscalc.wsformula import (
    L_value,
    LValue,
    invariance_report,
    normalization_constant_closed,
    sample_points,
    weyl_sum,
    weyl_sum_numeric,
    ws_torus,
)
from wscalc.wsformula import _G_OFF

from references import alternating_monomial_sum, weyl_sum_direct

C10 = Context(1, 0)
C21 = Context(2, 1)
C31 = Context(3, 1)
C32 = Context(3, 2)

L_PINNED_2_1 = (
    "(1*v^9*x1^-1*x2^-1*y1^-1 + 1*v^9*x1^-1*x2^-1*y1^1 + 1*v^9*x1^-1*y1^-1 + "
    "1*v^9*x1^-1*y1^1 + 1*v^9*x1^-1*x2^1*y1^-1 + 1*v^9*x1^-1*x2^1*y1^1 + "
    "1*v^9*x2^-1*y1^-1 + 1*v^9*x2^-1*y1^1 + 2*v^9*y1^-1 + 2*v^9*y1^1 + "
    "1*v^9*x2^1*y1^-1 + 1*v^9*x2^1*y1^1 + 1*v^9*x1^1*x2^-1*y1^-1 + "
    "1*v^9*x1^1*x2^-1*y1^1 + 1*v^9*x1^1*y1^-1 + 1*v^9*x1^1*y1^1 + "
    "1*v^9*x1^1*x2^1*y1^-1 + 1*v^9*x1^1*x2^1*y1^1 + -1*v^10*x1^-1*x2^-1 + "
    "-2*v^10*x1^-1 + -1*v^10*x1^-1*x2^1 + -2*v^10*x2^-1 + -3*v^10 + "
    "-2*v^10*x2^1 + -1*v^10*x1^1*x2^-1 + -2*v^10*x1^1 + -1*v^10*x1^1*x2^1 + "
    "1*v^12) / (1 + 1*v^2)"
)


def test_weyl_denominator_identities():
    """d and d' agree with their alternant closed forms: with A the alternant
    of W(C_k), d(x) = (-1)^n x^-rho / A(x^rho), rho = (n-1/2, ..., 1/2), and
    d'(y) = (-1)^m y^-rho' / A(y^rho'), rho' = (m, ..., 1).  The half-integral
    rho is handled by comparing d after the substitution x -> x^2."""
    for n in (1, 2, 3):
        ctx = Context(n, 0)
        V = ctx.vars
        rho2 = (0,) + tuple(2 * (n - i) - 1 for i in range(n))
        sign = -1 if n % 2 else 1
        rhs = (
            RatFun.monomial(V, tuple(-e for e in rho2))
            * RatFun.from_poly(alternating_monomial_sum(V, rho2, _G_OFF, n)).inverse()
            * sign
        )
        doubled = d_factor(ctx).substitute_exponents(lambda e: (e[0],) + tuple(2 * a for a in e[1:]))
        assert doubled == rhs
    for m in (1, 2):
        ctx = Context(m + 1, m)
        V = ctx.vars
        q = [0] * V.size
        for j in range(m):
            q[1 + ctx.n + j] = m - j
        sign = -1 if m % 2 else 1
        rhs = (
            RatFun.monomial(V, tuple(-e for e in q))
            * RatFun.from_poly(alternating_monomial_sum(V, q, 1 + ctx.n, m)).inverse()
            * sign
        )
        assert dprime_factor(ctx) == rhs


def _constant(ctx):
    """The double Weyl sum with no torus insertion."""
    return weyl_sum(ctx, (0,) * ctx.m, (0,) * ctx.n)


def test_normalization_constant_closed_forms():
    for ctx in (C10, C21, C31, C32):
        assert _constant(ctx) == normalization_constant_closed(ctx)
    assert _constant(C10) == 1
    # C at m=1 is zeta(1)/zeta(2) = 1 + v^2
    V = C21.vars
    assert _constant(C21) == RatFun.from_poly(
        Poly.constant(V, 1) + Poly.monomial(V, V.v_exp(2))
    )


def test_L_at_origin_is_one():
    for ctx in (C10, C21, C31, C32):
        assert L_value(ctx, (0,) * ctx.m, (0,) * ctx.n).ratfun() == 1


def test_rank_one_closed_form():
    # L(f) = v^(2f) * sum_{k=-f}^{f} x^k  for (n, m) = (1, 0)
    V = C10.vars
    for f in (0, 1, 2, 3):
        expect = Poly.zero(V)
        for k in range(-f, f + 1):
            expect = expect + Poly.monomial(V, (2 * f, k))
        assert ws_torus(C10, (f,)).ratfun() == RatFun.from_poly(expect)


def test_torus_value_2_1():
    # v^4 (1 + x1 + x1^-1 + x2 + x2^-1) - v^5 (y1 + y1^-1)
    V = C21.vars
    expect = Poly.zero(V)
    for e in [(4, 0, 0, 0), (4, 1, 0, 0), (4, -1, 0, 0), (4, 0, 1, 0), (4, 0, -1, 0)]:
        expect = expect + Poly.monomial(V, e)
    for e in [(5, 0, 0, 1), (5, 0, 0, -1)]:
        expect = expect - Poly.monomial(V, e)
    assert ws_torus(C21, (1, 0)).ratfun() == RatFun.from_poly(expect)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        ws_torus(C21, (0, 1))
    with pytest.raises(ValueError):
        L_value(C21, (-1,), (0, 0))
    with pytest.raises(ValueError):
        L_value(C32, (0, 1), (0, 0, 0))


def test_engine_matches_direct_sum():
    cases = [
        (C10, (), (2,)),
        (C21, (0,), (0, 0)),
        (C21, (1,), (1, 1)),
        (C21, (2,), (3, 1)),
        (C31, (0,), (1, 1, 0)),
    ]
    for ctx, d, f in cases:
        assert weyl_sum(ctx, d, f) == weyl_sum_direct(ctx, d, f)


def _reference_numeric(ctx, d, f, point):
    """The literal numeric double Weyl sum: one complex term
    b d d' (w.chi)^-1(p^f) (w'.xi)^-1(p^d) per (w, w'), from the factor
    products.  Independent of the character form, and ill-conditioned where
    two angles nearly coincide."""
    n = ctx.n
    b, dd, dp = b_factor(ctx), d_factor(ctx), dprime_factor(ctx)
    v, xs, ys = point[0], point[1 : 1 + n], point[1 + n :]
    total = 0j
    for w in enumerate_group(n):
        wx = w.act_on_point(xs)
        for w2 in enumerate_group(ctx.m):
            wy = w2.act_on_point(ys)
            pt = (v,) + wx + wy
            term = b.eval_at(pt) * dd.eval_at(pt) * dp.eval_at(pt)
            for z, k in zip(wx + wy, f + d):
                term *= z ** -k
            total += term
    return total


def _close(got, ref):
    return abs(got - ref) <= 1e-9 * max(1, abs(ref))


@pytest.fixture
def unsigned_straightening(monkeypatch):
    """A straightening that forgets sgn(w), on a cleared character-form
    cache, so that no corrupted form outlives the test."""
    straighten = wsformula.straighten_weight

    def unsigned(lam, group):
        st = straighten(lam, group)
        return None if st is None else (1, st[1])

    monkeypatch.setattr(wsformula, "straighten_weight", unsigned)
    wsformula._straightened_b.cache_clear()
    yield
    wsformula._straightened_b.cache_clear()


def test_dropping_the_straightening_sign_breaks_the_engine(unsigned_straightening):
    """The cross-check against the literal sum can fail: a straightening that
    forgets sgn(w) gives a different Weyl sum."""
    assert weyl_sum(C21, (1,), (1, 1)) != weyl_sum_direct(C21, (1,), (1, 1))


def test_dropping_the_straightening_sign_breaks_the_numeric_sum(unsigned_straightening):
    for pt in sample_points(C21, 3, seed=4):
        ref = _reference_numeric(C21, (1,), (1, 1), pt)
        assert not _close(weyl_sum_numeric(C21, (1,), (1, 1), pt), ref)


def test_engine_matches_numeric_sum_3_2():
    """At (3,2) the literal sum is too slow for the suite; the literal
    numeric sum over all 384 Weyl terms stands in for it, for the exact sum
    and for the numeric one."""
    pts = sample_points(C32, 5, seed=11)
    for d in ((0, 0), (1, 0), (1, 1)):
        for f in ((0, 0, 0), (2, 1, 0)):
            s = weyl_sum(C32, d, f)
            for pt in pts:
                ref = _reference_numeric(C32, d, f, pt)
                assert _close(s.eval_at(pt), ref)
                assert _close(weyl_sum_numeric(C32, d, f, pt), ref)


def test_numeric_sum_is_well_conditioned_near_coincident_angles():
    """Where x1 and x2 are 1e-6 apart in angle the 384 literal terms cancel
    and miss the exact value; the character form does not."""
    d, f = (1, 0), (2, 1, 0)
    r, theta = 0.7, 1.1
    pt = (3 ** -0.5,) + tuple(
        r * cmath.exp(1j * a) for a in (theta, theta + 1e-6, 2.5, 0.9, -1.7)
    )
    exact = weyl_sum(C32, d, f).eval_at(pt)
    assert _close(weyl_sum_numeric(C32, d, f, pt), exact)
    assert not _close(_reference_numeric(C32, d, f, pt), exact)


# -- characters as W-orbit sums ------------------------------------------------


def _orbit_cases():
    """(k, lam) for every dominant lam with entries <= 3 at k <= 3, and a few
    at k = 4."""
    cases = [(k, lam) for k in (1, 2, 3) for lam in _dominant(k, 3)]
    return cases + [(4, lam) for lam in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0), (3, 2, 1, 0))]


@pytest.mark.parametrize("group", ["so", "sp"])
def test_orbit_sums_match_the_monomial_characters(group):
    """The orbit-sum value of chi_lam, at seeded points, equals the sum of
    its monomials one at a time."""
    for k, lam in _orbit_cases():
        for pt in sample_points(Context(k, 0), 3, seed=k + 7):
            z = pt[1:]
            got = wsformula._characters_at(z, group, 3)(lam)
            ref = eval_terms(character(lam, group), z, [{} for _ in z])
            assert abs(got - ref) <= 1e-12 * abs(ref), (group, lam, got, ref)


def test_orbit_sum_of_no_coordinates_is_one():
    """At m = 0 the y-side weight is (), and its character is 1."""
    assert wsformula._characters_at((), "sp", 3)(()) == 1
    ctx = Context(2, 0)
    for pt in sample_points(ctx, 3, seed=2):
        assert _close(weyl_sum_numeric(ctx, (), (2, 1), pt), weyl_sum(ctx, (), (2, 1)).eval_at(pt))


def test_dropping_the_inverse_half_of_the_orbit_table_breaks_the_numeric_sum(monkeypatch):
    """The cross-check of the numeric sum against the exact one can fail: an
    orbit table with c_a = z^a, which drops z^-a, gives other values."""
    def one_sided(z, top):
        return [[t ** a for a in range(top + 1)] for t in z]

    cases = [(C21, (1,), (1, 1)), (C32, (1, 0), (2, 1, 0))]
    exact = {(ctx, d, f): weyl_sum(ctx, d, f) for ctx, d, f in cases}
    monkeypatch.setattr(wsformula, "_orbit_rows", one_sided)
    for ctx, d, f in cases:
        for pt in sample_points(ctx, 3, seed=4):
            assert not _close(weyl_sum_numeric(ctx, d, f, pt), exact[ctx, d, f].eval_at(pt))


def _L_numeric_reference(ctx, d, f, point):
    """L at a point by a route that shares no reduction with ``L_value``: the
    unreduced numeric Weyl sum, times delta^(1/2)(p^f) delta_MJ^(1/2)(p^d),
    over the closed-form constant C evaluated as a RatFun."""
    k = delta_half_G(ctx, f) + delta_half_MJ(ctx, d)
    const = normalization_constant_closed(ctx).eval_at(point)
    return weyl_sum_numeric(ctx, d, f, point) * point[0] ** k / const


def test_L_regression_pin_and_numeric_cross_check():
    L = L_value(C21, (1,), (1, 1))
    assert L.ratfun().text() == L_PINNED_2_1
    for pt in sample_points(C21, 5, seed=42):
        assert abs(L.eval_at(pt) - _L_numeric_reference(C21, (1,), (1, 1), pt)) < 1e-10


# -- L in the character basis against its RatFun view --------------------------


def _L_pairs():
    """Every dominant (d, f) with entries <= 4 at (2,1) and <= 2 at (3,1), and
    the (3,2) pairs of the golden eval files."""
    for ctx, bound in ((C21, 4), (C31, 2)):
        for f in _dominant(ctx.n, bound):
            for d in _dominant(ctx.m, bound):
                yield ctx, d, f
    yield C32, (0, 0), (6, 0, 0)
    yield C32, (1, 0), (2, 1, 0)


@lru_cache(maxsize=None)
def _L_cases():
    """(L, its RatFun view, seeded points) for each pair of ``_L_pairs``."""
    cases = []
    for ctx, d, f in _L_pairs():
        L = L_value(ctx, d, f)
        cases.append((L, L.ratfun(), sample_points(ctx, 3, seed=sum(f) + 7)))
    return tuple(cases)


def _views_agree(L, R, pts):
    return all(_close(L.eval_at(p), R.eval_at(p)) for p in pts)


def test_L_eval_matches_its_ratfun_view():
    cases = _L_cases()
    assert len(cases) == 15 * 5 + 10 * 3 + 2
    for L, R, pts in cases:
        assert _views_agree(L, R, pts), (L.ctx, L.form)


# two rational points (v, x_1..x_4, y_1..y_3), truncated to the rank
EXACT_POINTS = {
    "P1": (Fraction(2, 7), (Fraction(3, 5), Fraction(5, 11), Fraction(7, 13), Fraction(11, 17)),
           (Fraction(2, 9), Fraction(4, 15), Fraction(6, 23))),
    "P2": (Fraction(-5, 3), (Fraction(7, 4), Fraction(-2, 13), Fraction(9, 5), Fraction(3, 19)),
           (Fraction(-7, 6), Fraction(5, 17), Fraction(13, 8))),
}


def _fraction_sum(poly, point):
    """The Laurent polynomial at a point of Fractions p_i = a_i/b_i, exactly.
    With lo_i and hi_i the least and greatest exponents of slot i, each term
    times prod a_i^-lo_i b_i^hi_i is an integer, so the terms are summed in
    integers and the sum is divided once."""
    lo, hi = poly.min_exponents(), tuple(map(max, zip(*poly.terms)))
    total = sum(
        c * prod(p.numerator ** (k - l) * p.denominator ** (h - k)
                 for p, k, l, h in zip(point, e, lo, hi))
        for e, c in poly.terms.items()
    )
    return total / prod(Fraction(p.numerator) ** -l * p.denominator ** h
                        for p, l, h in zip(point, lo, hi))


@pytest.mark.parametrize("ctx", [C21, C31, C32], ids=["2,1", "3,1", "3,2"])
def test_L_evaluates_exactly_at_rational_points(ctx):
    """At a point of Fractions, LValue.eval_at returns a Fraction, equal to
    the RatFun view's numerator over its denominator, each summed exactly."""
    for d in _dominant(ctx.m, 2):
        for f in _dominant(ctx.n, 2):
            L = L_value(ctx, d, f)
            R = L.ratfun()
            num, den = R.numerator_poly(), R.denominator_poly()
            for v, xs, ys in EXACT_POINTS.values():
                point = (v,) + xs[: ctx.n] + ys[: ctx.m]
                got = L.eval_at(point)
                assert type(got) is Fraction
                assert got == _fraction_sum(num, point) / _fraction_sum(den, point), (d, f)


def _bump_first_coefficient(L):
    (key, vpoly), *rest = L.form
    (k, c), *more = vpoly
    return LValue(L.ctx, L.shift, L.den, ((key, ((k, c + 1), *more)), *rest))


def _bump_shift(L):
    return LValue(L.ctx, L.shift + 1, L.den, L.form)


@pytest.mark.parametrize(
    "mutate", [_bump_first_coefficient, _bump_shift],
    ids=["coefficient", "shift"],
)
def test_corrupted_L_fails_the_view_check(mutate):
    """The check above can fail: one form coefficient + 1, or the shift off
    by one, evaluates away from the RatFun of the true value.  Values below
    the 1e-9 floor of the check (large shifts) cannot tell, so the mutation
    must fail it at every case with |L| > 1e-6 at its points."""
    told = 0
    cases = _L_cases()
    for L, R, pts in cases:
        if min(abs(R.eval_at(p)) for p in pts) > 1e-6:
            assert not _views_agree(mutate(L), R, pts), (L.ctx, L.form)
            told += 1
    assert told > len(cases) // 2


def test_L_path_expands_nothing(monkeypatch):
    """L_value and LValue.eval_at never multiply out characters."""

    def refuse(*args, **kwargs):
        raise AssertionError("the form was expanded")

    monkeypatch.setattr(wsformula, "_expand", refuse)
    for ctx, d, f in ((C21, (1,), (1, 1)), (C31, (2,), (2, 2, 1)), (C32, (1, 0), (2, 1, 0))):
        L = L_value(ctx, d, f)
        L.eval_at(sample_points(ctx, 1, seed=3)[0])
    with pytest.raises(AssertionError):
        L.ratfun()


def test_L_eval_raises_pole_error_at_a_root_of_den():
    L = L_value(C21, (1,), (1, 1))
    assert L.den == (1, 0, 1)  # C(v) = 1 + v^2 shares no factor with this form
    pt = (1j,) + sample_points(C21, 1, seed=0)[0][1:]
    with pytest.raises(PoleError):
        L.eval_at(pt)
    with pytest.raises(PoleError):
        L.ratfun().eval_at(pt)


def test_L_is_not_a_number():
    """Arithmetic and comparison with an LValue raise instead of acting on
    its fields; the RatFun view is the value to compute with."""
    L = L_value(C21, (0,), (0, 0))
    for op in (
        lambda: L + L,
        lambda: L * 2,
        lambda: 1 + L,
        lambda: L == 1,
        lambda: L != L,
        lambda: L.ratfun() == L,
        lambda: {L},
    ):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(AttributeError):
        L.shift = 1
    with pytest.raises(AttributeError):
        del L.form
    assert L.ratfun() == 1


def test_symmetrizer_identity():
    """Acting with one random (w, w') on the variables and re-summing leaves
    the full torus-inserted sum unchanged (it is invariant by construction)."""
    rng = random.Random(5)
    ctx = C21
    V = ctx.vars
    s = weyl_sum(ctx, (1,), (2, 0))
    w = rng.choice(enumerate_group(ctx.n))
    w2 = rng.choice(enumerate_group(ctx.m))
    remap_w = w.embed_remap(V.size, _G_OFF)
    remap_w2 = w2.embed_remap(V.size, 1 + ctx.n)
    assert s.substitute_exponents(remap_w).substitute_exponents(remap_w2) == s


def test_invariance_exact_2_1():
    for d, f in [((0,), (0, 0)), ((0,), (1, 0)), ((1,), (1, 1))]:
        rep = invariance_report(C21, d, f, mode="exact")
        assert rep.ok
        assert len(rep.results) == 3  # two G generators, one M generator


def test_invariance_report_is_exact_only():
    with pytest.raises(ValueError, match="exact"):
        invariance_report(C21, (0,), (1, 0), mode="numeric")


def test_identity_generator_deviation_zero():
    # the identity acts trivially: base point compared with itself
    pt = sample_points(C21, 1, seed=0)[0]
    a = weyl_sum_numeric(C21, (0,), (1, 0), pt)
    b = weyl_sum_numeric(C21, (0,), (1, 0), pt)
    assert a == b


def test_sample_points_deterministic():
    assert sample_points(C32, 4, seed=9) == sample_points(C32, 4, seed=9)
    assert sample_points(C32, 4, seed=9) != sample_points(C32, 4, seed=10)


# -- the character form against the per-term straightening --------------------


@lru_cache(maxsize=None)
def _b_terms(ctx):
    return tuple(b_factor_poly(ctx).terms.items())


def _reference_form(ctx, d, f):
    """The character form straightened one term of b at a time: each term
    c v^k x^a y^b contributes c v^k chi^B_(f-a) chi^C_(d-b)."""
    n = ctx.n
    form = {}
    for e, c in _b_terms(ctx):
        st_b = straighten_weight(tuple(x - y for x, y in zip(f, e[_G_OFF : _G_OFF + n])), "so")
        st_c = st_b and straighten_weight(tuple(x - y for x, y in zip(d, e[_G_OFF + n :])), "sp")
        if not st_c:
            continue
        (sx, lam), (sy, mu) = st_b, st_c
        vpoly = form.setdefault((lam, mu), {})
        vpoly[e[0]] = vpoly.get(e[0], 0) + sx * sy * c
    out = []
    for key, vpoly in sorted(form.items()):
        terms = tuple((k, c) for k, c in sorted(vpoly.items()) if c)
        if terms:
            out.append((key, terms))
    return tuple(out)


def _dominant(k, bound):
    return [v for v in product(range(bound + 1), repeat=k) if is_dominant(v)]


def _form_cases():
    """Every (d, f) that the tests and the golden files evaluate at (2,1),
    (3,1) and (3,2): all dominant pairs with small entries, and the series
    weights (l, 0, ...) at d = 0."""
    for ctx, dbound, fbound in ((C21, 3, 3), (C31, 2, 2), (C32, 1, 2)):
        pairs = {(d, f) for d in _dominant(ctx.m, dbound) for f in _dominant(ctx.n, fbound)}
        pairs |= {((0,) * ctx.m, (l,) + (0,) * (ctx.n - 1)) for l in range(9)}
        for d, f in sorted(pairs):
            yield ctx, d, f


def test_grouped_straightening_matches_per_term_loop():
    for ctx, d, f in _form_cases():
        assert wsformula._character_form(ctx, d, f) == _reference_form(ctx, d, f), (ctx, d, f)


# -- the gcd in Z[v] against the gcd over Q ------------------------------------


def _q_divmod(a, b):
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


def _q_gcd_monic(a, b):
    """Euclid's algorithm on Fraction coefficient lists, made monic."""
    g, p = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while p and len(g) > 1:
        g, p = p, _q_divmod(g, p)[1]
    return [c / g[-1] for c in g] if len(g) > 1 else [Fraction(1)]


def _v_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


v_poly = st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(lambda p: p[-1] != 0)


@given(v_poly, v_poly, v_poly)
@settings(max_examples=200, deadline=None)
def test_integer_gcd_agrees_with_rational_gcd(g, p, q):
    """On products g*p and g*q of random integer polynomials in v, the Z[v]
    gcd equals the Q[v] gcd up to a unit, and divides both in Z[v]."""
    a, b = _v_mul(g, p), _v_mul(g, q)
    got = wsformula._v_gcd(a, b)
    assert all(type(c) is int for c in got)
    assert [Fraction(c, got[-1]) for c in got] == _q_gcd_monic(a, b)
    for x in (a, b):
        assert _v_mul(wsformula._v_exact_quotient(x, got), got) == x


def test_inexact_division_in_v_is_reported():
    with pytest.raises(AssertionError):
        wsformula._v_exact_quotient([1, 0, 1], [1, 1])  # 1 + v^2 by 1 + v
    with pytest.raises(AssertionError):
        wsformula._v_exact_quotient([0, 2], [1, 3])  # 2v by 1 + 3v: no integral step
