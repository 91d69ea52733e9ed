import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.ratfun import (
    ContextMismatchError,
    PoleError,
    Poly,
    RatFun,
    Vars,
    canonical_factor,
    zeta_of,
    zeta_inv_of,
)

V = Vars(2, 1)
V1 = Vars(1, 0)


def mono(vars_, v=0, x=(), y=()):
    e = [v] + list(x) + [0] * (vars_.n - len(x)) + list(y) + [0] * (vars_.m - len(y))
    return tuple(e[: vars_.size])


def q_s(vars_, **exps):
    """The monomial q^(-s), given by its exponents as for ``mono``."""
    return Poly.monomial(vars_, mono(vars_, **exps))


def test_partial_fraction_identity():
    # 1/(1-x1) + 1/(1-x1^-1) = 1
    a = zeta_of(q_s(V1, x=(1,)))
    b = zeta_of(q_s(V1, x=(-1,)))
    assert a + b == RatFun.one(V1)


def test_add_zero_identity():
    f = zeta_of(q_s(V1, x=(1,)))
    assert f + RatFun.zero(V1) == f


def test_add_zero_canonicalizes_common_factor():
    num = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2))
    den = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 1))
    f = RatFun.from_poly(num) / RatFun.from_poly(den)
    g = f + RatFun.zero(V1)
    assert g == RatFun.from_poly(Poly.constant(V1, 1) + Poly.monomial(V1, (0, 1)))


def test_mul_examples():
    one = Poly.constant(V1, 1)
    x = Poly.monomial(V1, (0, 1))
    a = RatFun.from_poly(one - x)
    b = RatFun.from_poly(one + x)
    assert a * b == RatFun.from_poly(one - Poly.monomial(V1, (0, 2)))
    f = zeta_of(q_s(V1, x=(1,)))
    assert f * RatFun.one(V1) == f
    assert f * f.inverse() == RatFun.one(V1)
    # every factor cancels, so the product is held as the unit itself
    fields = ("coeff", "mono", "nfac", "dfac")
    unit, got = RatFun.one(V1), f * f.inverse()
    assert [getattr(got, a) for a in fields] == [getattr(unit, a) for a in fields]


def test_context_mismatch_is_error():
    f = zeta_of(q_s(V1, x=(1,)))
    g = zeta_of(q_s(V, x=(1,)))
    with pytest.raises(ContextMismatchError):
        f + g
    with pytest.raises(ContextMismatchError):
        f * g


def test_zeta_of_examples():
    z = zeta_of(q_s(V, x=(1,)))
    assert z.text() == "(1) / (1 + -1*x1^1)"
    z2 = zeta_of(q_s(V, y=(2,)))
    assert z2.text() == "(1) / (1 + -1*y1^2)"
    z3 = zeta_of(q_s(V, v=1, x=(0, 1), y=(1,)))
    assert z3.text() == "(1) / (1 + -1*v^1*x2^1*y1^1)"


def test_zeta_pole_at_zero():
    with pytest.raises(PoleError):
        zeta_of(q_s(V))
    with pytest.raises(PoleError):
        zeta_inv_of(q_s(V))


def test_evaluate_numeric_examples():
    f = zeta_of(q_s(V1, x=(1,)))
    assert abs(f.eval_at((0.5, 0.0)) - 1.0) < 1e-12
    g = RatFun.from_poly(Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2)))
    assert abs(g.eval_at((0.1, 2.0)) - (-3.0)) < 1e-12


def test_evaluate_canonical_form_at_former_pole():
    # (1-x^2)/(1-x) is kept as built: it equals 1+x and evaluates as 1+x
    # away from x = 1, but its stored denominator still vanishes at x = 1
    num = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2))
    den = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 1))
    f = RatFun.from_poly(num) / RatFun.from_poly(den)
    assert f == RatFun.from_poly(Poly.constant(V1, 1) + Poly.monomial(V1, (0, 1)))
    for x in (0.0, 0.5, 2.0, -3.0, 0.3 + 0.4j):
        assert abs(f.eval_at((0.3, x)) - (1 + x)) < 1e-12
    with pytest.raises(PoleError):
        f.eval_at((0.3, 1.0))


def test_near_pole_reports_magnitude():
    f = zeta_of(q_s(V1, x=(1,)))
    with pytest.raises(PoleError) as err:
        f.eval_at((0.0, 1.0 + 1e-15))
    assert err.value.magnitude is not None


small_coeff = st.integers(min_value=-4, max_value=4)
small_exp = st.integers(min_value=-2, max_value=2)


def poly_strategy(vars_):
    term = st.tuples(
        st.tuples(*[small_exp for _ in range(vars_.size)]), small_coeff
    )
    return st.lists(term, min_size=0, max_size=4).map(
        lambda items: Poly(vars_, {e: Fraction(c) for e, c in items})
    )


@given(poly_strategy(V1), poly_strategy(V1), poly_strategy(V1))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(poly_strategy(V1), poly_strategy(V1))
@settings(max_examples=60, deadline=None)
def test_cancellation_soundness(f, g):
    # (f*g)/g == f exactly, for nonzero g
    if g.is_zero():
        return
    rf = RatFun.from_poly(f)
    rg = RatFun.from_poly(g)
    assert (rf * rg) / rg == rf


@given(poly_strategy(V1), poly_strategy(V1), poly_strategy(V1))
@settings(max_examples=100, deadline=None)
def test_unreduced_forms_compare_and_hash_equal(f, g, h):
    # the same value reached reduced and unreduced: equal and equally hashed
    if g.is_zero() or h.is_zero():
        return
    F, G = RatFun.from_poly(f), RatFun.from_poly(h) / RatFun.from_poly(g)
    for other in (RatFun.from_poly(f * g) / RatFun.from_poly(g), (F + G) - G):
        assert other == F
        assert hash(other) == hash(F)


def test_numeric_symbolic_agreement():
    rng = random.Random(7)
    # the exponents of q^(-s) at s = chi_1, chi_2 + 1/2, chi_1 - chi_2, 2 xi_1,
    # chi_1 + xi_1 + 1/2 and chi_2 - xi_1 + 1
    exps = [
        mono(V, x=(1, 0)),
        mono(V, v=1, x=(0, 1)),
        mono(V, x=(1, -1)),
        mono(V, y=(2,)),
        mono(V, v=1, x=(1, 0), y=(1,)),
        mono(V, v=2, x=(0, 1), y=(-1,)),
    ]
    symbolic = RatFun.one(V)
    for e in exps:
        symbolic = symbolic * zeta_of(Poly.monomial(V, e))
    import cmath

    for _ in range(20):
        pt = tuple(
            0.6 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(V.size)
        )
        direct = 1 + 0j
        for e in exps:
            acc = 1 + 0j
            for base, k in zip(pt, e):
                if k:
                    acc *= base ** k
            direct /= 1 - acc
        assert abs(symbolic.eval_at(pt) - direct) < 1e-10


def test_serialization_deterministic_and_sorted():
    f = zeta_of(q_s(V, x=(1,))) + zeta_of(q_s(V, y=(2,)))
    assert f.text() == f.text()
    # subtraction detects equality through zero
    g = f - f
    assert g.is_zero() and g == RatFun.zero(V)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun.from_poly(Poly.constant(V1, 1)) / RatFun.from_poly(Poly.zero(V1))
    with pytest.raises(ZeroDivisionError):
        RatFun.zero(V1).inverse()


# -- coefficient types: int when integral, Fraction otherwise, never float -----

mixed_coeff = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def mixed_poly(vars_):
    """Sparse Laurent polys whose coefficients are ints and Fractions, some
    of the Fractions integral."""
    term = st.tuples(st.tuples(*[small_exp for _ in range(vars_.size)]), mixed_coeff)
    return st.lists(term, min_size=0, max_size=4).map(
        lambda items: Poly(vars_, {e: c for e, c in items if c}, prune=False)
    )


def _all_fraction(p):
    return Poly(p.vars, {e: Fraction(c) for e, c in p.terms.items()}, prune=False)


def _exact_types(p, integral_inputs):
    """No float anywhere; only ints when every input coefficient was an int."""
    allowed = (int,) if integral_inputs else (int, Fraction)
    return all(type(c) in allowed for c in p.terms.values())


def _ints(*polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def _check_canonical(p):
    coeff, mono, key = canonical_factor(p)
    assert all(type(c) is int for _, c in key)
    assert math.gcd(*(c for _, c in key)) == 1
    assert max(key)[1] > 0
    assert all(min(col) == 0 for col in zip(*(e for e, _ in key)))
    assert Poly.monomial(p.vars, mono, coeff) * Poly(p.vars, dict(key), prune=False) == p
    assert (coeff, mono, key) == canonical_factor(_all_fraction(p))


@given(mixed_poly(V1), mixed_poly(V1), mixed_coeff)
@settings(max_examples=200, deadline=None)
def test_integer_coefficients_stay_exact(a, b, c):
    fa, fb = _all_fraction(a), _all_fraction(b)
    ints = _ints(a, b)
    for got, ref in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)):
        assert _exact_types(got, ints)
        assert got == ref
    one = (0,) * a.vars.size
    scaled = Poly.monomial(a.vars, one, c) * a
    assert _exact_types(scaled, ints and type(c) is int)
    assert scaled == Poly.monomial(a.vars, one, Fraction(c)) * fa
    for p in (a, b, a * b, a + b):
        if p:
            _check_canonical(p)
