import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.ratfun import (
    ContextMismatchError,
    LinearForm,
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


def test_partial_fraction_identity():
    # 1/(1-x1) + 1/(1-x1^-1) = 1
    a = zeta_of(LinearForm.chi_term(V1, 1))
    b = zeta_of(LinearForm.chi_term(V1, 1, -1))
    assert a + b == RatFun.one(V1)


def test_add_zero_identity():
    f = zeta_of(LinearForm.chi_term(V1, 1))
    assert f + RatFun.zero(V1) == f


def test_add_zero_canonicalizes_common_factor():
    num = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2))
    den = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 1))
    f = RatFun.from_num_den(num, den)
    g = f + RatFun.zero(V1)
    assert g == RatFun.from_poly(Poly.constant(V1, 1) + Poly.monomial(V1, (0, 1)))


def test_mul_examples():
    one = Poly.constant(V1, 1)
    x = Poly.monomial(V1, (0, 1))
    a = RatFun.from_poly(one - x)
    b = RatFun.from_poly(one + x)
    assert a * b == RatFun.from_poly(one - Poly.monomial(V1, (0, 2)))
    f = zeta_of(LinearForm.chi_term(V1, 1))
    assert f * RatFun.one(V1) == f
    assert f * f.inverse() == RatFun.one(V1)
    assert (f * f.inverse()).is_one()


def test_context_mismatch_is_error():
    f = zeta_of(LinearForm.chi_term(V1, 1))
    g = zeta_of(LinearForm.chi_term(V, 1))
    with pytest.raises(ContextMismatchError):
        f + g
    with pytest.raises(ContextMismatchError):
        f * g


def test_monomial_of_linear_form():
    assert LinearForm.chi_term(V, 1).monomial() == mono(V, x=(1, 0))
    s = LinearForm.chi_term(V, 1) + LinearForm.xi_term(V, 1) + Fraction(1, 2)
    assert s.monomial() == mono(V, v=1, x=(1, 0), y=(1,))
    assert (LinearForm.xi_term(V, 1) * 2).monomial() == mono(V, y=(2,))


def test_zeta_of_examples():
    z = zeta_of(LinearForm.chi_term(V, 1))
    assert z.text() == "(1) / (1 + -1*x1^1)"
    z2 = zeta_of(LinearForm.xi_term(V, 1) * 2)
    assert z2.text() == "(1) / (1 + -1*y1^2)"
    z3 = zeta_of(LinearForm.chi_term(V, 2) + LinearForm.xi_term(V, 1) + Fraction(1, 2))
    assert z3.text() == "(1) / (1 + -1*v^1*x2^1*y1^1)"


def test_zeta_pole_at_zero():
    with pytest.raises(PoleError):
        zeta_of(LinearForm(V))
    with pytest.raises(PoleError):
        zeta_inv_of(LinearForm(V))


def test_evaluate_numeric_examples():
    f = zeta_of(LinearForm.chi_term(V1, 1))
    assert abs(f.eval_at((0.5, 0.0)) - 1.0) < 1e-12
    g = RatFun.from_poly(Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2)))
    assert abs(g.eval_at((0.1, 2.0)) - (-3.0)) < 1e-12


def test_evaluate_canonical_form_at_former_pole():
    # (1-x^2)/(1-x) is kept as built: it equals 1+x and evaluates as 1+x
    # away from x = 1, but its stored denominator still vanishes at x = 1
    num = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 2))
    den = Poly.constant(V1, 1) - Poly.monomial(V1, (0, 1))
    f = RatFun.from_num_den(num, den)
    assert f == RatFun.from_poly(Poly.constant(V1, 1) + Poly.monomial(V1, (0, 1)))
    for x in (0.0, 0.5, 2.0, -3.0, 0.3 + 0.4j):
        assert abs(f.eval_at((0.3, x)) - (1 + x)) < 1e-12
    with pytest.raises(PoleError):
        f.eval_at((0.3, 1.0))


def test_near_pole_reports_magnitude():
    f = zeta_of(LinearForm.chi_term(V1, 1))
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
    F, G = RatFun.from_poly(f), RatFun.from_num_den(h, g)
    for other in (RatFun.from_poly(f * g) / RatFun.from_poly(g), (F + G) - G):
        assert other == F
        assert hash(other) == hash(F)


def test_numeric_symbolic_agreement():
    rng = random.Random(7)
    forms = [
        LinearForm.chi_term(V, 1),
        LinearForm.chi_term(V, 2) + Fraction(1, 2),
        LinearForm.chi_term(V, 1) - LinearForm.chi_term(V, 2),
        LinearForm.xi_term(V, 1) * 2,
        LinearForm.chi_term(V, 1) + LinearForm.xi_term(V, 1) + Fraction(1, 2),
        LinearForm.chi_term(V, 2) - LinearForm.xi_term(V, 1) + 1,
    ]
    symbolic = RatFun.one(V)
    for s in forms:
        symbolic = symbolic * zeta_of(s)
    import cmath

    for _ in range(20):
        pt = tuple(
            0.6 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(V.size)
        )
        direct = 1 + 0j
        for s in forms:
            acc = 1 + 0j
            for base, k in zip(pt, s.monomial()):
                if k:
                    acc *= base ** k
            direct /= 1 - acc
        assert abs(symbolic.eval_at(pt) - direct) < 1e-10


def test_serialization_deterministic_and_sorted():
    f = zeta_of(LinearForm.chi_term(V, 1)) + zeta_of(LinearForm.xi_term(V, 1) * 2)
    assert f.text() == f.text()
    # subtraction detects equality through zero
    g = f - f
    assert g.is_zero() and g == RatFun.zero(V)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun.from_num_den(Poly.constant(V1, 1), Poly.zero(V1))
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
    assert Poly(p.vars, dict(key), prune=False).shift(mono).scale(coeff) == p
    assert (coeff, mono, key) == canonical_factor(_all_fraction(p))


@given(mixed_poly(V1), mixed_poly(V1), mixed_coeff)
@settings(max_examples=200, deadline=None)
def test_integer_coefficients_stay_exact(a, b, c):
    fa, fb = _all_fraction(a), _all_fraction(b)
    ints = _ints(a, b)
    for got, ref in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)):
        assert _exact_types(got, ints)
        assert got == ref
    scaled = a.scale(c)
    assert _exact_types(scaled, ints and type(c) is int)
    assert scaled == fa.scale(Fraction(c))
    for p in (a, b, a * b, a + b):
        if p:
            _check_canonical(p)
