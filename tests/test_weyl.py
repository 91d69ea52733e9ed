import random
from fractions import Fraction

import pytest

from wscalc.ratfun import Poly, Vars
from wscalc.weyl import (
    SignedPerm,
    alternating_monomial_sum,
    enumerate_group,
    straighten,
)
from wscalc.zetafactors import Context, simple_roots_G


def test_enumeration_counts():
    assert len(enumerate_group(1)) == 2
    assert len(enumerate_group(2)) == 8
    assert len(enumerate_group(3)) == 48


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_group(7)


def test_group_axioms_exhaustive():
    for k in (1, 2, 3):
        ws = enumerate_group(k)
        assert len(set(ws)) == len(ws)  # closure under distinctness
        ident = SignedPerm.identity(k)
        for a in ws:
            assert a * a.inverse() == ident
            assert a.inverse() * a == ident
        if k <= 2:
            for a in ws:
                for b in ws:
                    assert (a * b) in set(ws)
                    for c in ws:
                        assert (a * b) * c == a * (b * c)


def test_sgn_examples():
    assert SignedPerm.identity(3).sgn() == 1
    # single sign flip at k=1 is the simple reflection of the long root
    flip = SignedPerm((1,), (-1,))
    assert flip.sgn() == -1
    # longest element at k=2: product of commuting reflections, sgn +1
    assert SignedPerm.longest(2).sgn() == 1


def test_sgn_multiplicative():
    for k in (1, 2):
        ws = enumerate_group(k)
        for a in ws:
            for b in ws:
                assert (a * b).sgn() == a.sgn() * b.sgn()


def test_sgn_is_minus_one_on_reflections():
    # reflection length parity: every simple reflection has sgn -1
    for k in (1, 2, 3):
        ctx = Context(k, 0)
        roots = simple_roots_G(ctx)
        assert len(roots) == k
        for root in roots:
            assert root.reflection(ctx).sgn() == -1


def test_act_on_point_examples():
    pt = (2.0, 3.0)
    assert SignedPerm.identity(2).act_on_point(pt) == pt
    assert SignedPerm.longest(2).act_on_point(pt) == (0.5, 1 / 3.0)
    swap = SignedPerm((2, 1), (1, 1))
    assert swap.act_on_point(pt) == (3.0, 2.0)


def test_point_action_is_group_action():
    ws = enumerate_group(2)
    pt = (2.0, 5.0)
    for a in ws:
        for b in ws:
            assert a.act_on_point(b.act_on_point(pt)) == (a * b).act_on_point(pt)


def test_exponent_action_matches_point_action():
    rng = random.Random(3)
    for w in enumerate_group(3):
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        pt = (2.0, 3.0, 5.0)
        direct = 1.0
        for base, e in zip(w.act_on_point(pt), mu):
            direct *= base ** e
        remapped = 1.0
        for base, e in zip(pt, w.act_on_exponents(mu)):
            remapped *= base ** e
        assert abs(direct - remapped) < 1e-9


def test_antisymmetrize_constant_is_zero():
    # the signed sum of a constant over W(C_2) is sum_w sgn(w) = 0
    assert sum(w.sgn() for w in enumerate_group(2)) == 0


def test_antisymmetrize_nonregular_vanishes():
    V = Vars(2, 0)
    for mu in [(1, 1), (0, 2), (2, -2)]:
        assert alternating_monomial_sum(V, (0,) + mu, 1, 2).is_zero()
        assert straighten(mu) is None


def test_regular_orbit_has_full_term_count():
    V = Vars(3, 0)
    poly = alternating_monomial_sum(V, (0, 3, 2, 1), 1, 3)
    assert len(poly.terms) == 48


def test_weyl_denominator_factorization_k2():
    # brute-force A(x^(2,1)) against the type-C denominator product, up to sign
    V = Vars(2, 0)
    alt = alternating_monomial_sum(V, (0, 2, 1), 1, 2)
    one = Poly.constant(V, 1)

    def monp(e):
        return Poly.monomial(V, e)

    prod = monp((0, 2, 1))
    prod = prod * (one - monp((0, -1, 1)))
    prod = prod * (one - monp((0, -1, -1)))
    prod = prod * (one - monp((0, -2, 0)))
    prod = prod * (one - monp((0, 0, -2)))
    assert alt == prod or alt == -prod


def test_antisymmetry_of_composed_function():
    # A(f o w) = sgn(w) A(f) on random monomials, k <= 2
    rng = random.Random(11)
    V = Vars(2, 0)
    for _ in range(10):
        mu = (0, rng.randint(-3, 3), rng.randint(-3, 3))
        base = alternating_monomial_sum(V, mu, 1, 2)
        for w in enumerate_group(2):
            remap = w.embed_remap(V.size, 1)
            composed = alternating_monomial_sum(V, remap(mu), 1, 2)
            expect = base if w.sgn() == 1 else -base
            assert composed == expect
