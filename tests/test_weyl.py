import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc import weyl
from wscalc.ratfun import Poly, Vars
from wscalc.weyl import (
    SignedPerm,
    _divide_binomial,
    alternating_monomial_sum,
    character,
    enumerate_group,
    is_dominant,
    positive_roots,
    reflection,
    root_label,
    simple_roots,
    straighten,
)


def test_enumeration_counts():
    assert len(enumerate_group(1)) == 2
    assert len(enumerate_group(2)) == 8
    assert len(enumerate_group(3)) == 48


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_group(7)


def test_sgn_examples():
    assert SignedPerm((1, 2, 3), (1, 1, 1)).sgn() == 1
    # single sign flip at k=1 is the simple reflection of the long root
    flip = SignedPerm((1,), (-1,))
    assert flip.sgn() == -1
    # longest element at k=2: product of commuting reflections, sgn +1
    assert SignedPerm((1, 2), (-1, -1)).sgn() == 1


def _determinant(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0]) if a
    )


def test_sgn_is_the_determinant():
    """sgn(w) is the determinant of w's signed permutation matrix, which
    sends e_i to flips[image(i)] e_image(i), on all of W(C_3)."""
    for w in enumerate_group(3):
        matrix = [[0] * 3 for _ in range(3)]
        for i, j in enumerate(w.image):
            matrix[j - 1][i] = w.flips[j - 1]
        assert w.sgn() == _determinant(matrix)


def test_sgn_is_minus_one_on_reflections():
    # reflection length parity: every simple reflection has sgn -1
    for k in (1, 2, 3):
        roots = simple_roots(k)
        assert len(roots) == k
        for alpha in roots:
            assert reflection(alpha).sgn() == -1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reflections_of_positive_roots(k):
    """For every positive root alpha of C_k (and of B_k), s_alpha lies in
    W(C_k) with sgn -1, sends alpha to -alpha and fixes every vector
    orthogonal to alpha; the action on vectors is ``embed_remap``."""
    group = set(enumerate_group(k))
    rng = random.Random(k)
    for alpha in positive_roots(k, "sp") + positive_roots(k, "so"):
        s = reflection(alpha)
        assert s in group and s.sgn() == -1
        act = s.embed_remap(k, 0)
        assert act(alpha) == tuple(-a for a in alpha)
        for _ in range(20):
            v = [rng.randint(-3, 3) for _ in range(k)]
            # project v onto alpha-perp, scaled to stay integral
            dot = sum(a * b for a, b in zip(alpha, v))
            norm = sum(a * a for a in alpha)
            perp = tuple(norm * b - dot * a for a, b in zip(alpha, v))
            assert act(perp) == perp
            assert act(act(tuple(v))) == tuple(v)


def test_simple_roots_and_labels():
    assert simple_roots(0) == []
    assert simple_roots(3) == [(1, -1, 0), (0, 1, -1), (0, 0, 2)]
    assert [root_label(a) for a in simple_roots(3)] == ["e1-e2", "e2-e3", "2e3"]
    assert [root_label(a) for a in positive_roots(2, "so")] == ["e1", "e2", "e1-e2", "e1+e2"]


def test_act_on_point_examples():
    pt = (2.0, 3.0)
    assert SignedPerm((1, 2), (1, 1)).act_on_point(pt) == pt
    assert SignedPerm((1, 2), (-1, -1)).act_on_point(pt) == (0.5, 1 / 3.0)
    swap = SignedPerm((2, 1), (1, 1))
    assert swap.act_on_point(pt) == (3.0, 2.0)


def test_point_action_is_group_action():
    """Acting by b and then by a is the action of one element of W(C_2):
    the set of point actions is closed under composition."""
    ws = enumerate_group(2)
    pt = (2.0, 5.0)
    actions = {w.act_on_point(pt) for w in ws}
    assert len(actions) == len(ws)  # pt is regular, so w is read off its image
    for a in ws:
        for b in ws:
            assert a.act_on_point(b.act_on_point(pt)) in actions


def test_exponent_action_matches_point_action():
    """Substituting ``act_on_point`` into x^mu gives x^(w*mu), with w*mu the
    exponent remap ``embed_remap``."""
    rng = random.Random(3)
    for w in enumerate_group(3):
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        pt = (2.0, 3.0, 5.0)
        direct = 1.0
        for base, e in zip(w.act_on_point(pt), mu):
            direct *= base ** e
        remapped = 1.0
        for base, e in zip(pt, w.embed_remap(3, 0)(mu)):
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


# -- Weyl characters --------------------------------------------------------


def _rho2(k, group):
    """Doubled rho: (2k-1, ..., 1) for SO(2k+1), (2k, ..., 2) for Sp(2k)."""
    return tuple(2 * (k - i) - (group == "so") for i in range(k))


def _dominant_weights(k, bound=3):
    return [lam for lam in product(range(bound + 1), repeat=k) if is_dominant(lam)]


def _weyl_dimension(lam, group):
    """prod over positive roots of <lam+rho, alpha> / <rho, alpha>; the long or
    short roots e_i, 2e_i give the same ratio, (lam+rho)_i / rho_i."""
    rho = [Fraction(r, 2) for r in _rho2(len(lam), group)]
    top = [a + r for a, r in zip(lam, rho)]
    dim = Fraction(1)
    for i in range(len(lam)):
        dim *= top[i] / rho[i]
        for j in range(i + 1, len(lam)):
            dim *= (top[i] - top[j]) * (top[i] + top[j]) / ((rho[i] - rho[j]) * (rho[i] + rho[j]))
    return dim


@pytest.mark.parametrize("group", ["so", "sp"])
def test_character_times_denominator_is_the_alternant(group):
    """chi_lam * A(x^rho) == A(x^(lam+rho)) by multiplication, on doubled
    exponents, and chi_lam(1) is Weyl's dimension, for k <= 3 and every
    dominant lam with entries <= 3."""
    for k in (1, 2, 3):
        V = Vars(k, 0)
        rho2 = _rho2(k, group)
        denom = alternating_monomial_sum(V, (0,) + rho2, 1, k)
        for lam in _dominant_weights(k):
            chi = character(lam, group)
            doubled = Poly(V, {(0,) + tuple(2 * a for a in e): c for e, c in chi})
            top = (0,) + tuple(2 * a + r for a, r in zip(lam, rho2))
            assert doubled * denom == alternating_monomial_sum(V, top, 1, k)
            assert sum(c for _, c in chi) == _weyl_dimension(lam, group)


@pytest.fixture
def clean_characters():
    """Clear the character cache around a test that corrupts its input."""
    character.cache_clear()
    yield
    character.cache_clear()


@pytest.mark.parametrize("group", ["so", "sp"])
def test_corrupted_alternant_fails_to_divide(group, monkeypatch, clean_characters):
    """One wrong coefficient of A(x^(lam+rho)) makes every binomial division
    inexact, and ``character`` raises instead of returning a character."""
    k, lam = 3, (2, 1, 0)
    V = Vars(k, 0)
    top = (0,) + tuple(2 * a + r for a, r in zip(lam, _rho2(k, group)))
    alt = {e[1:]: c for e, c in alternating_monomial_sum(V, top, 1, k).terms.items()}
    bad = dict(alt)
    bad[max(bad)] += 1
    for alpha in weyl.positive_roots(k, group):
        assert _divide_binomial(alt, alpha) is not None
        assert _divide_binomial(bad, alpha) is None

    def corrupted(vars_, mu, offset, k_):
        poly = alternating_monomial_sum(vars_, mu, offset, k_)
        if mu != top:
            return poly
        terms = dict(poly.terms)
        terms[max(terms)] += 1
        return Poly(vars_, terms)

    monkeypatch.setattr(weyl, "alternating_monomial_sum", corrupted)
    with pytest.raises(AssertionError):
        character(lam, group)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            st.sampled_from(weyl.positive_roots(k, "so") + weyl.positive_roots(k, "sp")),
            st.dictionaries(
                st.tuples(*[st.integers(-3, 3)] * k), st.integers(-4, 4), max_size=6
            ),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_binomial_division_inverts_multiplication(case):
    """(Q * (X^alpha - X^-alpha)) / (X^alpha - X^-alpha) == Q, with the product
    formed by Poly multiplication."""
    alpha, q = case
    k = len(alpha)
    V = Vars(k, 0)
    quot = Poly(V, {(0,) + e: c for e, c in q.items()})
    binomial = Poly(V, {(0,) + alpha: 1, (0,) + tuple(-a for a in alpha): -1})
    prod = {e[1:]: c for e, c in (quot * binomial).terms.items()}
    assert _divide_binomial(prod, alpha) == {e[1:]: c for e, c in quot.terms.items()}
