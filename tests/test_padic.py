import itertools
import random
from fractions import Fraction
from math import gcd, inf, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.padic import (
    SympMatrix,
    _mat_mul,
    abs_cell_kernel,
    alpha_k,
    beta_l,
    d_torus,
    factor_valuations,
    gauss_shell,
    gauss_shell_numeric,
    j_elem,
    lam_element,
    minor,
    random_cell_element,
    random_rational,
    random_torus_values,
    random_unipotent_MJ,
    random_unipotent_U,
    random_upper_unipotent_G,
    root_generator,
    symplectic_form,
    valuation,
    w0_element,
    x_elem,
    y_elem,
    z_elem,
)
from wscalc.weyl import SignedPerm, positive_roots

from references import gauss_shell_inverse_sum, minor_expansion_check, weyl_matrix

P = 3


def test_valuation_axioms():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a:
            va = valuation(a, P)
        if b:
            vb = valuation(b, P)
        if a and b:
            assert valuation(a * b, P) == va + vb
            if a + b:
                assert valuation(a + b, P) >= min(va, vb)
    assert valuation(0, P) == inf
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(2, 27), 3) == -3


def test_constructors_are_symplectic():
    rng = random.Random(11)
    for n, m in [(2, 1), (3, 2), (3, 1), (4, 2)]:
        w0_element(n)
        lam_element(n, m)
        d_torus(n, random_torus_values(rng, P, n))
        random_upper_unipotent_G(n, rng, P)
        random_unipotent_MJ(n, m, rng, P)
        random_unipotent_U(n, m, rng, P)
        xs = [random_rational(rng, P) for _ in range(m)]
        j_elem(n, m, xs, xs[::-1], random_rational(rng, P))


def _dense_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _dense_preserves_form(g):
    """The reference test g^T S g == S with two dense products."""
    S = symplectic_form(g.n)
    return _dense_mul(tuple(zip(*g.entries)), _dense_mul(S, g.entries)) == S


@st.composite
def sparse_pair(draw):
    """Two N x N Fraction matrices, 2 <= N <= 10, holding at most 2N nonzeros each."""
    N = draw(st.integers(2, 10))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)

    def matrix():
        ent = [[Fraction(0)] * N for _ in range(N)]
        cells = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), nonzero)
        for i, j, x in draw(st.lists(cells, max_size=2 * N)):
            ent[i][j] = x
        return tuple(tuple(row) for row in ent)

    return matrix(), matrix()


def _over_den(a):
    """A Fraction matrix as integer rows over the lcm of its denominators."""
    den = lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in a), den


@given(sparse_pair())
@settings(max_examples=100, deadline=None)
def test_sparse_mat_mul_matches_dense(pair):
    """The integer product of the rows, over the product of the
    denominators, is the dense Fraction product."""
    a, b = pair
    (ra, da), (rb, db) = _over_den(a), _over_den(b)
    prod = _mat_mul(ra, rb)
    assert all(type(x) is int for row in prod for x in row)
    assert tuple(tuple(Fraction(x, da * db) for x in row) for row in prod) == _dense_mul(a, b)


def _factory_elements(rng):
    n, m = 3, 2
    yield w0_element(n)
    yield lam_element(n, m)
    yield d_torus(n, random_torus_values(rng, P, n))
    yield weyl_matrix(n, SignedPerm((2, 3, 1), (1, -1, 1)))
    for alpha in ((1, 0, -1), (1, 0, 1), (0, 2, 0)):
        for sign in (1, -1):
            yield root_generator(n, tuple(sign * a for a in alpha), random_rational(rng, P))
    xs = [random_rational(rng, P) for _ in range(m)]
    yield j_elem(n, m, xs, xs[::-1], random_rational(rng, P))
    yield random_cell_element(n, m, rng, P)[0]


def test_products_are_reduced_and_match_dense():
    """Products of factory elements equal the dense Fraction product and hold
    gcd-reduced integer rows over a positive denominator, so that equal
    matrices compare equal."""
    rng = random.Random(17)
    elements = list(_factory_elements(rng))
    for g, h in itertools.product(elements, repeat=2):
        gh = g * h
        assert gh.entries == _dense_mul(g.entries, h.entries)
        assert gh.den > 0 and gcd(gh.den, *itertools.chain.from_iterable(gh.rows)) == 1
        assert gh == SympMatrix(g.n, gh.entries)
        assert gh[1, 2] == gh.entries[0][1]


def test_form_check_matches_dense_and_catches_one_entry():
    """On factory elements the one-product check agrees with g^T S g == S.
    Adding 1 to entry (i, j) of a symplectic g keeps the form only when
    g^T S e_i is a multiple of e_j, so in every row, upper half and lower
    half alike, at most one perturbed entry may pass."""
    rng = random.Random(13)
    for g in _factory_elements(rng):
        assert g.preserves_form() and _dense_preserves_form(g)
        N = 2 * g.n
        for i in range(N):
            rejected = 0
            for j in range(N):
                ent = [list(row) for row in g.entries]
                ent[i][j] += 1
                h = SympMatrix(g.n, ent, check=False)
                assert h.preserves_form() == _dense_preserves_form(h)
                rejected += not h.preserves_form()
            assert rejected >= N - 1


def test_root_generators_are_root_subgroups():
    """For every root alpha of C_n and its negative, E_alpha(u) is symplectic,
    upper unitriangular exactly when alpha is positive, and the torus acts on
    it through the character: d(t) E_alpha(u) d(t)^-1 = E_alpha(t^alpha u)."""
    rng = random.Random(19)
    for n in (1, 2, 3, 4):
        ts = random_torus_values(rng, P, n)
        d, d_inv = d_torus(n, ts), d_torus(n, [1 / t for t in ts])
        for alpha in positive_roots(n, "sp"):
            for sign in (1, -1):
                root = tuple(sign * a for a in alpha)
                u = random_rational(rng, P)
                e = root_generator(n, root, u)
                below = any(e[i, j] for i in range(1, 2 * n + 1) for j in range(1, i))
                assert below == (sign < 0)
                scale = prod(Fraction(t) ** a for t, a in zip(ts, root))
                assert d * e * d_inv == root_generator(n, root, scale * u)


def test_form_check_rejects_non_symplectic():
    bad = [[Fraction(1) if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    bad[0][0] = Fraction(2)
    with pytest.raises(ValueError):
        SympMatrix(2, bad)
    SympMatrix(2, bad, check=False)  # raw matrices may skip the check


def test_minor_basics():
    g = SympMatrix.identity(2)
    assert minor(g, (1,), (1,)) == 1
    rng = random.Random(2)
    ent = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
    g = SympMatrix(2, ent, check=False)
    # swapping two rows of I negates the value
    assert minor(g, (1, 2), (3, 4)) == -minor(g, (2, 1), (3, 4))
    # 2x2 generic block is ad - bc
    assert minor(g, (1, 2), (1, 2)) == ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]
    with pytest.raises(ValueError):
        minor(g, (1, 2), (1,))


def test_alpha_on_w0_never_vanishes():
    for n in (1, 2, 3):
        w0 = w0_element(n)
        assert all(alpha_k(w0, k) for k in range(1, n + 1))


def test_w0_outside_open_cell():
    # beta vanishes on w0 = w0 X(0), so membership fails for m >= 1
    for n, m in [(2, 1), (3, 2)]:
        w0 = w0_element(n)
        assert all(beta_l(w0, l, m) == 0 for l in range(1, m + 1))
        assert factor_valuations(w0, m, P) is None


def test_beta_on_standard_section():
    # |beta_l(w0 X(r))| = |r_l|
    rng = random.Random(5)
    for n, m in [(2, 1), (3, 2)]:
        for _ in range(10):
            rs = [random_rational(rng, P) for _ in range(m)]
            g = w0_element(n) * x_elem(n, m, rs)
            for l in range(1, m + 1):
                assert abs(beta_l(g, l, m)) == abs(rs[l - 1])


def test_alpha_invariances_random():
    # lemma properties (1) and (2) on seeded random elements
    rng = random.Random(77)
    for n, m in [(2, 1), (3, 2)]:
        for _ in range(8):
            g, _, _ = random_cell_element(n, m, rng, P)
            n1 = random_upper_unipotent_G(n, rng, P)
            n2 = random_upper_unipotent_G(n, rng, P)
            for k in range(1, n + 1):
                assert alpha_k(n1 * g * n2, k) == alpha_k(g, k)
            t2 = random_torus_values(rng, P, n)
            s2 = random_torus_values(rng, P, n)
            gg = d_torus(n, t2) * g * d_torus(n, s2)
            for k in range(1, n + 1):
                scale = Fraction(1)
                for i in range(k):
                    scale *= s2[i] / t2[i]
                assert alpha_k(gg, k) == scale * alpha_k(g, k)


def test_beta_invariances_random():
    # lemma properties (1), (2), (3) of the beta minors
    rng = random.Random(78)
    for n, m in [(2, 1), (3, 2)]:
        for _ in range(8):
            g, _, _ = random_cell_element(n, m, rng, P)
            n1 = random_upper_unipotent_G(n, rng, P)
            nmj = random_unipotent_MJ(n, m, rng, P)
            u = random_unipotent_U(n, m, rng, P)
            for l in range(1, m + 1):
                assert beta_l(n1 * g, l, m) == beta_l(g, l, m)
                assert beta_l(g * nmj * u, l, m) == beta_l(g, l, m)
            t2 = random_torus_values(rng, P, n)
            sm = random_torus_values(rng, P, m)
            gg = d_torus(n, t2) * g * d_torus(n, [Fraction(1)] * (n - m) + sm)
            for l in range(1, m + 1):
                scale = Fraction(1)
                for i in range(n - m):
                    scale /= t2[i]
                for j in range(1, l):
                    scale /= t2[n - m + j - 1]
                for j in range(1, l + 1):
                    scale *= sm[j - 1]
                assert beta_l(gg, l, m) == scale * beta_l(g, l, m)


def test_factor_valuations_constructive_oracle():
    rng = random.Random(42)
    for n, m in [(2, 1), (3, 2)]:
        for _ in range(15):
            g, ts, ss = random_cell_element(n, m, rng, P)
            assert factor_valuations(g, m, P) == (
                tuple(valuation(t, P) for t in ts),
                tuple(valuation(s, P) for s in ss),
            )


def test_abs_cell_kernel_constructive_oracle():
    rng = random.Random(43)
    for n, m in [(2, 1), (3, 2)]:
        for _ in range(15):
            g, ts, ss = random_cell_element(n, m, rng, P)
            chi = [Fraction(rng.randint(-6, 6), 2) for _ in range(n)]
            xi = [Fraction(rng.randint(-6, 6), 2) for _ in range(m)]
            E = abs_cell_kernel(g, m, P, chi, xi)
            expect = Fraction(0)
            for i, t in enumerate(ts, 1):
                expect += -valuation(t, P) * (-chi[i - 1] + (n - i + 1))
            for j, s in enumerate(ss, 1):
                expect += -valuation(s, P) * (xi[j - 1] - (m - j + Fraction(3, 2)))
            assert E == expect


def test_abs_cell_kernel_outside_cell_and_units():
    n, m = 3, 2
    w0 = w0_element(n)
    assert abs_cell_kernel(w0, m, P, [0] * n, [0] * m) is None
    g = w0 * lam_element(n, m)
    assert abs_cell_kernel(g, m, P, [0] * n, [0] * m) == 0


def test_minor_expansion():
    rng = random.Random(7)

    def rnd():
        return SympMatrix(
            2,
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)],
            check=False,
        )

    for _ in range(5):
        assert minor_expansion_check(rnd(), rnd(), rnd(), (1, 3), (2, 4))
        assert minor_expansion_check(rnd(), rnd(), rnd(), (2,), (3,))
    ident = SympMatrix.identity(2)
    assert minor_expansion_check(rnd(), ident, rnd(), (1, 2), (3, 4))
    with pytest.raises(ValueError):
        minor_expansion_check(rnd(), rnd(), rnd(), (1, 2, 3, 4), (1, 2, 3, 4))


def test_gauss_shell_closed_form():
    q = 3
    assert gauss_shell(0, 0, q) == 1 - Fraction(1, q)
    assert gauss_shell(0, 1, q) == -Fraction(1, q * q)
    assert gauss_shell(0, 3, q) == 0
    assert gauss_shell(2, 1, q) == Fraction(1, q) * (1 - Fraction(1, q))


def test_gauss_shell_numeric_oracle_small():
    for q in (3, 5):
        for i, j in itertools.product(range(-2, 3), repeat=2):
            closed = complex(gauss_shell(i, j, q))
            assert abs(closed - gauss_shell_numeric(i, j, q)) < 1e-9


def test_gauss_shell_numeric_matches_inverse_sum():
    """Summing psi(u / p^k) over the units agrees with the literal sum of
    psi(u^-1 / p^k) on every case of ``verify gauss`` with q^(j-i) <= 5^6,
    so the reindexing by u -> u^-1 is checked, not trusted."""
    checked = 0
    for q in (3, 5):
        for i, j in itertools.product(range(-4, 5), repeat=2):
            if q ** (j - i) <= 5 ** 6:
                assert abs(gauss_shell_numeric(i, j, q) - gauss_shell_inverse_sum(i, j, q)) < 1e-12
                checked += 1
    assert checked == 2 * 81 - 3  # q = 5 leaves out j - i = 7, 8


@pytest.mark.parametrize("q", [1, 4, 6])
def test_gauss_shell_numeric_refuses_non_prime_q(q):
    """For q = 4 the residues not divisible by q include 2, which is not a
    unit of Z/4^M, so the reindexed sum would add up non-units; the oracle
    refuses q that is not prime, also at k = 0 where no residue is
    inverted."""
    with pytest.raises(ValueError):
        gauss_shell_numeric(0, 0, q)
