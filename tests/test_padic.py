import cmath
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd, inf, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.padic import (
    SympMatrix,
    _mat_mul,
    _reduce_mod_cyclotomic,
    abs_cell_kernel,
    alpha_k,
    beta_l,
    d_torus,
    factor_valuations,
    gauss_shell,
    gauss_shell_measure,
    gauss_shell_numeric,
    gauss_shell_sum,
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
from wscalc.weyl import SignedPerm, character, positive_roots
from wscalc.wsformula import L_value
from wscalc.zetafactors import Context

from references import (
    cyclotomic_remainder,
    gauss_shell_inverse_sum,
    minor_expansion_check,
    weyl_matrix,
)

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


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5) for k in (1, 2, 3, 4)])
def test_cyclotomic_reduction_is_long_division(p, k):
    """Reducing a random integer vector of length p^k modulo Phi_{p^k} block
    by block gives the remainder of long division, and its value at
    zeta = exp(2 pi i / p^k) is the vector's within 1e-12.  Half the vectors
    repeat one block with a few entries changed, so that blocks equal to the
    top one, which the reduction skips, occur too."""
    rng = random.Random(100 * p + k)
    N, b = p ** k, p ** (k - 1)
    step = 2j * cmath.pi / N
    for trial in range(20):
        if trial % 2:
            vec = [rng.randint(-2, 2) for _ in range(b)] * p
            for _ in range(rng.randint(0, 2)):
                vec[rng.randrange(N)] = rng.randint(-2, 2)
        else:
            vec = [rng.randint(-2, 2) for _ in range(N)]
        reduced = _reduce_mod_cyclotomic(vec, p, k)
        remainder = cyclotomic_remainder(vec, p, k)
        assert reduced == {e: c for e, c in enumerate(remainder) if c}
        before = sum(c * cmath.exp(step * u) for u, c in enumerate(vec))
        after = sum(c * cmath.exp(step * e) for e, c in reduced.items())
        assert abs(before - after) < 1e-12


def test_gauss_oracle_stays_under_a_megabyte():
    """The largest case of verify gauss runs over 5^8 = 390,625 residues: one
    byte each keeps the peak under 1 MB, where a list of Python ints would
    need about 3 MB."""
    gauss_shell_numeric(-4, 4, 5)
    tracemalloc.start()
    try:
        gauss_shell_numeric(-4, 4, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- the rank-one Jacquet chain: Gauss shells -> W(t_f) -> L((), (f,)) --------


def _exact_shell(i, j, q):
    """The oracle's value as a Fraction; its sum must be a constant."""
    coeffs = gauss_shell_sum(i, j, q)
    assert not coeffs.keys() - {0}
    return coeffs.get(0, 0) * gauss_shell_measure(i, j, q)


def _jacquet_w(f, x, q, shell, drop=None, delta=lambda f: -f):
    """The Jacquet integral of the spherical vector of Sp(2) split into Gauss
    shells, W(t_f) = x^-f q^-f [1 + sum_{k=1}^{2f+1} x^k q^k shell(2f, k, q)];
    ``drop`` leaves one shell out and ``delta`` replaces the exponent -f."""
    inner = 1 + sum(
        x ** k * q ** k * shell(2 * f, k, q) for k in range(1, 2 * f + 2) if k != drop
    )
    return x ** -f * Fraction(q) ** delta(f) * inner


def _L_exact(L, q, x):
    """A rank-one L's character form at v^2 = 1/q, exactly: v^shift / den(v)
    times sum c v^k chi^B_lam(x).  Every power of v in it must be even."""
    powers = [L.shift] + [k for k, c in enumerate(L.den) if c]
    powers += [k for _, terms in L.form for k, _ in terms]
    assert not any(k % 2 for k in powers)
    v2 = Fraction(1, q)
    den = sum(c * v2 ** (k // 2) for k, c in enumerate(L.den))
    total = 0
    for (lam, _), terms in L.form:
        chi = sum(mult * x ** e for (e,), mult in character(lam, "so"))
        total += sum(c * v2 ** (k // 2) for k, c in terms) * chi
    return v2 ** (L.shift // 2) * total / den


JACQUET_XS = (Fraction(2, 7), Fraction(-3, 5), Fraction(5, 3))
JACQUET_CASES = [(q, x, f) for q in (2, 3, 5) for x in JACQUET_XS for f in range(5)]


def _jacquet_chain_holds(q, x, f, **mutation):
    """W(1) = 1 - x/q, and W(t_f)/W(1) is L((), (f,)) at v = q^-1/2, both
    exactly, with the exact oracle."""
    w1 = _jacquet_w(0, x, q, _exact_shell, **mutation)
    ratio = _jacquet_w(f, x, q, _exact_shell, **mutation) / w1
    return w1 == 1 - x / q and ratio == _L_exact(L_value(Context(1, 0), (), (f,)), q, x)


@pytest.mark.parametrize("q,x,f", JACQUET_CASES)
def test_gauss_shells_chain_to_the_rank_one_value(q, x, f):
    """The brute-force shell sums, put through the rank-one Jacquet
    integral, give L(d, f) at (1, 0): exactly with the exact oracle, and
    within 1e-12 with the complex one against ``LValue.eval_at``."""
    assert _jacquet_chain_holds(q, x, f)
    xf = float(x)
    ratio = _jacquet_w(f, xf, q, gauss_shell_numeric) / _jacquet_w(0, xf, q, gauss_shell_numeric)
    L = L_value(Context(1, 0), (), (f,))
    assert abs(ratio - L.eval_at((q ** -0.5, xf))) < 1e-12


@pytest.mark.parametrize("mutation", [
    {"drop": 1},
    {"delta": lambda f: -(f + 1)},
], ids=["one shell dropped", "q^-f off by one"])
def test_jacquet_chain_fails_on_a_broken_integral(mutation):
    """Leaving out the first shell, or taking q^-(f+1) for q^-f, breaks the
    chain at every case: W(1) is no longer 1 - x/q."""
    assert not any(_jacquet_chain_holds(q, x, f, **mutation) for q, x, f in JACQUET_CASES)
