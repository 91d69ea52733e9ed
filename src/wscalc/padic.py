"""Concrete matrix-level calculus over Q with the p-adic absolute value.

Everything here is exact: matrices have Fraction entries, minors are exact
determinants, and p-adic sizes are tracked through valuations.  The dense
subfield Q of Q_p suffices because every identity tested (minor invariance,
torus equivariance, the open-cell kernel formula) is polynomial or
valuation-theoretic.  Matrix products skip zero entries, since the factory
elements are mostly identity.  The Gauss-shell oracle sums its character
over integer residues: the p-adic fractional part it needs is a modular
inverse over a power of p.

The symplectic group Sp_2n is realized with respect to the form
S[i, 2n+1-i] = 1 for i <= n and -1 for i > n (1-indexed), the convention
under which the standard Borel is upper triangular, the torus is
d_n(t) = diag(t_1..t_n, t_n^-1..t_1^-1), and the Heisenberg coordinates
J(x, y, z) take the block shape [[1, x, y, z], [0, 1, 0, y^t],
[0, 0, 1, -x^t], [0, 0, 0, 1]] inside Sp_{2m+2}.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

__all__ = [
    "PValued",
    "valuation",
    "SympMatrix",
    "symplectic_form",
    "d_torus",
    "w0_element",
    "weyl_matrix",
    "j_elem",
    "x_elem",
    "y_elem",
    "z_elem",
    "lam_element",
    "root_generator",
    "positive_roots_sp",
    "random_rational",
    "random_upper_unipotent_G",
    "random_unipotent_MJ",
    "random_unipotent_U",
    "random_torus_values",
    "random_cell_element",
    "minor",
    "alpha_k",
    "beta_l",
    "CellFactorization",
    "factor_valuations",
    "abs_cell_kernel",
    "minor_expansion_check",
    "gauss_shell",
    "gauss_shell_numeric",
]


def valuation(x, p):
    """The normalized p-adic valuation of a rational; v(0) = +infinity."""
    x = Fraction(x)
    if x == 0:
        return inf
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


class PValued:
    """An exact rational carrying its prime, with valuation access."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = Fraction(value)
        self.p = p

    def valuation(self):
        return valuation(self.value, self.p)

    def is_zero(self):
        return self.value == 0

    def _coerce(self, other):
        if isinstance(other, PValued):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other.value
        return Fraction(other)

    def __add__(self, other):
        return PValued(self.value + self._coerce(other), self.p)

    def __sub__(self, other):
        return PValued(self.value - self._coerce(other), self.p)

    def __mul__(self, other):
        return PValued(self.value * self._coerce(other), self.p)

    def __truediv__(self, other):
        return PValued(self.value / self._coerce(other), self.p)

    def __neg__(self):
        return PValued(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, PValued):
            return self.p == other.p and self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return "PValued(%s, p=%d)" % (self.value, self.p)


@lru_cache(maxsize=None)
def symplectic_form(n):
    """The Gram matrix: antidiagonal 1s in the top half, -1s in the bottom."""
    N = 2 * n
    rows = []
    for i in range(1, N + 1):
        row = [Fraction(0)] * N
        row[N - i] = Fraction(1) if i <= n else Fraction(-1)
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(a, b):
    """The exact product a*b, touching only nonzero entries: factory elements
    are mostly identity plus a few entries, so dense products waste most of
    their Fraction operations on zeros."""
    N = len(b[0])
    zero = Fraction(0)
    out = []
    for ra in a:
        row = [zero] * N
        for k, x in enumerate(ra):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        row[j] += x * y
        out.append(tuple(row))
    return tuple(out)


class SympMatrix:
    """A 2n x 2n matrix of exact rationals, checked against the form.

    Factory-built elements are verified on construction; raw matrices may
    skip the check with check=False (needed e.g. for non-group scratch
    matrices in the minor-expansion lemma).
    """

    __slots__ = ("n", "p", "entries")

    def __init__(self, n, entries, p, check=True):
        self.n = n
        self.p = p
        N = 2 * n
        # products arrive as Fractions already; re-wrapping them would cost
        # as much as a sparse product
        entries = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in entries
        )
        if len(entries) != N or any(len(row) != N for row in entries):
            raise ValueError("entries must form a 2n x 2n matrix")
        self.entries = entries
        if check and not self.preserves_form():
            raise ValueError("matrix does not preserve the symplectic form")

    def preserves_form(self):
        """g^T S g == S, with S g formed by permuting rows: S g is g's rows
        reversed, the lower half negated."""
        n = self.n
        g = self.entries
        rev = g[::-1]
        sg = rev[:n] + tuple(tuple(-x for x in row) for row in rev[n:])
        return _mat_mul(tuple(zip(*g)), sg) == symplectic_form(n)

    @classmethod
    def identity(cls, n, p):
        N = 2 * n
        return cls(
            n,
            [[Fraction(1) if i == j else Fraction(0) for j in range(N)] for i in range(N)],
            p,
            check=False,
        )

    def __mul__(self, other):
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if self.n != other.n or self.p != other.p:
            raise ValueError("size or prime mismatch")
        return SympMatrix(self.n, _mat_mul(self.entries, other.entries), self.p, check=False)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]  # 1-indexed access

    def __eq__(self, other):
        return (
            isinstance(other, SympMatrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __repr__(self):
        return "SympMatrix(n=%d, p=%d)" % (self.n, self.p)


# -- element constructors ---------------------------------------------------


def d_torus(n, ts, p):
    """d_k(t_1..t_k) = diag(I_{n-k}, t_1..t_k, t_k^-1..t_1^-1, I_{n-k})."""
    ts = [Fraction(t) for t in ts]
    k = len(ts)
    if k > n:
        raise ValueError("too many torus entries")
    N = 2 * n
    diag = [Fraction(1)] * (n - k) + ts
    diag = diag + [Fraction(1) / t for t in reversed(diag)]
    ent = [[diag[i] if i == j else Fraction(0) for j in range(N)] for i in range(N)]
    return SympMatrix(n, ent, p)


def w0_element(n, p):
    """The longest Weyl element, realized as the form matrix itself."""
    return SympMatrix(n, symplectic_form(n), p)


def j_elem(n, m, x, y, z, p):
    """J(x, y, z) of the Heisenberg group inside H = Sp_{2m+2} inside G."""
    x = [Fraction(a) for a in x]
    y = [Fraction(a) for a in y]
    if len(x) != m or len(y) != m:
        raise ValueError("x and y must have length m")
    N = 2 * n
    ent = [[Fraction(1) if i == j else Fraction(0) for j in range(N)] for i in range(N)]
    row = n - m - 1  # 0-indexed row n-m
    for j in range(m):
        ent[row][n - m + j] = x[j]
        ent[row][n + j] = y[j]
        # the transposed tails run in reversed order against the
        # antidiagonal form (so the element is actually symplectic)
        ent[n - m + j][n + m] = y[m - 1 - j]
        ent[n + j][n + m] = -x[m - 1 - j]
    ent[row][n + m] = Fraction(z)
    return SympMatrix(n, ent, p)


def x_elem(n, m, xs, p):
    return j_elem(n, m, xs, [0] * m, 0, p)


def y_elem(n, m, ys, p):
    return j_elem(n, m, [0] * m, ys, 0, p)


def z_elem(n, m, z, p):
    return j_elem(n, m, [0] * m, [0] * m, z, p)


def lam_element(n, m, p):
    """lambda = X(1, 1, ..., 1)."""
    return x_elem(n, m, [1] * m, p)


def weyl_matrix(n, w, p):
    """A symplectic monomial-matrix representative of a signed permutation.

    Coordinate i (i <= n) is sent to pi(i), or across the antidiagonal to
    2n+1-pi(i) on a sign flip; the mirrored column picks up a -1 so the
    form survives (checked on construction).
    """
    N = 2 * n
    ent = [[Fraction(0)] * N for _ in range(N)]
    for i in range(1, n + 1):
        j = w.image[i - 1]
        if w.flips[j - 1] == 1:
            ent[j - 1][i - 1] = Fraction(1)
            ent[N - j][N - i] = Fraction(1)
        else:
            ent[N - j][i - 1] = Fraction(1)
            ent[j - 1][N - i] = Fraction(-1)
    return SympMatrix(n, ent, p)


def positive_roots_sp(n, lo=1, hi=None):
    """Positive roots of Sp_2n with coordinate indices in [lo, hi] (1-indexed):
    ('minus', i, j) for e_i - e_j, ('plus', i, j) for e_i + e_j, ('long', i)."""
    hi = n if hi is None else hi
    roots = []
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            roots.append(("minus", i, j))
            roots.append(("plus", i, j))
    for i in range(lo, hi + 1):
        roots.append(("long", i))
    return roots


def root_generator(n, root, t, p):
    """The one-parameter root subgroup element E_root(t) of Sp_2n."""
    t = Fraction(t)
    N = 2 * n
    ent = [[Fraction(1) if i == j else Fraction(0) for j in range(N)] for i in range(N)]
    kind = root[0]
    if kind in ("minus", "neg_minus"):
        _, i, j = root
        if kind == "neg_minus":
            i, j = j, i
        ent[i - 1][j - 1] += t
        ent[N - j][N - i] += -t
    elif kind == "plus":
        _, i, j = root
        ent[i - 1][N - j] += t
        ent[j - 1][N - i] += t
    elif kind == "neg_plus":
        _, i, j = root
        ent[N - j][i - 1] += t
        ent[N - i][j - 1] += t
    elif kind == "long":
        (_, i) = root
        ent[i - 1][N - i] += t
    elif kind == "neg_long":
        (_, i) = root
        ent[N - i][i - 1] += t
    else:
        raise ValueError("unknown root kind %r" % (kind,))
    return SympMatrix(n, ent, p)


# -- seeded random elements --------------------------------------------------


def random_rational(rng, p, unit=False):
    """a/b with |a|, |b| <= 9 and p dividing neither, scaled by p^e, |e| <= 2."""
    if p < 2:
        raise ValueError("p must be a prime, got %r" % p)
    while True:
        a = rng.randint(-9, 9)
        if a and a % p:
            break
    while True:
        b = rng.randint(1, 9)
        if b % p:
            break
    x = Fraction(a, b)
    if not unit:
        x *= Fraction(p) ** rng.randint(-2, 2)
    return x


def random_torus_values(rng, p, k, lo=-3, hi=3):
    """k torus entries p^e * unit with valuations e in [lo, hi]."""
    return [Fraction(p) ** rng.randint(lo, hi) * random_rational(rng, p, unit=True) for _ in range(k)]


def random_upper_unipotent_G(n, rng, p):
    g = SympMatrix.identity(n, p)
    for root in positive_roots_sp(n):
        g = g * root_generator(n, root, random_rational(rng, p), p)
    return g


def random_unipotent_MJ(n, m, rng, p, with_xz=True):
    """A random element of N_{M^J} = N_M (Y Z): M-positive-root part times
    Heisenberg Y and Z coordinates."""
    g = SympMatrix.identity(n, p)
    for root in positive_roots_sp(n, lo=n - m + 1):
        g = g * root_generator(n, root, random_rational(rng, p), p)
    if with_xz and m:
        ys = [random_rational(rng, p) for _ in range(m)]
        g = g * y_elem(n, m, ys, p)
        g = g * z_elem(n, m, random_rational(rng, p), p)
    return g


def random_unipotent_U(n, m, rng, p):
    """A random element of U: root subgroups touching coordinates 1..n-m-1."""
    g = SympMatrix.identity(n, p)
    for root in positive_roots_sp(n):
        lead = root[1]
        if lead <= n - m - 1:
            g = g * root_generator(n, root, random_rational(rng, p), p)
    return g


def random_cell_element(n, m, rng, p):
    """A random open-cell element d_n(t) n_G w0 lambda d_m(s) n_MJ u, returned
    with the torus data (t, s) used to build it."""
    ts = random_torus_values(rng, p, n)
    ss = random_torus_values(rng, p, m)
    g = (
        d_torus(n, ts, p)
        * random_upper_unipotent_G(n, rng, p)
        * w0_element(n, p)
        * lam_element(n, m, p)
        * d_torus(n, [Fraction(1)] * (n - m) + ss, p)
        * random_unipotent_MJ(n, m, rng, p)
        * random_unipotent_U(n, m, rng, p)
    )
    return g, ts, ss


# -- minors and the cell calculus ---------------------------------------------


def _det(rows):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(k):
        piv = None
        for r in range(col, k):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
    return det


def minor(g, I, J):
    """Delta_{I,J}(g) = det of the submatrix with rows I, columns J (1-indexed)."""
    if len(I) != len(J):
        raise ValueError("row and column index tuples must have equal length")
    N = 2 * g.n
    if any(not 1 <= i <= N for i in I) or any(not 1 <= j <= N for j in J):
        raise IndexError("minor index out of range")
    rows = [[g.entries[i - 1][j - 1] for j in J] for i in I]
    return PValued(_det(rows), g.p)


def alpha_k(g, k):
    """alpha_k = Delta_{I_k, J_k} with rows {2n+1-k..2n} and columns {1..k}."""
    if not 1 <= k <= g.n:
        raise IndexError("alpha index out of range: %d" % k)
    N = 2 * g.n
    return minor(g, tuple(range(N + 1 - k, N + 1)), tuple(range(1, k + 1)))


def beta_l(g, l, m):
    """beta_l = Delta_{I_{n-m+l-1}, J'_l}, the column set omitting n-m."""
    n = g.n
    if not 1 <= l <= m:
        raise IndexError("beta index out of range: %d" % l)
    size = n - m + l - 1
    N = 2 * n
    rows = tuple(range(N + 1 - size, N + 1))
    cols = tuple(j for j in range(1, n - m + l + 1) if j != n - m)
    return minor(g, rows, cols)


@dataclass(frozen=True)
class CellFactorization:
    """Recovered torus sizes of an open-cell element; populated iff member."""

    member: bool
    t_valuations: tuple = ()
    s_valuations: tuple = ()


def factor_valuations(g, m):
    """Recover |t_i| and |s_j| of g = d_n(t) n_G w0 lambda d_m(s) n_MJ u from
    the minors: membership in the open cell is equivalent to all alpha_k and
    beta_l being nonzero, and on the cell

        v(t_1) = -v(alpha_1),
        v(t_i) = v(alpha_{i-1}) - v(alpha_i)          for 2 <= i <= n-m,
        v(t_i) = v(beta_{i-(n-m)}) - v(alpha_i)       for i > n-m,
        v(s_j) = v(beta_j) - v(alpha_{n-m+j-1}).
    """
    n = g.n
    alphas = [alpha_k(g, k) for k in range(1, n + 1)]
    betas = [beta_l(g, l, m) for l in range(1, m + 1)]
    if any(a.is_zero() for a in alphas) or any(b.is_zero() for b in betas):
        return CellFactorization(False)
    va = [a.valuation() for a in alphas]
    vb = [b.valuation() for b in betas]
    tv = []
    for i in range(1, n + 1):
        if i == 1:
            tv.append(-va[0])
        elif i <= n - m:
            tv.append(va[i - 2] - va[i - 1])
        else:
            tv.append(vb[i - (n - m) - 1] - va[i - 1])
    sv = [vb[j - 1] - va[n - m + j - 2] for j in range(1, m + 1)]
    return CellFactorization(True, tuple(tv), tuple(sv))


def abs_cell_kernel(g, m, chi_re, xi_re):
    """|K_{chi,xi,psi}(g)| as a power of q: the exponent E with |K| = q^E,
    or None off the open cell (where the kernel vanishes).

    The factor layout pairs alpha_{n-m-1+j} with chi_{n-m-1+j} xi_j^-1
    |.|^(-1/2); this is the indexing forced by the defining character of the
    kernel together with the torus-recovery quotients (the unique one under
    which the product reproduces |chi^-1 delta^(1/2)(b_G) xi delta^(-1/2)(b_M)|
    on the cell).
    """
    n = g.n
    chi_re = [Fraction(c) for c in chi_re]
    xi_re = [Fraction(c) for c in xi_re]
    if len(chi_re) != n or len(xi_re) != m:
        raise ValueError("character shape mismatch")
    alphas = [alpha_k(g, k) for k in range(1, n + 1)]
    betas = [beta_l(g, l, m) for l in range(1, m + 1)]
    if any(a.is_zero() for a in alphas) or any(b.is_zero() for b in betas):
        return None
    va = [a.valuation() for a in alphas]
    vb = [b.valuation() for b in betas]
    E = Fraction(0)
    half = Fraction(1, 2)
    for i in range(1, n - m):
        E += -va[i - 1] * (chi_re[i - 1] - chi_re[i] - 1)
    for j in range(1, m + 1):
        k = n - m - 1 + j
        E += -va[k - 1] * (chi_re[k - 1] - xi_re[j - 1] - half)
    E += -va[n - 1] * (chi_re[n - 1] - 1)
    for j in range(1, m + 1):
        E += -vb[j - 1] * (-chi_re[n - m + j - 1] + xi_re[j - 1] - half)
    return E


def minor_expansion_check(g1, g2, g3, I, J, guard=3):
    """Executable triple-product minor expansion:

        Delta_{I,J}(g1 g2 g3) = sum_{A,C} f_{I,A}(g1) Delta_{A,C}(g2) f_{C,J}(g3)

    with f_{I,J}(g) = prod_s g[i_s, j_s] and A, C over all index tuples.
    Always true for correct arithmetic; exposed as a self-check.
    """
    from itertools import product as iproduct

    k = len(I)
    if k != len(J):
        raise ValueError("index tuples must have equal length")
    if k > guard:
        raise ValueError("index size %d exceeds the guard %d" % (k, guard))
    N = 2 * g1.n
    lhs = minor(g1 * g2 * g3, I, J).value
    rhs = Fraction(0)
    all_tuples = list(iproduct(range(1, N + 1), repeat=k))
    for A in all_tuples:
        fia = Fraction(1)
        for s in range(k):
            fia *= g1.entries[I[s] - 1][A[s] - 1]
        if not fia:
            continue
        for C in all_tuples:
            fcj = Fraction(1)
            for s in range(k):
                fcj *= g3.entries[C[s] - 1][J[s] - 1]
            if not fcj:
                continue
            rhs += fia * minor(g2, A, C).value * fcj
    return lhs == rhs


# -- the rank-one Gauss shell integral ----------------------------------------


def gauss_shell(i, j, q):
    """The shell integral int_{|t| = q^-j} psi(t^-1 x) dt for |x| = q^-i:

        q^-j (1 - q^-1)   if j <= i,
        -q^-(i+2)         if j = i + 1,
        0                 if j >= i + 2.
    """
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    qf = Fraction(q)
    if j <= i:
        return qf ** (-j) * (1 - 1 / qf)
    if j == i + 1:
        return -(qf ** (-(i + 2)))
    return Fraction(0)


def gauss_shell_numeric(i, j, q):
    """Brute-force oracle for gauss_shell: the character sum over unit
    representatives of the shell p^j O^* modulo p^(j+M), with psi(a) =
    exp(2 pi i {a}_p) of conductor zero.

    For t = p^j u, t^-1 x = p^(i-j) u^-1, and with k = j - i its p-adic
    fractional part is an integer residue over p^k:

        {p^(i-j) u^-1}_p = (u^-1 mod p^k) / p^k   if k > 0,   else 0.
    """
    import cmath

    k = j - i
    M = max(1, k)
    pM = q ** M
    measure = Fraction(q) ** (-(j + M))
    total = 0j
    for u in range(1, pM):
        if u % q == 0:
            continue
        frac = pow(u, -1, pM) / pM if k > 0 else 0.0
        total += cmath.exp(2j * cmath.pi * frac)
    return total * float(measure)
