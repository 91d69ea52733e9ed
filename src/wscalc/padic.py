"""Concrete matrix-level calculus over Q with the p-adic absolute value.

Everything here is exact: a matrix is held as integer rows over one common
denominator, products and the form check run on those integers, minors are
fraction-free integer determinants, and p-adic sizes are tracked through
valuations.  The dense subfield Q of Q_p suffices because every identity
tested (minor invariance, torus equivariance, the open-cell kernel formula)
is polynomial or valuation-theoretic, so matrices and minors do not depend
on p: the prime is passed only where a valuation is taken or a random
rational drawn.  Matrix products skip zero entries,
since the factory elements are mostly identity.  The Gauss-shell oracle sums
its character over integer residues, exactly in Z[zeta_{p^k}]: the p-adic
fractional part it needs is a residue over p^k, summed over the units
directly because inverting them only permutes them, and the sum of the
units' powers of zeta is reduced modulo the cyclotomic polynomial.

The symplectic group Sp_2n is realized with respect to the form
S[i, 2n+1-i] = 1 for i <= n and -1 for i > n (1-indexed), the convention
under which the standard Borel is upper triangular, the torus is
d_n(t) = diag(t_1..t_n, t_n^-1..t_1^-1), and the Heisenberg coordinates
J(x, y, z) take the block shape [[1, x, y, z], [0, 1, 0, y^t],
[0, 0, 1, -x^t], [0, 0, 0, 1]] inside Sp_{2m+2}.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, inf, isqrt, lcm

__all__ = [
    "is_prime",
    "valuation",
    "SympMatrix",
    "symplectic_form",
    "d_torus",
    "w0_element",
    "j_elem",
    "x_elem",
    "y_elem",
    "z_elem",
    "lam_element",
    "root_generator",
    "random_rational",
    "random_upper_unipotent_G",
    "random_unipotent_MJ",
    "random_unipotent_U",
    "random_torus_values",
    "random_cell_element",
    "minor",
    "alpha_k",
    "beta_l",
    "factor_valuations",
    "abs_cell_kernel",
    "gauss_shell",
    "gauss_shell_sum",
    "gauss_shell_measure",
    "gauss_shell_numeric",
]


@lru_cache(maxsize=64)
def is_prime(q):
    """Trial division; q is capped at 2^31 so that the check stays instant.
    Cached, because the Gauss-shell oracle asks it once per case."""
    if not 2 <= q < 2 ** 31:
        return False
    return all(q % k for k in range(2, isqrt(q) + 1))


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


@lru_cache(maxsize=None)
def symplectic_form(n):
    """The Gram matrix: antidiagonal 1s in the top half, -1s in the bottom."""
    N = 2 * n
    rows = []
    for i in range(1, N + 1):
        row = [0] * N
        row[N - i] = 1 if i <= n else -1
        rows.append(tuple(row))
    return tuple(rows)


def _over_common_den(values):
    """Rationals as integers over their least common denominator.  The pair
    is gcd-reduced: every prime power of the denominator divides some
    value's own denominator in full, whose numerator it does not divide."""
    values = [Fraction(v) for v in values]
    den = lcm(1, *(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _mat_mul(a, b):
    """The integer product a*b, touching only nonzero entries: factory
    elements are mostly identity plus a few entries, so dense products
    waste most of their operations on zeros."""
    N = len(b[0])
    out = []
    for ra in a:
        row = [0] * N
        for k, x in enumerate(ra):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        row[j] += x * y
        out.append(tuple(row))
    return tuple(out)


def _scaled_identity(N, den):
    """den * I_N as mutable integer rows, for the factories to fill in."""
    return [[den if i == j else 0 for j in range(N)] for i in range(N)]


def _frozen(rows):
    return tuple(map(tuple, rows))


class SympMatrix:
    """A 2n x 2n rational matrix, checked against the form.

    The matrix is held as integer rows over one positive common denominator,
    gcd-reduced so that equal matrices hold equal pairs; products, the form
    check and minors run on the integers.  ``entries`` and 1-indexed
    ``g[i, j]`` give the exact Fraction view.  Factory-built elements are
    verified on construction; raw matrices may skip the check with
    check=False (needed e.g. for the non-group matrices of the
    minor-expansion lemma).
    """

    __slots__ = ("n", "rows", "den")

    def __init__(self, n, entries, check=True):
        N = 2 * n
        entries = [tuple(row) for row in entries]
        if len(entries) != N or any(len(row) != N for row in entries):
            raise ValueError("entries must form a 2n x 2n matrix")
        flat, den = _over_common_den(chain.from_iterable(entries))
        self._set(n, tuple(tuple(flat[i : i + N]) for i in range(0, N * N, N)), den, check)

    @classmethod
    def _from_rows(cls, n, rows, den, check=True):
        """The integer path: rows over den, already gcd-reduced."""
        g = cls.__new__(cls)
        g._set(n, rows, den, check)
        return g

    def _set(self, n, rows, den, check):
        self.n = n
        self.rows = rows
        self.den = den
        if check and not self.preserves_form():
            raise ValueError("matrix does not preserve the symplectic form")

    @property
    def entries(self):
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)

    def preserves_form(self):
        """g^T S g == S, as num^T S num == den^2 S on the integer rows, with
        S num formed by permuting rows: num's rows reversed, the lower half
        negated."""
        n = self.n
        g = self.rows
        rev = g[::-1]
        sg = rev[:n] + tuple(tuple(-x for x in row) for row in rev[n:])
        form = symplectic_form(n)
        if self.den != 1:
            d2 = self.den * self.den
            form = tuple(tuple(d2 * x for x in row) for row in form)
        return _mat_mul(tuple(zip(*g)), sg) == form

    @classmethod
    def identity(cls, n):
        return cls._from_rows(n, _frozen(_scaled_identity(2 * n, 1)), 1, check=False)

    def __mul__(self, other):
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        rows = _mat_mul(self.rows, other.rows)
        den = self.den * other.den
        if den != 1:
            c = gcd(den, *chain.from_iterable(rows))
            if c != 1:
                rows = tuple(tuple(x // c for x in row) for row in rows)
                den //= c
        return SympMatrix._from_rows(self.n, rows, den, check=False)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.rows[i - 1][j - 1], self.den)  # 1-indexed access

    def __eq__(self, other):
        return (
            isinstance(other, SympMatrix)
            and self.n == other.n
            and self.den == other.den
            and self.rows == other.rows
        )

    def __repr__(self):
        return "SympMatrix(n=%d)" % self.n


# -- element constructors ---------------------------------------------------


def d_torus(n, ts):
    """d_k(t_1..t_k) = diag(I_{n-k}, t_1..t_k, t_k^-1..t_1^-1, I_{n-k})."""
    ts = [Fraction(t) for t in ts]
    k = len(ts)
    if k > n:
        raise ValueError("too many torus entries")
    N = 2 * n
    diag = [Fraction(1)] * (n - k) + ts
    diag, den = _over_common_den(diag + [1 / t for t in reversed(diag)])
    rows = tuple(tuple(diag[i] if i == j else 0 for j in range(N)) for i in range(N))
    return SympMatrix._from_rows(n, rows, den)


def w0_element(n):
    """The longest Weyl element, realized as the form matrix itself."""
    return SympMatrix._from_rows(n, symplectic_form(n), 1)


def j_elem(n, m, x, y, z):
    """J(x, y, z) of the Heisenberg group inside H = Sp_{2m+2} inside G."""
    x, y = list(x), list(y)
    if len(x) != m or len(y) != m:
        raise ValueError("x and y must have length m")
    vals, den = _over_common_den(x + y + [z])
    x, y, z = vals[:m], vals[m : 2 * m], vals[2 * m]
    N = 2 * n
    ent = _scaled_identity(N, den)
    row = n - m - 1  # 0-indexed row n-m
    for j in range(m):
        ent[row][n - m + j] = x[j]
        ent[row][n + j] = y[j]
        # the transposed tails run in reversed order against the
        # antidiagonal form (so the element is actually symplectic)
        ent[n - m + j][n + m] = y[m - 1 - j]
        ent[n + j][n + m] = -x[m - 1 - j]
    ent[row][n + m] = z
    return SympMatrix._from_rows(n, _frozen(ent), den)


def x_elem(n, m, xs):
    return j_elem(n, m, xs, [0] * m, 0)


def y_elem(n, m, ys):
    return j_elem(n, m, [0] * m, ys, 0)


def z_elem(n, m, z):
    return j_elem(n, m, [0] * m, [0] * m, z)


def lam_element(n, m):
    """lambda = X(1, 1, ..., 1)."""
    return x_elem(n, m, [1] * m)


def root_generator(n, alpha, t):
    """The root subgroup element E_alpha(t) = I + t X_alpha of Sp_2n, for a
    root vector alpha of ``weyl.positive_roots(n, "sp")`` or its negative.

    Coordinate +e_i is matrix index i and -e_i is index 2n+1-i.  Writing
    alpha as the coordinate of index r minus the coordinate of index s puts
    t at (r, s); a short root also has the mirrored entry (2n+1-s, 2n+1-r),
    negated when r and s lie in the same half, so that X_alpha is in sp_2n.
    """
    t = Fraction(t)
    N = 2 * n
    den = t.denominator
    t = t.numerator  # E_alpha(t) = (den * I + t * X_alpha) / den
    support = [(i, c) for i, c in enumerate(alpha, 1) if c]
    (a, ca), (b, cb) = support[0], support[-1]
    r = a if ca > 0 else N + 1 - a
    s = b if cb < 0 else N + 1 - b
    ent = _scaled_identity(N, den)
    ent[r - 1][s - 1] += t
    if abs(ca) == 1:
        ent[N - s][N - r] += -t if (r <= n) == (s <= n) else t
    return SympMatrix._from_rows(n, _frozen(ent), den)


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


def _random_root_product(n, roots, rng, p):
    g = SympMatrix.identity(n)
    for alpha in roots:
        g = g * root_generator(n, alpha, random_rational(rng, p))
    return g


def _positive_roots(n):
    """The positive roots of Sp_2n, from ``weyl``, which is imported here so
    that the Gauss-shell oracle alone loads no other module of the package."""
    from .weyl import positive_roots

    return positive_roots(n, "sp")


def random_upper_unipotent_G(n, rng, p):
    return _random_root_product(n, _positive_roots(n), rng, p)


def random_unipotent_MJ(n, m, rng, p):
    """A random element of N_{M^J} = N_M (Y Z): the positive roots supported
    on coordinates n-m+1..n, times Heisenberg Y and Z coordinates."""
    roots = [alpha for alpha in _positive_roots(n) if not any(alpha[: n - m])]
    g = _random_root_product(n, roots, rng, p)
    if m:
        g = g * y_elem(n, m, [random_rational(rng, p) for _ in range(m)])
        g = g * z_elem(n, m, random_rational(rng, p))
    return g


def random_unipotent_U(n, m, rng, p):
    """A random element of U: the positive roots whose first nonzero
    coordinate is among 1..n-m-1."""
    roots = [alpha for alpha in _positive_roots(n) if any(alpha[: n - m - 1])]
    return _random_root_product(n, roots, rng, p)


def random_cell_element(n, m, rng, p):
    """A random open-cell element d_n(t) n_G w0 lambda d_m(s) n_MJ u, returned
    with the torus data (t, s) used to build it."""
    ts = random_torus_values(rng, p, n)
    ss = random_torus_values(rng, p, m)
    g = (
        d_torus(n, ts)
        * random_upper_unipotent_G(n, rng, p)
        * w0_element(n)
        * lam_element(n, m)
        * d_torus(n, [Fraction(1)] * (n - m) + ss)
        * random_unipotent_MJ(n, m, rng, p)
        * random_unipotent_U(n, m, rng, p)
    )
    return g, ts, ss


# -- minors and the cell calculus ---------------------------------------------


def minor(g, I, J):
    """Delta_{I,J}(g) = det of the submatrix with rows I, columns J (1-indexed).

    One fraction-free (Bareiss) elimination on the integer rows: every
    division below is exact, and the determinant of the k x k integer block
    is den^k times the minor."""
    k = len(I)
    if k != len(J):
        raise ValueError("row and column index tuples must have equal length")
    N = 2 * g.n
    if any(not 1 <= i <= N for i in I) or any(not 1 <= j <= N for j in J):
        raise IndexError("minor index out of range")
    a = [[g.rows[i - 1][j - 1] for j in J] for i in I]
    sign, prev = 1, 1
    for c in range(k - 1):
        if not a[c][c]:
            swap = next((r for r in range(c + 1, k) if a[r][c]), None)
            if swap is None:
                return Fraction(0)
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        piv = a[c][c]
        for r in range(c + 1, k):
            ar, x = a[r], a[r][c]
            for j in range(c + 1, k):
                ar[j] = (ar[j] * piv - x * a[c][j]) // prev
        prev = piv
    det = sign * a[k - 1][k - 1] if k else 1
    return Fraction(det, g.den ** k)


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


def _minor_valuations(g, m, p):
    """The valuations of alpha_1..alpha_n and beta_1..beta_m, or None off the
    open cell, where one of them vanishes."""
    minors = [alpha_k(g, k) for k in range(1, g.n + 1)]
    minors += [beta_l(g, l, m) for l in range(1, m + 1)]
    if not all(minors):
        return None
    vals = [valuation(x, p) for x in minors]
    return vals[: g.n], vals[g.n :]


def factor_valuations(g, m, p):
    """Recover |t_i| and |s_j| of g = d_n(t) n_G w0 lambda d_m(s) n_MJ u from
    the minors, as (t_valuations, s_valuations), or None off the open cell.
    Membership in the open cell is equivalent to all alpha_k and beta_l
    being nonzero, and on the cell

        v(t_1) = -v(alpha_1),
        v(t_i) = v(alpha_{i-1}) - v(alpha_i)          for 2 <= i <= n-m,
        v(t_i) = v(beta_{i-(n-m)}) - v(alpha_i)       for i > n-m,
        v(s_j) = v(beta_j) - v(alpha_{n-m+j-1}).
    """
    n = g.n
    vals = _minor_valuations(g, m, p)
    if vals is None:
        return None
    va, vb = vals
    tv = []
    for i in range(1, n + 1):
        if i == 1:
            tv.append(-va[0])
        elif i <= n - m:
            tv.append(va[i - 2] - va[i - 1])
        else:
            tv.append(vb[i - (n - m) - 1] - va[i - 1])
    sv = [vb[j - 1] - va[n - m + j - 2] for j in range(1, m + 1)]
    return tuple(tv), tuple(sv)


def abs_cell_kernel(g, m, p, chi_re, xi_re):
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
    vals = _minor_valuations(g, m, p)
    if vals is None:
        return None
    va, vb = vals
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


def _precision(i, j):
    """M = max(1, j - i): the shell p^j O^* is cut into the classes mod
    p^(j+M), on each of which psi(t^-1 x) is constant for |x| = q^-i; M >= 1
    so that the classes still tell the units apart."""
    return max(1, j - i)


def _reduce_mod_cyclotomic(vec, p, k):
    """Reduce sum_u vec[u] X^u (u < p^k) modulo the cyclotomic polynomial
    Phi_{p^k}(X) = sum_{t<p} X^(t p^(k-1)): the result is the same element of
    Z[zeta], zeta = exp(2 pi i / p^k), in the basis zeta^e, e < phi(p^k).

    Since X^((p-1) p^(k-1) + r) = -sum_{t<p-1} X^(t p^(k-1) + r), the top
    block of p^(k-1) coefficients is subtracted from each lower block.
    Blocks are compared whole first (as bytes, for a bytes vector), and
    differences taken only where a block differs from the top.  Returns the
    nonzero coordinates {e: c}.
    """
    b = p ** (k - 1)
    top = vec[(p - 1) * b:]
    out = {}
    for t in range(p - 1):
        block = vec[t * b:(t + 1) * b]
        if block != top:
            for r, (c, c_top) in enumerate(zip(block, top)):
                if c != c_top:
                    out[t * b + r] = c - c_top
    return out


def gauss_shell_sum(i, j, q):
    """The character sum behind gauss_shell, exactly, as an element of
    Z[zeta] with zeta = exp(2 pi i / p^k), k = j - i: the nonzero
    coordinates {e: c} of sum_u psi(u / p^k) in the basis zeta^e, e below
    phi(p^k), over the units u mod p^M (M = max(1, k)), with
    psi(a) = exp(2 pi i {a}_p) of conductor zero.

    The shell integral int_{|t| = q^-j} psi(t^-1 x) dt for |x| = q^-i is this
    sum times the measure q^-(j+M) of one class.  For t = p^j u the p-adic
    fractional part of t^-1 x = p^(i-j) u^-1 is the residue
    (u^-1 mod p^k) / p^k when k > 0, and 0 otherwise; u -> u^-1 permutes the
    units, so the sum runs over psi(u / p^k) with no modular inverse.  It
    stays brute force: the units are a 0/1 vector with one byte per
    residue, unit u contributing X^u, reduced modulo Phi_{p^k} by
    ``_reduce_mod_cyclotomic``, which knows nothing of the closed form.  For
    k <= 0 psi is trivial and the sum is the number of units.  The units are
    the residues not divisible by q only for q prime (for q = 4 they would
    include 2), so any other q is refused.
    """
    if not is_prime(q):
        raise ValueError("the Gauss-shell oracle needs a prime q, got %r" % q)
    k = j - i
    M = _precision(i, j)
    units = (b"\0" + b"\1" * (q - 1)) * q ** (M - 1)
    if k <= 0:
        return {0: units.count(1)}
    return _reduce_mod_cyclotomic(units, q, k)


def gauss_shell_measure(i, j, q):
    """The measure q^-(j+M) of one class of the shell p^j O^* mod p^(j+M)."""
    return Fraction(q) ** -(j + _precision(i, j))


def gauss_shell_numeric(i, j, q):
    """Brute-force oracle for gauss_shell, as a complex number: the exact
    character sum ``gauss_shell_sum`` evaluated at zeta = exp(2 pi i / p^k)
    (one exp per nonzero coordinate, none for the constant term) times the
    measure q^-(j+M) as a float."""
    coeffs = gauss_shell_sum(i, j, q)
    total = complex(coeffs.pop(0, 0))
    if coeffs:
        import cmath

        step = 2j * cmath.pi / q ** (j - i)
        for e, c in coeffs.items():
            total += c * cmath.exp(step * e)
    return total * q ** -(j + _precision(i, j))
