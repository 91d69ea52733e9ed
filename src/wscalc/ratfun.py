"""Exact arithmetic in the field Q(v, x_1..x_n, y_1..y_m) of Laurent rational functions.

Everything downstream (local factors, Weyl sums, character formulas) is built
from three layers:

  * exponent tuples -- a monomial is a tuple of integers, one slot per
    variable, in the fixed order (v, x_1, ..., x_n, y_1, ..., y_m);
    exponents may be negative;
  * ``Poly`` -- a sparse Laurent polynomial with exact rational
    coefficients: an ``int`` when integral, else a ``Fraction``, so that
    integer inputs (every factor key, character and value here) are
    multiplied and added in plain integer arithmetic.  No polynomial is
    ever divided by another;
  * ``RatFun`` -- a lazy quotient, kept in factored form: a scalar unit
    times a product of canonical polynomial factors over another such
    product.  Multiplication and division never expand anything; addition
    expands numerators over a shared denominator.  Equal factors cancel;
    nothing is divided, so a value is exact but not reduced.

The local zeta factor zeta(s) = 1/(1 - q^(-s)) and its inverse are built
from the monomial q^(-s) (``zeta_of``, ``zeta_inv_of``).

All values are immutable after construction and safe to share.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import sub

__all__ = [
    "Vars",
    "Poly",
    "RatFun",
    "zeta_of",
    "zeta_inv_of",
    "eval_terms",
    "PoleError",
    "ContextMismatchError",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Numeric evaluation raises PoleError where |denominator| falls below this.
POLE_TOL = 1e-12


def _exact(c):
    """An exact coefficient: an int when c is integral, else a Fraction."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class ContextMismatchError(ValueError):
    """Raised when two values over different variable contexts are combined."""


class PoleError(ArithmeticError):
    """Raised on evaluation too close to a pole, or on a zero denominator.

    Carries the offending denominator magnitude in ``magnitude`` when the
    error comes from numeric evaluation.
    """

    def __init__(self, message, magnitude=None):
        super().__init__(message)
        self.magnitude = magnitude


class Vars:
    """The variable context (v, x_1..x_n, y_1..y_m).

    Index 0 is v = q^(-1/2); indices 1..n are the x_i = q^(-chi_i) and
    indices n+1..n+m are the y_j = q^(-xi_j).
    """

    __slots__ = ("n", "m", "size")

    def __init__(self, n, m):
        if n < 0 or m < 0:
            raise ValueError("variable counts must be nonnegative")
        self.n = n
        self.m = m
        self.size = 1 + n + m

    def __eq__(self, other):
        return isinstance(other, Vars) and self.n == other.n and self.m == other.m

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return "Vars(n=%d, m=%d)" % (self.n, self.m)

    def zero_exp(self):
        return (0,) * self.size

    def v_exp(self, e=1):
        """The exponent tuple of v^e."""
        return (e,) + (0,) * (self.size - 1)

    def var_name(self, index):
        if index == 0:
            return "v"
        if index <= self.n:
            return "x%d" % index
        return "y%d" % (index - self.n)


def _check_same(a, b):
    if a.vars != b.vars:
        raise ContextMismatchError("operands live over different variable contexts")


def exp_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def exp_neg(e):
    return tuple(-a for a in e)


class Poly:
    """Sparse Laurent polynomial: dict from exponent tuple to a nonzero exact
    coefficient, an int when integral and a Fraction otherwise.

    Integer inputs stay integers through every operation; a Fraction enters
    only with a non-integral constant or scale.  An integral result
    of Fraction arithmetic may stay a Fraction: the two compare and hash
    equal, so keys, equality and hashes do not depend on the type.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars_, terms, prune=True):
        self.vars = vars_
        if prune:
            terms = {e: _exact(c) for e, c in terms.items() if c}
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars_):
        return cls(vars_, {}, prune=False)

    @classmethod
    def constant(cls, vars_, c):
        c = _exact(c)
        if not c:
            return cls.zero(vars_)
        return cls(vars_, {vars_.zero_exp(): c}, prune=False)

    @classmethod
    def monomial(cls, vars_, exp, c=1):
        c = _exact(c)
        if not c:
            return cls.zero(vars_)
        return cls(vars_, {tuple(exp): c}, prune=False)

    # -- ring operations ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        _check_same(self, other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return Poly(self.vars, res, prune=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, prune=False)

    def __mul__(self, other):
        _check_same(self, other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        res = {}
        for e2, c2 in small.items():
            for e1, c1 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    del res[e]
        return Poly(self.vars, res, prune=False)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero poly: origin)."""
        if not self.terms:
            return self.vars.zero_exp()
        return tuple(map(min, zip(*self.terms)))

    def content(self):
        """Positive rational c with self/c having coprime integer coefficients:
        the gcd of the numerators over the lcm of the denominators (1 for the
        zero polynomial)."""
        if not self.terms:
            return _ONE
        cs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))

    def eval_at(self, point):
        """Evaluate at a complex point (tuple in canonical variable order)."""
        return eval_terms(self.terms.items(), point, [{} for _ in point])

    def substitute_exponents(self, remap):
        """Apply an exponent-tuple remap (a bijection of the monomial lattice)."""
        return Poly(self.vars, {remap(e): c for e, c in self.terms.items()}, prune=False)

    def text(self):
        """Deterministic text form: terms sorted lexicographically by exponent."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            body = "*".join(
                "%s^%d" % (self.vars.var_name(i), k) for i, k in enumerate(e) if k
            )
            if body:
                parts.append("%s*%s" % (_frac_text(c), body))
            else:
                parts.append(_frac_text(c))
        return " + ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self.text()


def eval_terms(terms, point, powers):
    """The sum of c * X^e over the (e, c) pairs ``terms`` at a complex point,
    one coordinate per slot of e.  ``powers`` holds one dict per coordinate,
    {k: base ** k}, filled on first use and shared by every call that
    evaluates at the same point, so each power is computed once."""
    total = 0j
    for e, c in terms:
        val = complex(c)
        for base, table, k in zip(point, powers, e):
            if k:
                p = table.get(k)
                if p is None:
                    p = table[k] = base ** k
                val *= p
        total += val
    return total


def _frac_text(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# -- canonical factors ----------------------------------------------------
#
# A factor is stored as a sorted tuple of (exponent, int) pairs with
# componentwise-minimal exponent 0, coprime integer coefficients, and the
# lexicographically leading coefficient positive.  The unit stripped off in
# canonicalization (a Fraction: the signed content) is returned so callers
# can absorb it.


def canonical_factor(poly):
    """Split ``poly`` into (coeff, mono, key) with poly == coeff * X^mono * key.

    Two polynomials that differ by a unit and a monomial get the same key, so
    ``RatFun`` cancels factors by comparing keys; a key is never divided.
    """
    if poly.is_zero():
        raise ZeroDivisionError("zero polynomial cannot be a factor")
    mins = poly.min_exponents()
    terms = poly.terms
    if any(mins):
        terms = {tuple(map(sub, e, mins)): c for e, c in terms.items()}
    cont = poly.content()
    if terms[max(terms)] < 0:
        cont = -cont
    # c / cont = (a/b) * l / g with g | a and b | l: integer // only
    g, l = cont.numerator, cont.denominator
    key = tuple(sorted((e, c.numerator // g * (l // c.denominator)) for e, c in terms.items()))
    return cont, mins, key


def _key_to_poly(vars_, key):
    return Poly(vars_, dict(key), prune=False)


def _factors(key):
    """The factor tuple of a canonical key: empty for the monomial key, which
    is always 1 (one term, exponent 0, coefficient 1)."""
    return () if len(key) == 1 else (key,)


class RatFun:
    """Exact rational function, value = coeff * X^mono * prod(nfac) / prod(dfac).

    ``nfac`` and ``dfac`` are sorted tuples of canonical factor keys.  The
    quotient is lazy: products only concatenate factor lists, and addition,
    multiplication and substitution cancel equal keys in numerator and
    denominator, nothing more.  No polynomial is divided, so a value need
    not be in lowest terms (e.g. (1-x^2)/(1-x) stays as built); equality is
    exact all the same.  ``wsformula.L_value`` reduces in the character
    basis, by a gcd in Z[v], so its RatFun view (``LValue.ratfun``) is in
    lowest terms.  The denominator is never zero.
    """

    __slots__ = ("vars", "coeff", "mono", "nfac", "dfac")

    def __init__(self, vars_, coeff, mono, nfac, dfac):
        coeff = Fraction(coeff)
        self.vars = vars_
        if not coeff:
            self.coeff = _ZERO
            self.mono = vars_.zero_exp()
            self.nfac = ()
            self.dfac = ()
            return
        self.coeff = coeff
        self.mono = tuple(mono)
        self.nfac = tuple(sorted(nfac))
        self.dfac = tuple(sorted(dfac))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars_):
        return cls(vars_, 0, vars_.zero_exp(), (), ())

    @classmethod
    def one(cls, vars_):
        return cls(vars_, 1, vars_.zero_exp(), (), ())

    @classmethod
    def constant(cls, vars_, c):
        return cls(vars_, c, vars_.zero_exp(), (), ())

    @classmethod
    def monomial(cls, vars_, exp, c=1):
        return cls(vars_, c, tuple(exp), (), ())

    @classmethod
    def from_poly(cls, poly):
        if poly.is_zero():
            return cls.zero(poly.vars)
        coeff, mono, key = canonical_factor(poly)
        return cls(poly.vars, coeff, mono, _factors(key), ())

    # -- predicates and views ------------------------------------------

    def is_zero(self):
        return not self.coeff

    def numerator_poly(self):
        """Expanded numerator (including the unit)."""
        p = Poly.monomial(self.vars, self.mono, self.coeff)
        for key in self.nfac:
            p = p * _key_to_poly(self.vars, key)
        return p

    def denominator_poly(self):
        p = Poly.constant(self.vars, 1)
        for key in self.dfac:
            p = p * _key_to_poly(self.vars, key)
        return p

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFun(self.vars, self.coeff * other, self.mono, self.nfac, self.dfac)
        _check_same(self, other)
        if self.is_zero() or other.is_zero():
            return RatFun.zero(self.vars)
        nfac, dfac = _cancel_multisets(
            self.nfac + other.nfac, self.dfac + other.dfac
        )
        return RatFun(
            self.vars,
            self.coeff * other.coeff,
            exp_mul(self.mono, other.mono),
            nfac,
            dfac,
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFun(self.vars, 1 / self.coeff, exp_neg(self.mono), self.dfac, self.nfac)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / Fraction(other))
        return self * other.inverse()

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.constant(self.vars, other)
        _check_same(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        common, amore, bmore = _split_common(self.dfac, other.dfac)
        na = self.numerator_poly()
        for key in bmore:
            na = na * _key_to_poly(self.vars, key)
        nb = other.numerator_poly()
        for key in amore:
            nb = nb * _key_to_poly(self.vars, key)
        num = na + nb
        if num.is_zero():
            return RatFun.zero(self.vars)
        c, e, key = canonical_factor(num)
        nfac, dfac = _cancel_multisets(_factors(key), common + amore + bmore)
        return RatFun(self.vars, c, e, nfac, dfac)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.constant(self.vars, other)
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.constant(self.vars, other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if (
            self.coeff == other.coeff
            and self.mono == other.mono
            and self.nfac == other.nfac
            and self.dfac == other.dfac
        ):
            return True
        # compare through the quotient: shared factors cancel as multisets,
        # so only the (typically tiny) residual gets expanded
        diff = self / other
        return diff.numerator_poly() == diff.denominator_poly()

    def __hash__(self):
        # every factor key is primitive with a positive leading coefficient,
        # and so is every product of keys (Gauss's lemma), so coeff is the
        # same for each representation of a value, reduced or not: hashing
        # (vars, coeff) agrees with ==
        return hash((self.vars, self.coeff))

    # -- substitution and evaluation -------------------------------------

    def substitute_exponents(self, remap):
        """Apply a lattice automorphism (e.g. a Weyl substitution) exactly."""
        coeff = self.coeff
        mono = remap(self.mono)
        nfac = dfac = ()
        for key in self.nfac:
            c, e, k = canonical_factor(_key_to_poly(self.vars, key).substitute_exponents(remap))
            coeff *= c
            mono = exp_mul(mono, e)
            nfac += _factors(k)
        for key in self.dfac:
            c, e, k = canonical_factor(_key_to_poly(self.vars, key).substitute_exponents(remap))
            coeff /= c
            mono = tuple(map(sub, mono, e))
            dfac += _factors(k)
        nfac, dfac = _cancel_multisets(nfac, dfac)
        return RatFun(self.vars, coeff, mono, nfac, dfac)

    def eval_at(self, point, tol=POLE_TOL):
        """Evaluate at a complex point; raise PoleError near a denominator zero."""
        if len(point) != self.vars.size:
            raise ContextMismatchError("point shape does not match context")
        powers = [{} for _ in point]
        num = eval_terms(((self.mono, self.coeff),), point, powers)
        for key in self.nfac:
            num *= eval_terms(key, point, powers)
        den = 1 + 0j
        for key in self.dfac:
            den *= eval_terms(key, point, powers)
        if abs(den) < tol:
            raise PoleError(
                "evaluation within %g of a pole (|denominator| = %g)"
                % (tol, abs(den)),
                magnitude=abs(den),
            )
        return num / den

    # -- output ----------------------------------------------------------

    def text(self):
        """Deterministic serialization, numerator and denominator expanded.

        The pair is normalized so the denominator's lexicographically first
        term has positive coefficient.
        """
        num = self.numerator_poly()
        den = self.denominator_poly()
        if den.terms and den.terms[min(den.terms)] < 0:
            num = -num
            den = -den
        if den == Poly.constant(self.vars, 1):
            return num.text()
        return "(%s) / (%s)" % (num.text(), den.text())

    def __repr__(self):
        return "RatFun(%s)" % self.text()


def _split_common(a, b):
    """Split two sorted factor tuples into (common, a_only, b_only) multisets."""
    common, amore = [], []
    rest = list(b)
    for key in a:
        try:
            rest.remove(key)
            common.append(key)
        except ValueError:
            amore.append(key)
    return tuple(common), tuple(amore), tuple(rest)


def _cancel_multisets(nfac, dfac):
    if not nfac or not dfac:
        return tuple(nfac), tuple(dfac)
    common, nonly, donly = _split_common(tuple(nfac), tuple(dfac))
    return nonly, donly


# -- local zeta factors ----------------------------------------------------


def zeta_inv_of(m):
    """1/zeta(s) = 1 - q^(-s) as a RatFun, from the monomial m = q^(-s).

    Raises PoleError at s = 0 (m = 1), where the factor degenerates.
    """
    one = Poly.constant(m.vars, 1)
    if m == one:
        raise PoleError("zeta pole at s=0")
    return RatFun.from_poly(one - m)


def zeta_of(m):
    """The local zeta factor zeta(s) = 1/(1 - q^(-s)) as a RatFun, from the
    monomial m = q^(-s); PoleError at s = 0."""
    return zeta_inv_of(m).inverse()
