"""Hyperoctahedral Weyl groups W(C_k): signed permutations, alternants and
the Weyl characters of the dual groups.

An element w = (image, flips) sends the i-th coordinate to the image(i)-th,
with a sign flip where flips[image(i)] = -1.  Substituting w into variables
replaces x_j by x_{image^-1(j)}^{flips[j]}; the induced map on exponent
tuples is ``act_on_exponents``.  The sign character is the determinant of
the reflection representation: parity of the permutation times (-1)^#flips.

W(C_k) is also the Weyl group of SO(2k+1) (type B) and of Sp(2k) (type C),
so one alternant serves both character formulas; they differ only in rho
and in the long roots, e_i or 2e_i.  A character is the alternant of
lam + rho divided by the Weyl denominator, one positive-root binomial
x^(alpha/2) - x^(-alpha/2) at a time, in integers.
"""

from functools import lru_cache
from itertools import permutations, product

from .ratfun import Poly, Vars

__all__ = [
    "SignedPerm",
    "enumerate_group",
    "alternating_monomial_sum",
    "straighten",
    "straighten_weight",
    "character",
    "dominant_weights",
    "distinct_permutations",
    "group_order",
    "is_dominant",
    "positive_roots",
]

ENUMERATION_GUARD = 6


class SignedPerm:
    """A signed permutation of {1..k}; image and flips are 1-indexed tuples."""

    __slots__ = ("image", "flips")

    def __init__(self, image, flips):
        image = tuple(image)
        flips = tuple(flips)
        k = len(image)
        if sorted(image) != list(range(1, k + 1)):
            raise ValueError("image is not a permutation of 1..k")
        if len(flips) != k or any(f not in (1, -1) for f in flips):
            raise ValueError("flips must be a +-1 vector of length k")
        self.image = image
        self.flips = flips

    @classmethod
    def identity(cls, k):
        return cls(tuple(range(1, k + 1)), (1,) * k)

    @classmethod
    def longest(cls, k):
        """w_0: all sign flips, identity permutation (sends x to x^-1)."""
        return cls(tuple(range(1, k + 1)), (-1,) * k)

    @property
    def k(self):
        return len(self.image)

    def __eq__(self, other):
        return (
            isinstance(other, SignedPerm)
            and self.image == other.image
            and self.flips == other.flips
        )

    def __hash__(self):
        return hash((self.image, self.flips))

    def __repr__(self):
        return "SignedPerm(image=%r, flips=%r)" % (self.image, self.flips)

    def __mul__(self, other):
        """Composition self*other: apply other first, then self."""
        if self.k != other.k:
            raise ValueError("rank mismatch")
        image = tuple(self.image[other.image[i] - 1] for i in range(self.k))
        inv_self = self.inverse_image()
        flips = tuple(
            self.flips[j - 1] * other.flips[inv_self[j - 1] - 1]
            for j in range(1, self.k + 1)
        )
        return SignedPerm(image, flips)

    def inverse_image(self):
        inv = [0] * self.k
        for i, j in enumerate(self.image, 1):
            inv[j - 1] = i
        return tuple(inv)

    def inverse(self):
        inv = self.inverse_image()
        # the inverse's flip at target i is the original flip at image(i)
        flips = tuple(self.flips[self.image[i] - 1] for i in range(self.k))
        return SignedPerm(inv, flips)

    def sgn(self):
        """Determinant character: permutation parity times (-1)^#flips."""
        sign = 1
        seen = [False] * self.k
        for i in range(self.k):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.image[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        for f in self.flips:
            if f == -1:
                sign = -sign
        return sign

    # -- actions -------------------------------------------------------

    def act_on_point(self, values):
        """Transform a k-tuple of values: (w.x)_j = x_{image^-1(j)}^{flips_j}."""
        if len(values) != self.k:
            raise ValueError("length mismatch")
        inv = self.inverse_image()
        out = []
        for j in range(1, self.k + 1):
            val = values[inv[j - 1] - 1]
            out.append(val if self.flips[j - 1] == 1 else 1 / val)
        return tuple(out)

    def act_on_exponents(self, mu):
        """Exponent remap of the substitution: x^mu -> x^(w*mu).

        (w*mu)_i = flips[image(i)] * mu[image(i)], so that substituting
        ``act_on_point`` into the monomial x^mu yields x^(w*mu).
        """
        if len(mu) != self.k:
            raise ValueError("length mismatch")
        return tuple(
            self.flips[self.image[i] - 1] * mu[self.image[i] - 1]
            for i in range(self.k)
        )

    def embed_remap(self, size, offset):
        """Exponent remap on a larger lattice, acting on slots offset..offset+k-1."""
        image = self.image
        flips = self.flips
        k = self.k

        def remap(exp):
            out = list(exp)
            for i in range(k):
                j = image[i] - 1
                out[offset + i] = flips[j] * exp[offset + j]
            return tuple(out)

        return remap


@lru_cache(maxsize=None)
def enumerate_group(k):
    """All 2^k k! elements of W(C_k), in deterministic order.

    Images run in lexicographic order; within each image the flip vectors
    run in binary counting order (+1 before -1 per coordinate).
    """
    if k > ENUMERATION_GUARD:
        raise ValueError(
            "W(C_%d) has %d elements; enumeration is guarded at k=%d, and "
            "exact and numeric mode both enumerate it" % (k, group_order(k), ENUMERATION_GUARD)
        )
    out = []
    for image in permutations(range(1, k + 1)):
        for bits in product((1, -1), repeat=k):
            out.append(SignedPerm(image, bits))
    return tuple(out)


def group_order(k):
    """|W(C_k)| = 2^k k!."""
    n = 1
    for i in range(1, k + 1):
        n *= 2 * i
    return n


def is_dominant(vec):
    """An integer weight is dominant for W(C_k) iff it is weakly decreasing
    with a nonnegative last entry: read from the end, no entry is below the
    one after it, nor the last below 0."""
    low = 0
    for a in reversed(vec):
        if a < low:
            return False
        low = a
    return True


def straighten(mu):
    """Reflect an integer pattern into the dominant chamber of W(C_k).

    Returns (sgn(w), w*mu) for the w whose image w*mu is strictly decreasing
    and positive, so that the alternant of mu is sgn(w) times the alternant
    of w*mu; or None when mu is singular (a zero or a repeated |entry|) and
    its alternant vanishes.
    """
    mags = [abs(a) for a in mu]
    if 0 in mags or len(set(mags)) < len(mags):
        return None
    sign = -1 if sum(a < 0 for a in mu) % 2 else 1
    for i, a in enumerate(mags):
        for b in mags[i + 1 :]:
            if a < b:
                sign = -sign
    return sign, tuple(sorted(mags, reverse=True))


def alternating_monomial_sum(vars_, mu, offset, k):
    """The alternant sum_w sgn(w) X^(w*mu) as a Poly, acting on slots
    offset..offset+k-1 of the exponent lattice; other slots of ``mu`` pass
    through unchanged.  Non-regular patterns collapse to 0.
    """
    acc = {}
    for w in enumerate_group(k):
        e = w.embed_remap(vars_.size, offset)(tuple(mu))
        s = acc.get(e, 0) + w.sgn()
        if s:
            acc[e] = s
        else:
            del acc[e]
    return Poly(vars_, acc, prune=False)


def _doubled_rho(k, group):
    """2*rho of SO(2k+1), (2k-1, ..., 1), or of Sp(2k), (2k, ..., 2)."""
    if group not in ("so", "sp"):
        raise ValueError("group must be 'so' or 'sp'")
    odd = group == "so"
    return tuple(2 * (k - i) - odd for i in range(k))


def straighten_weight(lam, group):
    """The dot action: chi_lam = sign * chi_dom for any integer weight lam.

    ``group`` is "so" for SO(2k+1), rho = (k-1/2, ..., 1/2), or "sp" for
    Sp(2k), rho = (k, ..., 1).  Returns (sign, dom) with dom dominant, the
    straightening of lam + rho minus rho, or None when lam + rho is singular
    and the character vanishes.  Works on doubled weights, where both rhos
    are integral.
    """
    rho2 = _doubled_rho(len(lam), group)
    st = straighten(tuple(2 * a + r for a, r in zip(lam, rho2)))
    if st is None:
        return None
    sign, mu = st
    return sign, tuple((a - r) // 2 for a, r in zip(mu, rho2))


def positive_roots(k, group):
    """The positive roots of SO(2k+1) (group "so") or Sp(2k) (group "sp") as
    integer k-tuples: e_i or 2e_i, then e_a - e_b and e_a + e_b for a < b."""
    long_ = {"so": 1, "sp": 2}[group]
    roots = [tuple(long_ * (t == i) for t in range(k)) for i in range(k)]
    return roots + [
        tuple((t == a) + s * (t == b) for t in range(k))
        for a in range(k) for b in range(a + 1, k) for s in (-1, 1)
    ]


def _divide_binomial(poly, alpha):
    """The quotient of ``poly`` ({exponent k-tuple: int}) by X^alpha - X^-alpha,
    or None when the division is inexact.

    Each line e + Z*alpha is walked from the top: with P = Q*(X^alpha -
    X^-alpha), Q(e - alpha) = P(e) + Q(e + alpha).  The division is exact
    exactly when the last two carries of every line, at its lowest exponent
    and one step below it, are zero.
    """
    i = next(i for i, a in enumerate(alpha) if a)
    step = alpha[i]
    lines = {}
    for e, c in poly.items():
        t = e[i] // step
        lines.setdefault(tuple([a - t * b for a, b in zip(e, alpha)]), {})[t] = c
    quot = {}
    for base, line in lines.items():
        lo = min(line)
        above = cur = 0  # Q at t + 1 and at t, walking t downwards
        for t in range(max(line), lo - 1, -1):
            above, cur = cur, line.get(t, 0) + above
            if cur:
                quot[tuple([a + (t - 1) * b for a, b in zip(base, alpha)])] = cur
        if above or cur:
            return None
    return quot


@lru_cache(maxsize=None)
def character(lam, group):
    """The irreducible character of dominant highest weight lam of SO(2k+1)
    (group "so") or Sp(2k) (group "sp"), k = len(lam), as a tuple of
    (exponent k-tuple of x_1..x_k, integer multiplicity) pairs, exponents in
    descending order.

    Weyl's formula A(x^(lam+rho)) / A(x^rho), on doubled exponents so that
    rho is integral.  By the Weyl denominator formula A(x^rho) is the product
    of x^(alpha/2) - x^(-alpha/2) over the positive roots, so the alternant is
    divided by one binomial at a time; every division is exact and asserted.
    Dividing by the roots e_i or 2e_i first keeps the quotients on the way
    small.
    """
    k = len(lam)
    rho2 = _doubled_rho(k, group)
    alt = alternating_monomial_sum(Vars(k, 0), (0,) + tuple(2 * a + r for a, r in zip(lam, rho2)), 1, k)
    quot = {e[1:]: c for e, c in alt.terms.items()}
    for alpha in positive_roots(k, group):
        quot = _divide_binomial(quot, alpha)
        if quot is None:
            raise AssertionError("Weyl character formula failed to divide")
    if any(a % 2 for e in quot for a in e):
        raise AssertionError("character has a non-integral exponent")
    return tuple((tuple(a // 2 for a in e), quot[e]) for e in sorted(quot, reverse=True))


@lru_cache(maxsize=None)
def dominant_weights(lam, group):
    """The dominant part of ``character(lam, group)``: its (mu, multiplicity)
    pairs with mu dominant.  A character is W-invariant, so it is the sum of
    mult(mu) times the orbit sum of mu over these."""
    return tuple((mu, c) for mu, c in character(lam, group) if is_dominant(mu))


@lru_cache(maxsize=None)
def distinct_permutations(mu):
    """The distinct permutations of the tuple mu, in ascending order.  For a
    dominant mu, X^mu's W-orbit sum is the sum over them of the product of
    x_i^a + x_i^-a (1 where a = 0)."""
    return tuple(sorted(set(permutations(mu))))
