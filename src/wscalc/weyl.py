"""Hyperoctahedral Weyl groups W(C_k): signed permutations, dot-action
straightening and the Weyl characters of the dual groups.

An element w = (image, flips) sends the i-th coordinate to the image(i)-th,
with a sign flip where flips[image(i)] = -1.  Substituting w into variables
replaces x_j by x_{image^-1(j)}^{flips[j]}; the induced map on exponent
tuples, which is also the action on roots and weights, is ``embed_remap``.
The sign character is the determinant of the reflection representation:
parity of the permutation times (-1)^#flips.

Roots are integer k-tuples, one type for all of them: ``positive_roots``
lists them, ``simple_roots`` gives e_i - e_{i+1} and 2e_k, ``reflection``
the signed permutation s_alpha and ``root_label`` a name such as "e1-e2".

W(C_k) is also the Weyl group of SO(2k+1) (type B) and of Sp(2k) (type C),
so one straightening serves both groups; they differ only in rho and in the
long roots, e_i or 2e_i.  A character is built from its dominant weights:
their multiplicities come from Freudenthal's formula, in integers, and the
character is the sum of their W-orbits.  No alternant is formed or divided.
"""

from functools import lru_cache
from itertools import permutations, product
from math import factorial

__all__ = [
    "SignedPerm",
    "enumerate_group",
    "straighten",
    "straighten_weight",
    "character",
    "dominant_weights",
    "distinct_permutations",
    "is_dominant",
    "positive_roots",
    "simple_roots",
    "reflection",
    "root_label",
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

    def inverse_image(self):
        inv = [0] * self.k
        for i, j in enumerate(self.image, 1):
            inv[j - 1] = i
        return tuple(inv)

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
            "W(C_%d) has %d elements; enumeration is guarded at k=%d"
            % (k, 2**k * factorial(k), ENUMERATION_GUARD)
        )
    out = []
    for image in permutations(range(1, k + 1)):
        for bits in product((1, -1), repeat=k):
            out.append(SignedPerm(image, bits))
    return tuple(out)


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


def _doubled_rho(k, group):
    """2*rho of SO(2k+1), (2k-1, ..., 1), or of Sp(2k), (2k, ..., 2)."""
    if group not in ("so", "sp"):
        raise ValueError("group must be 'so' or 'sp'")
    odd = group == "so"
    return tuple(2 * (k - i) - odd for i in range(k))


@lru_cache(maxsize=None)
def straighten_weight(lam, group):
    """The dot action: chi_lam = sign * chi_dom for any integer weight lam.

    ``group`` is "so" for SO(2k+1), rho = (k-1/2, ..., 1/2), or "sp" for
    Sp(2k), rho = (k, ..., 1).  Returns (sign, dom) with dom dominant, the
    straightening of lam + rho minus rho, or None when lam + rho is singular
    and the character vanishes.  Works on doubled weights, where both rhos
    are integral.  Cached, like ``character``, keyed by the weight tuple
    lam and the group, so each weight is straightened once per process.
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


def simple_roots(k):
    """The simple roots of Sp(2k): e_i - e_{i+1} for i < k, then 2e_k."""
    roots = [tuple((t == i) - (t == i + 1) for t in range(k)) for i in range(k - 1)]
    return roots + [tuple(2 * (t == k - 1) for t in range(k))] if k else roots


def reflection(alpha):
    """The reflection s_alpha as a SignedPerm: a swap of a and b for
    e_a - e_b, the swap with both signs flipped for e_a + e_b, and a flip of
    i for e_i or 2e_i."""
    k = len(alpha)
    image, flips = list(range(1, k + 1)), [1] * k
    (a, ca), *rest = [(i, c) for i, c in enumerate(alpha) if c]
    if rest:
        (b, cb), = rest
        image[a], image[b] = b + 1, a + 1
        if ca == cb:
            flips[a] = flips[b] = -1
    else:
        flips[a] = -1
    return SignedPerm(image, flips)


def root_label(alpha):
    """The root as a sum of unit vectors: "e1-e2", "e1+e2", "e3" or "2e3"."""
    terms = [
        "%s%se%d" % ("-" if c < 0 else "+", abs(c) if abs(c) > 1 else "", i)
        for i, c in enumerate(alpha, 1) if c
    ]
    return "".join(terms).lstrip("+")


@lru_cache(maxsize=None)
def distinct_permutations(mu):
    """The distinct permutations of the tuple mu, in ascending order.  For a
    dominant mu, X^mu's W-orbit sum is the sum over them of the product of
    x_i^a + x_i^-a (1 where a = 0)."""
    return tuple(sorted(set(permutations(mu))))


def _dominant_below(lam, group):
    """The dominant mu <= lam, those with lam - mu a sum of positive roots:
    every partial sum of lam - mu is >= 0, and for "sp", whose long roots
    2e_i leave only the even-sum vectors in the root lattice, the total is
    even.  Largest first entry first."""

    def extend(mu, slack):
        i = len(mu)
        if i == len(lam):
            if group == "so" or slack % 2 == 0:
                yield mu
            return
        top = lam[i] + slack if i == 0 else min(mu[-1], lam[i] + slack)
        for a in range(top, -1, -1):
            yield from extend(mu + (a,), slack + lam[i] - a)

    return extend((), 0)


@lru_cache(maxsize=None)
def dominant_weights(lam, group):
    """The dominant weights of the irreducible representation of highest
    weight lam of SO(2k+1) (group "so") or Sp(2k) (group "sp"), k = len(lam),
    as (mu, multiplicity) pairs, mu in descending order.

    Freudenthal's formula (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 22.3): every dominant mu <= lam is a weight, and

        (|lam+rho|^2 - |mu+rho|^2) m(mu)
            = 2 sum_(alpha>0) sum_(j>=1) m(mu + j alpha) <mu + j alpha, alpha>.

    The gap on the left is <lam-mu, lam+mu+2 rho>, an integer since 2 rho
    is.  The mu are taken in increasing gap, so every m on the right is
    known: a weight has the multiplicity of its dominant conjugate, its
    sorted |entries|, and each alpha-string, unbroken, stops at its first
    zero.  lam itself, the only mu of gap 0, has multiplicity 1.  Every
    quotient is exact and asserted.
    """
    rho2 = _doubled_rho(len(lam), group)
    roots = positive_roots(len(lam), group)

    def gap(mu):
        return sum((a - b) * (a + b + r) for a, b, r in zip(lam, mu, rho2))

    mult = {lam: 1}
    for mu in sorted(_dominant_below(lam, group), key=gap)[1:]:
        total = 0
        for alpha in roots:
            nu = mu
            while True:
                nu = tuple([a + b for a, b in zip(nu, alpha)])
                m = mult.get(tuple(sorted(map(abs, nu), reverse=True)), 0)
                if not m:
                    break
                total += m * sum(a * b for a, b in zip(nu, alpha))
        m, rest = divmod(2 * total, gap(mu))
        if rest:
            raise AssertionError("Freudenthal's formula gave a non-integral multiplicity")
        mult[mu] = m
    return tuple(sorted(mult.items(), reverse=True))


@lru_cache(maxsize=None)
def character(lam, group):
    """The irreducible character of dominant highest weight lam of SO(2k+1)
    (group "so") or Sp(2k) (group "sp"), k = len(lam), as a tuple of
    (exponent k-tuple of x_1..x_k, integer multiplicity) pairs, exponents in
    descending order.

    The W-orbit expansion of ``dominant_weights``: each dominant mu gives
    its distinct permutations with every choice of sign on their nonzero
    entries, all with the multiplicity of mu.  W-invariant by construction.
    """
    terms = [
        (e, m)
        for mu, m in dominant_weights(lam, group)
        for pi in distinct_permutations(mu)
        for e in product(*[(a, -a) if a else (0,) for a in pi])
    ]
    return tuple(sorted(terms, reverse=True))
