"""Support combinatorics: dominant cones, the three double-coset reduction
operations and their closure normal form.

A triple (d; a, r) records a double-coset representative p^d lambda p^(a,r)
with d, r nonnegative integer m-vectors, a a dominant (n-m)-vector and d+r
dominant.  The operations only shuffle mass between d and r, preserving
d+r; iterating them in the prescribed order reaches the unique triple with
componentwise-minimal d among all equivalent dominant-shaped triples.
"""

from operator import add

from .ratfun import Context
from .weyl import is_dominant

__all__ = ["ConeTriple", "op1", "op2", "op3", "normal_form"]


class ConeTriple:
    """The data (d; a, r): d, r >= 0 componentwise, a dominant, d+r dominant,
    checked whenever a triple is built, the operations' results included."""

    __slots__ = ("n", "m", "d", "a", "r")

    def __init__(self, n, m, d, a, r):
        d, a, r = tuple(map(int, d)), tuple(map(int, a)), tuple(map(int, r))
        Context(n, m)  # validates the ranks
        if len(d) != m or len(r) != m:
            raise ValueError("d and r must have length m")
        if len(a) != n - m:
            raise ValueError("a must have length n-m")
        if min(d, default=0) < 0 or min(r, default=0) < 0:
            raise ValueError("d and r must be nonnegative")
        if not is_dominant(a):
            raise ValueError("a must be dominant")
        if not is_dominant(tuple(map(add, d, r))):
            raise ValueError("d + r must be dominant")
        for name, value in zip(self.__slots__, (n, m, d, a, r)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("ConeTriple is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return self.n, self.m, self.d, self.a, self.r

    def __eq__(self, other):
        return isinstance(other, ConeTriple) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ConeTriple(n=%r, m=%r, d=%r, a=%r, r=%r)" % self._key()

    def replace(self, d, r):
        """The triple with d and r replaced, validated like any other."""
        return ConeTriple(self.n, self.m, d, self.a, r)


def op1(t):
    """Operation 1: when a_{n-m} < r_1, cap r_1 at a_{n-m} and push the excess
    into d.  A no-op when the guard fails, so pipelines compose statically."""
    if t.m == 0 or t.a[-1] >= t.r[0]:
        return t
    rbar = (t.a[-1],) + t.r[1:]
    d = tuple(x + y - z for x, y, z in zip(t.d, t.r, rbar))
    return t.replace(d=d, r=rbar)


def op2(t, i):
    """Operation (2,i): cap every r_j with j > i at r_i, pushing excess into d."""
    if not 1 <= i <= t.m:
        raise IndexError("operation index out of range: %d" % i)
    ri = t.r[i - 1]
    rtil = tuple(
        ri if (j > i and rj > ri) else rj for j, rj in enumerate(t.r, 1)
    )
    d = tuple(x + y - z for x, y, z in zip(t.d, t.r, rtil))
    return t.replace(d=d, r=rtil)


def op3(t, i):
    """Operation (3,i): raise every d_j with j < i to d_i, pulling from r."""
    if not 1 <= i <= t.m:
        raise IndexError("operation index out of range: %d" % i)
    di = t.d[i - 1]
    dtil = tuple(
        di if (j < i and dj < di) else dj for j, dj in enumerate(t.d, 1)
    )
    r = tuple(x + y - z for x, y, z in zip(t.r, t.d, dtil))
    return t.replace(d=dtil, r=r)


def normal_form(t, trace=None):
    """Run Operation 1, then (2,i) for i = 1..m, then (3,i) for i = m..1.

    The result has d dominant, (a, r) jointly dominant, the same d+r, a
    componentwise-larger d, and the smallest such d among all triples with
    those three properties.  Pass a list as ``trace`` to record every step
    (including no-ops) as (label, before, after).
    """
    cur = op1(t)
    if trace is not None:
        trace.append(("op1", t, cur))
    for i in range(1, t.m + 1):
        nxt = op2(cur, i)
        if trace is not None:
            trace.append(("op2,%d" % i, cur, nxt))
        cur = nxt
    for i in range(t.m, 0, -1):
        nxt = op3(cur, i)
        if trace is not None:
            trace.append(("op3,%d" % i, cur, nxt))
        cur = nxt
    return cur
