"""Support combinatorics: dominant cones, the three double-coset reduction
operations, their closure normal form, and the partial order used in the
uniqueness argument.

A triple (d; a, r) records a double-coset representative p^d lambda p^(a,r)
with d, r nonnegative integer m-vectors, a a dominant (n-m)-vector and d+r
dominant.  The operations only shuffle mass between d and r, preserving
d+r; iterating them in the prescribed order reaches the unique triple with
componentwise-minimal d among all equivalent dominant-shaped triples.
"""

from dataclasses import dataclass

from .weyl import is_dominant

__all__ = ["ConeTriple", "op1", "op2", "op3", "normal_form", "ws_leq", "WSPair"]


@dataclass(frozen=True)
class ConeTriple:
    """The data (d; a, r): d, r >= 0 componentwise, a dominant, d+r dominant."""

    n: int
    m: int
    d: tuple
    a: tuple
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if self.n < self.m + 1:
            raise ValueError("rank constraint violated: need n >= m+1")
        if len(self.d) != self.m or len(self.r) != self.m:
            raise ValueError("d and r must have length m")
        if len(self.a) != self.n - self.m:
            raise ValueError("a must have length n-m")
        if any(x < 0 for x in self.d) or any(x < 0 for x in self.r):
            raise ValueError("d and r must be nonnegative")
        if not is_dominant(self.a):
            raise ValueError("a must be dominant")
        s = tuple(x + y for x, y in zip(self.d, self.r))
        if not is_dominant(s):
            raise ValueError("d + r must be dominant")

    def replace(self, d=None, r=None):
        return ConeTriple(
            self.n,
            self.m,
            self.d if d is None else d,
            self.a,
            self.r if r is None else r,
        )


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


@dataclass(frozen=True)
class WSPair:
    """A dominant pair (d, f) indexing a double coset p^d lambda p^f."""

    n: int
    m: int
    d: tuple
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "f", tuple(int(x) for x in self.f))
        if len(self.d) != self.m or len(self.f) != self.n:
            raise ValueError("shape mismatch: need |d| = m, |f| = n")
        if not is_dominant(self.d) or not is_dominant(self.f):
            raise ValueError("d and f must be dominant")


def _psum(vec, l):
    return sum(vec[:l])


def ws_leq(p, q):
    """True iff q dominates p in the support order: q >= p.

    Three families of inequalities on fundamental-weight pairings
    <w_l, f> = f_1 + ... + f_l:

      (1) <w_l, fq> >= <w_l, fp> for 1 <= l <= n-m;
      (2) <w_l, fq> + <w'_{l-(n-m)}, dq> >= same of p, for n-m+1 <= l <= n;
      (3) <w_{n-m+l-1}, fq> + <w'_l, dq> >= same of p, for 1 <= l <= m.
    """
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError("rank mismatch")
    n, m = p.n, p.m
    shift = n - m
    for l in range(1, shift + 1):
        if _psum(q.f, l) < _psum(p.f, l):
            return False
    for l in range(shift + 1, n + 1):
        if _psum(q.f, l) + _psum(q.d, l - shift) < _psum(p.f, l) + _psum(p.d, l - shift):
            return False
    for l in range(1, m + 1):
        if _psum(q.f, shift + l - 1) + _psum(q.d, l) < _psum(p.f, shift + l - 1) + _psum(
            p.d, l
        ):
            return False
    return True
