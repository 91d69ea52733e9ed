"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from wscalc import charform, cone, padic, wsformula
from wscalc.ratfun import Poly, RatFun, Vars
from wscalc.weyl import SignedPerm, enumerate_group, reflection, simple_roots
from wscalc.zetafactors import (
    Context,
    gamma_alpha,
    gamma_beta,
    gamma_big,
    reflection_factors,
)

from references import WSPair, so_char, weyl_matrix, ws_leq

CONTEXTS = [Context(1, 0), Context(2, 1), Context(3, 1), Context(3, 2)]


def report(number, ok, text):
    print("[%s] criterion %2d: %s" % ("PASS" if ok else "FAIL", number, text))
    assert ok, "criterion %d failed: %s" % (number, text)


def dominant(v):
    return all(x >= 0 for x in v) and all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def test_c01_normalization_constant():
    t0 = time.time()
    ok = True
    counts = []
    for ctx in CONTEXTS:
        computed = wsformula.weyl_sum(ctx, (0,) * ctx.m, (0,) * ctx.n)
        ok &= computed == wsformula.normalization_constant_closed(ctx)
        ok &= charform.coefficient_agrees(ctx, 0)
        order = len(enumerate_group(ctx.n)) * len(enumerate_group(ctx.m))
        counts.append(order)
    elapsed = time.time() - t0
    ok &= counts == [2, 16, 96, 384]
    ok &= elapsed < 60
    report(
        1,
        ok,
        "double Weyl sum equals zeta(1)^m prod zeta^-1(2i) for (n,m) in "
        "{(1,0),(2,1),(3,1),(3,2)}; term counts %s; %.1fs" % (counts, elapsed),
    )


def test_c02_value_one_at_identity():
    ok = all(
        wsformula.L_value(ctx, (0,) * ctx.m, (0,) * ctx.n).ratfun() == 1 for ctx in CONTEXTS
    )
    report(2, ok, "L(0, 0) = 1 exactly for all four contexts")


def test_c03_gamma_consistency():
    ok = True
    checked = 0
    for ctx in (Context(2, 1), Context(3, 2)):
        V = ctx.vars
        gamma = gamma_big(ctx)
        c = {(g, a): c for g, a, _, c, _ in reflection_factors(ctx)}
        for alpha in simple_roots(ctx.n):
            remap = reflection(alpha).embed_remap(V.size, 1)
            ok &= (
                gamma.substitute_exponents(remap) * c["G", alpha]
                == gamma * gamma_alpha(ctx, alpha)
            )
            checked += 1
        for beta in simple_roots(ctx.m):
            remap = reflection(beta).embed_remap(V.size, 1 + ctx.n)
            ok &= (
                gamma.substitute_exponents(remap) * c["M", beta]
                == gamma * gamma_beta(ctx, beta)
            )
            checked += 1
    report(
        3,
        ok,
        "Gamma(reflected)/Gamma = c^-1 gamma exactly for all %d simple roots "
        "of (2,1) and (3,2)" % checked,
    )


def _one_minus_x1(ctx):
    V = ctx.vars
    x1 = Poly.monomial(V, (0, 1) + (0,) * (V.size - 2))
    return RatFun.from_poly(Poly.constant(V, 1) - x1)


def test_c04_invariance(monkeypatch):
    ok = True
    for d, f in [((0,), (0, 0)), ((0,), (1, 0)), ((1,), (1, 1))]:
        rep = wsformula.invariance_report(Context(2, 1), d, f, mode="exact")
        ok &= rep.ok
    ok &= wsformula.invariance_report(Context(3, 2), (1, 0), (2, 1, 0)).ok
    # the check can fail: a Gamma off by the factor 1 - x1 breaks e1-e2
    monkeypatch.setattr(
        wsformula, "gamma_big", lambda ctx: gamma_big(ctx) * _one_minus_x1(ctx)
    )
    rep = wsformula.invariance_report(Context(2, 1), (1,), (1, 1))
    failing = [g["root"] for g in rep.as_dict()["generators"] if not g["pass"]]
    ok &= failing == ["e1-e2"]
    report(
        4,
        ok,
        "Gamma S picks up gamma_s / c_s under every simple reflection s, exactly, "
        "at (2,1) for three (d,f) and at (3,2); Gamma (1 - x1) fails at %s" % failing,
    )


def test_c05_shintani_identity():
    t0 = time.time()
    rep1 = charform.shintani_verify(Context(2, 1), 8)
    rep2 = charform.shintani_verify(Context(3, 2), 6)
    elapsed = time.time() - t0
    ok = rep1.ok and rep2.ok and elapsed < 300
    report(
        5,
        ok,
        "series identity exact: (2,1) K=8 (%d coefficients), (3,2) K=6 (%d); "
        "%.1fs < 300s" % (len(rep1.results), len(rep2.results), elapsed),
    )


def test_c06_cone_calculus():
    rng = random.Random(2024)
    ok = True
    produced = 0
    for _ in range(1000):
        n, m = rng.choice([(2, 1), (3, 2), (3, 1)])
        while True:
            a = tuple(sorted((rng.randint(0, 5) for _ in range(n - m)), reverse=True))
            d = tuple(rng.randint(0, 5) for _ in range(m))
            r = tuple(rng.randint(0, 5) for _ in range(m))
            if dominant(tuple(x + y for x, y in zip(d, r))):
                break
        t = cone.ConeTriple(n, m, d, a, r)
        nf = cone.normal_form(t)
        ok &= tuple(x + y for x, y in zip(nf.d, nf.r)) == tuple(
            x + y for x, y in zip(d, r)
        )
        ok &= all(x >= y for x, y in zip(nf.d, d))
        ok &= cone.normal_form(nf) == nf
        produced += 1
    minimal_checked = 0
    for n, m in [(2, 1), (3, 2)]:
        avecs = [
            a for a in itertools.product(range(4), repeat=n - m) if dominant(a)
        ]
        for a in avecs:
            for d in itertools.product(range(4), repeat=m):
                for r in itertools.product(range(4), repeat=m):
                    total = tuple(x + y for x, y in zip(d, r))
                    if not dominant(total):
                        continue
                    t = cone.ConeTriple(n, m, d, a, r)
                    nf = cone.normal_form(t)
                    feas = []
                    for d2 in itertools.product(
                        *[range(d[j], total[j] + 1) for j in range(m)]
                    ):
                        r2 = tuple(x - y for x, y in zip(total, d2))
                        if min(r2, default=0) >= 0 and dominant(d2) and dominant(a + r2):
                            feas.append(d2)
                    ok &= nf.d in feas
                    ok &= all(all(x <= y for x, y in zip(nf.d, d2)) for d2 in feas)
                    minimal_checked += 1
    report(
        6,
        ok,
        "sum conservation, d-monotonicity, idempotence on %d random triples; "
        "minimality vs exhaustive oracle on %d triples" % (produced, minimal_checked),
    )


def test_c07_matrix_cell_calculus():
    p = 3
    ok = True
    per_ctx = 100
    for n, m in [(2, 1), (3, 2)]:
        rng = random.Random(1000 * n + m)
        # lemmaalpha (3): among Weyl representatives only w0 keeps every
        # alpha_k nonzero
        hits = [
            w
            for w in enumerate_group(n)
            if all(
                padic.alpha_k(weyl_matrix(n, w), k) for k in range(1, n + 1)
            )
        ]
        ok &= hits == [SignedPerm(range(1, n + 1), (-1,) * n)]
        for trial in range(per_ctx):
            g, ts, ss = padic.random_cell_element(n, m, rng, p)
            # lemmaalpha (1)/(2), lemopen (1)/(2)/(3) on a random conjugate
            n1 = padic.random_upper_unipotent_G(n, rng, p)
            n2 = padic.random_upper_unipotent_G(n, rng, p)
            ok &= all(
                padic.alpha_k(n1 * g * n2, k) == padic.alpha_k(g, k)
                for k in range(1, n + 1)
            )
            t2 = padic.random_torus_values(rng, p, n)
            s2 = padic.random_torus_values(rng, p, n)
            gg = padic.d_torus(n, t2) * g * padic.d_torus(n, s2)
            for k in range(1, n + 1):
                scale = Fraction(1)
                for i in range(k):
                    scale *= s2[i] / t2[i]
                ok &= padic.alpha_k(gg, k) == scale * padic.alpha_k(g, k)
            nmj = padic.random_unipotent_MJ(n, m, rng, p)
            uu = padic.random_unipotent_U(n, m, rng, p)
            for l in range(1, m + 1):
                ok &= padic.beta_l(n1 * g, l, m) == padic.beta_l(g, l, m)
                ok &= padic.beta_l(g * nmj * uu, l, m) == padic.beta_l(g, l, m)
            # lemopen (4) on the standard section
            rs = [padic.random_rational(rng, p) for _ in range(m)]
            gx = padic.w0_element(n) * padic.x_elem(n, m, rs)
            for l in range(1, m + 1):
                ok &= abs(padic.beta_l(gx, l, m)) == abs(rs[l - 1])
            # constructive oracles: valuation recovery and the kernel size
            ok &= padic.factor_valuations(g, m, p) == (
                tuple(padic.valuation(t, p) for t in ts),
                tuple(padic.valuation(s, p) for s in ss),
            )
            chi = [Fraction(rng.randint(-6, 6), 2) for _ in range(n)]
            xi = [Fraction(rng.randint(-6, 6), 2) for _ in range(m)]
            E = padic.abs_cell_kernel(g, m, p, chi, xi)
            expect = Fraction(0)
            for i, t in enumerate(ts, 1):
                expect += -padic.valuation(t, p) * (-chi[i - 1] + (n - i + 1))
            for j, s in enumerate(ss, 1):
                expect += -padic.valuation(s, p) * (
                    xi[j - 1] - (m - j + Fraction(3, 2))
                )
            ok &= E == expect
            if not ok:
                break
    report(
        7,
        ok,
        "minor lemmas and both constructive oracles exact on %d seeded random "
        "elements per context (2,1) and (3,2)" % per_ctx,
    )


def test_c08_gauss_shell():
    ok = True
    checked = 0
    worst = 0.0
    for q in (3, 5):
        for i, j in itertools.product(range(-4, 5), repeat=2):
            closed = complex(padic.gauss_shell(i, j, q))
            numeric = padic.gauss_shell_numeric(i, j, q)
            dev = abs(closed - numeric)
            worst = max(worst, dev)
            ok &= dev < 1e-9
            checked += 1
    report(
        8,
        ok,
        "closed form matches the residue-ring character-sum oracle on %d "
        "cases (q in {3,5}, i,j in [-4,4]); max deviation %.2e" % (checked, worst),
    )


def test_c09_character_formula():
    import cmath

    ok = True
    # exact W-invariance for N <= 2
    for N in (1, 2):
        V = Vars(N, 0)
        lam = tuple(range(N, 0, -1))
        c = so_char(V, lam)
        for w in enumerate_group(N):
            ok &= c.substitute_exponents(w.embed_remap(V.size, 1)) == c
    # numeric for N = 3
    V = Vars(3, 0)
    c = so_char(V, (2, 1, 0))
    rng = random.Random(9)
    pts = [
        tuple(0.8 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(V.size))
        for _ in range(3)
    ]
    for w in enumerate_group(3):
        for pt in pts:
            wpt = (pt[0],) + w.act_on_point(pt[1:])
            ok &= abs(c.eval_at(pt) - c.eval_at(wpt)) < 1e-9
    # vanishing strip
    for m in (1, 2):
        Vm = Vars(m + 1, 0)
        for k in range(1, 2 * m + 1):
            ok &= so_char(Vm, (-k,) + (0,) * m).is_zero()
    report(
        9,
        ok,
        "so_char is W-invariant (exact N<=2, numeric N=3) and vanishes on the "
        "strip lam_1 in {-1..-2m} for m <= 2",
    )


def test_c10_partial_order():
    n, m = 2, 1
    fs = [f for f in itertools.product(range(4), repeat=n) if dominant(f)]
    ds = [d for d in itertools.product(range(4), repeat=m) if dominant(d)]
    pairs = [WSPair(n, m, d, f) for d in ds for f in fs]
    leq = {(p, q): ws_leq(p, q) for p in pairs for q in pairs}
    ok = all(leq[(p, p)] for p in pairs)
    for p in pairs:
        for q in pairs:
            if leq[(p, q)] and leq[(q, p)]:
                ok &= p == q
    for p in pairs:
        for q in pairs:
            if not leq[(p, q)]:
                continue
            for r in pairs:
                if leq[(q, r)]:
                    ok &= leq[(p, r)]
    report(
        10,
        ok,
        "the support order is reflexive, antisymmetric and transitive on all "
        "%d dominant pairs with entries <= 3 at (2,1)" % len(pairs),
    )
