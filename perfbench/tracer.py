"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces coarse public functions and methods of the ``wscalc``
modules with timing wrappers.  A function imported by name into another
module (``from .ratfun import laurent_div_exact``) is looked up there, so
every module attribute that *is* the original function gets the wrapper,
not just the defining one; methods are replaced on their class.  A name that
no longer exists is skipped: its metrics read 0 and its time falls into the
caller's self time.

Leaf functions called once per term of an inner loop (``padic.valuation``,
``Poly.__mul__``, ``exp_mul``) are deliberately left unwrapped: the wrapper
costs about a microsecond per call, which would swamp them.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Count hooks run outside every span and their time is kept
separately (``hook_s``), so that self times plus hook time add up to the
root span's duration.
"""

import sys
import time
from math import factorial

# (module, attribute path, span name).  The span name's prefix is the layer.
WRAPS = (
    ("ratfun", "laurent_div_exact", "ratfun.div"),
    ("ratfun", "RatFun.reduced", "ratfun.reduce"),
    ("ratfun", "RatFun.__eq__", "ratfun.eq"),
    ("ratfun", "RatFun.eval_at", "ratfun.eval"),
    ("weyl", "enumerate_group", "weyl.enumerate"),
    ("zetafactors", "b_factor_poly", "zetafactors.b_expand"),
    ("zetafactors", "gamma_big", "zetafactors.gamma_big"),
    ("wsformula", "weyl_sum", "wsformula.weyl_sum"),
    ("wsformula", "weyl_sum_numeric", "wsformula.numeric"),
    ("wsformula", "L_value", "wsformula.L_value"),
    ("wsformula", "ws_torus", "wsformula.ws_torus"),
    ("wsformula", "invariance_report", "wsformula.invariance_report"),
    ("wsformula", "normalization_constant_closed", "wsformula.constant_closed"),
    ("charform", "so_char", "charform.so_char"),
    ("charform", "lhs_series", "charform.lhs_series"),
    ("charform", "rhs_series", "charform.rhs_series"),
    ("charform", "shintani_verify", "charform.shintani_verify"),
    ("padic", "SympMatrix.preserves_form", "padic.form_check"),
    ("padic", "SympMatrix.__mul__", "padic.matmul"),
    ("padic", "minor", "padic.minor"),
    ("padic", "gauss_shell_numeric", "padic.gauss_oracle"),
    ("padic", "random_cell_element", "padic.random_cell_element"),
    ("padic", "factor_valuations", "padic.factor_valuations"),
    ("padic", "abs_cell_kernel", "padic.abs_cell_kernel"),
    ("cone", "normal_form", "cone.normal_form"),
    ("cli", "main", "cli.main"),
)

# modules whose lru_cache hit ratio is reported
CACHED_LAYERS = ("zetafactors", "weyl")

LAYERS = ("ratfun", "weyl", "zetafactors", "wsformula", "charform", "cone", "padic", "cli")


def _hook(fn, *args):
    """Run a count hook; a wrapped name whose arguments or result changed
    shape leaves its counts unchanged instead of failing the run."""
    if fn is None:
        return None
    try:
        return fn(*args)
    except (AttributeError, TypeError, IndexError, KeyError):
        return None


def _group_order(k):
    return 2 ** k * factorial(k)


def _terms(ratfun):
    return len(ratfun.numerator_poly().terms) + len(ratfun.denominator_poly().terms)


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {
            "div_in_terms": 0,
            "div_peak_terms": 0,
            "weyl_terms": 0,
            "acc_terms": 0,
            "result_terms": 0,
            "b_terms": 0,
        }
        self.hook_s = 0.0
        self._stack = []  # per open span: time covered by its wrapped children
        self._b_terms_by_rank = {}
        self._acc_pending = False
        self._caches = {}  # layer -> lru_cache'd originals

    # -- installation ------------------------------------------------------

    def install(self):
        """Import every wscalc module and put the wrappers in place."""
        import importlib

        mods = {}
        for name in LAYERS:
            try:
                mods[name] = importlib.import_module("wscalc." + name)
            except ModuleNotFoundError:
                pass
        for layer in CACHED_LAYERS:
            mod = mods.get(layer)
            self._caches[layer] = [
                fn for fn in vars(mod).values()
                if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__
            ] if mod else []
        hooks = {
            "ratfun.div": (self._div_pre, self._div_post),
            "wsformula.weyl_sum": (self._weyl_sum_pre, self._weyl_sum_post),
            "zetafactors.b_expand": (None, self._b_expand_post),
        }
        for modname, path, span in WRAPS:
            owner = mods.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            pre, post = hooks.get(span, (None, None))
            wrapper = self.wrap(span, original, pre, post)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "wscalc" or name.startswith("wscalc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def wrap(self, span, fn, pre=None, post=None):
        """Return ``fn`` timed as ``span``; ``pre``/``post`` are count hooks."""
        spans = self.spans
        spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = _hook(pre, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                rec = spans[span]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - covered
            if post is not None:
                h0 = clock()
                _hook(post, args, token, result)
                hdt = clock() - h0
                self.hook_s += hdt
                dt += hdt
            if stack:
                stack[-1] += dt
            return result

        for attr in ("cache_info", "cache_clear", "__doc__", "__name__", "__qualname__"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- count hooks ---------------------------------------------------------

    def _div_pre(self, args, kwargs):
        rem = args[0] if args else kwargs.get("rem", ())
        n_in = len(rem)  # the division consumes its dividend
        self.counts["div_in_terms"] += n_in
        if self._acc_pending:
            # the first division inside weyl_sum receives the accumulator
            self.counts["acc_terms"] += n_in
            self._acc_pending = False
        return n_in

    def _div_post(self, args, n_in, result):
        n_in = n_in or 0
        n_out = len(result) if result is not None else 0
        c = self.counts
        c["div_peak_terms"] = max(c["div_peak_terms"], n_in, n_out)

    def _weyl_sum_pre(self, args, kwargs):
        self._acc_pending = True

    def _weyl_sum_post(self, args, token, result):
        self._acc_pending = False
        ctx = args[0]
        b = self._b_terms_by_rank.get((ctx.n, ctx.m), 0)
        self.counts["weyl_terms"] += _group_order(ctx.n) * _group_order(ctx.m) * b
        self.counts["result_terms"] += _terms(result)

    def _b_expand_post(self, args, token, result):
        ctx = args[0]
        self._b_terms_by_rank[(ctx.n, ctx.m)] = len(result.terms)
        self.counts["b_terms"] += len(result.terms)

    # -- report --------------------------------------------------------------

    def cache_counts(self):
        out = {}
        for layer, fns in self._caches.items():
            hits = sum(fn.cache_info().hits for fn in fns)
            misses = sum(fn.cache_info().misses for fn in fns)
            out[layer] = [hits, misses]
        return out

    def snapshot(self):
        return {
            "spans": self.spans,
            "counts": self.counts,
            "caches": self.cache_counts(),
            "hook_s": self.hook_s,
        }


def merge(snapshots):
    """Combine the snapshots of several processes of one pass."""
    spans, counts, caches = {}, {}, {}
    hook_s = 0.0
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in snap["counts"].items():
            if name.endswith("_peak_terms"):
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        for layer, (hits, misses) in snap["caches"].items():
            rec = caches.setdefault(layer, [0, 0])
            rec[0] += hits
            rec[1] += misses
        hook_s += snap["hook_s"]
    return {"spans": spans, "counts": counts, "caches": caches, "hook_s": hook_s}


def layer_self_times(trace):
    """Self time per layer (the span-name prefix), including non-wscalc roots."""
    out = {}
    for name, (_, _, self_s) in trace["spans"].items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def per_layer_metrics(trace):
    """The per-layer metrics of BENCHMARK.json, except the trace overhead."""
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def hit_ratio(layer):
        hits, misses = caches.get(layer, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    weyl_terms = counts.get("weyl_terms", 0)
    acc_terms = counts.get("acc_terms", 0)
    return {
        "ratfun.div_s": (self_s("ratfun.div"), "s"),
        "ratfun.div_calls": (calls("ratfun.div"), "count"),
        "ratfun.div_in_terms": (counts.get("div_in_terms", 0), "count"),
        "ratfun.div_peak_terms": (counts.get("div_peak_terms", 0), "count"),
        "ratfun.reduce_s": (self_s("ratfun.reduce"), "s"),
        "ratfun.eq_s": (self_s("ratfun.eq"), "s"),
        "wsformula.weyl_sum_s": (self_s("wsformula.weyl_sum"), "s"),
        "wsformula.weyl_sum_calls": (calls("wsformula.weyl_sum"), "count"),
        "wsformula.weyl_terms": (weyl_terms, "count"),
        "wsformula.acc_terms": (acc_terms, "count"),
        "wsformula.acc_survival": (acc_terms / weyl_terms if weyl_terms else 0.0, "ratio"),
        "wsformula.result_terms": (counts.get("result_terms", 0), "count"),
        "wsformula.numeric_s": (self_s("wsformula.numeric"), "s"),
        "zetafactors.b_expand_s": (self_s("zetafactors.b_expand"), "s"),
        "zetafactors.b_terms": (counts.get("b_terms", 0), "count"),
        "zetafactors.cache_hit_ratio": (hit_ratio("zetafactors"), "ratio"),
        "weyl.enumerate_s": (self_s("weyl.enumerate"), "s"),
        "weyl.cache_hit_ratio": (hit_ratio("weyl"), "ratio"),
        "charform.so_char_s": (self_s("charform.so_char"), "s"),
        "charform.so_char_calls": (calls("charform.so_char"), "count"),
        "padic.form_check_s": (self_s("padic.form_check"), "s"),
        "padic.form_checks": (calls("padic.form_check"), "count"),
        "padic.matmul_s": (self_s("padic.matmul"), "s"),
        "padic.matmuls": (calls("padic.matmul"), "count"),
        "padic.minor_s": (self_s("padic.minor"), "s"),
        "padic.minors": (calls("padic.minor"), "count"),
        "padic.gauss_oracle_s": (self_s("padic.gauss_oracle"), "s"),
        "padic.gauss_cases": (calls("padic.gauss_oracle"), "count"),
        "cone.normal_form_s": (self_s("cone.normal_form"), "s"),
        "cone.normal_form_calls": (calls("cone.normal_form"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
