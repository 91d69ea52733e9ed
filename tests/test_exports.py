"""Every name that a module of the package exports exists in it, so a
renamed or deleted function cannot linger in an ``__all__``; and every name
of the package that the benchmark calls exists and takes the arguments it
is given, so a removal cannot break the benchmark on a path it seldom runs."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import wscalc
from wscalc import weyl

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"
# The benchmark files that call the package.  The tracer's list of wrapped
# names is left out: it skips a name that does not resolve, by design.
BENCHMARK_FILES = ("workloads.py", "child.py", "record_reference.py")

# Attributes the benchmark reads from what those names return.  Their
# receivers' types are not in the source, so they are listed by hand.
RESULT_ATTRIBUTES = (
    ("wscalc.wsformula", "LValue.eval_at"),
    ("wscalc.wsformula", "InvarianceReport.as_dict"),
    ("wscalc.charform", "ShintaniReport.as_dict"),
    ("wscalc.ratfun", "RatFun.eval_at"),
    ("wscalc.ratfun", "RatFun.numerator_poly"),
    ("wscalc.ratfun", "RatFun.denominator_poly"),
    ("wscalc.ratfun", "Poly.terms"),
    ("wscalc.weyl", "SignedPerm.act_on_point"),
)


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(wscalc.__path__):
        module = importlib.import_module("wscalc." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
            checked += 1
    assert checked > 0


def _benchmark_uses(path):
    """(module, name, call) for each name of a ``wscalc`` module that the file
    imports from it or reads as ``module.name``; ``call`` is the ast.Call
    that calls it, or None."""
    tree = ast.parse(path.read_text())
    modules, names, uses = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wscalc"):
            for alias in node.names:
                if node.module == "wscalc":
                    modules[alias.asname or alias.name] = "wscalc." + alias.name
                else:
                    names[alias.asname or alias.name] = node.module
                    uses.append((node.module, alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wscalc.") and alias.asname:
                    modules[alias.asname] = alias.name
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append((modules[node.value.id], node.attr, calls.get(id(node))))
        elif isinstance(node, ast.Name) and node.id in names and id(node) in calls:
            uses.append((names[node.id], node.id, calls[id(node)]))
    return uses


def _resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def missing_benchmark_names():
    """What the benchmark uses of the package and cannot find: a name that
    does not resolve, or a call whose arguments its signature refuses."""
    missing = set()
    uses = [use for f in BENCHMARK_FILES for use in _benchmark_uses(BENCHMARK / f)]
    uses += [(module, name, None) for module, name in RESULT_ATTRIBUTES]
    assert len(uses) > len(RESULT_ATTRIBUTES)
    for module, name, call in uses:
        try:
            obj = _resolve(module, name)
        except AttributeError:
            missing.add("%s.%s" % (module, name))
            continue
        if call is not None and callable(obj):
            args = [None] * len(call.args)
            kwargs = {kw.arg: None for kw in call.keywords}
            try:
                inspect.signature(obj).bind(*args, **kwargs)
            except TypeError:
                missing.add("%s.%s(%d positional, %s)" % (module, name, len(args), sorted(kwargs)))
    return sorted(missing)


def test_every_name_the_benchmark_calls_resolves():
    assert missing_benchmark_names() == []


def test_the_benchmark_check_sees_a_removed_name(monkeypatch):
    monkeypatch.delattr(weyl, "enumerate_group")
    assert missing_benchmark_names() == ["wscalc.weyl.enumerate_group"]


def test_the_benchmark_check_sees_a_refused_keyword(monkeypatch):
    from wscalc import wsformula

    monkeypatch.setattr(wsformula, "invariance_report", lambda ctx, d, f: None)
    assert missing_benchmark_names() == [
        "wscalc.wsformula.invariance_report(3 positional, ['mode'])",
    ]
