"""Every module of the package uses every name it imports and imports nothing
inside a function, every module-level function and method of the package, private
or public, is referenced somewhere in it or kept for a named reason, every function
in it reads every parameter it takes and has a call that passes each defaulted one,
every functools cache in it is bounded, and every WorkbenchError it catches without
raising again is caught for a named reason."""

import ast
import math
import sys
from collections import Counter
from pathlib import Path

import valwb
from valwb.errors import WorkbenchError

# Names kept on purpose though the module does not use them:
# perfbench/test_perfbench.py::test_install_rebinds_names_imported_elsewhere_and_restores_them
# reads valwb.polyx.coerce to check that the tracer rebinds it there too, and
# perfbench/tracer.py looks the redraw loop's _redraw up in valwb.selftest to wrap it.
ALLOWED = {("polyx.py", "coerce"), ("selftest.py", "_redraw")}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(path.name, name, line) for name, line in imported.items()
            if name not in used and (path.name, name) not in ALLOWED]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert not found, found


def test_the_scan_sees_unused_and_used_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os.path\n"
                   "from math import gcd, lcm as l\n\ndef f(x: gcd) -> int:\n    return 1\n")
    assert unused_imports(src) == [("m.py", "os", 2), ("m.py", "l", 3)]


def function_level_imports(path: Path) -> list:
    """(module, line) of each import inside a function body.  A function-level
    ``from .pcs import x`` looks the module up in sys.modules at call time, so a
    second copy of the package loaded in the same process would answer it."""
    tree = ast.parse(path.read_text())
    return sorted({(path.name, node.lineno) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_function_imports_at_call_time():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in function_level_imports(path)]
    assert not found, found


def test_the_scan_sees_imports_in_function_bodies(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os\nfrom math import gcd\n\n"
        "def f():\n    from .pcs import values_along\n    return values_along\n\n"
        "def g(x):\n    if x:\n        import json\n    def inner():\n"
        "        from . import series\n        return series\n    return inner\n\n"
        "class C:\n    import re\n\n    async def m(self):\n        import math\n"
        "        return math\n")
    assert function_level_imports(src) == [("m.py", 5), ("m.py", 10), ("m.py", 12),
                                           ("m.py", 20)]


def dead_functions(paths, public: bool = False) -> list:
    """Module-level functions and methods of module-level classes named _x (with
    ``public``, the other names) that no code in ``paths`` references, an import of
    the name included, references from the function's own body (recursion) not
    counted.  A method is named Class.name; any reference to its name counts."""
    trees = {path: ast.parse(path.read_text()) for path in paths}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    def functions(tree):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef))

    used = Counter(name for tree in trees.values() for name in names(tree))
    return [(path.name, qualified, node.lineno) for path, tree in trees.items()
            for qualified, node in functions(tree)
            if node.name.startswith("_") != public and not node.name.startswith("__")
            and used[node.name] == Counter(names(node))[node.name]]


# Methods kept though no code in the package references them, and why each stays:
KEPT_METHODS = {
    ("polyx.py", "PolyX.recenter_hasse"):
        "perfbench's tracer wraps it, and the tests take it as the recentering reference",
    ("field.py", "BaseField.div"): "perfbench's tracer wraps it",
    ("cli.py", "_Parser.error"): "argparse calls it",
    ("series.py", "PuiseuxSeries.residue"): "the residue map of ROADMAP item 11",
    ("report.py", "Report.from_structured"):
        "the documented round trip of the structured report, checked in test_workbench.py",
}


def test_no_private_function_is_left_unreferenced():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for hit in dead_functions(modules) if hit[:2] not in KEPT_METHODS]
    assert not found, found


def test_no_public_function_is_left_unreferenced():
    # a public function counts as used if the package itself calls or exports it
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for hit in dead_functions(modules, public=True) if hit[:2] not in KEPT_METHODS]
    assert not found, found


def test_every_kept_method_is_still_unreferenced():
    # a kept name that the package calls again needs no place on the list
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = {hit[:2] for public in (False, True) for hit in dead_functions(modules, public)}
    assert found == set(KEPT_METHODS)


def test_the_scan_sees_dead_and_live_helpers(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _called():\n    return 1\n\ndef _dead():\n    return _called()\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "def _attribute():\n    return 2\n\ndef __getattr__(name):\n    return name\n\n"
        "def public():\n    return 3\n\n"
        "class C:\n    def __init__(self):\n        self._live()\n\n"
        "    def _live(self):\n        return 4\n\n"
        "    def _idle(self):\n        return self._idle()\n")
    (tmp_path / "b.py").write_text("import a\n\nVALUE = a._attribute()\n")
    found = dead_functions(sorted(tmp_path.glob("*.py")))
    assert found == [("a.py", "_dead", 4), ("a.py", "_recursive", 7), ("a.py", "C._idle", 26)]


def test_the_scan_sees_dead_and_live_public_functions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def called():\n    return 1\n\ndef dead():\n    return called()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def exported():\n    return 2\n\ndef attribute():\n    return 3\n\n"
        "def __getattr__(name):\n    return name\n\ndef _private():\n    return 4\n\n"
        "class C:\n    def used(self):\n        return 5\n\n"
        "    def unused(self):\n        return 6\n")
    (tmp_path / "c.py").write_text("from a import C\n\nVALUE = C().used()\n")
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "b.py").write_text("import a as m\n\nVALUE = m.attribute()\n")
    found = dead_functions(sorted(tmp_path.glob("*.py")), public=True)
    assert found == [("a.py", "dead", 4), ("a.py", "recursive", 7), ("a.py", "C.unused", 26)]


def unbounded_caches(path: Path) -> list:
    """Uses of functools.cache and functools.lru_cache without an explicit
    integer maxsize: an unbounded cache grows for the life of the process."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}

    def functools_name(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id == "functools" else None
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        name = functools_name(node)
        if name not in ("cache", "lru_cache"):
            continue
        call, size = calls.get(id(node)), None
        if name == "lru_cache" and call is not None:
            given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            size = given[0] if given else None
        if not (isinstance(size, ast.Constant) and type(size.value) is int):
            found.append((path.name, name, node.lineno))
    return sorted(found, key=lambda hit: hit[2])


def test_every_cache_has_an_integer_bound():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in unbounded_caches(path)]
    assert not found, found


def test_the_scan_sees_bounded_and_unbounded_caches(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import functools\nfrom functools import cache, lru_cache as lc\n\nSIZE = 8\n\n"
        "@functools.lru_cache(maxsize=64)\ndef a(x):\n    return x\n\n"
        "@lc(32)\ndef b(x):\n    return x\n\n"
        "@functools.lru_cache\ndef c(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=None)\ndef d(x):\n    return x\n\n"
        "@lc()\ndef e(x):\n    return x\n\n"
        "@cache\ndef f(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef g(x):\n    return x\n\n"
        "h = functools.cache(len)\n")
    assert unbounded_caches(src) == [("m.py", "lru_cache", 14), ("m.py", "lru_cache", 18),
                                     ("m.py", "lru_cache", 22), ("m.py", "cache", 26),
                                     ("m.py", "lru_cache", 30), ("m.py", "cache", 34)]


def values_of_differences(path: Path) -> list:
    """Calls of .val() directly on a subtraction, (a - b).val(): a reader that
    needs only the value of a difference asks PuiseuxSeries.val_sub for it
    instead of building the difference."""
    tree = ast.parse(path.read_text())
    return [(path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "val" and isinstance(node.func.value, ast.BinOp)
            and isinstance(node.func.value.op, ast.Sub)]


def test_no_module_builds_a_difference_for_its_value():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in values_of_differences(path)]
    assert not found, found


def test_the_scan_sees_values_of_differences(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, b, c):\n    x = (a - b).val()\n    y = (a + b).val()\n"
                   "    z = a.val_sub(b)\n    d = a - b\n    w = d.val()\n"
                   "    return (a - (b - c)).val() + (a - b).val_lower_bound()\n")
    assert values_of_differences(src) == [("m.py", 2), ("m.py", 7)]


def scalar_view_reads(path: Path) -> list:
    """Reads of .num or .den, RatFunc's scalar views: only series.py, which defines
    them, may build them, so that no path in the package goes back through Fraction."""
    if path.name == "series.py":
        return []
    tree = ast.parse(path.read_text())
    return [(path.name, node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den")]


def test_no_module_reads_the_scalar_views_of_a_ratfunc():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in scalar_view_reads(path)]
    assert not found, found


def test_the_scan_sees_reads_of_the_scalar_views(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(r, q):\n    a = r.num\n    b = len(q.den) + r.numerator\n"
                   "    c = r.nq, r.dq\n    return getattr(r, 'num'), a, b, c, r.den[0]\n")
    assert scalar_view_reads(src) == [("m.py", "num", 2), ("m.py", "den", 3),
                                      ("m.py", "den", 5)]
    series = tmp_path / "series.py"
    series.write_text(src.read_text())
    assert scalar_view_reads(series) == []


# Parameters kept on purpose though the function does not read them:
# PuiseuxSeries.to_series(prec) keeps RatFunc.to_series's signature, so a coefficient of
# either kind answers c.to_series(prec).
UNREAD_ALLOWED = {("series.py", "to_series", "prec")}


def unread_parameters(path: Path) -> list:
    """(module, function, parameter, line) of each parameter, self and cls aside, that
    its function's body never reads; a read in a nested function counts."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [(path.name, name, p.arg, fn.lineno) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and (path.name, name, p.arg) not in UNREAD_ALLOWED]
    return sorted(found, key=lambda hit: hit[3])


def test_no_function_has_a_parameter_it_never_reads():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in unread_parameters(path)]
    assert not found, found


def test_the_scan_sees_unread_and_read_parameters(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(field, c, *args, key=None, **kw):\n    c = c + 1\n    return key, kw\n\n"
        "def g(a, b):\n    def inner():\n        return a\n    b = 1\n    return inner\n\n"
        "class C:\n    def m(self, x, /, y):\n        return y\n\n"
        "    @classmethod\n    def k(cls):\n        return 1\n\n"
        "h = lambda u, v: u\n\n"
        "def to_series(self, prec=None):\n    return self\n")
    assert unread_parameters(src) == [
        ("m.py", "f", "field", 1), ("m.py", "f", "args", 1), ("m.py", "g", "b", 5),
        ("m.py", "m", "x", 12), ("m.py", "<lambda>", "v", 19), ("m.py", "to_series", "prec", 21)]
    series = tmp_path / "series.py"
    series.write_text(src.read_text())
    assert ("series.py", "to_series", "prec", 21) not in unread_parameters(series)


# Defaulted parameters that no call passes by name, and why they stay parameters:
NEVER_PASSED_ALLOWED = {
    ("selftest.py", "check_pair_equivalence", "triples"):
        "tests/test_acceptance.py passes (6, 10) through fresh(checker, *args)",
    ("selftest.py", "check_pair_equivalence", "polys"):
        "tests/test_acceptance.py passes (6, 10) through fresh(checker, *args)",
    ("series.py", "invert", "prec"):
        "tests/test_series.py checks it against the Fraction recursion at nine targets "
        "through outcome(invert, s, target)",
}


def defaults_never_passed(sources, callers) -> list:
    """(module, function, parameter, line) of each defaulted parameter of a function in
    ``sources`` that no call in ``callers`` passes, by position or by keyword.  Calls are
    matched by the callee's name, a class's name calling its __init__; a call that spreads
    *args or **kwargs passes every parameter.  Dunder methods but __init__ are left out,
    since operators call them."""
    calls = {}  # callee name -> [(positional count, keyword names or None for all)]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n = math.inf if any(isinstance(a, ast.Starred) for a in node.args) \
                    else len(node.args)
                kws = None if any(k.arg is None for k in node.keywords) \
                    else {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((n, kws))
    found = []
    for path in sources:
        tree = ast.parse(path.read_text())
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    fn.name.startswith("__") and fn.name != "__init__"):
                continue
            cls = owner.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            bound = cls is not None and not any(  # self or cls comes first
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(i - bound, p) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(math.inf, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for slot, p in defaulted:
                by_name = p not in a.posonlyargs
                if not any(n > slot or kws is None or (by_name and p.arg in kws)
                           for n, kws in calls.get(name, ())) \
                        and (path.name, fn.name, p.arg) not in NEVER_PASSED_ALLOWED:
                    found.append((path.name, fn.name, p.arg, fn.lineno))
    return sorted(found, key=lambda hit: (hit[0], hit[3]))


def test_every_default_is_overridden_somewhere():
    # a default that no call in src/, tests/ or perfbench/ passes is a constant in disguise
    root = Path(__file__).resolve().parents[1]
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    callers = modules + sorted(root.glob("tests/**/*.py")) + sorted(root.glob("perfbench/**/*.py"))
    found = defaults_never_passed(modules, callers)
    assert not found, found


def test_the_scan_sees_defaults_passed_and_never_passed(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *, z=2):\n    return x, y, z\n\n"
        "def g(u, v=0, w=0):\n    return u, v, w\n\n"
        "def h(a=1, b=2):\n    return a, b\n\n"
        "def k(q=1):\n    return q\n\n"
        "def _posonly(p=7, /):\n    return p\n\n"
        "class C:\n    def __init__(self, n=3, m=4):\n        self.n = n + m\n\n"
        "    def meth(self, j=5):\n        return j\n\n"
        "    @staticmethod\n    def s(i=6):\n        return i\n\n"
        "    def __add__(self, other=None):\n        return self\n\n"
        "def check_pair_equivalence(rep, triples=100):\n    return rep, triples\n")
    (tmp_path / "b.py").write_text(
        "from a import C, _posonly, f, g, h, k\n\n"
        "f(1, 2)\ng(1, w=3)\nh(*[1])\nk(**{})\n_posonly()\nC(1).meth()\nC.s(0)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert defaults_never_passed(paths, paths) == [
        ("a.py", "f", "z", 1), ("a.py", "g", "v", 4), ("a.py", "_posonly", "p", 13),
        ("a.py", "__init__", "m", 17), ("a.py", "meth", "j", 20),
        ("a.py", "check_pair_equivalence", "triples", 30)]
    selftest = tmp_path / "selftest.py"
    selftest.write_text((tmp_path / "a.py").read_text())
    assert ("selftest.py", "check_pair_equivalence", "triples", 30) not in \
        defaults_never_passed([selftest], paths)


# the module that alone writes each field: a series keeps the plan it built of itself, which
# would go stale if its fields changed after it, and an AlgElement's certificate flag is the
# one attach_minpoly decided for its expansion and minimal polynomial
OWNED_FIELDS = {
    "series.py": {"ram", "coeffs", "prec", "source", "plan"},
    "algnum.py": {"expansion", "minpoly", "irreducible_certified"},
}


def owned_field_writes(path: Path) -> list:
    """Writes to a field of OWNED_FIELDS outside its owner module: by assignment, augmented or
    item assignment, del, setattr or delattr.  A class whose own __slots__ declares a field of
    the same name may write it on self."""
    fields = set().union(*(names for owner, names in OWNED_FIELDS.items() if owner != path.name))
    tree = ast.parse(path.read_text())
    own = set()  # self.<name> in a class whose __slots__ declares name
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        slots = {c.value for node in cls.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__slots__" for t in node.targets)
                 for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        own |= {id(node) for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "self" and node.attr in slots}
    found = []
    for node in ast.walk(tree):
        target = node if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)) else None
        if isinstance(target, ast.Subscript):  # s.coeffs[k] = x changes the series too
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in fields \
                and id(target) not in own:
            found.append((path.name, target.attr, node.lineno))
        if isinstance(node, ast.Call) and len(node.args) > 1 \
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "delattr", "__setattr__", "__delattr__") \
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in fields:
            found.append((path.name, node.args[1].value, node.lineno))
    return sorted(found, key=lambda hit: hit[2])


def test_no_module_writes_the_fields_another_module_owns():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in owned_field_writes(path)]
    assert not found, found


def test_the_scan_sees_writes_to_fields_another_module_owns(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class Poly:\n    __slots__ = ('field', 'coeffs')\n\n    def __init__(self, cs):\n"
        "        self.coeffs = cs\n        self.prec = None\n\n"
        "def f(s, t):\n    s.coeffs = {}\n    s.prec += 1\n    a = s.ram + t.source.ram\n"
        "    t.ram, t.source = 1, None\n    s.coeffs[0] = 1\n    del s.plan\n"
        "    setattr(s, 'plan', None)\n    object.__setattr__(t, 'prec', 0)\n"
        "    return s.coeffs[1], getattr(s, 'plan'), a, self.coeffs\n\n"
        "def g(a, b):\n    a.irreducible_certified = a.minpoly is not None\n"
        "    b.expansion, b.minpoly = a.expansion, None\n    delattr(a, 'minpoly')\n"
        "    return a.irreducible_certified\n")
    series_hits = [("m.py", "prec", 6), ("m.py", "coeffs", 9), ("m.py", "prec", 10),
                   ("m.py", "ram", 12), ("m.py", "source", 12), ("m.py", "coeffs", 13),
                   ("m.py", "plan", 14), ("m.py", "plan", 15), ("m.py", "prec", 16)]
    algnum_hits = [("irreducible_certified", 20), ("expansion", 21), ("minpoly", 21),
                   ("minpoly", 22)]
    assert owned_field_writes(src) == series_hits + [("m.py", *hit) for hit in algnum_hits]
    for owner, hits in (("series.py", [("series.py", *hit) for hit in algnum_hits]),
                        ("algnum.py", [("algnum.py", *hit[1:]) for hit in series_hits])):
        (tmp_path / owner).write_text(src.read_text())
        assert owned_field_writes(tmp_path / owner) == hits, owner


SEQUENCE_BOUNDS = {"ram_cap", "horizon", "window"}


def sequence_bound_routes(path: Path) -> list:
    """Parameters named ram_cap, horizon or window, and writes to attributes of those names,
    outside pcs.py.  A generator holds its three sequence bounds from construction, where
    they are checked, so no other function takes one per call and no other module sets one
    on a built generator."""
    if path.name == "pcs.py":
        return []
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [(path.name, arg.arg, arg.lineno)
                      for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if arg is not None and arg.arg in SEQUENCE_BOUNDS]
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and node.attr in SEQUENCE_BOUNDS:
            found.append((path.name, node.attr, node.lineno))
        if isinstance(node, ast.Call) and len(node.args) > 1 \
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "__setattr__") and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in SEQUENCE_BOUNDS:
            found.append((path.name, node.args[1].value, node.lineno))
    return sorted(found, key=lambda hit: hit[2])


def test_no_module_but_pcs_takes_or_sets_a_sequence_bound():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    found = [hit for path in modules for hit in sequence_bound_routes(path)]
    assert not found, found


def test_the_scan_sees_sequence_bound_parameters_and_writes(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(spec, ram_cap=64):\n    return spec\n\n"
        "def g(*, horizon, **bounds):\n    return lambda window: window\n\n"
        "def h(gen, cfg):\n    gen.window = cfg.window\n    gen.horizon += 1\n"
        "    setattr(gen, 'ram_cap', 0)\n    return gen.ram_cap, cfg.horizon, cfg.seed\n")
    assert sequence_bound_routes(src) == [
        ("m.py", "ram_cap", 1), ("m.py", "horizon", 4), ("m.py", "window", 5),
        ("m.py", "window", 8), ("m.py", "horizon", 9), ("m.py", "ram_cap", 10)]
    pcs = tmp_path / "pcs.py"
    pcs.write_text(src.read_text())
    assert sequence_bound_routes(pcs) == []


# Each function of the package that catches a WorkbenchError, or a subclass of it, without
# raising again, and why the error is no answer to pass on there.
SWALLOWED = {
    ("report.py", "search"): "records the candidate as undecidable in its Evidence",
    ("selftest.py", "_tally"): "records the trial in its Evidence: undecidable, or a failure",
    ("selftest.py", "check_density"): "counts the UnsupportedKind refusals the verdict asks for",
    ("sampling.py", "_redraw"): "redraws an undecidable sample, a bounded number of times",
    ("pcs.py", "is_limit"): "an undecidable v(y - a_m) is consistent when gamma_m reaches its cap",
    ("pcs.py", "values_along"): "f(a_m) vanishing past the precision is the increasing tail",
    ("valuation.py", "is_pair_equivalent"): "v(a - b) known to reach gamma decides it",
    ("algnum.py", "attach_minpoly"): "Q(s) indistinguishable from 0 at s's cap certifies",
    ("lifting.py", "_density_monomial"): "an undecidable delta only drops a cutoff guess",
    ("lifting.py", "conjugacy_check"): "0 at the twist's precision shares the minimal polynomial",
    ("lifting.py", "verify_root_matching"): "roots equal up to a cap above alpha keep the promise",
    ("config.py", "k_then_series"): "text that is no element of K is read again as a series",
    ("cli.py", "main"): "an error ends the command as an error line or a failed verdict",
}


def workbench_error_names() -> set:
    """Names under which the package binds WorkbenchError, its subclasses or a tuple of them,
    and the names that catch every exception."""
    names = {"Exception", "BaseException"}
    for name, module in sys.modules.items():
        if name != "valwb" and not name.startswith("valwb."):
            continue
        for key, value in vars(module).items():
            members = value if isinstance(value, tuple) and value else (value,)
            if all(isinstance(m, type) and issubclass(m, WorkbenchError) for m in members):
                names.add(key)
    return names


def swallowed_errors(path: Path, caught: set) -> list:
    """(module, enclosing function, line) of each except clause and contextlib.suppress that
    catches a name in ``caught``, or everything, and does not end by raising."""
    found = []

    def catches(node) -> bool:
        if node is None:  # a bare except
            return True
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(getattr(p, "id", getattr(p, "attr", None)) in caught for p in parts)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.ExceptHandler) and catches(child.type) \
                    and not isinstance(child.body[-1], ast.Raise):
                found.append((path.name, where or "<module>", child.lineno))
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == "suppress" \
                    and any(catches(arg) for arg in child.args):
                found.append((path.name, where or "<module>", child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_swallowed_workbench_error_has_a_named_reason():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    caught = workbench_error_names()
    assert {"WorkbenchError", "PrecisionExhausted", "UNDECIDABLE"} <= caught
    found = {hit[:2] for path in modules for hit in swallowed_errors(path, caught)}
    assert found == set(SWALLOWED), (sorted(found - set(SWALLOWED)),
                                     sorted(set(SWALLOWED) - found))


def test_the_scan_sees_swallowed_and_raised_errors(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import contextlib\nfrom contextlib import suppress\n\n"
        "def passes(f):\n    try:\n        return f()\n    except Oops:\n        return None\n\n"
        "def converts(f):\n    try:\n        return f()\n    except (KeyError, Oops) as exc:\n"
        "        raise TypeError(exc) from None\n\n"
        "def other(f):\n    try:\n        return f()\n    except KeyError:\n        return None\n\n"
        "def bare(f):\n    try:\n        return f()\n    except:\n        pass\n\n"
        "class C:\n    def method(self, f):\n"
        "        with contextlib.suppress(KeyError, Oops):\n            f()\n\n"
        "def outer(f):\n    def inner():\n        with suppress(errors.Oops):\n            f()\n"
        "    try:\n        inner()\n    except Exception:\n        f = None\n        raise\n"
        "    try:\n        inner()\n    except (ValueError, Oops):\n"
        "        if f:\n            raise\n")
    assert swallowed_errors(src, {"Oops", "Exception"}) == [
        ("m.py", "passes", 7), ("m.py", "bare", 25), ("m.py", "C.method", 30),
        ("m.py", "outer.inner", 35), ("m.py", "outer", 44)]
