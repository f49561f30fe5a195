"""The package namespace: what ``from braidcert import *`` exports."""

from __future__ import annotations

import __future__
import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import braidcert


def test_all_lists_every_public_name():
    # read through dir() and getattr, as the certifier, twist, 3-braid
    # and replay names are bound on first use, not at import
    public = {
        name
        for name in dir(braidcert)
        if not name.startswith("_")
        and not isinstance(getattr(braidcert, name),
                           (types.ModuleType, type(__future__.annotations)))
    }
    assert len(braidcert.__all__) == len(set(braidcert.__all__))
    assert set(braidcert.__all__) == public


def test_every_exported_name_is_its_home_modules_object():
    constants = {"DEFAULT_REDUCTION_BUDGET": "_kernel", "MAX_WORD_LETTERS": "braid"}
    for name in braidcert.__all__:
        value = getattr(braidcert, name)
        home = (f"braidcert.{constants[name]}" if name in constants
                else value.__module__)
        assert getattr(importlib.import_module(home), name) is value, name


def test_unknown_names_are_not_attributes():
    assert not hasattr(braidcert, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        braidcert.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from braidcert import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(braidcert.__all__)
    assert all(namespace[name] is getattr(braidcert, name)
               for name in braidcert.__all__)


def _public_callables():
    """(qualified name, callable) for every public function, class and
    method defined in a public braidcert module."""
    for info in pkgutil.iter_modules(braidcert.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"braidcert.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_budget():
    # the reduction budget is a process setting, BRAIDCERT_REDUCTION_BUDGET
    callables = dict(_public_callables())
    assert "braidcert.ordering.sigma_sign" in callables
    assert "braidcert.braid.BraidWord.is_trivial" in callables
    offenders = [name for name, fn in callables.items()
                 if "budget" in inspect.signature(fn).parameters]
    assert offenders == []


def _private_uses(source: str, modules: set[str]) -> list[str]:
    """Where a module's source imports or reaches another braidcert
    module's _-prefixed name: ``from braidcert.x import _f`` or
    ``x._f`` with x bound to a braidcert module.  The private modules
    themselves (``from braidcert import _kernel``) are not names of
    another module."""
    tree = ast.parse(source)
    bound = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("braidcert"):
            for alias in node.names:
                if node.module == "braidcert" and alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: from {node.module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("braidcert.") and alias.asname:
                    bound.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")
                and not node.attr.startswith("__") and node.attr not in modules):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    package = Path(braidcert.__file__).parent
    modules = {path.name.split(".")[0] for path in package.iterdir()}
    offenders = {path.name: uses for path in sorted(package.glob("*.py"))
                 if (uses := _private_uses(path.read_text(), modules))}
    assert offenders == {}


def test_private_use_check_sees_both_forms():
    modules = {"dynnikov", "_kernel"}
    assert _private_uses("from braidcert import _kernel, dynnikov\n"
                         "_kernel.sign_of(w)\n", modules) == []
    assert _private_uses("from braidcert.dynnikov import _screen\n"
                         "from braidcert import dynnikov\n"
                         "dynnikov._screen(w)\n", modules) == [
        "line 1: from braidcert.dynnikov import _screen",
        "line 3: dynnikov._screen",
    ]


def _braidcert_imports(source: str) -> list[str]:
    """The braidcert modules a module's source imports, in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "braidcert":
            found.append(node.module)
        elif isinstance(node, ast.ImportFrom) and node.level:
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "braidcert"]
    return found


def test_coordinate_walk_stands_alone():
    # dynnikov.py is the oracle the handle-reduction kernels are tested
    # against, and they against it: it imports none of their code, and
    # lends the pure-Python kernel only its free reduction
    source = Path(braidcert.__file__).with_name("dynnikov.py").read_text()
    assert _braidcert_imports(source) == []


def test_import_check_sees_every_form():
    assert _braidcert_imports("import braidcert.errors\n"
                              "from braidcert import _kernel\n"
                              "from braidcert.errors import BraidError\n"
                              "from . import braid\n"
                              "import os\nfrom typing import Sequence\n") == [
        "braidcert.errors", "braidcert", "braidcert.errors", ".",
    ]


#: The kernel modules, and the one dynnikov name that asks no engine
#: question: the library's free reduction.
_KERNELS = {"_reduction_py", "_reduction_c"}
_FREE_REDUCTION = "free_reduce"


def _engine_uses(source: str) -> list[str]:
    """Where a module's source reaches an engine other than through
    ``_kernel``, in line order: an import of a kernel module, an import
    of a dynnikov name other than free_reduce, or such a name reached as
    an attribute of a name bound to the dynnikov module, in any import
    form, relative ones included."""
    tree = ast.parse(source)
    found = []
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "braidcert" + (f".{module}" if module else "")
            for alias in node.names:
                if module == "braidcert" and alias.name == "dynnikov":
                    bound.add(alias.asname or alias.name)
                elif (module == "braidcert" and alias.name in _KERNELS
                      or module.removeprefix("braidcert.") in _KERNELS
                      or module == "braidcert.dynnikov" and alias.name != _FREE_REDUCTION):
                    found.append((node.lineno, f"from {module} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "braidcert.dynnikov":
                    bound.add(alias.asname or alias.name)
                elif alias.name.removeprefix("braidcert.") in _KERNELS:
                    found.append((node.lineno, f"import {alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr != _FREE_REDUCTION:
            owner = ast.unparse(node.value)
            if owner in bound:
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return [f"line {line}: {use}" for line, use in sorted(found)]


def test_engine_queries_go_through_the_kernel():
    # _kernel alone decides which engine answers a question: no other
    # module walks Dynnikov coordinates or imports a reduction kernel.
    # Every module may freely reduce with dynnikov.free_reduce, and
    # dynnikov.py calls its own walk by bare names.
    package = Path(braidcert.__file__).parent
    offenders = {path.name: uses for path in sorted(package.glob("*.py"))
                 if path.name != "_kernel.py"
                 and (uses := _engine_uses(path.read_text()))}
    assert offenders == {}


def test_engine_check_sees_every_form():
    source = ("from braidcert import _kernel, dynnikov\n"
              "from braidcert.dynnikov import act, free_reduce\n"
              "from braidcert import _reduction_py as reference\n"
              "import braidcert.dynnikov\n"
              "import braidcert._reduction_c\n"
              "from ._reduction_c import sign_of\n"
              "from . import dynnikov as walks\n"
              "def twist_point(m, p):\n"
              "    return tuple(dynnikov.act((0, 1) * m, full_twist_letters(m, p)))\n"
              "class BraidWord:\n"
              "    def __init__(self, raw):\n"
              "        self.letters = tuple(dynnikov.free_reduce(raw))\n"
              "    def is_trivial(self):\n"
              "        return dynnikov.is_trivial(self.letters)\n"
              "SIGN = walks.point_sign\n"
              "braidcert.dynnikov.sign(w)\n"
              "_kernel.is_trivial(w) and _kernel.sign_of(w)\n")
    assert _engine_uses(source) == [
        "line 2: from braidcert.dynnikov import act",
        "line 3: from braidcert import _reduction_py",
        "line 5: import braidcert._reduction_c",
        "line 6: from braidcert._reduction_c import sign_of",
        "line 9: dynnikov.act",
        "line 14: dynnikov.is_trivial",
        "line 15: walks.point_sign",
        "line 16: braidcert.dynnikov.sign",
    ]


def _free_reductions(source: str) -> list[tuple[int, str]]:
    """(line, dotted name of the enclosing functions and classes) for
    each free reduction a module's source defines: a function whose name
    holds "free_reduce", and a for loop over a word's letters, not over
    a literal tuple or list, that compares a letter's negation with ==
    and pops a letter."""
    found = []

    def cancels(loop):
        letter = loop.target.id if isinstance(loop.target, ast.Name) else None
        negated = pops = False
        for node in ast.walk(loop):
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
                negated |= any(
                    isinstance(side, ast.UnaryOp) and isinstance(side.op, ast.USub)
                    and isinstance(side.operand, ast.Name) and side.operand.id == letter
                    for side in (node.left, *node.comparators))
            elif isinstance(node, ast.Call):
                pops |= getattr(node.func, "id", getattr(node.func, "attr", None)) == "pop"
        return negated and pops

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            if not isinstance(node, ast.ClassDef) and "free_reduce" in node.name:
                found.append((node.lineno, owner))
        elif (isinstance(node, ast.For)
              and not isinstance(node.iter, (ast.Tuple, ast.List)) and cancels(node)):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_one_free_reduction():
    # every word is freely reduced by dynnikov.free_reduce: BraidWord on
    # construction, the pure-Python kernel's intake and the walked floor
    # probes; the compiled kernel keeps its own, in C, so the parity
    # tests still check this one against an independent implementation
    package = Path(braidcert.__file__).parent
    defined = {path.name: [owner for _, owner in found]
               for path in sorted(package.glob("*.py"))
               if (found := _free_reductions(path.read_text()))}
    assert defined == {"dynnikov.py": ["free_reduce", "free_reduce"]}


def test_free_reduction_check_sees_every_form():
    source = ("def _free_reduce(letters):\n"
              "    out = []\n"
              "    pop = out.pop\n"
              "    for x in letters:\n"
              "        if out and -x == out[-1]:\n"
              "            pop()\n"
              "    return out\n"
              "class BraidWord:\n"
              "    def __init__(self, letters):\n"
              "        reduced = []\n"
              "        for x in tuple(letters):\n"
              "            if reduced and reduced[-1] == -x:\n"
              "                reduced.pop()\n"
              "def rewrite(w, e, g):\n"
              "    seg = []\n"
              "    for q in range(len(w)):\n"
              "        y = w[q]\n"
              "        for z in (-e * g, y, e * g):\n"
              "            if seg and seg[-1] == -z:\n"
              "                seg.pop()\n"
              "        if seg and seg[-1] == -y:\n"
              "            seg.pop()\n"
              "def cyclic_core(letters):\n"
              "    for x in letters:\n"
              "        if x == -letters[0]:\n"
              "            return x\n")
    assert _free_reductions(source) == [
        (1, "_free_reduce"), (4, "_free_reduce"), (11, "BraidWord.__init__"),
    ]


def _attribute_uses(source: str, module: str) -> dict[str, set[str]]:
    """Where a module's source reaches ``module.name``: for each name, the
    top-level functions that name it, "<module>" for any other place."""
    uses: dict[str, set[str]] = {}
    tree = ast.parse(source)
    for top in tree.body:
        function = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        owner = top.name if function else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == module):
                uses.setdefault(node.attr, set()).add(owner)
    return uses


def test_floor_probes_have_one_engine():
    # every floor probe goes to a _kernel.FloorProbe, one per search,
    # built by _floor_probe alone (_search_floor names it in its
    # signature); sign_of answers the other sign queries only, and the
    # root test is central_root's
    source = Path(braidcert.__file__).with_name("ordering.py").read_text()
    assert _attribute_uses(source, "_kernel") == {
        "sign_of": {"sigma_sign", "compare"},
        "FloorProbe": {"_search_floor", "_floor_probe"},
        "reduce_word": {"reduced_word"},
        "is_twist_power": {"central_root"},
    }


def test_attribute_check_sees_nested_and_module_level_uses():
    source = ("from braidcert import _kernel\n"
              "ENGINE = _kernel.sign_of\n"
              "def floor(u):\n"
              "    def holds(k):\n"
              "        return _kernel.sign_of(k)\n"
              "    return _kernel.FloorProbe(u) + kernel.sign_of(u)\n")
    assert _attribute_uses(source, "_kernel") == {
        "sign_of": {"<module>", "floor"},
        "FloorProbe": {"floor"},
    }


def _unbounded_caches_and_half_twists(source: str) -> list[tuple[int, str]]:
    """(line, use) for each place a module's source uses an unbounded
    cache, "cache" for functools.cache (imported or as an attribute) and
    "lru_cache(None)" for lru_cache(maxsize=None), or calls delta(...),
    "delta", by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names
                      if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, "cache"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if name == "lru_cache" and any(
                    isinstance(size, ast.Constant) and size.value is None for size in sizes):
                found.append((node.lineno, "lru_cache(None)"))
            elif name == "delta":
                found.append((node.lineno, "delta"))
    return sorted(found)


def test_caches_are_bounded_and_half_twists_are_built_in_braid():
    # an unbounded cache holds every key a process ever asked for, and
    # every half twist, with its refusal past the letter cap, is built
    # in braid.py
    package = Path(braidcert.__file__).parent
    uses = {path.name: _unbounded_caches_and_half_twists(path.read_text())
            for path in sorted(package.glob("*.py"))}
    caches = {name: found for name, found in uses.items()
              if any(use != "delta" for _, use in found)}
    half_twists = {name for name, found in uses.items()
                   if any(use == "delta" for _, use in found)}
    assert caches == {}
    assert half_twists == {"braid.py"}


def test_cache_and_half_twist_check_sees_every_form():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "from braidcert import braid\n"
              "@functools.cache\n"
              "def a(m): return braid.delta(m)\n"
              "@lru_cache(maxsize=None)\n"
              "def b(m): return delta(m)\n"
              "@functools.lru_cache(None)\n"
              "def c(m): return m\n"
              "@lru_cache(maxsize=3)\n"
              "def d(m): return m\n"
              "@lru_cache\n"
              "def e(m): return functools.lru_cache(8)(d)\n")
    assert _unbounded_caches_and_half_twists(source) == [
        (2, "cache"), (4, "cache"), (5, "delta"), (6, "lru_cache(None)"),
        (7, "delta"), (8, "lru_cache(None)"),
    ]


def _calls(source: str, callee: str) -> list[tuple[int, str]]:
    """(line, dotted name of the enclosing functions and classes, or
    "<module>") for each call of the name callee in a module's source:
    bare, under an import alias, or as an attribute such as
    ``certify.Justification``."""
    tree = ast.parse(source)
    names = {callee} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == callee and alias.asname}
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in names
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == callee):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_justifications_are_built_by_the_rule_table_alone():
    # each rule is stated once, in certify._RULES, and certify._rule
    # fills it in
    package = Path(braidcert.__file__).parent
    calls = {path.name: [owner for _, owner in found]
             for path in sorted(package.glob("*.py"))
             if (found := _calls(path.read_text(), "Justification"))}
    assert calls == {"certify.py": ["_rule"]}


def test_justification_check_sees_every_form():
    source = ("from braidcert import certify\n"
              "from braidcert.certify import Justification as J\n"
              "CHECK = Justification('r', 'c', '1 > 0')\n"
              "def build():\n"
              "    return certify.Justification(rule='r', citation='c',\n"
              "                                 inequality='1 > 0')\n"
              "class Maker:\n"
              "    def make(self):\n"
              "        def inner():\n"
              "            return J('r', 'c', '1 > 0')\n"
              "        return inner\n"
              "def _rule():\n"
              "    return justification('r') or Justification\n")
    assert _calls(source, "Justification") == [
        (3, "<module>"), (5, "build"), (10, "Maker.make.inner"),
    ]


def test_budget_refusals_are_built_by_the_reference_kernel_alone():
    # the budget check in front of every query is _reduction_py.admit,
    # and the floor probes the pure-Python build walks go through it too;
    # the compiled kernel raises the same class from C
    package = Path(braidcert.__file__).parent
    calls = {path.name: [owner for _, owner in found]
             for path in sorted(package.glob("*.py"))
             if (found := _calls(path.read_text(), "ReductionBudgetExceeded"))}
    assert calls == {"_reduction_py.py": ["admit", "_reduce_core"]}


def test_budget_refusal_check_sees_every_form():
    source = ("from braidcert import errors\n"
              "from braidcert.errors import ReductionBudgetExceeded as Budget\n"
              "from braidcert.errors import ReductionBudgetExceeded\n"
              "class FloorProbe:\n"
              "    def inside(self, n):\n"
              "        if n > 5:\n"
              "            raise ReductionBudgetExceeded(f'word of length {n}')\n"
              "        raise Budget('over') from None\n"
              "def sign_of(w):\n"
              "    error = errors.ReductionBudgetExceeded\n"
              "    raise errors.ReductionBudgetExceeded(str(len(w)))\n")
    assert _calls(source, "ReductionBudgetExceeded") == [
        (7, "FloorProbe.inside"), (8, "FloorProbe.inside"), (11, "sign_of"),
    ]


def _unread_parameters(source: str) -> list[str]:
    """Where a module's source defines a public function or method with a
    parameter that its body never reads, as "name(parameter)".  A
    method's self or cls is not counted."""
    tree = ast.parse(source)
    methods = {id(node) for top in ast.walk(tree) if isinstance(top, ast.ClassDef)
               for node in top.body}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("_")):
            continue
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
        params += [arg.arg for arg in (args.vararg, args.kwarg) if arg]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if id(node) in methods and not static:
            params = params[1:]
        read = {name.id for statement in node.body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}({param})" for param in params if param not in read]
    return found


def test_every_public_parameter_is_read():
    # no parameter is accepted and then ignored
    package = Path(braidcert.__file__).parent
    offenders = {path.name: unread for path in sorted(package.glob("*.py"))
                 if (unread := _unread_parameters(path.read_text()))}
    assert offenders == {}


def test_unread_check_sees_functions_and_methods():
    source = ("def sign(letters, m):\n"
              "    return len(letters)\n"
              "def _helper(unused):\n"
              "    return 0\n"
              "class Word:\n"
              "    def walk(self, start, *rest, pairs=2, **options):\n"
              "        def inner(k):\n"
              "            return start + k + len(rest)\n"
              "        return inner\n"
              "    @staticmethod\n"
              "    def parse(text):\n"
              "        return 0\n")
    assert _unread_parameters(source) == [
        "sign(m)", "walk(pairs)", "walk(options)", "parse(text)",
    ]


#: The refusals that fdtc lets through from the floor search as they are.
_REFUSALS = {"WordLengthExceeded", "ReductionBudgetExceeded"}


def _caught_refusals(source: str) -> list[tuple[int, str]]:
    """(line, name) for each of _REFUSALS that an except clause in a
    module's source names: bare, under an import alias, as an attribute
    such as ``errors.WordLengthExceeded``, alone or in a tuple."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name in _REFUSALS}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for name in ast.walk(node.type):
                if isinstance(name, ast.Name) and name.id in aliases:
                    found.append((node.lineno, aliases[name.id]))
                elif isinstance(name, ast.Attribute) and name.attr in _REFUSALS:
                    found.append((node.lineno, name.attr))
    return found


def test_fdtc_catches_no_refusal():
    # power_floor decides the identity under any letter cap or budget, so
    # fdtc has no second path that catches a refusal and tries again
    source = Path(braidcert.__file__).with_name("fdtc.py").read_text()
    assert _caught_refusals(source) == []


def test_refusal_check_sees_every_form():
    source = ("from braidcert import errors\n"
              "from braidcert.errors import ReductionBudgetExceeded as Budget\n"
              "from braidcert.errors import WordLengthExceeded\n"
              "try:\n"
              "    pass\n"
              "except WordLengthExceeded:\n"
              "    pass\n"
              "except (ValueError, Budget):\n"
              "    pass\n"
              "except errors.WordLengthExceeded as exc:\n"
              "    pass\n"
              "except (errors.ReductionBudgetExceeded, KeyError):\n"
              "    pass\n"
              "except Exception:\n"
              "    raise WordLengthExceeded('refused')\n")
    assert _caught_refusals(source) == [
        (6, "WordLengthExceeded"), (8, "ReductionBudgetExceeded"),
        (10, "WordLengthExceeded"), (12, "ReductionBudgetExceeded"),
    ]


def _repeated_exports(source: str) -> list[str]:
    """Each module or name that the ``_EXPORTS`` table in a package's
    source states again after its first time, in source order: a dict
    literal would keep one module's entry and the map from names to
    modules one home of a name, silently."""
    for node in ast.walk(ast.parse(source)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in targets):
            seen: set[str] = set()
            repeated = []
            for key, names in zip(node.value.keys, node.value.values):
                for text in [key, *ast.walk(names)]:
                    if isinstance(text, ast.Constant) and isinstance(text.value, str):
                        if text.value in seen:
                            repeated.append(text.value)
                        seen.add(text.value)
            return repeated
    raise AssertionError("no _EXPORTS table")


def test_export_table_states_each_name_once():
    source = Path(braidcert.__file__).read_text()
    assert _repeated_exports(source) == []
    assert sorted(braidcert._EXPORTS) == [
        "_kernel", "braid", "certify", "errors", "fdtc", "ordering", "replay",
        "threebraid",
    ]
    assert sum(map(len, braidcert._EXPORTS.values())) == len(braidcert.__all__) == 56


def test_repeated_export_check_sees_names_and_modules():
    source = ("_HOME = {'braid': ('delta', 'delta')}\n"
              "_EXPORTS: dict = {\n"
              "    'braid': ('BraidWord', 'delta'),\n"
              "    'ordering': ('compare', 'delta'),\n"
              "    'braid': ('identity', 'compare'),\n"
              "}\n")
    assert _repeated_exports(source) == ["delta", "braid", "compare"]
    with pytest.raises(AssertionError, match="no _EXPORTS"):
        _repeated_exports("__all__ = ['delta', 'delta']\n")


#: The annotations that name a 3-braid normal form.
_FORMS = {"ThreeBraidNormalForm", "PseudoAnosovForm", "ReducibleForm", "PeriodicForm"}


def _braid_and_form_parameters(source: str) -> list[str]:
    """Each public function or method in a module's source, in source
    order, that takes a parameter annotated with BraidWord and another
    annotated with a normal form: a form given beside its braid could be
    another braid's.
    An annotation counts by any name or attribute in it, string
    annotations included."""

    def named(annotation) -> set[str]:
        if annotation is None:
            return set()
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(annotation)
                if isinstance(node, (ast.Name, ast.Attribute))}

    found = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("_")):
            continue
        args = node.args
        params = [named(arg.annotation) for arg in
                  args.posonlyargs + args.args + args.kwonlyargs
                  + [arg for arg in (args.vararg, args.kwarg) if arg]]
        if (any("BraidWord" in names for names in params)
                and any(names & _FORMS for names in params)):
            found.append((node.lineno, node.name))
    return [name for _, name in sorted(found)]


def test_no_public_function_takes_a_braid_and_its_form():
    # a 3-braid's twist, type and certificates come from the braid alone;
    # a function given its normal form takes that form only
    package = Path(braidcert.__file__).parent
    offenders = {path.name: found for path in sorted(package.glob("*.py"))
                 if (found := _braid_and_form_parameters(path.read_text()))}
    assert offenders == {}


def test_braid_and_form_check_sees_every_form():
    source = ("def fdtc_interval(b: BraidWord, tol, nf: ThreeBraidNormalForm | None = None):\n"
              "    pass\n"
              "def _pa_gate(b: BraidWord, nf: ThreeBraidNormalForm | None):\n"
              "    pass\n"
              "def fdtc_of_normal_form(nf: ThreeBraidNormalForm) -> BraidWord:\n"
              "    pass\n"
              "class Classifier:\n"
              "    def twist(self, b: 'BraidWord', *, nf: 'Optional[PeriodicForm]'):\n"
              "        pass\n"
              "def lspace(b: braid.BraidWord, *forms: threebraid.ReducibleForm):\n"
              "    pass\n"
              "def word(b: BraidWord, tol: Fraction):\n"
              "    pass\n")
    assert _braid_and_form_parameters(source) == ["fdtc_interval", "twist", "lspace"]
