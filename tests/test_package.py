"""The package namespace: what ``from braidcert import *`` exports."""

from __future__ import annotations

import __future__
import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import braidcert


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(braidcert).items()
        if not name.startswith("_")
        and not isinstance(value, (types.ModuleType, type(__future__.annotations)))
    }
    assert len(braidcert.__all__) == len(set(braidcert.__all__))
    assert set(braidcert.__all__) == public


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
                         "_kernel.sign_of(w, 3)\n", modules) == []
    assert _private_uses("from braidcert.dynnikov import _screen\n"
                         "from braidcert import dynnikov\n"
                         "dynnikov._screen(w, 3)\n", modules) == [
        "line 1: from braidcert.dynnikov import _screen",
        "line 3: dynnikov._screen",
    ]
