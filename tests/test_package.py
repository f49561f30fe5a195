"""The package namespace: what ``from braidcert import *`` exports."""

from __future__ import annotations

import __future__
import importlib
import inspect
import pkgutil
import types

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
