"""The package namespace: what ``from braidcert import *`` exports."""

from __future__ import annotations

import __future__
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
