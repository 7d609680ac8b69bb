"""Every name a ``qft_forge`` module lists in ``__all__`` resolves, so a
deleted function cannot leave a stale export that only ``from ... import *``
would trip over."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import qft_forge

MODULES = [
    module
    for module in [qft_forge]
    + [
        importlib.import_module(f"qft_forge.{info.name}")
        for info in pkgutil.iter_modules(qft_forge.__path__)
        if info.name != "__main__"
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
