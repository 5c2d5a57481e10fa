"""Every exported name resolves, so tools that walk ``__all__`` (the
benchmark's per-layer tracer wraps each entry) never meet a stale one."""

import importlib

import pytest

import lgcardy

MODULES = ("polycore", "frobenius", "cardy", "landau_ginzburg", "moduli",
           "tensor_series", "bundle", "cli")


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    mod = lgcardy if module is None else importlib.import_module("lgcardy." + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
