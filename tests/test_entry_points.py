"""The benchmark tracer's entry points still exist in the package.

``perfbench/tracing.py`` wraps functions by (module, attribute) name and only
warns when one is missing, so a rename would silently empty a per-layer
metric.  This loads the tracer's tables by path and resolves every site.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {**mod.SPANS, **mod.COUNTED}


ENTRIES = _tables()


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_point_resolves(name):
    found = [
        getattr(importlib.import_module(mod), attr, None) for mod, attr in ENTRIES[name]
    ]
    assert any(callable(fn) for fn in found), f"{name}: none of {ENTRIES[name]} is callable"


@pytest.mark.parametrize(
    "mod, attr",
    [("uwqkd.cli", "write_pgm"), ("uwqkd.channel", "gain_stats"), ("uwqkd.optimize", "_k_grid")],
)
def test_named_sites(mod, attr):
    assert any((mod, attr) in sites for sites in ENTRIES.values())
    assert callable(getattr(importlib.import_module(mod), attr))
