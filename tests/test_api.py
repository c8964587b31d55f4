"""The public surface: every exported name resolves, and every name in the
first column of README's migration table is gone, so the table cannot drift
from the code.

A first-column entry is one of
- ``config key `name` ``: the config loader rejects the key as unknown;
- ``module.name`` or ``module.name(args)``: no such attribute of ``uwqkd.module``
  (``uwqkd.name`` for the package itself);
- ``module.func(kw=...)``: ``func`` remains but takes no ``kw``;
- ``Class.attr``, ``Class.attr(...)`` or ``Class.attr=...``: the class has no such
  attribute or field.
"""

import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

import uwqkd
from uwqkd.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {
    name: importlib.import_module(f"uwqkd.{name}")
    for name in ("channel", "cli", "config", "decoy", "montecarlo", "optimize", "qstate", "tomography")
}
MODULES["uwqkd"] = uwqkd
ENTRY = re.compile(r"(\w+)\.(\w+)(?:\((\w+)=[^)]*\)|\([^)]*\)|=.*)?")


def removed_entries() -> list[tuple[bool, str]]:
    """(is a config key, entry) for each backticked name in the table's first column."""
    section = README.read_text().split("## Migration")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [
        (bool(prefix), name)
        for row in rows
        for prefix, name in re.findall(r"(config key )?`([^`]+)`", row.split(" | ")[0])
    ]


def test_exports_resolve():
    for name in uwqkd.__all__:
        assert getattr(uwqkd, name) is not None, name


def test_migration_table_is_parsed():
    assert len(removed_entries()) >= 20


@pytest.mark.parametrize("is_key,entry", removed_entries())
def test_removed_name_is_gone(is_key, entry):
    if is_key:
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({entry: 0})
        return
    m = ENTRY.fullmatch(entry)
    assert m, f"cannot check migration entry {entry!r}"
    owner, name, kw = m.groups()
    if owner in MODULES:
        if kw:
            assert kw not in inspect.signature(getattr(MODULES[owner], name)).parameters
        else:
            assert not hasattr(MODULES[owner], name)
        return
    classes = [getattr(mod, owner) for mod in MODULES.values() if inspect.isclass(getattr(mod, owner, None))]
    assert classes, f"migration entry {entry!r} names no known module or class"
    assert not hasattr(classes[0], name)
    assert name not in {f.name for f in fields(classes[0])}
