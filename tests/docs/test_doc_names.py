"""The prose docs name only what exists.

* Every backticked ``repro.…`` name in ``README.md`` and
  ``docs/architecture.md`` resolves: the longest importable module
  prefix, then ``getattr`` for the rest.
* The registry table of ``docs/architecture.md`` lists exactly the keys
  of ``SCHEDULERS``, ``BINDERS``, ``SELECTORS`` and ``LIBRARIES``.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro import registries

REPO_ROOT = Path(__file__).resolve().parents[2]
ARCHITECTURE = REPO_ROOT / "docs" / "architecture.md"
DOCUMENTS = [REPO_ROOT / "README.md", ARCHITECTURE]
REGISTRIES = ("SCHEDULERS", "BINDERS", "SELECTORS", "LIBRARIES")


def documented_names():
    names = set()
    for document in DOCUMENTS:
        names.update(re.findall(r"`(repro(?:\.\w+)+)`", document.read_text()))
    return sorted(names)


def resolve(dotted: str):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute)
        return obj
    raise ImportError(dotted)


def test_the_docs_name_something():
    assert len(documented_names()) > 20


@pytest.mark.parametrize("dotted", documented_names())
def test_documented_name_resolves(dotted):
    resolve(dotted)


def registry_table():
    """``{registry: keys}`` from the table under "## Registry keys"."""
    section = ARCHITECTURE.read_text().split("## Registry keys", 1)[1].split("\n## ", 1)[0]
    table = {}
    registry = None
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("registry", "---"):
            continue
        registry = cells[0].strip("`") or registry
        table.setdefault(registry, set()).update(re.findall(r"`(\w+)`", cells[1]))
    return table


def test_registry_table_lists_exactly_the_registered_keys():
    expected = {name: set(getattr(registries, name).names()) for name in REGISTRIES}
    assert registry_table() == expected
