"""The traced benchmark wraps library functions by module and name.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its ``SITES``
with a recording wrapper and rebuilds the maps of ``harness.perturb_map``;
the traced sweep span reads ``harness.thread_count()``.  A refactor that
moves or renames one of these fails here instead of silently dropping a
span from the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from ternstab import harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


SITES = [(site, attr) for site, attr, _, _ in _load_tracing().SITES]


@pytest.mark.parametrize(
    "site, attr", SITES, ids=[f"{site.__name__}.{attr}" for site, attr in SITES]
)
def test_traced_site_exists(site, attr):
    assert callable(getattr(site, attr, None))


def test_harness_hooks_exist(monkeypatch):
    assert callable(harness.perturb_map)
    monkeypatch.setenv("TERNSTAB_THREADS", "1")
    assert harness.thread_count() == 1
