"""Every function and cache perfbench/spans.py names must exist in the package.

A traced run reports a name that no longer resolves as a null metric, so a
rename or deletion that spans.py does not follow fails here first.  spans.py
is loaded by path, as the benchmark loads it, and is not edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _resolve(module: str, attr: str):
    assert module.split(".")[0] == "mdiqkd", module
    return getattr(importlib.import_module(module), attr, None)


@pytest.mark.parametrize("name", sorted(SPANS.TRACED))
def test_traced_name_is_a_function(name):
    assert inspect.isfunction(_resolve(*SPANS.TRACED[name])), name


@pytest.mark.parametrize("name", sorted(SPANS.CACHES))
def test_cache_name_has_cache_info(name):
    assert callable(getattr(_resolve(*SPANS.CACHES[name]), "cache_info", None)), name
