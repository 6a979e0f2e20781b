"""Every speclab name that the benchmark harness in ``bench/`` looks up exists.

``bench/traced_cli.py`` rebinds each ``TRACED`` function and its ``ROOT``
by name, and reads the cache statistics of the two cached Bessel zero
functions; ``bench/record_refs.py`` imports its finite-difference entry
points.  A deletion in ``src/`` that would break a traced benchmark run
or a recording of the references fails here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import speclab  # noqa: F401  (sets the BLAS thread count before numpy loads)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """The module ``bench/<name>.py``, loaded without putting ``bench/`` on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced_cli = _load("traced_cli")


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, name, _ in [*traced_cli.TRACED, traced_cli.ROOT]]
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_zero_caches_report_their_statistics():
    specfun = importlib.import_module("speclab.specfun")
    for cached in (specfun.bessel_j_zero, specfun.bessel_j_prime_zero):
        info = cached.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_record_refs_imports_exist():
    tree = ast.parse((BENCH / "record_refs.py").read_text())
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("speclab")
    ]
    assert [node.module for node in imports] == ["speclab.fdlab"]
    module = importlib.import_module("speclab.fdlab")
    for alias in imports[0].names:
        assert hasattr(module, alias.name), f"speclab.fdlab has no {alias.name}"
