"""Every name the benchmark's tracer wraps must exist in nbzeta: a
refactor that drops or renames one would otherwise make its per-layer
metric silently absent."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_tracer_finds_every_wrapped_name():
    found, absent = _load_tracing()._targets()
    assert absent == []
    assert found
