"""The benchmark's tracer must find every rope-kit name it wraps.

``perfbench/tracer.py`` drops the metric of any target it cannot find, so
a rename in ``src/`` would silently empty a benchmark metric. These tests
only read ``perfbench/`` and ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

import rope_kit.harness  # noqa: F401  (the tracer wraps harness modules too)
from rope_kit import cli

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_verify_suites_match_benchmark_metrics():
    suite_key = load_tracer().suite_key
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {
        entry["name"] for entry in per_layer
        if entry["name"].startswith("cli.verify.") and entry["name"].endswith(".ms")
    }
    assert {suite_key(fn.__name__) for _, fn in cli.VERIFY_SUITES} == expected
