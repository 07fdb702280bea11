"""The names the benchmark hooks into must stay bound.

``bench/tracing.py`` patches functions where their callers look them up
and ``bench/checks.py`` reads the thresholds from ``orderfuse.fusion``;
removing or renaming one of those names breaks the traced benchmark run.
These tests catch that in the ordinary test run.
"""

import sys
from pathlib import Path

import orderfuse
from orderfuse import cli, experiment, fusion

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"cli": cli, "experiment": experiment, "fusion": fusion}


def test_every_benchmark_hook_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import TRACE_POINTS
    finally:
        sys.path.remove(str(BENCH))
    hooks = [(module, attr) for module, attr, _ in TRACE_POINTS]
    hooks += [("fusion", "threshold_from_local_pfa"), ("fusion", "system_threshold")]
    missing = [f"{m}.{a}" for m, a in hooks if not callable(getattr(MODULES[m], a, None))]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in orderfuse.__all__ if not hasattr(orderfuse, name)] == []
