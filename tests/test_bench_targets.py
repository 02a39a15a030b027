"""Every function the benchmark's tracer binds must still exist.

``perfbench/tracing.py`` wraps functions by (module, attribute path); a
rename that drops one silently removes a per-layer metric, or, for the
set-up marks, the end-to-end ``setup_s``/``job_s``/``throughput_per_s``.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory untouched
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import TARGETS
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return TARGETS


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_benchmark_target_resolves():
    missing = []
    for module_name, attr, *_ in _targets():
        try:
            target = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        assert callable(target), f"{module_name}.{attr}"
    assert missing == []

