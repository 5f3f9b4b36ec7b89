"""The benchmark's tracer still reaches every function it times.

``bench/selftest.py`` wraps each traced function at every module attribute
that binds it; a deletion in ``src/`` that drops one of them makes the
benchmark's ``--trace 1`` mode crash.  This runs the self-test's
binding-site check alone, which starts no benchmark run.
"""

import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_binding_sites(monkeypatch):
    # selftest.py imports run.py and tracing.py as top-level modules
    monkeypatch.syspath_prepend(BENCH)
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_selftest", os.path.join(BENCH, "selftest.py"))
        selftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(selftest)
        assert selftest.check_binding_sites() == []
    finally:
        for name in ("run", "tracing"):
            if name not in before:
                sys.modules.pop(name, None)
