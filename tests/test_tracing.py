"""The benchmark's traced run wraps ptembed functions by their module
attribute names (``bench/tracing.py``). Installing its tracer fails when a
refactor removes one of those names, before the benchmark is run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_installs_and_restores(tracing):
    originals = {(module, attr): getattr(module, attr)
                 for (_, attr), sites in tracing._SITES.items() for module in sites}
    with tracing.Tracer().installed():
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
