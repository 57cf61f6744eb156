import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_layer_digests_match_benchmark_pins(monkeypatch):
    # the benchmark's per-layer digests, recomputed from this tree
    monkeypatch.syspath_prepend(str(BENCH))
    pins = importlib.import_module("pins")
    want = json.loads((BENCH / "digests.json").read_text())["layers"]
    assert pins.layer_digests() == want


def test_every_trace_point_resolves_and_uninstalls(monkeypatch):
    # the benchmark's per-layer trace wraps these functions by name
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    import twofaced.cli
    import twofaced.generator
    undo, missing = tracer.install(tracer.Tracer(memory=False))
    try:
        assert missing == []
        assert len(undo) == len(tracer.TRACE_POINTS)
        assert twofaced.cli.generate is not twofaced.generator.generate
    finally:
        tracer.uninstall(undo)
    for owner, attr, original in undo:
        assert vars(owner)[attr] is original
    assert twofaced.cli.generate is twofaced.generator.generate
