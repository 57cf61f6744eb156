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
