"""Traced in-process run of one workload's pipeline stages.

    python3 bench/tracer.py --workdir DIR --mode time|memory --seconds T

`run.py` starts this in a child process with the same environment as the
pipeline processes.  It reads the stage argument lists from DIR/plan.json
and runs them through `twofaced.cli.run`, stage output feeding the next
stage's input, as the pipeline would.

The package is instrumented from outside: each public function below is
replaced, where its caller looks it up, by a wrapper that records a span
(name, layer, start, end, parent) and counts.  Spans are kept in memory and
written to DIR/spans-<mode>.json at the end.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

* `--mode time` alternates untraced and traced runs until T seconds have
  passed (two pairs at least); the median difference is the tracing
  overhead.
* `--mode memory` makes one traced run under tracemalloc, kept out of the
  timed mode because it slows allocation.  A span's peak is the highest
  traced memory while it was open, less the traced memory when it opened.

The results go to DIR/trace-<mode>.json.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("sources", "generator", "kernels", "transform", "combine", "stats",
          "expander", "bitseq", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _result_bits(args, kwargs, result):
    return {"bits_out": len(result)}


def _nothing(args, kwargs, result):
    return {}


def _stdout_bits(args, kwargs, result):
    return {"bits_out": 8 * len(_arg(args, kwargs, 2, "stdout").getvalue())}


def _encoded_bits(args, kwargs, result):
    return {"bits_out": len(_arg(args, kwargs, 0, "seq"))}


def _source_bits(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    return {"bits_out": n, "source_bits": n}


def _draw_bits(args, kwargs, result):
    return {"bits_out": 53 * _arg(args, kwargs, 1, "n")}


def _context_bits(args, kwargs, result):
    k = len(_arg(args, kwargs, 0, "context"))
    return {"bits_out": k, "window_bits": k}


def _window_bits(args, kwargs, result):
    k = _arg(args, kwargs, 1, "order")
    return {"bits_out": k, "window_bits": k}


def _windows(args, kwargs, result):
    return {"windows_counted": result.windows}


def _text_bits(args, kwargs, result):
    return {"bits_out": 8 * len(result)}


def _decoded_bits(args, kwargs, result):
    return {"bits_out": len(result), "code_bits": len(_arg(args, kwargs, 0, "code"))}


def _component_bits(args, kwargs, result):
    return {"bits_out": len(result), "components_built": 1}


@dataclass(frozen=True)
class TracePoint:
    """A public function, named where its caller looks it up."""

    layer: str
    module: str
    owner: str | None  # class holding the method, or None for the module
    attr: str
    measure: Callable
    traces_result: bool = False  # the function returns a function to trace


TRACE_POINTS = (
    TracePoint("cli", "twofaced.cli", None, "run", _stdout_bits),
    TracePoint("bitseq", "twofaced.cli", None, "decode_stream", _result_bits),
    TracePoint("bitseq", "twofaced.cli", None, "encode_stream", _encoded_bits),
    TracePoint("sources", "twofaced.sources", "CounterBitSource", "bits", _source_bits),
    TracePoint("sources", "twofaced.sources", "UniformRealSource", "reals", _draw_bits),
    TracePoint("generator", "twofaced.cli", None, "init_uniform", _nothing),
    TracePoint("generator", "twofaced.cli", None, "generate", _result_bits),
    TracePoint("generator", "twofaced.combine", None, "init_uniform", _nothing),
    TracePoint("generator", "twofaced.combine", None, "generate", _result_bits),
    TracePoint("kernels", "twofaced.generator", None, "context_to_int", _context_bits),
    TracePoint("kernels", "twofaced.generator", None, "int_to_context", _window_bits),
    TracePoint("kernels", "twofaced.transform", None, "context_to_int", _context_bits),
    TracePoint("kernels", "twofaced.transform", None, "int_to_context", _window_bits),
    TracePoint("transform", "twofaced.expander", None, "transform", _result_bits),
    TracePoint("combine", "twofaced.combine", None, "load_config", _nothing),
    TracePoint("combine", "twofaced.combine", None, "twice_two_faced_from_config",
               _result_bits),
    TracePoint("combine", "twofaced.combine", None, "twice_two_faced", _result_bits),
    TracePoint("combine", "twofaced.combine", None, "component_stream", _nothing,
               traces_result=True),
    TracePoint("stats", "twofaced.stats", None, "analyze", _nothing),
    TracePoint("stats", "twofaced.stats", None, "block_frequencies", _windows),
    TracePoint("stats", "twofaced.stats", None, "chi_square_pvalue", _nothing),
    TracePoint("stats", "twofaced.stats", None, "report_text", _text_bits),
    TracePoint("expander", "twofaced.cli", None, "expand", _result_bits),
    TracePoint("expander", "twofaced.expander", None, "entropy_inverse", _nothing),
    TracePoint("expander", "twofaced.expander", None, "bernoulli_decode", _decoded_bits),
)


class Tracer:
    """Span recorder; spans of one run share its iteration number."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.iteration = 0
        self.spans: list[dict] = []  # spans of the current iteration
        self.stack: list[int] = []

    def _memory_tick(self) -> None:
        # Every open span sees the peak since the last boundary; the peak is
        # then reset so the next interval is measured on its own.
        peak = tracemalloc.get_traced_memory()[1]
        for index in self.stack:
            span = self.spans[index]
            span["peak"] = max(span["peak"], peak)
        tracemalloc.reset_peak()

    def wrap(self, point: TracePoint, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"iteration": tracer.iteration, "name": name, "layer": point.layer,
                    "parent": tracer.stack[-1] if tracer.stack else None}
            if tracer.memory:
                tracer._memory_tick()
                span["base"] = span["peak"] = tracemalloc.get_traced_memory()[0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                if tracer.memory:
                    tracer._memory_tick()
                tracer.stack.pop()
            if point.traces_result:
                component = TracePoint(point.layer, point.module, None, "component",
                                       _component_bits)
                return tracer.wrap(component, f"{name}.build", result)
            span["counts"] = point.measure(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Replace every trace point that exists; return the undo list and the
    names of trace points this tree does not have."""
    undo, missing = [], []
    for point in TRACE_POINTS:
        owner = importlib.import_module(point.module)
        name = point.module.rsplit(".", 1)[1]
        if point.owner is not None:
            owner = getattr(owner, point.owner, None)
            name += "." + point.owner
        name += "." + point.attr
        if owner is None or point.attr not in vars(owner):
            missing.append(name)
            continue
        original = vars(owner)[point.attr]
        undo.append((owner, point.attr, original))
        setattr(owner, point.attr, tracer.wrap(point, name, original))
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_stages(stages) -> dict:
    """Run the stages in this process, each reading the previous output."""
    import twofaced.cli
    data, codes, errors, stream = b"", [], [], None
    for argv in stages:
        out, err = io.BytesIO(), io.StringIO()
        codes.append(twofaced.cli.run(list(argv), stdin=io.BytesIO(data), stdout=out,
                                      stderr=err))
        errors.append(err.getvalue()[-2000:])
        data = out.getvalue()
        if stream is None:
            stream = data
    return {"codes": codes, "stderr": errors,
            "stream_sha256": hashlib.sha256(stream).hexdigest(),
            "report": data.decode("ascii", "replace") if len(stages) > 1 else ""}


def summarize(spans: list[dict]) -> dict:
    """Per-layer self time, calls, bits out and peak, plus counters, for the
    spans of one run."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    layers = {name: {"self_ns": 0, "calls": 0, "bits_out": 0, "peak_bytes": 0}
              for name in LAYERS}
    counters = {"source_bits": 0, "components_built": 0, "window_bits": 0,
                "windows_counted": 0, "code_bits": 0}
    for index, span in enumerate(spans):
        layer = layers[span["layer"]]
        layer["calls"] += 1
        covered, last_end = 0, span["start"]
        for child in sorted((spans[c] for c in children.get(index, ())),
                            key=lambda s: s["start"]):
            start, end = max(child["start"], last_end), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                last_end = end
        layer["self_ns"] += span["end"] - span["start"] - covered
        if "peak" in span:
            layer["peak_bytes"] = max(layer["peak_bytes"], span["peak"] - span["base"])
        counts = span.get("counts", {})
        parent = span["parent"]
        while parent is not None and spans[parent]["layer"] != span["layer"]:
            parent = spans[parent]["parent"]
        if parent is None:  # outermost span of its layer
            layer["bits_out"] += counts.get("bits_out", 0)
        for key in counters:
            if key == "window_bits":
                counters[key] = max(counters[key], counts.get(key, 0))
            else:
                counters[key] += counts.get(key, 0)
    return {"layers": layers, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("time", "memory"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    stages = json.loads((args.workdir / "plan.json").read_text())["stages"]

    import twofaced.cli  # noqa: F401  (import cost stays out of the runs)

    memory = args.mode == "memory"
    tracer = Tracer(memory)
    outputs, spans, runs, untraced_s, traced_s = [], [], [], [], []
    missing: list[str] = []

    def traced_run() -> None:
        nonlocal missing
        tracer.spans, tracer.stack = [], []
        undo, missing = install(tracer)
        try:
            t0 = time.perf_counter()
            outputs.append(run_stages(stages))
            traced_s.append(time.perf_counter() - t0)
        finally:
            uninstall(undo)
        spans.extend(tracer.spans)
        runs.append(summarize(tracer.spans))
        tracer.iteration += 1

    def untraced_run() -> None:
        t0 = time.perf_counter()
        outputs.append(run_stages(stages))
        untraced_s.append(time.perf_counter() - t0)

    if memory:
        tracemalloc.start()
        traced_run()
        tracemalloc.stop()
    else:
        start = time.perf_counter()
        pair = 0
        while pair < 2 or time.perf_counter() - start < args.seconds:
            order = (untraced_run, traced_run) if pair % 2 == 0 else (traced_run, untraced_run)
            for step in order:
                step()
            pair += 1

    result = {
        "mode": args.mode,
        "outputs": outputs,
        "missing": missing,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_ns": {name: statistics.median(r["layers"][name]["self_ns"] for r in runs)
                    for name in LAYERS},
        "layers": runs[0]["layers"],
        "counters": runs[0]["counters"],
    }
    (args.workdir / f"spans-{args.mode}.json").write_text(json.dumps(spans))
    (args.workdir / f"trace-{args.mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
