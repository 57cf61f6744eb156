"""The twofaced benchmark: CLI pipelines timed end to end, and a traced run.

    python3 bench/run.py --workload gen-analyze --seed 9 --seconds 30 --trace 0

Run it from the root of a source tree; the package is taken from `src`.

With `--trace 0` the workload's pipeline runs as real processes, one
pipeline at a time, again and again for `--seconds`.  Every process is
`python -m twofaced.cli` with PYTHONPATH set to `src` and one BLAS/OpenMP
thread, and is reaped with `os.wait4`, so CPU time and peak RSS belong to
that process alone.  Between the stages of a pipeline the benchmark relays
the stream and hashes it; every stream and report is checked against the
independent reference in `oracle.py`.

The pipeline processes all run on one CPU, beside the speed probe of
`probe.py`; the benchmark itself runs on the others.  Each time below is
the measured time multiplied by the CPU's speed while it was measured,
relative to REFERENCE_RATE, so that it reads as the time at a fixed CPU
speed.  Reported, as medians over the runs:

    wall_s      spawn of the first process to the exit of the last
    cpu_s       user plus system time, summed over the pipeline's processes
    max_rss_mb  the highest peak RSS of any one process of the pipeline
    setup_s     wall time of a fresh `python -m twofaced.cli --help`, one
                after each pipeline run

With `--trace 1` the same stages run in-process under `tracer.py`: traced
and untraced runs alternate for half of `--seconds`, then one traced run
under tracemalloc.  It reports per-layer self time, calls, bits out, peak
memory and counters, and the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary, the failure fraction and the environment.  Each run also leaves
its details in a directory under `.bench_work/`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = workloads.ROOT
CLI = (sys.executable, "-m", "twofaced.cli")
PROBE = (sys.executable, str(Path(__file__).with_name("probe.py")))
# Probe units per CPU second that count as speed 1.0.  Any fixed value would
# do; on a quiet vCPU of a 2-vCPU cloud VM the probe does about this many,
# so there the scaled times read close to the measured ones.
REFERENCE_RATE = 1000.0
IMPORT_SPAWNS = 5
MIN_SAMPLES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


@dataclass
class Sample:
    """One pipeline execution."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    stream: bytes  # what the first stage emitted
    output: bytes  # what the last stage emitted
    errors: list[str] = field(default_factory=list)
    speed: float = 1.0  # CPU speed while it ran, relative to REFERENCE_RATE


class Probe:
    """The speed probe of `probe.py`, running on `cpus` until closed."""

    def __init__(self, env, cpus: set[int]):
        request_r, self._requests = os.pipe()
        answer_r, answer_w = os.pipe()
        try:
            self.pid = _spawn(PROBE, env, request_r, answer_w, 2, cpus)
        finally:
            os.close(request_r)
            os.close(answer_w)
        self._answers = os.fdopen(answer_r, "rb")

    def reading(self) -> tuple[int, float]:
        """Units completed and CPU seconds used, at the end of a unit."""
        os.write(self._requests, b"?")
        units, cpu_s = self._answers.readline().split()
        return int(units), float(cpu_s)

    def close(self) -> None:
        os.close(self._requests)  # the probe ends at end of input
        self._answers.close()
        os.waitpid(self.pid, 0)


def at_speed(probe: Probe, run) -> Sample:
    """Call `run` and record the CPU speed the probe saw meanwhile.

    Two readings lie at least one unit apart, so the division is safe."""
    units0, cpu0 = probe.reading()
    sample = run()
    units1, cpu1 = probe.reading()
    sample.speed = (units1 - units0) / (cpu1 - cpu0) / REFERENCE_RATE
    return sample


def _spawn(argv, env, stdin_fd: int, stdout_fd: int, stderr_fd: int,
           cpus: set[int] | None = None) -> int:
    actions = [(os.POSIX_SPAWN_DUP2, stdin_fd, 0),
               (os.POSIX_SPAWN_DUP2, stdout_fd, 1),
               (os.POSIX_SPAWN_DUP2, stderr_fd, 2)]
    own = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)  # the child inherits it
    try:
        return os.posix_spawn(argv[0], list(argv), env, file_actions=actions,
                              setsigdef=(signal.SIGPIPE,))
    finally:
        os.sched_setaffinity(0, own)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _relay(src: int, dst: int) -> bytes:
    """Copy src to dst until EOF and return what passed; keep draining src
    if the reader of dst has gone."""
    chunks, reader_gone = [], False
    while chunk := os.read(src, 1 << 16):
        chunks.append(chunk)
        view = memoryview(chunk)
        while view and not reader_gone:
            try:
                view = view[os.write(dst, view):]
            except BrokenPipeError:
                reader_gone = True
    return b"".join(chunks)


def run_pipeline(stages, env, stderr_path: Path, cli=CLI, cpus=None) -> Sample:
    """Run one or two CLI stages as a pipeline, on `cpus` if given, and
    reap every process."""
    open_fds: list[int] = []
    pids: list[int] = []

    def pipe() -> tuple[int, int]:
        r, w = os.pipe()
        open_fds.extend((r, w))
        return r, w

    def close(*fds: int) -> None:
        for fd in fds:
            open_fds.remove(fd)
            os.close(fd)

    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    open_fds.append(err)
    usages, codes = [], []
    try:
        stdin_r, stdin_w = pipe()
        close(stdin_w)  # the first stage reads an empty stdin
        out_r, out_w = pipe()
        t0 = time.perf_counter()
        pids.append(_spawn(cli + tuple(stages[0]), env, stdin_r, out_w, err, cpus))
        close(stdin_r, out_w)
        if len(stages) == 1:
            stream = output = _read_all(out_r)
        else:
            mid_r, mid_w = pipe()
            last_r, last_w = pipe()
            pids.append(_spawn(cli + tuple(stages[1]), env, mid_r, last_w, err, cpus))
            close(mid_r, last_w)
            stream = _relay(out_r, mid_w)
            close(mid_w)
            output = _read_all(last_r)
        while pids:
            _, status, usage = os.wait4(pids[0], 0)
            pids.pop(0)
            codes.append(os.waitstatus_to_exitcode(status))
            usages.append(usage)
        wall = time.perf_counter() - t0
    finally:
        for fd in list(open_fds):
            close(fd)
        for pid in pids:
            os.wait4(pid, 0)
    sample = Sample(wall, sum(u.ru_utime + u.ru_stime for u in usages),
                    max(u.ru_maxrss for u in usages) / 1024.0, stream, output)
    for stage, code in zip(stages, codes):
        if code != 0:
            tail = stderr_path.read_text(errors="replace")[-2000:]
            sample.errors.append(f"{stage[0]} exited with {code}: {tail}")
    return sample


def run_iteration(plan: workloads.Plan, env, workdir: Path, cli=CLI, cpus=None) -> Sample:
    sample = run_pipeline(plan.stages, env, workdir / "stderr.txt", cli, cpus)
    if not sample.errors:
        sample.errors = workloads.check(
            plan, hashlib.sha256(sample.stream).hexdigest(), sample.output)
    return sample


def measure(plan: workloads.Plan, seconds: float, env, workdir: Path,
            cli=CLI) -> tuple[list[Sample], list[Sample]]:
    """Closed loop, one client: run the pipeline, then a fresh `--help`,
    until `seconds` have passed.  Interleaving the starts spreads them over
    the same window as the pipelines.  One unmeasured start first fills the
    bytecode cache of a new tree.

    The pipelines and the probe share the last CPU this process may use;
    this process moves to the others while they run, if there are any."""
    cpus = sorted(os.sched_getaffinity(0))
    pinned = {cpus[-1]}
    os.sched_setaffinity(0, set(cpus[:-1]) or pinned)
    probe = Probe(env, pinned)
    try:
        def pipeline() -> Sample:
            return run_iteration(plan, env, workdir, cli, pinned)

        def fresh_start() -> Sample:
            return run_pipeline([("--help",)], env, workdir / "stderr.txt", cli, pinned)

        fresh_start()
        samples, starts = [], []
        start = time.perf_counter()
        while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
            samples.append(at_speed(probe, pipeline))
            starts.append(at_speed(probe, fresh_start))
    finally:
        probe.close()
        os.sched_setaffinity(0, cpus)
    return samples, starts


def import_time(env, workdir: Path) -> tuple[float, list[str]]:
    """Median time of `import twofaced.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import twofaced.cli; "
            "print(time.perf_counter() - t)")
    times, errors = [], []
    for _ in range(IMPORT_SPAWNS):
        sample = run_pipeline([("-c", code)], env, workdir / "stderr.txt",
                              cli=(sys.executable,))
        errors += sample.errors
        if not sample.errors:
            times.append(float(sample.output))
    return (statistics.median(times) if times else 0.0), errors


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "loadavg": os.getloadavg(),
            "steal_s": steal_seconds()}


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others since boot, over all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def check_layer_digests() -> list[str]:
    import pins
    pinned = workloads.load_digests()["layers"]
    try:
        actual = pins.layer_digests()
    except Exception as exc:  # a layer's public function is gone or raised
        return [f"layer digests: {type(exc).__name__}: {exc}"]
    return [f"layer {name}: digest {actual.get(name)} != pinned {digest}"
            for name, digest in pinned.items() if actual.get(name) != digest]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(plan, args, env, workdir: Path, info: dict) -> tuple[dict, int, int, list[str]]:
    samples, starts = measure(plan, args.seconds, env, workdir)
    failed = sum(1 for s in samples if s.errors)
    errors = [f"run {i}: {e}" for i, s in enumerate(samples) for e in s.errors]
    errors += [f"--help {i}: {e}" for i, s in enumerate(starts) for e in s.errors]
    values = {"wall_s": [s.wall_s * s.speed for s in samples],
              "cpu_s": [s.cpu_s * s.speed for s in samples],
              "max_rss_mb": [s.max_rss_mb for s in samples],
              "setup_s": [s.wall_s * s.speed for s in starts]}
    measured = {"wall_s": [s.wall_s for s in samples], "cpu_s": [s.cpu_s for s in samples],
                "setup_s": [s.wall_s for s in starts]}
    units = {"wall_s": "s", "cpu_s": "s", "max_rss_mb": "MB", "setup_s": "s"}
    metrics = {}
    print(f"{plan.workload} seed={plan.seed} bits={plan.length} runs={len(samples)} "
          f"starts={len(starts)}")
    for name, unit in units.items():
        q1, q2, q3 = quartiles(values[name])
        metrics[name] = {"value": q2, "unit": unit}
        line = f"  {name:<12} median {q2:.4f} {unit}  quartiles {q1:.4f}..{q3:.4f}"
        if name in measured:
            line += f"  (measured median {statistics.median(measured[name]):.4f} {unit})"
        print(line)
    q1, q2, q3 = quartiles([s.speed for s in samples + starts])
    print(f"  cpu speed    median {q2:.3f}  quartiles {q1:.3f}..{q3:.3f}")
    print(f"  failed_frac  {failed / len(samples):.4f}  ({failed} of {len(samples)})")
    info["samples"] = [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "max_rss_mb": s.max_rss_mb,
                        "speed": s.speed, "errors": s.errors} for s in samples]
    info["starts"] = [{"wall_s": s.wall_s, "speed": s.speed} for s in starts]
    return metrics, len(samples), failed, errors


def traced(plan, args, env, workdir: Path, info: dict) -> tuple[dict, int, int, list[str]]:
    import_s, errors = import_time(env, workdir)
    (workdir / "plan.json").write_text(json.dumps({"stages": plan.stages}))
    results = {}
    for mode in ("time", "memory"):
        sample = run_pipeline(
            [(tracer.__file__, "--workdir", str(workdir), "--mode", mode,
              "--seconds", str(args.seconds / 2))],
            env, workdir / "stderr.txt", cli=(sys.executable,))
        if sample.errors:
            raise RuntimeError(f"tracer ({mode}) failed: {sample.errors}")
        results[mode] = json.loads((workdir / f"trace-{mode}.json").read_text())
    outputs = results["time"]["outputs"] + results["memory"]["outputs"]
    failed = 0
    for i, out in enumerate(outputs):
        problems = [f"{stage[0]} returned {code}: {text}"
                    for stage, code, text in zip(plan.stages, out["codes"], out["stderr"])
                    if code != 0]
        problems = problems or workloads.check(plan, out["stream_sha256"],
                                               out["report"].encode("ascii"))
        failed += bool(problems)
        errors += [f"in-process run {i}: {p}" for p in problems]
    missing = results["time"]["missing"]
    if missing:
        print(f"  trace points absent from this tree: {', '.join(missing)}", file=sys.stderr)

    timing, memory = results["time"], results["memory"]
    n = plan.length
    metrics = {}
    ranking = []
    for layer in tracer.LAYERS:
        stats = timing["layers"][layer]
        self_ns = timing["self_ns"][layer]
        ranking.append((self_ns, layer))
        metrics[f"{layer}.self_ns_per_bit"] = {"value": self_ns / n, "unit": "ns/bit"}
        metrics[f"{layer}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{layer}.bits_out"] = {"value": stats["bits_out"], "unit": "bits"}
        metrics[f"{layer}.peak_bytes_per_bit"] = {
            "value": memory["layers"][layer]["peak_bytes"] / n, "unit": "B/bit"}
    counters = timing["counters"]
    generated = timing["layers"]["generator"]["bits_out"]
    metrics["sources.bits_per_out_bit"] = {
        "value": counters["source_bits"] / generated if generated else 0.0, "unit": "bits/bit"}
    metrics["combine.components_built"] = {"value": counters["components_built"],
                                           "unit": "count"}
    metrics["kernels.max_window_bits"] = {"value": counters["window_bits"], "unit": "bits"}
    metrics["stats.windows_counted"] = {"value": counters["windows_counted"], "unit": "count"}
    metrics["expander.code_bits"] = {"value": counters["code_bits"], "unit": "bits"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    untraced_s = statistics.median(timing["untraced_s"])
    overhead_s = statistics.median(timing["traced_s"]) - untraced_s
    metrics["trace.inprocess_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}

    print(f"{plan.workload} seed={plan.seed} bits={n} traced runs={len(timing['traced_s'])}")
    print(f"  in-process {untraced_s:.4f} s untraced, tracing overhead {overhead_s:+.4f} s")
    print("  layers by self time:")
    for self_ns, layer in sorted(ranking, reverse=True):
        print(f"    {layer:<10} {self_ns / 1e9:8.4f} s  {self_ns / n:9.1f} ns/bit  "
              f"peak {memory['layers'][layer]['peak_bytes'] / n:8.1f} B/bit  "
              f"calls {timing['layers'][layer]['calls']}")
    print(f"  failed_frac  {failed / len(outputs):.4f}  ({failed} of {len(outputs)})")
    info["trace"] = {"untraced_s": timing["untraced_s"], "traced_s": timing["traced_s"],
                     "missing": missing}
    return metrics, len(outputs), failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.LENGTHS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twofaced" / "cli.py").is_file():
        print(f"run.py: no twofaced package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workloads.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-trace{args.trace}-", dir=workloads.WORK_ROOT))
    env = child_env()
    info = {"args": vars(args), "env": environment()}
    plan = workloads.make_plan(args.workload, args.seed, workdir)
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, errors = run(plan, args, env, workdir, info)
    errors += check_layer_digests()
    info["env"]["loadavg_after"] = os.getloadavg()
    info["env"]["steal_s_after"] = steal_seconds()
    info["errors"] = errors
    (workdir / "result.json").write_text(json.dumps(info, indent=1))
    print(f"  env {json.dumps(info['env'])}")
    for error in errors[:20]:
        print(f"  FAIL {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
