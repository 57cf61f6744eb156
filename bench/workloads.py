"""The benchmark's workloads: CLI pipelines, their inputs, and their checks.

Each workload is a closed loop with one client that runs one pipeline at a
time.  `make_plan` turns a workload and a seed into the argument lists of
the pipeline's stages plus the expected output, computed by the independent
reference in `oracle.py`; `check` compares what a pipeline emitted with it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".bench_work"  # scratch files of runs; ignored by git
DIGESTS_PATH = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 9
HELD_OUT_SEED = 1512
PI = 0.2
ALPHA = 1e-4  # the `analyze` text report's default rejection threshold
P_VALUE_RTOL = 2e-5  # the report prints p-values with 6 significant digits


# Stream length of each workload; BENCHMARK.json and README.md say why each
# workload was chosen and which layer metrics it should move.
LENGTHS = {
    "gen-analyze": 1_000_000,
    "ladder-combine": 100_000,
    "expand-analyze": 500_000,
}


@dataclass(frozen=True)
class Plan:
    """One workload at one seed: what to run and what it must emit."""

    workload: str
    seed: int
    length: int
    stages: tuple[tuple[str, ...], ...]
    stream_sha256: str
    report: tuple[dict, ...]  # expected `analyze` fields; empty without analyze


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expand_seed_hex(seed: int) -> str:
    """The 128-bit expander seed used for a benchmark seed."""
    return hashlib.sha256(f"twofaced-bench-expand-{seed}".encode()).hexdigest()[:32]


def render_ladder(seed: int, length: int) -> str:
    """The growing-order config for a seed, rendered by the package itself."""
    from twofaced.combine import default_config, render_config
    return render_config(default_config(PI, seed, length))


def parse_ladder(text: str) -> tuple[list[tuple[int, float, int]], list[int]]:
    """(order, pi, seed) per component and the cuts, read from config text."""
    components, cuts = [], []
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "cut":
            cuts.append(int(fields[1]))
        else:
            kv = dict(f.split("=", 1) for f in fields[1:])
            components.append((int(kv["order"]), float(kv["pi"]), int(kv["seed"])))
    return components, cuts


def make_plan(name: str, seed: int, workdir: Path, length: int | None = None) -> Plan:
    """Build the stages and expected outputs of a workload.

    `length` overrides the workload's stream length (the self-test runs
    tiny sizes).  The ladder config file is written into `workdir`.
    """
    n = LENGTHS[name] if length is None else length
    if name == "gen-analyze":
        max_block, fmt = 9, "packed"
        stages = (
            ("gen", "--order", "8", "--pi", str(PI), "--length", str(n),
             "--seed", str(seed), "--format", fmt),
            ("analyze", "--max-block", str(max_block), "--format", fmt),
        )
        bits = oracle.kernel_stream(8, PI, seed, n)
    elif name == "ladder-combine":
        max_block, fmt = 0, "packed"
        text = render_ladder(seed, n)
        config = workdir / "ladder.cfg"
        config.write_text(text, encoding="utf-8")
        stages = (("combine", "--config", str(config), "--length", str(n),
                   "--format", fmt),)
        components, cuts = parse_ladder(text)
        bits = oracle.ladder_stream(components, cuts, n)
    elif name == "expand-analyze":
        max_block, fmt = 16, "ascii01"
        seed_hex = expand_seed_hex(seed)
        stages = (
            ("expand", "--seed-hex", seed_hex, "--order", "16", "--length", str(n)),
            ("analyze", "--max-block", str(max_block)),
        )
        seed_bits = np.unpackbits(np.frombuffer(bytes.fromhex(seed_hex), np.uint8),
                                  bitorder="little")
        bits = oracle.expand_stream(seed_bits, 16, n)
    else:
        raise KeyError(f"unknown workload {name!r}")
    digest = sha256(oracle.encode(bits, fmt))
    pinned = pinned_stream_digest(name, seed, n)
    if pinned is not None and pinned != digest:
        raise RuntimeError(
            f"{name} seed {seed}: the reference stream {digest} differs from "
            f"the pinned digest {pinned}")
    report = tuple(oracle.block_report(bits, m, ALPHA) for m in range(1, max_block + 1))
    return Plan(name, seed, n, stages, digest, report)


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_stream_digest(name: str, seed: int, length: int) -> str | None:
    if length != LENGTHS[name] or not DIGESTS_PATH.exists():
        return None
    return load_digests()["streams"].get(str(seed), {}).get(name)


def check(plan: Plan, stream_sha256: str, report: bytes) -> list[str]:
    """Every way the emitted stream and report differ from the plan."""
    errors = []
    if stream_sha256 != plan.stream_sha256:
        errors.append(f"stream sha256 {stream_sha256} != expected {plan.stream_sha256}")
    if plan.report:
        errors += check_report(report, plan.report)
    return errors


def check_report(text: bytes, expected: tuple[dict, ...]) -> list[str]:
    """Compare an `analyze` text report with the reference field by field.

    Counts and chi-square summaries must print identically.  p-values must
    agree to P_VALUE_RTOL, so that a faithful reimplementation of the
    incomplete gamma function does not read as a failure; each verdict must
    follow from its own p-value and equal the reference verdict unless the
    reference p-value lies within that tolerance of the threshold.
    """
    lines = text.decode("ascii", "replace").splitlines()
    if len(lines) != len(expected):
        return [f"report has {len(lines)} lines, expected {len(expected)}"]
    errors = []
    for line, ref in zip(lines, expected):
        m = ref["block_len"]
        try:
            *pairs, verdict = line.split()
            fields = dict(p.split("=", 1) for p in pairs)
            ints = {k: int(fields[k]) for k in ("block_len", "windows", "df")}
            p_value = float(fields["p_value"])
        except (KeyError, ValueError):
            errors.append(f"m={m}: malformed report line {line!r}")
            continue
        for key, value in ints.items():
            if value != ref[key]:
                errors.append(f"m={m}: {key}={value}, expected {ref[key]}")
        for key in ("max_abs_dev", "chi_square"):
            if fields.get(key) != ref[key]:
                errors.append(f"m={m}: {key}={fields.get(key)}, expected {ref[key]}")
        ref_p = ref["p_value"]
        if not (abs(p_value - ref_p) <= P_VALUE_RTOL * max(p_value, ref_p)
                or max(p_value, ref_p) < 1e-300):
            errors.append(f"m={m}: p_value={p_value!r}, expected {ref_p!r}")
        own = "ok" if p_value >= ALPHA else "REJECT"
        borderline = abs(ref_p - ALPHA) <= P_VALUE_RTOL * ALPHA
        if verdict != own or (verdict != ref["verdict"] and not borderline):
            errors.append(f"m={m}: verdict {verdict}, expected {ref['verdict']}")
    return errors
