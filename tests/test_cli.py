import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from twofaced.bitseq import BitSequence, decode_stream
from twofaced.cli import _entropy_source, build_parser, run
from twofaced.combine import default_config, render_config
from twofaced.expander import ExpanderConfig, expand
from twofaced.generator import generate, init_fixed, init_uniform
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, ReplayBitSource, UniformRealSource


def invoke(argv, stdin=b""):
    out, err = io.BytesIO(), io.StringIO()
    code = run(argv, stdin=io.BytesIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _cli_env(unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_transform_reference_vector():
    code, out, err = invoke(["transform", "--order", "2", "--init", "01"], b"10010")
    assert code == 0 and err == ""
    assert out == b"01110\n"


def test_transform_inverse_round_trip():
    code, out, _ = invoke(["transform", "--init", "01"], b"10010")
    code2, back, _ = invoke(["transform", "--init", "01", "--inverse"], out)
    assert code2 == 0 and back == b"10010\n"


def test_transform_init_order_mismatch():
    code, _, _ = invoke(["transform", "--order", "3", "--init", "01"], b"1")
    assert code == 2


def test_gen_deterministic():
    argv = ["gen", "--order", "4", "--pi", "0.5", "--length", "1000", "--seed", "7"]
    a = invoke(argv)
    b = invoke(argv)
    assert a == b and a[0] == 0
    assert len(a[1].strip()) == 1000


def test_gen_requires_entropy_flag():
    code, _, _ = invoke(["gen", "--order", "4", "--pi", "0.5", "--length", "10"])
    assert code == 2


def test_gen_seed_outside_64_bits_is_one_line_runtime_error():
    # no silent wrap to seed 0 or to seed 2^64 - 1
    for seed in ("18446744073709551616", "-1"):
        code, out, err = invoke(["gen", "--order", "3", "--pi", "0.2", "--length", "8",
                                 "--seed", seed])
        assert (code, out) == (1, b"")
        assert err == f"twofaced gen: seed must lie in [0, 2^64), got {seed}\n"


def test_gen_matches_library():
    code, out, _ = invoke(["gen", "--order", "3", "--pi", "0.2", "--length", "64",
                           "--seed", "5"])
    src = CounterBitSource(5)
    state = init_uniform(KernelSpec(Variant.PLAIN, 3, 0.2), src)
    want = generate(state, 64, UniformRealSource(src))
    assert decode_stream(out, "ascii01") == want


def test_gen_seed_flag_parses_as_before():
    # --seed takes a decimal integer; a float is a usage error, not truncated
    argv = ["gen", "--order", "3", "--pi", "0.2", "--length", "64", "--seed"]
    assert invoke(argv + ["1.9"])[0] == 2
    assert invoke(argv + ["+5"]) == invoke(argv + ["5"])


def test_gen_fixed_init_and_entropy_file(tmp_path):
    entropy = BitSequence(CounterBitSource(1).bits(64 * 53))
    path = tmp_path / "bits.bin"
    path.write_bytes(entropy.to_packed())
    argv = ["gen", "--order", "2", "--pi", "0.3", "--length", "8", "--init", "01",
            "--entropy-file", str(path)]
    code, out, err = invoke(argv)
    want = generate(init_fixed(KernelSpec(Variant.PLAIN, 2, 0.3), "01"), 8,
                    UniformRealSource(ReplayBitSource(entropy.to_packed(), len(entropy))))
    assert (code, err) == (0, "")
    assert decode_stream(out, "ascii01") == want
    # eight draws take 424 bits; a file of 52 bytes holds 416
    path.write_bytes(entropy.to_packed()[:52])
    assert invoke(argv) == (
        1, b"", "twofaced gen: requested 424 bits but only 416 remain\n")


def test_gen_init_of_wrong_length_exits_1():
    code, out, err = invoke(["gen", "--order", "2", "--pi", "0.3", "--length", "8",
                             "--init", "111", "--seed", "1"])
    assert (code, out) == (1, b"")
    assert err == "twofaced gen: context length 3 does not match order 2\n"


def test_gen_os_entropy_runs():
    code, out, _ = invoke(["gen", "--order", "2", "--pi", "0.5", "--length", "16",
                           "--os-entropy"])
    assert code == 0 and len(out.strip()) == 16


def test_formats_round_trip_identity():
    argv = ["gen", "--order", "2", "--pi", "0.5", "--length", "128", "--seed", "3"]
    _, ascii_out, _ = invoke(argv + ["--format", "ascii01"])
    _, hex_out, _ = invoke(argv + ["--format", "hex"])
    _, packed_out, _ = invoke(argv + ["--format", "packed"])
    bits = decode_stream(ascii_out, "ascii01")
    assert decode_stream(hex_out, "hex") == bits
    assert decode_stream(packed_out, "packed") == bits


def test_pipe_composition_all_formats():
    for fmt in ("ascii01", "packed", "hex"):
        _, stream, _ = invoke(["gen", "--order", "2", "--pi", "0.5", "--length",
                               "4096", "--seed", "11", "--format", fmt])
        code, stream, _ = invoke(["transform", "--init", "10", "--format", fmt],
                                 stream)
        assert code == 0
        code, report, _ = invoke(["analyze", "--max-block", "4", "--format", fmt],
                                 stream)
        assert code == 0
        assert report.decode().count("\n") == 4


def test_combine_xor_with_file(tmp_path):
    other = tmp_path / "other.bits"
    other.write_text("0101")
    code, out, _ = invoke(["combine", "--xor-with", str(other)], b"0011")
    assert code == 0 and out == b"0110\n"


def test_combine_xor_length_mismatch_is_runtime_error(tmp_path):
    other = tmp_path / "other.bits"
    other.write_text("01")
    code, _, err = invoke(["combine", "--xor-with", str(other)], b"0011")
    assert code == 1 and "mismatch" in err


def test_combine_config(tmp_path):
    cfg = default_config(pi=0.2, seed=5, n=256)
    path = tmp_path / "mask.cfg"
    path.write_text(render_config(cfg))
    code, out, _ = invoke(["combine", "--config", str(path), "--length", "256"])
    assert code == 0 and len(out.strip()) == 256
    # --config without --length is a usage error, and a negative one exits 1
    code, _, _ = invoke(["combine", "--config", str(path)])
    assert code == 2
    code, out, err = invoke(["combine", "--config", str(path), "--length", "-1"])
    assert (code, out, err) == (1, b"", "twofaced combine: length must be nonnegative\n")


def test_combine_config_errors_exit_1(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, message in (
            ("cut 2\ncomponent order=2 pi=0.2 seed=1\ncomponent order=0 pi=7 seed=1\n",
             "twofaced combine: config line 3: order must be a positive integer"),
            ("cut 2\ncomponent order=2 pi=0.2 seed=1 order=3\n",
             "twofaced combine: config line 2: repeated key")):
        path.write_text(text)
        code, out, err = invoke(["combine", "--config", str(path), "--length", "2"])
        assert (code, out) == (1, b"") and err.startswith(message)


def test_whiten_zero_input_equals_gen_mask():
    zeros = b"0" * 200
    code, masked, _ = invoke(["whiten", "--order", "4", "--pi", "0.2",
                              "--seed", "8"], zeros)
    src = CounterBitSource(8)
    mask = generate(init_uniform(KernelSpec(Variant.PLAIN, 4, 0.2), src),
                    200, UniformRealSource(src))
    assert code == 0 and decode_stream(masked, "ascii01") == mask


def test_whiten_with_config(tmp_path):
    path = tmp_path / "mask.cfg"
    path.write_text(render_config(default_config(pi=0.2, seed=3, n=64)))
    code, out, _ = invoke(["whiten", "--config", str(path)], b"1" * 64)
    assert code == 0 and len(out.strip()) == 64


_CONFIG_REFUSED_FLAGS = [["--pi", "0.2"], ["--seed", "4"], ["--os-entropy"],
                         ["--entropy-file", "bits.bin"], ["--variant", "bar"]]


@pytest.mark.parametrize("flag", _CONFIG_REFUSED_FLAGS)
def test_whiten_config_refuses_ignored_flag(tmp_path, flag):
    # the config fixes every component's pi, seed and variant, so these
    # would be ignored
    path = tmp_path / "mask.cfg"
    path.write_text(render_config(default_config(pi=0.2, seed=3, n=64)))
    code, out, err = invoke(["whiten", "--config", str(path)] + flag, b"1" * 64)
    assert (code, out) == (2, b"")
    assert "not allowed with --config" in err


def test_combine_xor_with_refuses_length(tmp_path):
    other = tmp_path / "other.bits"
    other.write_text("0101")
    code, out, err = invoke(["combine", "--xor-with", str(other), "--length", "2"],
                            b"0011")
    assert (code, out) == (2, b"")
    assert "--length is not allowed with --xor-with" in err


def test_analyze_csv_header():
    _, stream, _ = invoke(["gen", "--order", "2", "--pi", "0.5", "--length",
                           "2048", "--seed", "1"])
    code, report, _ = invoke(["analyze", "--max-block", "3", "--csv"], stream)
    lines = report.decode().strip().splitlines()
    assert code == 0
    assert lines[0] == "block_len,windows,max_abs_deviation,chi_square,df,p_value"
    assert len(lines) == 4


def test_end_to_end_signature_pipeline():
    # order-8 stream accepted through m = 8, rejected at m = 9
    _, stream, _ = invoke(["gen", "--order", "8", "--pi", "0.2", "--length",
                           "1000000", "--seed", "9"])
    code, report, _ = invoke(["analyze", "--max-block", "9"], stream)
    assert code == 0
    lines = report.decode().strip().splitlines()
    assert len(lines) == 9
    for line in lines[:8]:
        assert line.endswith(" ok")
    assert lines[8].endswith(" REJECT")


def test_expand_seed_hex_matches_library():
    seed_bits = BitSequence(CounterBitSource(21).bits(128))
    code, out, _ = invoke(["expand", "--seed-hex", seed_bits.to_hex(),
                           "--order", "16", "--length", "512"])
    want = expand(seed_bits, ExpanderConfig(order=16, target_len=512))
    assert code == 0 and decode_stream(out, "ascii01") == want


def test_expand_seed_file(tmp_path):
    seed_bits = BitSequence(CounterBitSource(22).bits(64))
    path = tmp_path / "seed.bin"
    path.write_bytes(seed_bits.to_packed())
    code, out, _ = invoke(["expand", "--seed-file", str(path),
                           "--order", "8", "--length", "256"])
    want = expand(seed_bits, ExpanderConfig(order=8, target_len=256))
    assert code == 0 and decode_stream(out, "ascii01") == want


def test_expand_runtime_error_exit_code():
    code, _, err = invoke(["expand", "--seed-hex", "ff", "--order", "8",
                           "--length", "4"])  # h > 1
    assert code == 1 and err != ""


def test_expand_precision_out_of_range_exit_code():
    seed_hex = BitSequence(CounterBitSource(21).bits(128)).to_hex()
    for precision in ("15", "63"):
        code, out, err = invoke(["expand", "--seed-hex", seed_hex, "--order", "16",
                                 "--length", "512", "--precision", precision])
        assert code == 1 and out == b""
        assert err.count("\n") == 1 and err.startswith("twofaced expand: ")


# sha256 of stdout for each BAR command, computed before the variant rule
# moved into `kernels`; the input stream is `gen` with the same flags.
_BAR_DIGESTS = {
    "gen": "9d3ede15d706c87ae81c25f81ebea67d1f03adfee924b401a048e8bb93c1f5a3",
    "transform": "ea9d43a151d74abaf7088526632fb9eca1b73c29bd38a61a9c1724a624c85ffa",
    "transform --inverse": "ff8a58840232ccb88de37e8d90cd73377bbf798489d9e0d62767ee737c328298",
    "whiten": "1e5e206d9c4d9c755b9963cfd334587fbc065b098f450252b850645adf7febe1",
}


def test_bar_variant_golden_digests():
    _, stream, _ = invoke(["gen", "--order", "6", "--pi", "0.3", "--length", "3000",
                           "--seed", "9", "--variant", "bar"])
    runs = {
        "gen": (["gen", "--order", "6", "--pi", "0.3", "--length", "3000",
                 "--seed", "9", "--variant", "bar"], b""),
        "transform": (["transform", "--init", "101101", "--variant", "bar"], stream),
        "transform --inverse": (["transform", "--init", "101101", "--variant", "bar",
                                 "--inverse"], stream),
        "whiten": (["whiten", "--order", "5", "--pi", "0.77", "--seed", "4",
                    "--variant", "bar"], stream),
    }
    got = {}
    for name, (argv, data) in runs.items():
        code, out, err = invoke(argv, data)
        assert code == 0 and err == "", (name, err)
        got[name] = hashlib.sha256(out).hexdigest()
    assert got == _BAR_DIGESTS


# sha256 of stdout for each masking run over one 4,000-bit `gen` stream,
# computed while `whiten` still dispatched on the mask type in `combine`.
_MASK_DIGESTS = {
    ("whiten --order", "ascii01"):
        "20b319234e658f70d5dc74af58728df12d6a45603f29ea27b573455b3fa61852",
    ("whiten --order", "packed"):
        "2c9bf0218c77af7185ee09c9fec7498a09aadf9d46da3b731b7af6073df54fa4",
    ("whiten --config ladder", "ascii01"):
        "ec79e0fdc21caacced02e290bd98b9f96c585ebbdd6f28c22e4332583eae3498",
    ("whiten --config ladder", "packed"):
        "95be1bb182efb083ac0aa07e193c3c4d109ea3c26995a06a7db2eeb703240102",
    ("whiten --config mixed", "ascii01"):
        "43333624b1a0fc17ae408c3e533fb48295714796e18fb3600013c825c5173089",
    ("whiten --config mixed", "packed"):
        "af9ff33efceda2581b3bdac38750dc4f0c2a1bfe98091ef7ec749fbe609effca",
    ("combine --xor-with", "ascii01"):
        "de05e59a54d5edbb936ebda71e96bbc404c5a645a3e87f7243ed2806994c6c38",
    ("combine --xor-with", "packed"):
        "ce9e731206406d3644c60e81ad4e9bea2c92e8459efd98c1e070764c8ed0347d",
}

_MIXED_CONFIG = """cut 3
cut 40
cut 500
component order=3 pi=0.2 seed=11
component order=40 pi=0.3 seed=12 variant=bar
component order=500 pi=0.77 seed=13
component order=5000 pi=0.1 seed=14 variant=bar
"""


def _gen_4000(fmt, seed="9"):
    code, stream, err = invoke(["gen", "--order", "6", "--pi", "0.3", "--length", "4000",
                                "--seed", seed, "--format", fmt])
    assert code == 0 and err == ""
    return stream


def test_mask_golden_digests(tmp_path):
    ladder = tmp_path / "ladder.cfg"
    ladder.write_text(render_config(default_config(pi=0.2, seed=3, n=4000)))
    mixed = tmp_path / "mixed.cfg"
    mixed.write_text(_MIXED_CONFIG)
    got = {}
    for fmt in ("ascii01", "packed"):
        stream = _gen_4000(fmt)
        other = tmp_path / f"other.{fmt}"
        other.write_bytes(_gen_4000(fmt, seed="10"))
        for name, argv in (
                ("whiten --order", ["whiten", "--order", "5", "--pi", "0.2", "--seed", "4"]),
                ("whiten --config ladder", ["whiten", "--config", str(ladder)]),
                ("whiten --config mixed", ["whiten", "--config", str(mixed)]),
                ("combine --xor-with", ["combine", "--xor-with", str(other)])):
            code, out, err = invoke(argv + ["--format", fmt], stream)
            assert code == 0 and err == "", (name, fmt, err)
            got[name, fmt] = hashlib.sha256(out).hexdigest()
    assert got == _MASK_DIGESTS


def test_mask_runtime_errors_are_one_line(tmp_path):
    short = tmp_path / "short.cfg"
    short.write_text("cut 2\ncomponent order=2 pi=0.2 seed=1\n")
    other = tmp_path / "other.bits"
    other.write_text("01")
    stream = _gen_4000("ascii01")
    for argv, message in (
            (["whiten", "--config", str(short)],
             "twofaced whiten: 2 components required for length 4000, got 1\n"),
            (["combine", "--xor-with", str(other)],
             "twofaced combine: length mismatch: 4000 vs 2\n")):
        code, out, err = invoke(argv, stream)
        assert (code, out, err) == (1, b"", message)


def test_whiten_order_usage_errors_exit_2():
    for argv, message in (
            (["whiten", "--order", "5", "--pi", "0.2"], "an entropy flag is required"),
            (["whiten", "--order", "5", "--seed", "4"], "--pi is required with --order")):
        code, out, err = invoke(argv, b"0110")
        assert (code, out) == (2, b"")
        assert message in err  # argparse prints usage errors


def _sampling_commands(pi, path):
    """(command, argv) for each command that samples a kernel at `pi`; the
    config at `path` holds one component."""
    path.write_text(f"cut 8\ncomponent order=8 pi={pi} seed=1\n")
    return (("gen", ["gen", "--order", "8", "--pi", pi, "--length", "64", "--seed", "3"]),
            ("whiten", ["whiten", "--order", "8", "--pi", pi, "--seed", "3"]),
            ("combine", ["combine", "--config", str(path), "--length", "8"]),
            ("whiten", ["whiten", "--config", str(path)]))


@pytest.mark.parametrize("pi", ["1e-320", "1e-17", repr(1 - 1e-10)])
def test_pi_the_draws_cannot_resolve_exits_1(tmp_path, pi):
    # a draw resolves pi only to 2^-53: gen printed the same stream at
    # 1e-320 as at 1e-17, and at 1e-320, where 1 - pi is 1.0, a stream
    # that followed no kernel
    bound = f"pi must lie in [1e-09, 1 - 1e-09], got {float(pi)!r}\n"
    for cmd, argv in _sampling_commands(pi, tmp_path / "mask.cfg"):
        code, out, err = invoke(argv, b"0" * 8)
        assert (code, out) == (1, b""), argv
        line = "config line 2: " if "--config" in argv else ""
        assert err == f"twofaced {cmd}: {line}{bound}", argv


@pytest.mark.parametrize("pi", ["1e-9", repr(1 - 1e-9)])
def test_pi_at_the_floor_runs(tmp_path, pi):
    for _, argv in _sampling_commands(pi, tmp_path / "mask.cfg"):
        code, out, err = invoke(argv, b"0" * 8)
        assert (code, err) == (0, ""), argv
        assert len(out.strip()) in (8, 64)


class _UnreadStdin:
    def read(self, *args):
        pytest.fail("stdin was read before the usage checks")


def test_whiten_usage_errors_never_read_stdin(tmp_path):
    config = tmp_path / "mask.cfg"
    config.write_text(render_config(default_config(pi=0.2, seed=3, n=64)))
    cases = [(["--order", "5", "--seed", "4"], 2),
             (["--order", "5", "--pi", "0.2"], 2),
             (["--config", str(tmp_path / "missing.cfg")], 1),
             (["--order", "5", "--pi", "0.2", "--entropy-file",
               str(tmp_path / "missing.bin")], 1)]
    cases += [(["--config", str(config)] + flag, 2) for flag in _CONFIG_REFUSED_FLAGS]
    for argv, want in cases:
        out, err = io.BytesIO(), io.StringIO()
        code = run(["whiten"] + argv, stdin=_UnreadStdin(), stdout=out, stderr=err)
        assert (code, out.getvalue()) == (want, b""), argv


def test_analyze_and_combine_fail_before_reading_stdin(tmp_path):
    missing = tmp_path / "missing.bin"
    for argv, message in (
            (["analyze", "--max-block", "30"], "block length 25 exceeds table cap 24"),
            (["analyze", "--max-block", "30", "--min-block", "26"],
             "block length 26 exceeds table cap 24"),
            (["analyze", "--max-block", "0"], "block range must satisfy 1 <= min <= max"),
            (["analyze", "--max-block", "3", "--min-block", "4"],
             "block range must satisfy 1 <= min <= max"),
            (["combine", "--xor-with", str(missing)],
             f"[Errno 2] No such file or directory: {str(missing)!r}"),
            (["transform", "--init", ""], "initial word must contain at least one bit")):
        out, err = io.BytesIO(), io.StringIO()
        code = run(argv, stdin=_UnreadStdin(), stdout=out, stderr=err)
        assert (code, out.getvalue()) == (1, b""), argv
        assert err.getvalue() == f"twofaced {argv[0]}: {message}\n"


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1", "1.5"])
def test_analyze_refuses_alpha_outside_unit_interval(alpha):
    # a verdict against such an alpha means nothing, so it is a usage error
    stderr = io.StringIO()
    code = run(["analyze", "--max-block", "2", "--alpha", alpha], stdin=_UnreadStdin(),
               stdout=io.BytesIO(), stderr=stderr)
    err = stderr.getvalue()
    assert code == 2
    assert err.startswith("usage: twofaced analyze [-h] ")
    assert err.endswith(f"twofaced analyze: error: --alpha must lie in [0, 1], "
                        f"got {float(alpha)}\n")


def test_usage_errors_after_parsing_print_the_subcommand_usage():
    for argv, message in (
            (["whiten", "--order", "5", "--seed", "4"], "--pi is required with --order"),
            (["gen", "--order", "4", "--pi", "0.5", "--length", "10"],
             "an entropy flag is required: --seed, --os-entropy, or --entropy-file"),
            (["combine", "--config", "ladder.cfg"], "--length is required with --config")):
        code, out, err = invoke(argv, b"0110")
        assert (code, out) == (2, b"")
        assert err.startswith(f"usage: twofaced {argv[0]} [-h] ")
        assert err.endswith(f"twofaced {argv[0]}: error: {message}\n")


# sha256 of `analyze` stdout, text and --csv, computed before the block
# statistics were counted from one histogram.
_ANALYZE_DIGESTS = {
    ("gen", "text"): "2a1889c1e1ddf1cd9fe4a7a3bd1ca3d40afebf585a508eb5dc30ff6c087be89b",
    ("gen", "csv"): "71699b986dcca7bae0650e4b110313625ffca89d34479f4a2e136f3e70a1396e",
    ("expand", "text"): "e11c62416b103740437b1cb958c082eedcb9d749f92a23e92308ffd03bb44f0b",
    ("expand", "csv"): "68978bd7fb9682a42f1e81a7647ce9e6714f1b71e5a88c1cf8e9237e7a61b426",
}


def test_analyze_golden_digests():
    _, gen, _ = invoke(["gen", "--order", "8", "--pi", "0.2", "--length", "100000",
                        "--seed", "9"])
    seed_hex = BitSequence(CounterBitSource(21).bits(128)).to_hex()
    _, expanded, _ = invoke(["expand", "--seed-hex", seed_hex, "--order", "16",
                             "--length", "50000"])
    got = {}
    for name, stream, max_block in (("gen", gen, "12"), ("expand", expanded, "16")):
        for form, extra in (("text", []), ("csv", ["--csv"])):
            with warnings.catch_warnings():  # expected counts < 5 from m = 14
                warnings.simplefilter("ignore")
                code, out, err = invoke(["analyze", "--max-block", max_block] + extra,
                                        stream)
            assert code == 0 and err == "", (name, form, err)
            got[name, form] = hashlib.sha256(out).hexdigest()
    assert got == _ANALYZE_DIGESTS


def test_analyze_bad_block_length_is_one_line_runtime_error():
    # The range and the cap are checked before the input, so the cap wins
    # over the input length.
    stream = b"0110" * 5
    for argv, message in (
            (["--max-block", "21"], "block length 21 exceeds sequence length 20"),
            (["--max-block", "25"], "block length 25 exceeds table cap 24"),
            (["--max-block", "25", "--min-block", "25"],
             "block length 25 exceeds table cap 24")):
        with warnings.catch_warnings():  # low expected counts below the bad length
            warnings.simplefilter("ignore")
            code, out, err = invoke(["analyze"] + argv, stream)
        assert code == 1 and out == b""
        assert err == f"twofaced analyze: {message}\n"


def test_analyze_warnings_are_lines_on_run_stderr():
    # one `twofaced analyze: warning:` line per warning, on the stderr given
    # to run, not Python's format with a source line; stdout unchanged
    _, gen, _ = invoke(["gen", "--order", "3", "--pi", "0.2", "--length", "40",
                        "--seed", "1"])
    code, out, err = invoke(["analyze", "--max-block", "4"], gen)
    assert code == 0
    assert out == (
        b"block_len=1 windows=40 max_abs_dev=1.250000e-01 chi_square=2.5 df=1 "
        b"p_value=0.113846 ok\n"
        b"block_len=2 windows=39 max_abs_dev=1.730769e-01 chi_square=6.84615 df=3 "
        b"p_value=0.0769664 ok\n"
        b"block_len=3 windows=38 max_abs_dev=9.868421e-02 chi_square=11.6842 df=7 "
        b"p_value=0.111434 ok\n"
        b"block_len=4 windows=37 max_abs_dev=1.266892e-01 chi_square=43 df=15 "
        b"p_value=0.000157451 ok\n")
    assert err == "".join(
        f"twofaced analyze: warning: block length {m}: expected count per cell is {e} "
        "(< 5); the chi-square approximation is unreliable\n"
        for m, e in ((3, "4.75"), (4, "2.31")))


def test_analyze_prints_one_warning_line_per_low_count_length():
    # under Python's default filters a repeated text prints once, so each
    # length's warning must name it: m = 2 ... 20 expect fewer than 5 per cell
    env = _cli_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "twofaced.cli", "analyze",
                           "--max-block", "20"], input=b"01101001101001101001",
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        f"twofaced analyze: warning: block length {m}: expected count per cell is "
        f"{(21 - m) / (1 << m):.2f} (< 5); the chi-square approximation is unreliable"
        for m in range(2, 21)]


def test_usage_error_goes_to_the_stderr_given():
    err = io.StringIO()
    code = run(["gen", "--order", "4", "--pi", "0.5", "--length", "10"], stderr=err)
    assert code == 2
    assert err.getvalue().startswith("usage: twofaced gen [-h] ")
    assert err.getvalue().endswith("twofaced gen: error: an entropy flag is required: "
                                   "--seed, --os-entropy, or --entropy-file\n")


def test_help_goes_to_the_stdout_given():
    out = io.BytesIO()
    assert run(["--help"], stdout=out) == 0
    assert out.getvalue().startswith(b"usage: twofaced [-h] ")
    assert out.getvalue() == build_parser().format_help().encode()


def test_unknown_flag_exits_2():
    code, _, _ = invoke(["gen", "--order", "2", "--pi", "0.5", "--length", "4",
                         "--seed", "1", "--frobnicate"])
    assert code == 2


def test_unknown_command_exits_2():
    code, _, _ = invoke(["frobnicate"])
    assert code == 2


def test_bad_stream_data_is_runtime_error():
    code, _, err = invoke(["transform", "--init", "01"], b"01x0")
    assert code == 1 and err != ""


def test_huge_length_memory_error_is_runtime_error(tmp_path):
    # numpy refuses each output array at once, so nothing is allocated; a
    # refused bytearray repeat could print a stray `SystemError` line first
    ladder = tmp_path / "ladder.cfg"
    ladder.write_text(render_config(default_config(pi=0.2, seed=3, n=99999999999999)))
    for argv in (["gen", "--order", "8", "--pi", "0.2", "--length", "1000000000000000",
                  "--seed", "1"],
                 ["expand", "--seed-hex", "ffff", "--order", "1", "--length",
                  "99999999999999"],
                 ["combine", "--config", str(ladder), "--length", "99999999999999"]):
        proc = subprocess.run([sys.executable, "-m", "twofaced.cli"] + argv,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=_cli_env(), timeout=120)
        for code, out, err in (invoke(argv), (proc.returncode, proc.stdout.encode(),
                                              proc.stderr)):
            assert code == 1 and out == b"", err
            assert err.startswith(f"twofaced {argv[0]}: ") and err.count("\n") == 1, err
            assert "SystemError" not in err and "Traceback" not in err


# output that fits a stdout buffer, and the prefix of its runtime errors
_SMALL_OUTPUTS = [
    (["gen", "--order", "8", "--pi", "0.2", "--length", "100", "--seed", "9"],
     "twofaced gen:"),
    (["--help"], "twofaced:"),
]


class _GoneReader(io.RawIOBase):
    """A raw stream whose reader has gone: every write fails as a pipe's would."""

    def writable(self):
        return True

    def write(self, b):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, prefix", _SMALL_OUTPUTS)
def test_run_flushes_the_stdout_given_and_a_failed_flush_is_runtime_error(argv, prefix):
    out = io.BufferedWriter(io.BytesIO(), buffer_size=1 << 20)
    assert run(argv, stdout=out) == 0
    assert out.raw.getvalue() == invoke(argv)[1] != b""
    err = io.StringIO()
    assert run(argv, stdout=io.BufferedWriter(_GoneReader()), stderr=err) == 1
    assert err.getvalue() == f"{prefix} [Errno 32] Broken pipe\n"


def _cli_into_gone_reader(argv, stream):
    """Run the CLI with `stream` ("stdout" or "stderr") on a pipe whose read
    end is closed before the child starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run([sys.executable, "-m", "twofaced.cli"] + argv,
                              stdin=subprocess.DEVNULL, env=_cli_env(), timeout=120,
                              **pipes)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv, prefix", _SMALL_OUTPUTS)
def test_closed_stdout_exits_1_with_one_line(argv, prefix):
    # only the final flush meets the gone reader; Python's own teardown
    # flush exited 120 with an `Exception ignored` report
    proc = _cli_into_gone_reader(argv, "stdout")
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "Exception ignored" not in err and "Traceback" not in err
    assert err == f"{prefix} [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_gone_mid_write_exits_1(unbuffered):
    # the 1.25 MB stream overfills the pipe, so the reader leaves during the
    # write; an unbuffered stdout's raw write then returned the part taken,
    # and the rest was dropped with exit 0
    with subprocess.Popen([sys.executable, "-m", "twofaced.cli", "gen", "--order", "8",
                           "--pi", "0.2", "--seed", "9", "--length", "10000000",
                           "--format", "packed"],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_cli_env(unbuffered)) as proc:
        assert proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"twofaced gen: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", [["gen", "--order", "8"], ["analyze", "--max-block", "99"]],
                         ids=["usage-error", "runtime-error"])
def test_closed_stderr_exits_1(argv):
    # the diagnostic cannot be written; this too exited 120
    proc = _cli_into_gone_reader(argv, "stderr")
    assert (proc.returncode, proc.stdout) == (1, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_process_stdout_is_complete_at_exit(unbuffered):
    # the process ends with os._exit, after which nothing flushes
    argv = ["gen", "--order", "8", "--pi", "0.2", "--length", "1000000", "--seed", "9",
            "--format", "packed"]
    proc = subprocess.run([sys.executable, "-m", "twofaced.cli"] + argv,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          env=_cli_env(unbuffered), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    code, out, _ = invoke(argv)
    assert code == 0 and len(out) == 125_000
    assert hashlib.sha256(proc.stdout).hexdigest() == hashlib.sha256(out).hexdigest()


_MAIN_PROBE = """
import atexit, sys
from twofaced.cli import main
atexit.register(print, "teardown", file=sys.stderr)
main()
"""


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["analyze", "--max-block", "99"], 1),
    (["gen", "--order", "8"], 2),
])
def test_main_exits_with_runs_code_and_skips_teardown(argv, code):
    proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE] + argv,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "teardown" not in proc.stderr
    assert bool(proc.stdout) == (code == 0)


_NO_SCIPY_PROBE = """
import io, sys
import twofaced.cli

def scipy_modules():
    # the test-only oracles must not load either
    return sorted(m for m in sys.modules
                  if m in ("scipy", "reference") or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
out = io.BytesIO()
code = twofaced.cli.run(["analyze", "--max-block", "4"],
                        io.BytesIO(b"0110100110010110" * 64), out, io.StringIO())
assert code == 0 and out.getvalue().count(b"\\n") == 4, (code, out.getvalue())
assert not scipy_modules(), scipy_modules()
"""


def test_cli_start_up_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_BLAS_PROBE = """
import os
import twofaced.generator
before = os.environ.get("OPENBLAS_NUM_THREADS")
import twofaced.cli
print(before, os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("given, want", [(None, "None 1"), ("4", "4 4")])
def test_cli_import_asks_for_one_blas_thread_unless_the_caller_set_it(given, want):
    # a library import leaves the environment alone; the CLI's setdefault
    # keeps OpenBLAS's unused worker threads out of each start
    env = _cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, want + "\n"), proc.stderr


def test_gen_entropy_file_golden_digest_and_one_bit_short(tmp_path):
    # order 9 and 1,000 draws take 9 + 53,000 bits; the file holds 7 more,
    # then one fewer.  sha256 of stdout computed before the draws were
    # compared as 64-bit words.
    path = tmp_path / "entropy.bin"
    packed = BitSequence(CounterBitSource(77).bits(53016)).to_packed()
    argv = ["gen", "--order", "9", "--pi", "0.2", "--length", "1000", "--variant", "bar",
            "--entropy-file", str(path), "--format", "hex"]
    path.write_bytes(packed)
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == (
        "f33d5488ab03942703ad8fe28b276f9beba6668cb9f7733756710fd92e724850")
    path.write_bytes(packed[:-1])
    assert invoke(argv) == (
        1, b"", "twofaced gen: requested 53000 bits but only 52999 remain\n")


def test_entropy_file_source_holds_the_file_packed(tmp_path):
    # the CLI replays the file's bytes as they are; unpacking them to one
    # byte per bit and packing them again peaked at 1.126 B/bit
    path = tmp_path / "entropy.bin"
    data = BitSequence(CounterBitSource(5).bits(8 << 20)).to_packed()  # 1 MiB
    path.write_bytes(data)
    parser = build_parser()
    args = parser.parse_args(["gen", "--order", "8", "--pi", "0.2", "--length", "8",
                              "--entropy-file", str(path)])
    tracemalloc.start()
    try:
        src = _entropy_source(args, parser)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * 8 * len(data)
    assert BitSequence(src.bits(8 * len(data))).to_packed() == data


_NO_TABLES_PROBE = """
import io
import twofaced.cli
import twofaced.generator as generator

builds = []
nibble_steps = generator._nibble_steps
generator._nibble_steps = lambda s: builds.append(s) or nibble_steps(s)

def built():
    return len(builds)

def run(argv, stdin=b""):
    assert twofaced.cli.run(argv, io.BytesIO(stdin), io.BytesIO(), io.StringIO()) == 0

assert built() == 0
run(["--help"])
run(["analyze", "--max-block", "4"], b"0110100110010110" * 64)
run(["expand", "--seed-hex", "d5ec8ef8", "--order", "8", "--length", "99"])
assert built() == 0
for order in (8, 9, 16, 601, 1024, 4099):  # the table loop and the block scan
    run(["gen", "--order", str(order), "--pi", "0.2", "--length", "9999", "--seed", "1"])
    assert built() == 1, order
for order in range(1, 8):
    run(["gen", "--order", str(order), "--pi", "0.2", "--length", "99", "--seed", "1"])
    assert built() == 1 + order, order
"""


def test_cli_start_up_builds_no_sampler_tables():
    # the 2^17-entry tables cost start-up time, so only sampling builds them:
    # one for every order from 8 up, and one more for each order below 8.
    # Builds are counted as calls of the nibble steps, since orders above 8
    # add a cache entry that only masks order 8's table
    proc = subprocess.run([sys.executable, "-c", _NO_TABLES_PROBE], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_MODULES_PROBE = """
import io, json, sys
import twofaced.cli
argv, stdin = json.loads(sys.argv[1])
code = twofaced.cli.run(argv, io.BytesIO(stdin.encode()), io.BytesIO(), io.StringIO())
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("twofaced.") or m == "dataclasses")]))
"""

_LAZY = {"twofaced.combine", "twofaced.sources", "twofaced.stats"}


@pytest.mark.parametrize("argv, stdin, used", [
    pytest.param(["--help"], "", set(), id="help"),
    pytest.param(["gen", "--order", "8", "--pi", "0.2", "--length", "9", "--seed", "1"], "",
                 {"twofaced.sources"}, id="gen"),
    pytest.param(["analyze", "--max-block", "4"], "0110100110010110" * 4,
                 {"twofaced.stats"}, id="analyze"),
    pytest.param(["transform", "--init", "101"], "0110", set(), id="transform"),
    pytest.param(["combine", "--config", "LADDER", "--length", "64"], "",
                 {"twofaced.combine", "twofaced.sources"}, id="combine-config"),
    pytest.param(["whiten", "--order", "3", "--pi", "0.2", "--seed", "1"], "0110",
                 {"twofaced.sources"}, id="whiten-order"),
    pytest.param(["expand", "--seed-hex", "d5ec8ef8", "--order", "8", "--length", "99"], "",
                 set(), id="expand"),
])
def test_cli_start_up_loads_only_what_the_command_runs(tmp_path, argv, stdin, used):
    # without a bytecode cache every loaded module is compiled at each start
    ladder = tmp_path / "ladder.cfg"
    ladder.write_text(render_config(default_config(pi=0.2, seed=3, n=64)))
    argv = [str(ladder) if a == "LADDER" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps([argv, stdin])],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert _LAZY & set(loaded) == used, loaded
    assert "dataclasses" not in loaded  # the records are NamedTuples
