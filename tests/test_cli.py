import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from twofaced.bitseq import decode_stream
from twofaced.cli import run
from twofaced.combine import default_config, render_config
from twofaced.expander import ExpanderConfig, expand
from twofaced.generator import generate, init_uniform
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, UniformRealSource, next_bits


def invoke(argv, stdin=b""):
    out, err = io.BytesIO(), io.StringIO()
    code = run(argv, stdin=io.BytesIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


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


def test_gen_matches_library():
    code, out, _ = invoke(["gen", "--order", "3", "--pi", "0.2", "--length", "64",
                           "--seed", "5"])
    src = CounterBitSource(5)
    state = init_uniform(KernelSpec(Variant.PLAIN, 3, 0.2), src)
    want = generate(state, 64, UniformRealSource(src))
    assert decode_stream(out, "ascii01") == want


def test_gen_fixed_init_and_entropy_file(tmp_path):
    entropy = next_bits(CounterBitSource(1), 64 * 53)
    path = tmp_path / "bits.bin"
    path.write_bytes(entropy.to_packed())
    code, out, _ = invoke(["gen", "--order", "2", "--pi", "0.3", "--length", "8",
                           "--init", "01", "--entropy-file", str(path)])
    assert code == 0 and len(out.strip()) == 8


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
    # --config without --length is a usage error
    code, _, _ = invoke(["combine", "--config", str(path)])
    assert code == 2


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
    seed_bits = next_bits(CounterBitSource(21), 128)
    code, out, _ = invoke(["expand", "--seed-hex", seed_bits.to_hex(),
                           "--order", "16", "--length", "512"])
    want = expand(seed_bits, ExpanderConfig(order=16, target_len=512))
    assert code == 0 and decode_stream(out, "ascii01") == want


def test_expand_seed_file(tmp_path):
    seed_bits = next_bits(CounterBitSource(22), 64)
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
    seed_hex = next_bits(CounterBitSource(21), 128).to_hex()
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


def test_huge_length_memory_error_is_runtime_error():
    # numpy refuses the 7 PiB draw buffer at once, so nothing is allocated.
    code, out, err = invoke(["gen", "--order", "8", "--pi", "0.2", "--length",
                             "1000000000000000", "--seed", "1"])
    assert code == 1 and out == b""
    assert err.startswith("twofaced gen: ") and err.count("\n") == 1
    assert "Traceback" not in err


_NO_SCIPY_PROBE = """
import io, sys
import twofaced.cli

def scipy_modules():
    # the test-only oracles must not load either
    return sorted(m for m in sys.modules
                  if m in ("scipy", "twofaced._reference") or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
out = io.BytesIO()
code = twofaced.cli.run(["analyze", "--max-block", "4"],
                        io.BytesIO(b"0110100110010110" * 64), out, io.StringIO())
assert code == 0 and out.getvalue().count(b"\\n") == 4, (code, out.getvalue())
assert not scipy_modules(), scipy_modules()
"""


def test_cli_start_up_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
