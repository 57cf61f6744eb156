"""Command-line front end over the shared stream formats.

Commands compose through pipes: `gen` emits a kernel stream, `transform`
rewrites stdin through the conversion, `combine` XORs two inputs or
builds the growing-order combination from a config file, `whiten` masks
stdin, `analyze` prints block statistics, and `expand` stretches a seed.
Streams are read and written in one of the formats ascii01 (default),
packed, or hex.

Every stochastic command requires an explicit entropy flag (`--seed`,
`--os-entropy`, or `--entropy-file`); there is no silent
nondeterminism.  Exit codes: 0 success, 2 usage error, 1 runtime error;
a stdout whose reader has gone is a runtime error too.  A warning that a
command raises prints as a `twofaced <cmd>: warning:` line.

A CLI process (`main`) flushes its output and then ends with `os._exit`,
skipping the interpreter's teardown, so `atexit` handlers and subprocess
coverage hooks do not run in it.  `run` called in-process returns its
code as before.
"""
from __future__ import annotations

import argparse
import codecs
import contextlib
import os
import sys
import warnings

# Before numpy loads: the package makes no BLAS call, so OpenBLAS's worker
# threads would only slow each start.  A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each start compiles only what its command runs: stats, combine and sources
# are imported inside the commands that use them.  The names below stay
# module globals, looked up here at call time (bench/tracer.py wraps them).
from .bitseq import FORMATS, BitSequence, decode_stream, encode_stream
from .errors import SourceExhaustedError
from .expander import ExpanderConfig, expand
from .generator import generate, init_uniform
from .kernels import KernelSpec, Variant
from .transform import inverse_transform, transform


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="ascii01",
                        help="stream format for input and output (default ascii01)")


def _add_entropy_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="deterministic counter-mode source")
    group.add_argument("--os-entropy", action="store_true",
                       help="use operating-system entropy (not reproducible)")
    group.add_argument("--entropy-file", metavar="PATH", default=None,
                       help="replay bits from a packed-bits file")


def _entropy_source(args, parser: argparse.ArgumentParser):
    from .sources import CounterBitSource, OSBitSource, ReplayBitSource
    if args.seed is not None:
        return CounterBitSource(args.seed)
    if args.os_entropy:
        return OSBitSource()
    if args.entropy_file is not None:
        with open(args.entropy_file, "rb") as fh:
            return ReplayBitSource(fh.read())
    parser.error("an entropy flag is required: --seed, --os-entropy, or --entropy-file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twofaced",
        description="Generate, transform, combine, analyze, and expand bit streams "
                    "with exactly uniform short-block statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)  # later usage errors name the subcommand
        return p

    variants = ["plain", "bar"]
    p = command("gen", _cmd_gen, "emit a kernel-distributed stream")
    p.add_argument("--order", type=int, required=True, help="kernel order, at least 1")
    p.add_argument("--pi", type=float, required=True, help="in [1e-09, 1 - 1e-09]")
    p.add_argument("--variant", choices=variants, default="plain", help="default plain")
    p.add_argument("--length", type=int, required=True, help="bits to emit, at least 0")
    _add_entropy_flags(p)
    _add_format(p)

    p = command("transform", _cmd_transform, "apply the conversion to stdin")
    p.add_argument("--order", type=int, default=None, help="must equal the length of --init")
    p.add_argument("--init", metavar="BITS", required=True,
                   help="initial window, one or more 0s and 1s")
    p.add_argument("--variant", choices=variants, default="plain", help="default plain")
    p.add_argument("--inverse", action="store_true",
                   help="invert the conversion instead")
    _add_format(p)

    p = command("combine", _cmd_combine, "XOR two streams or build a combined stream")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--xor-with", metavar="PATH",
                      help="XOR stdin with the stream stored at PATH")
    mode.add_argument("--config", metavar="PATH",
                      help="growing-order combination config file")
    p.add_argument("--length", type=int, default=None,
                   help="output length, at least 0 (required with --config)")
    _add_format(p)

    p = command("whiten", _cmd_whiten, "XOR stdin with a generated mask")
    mask = p.add_mutually_exclusive_group(required=True)
    mask.add_argument("--order", type=int, default=None,
                      help="kernel mask order, at least 1 (with --pi)")
    mask.add_argument("--config", metavar="PATH",
                      help="growing-order combination config file")
    p.add_argument("--pi", type=float, default=None, help="with --order; in [1e-09, 1 - 1e-09]")
    p.add_argument("--variant", choices=variants, help="with --order; default plain")
    _add_entropy_flags(p)
    _add_format(p)

    p = command("analyze", _cmd_analyze, "block-frequency report for stdin")
    p.add_argument("--max-block", type=int, required=True, help="longest block, 1 to 24")
    p.add_argument("--alpha", type=float, default=1e-4,
                   help="rejection threshold for the text report")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    _add_format(p)

    p = command("expand", _cmd_expand, "stretch a short seed into a long stream")
    seed = p.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed-hex", metavar="HEX", help="seed bits, hex-encoded")
    seed.add_argument("--seed-file", metavar="PATH", help="seed bits, packed file")
    p.add_argument("--order", type=int, required=True, help="at least 1, below the seed length")
    p.add_argument("--length", type=int, required=True, help="at least seed length - order")
    _add_format(p)
    return parser


def _write_all(stdout, data: bytes) -> None:
    """Write all of data.  An unbuffered stdout (`python -u`) is a raw
    stream, whose write may take only part, as when its reader goes."""
    view = memoryview(data)
    while view:
        view = view[stdout.write(view):]


def _write_output(stdout, seq: BitSequence, fmt: str) -> None:
    _write_all(stdout, encode_stream(seq, fmt))
    if fmt != "packed":
        stdout.write(b"\n")


def _kernel_stream(args, parser):
    """Check the kernel flags, open the entropy source and draw the initial
    window uniformly; return the step that samples the next n bits."""
    from .sources import UniformRealSource
    kernel = KernelSpec(Variant(args.variant or "plain"), args.order, args.pi)
    source = _entropy_source(args, parser)
    state = init_uniform(kernel, source)
    return lambda n: generate(state, n, UniformRealSource(source))


def _cmd_gen(args, parser, stdin, stdout) -> None:
    _write_output(stdout, _kernel_stream(args, parser)(args.length), args.format)


def _cmd_transform(args, parser, stdin, stdout) -> None:
    v = "".join(args.init.split())  # whitespace is ignored, as in ascii01
    if not v or v.strip("01"):  # before stdin: transform checks only at EOF
        raise ValueError(f"--init must be one or more 0s and 1s, got {args.init!r}")
    if args.order is not None and args.order != len(v):
        parser.error(f"--init length {len(v)} does not match --order {args.order}")
    seq = decode_stream(stdin.read(), args.format)
    op = inverse_transform if args.inverse else transform
    _write_output(stdout, op(seq, v, Variant(args.variant)), args.format)


def _cmd_combine(args, parser, stdin, stdout) -> None:
    if args.config is not None:
        if args.length is None:
            parser.error("--length is required with --config")
        from . import combine as combine_mod
        config = combine_mod.load_config(args.config)
        out = combine_mod.twice_two_faced_from_config(config, args.length)
    else:
        if args.length is not None:
            parser.error("--length is not allowed with --xor-with")
        with open(args.xor_with, "rb") as fh:  # before stdin, so a bad path fails at once
            other = decode_stream(fh.read(), args.format)
        out = decode_stream(stdin.read(), args.format) ^ other
    _write_output(stdout, out, args.format)


def _cmd_whiten(args, parser, stdin, stdout) -> None:
    # Flags, config and entropy source are all checked before stdin is read.
    if args.config is not None:
        if (args.pi is not None or args.variant is not None or args.seed is not None
                or args.os_entropy or args.entropy_file is not None):
            parser.error("--pi, --variant and the entropy flags are not allowed "
                         "with --config")
        from . import combine as combine_mod
        config = combine_mod.load_config(args.config)
        mask = lambda n: combine_mod.twice_two_faced_from_config(config, n)
    else:
        if args.pi is None:
            parser.error("--pi is required with --order")
        mask = _kernel_stream(args, parser)
    seq = decode_stream(stdin.read(), args.format)
    _write_output(stdout, seq ^ mask(len(seq)), args.format)


def _cmd_analyze(args, parser, stdin, stdout) -> None:
    from . import stats as stats_mod
    if not 1 <= args.max_block <= stats_mod.BLOCK_LEN_CAP:
        raise ValueError(f"--max-block must lie in [1, {stats_mod.BLOCK_LEN_CAP}], "
                         f"got {args.max_block}")
    if not 0.0 <= args.alpha <= 1.0:  # NaN fails too
        parser.error(f"--alpha must lie in [0, 1], got {args.alpha}")
    seq = decode_stream(stdin.read(), args.format)
    results = stats_mod.analyze(seq, args.max_block)
    if args.csv:
        text = stats_mod.report_csv(results)
    else:
        text = stats_mod.report_text(results, args.alpha)
    _write_all(stdout, text.encode("ascii"))


def _cmd_expand(args, parser, stdin, stdout) -> None:
    if args.seed_hex is not None:
        seed = BitSequence.from_hex(args.seed_hex)
    else:
        with open(args.seed_file, "rb") as fh:
            seed = BitSequence.from_packed(fh.read())
    config = ExpanderConfig(args.order, args.length)
    _write_output(stdout, expand(seed, config), args.format)


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Parse and execute one command over binary byte streams; all output,
    argparse's help and usage errors too, goes to the streams given.  The
    stdout given is flushed after the command, `--help` or a usage error, so
    a reader that has gone fails here, as a runtime error."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    stderr = stderr if stderr is not None else sys.stderr
    prefix = "twofaced:"  # until the command is parsed
    with (contextlib.redirect_stdout(codecs.getwriter("utf-8")(stdout)),
          contextlib.redirect_stderr(stderr), warnings.catch_warnings()):
        try:
            try:
                args, extra = build_parser().parse_known_args(argv)
                if extra:  # with the subcommand's usage, not the top level's
                    args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
                prefix = f"twofaced {args.command}:"
                warnings.showwarning = lambda msg, *_: print(prefix, "warning:", msg,
                                                             file=stderr)
                args.handler(args, args.parser, stdin, stdout)
                code = 0
            except SystemExit as exc:  # usage errors and --help, from argparse or parser.error
                code = int(exc.code or 0)
            stdout.flush()
        except (ValueError, SourceExhaustedError, OSError) as exc:
            print(prefix, exc, file=stderr)
            return 1
        except MemoryError as exc:  # e.g. numpy refusing a huge --length
            print(prefix, str(exc) or "out of memory", file=stderr)
            return 1
    return code


def main() -> None:
    """Run one command, flush the standard streams and end the process with
    `os._exit`: the interpreter's teardown would only collect and unload
    what the finished command leaves behind.  A standard stream that
    cannot be written or flushed gives exit 1."""
    try:
        code = run()
    except OSError:  # run's one line could not reach stderr
        code = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    main()
