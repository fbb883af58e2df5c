"""Command-line front end: run, cosim, bench, audit-ct, disasm."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional

from . import audit, bench, cosim, golden, isa, system
from .image import DEFAULT_BASE, EmptyImage, MalformedHex, load_image
from .microarch import VALID_WIDTHS, CoreConfig, parse_extensions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LOAD = 3
EXIT_TRAP = 4


class CliError(Exception):
    """Every failure: main() prints it as one `error:` line, returns `code`."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # subparsers are of this class too; -h still raises argparse's
    # SystemExit, which main turns into its return code
    def error(self, message: str):
        raise CliError(message)


@contextlib.contextmanager
def _open_output(path: Optional[str]):
    """Open an output file for writing before any work is done, so that a
    path that cannot be written fails at once. A failure to open, write or
    close it ends as a usage error naming it, so any other file the body
    writes goes through its own, inner `_open_output`. No path gives None."""
    if path is None:
        yield None
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from None


def _load_image(args, entry: Optional[int] = None):
    try:
        return load_image(args.image, fmt=args.format, base=args.base, entry=entry)
    except (OSError, MalformedHex, EmptyImage, ValueError) as e:
        raise CliError(f"cannot load image: {e}", EXIT_LOAD) from None


def _int_from(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return n
    parse.__name__ = "int"  # a non-number reads "invalid int value"
    return parse


def _output_path(value: str) -> str:
    """An argparse type: a file to write, never `-`, which is no name for
    stdout here: stdout carries the command's summary."""
    if value == "-":
        raise argparse.ArgumentTypeError(
            "'-' is not a file; stdout carries the summary")
    return value


def _width_list(value: str) -> tuple:
    with contextlib.suppress(ValueError):
        widths = tuple(dict.fromkeys(int(v) for v in value.split(",")))
        if set(widths) <= set(VALID_WIDTHS):
            return widths  # a repeated width would run its cells again
    raise argparse.ArgumentTypeError(
        f"not a comma list over {', '.join(map(str, VALID_WIDTHS))}: {value!r}")


def _ext_set(value: str):
    try:
        return parse_extensions(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _hex_int(value: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an address such as 0x1000 or 4096: {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="serialrv",
                description="width-serialized RV32 crypto-core simulator")
    sub = p.add_subparsers(dest="cmd", required=True)

    image = _Parser(add_help=False)  # run and disasm
    image.add_argument("image")
    image.add_argument("--base", type=_hex_int, default=DEFAULT_BASE)
    image.add_argument("--format", choices=("flat-bin", "hex-words"), default="flat-bin")
    matrix = _Parser(add_help=False)  # cosim and bench
    matrix.add_argument("--widths", type=_width_list, default=VALID_WIDTHS)
    matrix.add_argument("--json", metavar="PATH", type=_output_path)

    r = sub.add_parser("run", parents=[image],
                       help="execute an image on the cycle-accurate core")
    r.add_argument("--width", type=int, choices=VALID_WIDTHS, default=32)
    r.add_argument("--ext", type=_ext_set, default=frozenset())
    r.add_argument("--max-cycles", type=_int_from(1), default=system.DEFAULT_MAX_CYCLES)
    r.add_argument("--trace", metavar="PATH", type=_output_path)
    r.add_argument("--stats-json", metavar="PATH", type=_output_path)
    r.add_argument("--entry", type=_hex_int, default=None)

    c = sub.add_parser("cosim", parents=[matrix],
                       help="torture-test the core against the golden model")
    c.add_argument("--seed", type=_int_from(0), default=0)
    c.add_argument("--programs", type=_int_from(1), default=10)
    c.add_argument("--ext", type=_ext_set, default=isa.ZKN_ZKT)
    c.add_argument("--length", type=_int_from(1),
                   default=cosim.TortureConfig._field_defaults["length"])

    b = sub.add_parser("bench", parents=[matrix],
                       help="run the cryptographic benchmark suite")
    b.add_argument("--suite", default="all",
                   help="comma list of kernels, or 'all'")
    b.add_argument("--ext-presets", default=",".join(bench.VARIANTS),
                   help=f"comma list over {', '.join(bench.VARIANTS)}")

    a = sub.add_parser("audit-ct", help="constant-time latency audit")
    a.add_argument("--width", type=int, choices=VALID_WIDTHS, default=32)
    a.add_argument("--ext", type=_ext_set, default=isa.ZKN_ZKT)
    a.add_argument("--trials", type=_int_from(audit.MIN_TRIALS),
                   default=audit.DEFAULT_TRIALS)

    sub.add_parser("disasm", parents=[image], help="disassemble an image")
    # names the commands, not the dest, when none is given
    sub.metavar = "{" + ",".join(sub.choices) + "}"
    return p


def _cmd_run(args) -> int:
    image = _load_image(args, entry=args.entry)
    config = CoreConfig(serial_width=args.width, extensions=args.ext)
    with _open_output(args.stats_json) as stats_fh:
        with _open_output(args.trace) as trace_fh:
            stats = system.run(image, config, max_cycles=args.max_cycles,
                               trace=trace_fh)
        if stats_fh:
            stats_fh.write(system.stats_to_json(stats) + "\n")
    print(f"halt: {stats.halt}   cycles: {stats.cycles}   "
          f"instret: {stats.instret}   cpi: {stats.cpi:.2f}")
    if stats.console:
        sys.stdout.write(stats.console.decode("latin-1"))
        if not stats.console.endswith(b"\n"):
            sys.stdout.write("\n")
    if stats.halt == golden.EBREAK:
        return EXIT_OK
    if stats.halt == golden.ECALL:
        return stats.exit_code & 0xFF
    return EXIT_TRAP


def _cmd_cosim(args) -> int:
    with _open_output(args.json) as json_fh:
        try:
            reports = cosim.run_matrix(range(args.seed, args.seed + args.programs),
                                       args.widths, extensions=args.ext,
                                       length=args.length)
        except cosim.ProgramTooLong as e:
            raise CliError(f"{e}; use a shorter --length") from None
        if json_fh:
            for r in reports:
                json_fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")
    passed = sum(r.passed for r in reports)
    print(f"cosim: {passed}/{len(reports)} cells passed "
          f"({args.programs} programs x widths {','.join(map(str, args.widths))})")
    for r in reports:
        if r.passed:
            continue
        if r.divergence_pc is None:
            where = "final signature only"
        else:
            where = f"field={r.divergence_field} pc={hex(r.divergence_pc)}"
        print(f"  FAIL seed={r.seed} width={r.width} {where}")
    return EXIT_OK if passed == len(reports) else EXIT_FAIL


def _cmd_bench(args) -> int:
    names = None if args.suite == "all" else args.suite.split(",")
    variants = [v.strip() for v in args.ext_presets.split(",") if v.strip()]
    if not variants:
        raise CliError("--ext-presets names no preset")
    try:
        bench.resolve_suite(names, variants)  # before --json opens or a cell runs
    except KeyError as e:
        raise CliError(e.args[0]) from None
    with _open_output(args.json) as json_fh:
        try:
            results, metrics = bench.run_suite(kernel_names=names,
                                               widths=args.widths,
                                               variants=variants)
        except bench.ChecksumMismatch as e:
            raise CliError(str(e), EXIT_FAIL) from None
        if json_fh:
            json.dump([r.to_json_dict() for r in results], json_fh, indent=2,
                      sort_keys=True)
            json_fh.write("\n")
    hdr = f"{'kernel':18} {'variant':7} {'width':5} {'cycles':>10} {'instret':>8} {'size':>6}  checksum"
    print(hdr)
    print("-" * len(hdr))
    for r in results:
        print(f"{r.kernel:18} {r.variant:7} {r.width:5d} {r.cycles:>10d} "
              f"{r.instret:>8d} {r.code_size:>6d}  {r.checksum}")
    if metrics["speedup_zkn"]:
        print("\nzkn speedup over rv32i (same width):")
        for k, sp in sorted(metrics["speedup_zkn"].items()):
            cells = "  ".join(f"w{w}:{v:.2f}x" for w, v in sorted(sp.items()))
            print(f"  {k:18} {cells}")
    if metrics["code_size_reduction_pct"]:
        print("\ncode size reduction (zkn vs rv32i image):")
        for k, pct in sorted(metrics["code_size_reduction_pct"].items()):
            print(f"  {k:18} {pct:.2f}%")
    return EXIT_OK


def _cmd_audit(args) -> int:
    config = CoreConfig(serial_width=args.width, extensions=args.ext)
    report = audit.audit_constant_time(config, trials=args.trials)
    print(f"constant-time audit: width={report.width} zkt={report.zkt} "
          f"trials={report.trials}")
    print(f"{'mnemonic':14} {'class':14} {'min':>4} {'max':>4} {'spread':>6}")
    for row in report.rows:
        print(f"{row.mnemonic:14} {row.latency_class:14} {row.min_cycles:>4} "
              f"{row.max_cycles:>4} {row.spread:>6}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_disasm(args) -> int:
    image = _load_image(args)
    whole = len(image.data) & ~3
    for off in range(0, whole, 4):
        word = int.from_bytes(image.data[off:off + 4], "little")
        try:
            text = isa.disassemble(isa.decode(word))
        except isa.IllegalInstruction:
            text = f".word 0x{word:08x}"
        print(f"{image.base + off:08x}: {text}")
    if whole < len(image.data):  # the 1-3 bytes after the last whole word
        tail = ", ".join(f"0x{b:02x}" for b in image.data[whole:])
        print(f"{image.base + whole:08x}: .byte {tail}")
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {"run": _cmd_run, "cosim": _cmd_cosim, "bench": _cmd_bench,
                "audit-ct": _cmd_audit, "disasm": _cmd_disasm}[args.cmd](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SystemExit as e:  # -h, after printing the help
        return e.code
