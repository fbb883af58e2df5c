"""Command-line front end: run, cosim, bench, audit-ct, disasm."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional

from . import audit, bench, cosim, golden, isa, system
from .image import EmptyImage, MalformedHex, load_image
from .microarch import VALID_WIDTHS, CoreConfig, parse_extensions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LOAD = 3
EXIT_TRAP = 4


class _UsageError(Exception):
    """Reported by main() as one `error:` line and EXIT_USAGE."""


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
        raise _UsageError(f"cannot write {path}: {e.strerror or e}") from None


def _width(value: str) -> int:
    w = int(value)
    if w not in VALID_WIDTHS:
        raise argparse.ArgumentTypeError(f"width must be one of {VALID_WIDTHS}")
    return w


def _width_list(value: str) -> tuple:
    return tuple(_width(v) for v in value.split(","))


def _ext_set(value: str):
    try:
        return parse_extensions(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _hex_int(value: str) -> int:
    return int(value, 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="serialrv",
                                description="width-serialized RV32 crypto-core simulator")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="execute an image on the cycle-accurate core")
    r.add_argument("image")
    r.add_argument("--width", type=_width, default=32)
    r.add_argument("--ext", type=_ext_set, default=frozenset())
    r.add_argument("--max-cycles", type=int, default=system.DEFAULT_MAX_CYCLES)
    r.add_argument("--trace", metavar="PATH")
    r.add_argument("--stats-json", metavar="PATH")
    r.add_argument("--base", type=_hex_int, default=system.DEFAULT_BASE)
    r.add_argument("--entry", type=_hex_int, default=None)
    r.add_argument("--format", choices=("flat-bin", "hex-words"), default="flat-bin")

    c = sub.add_parser("cosim", help="torture-test the core against the golden model")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--programs", type=int, default=10)
    c.add_argument("--widths", type=_width_list, default=VALID_WIDTHS)
    c.add_argument("--ext", type=_ext_set, default=isa.ZKN_ZKT)
    c.add_argument("--length", type=int, default=200)
    c.add_argument("--json", metavar="PATH")

    b = sub.add_parser("bench", help="run the cryptographic benchmark suite")
    b.add_argument("--suite", default="all",
                   help="comma list of kernels, or 'all'")
    b.add_argument("--widths", type=_width_list, default=VALID_WIDTHS)
    b.add_argument("--ext-presets", default=",".join(bench.VARIANTS),
                   help=f"comma list over {', '.join(bench.VARIANTS)}")
    b.add_argument("--json", metavar="PATH")

    a = sub.add_parser("audit-ct", help="constant-time latency audit")
    a.add_argument("--width", type=_width, default=32)
    a.add_argument("--ext", type=_ext_set, default=isa.ZKN_ZKT)
    a.add_argument("--trials", type=int, default=256)

    d = sub.add_parser("disasm", help="disassemble an image")
    d.add_argument("image")
    d.add_argument("--base", type=_hex_int, default=system.DEFAULT_BASE)
    d.add_argument("--format", choices=("flat-bin", "hex-words"), default="flat-bin")
    return p


def _cmd_run(args) -> int:
    if args.max_cycles < 1:
        raise _UsageError("--max-cycles must be >= 1")
    try:
        image = load_image(args.image, fmt=args.format, base=args.base,
                           entry=args.entry)
    except (OSError, MalformedHex, EmptyImage, ValueError) as e:
        print(f"error: cannot load image: {e}", file=sys.stderr)
        return EXIT_LOAD
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
        return (stats.exit_code or 0) & 0xFF
    return EXIT_TRAP


def _cmd_cosim(args) -> int:
    if args.programs < 1:
        raise _UsageError("--programs must be >= 1")
    if args.length < 1:
        raise _UsageError("--length must be >= 1")
    with _open_output(args.json) as json_fh:
        try:
            reports = cosim.run_matrix(range(args.seed, args.seed + args.programs),
                                       args.widths, extensions=args.ext,
                                       length=args.length)
        except cosim.ProgramTooLong as e:
            raise _UsageError(f"{e}; use a shorter --length") from None
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
    variants = tuple(v.strip() for v in args.ext_presets.split(",") if v.strip())
    if not variants:
        raise _UsageError("--ext-presets names no preset")
    for v in variants:
        if v not in bench.VARIANTS:
            raise _UsageError(f"unknown preset {v!r}")
    with _open_output(args.json) as json_fh:
        try:
            results, metrics = bench.run_suite(kernel_names=names,
                                               widths=args.widths,
                                               variants=variants)
        except KeyError as e:
            raise _UsageError(f"unknown kernel {e}") from None
        except bench.ChecksumMismatch as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_FAIL
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
    if args.trials < 32:
        raise _UsageError("--trials must be >= 32")
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
    try:
        image = load_image(args.image, fmt=args.format, base=args.base)
    except (OSError, MalformedHex, EmptyImage, ValueError) as e:
        print(f"error: cannot load image: {e}", file=sys.stderr)
        return EXIT_LOAD
    for off in range(0, len(image.data) & ~3, 4):
        word = int.from_bytes(image.data[off:off + 4], "little")
        try:
            text = isa.disassemble(isa.decode(word))
        except isa.IllegalInstruction:
            text = f".word 0x{word:08x}"
        print(f"{image.base + off:08x}: {text}")
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "cosim": _cmd_cosim, "bench": _cmd_bench,
               "audit-ct": _cmd_audit, "disasm": _cmd_disasm}[args.cmd]
    try:
        return handler(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
