import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mutants
from serialrv import bench, cli, cosim, golden, image
from serialrv.isa import Assembler, Mnemonic as M


@pytest.fixture
def ebreak_image(tmp_path):
    a = Assembler(base=0x1000)
    a.li(1, 3)
    a.emit(M.EBREAK)
    p = tmp_path / "prog.bin"
    p.write_bytes(a.build().data)
    return str(p)


def test_run_summary(ebreak_image, capsys):
    rc = cli.main(["run", ebreak_image, "--width", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cycles:" in out and "instret:" in out and "cpi:" in out


def test_run_stats_json(ebreak_image, tmp_path, capsys):
    out_path = tmp_path / "stats.json"
    rc = cli.main(["run", ebreak_image, "--width", "1",
                   "--ext", "zkn,zkt", "--stats-json", str(out_path)])
    assert rc == 0
    d = json.loads(out_path.read_text())
    assert d["width"] == 1
    assert len(d["extensions"]) == 7


def test_run_trace(ebreak_image, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    cli.main(["run", ebreak_image, "--trace", str(trace_path)])
    lines = trace_path.read_text().splitlines()
    assert lines and all(len(l.split(",")) == 5 for l in lines)


def test_run_image_at_mmio_base(tmp_path, capsys):
    a = Assembler(base=golden.CONSOLE_ADDR)
    a.emit(M.ADDI, rd=1, rs1=0, imm=5)
    a.emit(M.EBREAK)
    p = tmp_path / "mmio.bin"
    p.write_bytes(a.build().data)
    rc = cli.main(["run", str(p), "--base", "0xF0000000"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert out.startswith("halt: ebreak ") and "instret: 2 " in out
    assert out.count("\n") == 1  # the summary line, and no console output


@pytest.mark.parametrize("cmd", ["run", "disasm"])
@pytest.mark.parametrize("base", ["0x100001000", "-4"])
def test_image_outside_address_space_load_error(cmd, base, ebreak_image, capsys):
    assert cli.main([cmd, ebreak_image, "--base", base]) == cli.EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot load image:")
    assert "32-bit address space" in captured.err and captured.out == ""


def test_run_bad_width_usage_error(ebreak_image, capsys):
    assert cli.main(["run", ebreak_image, "--width", "3"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: argument --width: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["run", "cosim", "audit-ct"])
def test_unknown_extension_usage_error(cmd, ebreak_image, capsys):
    argv = [cmd, ebreak_image] if cmd == "run" else [cmd]
    assert cli.main(argv + ["--ext", "bogus"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: argument --ext: unknown extension 'bogus'\n")


def test_unknown_flag_is_error(ebreak_image, capsys):
    assert cli.main(["run", ebreak_image, "--frobnicate"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--frobnicate" in err


MISUSES = {
    "unknown-flag": ["run", "{image}", "--frobnicate"],
    "missing-image": ["run"],
    "missing-subcommand": [],
    "width-3": ["run", "{image}", "--width", "3"],
    "max-cycles-abc": ["run", "{image}", "--max-cycles", "abc"],
    "max-cycles-0": ["run", "{image}", "--max-cycles", "0"],
    "widths-empty": ["cosim", "--widths", ""],
    "widths-1,3": ["bench", "--widths", "1,3"],
    "base-zz": ["disasm", "{image}", "--base", "zz"],
    "ext-bogus": ["audit-ct", "--ext", "bogus"],
    "format-nope": ["disasm", "{image}", "--format", "nope"],
    "programs-0": ["cosim", "--programs", "0"],
    "length-negative": ["cosim", "--length", "-5"],
    "seed-negative": ["cosim", "--seed", "-3"],
    "trials-31": ["audit-ct", "--trials", "31"],
}


@pytest.mark.parametrize("argv", MISUSES.values(), ids=MISUSES)
def test_misuse_is_one_error_line(argv, ebreak_image, capsys):
    assert cli.main([a.format(image=ebreak_image) for a in argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_python_m_serialrv_reports_misuse_without_traceback(ebreak_image):
    """Only a separate interpreter shows what reaches the terminal."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "serialrv", "run", ebreak_image, "--width", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [["disasm", "{image}", "--base", "zz"],
                                  ["run", "{image}", "--base", "zz"],
                                  ["run", "{image}", "--entry", "zz"]],
                         ids=["disasm-base", "run-base", "run-entry"])
def test_address_not_a_number_usage_error(argv, ebreak_image, capsys):
    assert cli.main([a.format(image=ebreak_image) for a in argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: argument {argv[2]}: not an address such as 0x1000 or 4096: "
        "'zz'\n")


def test_missing_subcommand_names_the_commands(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the following arguments are required: "
        "{run,cosim,bench,audit-ct,disasm}\n")


@pytest.mark.parametrize("argv", [[], ["run"], ["cosim"], ["bench"],
                                  ["audit-ct"], ["disasm"]],
                         ids=["top", "run", "cosim", "bench", "audit-ct",
                              "disasm"])
def test_help_prints_usage_and_returns_ok(argv, capsys):
    """-h returns its code like every other path, with no SystemExit."""
    assert cli.main(argv + ["-h"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: {' '.join(['serialrv'] + argv)}")
    assert captured.err == ""


def test_run_max_cycles_zero_usage_error(ebreak_image, capsys):
    assert cli.main(["run", ebreak_image, "--max-cycles", "0"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--max-cycles" in err


def test_run_missing_image_load_error(capsys):
    rc = cli.main(["run", "/nonexistent/prog.bin"])
    assert rc == cli.EXIT_LOAD


class _Source:
    """An open file of `size` zero bytes, endless if None, like /dev/zero;
    it records each read's size and fails an unbounded read."""

    def __init__(self, size=None):
        self.left = size
        self.asked = []

    def read(self, n=-1):
        assert n >= 0, "an unbounded read"
        self.asked.append(n)
        if self.left is not None:
            n = min(n, self.left)
            self.left -= n
        return bytes(n)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("cmd", ["run", "disasm"])
def test_endless_flat_bin_load_error(cmd, monkeypatch, capsys):
    """A source that never ends is read one byte past the address space,
    then rejected: here 17 bytes, with 16 left above the base."""
    source = _Source()
    monkeypatch.setattr(image, "open", lambda path, mode: source, raising=False)
    assert cli.main([cmd, "endless.bin", "--base", "0xfffffff0"]) == cli.EXIT_LOAD
    assert capsys.readouterr().err == (
        "error: cannot load image: a flat binary at base 0xfffffff0 fits in "
        "16 bytes of the 32-bit address space; this source is longer\n")
    assert source.asked == [17]


def test_flat_bin_read_in_bounded_chunks(monkeypatch):
    """The bound is read a chunk at a time, and a source that fits exactly
    up to the end of the address space loads whole."""
    room = 3 << 20
    base = (1 << 32) - room
    endless = _Source()
    monkeypatch.setattr(image, "open", lambda path, mode: endless, raising=False)
    with pytest.raises(ValueError, match="this source is longer"):
        image.load_image("endless.bin", base=base)
    assert sum(endless.asked) == room + 1 and max(endless.asked) == 1 << 20

    exact = _Source(room)
    monkeypatch.setattr(image, "open", lambda path, mode: exact, raising=False)
    img = image.load_image("exact.bin", base=base)
    assert len(img.data) == room and img.entry == base
    assert sum(exact.asked) == room + 1


def test_endless_hex_words_load_error(monkeypatch, capsys):
    """A hex-words source that never ends is read one chunk at a time and
    rejected at its first line, which cannot be a word line."""
    source = _Source()
    monkeypatch.setattr(image, "open", lambda path, mode: source, raising=False)
    assert cli.main(["run", "endless.hex", "--format", "hex-words"]) == cli.EXIT_LOAD
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load image: line 1: not an 8-digit hex word")
    assert err.count("\n") == 1 and len(err) < 200
    assert source.asked == [image._CHUNK]


def test_hex_words_past_the_address_space_load_error(tmp_path, capsys):
    """Words past the room above the base are rejected as a flat binary's
    bytes are: here the third word, with 8 bytes left."""
    p = tmp_path / "words.hex"
    p.write_text("00000013\n" * 3)
    argv = ["run", str(p), "--format", "hex-words", "--base", "0xfffffff8"]
    assert cli.main(argv) == cli.EXIT_LOAD
    assert capsys.readouterr().err == (
        "error: cannot load image: a hex-words image at base 0xfffffff8 fits "
        "in 2 words of the 32-bit address space; this source is longer\n")


def test_run_trap_exit_code(tmp_path):
    a = Assembler(base=0x1000)
    a.word(0)  # illegal
    p = tmp_path / "bad.bin"
    p.write_bytes(a.build().data)
    rc = cli.main(["run", str(p)])
    assert rc == cli.EXIT_TRAP


def test_run_exit_mmio_code(tmp_path, capsys):
    a = Assembler(base=0x1000)
    a.li(1, golden.EXIT_ADDR)
    a.li(2, 5)
    a.emit(M.SW, rs1=1, rs2=2, imm=0)
    p = tmp_path / "exit5.bin"
    p.write_bytes(a.build().data)
    assert cli.main(["run", str(p)]) == 5


def test_run_console_output(tmp_path, capsys):
    a = Assembler(base=0x1000)
    a.li(1, golden.CONSOLE_ADDR)
    for ch in b"ok":
        a.li(2, ch)
        a.emit(M.SB, rs1=1, rs2=2, imm=0)
    a.emit(M.EBREAK)
    p = tmp_path / "say.bin"
    p.write_bytes(a.build().data)
    cli.main(["run", str(p)])
    assert "ok" in capsys.readouterr().out


def test_cosim_cli_pass_and_json(tmp_path, capsys):
    out = tmp_path / "rep.jsonl"
    rc = cli.main(["cosim", "--seed", "1", "--programs", "2",
                   "--widths", "8,32", "--json", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["pass"] is True and rec["sig_micro"] == rec["sig_golden"]


def test_cosim_programs_zero_usage_error(capsys):
    assert cli.main(["cosim", "--programs", "0"]) == cli.EXIT_USAGE


def test_cosim_length_too_long_usage_error(capsys):
    assert cli.main(["cosim", "--length", "2000", "--programs", "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--length" in err


def test_cosim_length_overrunning_once_assembled_usage_error(capsys):
    assert cli.main(["cosim", "--length", "900", "--programs", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "runs to 0x22e0" in captured.err and "--length" in captured.err
    assert captured.out == ""


def test_cosim_huge_length_rejected_before_generating(monkeypatch, capsys):
    def no_slot(*args):
        raise AssertionError("generate emitted a slot")
    monkeypatch.setattr(cosim, "_random_non_branch", no_slot)
    assert cli.main(["cosim", "--length", "100000000", "--programs", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--length" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("length", ["0", "-5"])
def test_cosim_length_not_positive_usage_error(length, capsys):
    assert cli.main(["cosim", "--length", length, "--programs", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "--length" in captured.err and captured.out == ""


def test_cosim_deterministic_json(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli.main(["cosim", "--seed", "9", "--programs", "2", "--widths", "4",
              "--json", str(p1)])
    cli.main(["cosim", "--seed", "9", "--programs", "2", "--widths", "4",
              "--json", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_cosim_json_pinned(tmp_path):
    """The first 10 programs of the cosim digest that the full matrix
    pins (tests/test_acceptance.py), at the CLI's defaults."""
    out = tmp_path / "rep.jsonl"
    assert cli.main(["cosim", "--seed", "0", "--programs", "10",
                     "--json", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0c5cf995845aebbaec48f082e2da2f0ec7a569aa231bfac881413e6d6af6abc8")


def test_cosim_signature_only_failure_line(capsys):
    """A core store fault that no later instruction reads back is caught
    only by the final signature, and the failure line says so."""
    with mutants.flipped_x31_dump():
        rc = cli.main(["cosim", "--seed", "0", "--programs", "1", "--widths", "4"])
    assert rc == cli.EXIT_FAIL
    assert "  FAIL seed=0 width=4 final signature only\n" in capsys.readouterr().out


def test_cosim_divergence_failure_line(capsys):
    with mutants.beq_as_bne():
        rc = cli.main(["cosim", "--seed", "1", "--programs", "1", "--widths", "4"])
    assert rc == cli.EXIT_FAIL
    assert "  FAIL seed=1 width=4 field=pc pc=0x13ec\n" in capsys.readouterr().out


def test_bench_cli_rows_and_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--suite", "aes128", "--widths", "1,32",
                   "--json", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4  # 2 variants x 2 widths
    assert {r["kernel"] for r in rows} == {"aes128-enc"}
    text = capsys.readouterr().out
    assert "speedup" in text


def test_bench_kernel_and_its_alias_run_once(tmp_path):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--suite", "aes128,aes128-enc", "--widths", "1",
                     "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [(r["kernel"], r["variant"]) for r in rows] == [
        ("aes128-enc", "rv32i"), ("aes128-enc", "zkn")]


def test_bench_repeated_width_and_preset_run_once(tmp_path):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--suite", "prince-sbox", "--widths", "1,1",
                     "--ext-presets", "zkn,zkn", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [(r["variant"], r["width"]) for r in rows] == [("zkn", 1)]


def test_cosim_repeated_width_runs_once(capsys):
    assert cli.main(["cosim", "--programs", "1", "--length", "20",
                     "--widths", "4,4"]) == 0
    assert "cosim: 1/1 cells passed (1 programs x widths 4)" in capsys.readouterr().out


def test_bench_unknown_kernel(capsys):
    assert cli.main(["bench", "--suite", "nope"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("suite", ["nosuch", "alumix,nosuch"])
def test_bench_unknown_kernel_rejected_before_any_cell(suite, monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(bench, "run_kernel", lambda *a: cells.append(a))
    assert cli.main(["bench", "--suite", suite, "--widths", "4"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: unknown kernel 'nosuch'\n"
    assert captured.out == "" and cells == []


def test_bench_key_error_inside_a_run_is_not_a_kernel_name(monkeypatch, capsys):
    def raise_key_error(kp, config):
        raise KeyError("x5")

    monkeypatch.setattr(bench, "run_kernel", raise_key_error)
    with pytest.raises(KeyError, match="x5"):
        cli.main(["bench", "--suite", "alumix", "--widths", "4"])
    assert "unknown kernel" not in capsys.readouterr().err


def test_bench_checksum_mismatch_fails(monkeypatch, capsys):
    kernel = bench.KERNELS["prince-sbox"]
    monkeypatch.setitem(bench.KERNELS, "prince-sbox", bench.Kernel(
        kernel.name, lambda v: kernel.build(v)._replace(expected=bytes(8))))
    assert cli.main(["bench", "--suite", "prince", "--widths", "4"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: prince-sbox/rv32i@w4: output ")
    assert captured.out == ""


def test_bench_unknown_preset(capsys):
    assert cli.main(["bench", "--ext-presets", "rv32i,zkx"]) == cli.EXIT_USAGE
    assert "zkx" in capsys.readouterr().err


@pytest.mark.parametrize("presets", [",", " , ,", ""])
def test_bench_no_preset_usage_error(presets, capsys):
    assert cli.main(["bench", "--ext-presets", presets]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "--ext-presets" in captured.err and captured.out == ""


def test_audit_cli_too_few_trials_usage_error(capsys):
    assert cli.main(["audit-ct", "--trials", "31"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--trials" in err


def test_audit_cli_pass(capsys):
    rc = cli.main(["audit-ct", "--width", "1", "--ext", "zkn,zkt",
                   "--trials", "64"])
    out = capsys.readouterr().out
    assert rc == 0 and out.strip().endswith("PASS")


def test_audit_cli_fail_without_zkt(capsys):
    rc = cli.main(["audit-ct", "--width", "1", "--ext", "zkn",
                   "--trials", "64"])
    assert rc == cli.EXIT_FAIL
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_disasm_nop(tmp_path, capsys):
    p = tmp_path / "nop.bin"
    p.write_bytes((0x13).to_bytes(4, "little"))
    rc = cli.main(["disasm", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "addi x0, x0, 0" in out


def test_disasm_hex_words(tmp_path, capsys):
    p = tmp_path / "prog.hex"
    p.write_text("# comment\n00100073\nffffffff\n")
    rc = cli.main(["disasm", str(p), "--format", "hex-words"])
    out = capsys.readouterr().out
    assert "ebreak" in out and ".word 0xffffffff" in out


def test_disasm_prints_trailing_bytes(tmp_path, capsys):
    """An image that ends in 1-3 bytes past its last whole word, which `run`
    loads too, lists them as one .byte line at their address."""
    p = tmp_path / "tail.bin"
    a = Assembler(base=0x1000)
    a.emit(M.EBREAK)
    p.write_bytes(a.build().data + b"\xab\xcd")
    assert cli.main(["disasm", str(p)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "00001000: ebreak\n00001004: .byte 0xab, 0xcd\n"


each_output_option = pytest.mark.parametrize("argv", [
    ["run", "{image}", "--trace", "{out}"],
    ["run", "{image}", "--stats-json", "{out}"],
    ["cosim", "--programs", "1", "--json", "{out}"],
    ["bench", "--suite", "aes128", "--json", "{out}"],
], ids=["run-trace", "run-stats-json", "cosim-json", "bench-json"])


@each_output_option
def test_unwritable_output_usage_error(argv, ebreak_image, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    argv = [a.format(image=ebreak_image, out=out) for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert str(out) in captured.err
    assert captured.out == ""  # the output was opened before any work


@each_output_option
def test_dash_output_usage_error(argv, ebreak_image, tmp_path, monkeypatch,
                                 capsys):
    """`-` is not stdout, which carries the summary, and not a file named
    `-` either: it is refused before any work."""
    monkeypatch.chdir(tmp_path)
    argv = [a.format(image=ebreak_image, out="-") for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert f"argument {argv[-2]}: '-'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "-").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@each_output_option
def test_output_write_failure_usage_error(argv, ebreak_image, capsys):
    # /dev/full opens, but every write to it fails with ENOSPC
    argv = [a.format(image=ebreak_image, out="/dev/full") for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write /dev/full: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("failing", ["--trace", "--stats-json"])
def test_write_failure_names_the_failing_output(failing, tmp_path, capsys):
    # a trace longer than the file buffer fails while the program runs,
    # not only when the file is closed
    a = Assembler(base=0x1000)
    a.li(1, 2000)
    a.label("loop")
    a.emit(M.ADDI, rd=1, rs1=1, imm=-1)
    a.emit(M.BNE, rs1=1, rs2=0, target="loop")
    a.emit(M.EBREAK)
    image = tmp_path / "loop.bin"
    image.write_bytes(a.build().data)
    good = "--stats-json" if failing == "--trace" else "--trace"
    argv = ["run", str(image), failing, "/dev/full", good, str(tmp_path / "ok")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")


# commands whose output must not follow the interpreter's hash seed; {out}
# is the file one writes besides stdout
_HASH_SEED_COMMANDS = {
    "bench": ["bench", "--widths", "1,32", "--json", "{out}"],
    "cosim": ["cosim", "--seed", "0", "--programs", "20", "--json", "{out}"],
    "audit-ct": ["audit-ct", "--width", "4", "--trials", "32"],
}


@pytest.mark.parametrize("command", _HASH_SEED_COMMANDS)
def test_output_does_not_follow_the_hash_seed(command, tmp_path):
    """A set of strings or of enum members iterates in an order that
    PYTHONHASHSEED moves; only separate interpreters show whether an
    output follows it."""
    argv = _HASH_SEED_COMMANDS[command]
    src = str(Path(cli.__file__).parents[1])
    outputs = {}
    for seed in ("0", "12345"):
        out = tmp_path / f"{seed}.json"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "serialrv", *(a.format(out=out) for a in argv)],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[seed] = proc.stdout, out.read_bytes() if "{out}" in argv else None
    assert outputs["0"] == outputs["12345"]
