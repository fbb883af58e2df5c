import io
import json

import pytest

from serialrv import bench, golden, isa, system
from serialrv.image import EmptyImage, MalformedHex, load_image
from serialrv.isa import Assembler, Mnemonic as M, instr
from serialrv.microarch import CLASS_OF, CoreConfig, MicroCore


def simple_image(*instrs, base=0x1000):
    a = Assembler(base=base)
    for i in instrs:
        a.put(i)
    return a.build()


# --- load_image ---------------------------------------------------------------

def test_flat_bin_bytes():
    img = load_image(b"\x13\x00\x00\x00", base=0x1000)
    assert img.base == 0x1000 and img.entry == 0x1000
    assert len(img.data) == 4 and img.code_size == 4


def test_flat_bin_file(tmp_path):
    p = tmp_path / "prog.bin"
    p.write_bytes(b"\x73\x00\x10\x00")
    img = load_image(str(p))
    assert int.from_bytes(img.data, "little") == 0x00100073


def test_hex_words():
    img = load_image(b"# boot\n00000013\n00100073\n", fmt="hex-words")
    assert len(img.data) == 8
    assert int.from_bytes(img.data[0:4], "little") == 0x00000013


def test_hex_words_malformed():
    with pytest.raises(MalformedHex) as exc:
        load_image(b"00000013\nxyz\n", fmt="hex-words")
    assert exc.value.line_no == 2


def test_empty_image_error():
    with pytest.raises(EmptyImage):
        load_image(b"", fmt="flat-bin")
    with pytest.raises(EmptyImage):
        load_image(b"# only comments\n", fmt="hex-words")


def test_unaligned_base_rejected():
    with pytest.raises(ValueError):
        load_image(b"\x13\x00\x00\x00", base=0x1002)


@pytest.mark.parametrize("base,size", [(-4, 4), (1 << 32, 4), ((1 << 32) - 4, 8)])
def test_image_outside_address_space_rejected(base, size):
    with pytest.raises(ValueError, match="32-bit address space"):
        load_image(bytes(size), base=base)


@pytest.mark.parametrize("entry,shown", [(-4, "-0x4"), (0x1008, "0x1008")])
def test_entry_outside_image_is_shown_as_given(entry, shown):
    with pytest.raises(ValueError, match=f"^entry {shown} outside image$"):
        load_image(bytes(8), base=0x1000, entry=entry)


def test_image_ending_at_top_of_address_space_accepted():
    img = load_image(bytes(8), base=(1 << 32) - 8)
    assert img.base + len(img.data) == 1 << 32


def test_image_over_mmio_words_is_code_not_stores():
    """Loading is not a store: an image placed over the console and exit
    words reaches memory, and runs."""
    img = simple_image(instr(M.ADDI, rd=1, rs1=0, imm=5), instr(M.EBREAK),
                       base=golden.CONSOLE_ADDR)
    state = golden.ArchState.from_image(img)
    assert state.mem.load(golden.EXIT_ADDR, 4) == instr(M.EBREAK).raw
    stats = system.run(img, CoreConfig(serial_width=4), state=state)
    assert stats.halt == golden.EBREAK and stats.instret == 2
    assert state.regs[1] == 5
    assert stats.console == b"" and stats.exit_code is None


# --- run loop -------------------------------------------------------------------

def test_single_ebreak():
    stats = system.run(simple_image(instr(M.EBREAK)), CoreConfig(serial_width=8))
    assert stats.instret == 1 and stats.halt == golden.EBREAK


def test_infinite_loop_max_cycles():
    a = Assembler(base=0x1000)
    a.label("spin")
    a.j("spin")
    stats = system.run(a.build(), CoreConfig(serial_width=8), max_cycles=100)
    assert stats.halt == golden.MAX_STEPS
    assert stats.cycles <= 100


def test_histogram_sum_invariant():
    a = Assembler(base=0x1000)
    a.li(1, 0x123456)
    a.emit(M.SLLI, rd=2, rs1=1, imm=7)
    a.emit(M.SW, rs1=0, rs2=2, imm=0x400)
    a.emit(M.BEQ, rs1=0, rs2=0, target="next")
    a.label("next")
    a.emit(M.EBREAK)
    for w in (1, 4, 32):
        stats = system.run(a.build(), CoreConfig(serial_width=w))
        total = sum(c for _, c in stats.classes.values())
        assert total == stats.cycles - stats.startup_cycles


def test_console_mmio_and_width_invariance():
    a = Assembler(base=0x1000)
    a.li(1, golden.CONSOLE_ADDR)
    for ch in b"hi":
        a.li(2, ch)
        a.emit(M.SW, rs1=1, rs2=2, imm=0)
    a.emit(M.EBREAK)
    img = a.build()
    outputs = {system.run(img, CoreConfig(serial_width=w)).console
               for w in (1, 2, 4, 8, 16, 32)}
    assert outputs == {b"hi"}


def test_exit_mmio_halts_with_code():
    a = Assembler(base=0x1000)
    a.li(1, golden.EXIT_ADDR)
    a.li(2, 7)
    a.emit(M.SW, rs1=1, rs2=2, imm=0)
    a.emit(M.ADDI, rd=3, rs1=0, imm=1)  # must not execute
    a.emit(M.EBREAK)
    stats = system.run(a.build(), CoreConfig(serial_width=8))
    assert stats.halt == golden.ECALL and stats.exit_code == 7


@pytest.mark.parametrize("m,want", [
    (M.SB, 0x03), (M.SH, 0x5603), (M.SW, 0x12345603)])
def test_exit_mmio_code_is_the_stored_bytes(m, want):
    a = Assembler(base=0x1000)
    a.li(1, golden.EXIT_ADDR)
    a.li(2, 0x12345603)
    a.emit(m, rs1=1, rs2=2, imm=0)
    a.emit(M.EBREAK)
    for w in (1, 32):
        stats = system.run(a.build(), CoreConfig(serial_width=w))
        assert stats.halt == golden.ECALL and stats.exit_code == want


@pytest.mark.parametrize("width", (1, 2, 4, 8, 16, 32))
def test_transfer_to_a_misaligned_target_is_counted(width):
    """A taken jalr to a target 2 mod 4 writes rd, moves pc and is charged
    its cycles before the fetch trap, so it counts as retired."""
    a = Assembler(base=0x1000)
    a.li(1, 0x1006)
    a.emit(M.JALR, rd=5, rs1=1, imm=0)
    a.emit(M.EBREAK)
    img = a.build()
    state = golden.ArchState.from_image(img)
    trace = io.StringIO()
    stats = system.run(img, CoreConfig(serial_width=width), trace=trace,
                       state=state)
    assert stats.halt == golden.MISALIGNED_FETCH
    assert state.regs[5] == 0x100C and state.pc == 0x1006
    assert stats.instret == 3 and stats.classes["jump"][0] == 1
    total = sum(c for _, c in stats.classes.values())
    assert total + stats.startup_cycles == stats.cycles
    lines = trace.getvalue().splitlines()
    assert len(lines) == stats.instret
    assert lines[-1].split(",")[3] == "jalr"


def test_plain_ecall():
    stats = system.run(simple_image(instr(M.ECALL)), CoreConfig())
    assert stats.halt == golden.ECALL and stats.exit_code == 0


def test_trap_reason_reported():
    stats = system.run(simple_image(instr(M.LW, rd=1, rs1=0, imm=0x201)),
                       CoreConfig())
    assert stats.halt == golden.MISALIGNED_ACCESS


def test_instret_matches_golden():
    a = Assembler(base=0x1000)
    a.li(1, 10)
    a.label("loop")
    a.emit(M.ADDI, rd=1, rs1=1, imm=-1)
    a.emit(M.BNE, rs1=1, rs2=0, target="loop")
    a.emit(M.EBREAK)
    img = a.build()
    gold = golden.ArchState.from_image(img)
    instret = 1  # the halting ebreak retires
    while not (outcome := golden.step(gold)).halted:
        instret += 1
    for w in (1, 8, 32):
        stats = system.run(img, CoreConfig(serial_width=w))
        assert stats.instret == instret and stats.halt == outcome.reason


def test_stats_json_keys():
    stats = system.run(simple_image(instr(M.EBREAK)), CoreConfig(serial_width=4))
    d = json.loads(system.stats_to_json(stats))
    assert sorted(d) == ["classes", "code_size", "cpi", "cycles", "extensions",
                         "halt", "instret", "width"]
    assert d["width"] == 4
    assert d["classes"]["fence_nop"] == {"count": 1, "cycles": 1}


def test_trace_format():
    a = Assembler(base=0x1000)
    a.emit(M.ADDI, rd=1, rs1=0, imm=1)
    a.emit(M.EBREAK)
    buf = io.StringIO()
    system.run(a.build(), CoreConfig(serial_width=4), trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    cycle, pc, raw, mnem, charged = lines[0].split(",")
    assert pc == "0x00001000" and mnem == "addi" and charged == "8"
    assert lines[1].split(",")[3] == "ebreak"


def test_run_determinism():
    a = Assembler(base=0x1000)
    a.li(1, 99)
    a.emit(M.ADD, rd=2, rs1=1, rs2=1)
    a.emit(M.EBREAK)
    img = a.build()
    r1 = system.run(img, CoreConfig(serial_width=2))
    r2 = system.run(img, CoreConfig(serial_width=2))
    assert r1.cycles == r2.cycles and r1.classes == r2.classes


def test_ten_adds_cost_model():
    a = Assembler(base=0x1000)
    for _ in range(10):
        a.emit(M.ADD, rd=1, rs1=1, rs2=2)
    a.emit(M.EBREAK)
    stats = system.run(a.build(), CoreConfig(serial_width=8))
    assert stats.instret == 11
    assert stats.cycles == stats.startup_cycles + 10 * 4 + 1


def _console_program():
    a = Assembler(base=0x1000)
    a.emit(M.ADDI, rd=1, rs1=0, imm=7)
    a.emit(M.LUI, rd=4, imm=0xF0000)
    a.emit(M.ADDI, rd=5, rs1=0, imm=65)
    a.emit(M.SB, rs1=4, rs2=5, imm=0)  # console store
    a.emit(M.SW, rs1=0, rs2=1, imm=0x400)
    a.emit(M.BEQ, rs1=0, rs2=0, target="next")
    a.label("next")
    a.emit(M.EBREAK)
    return a.build()


@pytest.mark.parametrize("width", (1, 2, 4, 8, 16, 32))
def test_budget_stop_leaves_last_retired_state(width):
    """An instruction that does not fit the cycle budget writes nothing:
    the state after a max-steps halt is the golden state after `instret`
    steps, for every budget up to a full run."""
    img = _console_program()
    config = CoreConfig(serial_width=width, mem_latency=2)
    full = system.run(img, config)
    assert full.halt == golden.EBREAK and full.console == b"A"
    for budget in range(1, full.cycles):
        state = golden.ArchState.from_image(img)
        stats = system.run(img, config, max_cycles=budget, state=state)
        assert stats.halt == golden.MAX_STEPS and stats.cycles <= budget
        ref = golden.ArchState.from_image(img)
        for _ in range(stats.instret):
            golden.step(ref)
        assert (state.pc, state.regs) == (ref.pc, ref.regs), budget
        assert state.mem.buf == ref.mem.buf, budget
        assert state.mem.console == ref.mem.console == stats.console, budget


@pytest.mark.parametrize("latency", (1, 3))
def test_first_step_edge_cases(latency):
    """The fetch-buffer fill on a core's first step, on every way that
    step can end: (cycles, startup_cycles, instret, halt)."""
    config = CoreConfig(serial_width=4, mem_latency=latency)
    L = latency

    def outcome(stats):
        return stats.cycles, stats.startup_cycles, stats.instret, stats.halt

    illegal_word = load_image(bytes(4), base=0x1000)
    assert outcome(system.run(illegal_word, config)) == (L, L, 0, golden.ILLEGAL)
    aes = simple_image(instr(M.AES32ESI, rd=1, rs1=1, rs2=2, bs=0))
    assert outcome(system.run(aes, config)) == (L, L, 0, golden.ILLEGAL)
    ebreak = simple_image(instr(M.EBREAK))
    assert outcome(system.run(ebreak, config, max_cycles=1)) == \
        (0, 0, 0, golden.MAX_STEPS)

    core = MicroCore(config, golden.ArchState(pc=0x1002))
    assert core.step() == (0, golden.StepOutcome(True, golden.MISALIGNED_FETCH), None)
    assert core.cycle == core.startup_cycles == L

    # a first step that retires pays the fill outside its charged cycles,
    # and the step after it pays no fill
    addi = instr(M.ADDI, rd=1, imm=1)
    state = golden.ArchState(pc=0x1000)
    state.mem.store(0x1000, 4, addi.raw)
    core = MicroCore(config, state)
    assert core.step() == (8, golden.RETIRED, addi)
    assert (core.cycle, core.startup_cycles) == (8 + L, L)
    _, out, ins = core.step()
    assert out.reason == golden.ILLEGAL and ins is None
    assert (core.cycle, core.startup_cycles) == (8 + L, L)


# --- fetched words that change under the core -------------------------------------

def _patching_program(ahead, patch):
    """`sw` the word `patch` over the instruction `ahead` words after the
    store, which would otherwise set x1 to 7, then halt."""
    a = Assembler(base=0x1000)
    a.emit(M.LUI, rd=3, target="patch")
    a.emit(M.ADDI, rd=3, rs1=3, target="patch")
    a.li(2, patch)
    a.emit(M.SW, rs1=3, rs2=2)
    for _ in range(ahead - 1):
        a.nop()
    a.label("patch")
    a.emit(M.ADDI, rd=1, imm=7)
    a.emit(M.EBREAK)
    return a.build()


@pytest.mark.parametrize("width", (1, 2, 4, 8, 16, 32))
@pytest.mark.parametrize("ahead", (1, 2))
def test_self_modifying_code_runs_the_stored_word(ahead, width):
    """A store over code is seen by the next fetch of that word: the word
    right after the store is prefetched at the store's commit, after the
    store has written it. Registers, instret and the halt match golden,
    and the stats match a run of an image that held the new word from
    the start."""
    patch = isa.encode(instr(M.ADDI, rd=1, imm=42))
    img = _patching_program(ahead, patch)
    gold = golden.ArchState.from_image(img)
    instret = 1  # the halting ebreak retires
    while not (outcome := golden.step(gold)).halted:
        instret += 1
    config = CoreConfig(serial_width=width)
    state = golden.ArchState.from_image(img)
    stats = system.run(img, config, state=state)
    assert state.regs[1] == gold.regs[1] == 42
    assert state.regs == gold.regs and state.mem.buf == gold.mem.buf
    assert (stats.instret, stats.halt) == (instret, outcome.reason)
    patched = bytearray(img.data)
    patched[-8:-4] = patch.to_bytes(4, "little")
    assert stats == system.run(load_image(bytes(patched), base=0x1000), config)


@pytest.mark.parametrize("width", (1, 32))
@pytest.mark.parametrize("variant", bench.VARIANTS)
def test_decode_cache_cleared_between_steps(monkeypatch, variant, width):
    """Clearing isa's decode cache between steps, as decode_cached does
    past its size limit, changes no result, and every fetch after a clear
    misses: the core reads the live cache, never a copy of it."""
    kernel = bench.KERNELS["aes128-enc"]
    kp = kernel.build(variant)
    exts = kernel.zkn_exts if variant == "zkn" else kernel.rv32i_exts
    config = CoreConfig(serial_width=width, extensions=exts)
    want_state = golden.ArchState.from_image(kp.image)
    want = system.run(kp.image, config, state=want_state)

    misses = []
    decode_cached, step = isa.decode_cached, MicroCore.step

    def counted_decode(word):
        misses.append(word)
        return decode_cached(word)

    def step_after_clear(core, *args, **kwargs):
        isa._DECODE_CACHE.clear()
        return step(core, *args, **kwargs)

    monkeypatch.setattr(isa, "decode_cached", counted_decode)
    monkeypatch.setattr(MicroCore, "step", step_after_clear)
    state = golden.ArchState.from_image(kp.image)
    stats = system.run(kp.image, config, state=state)
    assert stats == want and stats.halt == golden.EBREAK
    assert (state.pc, state.regs) == (want_state.pc, want_state.regs)
    out = state.mem.read_bytes(kp.out_addr, kp.out_len)
    assert out == want_state.mem.read_bytes(kp.out_addr, kp.out_len) \
        == (kp.expected or kernel.expected)
    assert len(misses) == stats.instret


# --- the core's counts against the trace ----------------------------------------

def _recount(trace_text):
    """(instret, classes) recounted from a trace: one line per retired
    step, its mnemonic mapped through CLASS_OF, its cycles column summed."""
    lines = trace_text.splitlines()
    classes = {}
    for line in lines:
        _, _, _, mnemonic, cycles = line.split(",")
        entry = classes.setdefault(CLASS_OF[M(mnemonic)], [0, 0])
        entry[0] += 1
        entry[1] += int(cycles)
    return len(lines), classes


def _run_and_recount(image, config, **kwargs):
    trace = io.StringIO()
    stats = system.run(image, config, trace=trace, **kwargs)
    assert (stats.instret, stats.classes) == _recount(trace.getvalue())
    return stats


@pytest.mark.parametrize("width", (1, 32))
@pytest.mark.parametrize("variant", bench.VARIANTS)
@pytest.mark.parametrize("name", sorted(bench.KERNELS))
def test_counts_match_trace_for_every_kernel(name, variant, width):
    kernel = bench.KERNELS[name]
    exts = kernel.zkn_exts if variant == "zkn" else kernel.rv32i_exts
    stats = _run_and_recount(kernel.build(variant).image,
                             CoreConfig(serial_width=width, extensions=exts))
    assert stats.halt == golden.EBREAK


@pytest.mark.parametrize("width", (1, 32))
def test_counts_match_trace_at_the_cycle_budget(width):
    image = bench.KERNELS["sha256-compress"].build("zkn").image
    config = CoreConfig(serial_width=width, extensions=bench.Kernel.zkn_exts)
    full = system.run(image, config)
    stats = _run_and_recount(image, config, max_cycles=full.cycles // 2)
    assert stats.halt == golden.MAX_STEPS and 0 < stats.instret < full.instret


@pytest.mark.parametrize("width", (1, 32))
def test_counts_match_trace_on_mmio_exit(width):
    a = Assembler(base=0x1000)
    a.li(1, golden.EXIT_ADDR)
    a.li(2, 3)
    a.emit(M.SLLI, rd=2, rs1=2, imm=1)
    a.emit(M.SW, rs1=1, rs2=2, imm=0)
    a.emit(M.ADDI, rd=3, rs1=0, imm=1)  # must not execute
    a.emit(M.EBREAK)
    stats = _run_and_recount(a.build(), CoreConfig(serial_width=width))
    assert stats.halt == golden.ECALL and stats.exit_code == 6
    assert stats.classes["store"][0] == 1 and "fence_nop" not in stats.classes


@pytest.mark.parametrize("last,reason", [
    (instr(M.LW, rd=1, rs1=0, imm=0x201), golden.MISALIGNED_ACCESS),
    (instr(M.AES32ESI, rd=1, rs1=1, rs2=1, bs=0), golden.ILLEGAL)])
def test_counts_match_trace_on_a_trap(last, reason):
    """A halting instruction that is not charged cycles is not counted."""
    stats = _run_and_recount(simple_image(instr(M.ADDI, rd=1, rs1=0, imm=1), last),
                             CoreConfig(serial_width=4))
    assert stats.halt == reason and stats.instret == 1
