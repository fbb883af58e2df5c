import gc
import hashlib
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from serialrv import cosim, golden, isa, microarch
from serialrv.golden import ArchState, Memory
from serialrv.image import load_image
from serialrv.isa import Ext, Mnemonic as M, instr
from serialrv.microarch import (CLASS_OF, CoreConfig, MicroCore,
                                parse_extensions, shift_latency)

WIDTHS = (1, 2, 4, 8, 16, 32)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)


def make_core(width=4, exts=isa.ZKN_ZKT, pc=0x1000, **knobs):
    state = ArchState(pc=pc, mem=Memory())
    return MicroCore(CoreConfig(serial_width=width, extensions=exts, **knobs),
                     state)


def exec_one(core, i, regs=None):
    """Step `i` at pc from the fetch buffer, leaving memory untouched;
    returns (charged cycles, outcome)."""
    if regs:
        for r, v in regs.items():
            core.arch.regs[r] = v & 0xFFFFFFFF
    core.fetch_buffer = (core.arch.pc, i.raw)
    cycles, outcome, ran = core.step()
    assert ran == i
    return cycles, outcome


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        CoreConfig(serial_width=3)
    with pytest.raises(ValueError):
        CoreConfig(mem_latency=0)
    with pytest.raises(ValueError):
        CoreConfig(taken_branch_penalty=-1)
    for knob in ("aes_latency", "clmul_latency", "reorder_latency"):
        with pytest.raises(ValueError, match=knob):
            CoreConfig(**{knob: 0})
        CoreConfig(**{knob: 1})
    with pytest.raises(ValueError, match="aes_latency"):
        CoreConfig(aes_latency=-3)
    with pytest.raises(ValueError, match="sha_select_latency"):
        CoreConfig(sha_select_latency=-1)
    CoreConfig(sha_select_latency=0)
    # knobs that cannot describe hardware: a bool or fractional width or
    # latency, a non-bool left path, an extension that is not an Ext
    for knob, bad in (("serial_width", True), ("serial_width", 4.0),
                      ("mem_latency", 2.5), ("mem_latency", True),
                      ("taken_branch_penalty", 1.5), ("clmul_latency", "33"),
                      ("left_shift_support", 1), ("left_shift_support", None),
                      ("extensions", frozenset({"zkne"})),
                      ("extensions", frozenset({Ext.ZKNE, "zkt"}))):
        with pytest.raises(ValueError, match=knob):
            CoreConfig(**{knob: bad})


def test_zkn_zkt_preset():
    cfg = CoreConfig.zkn_zkt(8)
    assert cfg.extensions == isa.ZKN_ZKT and cfg.zkt
    assert len(cfg.extensions) == 7


def test_parse_extensions():
    assert parse_extensions("zkn,zkt") == isa.ZKN_ZKT
    assert parse_extensions("zbkb") == frozenset({Ext.ZBKB})
    assert parse_extensions("rv32i") == frozenset()
    with pytest.raises(ValueError):
        parse_extensions("zvk")


# --- basic cycle counts (pinned model arithmetic) -----------------------------

@pytest.mark.parametrize("width,want", [(1, 32), (2, 16), (4, 8), (8, 4),
                                        (16, 2), (32, 1)])
def test_add_cycles(width, want):
    core = make_core(width)
    cycles, out = exec_one(core, instr(M.ADD, rd=3, rs1=1, rs2=2),
                           {1: 5, 2: 7})
    assert not out.halted and cycles == want
    assert core.arch.regs[3] == 12


def test_lw_cycles():
    # 32/w address add + mem_latency + 1 commit
    for width, want in ((32, 3), (4, 10), (1, 34)):
        core = make_core(width)
        core.arch.mem.store(0x200, 4, 0xABCD)
        cycles, _ = exec_one(core, instr(M.LW, rd=1, rs1=0, imm=0x200))
        assert cycles == want
        assert core.arch.regs[1] == 0xABCD


def test_mem_latency_knob():
    core = make_core(32, mem_latency=4)
    cycles, _ = exec_one(core, instr(M.LW, rd=1, rs1=0, imm=0x200))
    assert cycles == 1 + 4 + 1


def test_sha_cycles():
    for width, want in ((8, 5), (32, 2)):
        core = make_core(width)
        cycles, _ = exec_one(core, instr(M.SHA256SIG0, rd=1, rs1=2),
                             {2: 0x1234})
        assert cycles == want


def test_aes_three_cycles_any_width():
    for width in WIDTHS:
        core = make_core(width)
        cycles, _ = exec_one(core, instr(M.AES32ESI, rd=1, rs1=1, rs2=2, bs=0))
        assert cycles == 3


def test_clmul_33_cycles_any_width_any_operands():
    rng = random.Random(0)
    for width in WIDTHS:
        seen = set()
        for _ in range(50):
            core = make_core(width)
            cycles, _ = exec_one(core, instr(M.CLMUL, rd=1, rs1=1, rs2=2),
                                 {1: rng.getrandbits(32), 2: rng.getrandbits(32)})
            seen.add(cycles)
        assert seen == {33}


def test_reorder_single_cycle_any_width():
    for width in WIDTHS:
        core = make_core(width)
        cycles, _ = exec_one(core, instr(M.REV8, rd=1, rs1=2), {2: 0x11223344})
        assert cycles == 1
        assert core.arch.regs[1] == 0x44332211


def test_fence_one_cycle():
    core = make_core(1)
    cycles, out = exec_one(core, instr(M.FENCE))
    assert cycles == 1 and not out.halted


# --- the README cycle table, row by row ------------------------------------------

KNOB_SETS = {
    "default": dict(extensions=isa.ZKN),
    "knobs": dict(extensions=isa.ZKN, mem_latency=3, taken_branch_penalty=1,
                  aes_latency=5, clmul_latency=40, reorder_latency=2,
                  sha_select_latency=0, left_shift_support=False),
    "zkt": dict(extensions=isa.ZKN_ZKT),
}


def _readme_shift(cfg, m, shamt):
    # chunk steps + single-bit steps + 1 writeback; a left shift without
    # (or slower on) the left path is a right rotate by 32 - shamt, plus a
    # 32/w mask pass for the logical form
    cw = 8 if cfg.serial_width == 32 else cfg.serial_width
    steps = lambda k: k // cw + k % cw
    if m in (M.SLL, M.SLLI):
        emulated = steps(32 - shamt) + 32 // cfg.serial_width + 1
        if cfg.left_shift_support:
            return min(steps(shamt) + 1, emulated)
        return emulated
    if m is M.ROL and not cfg.left_shift_support:
        return steps(32 - shamt) + 1
    return steps(shamt) + 1


def _readme_cycles(cfg, m, shamt):
    n = 32 // cfg.serial_width
    klass = CLASS_OF[m]
    if klass in ("shift", "rotate"):
        if cfg.zkt:
            return max(_readme_shift(cfg, m, s) for s in range(32))
        return _readme_shift(cfg, m, shamt)
    return {"alu_chunked": n, "branch": n, "jump": n, "xperm": n,
            "load": n + cfg.mem_latency + 1, "store": n + cfg.mem_latency + 1,
            "clmul": cfg.clmul_latency, "aes": cfg.aes_latency,
            "sha": cfg.sha_select_latency + n,
            "reorder_1cycle": cfg.reorder_latency, "fence_nop": 1}[klass]


def _cases(m):
    """(instruction, register values, taken) triples that exercise `m`."""
    fmt = isa.ENCODINGS[m].fmt
    if fmt == isa.FMT_I_SHAMT:
        return [(instr(m, rd=3, rs1=1, imm=s), {1: 0x80000001}, False)
                for s in range(32)]
    if CLASS_OF[m] in ("shift", "rotate"):
        return [(instr(m, rd=3, rs1=1, rs2=2), {1: 0x80000001, 2: s}, False)
                for s in range(32)]
    if fmt in (isa.FMT_LOAD, isa.FMT_STORE):
        return [(instr(m, rd=3, rs1=1, rs2=2, imm=4), {1: 0x200, 2: 0xA5}, False)]
    if fmt == isa.FMT_BRANCH:
        ins = instr(m, rs1=1, rs2=2, imm=8)
        return [(ins, {1: 5, 2: 5}, m in (M.BEQ, M.BGE, M.BGEU)),
                (ins, {1: 1, 2: 2}, m in (M.BNE, M.BLT, M.BLTU))]
    if fmt in (isa.FMT_JAL, isa.FMT_JALR):
        return [(instr(m, rd=3, rs1=1, imm=8), {1: 0x1000}, True)]
    if fmt in (isa.FMT_FENCE, isa.FMT_SYSTEM):
        return [(instr(m), {}, False)]
    return [(instr(m, rd=3, rs1=1, rs2=2, imm=5, bs=1),
             {1: 0x12345678, 2: 0x9ABCDEF0}, False)]


@pytest.mark.parametrize("knobs", sorted(KNOB_SETS))
@pytest.mark.parametrize("m", sorted(CLASS_OF, key=lambda x: x.value),
                         ids=lambda m: m.value)
def test_charged_cycles_follow_readme_table(m, knobs):
    for width in WIDTHS:
        cfg = CoreConfig(serial_width=width, **KNOB_SETS[knobs])
        for ins, regs, taken in _cases(m):
            core = MicroCore(cfg, ArchState(pc=0x1000, mem=Memory()))
            cycles, out = exec_one(core, ins, regs)
            shamt = ins.imm if isa.ENCODINGS[m].fmt == isa.FMT_I_SHAMT \
                else regs.get(2, 0)
            execute = _readme_cycles(cfg, m, shamt)
            # frontend: a taken transfer flushes the fetch buffer and pays
            # the penalty; otherwise the next fetch overlaps execution
            if m in (M.EBREAK, M.ECALL):
                want = execute
            elif taken:
                want = execute + cfg.taken_branch_penalty + cfg.mem_latency - 1
            else:
                want = max(execute, cfg.mem_latency)
            assert cycles == want, (m.value, width, knobs, regs)
            assert (core.arch.pc != 0x1004) == taken or out.halted


# --- shift latency model --------------------------------------------------------

def test_shift_zero_amount_is_writeback_only():
    for width in WIDTHS:
        cfg = CoreConfig(serial_width=width)
        assert shift_latency(cfg, M.SRL, 0) == 1


def test_shift_width1_shamt31():
    cfg = CoreConfig(serial_width=1)
    assert shift_latency(cfg, M.SRL, 31) == 32


def test_shift_monotone_in_shamt_width1():
    cfg = CoreConfig(serial_width=1)
    costs = [shift_latency(cfg, M.SRL, s) for s in range(32)]
    assert costs == sorted(costs)


def test_width32_shift_uses_8bit_chunks():
    cfg = CoreConfig(serial_width=32)
    # shamt 9 = one 8-chunk + one bit + writeback
    assert shift_latency(cfg, M.SRL, 9) == 3


def test_supported_left_never_worse_than_emulated():
    for width in WIDTHS:
        sup = CoreConfig(serial_width=width, left_shift_support=True)
        emu = CoreConfig(serial_width=width, left_shift_support=False)
        strict = False
        for s in range(1, 32):
            a = shift_latency(sup, M.SLL, s)
            b = shift_latency(emu, M.SLL, s)
            assert a <= b, (width, s, a, b)
            strict |= a < b
        assert strict  # holds at every width in this model


def test_left_shift_halving_claim():
    # somewhere in the sweep the supported path is at least 2x cheaper
    best = 1.0
    for width in WIDTHS:
        sup = CoreConfig(serial_width=width, left_shift_support=True)
        emu = CoreConfig(serial_width=width, left_shift_support=False)
        for s in range(1, 32):
            a = shift_latency(sup, M.SLL, s)
            b = shift_latency(emu, M.SLL, s)
            best = min(best, a / b)
    assert best <= 0.5


def test_zkt_shift_constant_and_worst_case():
    for width in WIDTHS:
        cfg = CoreConfig(serial_width=width, extensions=frozenset({Ext.ZKT}))
        plain = CoreConfig(serial_width=width)
        fixed = shift_latency(cfg, M.SRL, 0)
        worst = max(shift_latency(plain, M.SRL, s) for s in range(32))
        for s in range(32):
            assert shift_latency(cfg, M.SRL, s) == fixed
            assert fixed >= shift_latency(plain, M.SRL, s)
        assert fixed == worst


def test_shift_execution_results():
    rng = random.Random(3)
    for width in WIDTHS:
        for m, ref in ((M.SLL, lambda x, s: (x << s) & 0xFFFFFFFF),
                       (M.SRL, lambda x, s: x >> s),
                       (M.SRA, lambda x, s: ((x | 0xFFFFFFFF00000000) >> s) & 0xFFFFFFFF
                        if x >> 31 else x >> s)):
            for _ in range(20):
                x, s = rng.getrandbits(32), rng.randrange(32)
                core = make_core(width)
                exec_one(core, instr(m, rd=3, rs1=1, rs2=2), {1: x, 2: s})
                assert core.arch.regs[3] == ref(x, s), (m, width, x, s)


def test_emulated_left_shift_result_correct():
    rng = random.Random(4)
    for width in (1, 4, 32):
        for _ in range(20):
            x, s = rng.getrandbits(32), rng.randrange(32)
            core = make_core(width, exts=frozenset(), left_shift_support=False)
            exec_one(core, instr(M.SLLI, rd=3, rs1=1, imm=s), {1: x})
            assert core.arch.regs[3] == (x << s) & 0xFFFFFFFF


def test_rotate_results_both_support_modes():
    rng = random.Random(5)
    for support in (True, False):
        for _ in range(20):
            x, s = rng.getrandbits(32), rng.randrange(32)
            core = make_core(4, left_shift_support=support)
            exec_one(core, instr(M.ROL, rd=3, rs1=1, rs2=2), {1: x, 2: s})
            want = ((x << s) | (x >> (32 - s))) & 0xFFFFFFFF if s else x
            assert core.arch.regs[3] == want


# --- frontend / branches -----------------------------------------------------------

def test_taken_branch_penalty():
    core = make_core(4)
    cycles, _ = exec_one(core, instr(M.BEQ, rs1=1, rs2=2, imm=16),
                         {1: 3, 2: 3})
    assert cycles == 8 + 2
    assert core.arch.pc == 0x1010
    assert core.fetch_buffer is None


def test_not_taken_branch_no_penalty():
    core = make_core(4)
    cycles, _ = exec_one(core, instr(M.BEQ, rs1=1, rs2=2, imm=16),
                         {1: 3, 2: 4})
    assert cycles == 8
    assert core.arch.pc == 0x1004
    assert core.fetch_buffer is not None and core.fetch_buffer[0] == 0x1004


def test_jal_always_pays_penalty():
    core = make_core(4)
    cycles, _ = exec_one(core, instr(M.JAL, rd=1, imm=8))
    assert cycles == 8 + 2 and core.arch.regs[1] == 0x1004


def test_straight_line_overlap():
    # 10 adds + ebreak at width 8: 1 startup + 10*4 + 1
    from serialrv.isa import Assembler
    from serialrv import system
    a = Assembler(base=0x1000)
    for _ in range(10):
        a.emit(M.ADD, rd=1, rs1=1, rs2=2)
    a.emit(M.EBREAK)
    stats = system.run(a.build(), CoreConfig(serial_width=8))
    assert stats.instret == 11
    assert stats.cycles == 1 + 40 + 1


def test_fetch_stall_when_execution_shorter_than_memory():
    core = make_core(32, mem_latency=3)
    cycles, _ = exec_one(core, instr(M.ADD, rd=1, rs1=1, rs2=2))
    assert cycles == 3  # 1 execute cycle hidden under the 3-cycle fetch


def _calls_of_second_step(i):
    """(Python functions, builtins) called by the second of two steps over
    the instruction `i`, whose word the first step has decoded and whose
    second copy it has prefetched."""
    state = ArchState.from_image(load_image(isa.encode(i).to_bytes(4, "little") * 2,
                                            base=0x1000))
    core = MicroCore(CoreConfig(serial_width=32), state)
    core.step()
    calls, builtins = [], []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            builtins.append(arg.__name__)

    sys.setprofile(profile)
    try:
        core.step()
    finally:
        sys.setprofile(None)
    assert calls[0] == "step" and builtins[-1] == "setprofile"
    return calls[1:], builtins[:-1]


@pytest.mark.parametrize("i,want", [
    (instr(M.ADD, rd=1, rs1=2, rs2=3), ["_chunk_add"]),
    (instr(M.SLLI, rd=1, rs1=2, imm=3), ["_shift", "_serial_move"])],
    ids=["add", "slli"])
def test_decoded_sequential_step_calls_only_its_unit(i, want):
    """A step over a word decoded before makes no Python call for fetch,
    decode or operand reads: it calls only what executes the instruction,
    and never decode_cached, Memory.load or len."""
    calls, builtins = _calls_of_second_step(i)
    assert calls == want
    assert "len" not in builtins


# --- clmul and xperm results ----------------------------------------------------------

# (mnemonic, rs1, rs2, rd or None): rd is pinned where the operands make it
# easy to state; every case is also checked against golden at all widths
GATED_UNIT_CASES = [
    (M.CLMUL, 0xDEADBEEF, 0x00000001, 0xDEADBEEF),
    (M.CLMULH, 0xDEADBEEF, 0x00000001, 0),
    (M.CLMUL, 0x80000001, 0xFFFFFFFF, None),
    (M.CLMULH, 0x80000001, 0xFFFFFFFF, None),
    (M.XPERM8, 0x44332211, 0x03020100, 0x44332211),
    (M.XPERM8, 0x44332211, 0xFF040102, 0x00002233),  # 4 and 0xFF out of range
    (M.XPERM4, 0x76543210, 0x01234567, 0x01234567),
    (M.XPERM4, 0x76543210, 0xFEDCBA98, 0),           # every index out of range
    (M.XPERM4, 0x76543210, 0x0F8070A1, 0x00007001),
]


@pytest.mark.parametrize("m,rs1,rs2,want", GATED_UNIT_CASES)
def test_clmul_xperm_results_match_golden(m, rs1, rs2, want):
    _equiv_case(m, rs1, rs2)
    if want is not None:
        core = make_core(1)
        exec_one(core, instr(m, rd=5, rs1=1, rs2=2), {1: rs1, 2: rs2})
        assert core.arch.regs[5] == want


# --- reorder unit ---------------------------------------------------------------------

@pytest.mark.parametrize("m", [M.REV8, M.BREV8, M.ZIP, M.UNZIP])
def test_reorder_byte_tables_match_the_wiring(m):
    """Every entry of the byte tables equals the wiring applied bit by bit,
    and a full word through the core equals golden."""
    wiring = microarch._REORDER_WIRING[m]

    def bit_by_bit(v):
        return sum(((v >> src) & 1) << i for i, src in enumerate(wiring))

    for k in range(4):
        for b in range(256):
            assert microarch._apply_wiring(m, b << 8 * k) == bit_by_bit(b << 8 * k)
    rng = random.Random(7)
    for v in [0, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(50)]:
        core = make_core(4)
        exec_one(core, instr(m, rd=5, rs1=1), {1: v})
        assert core.arch.regs[5] == bit_by_bit(v) == golden.zbkb_semantics(m, v, 0)


# --- serializer bookkeeping -----------------------------------------------------------

def test_width32_alu_leaves_serializer2_untouched():
    core = make_core(32)
    sentinel = 0x5A5A5A5A
    core.serializer2 = sentinel
    exec_one(core, instr(M.ADD, rd=1, rs1=1, rs2=2), {1: 1, 2: 2})
    exec_one(core, instr(M.XOR, rd=1, rs1=1, rs2=2))
    exec_one(core, instr(M.XPERM8, rd=1, rs1=1, rs2=2))
    assert core.serializer2 == sentinel


def test_serialized_alu_updates_serializer2():
    core = make_core(4)
    exec_one(core, instr(M.ADD, rd=3, rs1=1, rs2=2), {1: 40, 2: 2})
    assert core.serializer2 == 42


@pytest.mark.parametrize("width", WIDTHS[:-1])
def test_carry_crosses_every_lane_boundary(width):
    core = make_core(width)
    for k in range(width, 32, width):
        core.carry = 1
        assert core._chunk_add((1 << k) - 1, 1) == 1 << k, k
        assert core.carry == 0, k
    assert core._chunk_add(0xFFFFFFFF, 1) == 0
    assert core.carry == 1
    assert core._chunk_sub(0, 1) == 0xFFFFFFFF
    assert core.carry == 0


def test_clmul_uses_serializer1_even_at_width32():
    core = make_core(32)
    exec_one(core, instr(M.CLMUL, rd=3, rs1=1, rs2=2), {1: 5, 2: 3})
    assert core.serializer1 != 0


def test_aes_uses_lsu_buffer():
    core = make_core(4)
    exec_one(core, instr(M.AES32ESI, rd=1, rs1=1, rs2=2, bs=1),
             {2: 0x00AB00})
    assert core.lsu_buffer == 0xAB


# --- architectural equivalence (the core invariant) -------------------------------------

def _equiv_case(m, rs1, rs2, imm=0, bs=None):
    i = isa.instr(m, rd=5, rs1=1, rs2=2, imm=imm, bs=bs)
    ref = ArchState(pc=0x1000, mem=Memory())
    ref.regs[1], ref.regs[2] = rs1, rs2
    ref.mem.store(0x1000, 4, i.raw)
    golden.step(ref)
    for width in WIDTHS:
        core = make_core(width)
        core.arch.regs[1], core.arch.regs[2] = rs1, rs2
        exec_one(core, i)
        assert core.arch.regs == ref.regs, (m, width, rs1, rs2, imm)
        assert core.arch.pc == ref.pc, (m, width)


EQUIV_MNEMONICS = [m for m in M if CLASS_OF[m] not in ("load", "store")
                   and m not in (M.ECALL, M.EBREAK, M.JAL, M.JALR)]


@given(words, words, st.sampled_from(EQUIV_MNEMONICS), st.data())
@settings(max_examples=600, deadline=None)
def test_micro_matches_golden_register_ops(rs1, rs2, m, data):
    imm = 0
    fmt = isa.ENCODINGS[m].fmt
    if fmt == isa.FMT_I_SHAMT:
        imm = data.draw(st.integers(min_value=0, max_value=31))
    elif fmt in (isa.FMT_I,):
        imm = data.draw(st.integers(min_value=-2048, max_value=2047))
    elif fmt == isa.FMT_U:
        imm = data.draw(st.integers(min_value=0, max_value=0xFFFFF))
    elif fmt == isa.FMT_BRANCH:
        imm = data.draw(st.sampled_from((8, 16, 64)))
    bs = data.draw(st.integers(min_value=0, max_value=3)) \
        if m in isa.AES_MNEMONICS else None
    _equiv_case(m, rs1, rs2, imm, bs)


def test_every_mnemonic_has_one_handler_per_model():
    for table in (golden._EXECUTE, microarch._EXECUTE):
        assert sorted(table) == sorted(M)


def test_missing_handler_fails_loudly(monkeypatch):
    fence = instr(M.FENCE)
    monkeypatch.delitem(golden._EXECUTE, M.FENCE)
    monkeypatch.delitem(microarch._EXECUTE, M.FENCE)
    ref = ArchState(pc=0x1000, mem=Memory())
    ref.mem.store(0x1000, 4, fence.raw)
    with pytest.raises(KeyError):
        golden.step(ref)
    with pytest.raises(KeyError):
        exec_one(make_core(8), fence)


def test_handler_patched_after_a_run_takes_effect(monkeypatch):
    """Each core binds handlers for itself, so a handler replaced after
    another core ran under the same config is the one a new core uses."""
    sw = instr(M.SW, rs1=0, rs2=2, imm=0x200)
    first = make_core(8)
    exec_one(first, sw, {2: 7})
    assert first.arch.mem.load(0x200, 4) == 7
    store = microarch._EXECUTE[M.SW]

    def faulty(core, i, a, b):
        result = store(core, i, a, b)
        core.lsu_buffer ^= 1
        return result

    monkeypatch.setitem(microarch._EXECUTE, M.SW, faulty)
    second = make_core(8)
    exec_one(second, sw, {2: 7})
    assert second.arch.mem.load(0x200, 4) == 6


def test_one_record_per_mnemonic_over_a_torture_program():
    """A core binds one record per distinct mnemonic it meets, however many
    words carry it, and counts each one's retirements in that record."""
    image = cosim.generate(cosim.TortureConfig(seed=3))
    for width in (1, 32):
        core = MicroCore(CoreConfig(serial_width=width, extensions=isa.ZKN_ZKT),
                         ArchState.from_image(image))
        tally, words = {}, set()
        while True:
            cycles, outcome, ins = core.step()
            words.add(ins.raw)
            entry = tally.setdefault(ins.mnemonic, [0, 0])
            entry[0] += 1
            entry[1] += cycles
            if outcome.halted:
                break
        assert outcome.reason == golden.EBREAK
        assert sorted(core._bound) == sorted(tally)
        assert len(words) > 2 * len(tally)  # most mnemonics recur in other words
        assert core.retired() == {m: tuple(e) for m, e in tally.items()}


def test_same_mnemonic_reads_each_instructions_own_fields():
    core = make_core(1, exts=isa.ZKN)
    core.arch.regs[1], core.arch.regs[2] = 100, 0x80000001
    exec_one(core, instr(M.ADDI, rd=5, rs1=1, imm=7))
    exec_one(core, instr(M.ADDI, rd=6, rs1=2, imm=-3))
    assert core.arch.regs[5] == 107 and core.arch.regs[6] == 0x7FFFFFFE
    assert core.arch.pc == 0x1008
    for shamt in (1, 31, 4):
        core.arch.pc = 0x1000
        cycles, _ = exec_one(core, instr(M.SLLI, rd=7, rs1=2, imm=shamt))
        assert core.arch.regs[7] == (0x80000001 << shamt) & 0xFFFFFFFF
        assert cycles == shift_latency(core.config, M.SLLI, shamt)
    assert len(core._bound) == 2
    assert core.retired()[M.ADDI][0] == 2 and core.retired()[M.SLLI][0] == 3


IMM_FORMS = sorted(isa.IMM_FORMS)


@given(words, st.sampled_from(IMM_FORMS), st.data())
@settings(max_examples=300, deadline=None)
def test_imm_form_matches_its_r_form(rs1, m, data):
    """An I-form computes what its R-form does with rs2 holding the
    immediate: the same rd, pc and charged cycles, on both models."""
    if isa.ENCODINGS[m].fmt == isa.FMT_I_SHAMT:
        imm = data.draw(st.integers(min_value=0, max_value=31))
    else:
        imm = data.draw(st.integers(min_value=-2048, max_value=2047))
    forms = (isa.instr(m, rd=5, rs1=1, imm=imm),
             isa.instr(isa.R_FORM_OF[m], rd=5, rs1=1, rs2=2))

    def golden_after(i):
        ref = ArchState(pc=0x1000, mem=Memory())
        ref.regs[1], ref.regs[2] = rs1, imm & 0xFFFFFFFF
        ref.mem.store(0x1000, 4, i.raw)
        assert golden.step(ref) == golden.RETIRED
        return ref.regs[5], ref.pc

    assert golden_after(forms[0]) == golden_after(forms[1])
    for width in WIDTHS:
        for exts in (isa.ZKN, isa.ZKN_ZKT):
            after = []
            for i in forms:
                core = make_core(width, exts=exts)
                cycles, out = exec_one(core, i, {1: rs1, 2: imm})
                assert out == golden.RETIRED
                after.append((core.arch.regs[5], core.arch.pc, cycles))
            assert after[0] == after[1], (m, width, exts)


def test_micro_matches_golden_memory_ops():
    rng = random.Random(9)
    for m in (M.LB, M.LH, M.LW, M.LBU, M.LHU, M.SB, M.SH, M.SW):
        width_bytes = {M.LB: 1, M.LBU: 1, M.LH: 2, M.LHU: 2, M.LW: 4,
                       M.SB: 1, M.SH: 2, M.SW: 4}[m]
        for _ in range(40):
            off = rng.randrange(0x200, 0x300) & ~(width_bytes - 1)
            val = rng.getrandbits(32)
            fill = rng.getrandbits(32)
            i = isa.instr(m, rd=5, rs1=1, rs2=2, imm=off)
            ref = ArchState(pc=0x1000, mem=Memory())
            ref.regs[1], ref.regs[2] = 0, val
            ref.mem.store(off & ~3, 4, fill)
            ref.mem.store(0x1000, 4, i.raw)
            golden.step(ref)
            for width in (1, 8, 32):
                core = make_core(width)
                core.arch.regs[1], core.arch.regs[2] = 0, val
                core.arch.mem.store(off & ~3, 4, fill)
                exec_one(core, i)
                assert core.arch.regs == ref.regs, (m, width)
                assert core.arch.mem.read_bytes(off & ~3, 8) == \
                    ref.mem.read_bytes(off & ~3, 8), (m, width)


def test_misaligned_access_traps_match_golden():
    i = isa.instr(M.LH, rd=5, rs1=1, rs2=0, imm=0x201)
    core = make_core(8)
    cycles, out = exec_one(core, i)
    assert out.halted and out.reason == golden.MISALIGNED_ACCESS
    assert cycles == 0


def test_disabled_extension_trap():
    core = make_core(8, exts=frozenset())
    _, out = exec_one(core, instr(M.CLMUL, rd=1, rs1=1, rs2=2))
    assert out.halted and out.reason == golden.ILLEGAL


# --- micro state pin: every mnemonic x operands x widths x knobs --------------

def _sx(v, bits):
    sign = 1 << (bits - 1)
    return ((v & ((sign << 1) - 1)) ^ sign) - sign


# Operand 2 of each format, drawn from a 32-bit operand word.
_IMM_OF_FMT = {
    isa.FMT_I: lambda b: _sx(b, 12),
    isa.FMT_LOAD: lambda b: _sx(b, 12),
    isa.FMT_STORE: lambda b: _sx(b, 12),
    isa.FMT_JALR: lambda b: _sx(b, 12),
    isa.FMT_I_SHAMT: lambda b: b & 31,
    isa.FMT_BRANCH: lambda b: _sx(b & ~1, 13),
    isa.FMT_JAL: lambda b: _sx(b & ~1, 21),
    isa.FMT_U: lambda b: b >> 12,
}


def _sweep_operands():
    """(rs1, operand word) pairs: 0, all-ones, each single bit and seeded
    random words against a random partner, plus every shift amount."""
    rng = random.Random(8)
    values = [0, 0xFFFFFFFF] + [1 << k for k in range(32)] + \
        [rng.getrandbits(32) for _ in range(8)]
    pairs = [(v, rng.getrandbits(32)) for v in values]
    pairs += [(rng.getrandbits(32), v) for v in values + list(range(32))]
    return pairs


def _sweep_digest(width):
    """sha256 over a step of every instruction at `width`: charged cycles,
    outcome, rd value, pc and the micro state the step leaves."""
    h = hashlib.sha256()
    pairs = _sweep_operands()
    fill = random.Random(9).randbytes(0x2000)
    for exts in (isa.ZKN, isa.ZKN_ZKT):
        for support in (True, False):
            cfg = CoreConfig(serial_width=width, extensions=exts,
                             left_shift_support=support)
            for m in sorted(M, key=lambda x: x.value):
                fmt = isa.ENCODINGS[m].fmt
                core = MicroCore(cfg, ArchState(mem=Memory()))
                core.arch.mem.buf[:len(fill)] = fill
                for a, b in pairs:
                    imm = _IMM_OF_FMT.get(fmt, lambda b: 0)(b)
                    i = instr(m, rd=5, rs1=1, rs2=2, imm=imm, bs=b & 3)
                    core.arch.pc = 0x1000
                    core.arch.regs[1], core.arch.regs[2] = a, b
                    # stale micro state, so that what a step leaves shows
                    core.serializer1, core.serializer2 = b ^ 0x5A5A5A5A, a ^ b
                    core.lsu_buffer = a ^ 0xA5A5A5A5
                    core.fetch_buffer = (0x1000, i.raw)
                    cycles, out, ran = core.step()
                    assert ran == i
                    h.update(repr((m.value, a, b, cycles, out.halted, out.reason,
                                   core.arch.regs[5], core.arch.pc,
                                   core.serializer1, core.serializer2,
                                   core.lsu_buffer, core.store_addr)).encode())
    return h.hexdigest()


# Taken on the chunked data path before its per-width rewrite; any change
# to a result, a charged cycle or the micro state a step leaves moves it.
SWEEP_DIGESTS = {
    1: "de64ba230935f423bf27723ac4fc110f97336d0ea0f9296f43b182e27c921c3f",
    2: "707922d0b482fd444a942ea227a34bc4a4d4de1c301f23ea357d8007078d55ed",
    4: "4e711343b17ab9a7e3cd69f1c942658ec1152983ff394b3182c7a4cb6c5652fc",
    8: "32196e4afb855d696f0fc9c104aacd61228323c69c90284df569c415df9bc3a2",
    16: "37aa352ea8c1b6d0832d2033bd1719cca6fc7ea43803c3344846fdaca3ffb326",
    32: "faa755074bbb8b5c3e3bbb6e3b84319128af3be0c7ee55b3c0254b3828b97854",
}


@pytest.mark.parametrize("width", WIDTHS)
def test_sweep_is_pinned(width):
    assert _sweep_digest(width) == SWEEP_DIGESTS[width]


# --- step state pin: torture programs x widths ----------------------------------

def _step_digests():
    """sha256 per width over every core.step() of 20 torture programs:
    charged cycles, outcome, instruction word, pc, cycle counters, micro
    state and the 32 registers after the step."""
    images = [cosim.generate(cosim.TortureConfig(seed=s)) for s in range(20)]
    digests = {}
    for width in WIDTHS:
        h = hashlib.sha256()
        for image in images:
            core = MicroCore(CoreConfig.zkn_zkt(width), ArchState.from_image(image))
            while True:
                cycles, out, ins = core.step()
                h.update(repr((cycles, out.halted, out.reason,
                               ins.raw if ins is not None else None,
                               core.arch.pc, core.cycle, core.startup_cycles,
                               core.serializer1, core.serializer2,
                               core.lsu_buffer, core.store_addr,
                               core.fetch_buffer, core.arch.regs)).encode())
                if out.halted:
                    break
        digests[width] = h.hexdigest()
    return digests


# Taken before the step path was fused into one frame; any change to a
# charged cycle, the fill, the fetch buffer or the micro state a step
# leaves moves it.
STEP_DIGESTS = {
    1: "f5f73b8184079d93bed83f5977aa30c8fcc701bd86c7073a4057b94438fd43ec",
    2: "5f5748b87b36613e255805ae93153188d5a3cbad1985e3e8ff60e8d20327ec82",
    4: "3ea74c4b7ac078e0234d2c68f6e2eb9e3e162010bd7698b7e044d1c11795d882",
    8: "26bbb0a50e59cca0f30cceb987b3f3522e0f07ca4e958e63081d2e2fc1a7c81e",
    16: "547df08d8b0b8644cafec540679ce9824883240120afc68e99397e9c62ff510c",
    32: "4eec0e038120bd9d2eb2ec02135b0276e8bdeeda457ef2f4c6df865f449f65a5",
}


def test_step_path_is_pinned():
    assert _step_digests() == STEP_DIGESTS


def test_finished_core_is_freed_without_gc():
    """Nothing a core keeps refers back to it, so a finished core (and its
    64 KiB memory window) is freed when its last reference goes, not at
    the next garbage-collector pass."""
    image = cosim.generate(cosim.TortureConfig(seed=5))
    enabled = gc.isenabled()
    gc.disable()
    try:
        core = MicroCore(CoreConfig.zkn_zkt(4), ArchState.from_image(image))
        while not core.step()[1].halted:
            pass
        ref = weakref.ref(core)
        del core
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
