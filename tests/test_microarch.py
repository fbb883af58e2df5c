import gc
import hashlib
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import callprofile
import mutants
import oracles
from serialrv import bench, cosim, golden, isa, microarch
from serialrv.audit import audit_constant_time
from serialrv.golden import ArchState
from serialrv.image import load_image
from serialrv.isa import Ext, Mnemonic as M, instr
from serialrv.microarch import (CLASS_OF, CoreConfig, MicroCore,
                                parse_extensions, shift_latency)

WIDTHS = (1, 2, 4, 8, 16, 32)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)


def make_core(width=4, exts=isa.ZKN_ZKT, pc=0x1000, **knobs):
    state = ArchState(pc=pc)
    return MicroCore(CoreConfig(serial_width=width, extensions=exts, **knobs),
                     state)


def exec_one(core, i, regs=None):
    """Store the word of `i` at pc and step it; returns (charged cycles,
    outcome)."""
    if regs:
        for r, v in regs.items():
            core.arch.regs[r] = v & 0xFFFFFFFF
    core.arch.mem.store(core.arch.pc, 4, i.raw)
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


def test_config_is_immutable_and_checked_on_every_build():
    cfg = CoreConfig.zkn_zkt(8, mem_latency=3)
    with pytest.raises(ValueError, match="serial_width"):
        cfg._replace(serial_width=5)
    assert cfg._replace(serial_width=4).chunks == 8
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and hash(copy) == hash(cfg) and type(copy) is CoreConfig
    with pytest.raises(AttributeError):
        cfg.serial_width = 4
    assert cfg.serial_width == 8
    same = CoreConfig(serial_width=8, extensions=set(isa.ZKN_ZKT), mem_latency=3)
    assert same == cfg and same is not cfg
    assert microarch.latency_table(same) is microarch.latency_table(cfg)


def test_zkn_zkt_preset():
    cfg = CoreConfig.zkn_zkt(8)
    assert cfg.extensions == isa.ZKN_ZKT and cfg.zkt
    assert len(cfg.extensions) == 7


def test_parse_extensions():
    assert parse_extensions("zkn,zkt") == isa.ZKN_ZKT
    assert parse_extensions("zkn,,zkt") == isa.ZKN_ZKT  # empty items are skipped
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
def test_zkt_audit_passes_under_every_knob_set(knobs):
    """Zkt's constant-time contract holds under each knob set's timing
    knobs, at every width, not under the default knobs only."""
    timing = {k: v for k, v in KNOB_SETS[knobs].items() if k != "extensions"}
    for width in WIDTHS:
        report = audit_constant_time(CoreConfig.zkn_zkt(width, **timing), trials=32)
        assert report.zkt and report.rows
        assert report.passed, (width, [r for r in report.rows if r.spread])


@pytest.mark.parametrize("knobs", sorted(KNOB_SETS))
@pytest.mark.parametrize("m", sorted(CLASS_OF, key=lambda x: x.value),
                         ids=lambda m: m.value)
def test_charged_cycles_follow_readme_table(m, knobs):
    for width in WIDTHS:
        cfg = CoreConfig(serial_width=width, **KNOB_SETS[knobs])
        for ins, regs, taken in _cases(m):
            core = MicroCore(cfg, ArchState(pc=0x1000))
            cycles, out = exec_one(core, ins, regs)
            shamt = ins.imm if isa.ENCODINGS[m].fmt == isa.FMT_I_SHAMT \
                else regs.get(2, 0)
            want = oracles.step_cycles(cfg, m.value, shamt, taken, False)
            assert cycles == want, (m.value, width, knobs, regs)
            assert (core.arch.pc != 0x1004) == taken or out.halted


# --- every step of whole programs against the cycle oracle --------------------------

_CYCLE_SEEDS = range(12)


def _cycle_mismatch(image, cfg, label):
    """Step `image` on a core under `cfg` until it halts, checking each
    step's charged cycles and then `core.cycle` against
    `oracles.step_cycles`. Returns None, or what the first mismatch was,
    named by `label`, the pc and the mnemonic."""
    core = MicroCore(cfg, ArchState.from_image(image))
    arch, step = core.arch, core.step
    total, first = 0, True
    while True:
        pc, before = arch.pc, arch.regs[:]
        cycles, out, ins = step()
        if out.halted and out.reason not in (golden.EBREAK, golden.ECALL):
            return f"{label}: pc 0x{pc:08x} halted with {out.reason}"
        m = ins.mnemonic.value
        imm_shamt = isa.ENCODINGS[ins.mnemonic].fmt == isa.FMT_I_SHAMT
        shamt = (ins.imm if imm_shamt else before[ins.rs2]) & 31
        # no branch in these programs targets pc + 4
        taken = arch.pc != (pc + 4) & 0xFFFFFFFF
        want = oracles.step_cycles(cfg, m, shamt, taken, False)
        if cycles != want:
            return (f"{label}: pc 0x{pc:08x} {m}: wanted {want} cycles, "
                    f"charged {cycles}")
        total += oracles.step_cycles(cfg, m, shamt, taken, first)
        first = False
        if out.halted:
            break
    if core.cycle != total:
        return f"{label}: wanted {total} cycles in all, core.cycle is {core.cycle}"
    return None


def _cosim_cells(seeds, knob_sets):
    for seed in seeds:
        image = cosim.generate(cosim.TortureConfig(seed=seed))
        for knobs in knob_sets:
            for width in WIDTHS:
                cfg = CoreConfig(serial_width=width, **KNOB_SETS[knobs])
                yield image, cfg, f"seed {seed}, width {width}, knobs {knobs}"


def _bench_cells():
    for name, kernel in bench.KERNELS.items():
        for variant, exts in bench.EXTS.items():
            image = kernel.build(variant).image
            for width in WIDTHS:
                cfg = CoreConfig(serial_width=width, extensions=exts)
                yield image, cfg, f"kernel {name}/{variant}, width {width}, knobs default"


def test_every_step_charges_the_oracle_cycles():
    """Cosim programs at every width under each knob set, and every bench
    cell, charge each step what the README cycle model says."""
    cells = [*_cosim_cells(_CYCLE_SEEDS, sorted(KNOB_SETS)), *_bench_cells()]
    assert len(cells) == len(_CYCLE_SEEDS) * 6 * 3 + 72
    for cell in cells:
        mismatch = _cycle_mismatch(*cell)
        assert mismatch is None, mismatch


@pytest.mark.parametrize("mutant", [mutants.short_transfer_penalty,
                                    mutants.fetch_stall_dropped],
                         ids=lambda f: f.__name__)
def test_cycle_oracle_kills_frontend_mutants(mutant):
    """Each frontend fault moves a charged cycle of seed 0's program at
    width 32 under the knob set whose mem_latency exceeds 1."""
    cell = next(c for c in _cosim_cells([0], ["knobs"]) if c[1].serial_width == 32)
    with mutant():
        assert _cycle_mismatch(*cell) is not None


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


_SHIFT_MNEMONICS = (M.SLL, M.SLLI, M.SRL, M.SRLI, M.SRA, M.SRAI,
                    M.ROL, M.ROR, M.RORI)


def _shift_mismatches():
    """(model, knob set, width, mnemonic, rs1, amount) of every shift or
    rotate of rs1 = all-ones, 1 or 0x80000000 by every amount 0..31 whose
    result is not the ISA manual's: on the core at every width under each
    knob set, and on golden once."""
    cases = [(m.value, x, n, instr(m, rd=3, rs1=1, rs2=2, imm=n))
             for m in _SHIFT_MNEMONICS for x in (0xFFFFFFFF, 1, 0x80000000)
             for n in range(32)]
    bad = []
    for knobs in sorted(KNOB_SETS):
        for width in WIDTHS:
            core = MicroCore(CoreConfig(serial_width=width, **KNOB_SETS[knobs]),
                             ArchState())
            for name, x, n, i in cases:
                core.arch.pc = 0x1000
                exec_one(core, i, {1: x, 2: n})
                if core.arch.regs[3] != oracles.shift(name, x, n):
                    bad.append(("core", knobs, width, name, x, n))
    ref = ArchState()
    for name, x, n, i in cases:
        ref.pc = 0x1000
        ref.regs[1], ref.regs[2] = x, n
        ref.mem.store(0x1000, 4, i.raw)
        assert not golden.step(ref, isa.ZKN).halted
        if ref.regs[3] != oracles.shift(name, x, n):
            bad.append(("golden", None, None, name, x, n))
    return bad


def test_every_shift_amount_on_edge_operands_matches_the_isa():
    assert _shift_mismatches() == []


def test_shift_edge_sweep_kills_the_masked_sll_mutant():
    """An emulated sll by 3 masked as if by 4 clears bit 3 of the result,
    which the sweep sees wherever rs1 sets that bit: only under the knob
    set without left-shift support, at every width."""
    with mutants.sll_by_3_masked_as_by_4():
        bad = _shift_mismatches()
    assert sorted(bad) == sorted(("core", "knobs", width, name, x, 3)
                                 for width in WIDTHS for name in ("sll", "slli")
                                 for x in (0xFFFFFFFF, 1))


# --- frontend / branches -----------------------------------------------------------

def test_taken_branch_penalty():
    core = make_core(4)
    cycles, _ = exec_one(core, instr(M.BEQ, rs1=1, rs2=2, imm=16),
                         {1: 3, 2: 3})
    assert cycles == 8 + 2
    assert core.arch.pc == 0x1010


def test_not_taken_branch_no_penalty():
    core = make_core(4)
    cycles, _ = exec_one(core, instr(M.BEQ, rs1=1, rs2=2, imm=16),
                         {1: 3, 2: 4})
    assert cycles == 8
    assert core.arch.pc == 0x1004


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


@pytest.mark.parametrize("width", WIDTHS)
def test_sequential_step_wraps_to_pc_zero(width):
    """A step from the last word of the address space goes on at pc 0 in
    both models. The first word lies outside the dense window, so the
    core reads it through the memory port; pc 0 starts the window, so
    the core reads the second word straight from it and the port sees no
    fetch."""
    first = instr(M.ADDI, rd=1, rs1=0, imm=5)
    second = instr(M.ADDI, rd=2, rs1=1, imm=7)

    def state():
        state = ArchState(pc=0xFFFFFFFC)
        state.mem.store(0xFFFFFFFC, 4, first.raw)
        state.mem.store(0, 4, second.raw)
        return state

    ref, arch = state(), state()
    loads = []
    port = arch.mem.load
    arch.mem.load = lambda addr, size: loads.append((addr, size)) or port(addr, size)
    core = MicroCore(CoreConfig.zkn_zkt(width), arch)
    assert not golden.step(ref, isa.ZKN_ZKT).halted
    assert not core.step()[1].halted
    assert arch.pc == ref.pc == 0 and arch.regs == ref.regs
    assert not golden.step(ref, isa.ZKN_ZKT).halted
    _, outcome, ran = core.step()
    assert not outcome.halted and ran == second
    assert loads == [(0xFFFFFFFC, 4)]
    assert arch.pc == ref.pc == 4 and arch.regs == ref.regs and arch.regs[2] == 12


@pytest.mark.parametrize("width", WIDTHS)
def test_steps_across_the_window_end_match_golden(width):
    """The core's fetch holds its own copy of where the dense window
    ends: stepped beside golden over the window's last two words and two
    past its end at 0x10000, the core keeps golden's pc and registers
    after every step and halts on the same ebreak."""
    def state():
        a = isa.Assembler(base=0xFFF8)
        a.emit(M.ADDI, rd=1, rs1=0, imm=5)   # 0xfff8: in the window
        a.emit(M.ADDI, rd=2, rs1=1, imm=7)   # 0xfffc: its last word
        a.emit(M.ADDI, rd=3, rs1=2, imm=1)   # 0x10000: sparse
        a.emit(M.EBREAK)                     # 0x10004: sparse
        return ArchState.from_image(a.build())

    ref, arch = state(), state()
    core = MicroCore(CoreConfig.zkn_zkt(width), arch)
    while True:
        g_out = golden.step(ref)
        _, m_out, _ = core.step()
        assert (arch.pc, arch.regs) == (ref.pc, ref.regs)
        if g_out.halted or m_out.halted:
            break
    assert g_out == m_out == golden.StepOutcome(True, golden.EBREAK)
    assert arch.regs[1:4] == [5, 12, 13]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("pc", [0xFFF8, 0xFFFC], ids=["window", "sparse"])
def test_core_keeps_no_copy_of_memory(pc, width):
    """A word stored at pc + 4 from outside the core, after the step at
    pc, is the word the next step runs, whether pc + 4 lies in the dense
    window or past its end at 0x10000; both models end with the same
    registers."""
    old = instr(M.ADDI, rd=2, rs1=1, imm=7)
    new = instr(M.ADDI, rd=2, rs1=1, imm=42)

    def state():
        state = ArchState(pc=pc)
        state.mem.store(pc, 4, instr(M.ADDI, rd=1, rs1=0, imm=5).raw)
        state.mem.store(pc + 4, 4, old.raw)
        return state

    ref, arch = state(), state()
    core = MicroCore(CoreConfig.zkn_zkt(width), arch)
    assert not golden.step(ref).halted and not core.step()[1].halted
    ref.mem.store(pc + 4, 4, new.raw)
    arch.mem.store(pc + 4, 4, new.raw)
    assert not golden.step(ref).halted
    _, outcome, ran = core.step()
    assert not outcome.halted and ran == new
    assert arch.pc == ref.pc == pc + 8
    assert arch.regs == ref.regs and arch.regs[2] == 47


def _calls_of_second_step(i):
    """(Python functions, builtins) called by the second of two steps over
    the instruction `i`, whose word the first step has decoded; both
    copies lie in the dense window."""
    state = ArchState.from_image(load_image(isa.encode(i).to_bytes(4, "little") * 2,
                                            base=0x1000))
    core = MicroCore(CoreConfig.zkn_zkt(32), state)
    core.step()
    codes, builtins = callprofile.calls_of(core.step)
    return [c.co_name for c in codes], builtins


_STEP_CALLS = {
    "add": (instr(M.ADD, rd=1, rs1=2, rs2=3), ["_chunk_add"]),
    "slli": (instr(M.SLLI, rd=1, rs1=2, imm=3), ["_move_sll"]),
    "srai": (instr(M.SRAI, rd=1, rs1=2, imm=3), ["_move_sra"]),
    "rori": (instr(M.RORI, rd=1, rs1=2, imm=3), ["_move_ror"]),
    "lw": (instr(M.LW, rd=1, rs1=2, imm=8), ["lsu_load", "load"]),
    "sha256sig0": (instr(M.SHA256SIG0, rd=1, rs1=2), ["sha", "_chunk_xor"]),
    "aes32esmi": (instr(M.AES32ESMI, rd=1, rs1=2, rs2=3, bs=1),
                  ["aes", "_move_rol"]),
    "sw": (instr(M.SW, rs1=2, rs2=3, imm=8),
           ["lsu_store", "store", "_write"]),
    # a misaligned access traps in its unit, before the memory port
    "lh-misaligned": (instr(M.LH, rd=1, rs1=2, imm=9), ["lsu_load"]),
}


@pytest.mark.parametrize("i,want", _STEP_CALLS.values(), ids=_STEP_CALLS)
def test_decoded_sequential_step_calls_only_its_unit(i, want):
    """A step over a word decoded before makes no Python call for fetch,
    decode or operand reads: it calls only what executes the instruction,
    one handler bound to its mnemonic that makes no second dispatch on it,
    and never decode_cached. A shift or rotate calls only the move
    function of its plan, which the frame reads from its row.
    Memory.load runs only for a load's own data access and Memory.store
    only for a store's commit. The builtins called are the fetch's word
    read and the decode cache's probe, then only the port's word access
    of a load or a store: no `len` or other call finds the window."""
    calls, builtins = _calls_of_second_step(i)
    assert calls == want
    port = {"load": ["unpack_from"], "store": ["pack_into"]}
    assert builtins == ["unpack_from", "get"] + [b for c in calls
                                                 for b in port.get(c, ())]


def test_step_call_profile_ignores_the_cyclic_gc():
    """A cyclic-GC pass that would fall inside the profiled step, with
    garbage that has a finalizer waiting, adds no call to the record."""

    class Cycle:
        def __del__(self):
            pass

    threshold = gc.get_threshold()
    try:
        for t in range(1, 40):
            for name in ("add", "aes32esmi", "sw"):
                i, want = _STEP_CALLS[name]
                for _ in range(20):
                    c = Cycle()
                    c.self = c
                del c
                gc.set_threshold(t)
                assert _calls_of_second_step(i)[0] == want, (name, t)
    finally:
        gc.set_threshold(*threshold)


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

    for k, table in enumerate(microarch._wiring_tables(m)):
        assert len(table) == 256
        for b in range(256):
            assert table[b] == bit_by_bit(b << 8 * k)
    rng = random.Random(7)
    for v in [0, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(50)]:
        core = make_core(4)
        exec_one(core, instr(m, rd=5, rs1=1), {1: v})
        assert core.arch.regs[5] == bit_by_bit(v) == golden.zbkb_semantics(m, v, 0)


# --- the chunk walk and its carry latch ------------------------------------------------

@pytest.mark.parametrize("width", WIDTHS[:-1])
def test_carry_crosses_every_lane_boundary(width):
    """The carry latch carries between chunks, and the last chunk's
    carry-out comes back in bit 32 of the sum."""
    core = make_core(width)
    for k in range(width, 32, width):
        assert core._chunk_add((1 << k) - 1, 1) == 1 << k, k
    assert core._chunk_add(0xFFFFFFFF, 1) == 1 << 32
    assert core._chunk_sub(0, 1) == 0xFFFFFFFF
    assert core._chunk_sub(1, 1) == 1 << 32  # no borrow


_EDGE_WORDS = (0, 1, 2, 0x7FFF, 0x8000, 0xFFFF, 0x10000, 0x55555555,
               0x7FFFFFFF, 0x80000000, 0x80000001, 0xAAAAAAAA,
               0xFFFFFFFE, 0xFFFFFFFF)
_ALU_CALLS = {
    "add": lambda c, a, b: c._chunk_add(a, b),
    "add, carry-in 1": lambda c, a, b: c._chunk_add(a, b, 1),
    "sub": lambda c, a, b: c._chunk_sub(a, b),
    "xor": lambda c, a, b: c._chunk_xor(a, b),
    "and": lambda c, a, b: c._chunk_and(a, b),
    "or": lambda c, a, b: c._chunk_or(a, b),
    "signed less-than": lambda c, a, b: c._less_than(a, b, True),
    "unsigned less-than": lambda c, a, b: c._less_than(a, b, False),
}


@pytest.mark.parametrize("name", _ALU_CALLS)
def test_width32_bypass_matches_the_lane_loop(name):
    """Width 32 skips the chunk loops; for edge operands each full-width
    branch returns the value, an add's carry-out in bit 32 included, that
    the width-1 lane walk does."""
    call = _ALU_CALLS[name]
    full, walk = make_core(32), make_core(1)
    assert full._full and not walk._full
    for a in _EDGE_WORDS:
        for b in _EDGE_WORDS:
            assert call(full, a, b) == call(walk, a, b), (hex(a), hex(b))


# --- architectural equivalence (the core invariant) -------------------------------------

def _equiv_case(m, rs1, rs2, imm=0, bs=None):
    i = isa.instr(m, rd=5, rs1=1, rs2=2, imm=imm, bs=bs)
    ref = ArchState(pc=0x1000)
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
    """Golden fails on the step that meets the mnemonic; a core, which
    binds every mnemonic's record with its config, fails when it is built
    (bound uncached, as a fault binds)."""
    fence = instr(M.FENCE)
    monkeypatch.delitem(golden._EXECUTE, M.FENCE)
    monkeypatch.delitem(microarch._EXECUTE, M.FENCE)
    monkeypatch.setattr(microarch, "_binding", microarch._binding.__wrapped__)
    ref = ArchState(pc=0x1000)
    ref.mem.store(0x1000, 4, fence.raw)
    with pytest.raises(KeyError):
        golden.step(ref)
    with pytest.raises(KeyError):
        make_core(8)


def test_handler_patched_after_a_run_takes_effect():
    """A fault's cores bind their records uncached, so a handler replaced
    after another core ran under the same config is the one a new core
    uses."""
    sw = instr(M.SW, rs1=0, rs2=2, imm=0x200)
    first = make_core(8)
    exec_one(first, sw, {2: 7})
    assert first.arch.mem.load(0x200, 4) == 7
    with mutants.flipped_store():
        second = make_core(8)
        exec_one(second, sw, {2: 7})
    assert second.arch.mem.load(0x200, 4) == 6


def test_one_record_per_mnemonic_over_a_torture_program():
    """Cores under one config share one record table, one record per
    mnemonic however many words carry it, and each core counts the
    retirements of its own run, listed in `Mnemonic` order."""
    image = cosim.generate(cosim.TortureConfig(seed=3))
    for width in (1, 32):
        config = CoreConfig(serial_width=width, extensions=isa.ZKN_ZKT)
        core = MicroCore(config, ArchState.from_image(image))
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
        assert len(words) > 2 * len(tally)  # most mnemonics recur in other words
        assert core.retired() == {m: tuple(e) for m, e in tally.items()}
        assert list(core.retired()) == [m for m in M if m in tally]
        other = MicroCore(config, ArchState.from_image(image))
        assert other._bound is core._bound and list(other._bound) == list(M)
        assert other.retired() == {}
        while not other.step()[1].halted:
            pass
        assert other.retired() == core.retired()


def test_cores_under_one_config_share_records_and_count_apart():
    """Two cores under one config, stepped in turn, read one record table
    and count their own retirements. A core under another config, built
    just after, binds its own table: an rv32i core halts illegal on a Zkn
    word and charges nothing, where a Zkn+Zkt core retires it."""
    first, second = make_core(4), make_core(4)
    assert first._bound is second._bound
    a, _ = exec_one(first, instr(M.ADDI, rd=5, rs1=0, imm=3))
    x, _ = exec_one(second, instr(M.XOR, rd=6, rs1=0, rs2=0))
    b, _ = exec_one(first, instr(M.ADDI, rd=5, rs1=5, imm=3))
    assert first.retired() == {M.ADDI: (2, a + b)}
    assert second.retired() == {M.XOR: (1, x)}
    assert (first.arch.regs[5], second.arch.regs[6]) == (6, 0)

    clmul = instr(M.CLMUL, rd=7, rs1=1, rs2=2)
    plain, crypto = make_core(4, exts=frozenset()), make_core(4)
    assert plain._bound is not crypto._bound
    for core in (plain, crypto):
        core.arch.regs[1], core.arch.regs[2] = 3, 3
        core.arch.mem.store(0x1000, 4, clmul.raw)
    assert plain.step() == (0, golden.StepOutcome(True, golden.ILLEGAL), clmul)
    assert plain.retired() == {} and plain.cycle == plain.startup_cycles
    assert crypto.step()[1] == golden.RETIRED and crypto.arch.regs[7] == 5
    assert crypto.retired() == {M.CLMUL: (1, crypto.cycle - crypto.startup_cycles)}


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
    assert set(core.retired()) == {M.ADDI, M.SLLI}
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
        ref = ArchState(pc=0x1000)
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
            ref = ArchState(pc=0x1000)
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


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("m", [M.LH, M.LHU, M.LW, M.SH, M.SW],
                         ids=lambda m: m.value)
def test_misaligned_access_changes_nothing_as_on_golden(m, width):
    """At every misaligned offset the access returns the shared
    misaligned-access outcome, charges no cycle and counts no retirement,
    and the registers, the memory window and the pc stay as they were,
    as they do on golden."""
    trap = golden.HALT[golden.MISALIGNED_ACCESS]
    for off in (1, 2, 3):
        if off % isa.ACCESS_BYTES[m] == 0:
            continue
        i = instr(m, rd=5, rs1=1, rs2=2, imm=0x200 + off)
        ref, core = ArchState(pc=0x1000), make_core(width)
        for state in (ref, core.arch):
            state.regs[1:] = [0x2000] + [0x01010101 * r for r in range(2, 32)]
            state.mem.store(0x2200, 4, 0xDEADBEEF)
            state.mem.store(0x1000, 4, i.raw)
        regs, window = ref.regs[:], bytes(ref.mem.buf)
        assert golden.step(ref) is trap
        assert core.step() == (0, trap, i) and core.step()[1] is trap
        assert core.retired() == {} and core.cycle == core.startup_cycles
        for state in (ref, core.arch):
            assert (state.pc, state.regs) == (0x1000, regs), (m, off)
            assert state.mem.buf == window, (m, off)


# a rotate of each form and one mnemonic of each other gated unit
_GATED = (M.ROL, M.ROR, M.RORI, M.PACK, M.CLMUL, M.XPERM8, M.AES32ESI,
          M.AES32DSMI, M.SHA256SIG0, M.SHA512SUM0R)


@pytest.mark.parametrize("width", (1, 32))
@pytest.mark.parametrize("m", _GATED, ids=lambda m: m.value)
def test_disabled_extension_trap(m, width):
    """Without its extension a gated mnemonic halts illegal, charges no
    cycle and writes nothing; with only its own subset it retires as it
    does on golden."""
    i = instr(m, rd=1, rs1=2, rs2=3, imm=5, bs=1)
    core = make_core(width, exts=frozenset())
    core.arch.regs[2], core.arch.regs[3] = 0x80000001, 13
    core.arch.mem.store(0x1000, 4, i.raw)
    regs, mem = list(core.arch.regs), bytes(core.arch.mem.buf)
    assert core.step() == (0, golden.StepOutcome(True, golden.ILLEGAL), i)
    assert core.arch.regs == regs and bytes(core.arch.mem.buf) == mem
    assert core.arch.pc == 0x1000 and core.retired() == {}

    exts = frozenset({isa.EXT_OF[m]})
    ref = ArchState(pc=0x1000)
    ref.regs[2], ref.regs[3] = 0x80000001, 13
    ref.mem.store(0x1000, 4, i.raw)
    assert not golden.step(ref, exts).halted
    core = make_core(width, exts=exts)
    cycles, out = exec_one(core, i, {2: 0x80000001, 3: 13})
    assert not out.halted and cycles > 0
    assert core.arch.regs == ref.regs and core.arch.pc == ref.pc == 0x1004


# --- comparisons on equal and neighbouring operands ------------------------------
# Golden and the core can share a mistake, and then cosim cannot see it. These
# expectations are written from the unprivileged ISA manual instead: slt and
# blt/bge compare two's-complement values, sltu and bltu/bgeu unsigned ones,
# and slti/sltiu compare with the sign-extended immediate.

_EQUAL_WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
# (a, b, a <s b, a <u b) with b = a + 1 mod 2**32
_NEIGHBOURS = (
    (0x00000000, 0x00000001, 1, 1),
    (0x00000001, 0x00000002, 1, 1),
    (0x7FFFFFFF, 0x80000000, 0, 1),  # the largest int, then the smallest
    (0x80000000, 0x80000001, 1, 1),
    (0xFFFFFFFF, 0x00000000, 1, 0),  # -1, then 0; unsigned, the largest word
)
_COMPARE_CASES = ([(a, a, 0, 0) for a in _EQUAL_WORDS]
                  + [(a, b, lt, ltu) for a, b, lt, ltu in _NEIGHBOURS]
                  + [(b, a, 1 - lt, 1 - ltu) for a, b, lt, ltu in _NEIGHBOURS])
# whether each set-less-than compares signed, and when each branch is taken
_SIGNED = {M.SLT: True, M.SLTI: True, M.SLTU: False, M.SLTIU: False}
_TAKEN = {M.BEQ: lambda eq, lt, ltu: eq, M.BNE: lambda eq, lt, ltu: not eq,
          M.BLT: lambda eq, lt, ltu: lt, M.BGE: lambda eq, lt, ltu: not lt,
          M.BLTU: lambda eq, lt, ltu: ltu, M.BGEU: lambda eq, lt, ltu: not ltu}


def _compare_runs(i, a, b):
    """(model, rd, pc) after stepping `i` at 0x1000 with x1 = a, x2 = b:
    golden once, then the core at every width."""
    ref = ArchState(pc=0x1000)
    ref.regs[1], ref.regs[2] = a, b
    ref.mem.store(0x1000, 4, i.raw)
    assert not golden.step(ref).halted
    runs = [("golden", ref.regs[5], ref.pc)]
    for width in WIDTHS:
        core = make_core(width)
        _, out = exec_one(core, i, {1: a, 2: b})
        assert not out.halted
        runs.append((f"width {width}", core.arch.regs[5], core.arch.pc))
    return runs


@pytest.mark.parametrize("m", sorted(_SIGNED, key=lambda m: m.value))
def test_set_less_than_on_equal_and_neighbouring_operands(m):
    imm_form = m in isa.IMM_FORMS
    for a, b, lt, ltu in _COMPARE_CASES:
        if imm_form:
            imm = b - (1 << 32) if b >> 31 else b
            if not -2048 <= imm < 2048:
                continue  # no 12-bit immediate sign-extends to b
            i = instr(m, rd=5, rs1=1, imm=imm)
        else:
            i = instr(m, rd=5, rs1=1, rs2=2)
        want = lt if _SIGNED[m] else ltu
        for model, rd, pc in _compare_runs(i, a, b):
            assert (rd, pc) == (want, 0x1004), (m, model, hex(a), hex(b))


@pytest.mark.parametrize("m", sorted(_TAKEN, key=lambda m: m.value))
def test_branch_on_equal_and_neighbouring_operands(m):
    i = instr(m, rs1=1, rs2=2, imm=16)
    for a, b, lt, ltu in _COMPARE_CASES:
        want = 0x1010 if _TAKEN[m](a == b, lt, ltu) else 0x1004
        for model, _, pc in _compare_runs(i, a, b):
            assert pc == want, (m, model, hex(a), hex(b))


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


def _stored_bytes(core, ins, out):
    """What a retired store left in memory, read back at the address its
    rs1 and immediate name (a store writes no register); None for any
    other step."""
    if ins is None or out.halted or \
            isa.ENCODINGS[ins.mnemonic].fmt is not isa.FMT_STORE:
        return None
    addr = (core.arch.regs[ins.rs1] + ins.imm) & 0xFFFFFFFF
    return core.arch.mem.load(addr, isa.ACCESS_BYTES[ins.mnemonic])


def _sweep_digest(width):
    """sha256 over a step of every instruction at `width`: charged cycles,
    outcome, rd value, pc and the bytes a store left in memory."""
    h = hashlib.sha256()
    pairs = _sweep_operands()
    fill = random.Random(9).randbytes(0x2000)
    for exts in (isa.ZKN, isa.ZKN_ZKT):
        for support in (True, False):
            cfg = CoreConfig(serial_width=width, extensions=exts,
                             left_shift_support=support)
            for m in sorted(M, key=lambda x: x.value):
                fmt = isa.ENCODINGS[m].fmt
                core = MicroCore(cfg, ArchState())
                core.arch.mem.buf[:len(fill)] = fill
                for a, b in pairs:
                    imm = _IMM_OF_FMT.get(fmt, lambda b: 0)(b)
                    i = instr(m, rd=5, rs1=1, rs2=2, imm=imm, bs=b & 3)
                    core.arch.pc = 0x1000
                    core.arch.regs[1], core.arch.regs[2] = a, b
                    core.arch.mem.store(0x1000, 4, i.raw)
                    cycles, out, ran = core.step()
                    assert ran == i
                    h.update(repr((m.value, a, b, cycles, out.halted, out.reason,
                                   core.arch.regs[5], core.arch.pc,
                                   _stored_bytes(core, ran, out))).encode())
    return h.hexdigest()


# Any change to a result, a charged cycle or a stored value moves it.
SWEEP_DIGESTS = {
    1: "6b497dfef8052d10553f7537f9ee569a1ba2963fcad704ec15b470a40e02e2d9",
    2: "55222f0ee8046777fd29adf8fcdb26e9c0fd68b3e664a6c86f60d89fb49996f3",
    4: "9a17a7d38657cc3473825f44c120a501ccea7767925b2caf0ad01c76edc8b675",
    8: "22d4eac332d0d8191d791e5fb13780e91c2f779476b4154954a703706d595252",
    16: "1ce09492ba38b1c14e2941f623def3d59a0b468644528c56bf8e7c7b9557bad4",
    32: "846da5203d16475eddf72aea8c6976053d03b9022f77f3a83aa8e2f4fa3eb1f8",
}


@pytest.mark.parametrize("width", WIDTHS)
def test_sweep_is_pinned(width):
    assert _sweep_digest(width) == SWEEP_DIGESTS[width]


# --- step state pin: torture programs x widths ----------------------------------

def _step_digests():
    """sha256 per width over every core.step() of 20 torture programs:
    charged cycles, outcome, instruction word, pc, cycle counters, the
    bytes a store left in memory and the 32 registers after the step."""
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
                               _stored_bytes(core, ins, out),
                               core.arch.regs)).encode())
                if out.halted:
                    break
        digests[width] = h.hexdigest()
    return digests


# Any change to a charged cycle, the fill, a register or a stored value
# moves it.
STEP_DIGESTS = {
    1: "e545ee8df9357d3983e98ae7f46f77fdc6749e9531caa9e92330a361e1b6b1bb",
    2: "f237b39ed0cf670684ec6c53d3ab66835a5a77bf5cd741a08853d9b6feb9366e",
    4: "75d7b223548c0ee9b3500e4b238007d534699b2b9fbe59918c909a54b75309c6",
    8: "37a8b6d96f9923c49902e842bb89d717e806bb0ee224e5c247668a99d84cfae8",
    16: "e586b135ddc86eb77e019e7edc5679aef7637b7b5f5f8578c2eeb85db19323ba",
    32: "c42fc558af9e7cb57a68793250b2db21201f48eb1abef7e8c57e650996c47857",
}


def test_step_path_is_pinned():
    assert _step_digests() == STEP_DIGESTS


def test_every_step_ends_in_a_shared_outcome(monkeypatch):
    """Every outcome either model returns is golden.RETIRED or one of the
    golden.HALT values, the very object, over every mnemonic's sweep
    operands at widths 1 and 32, the 72 kernel cells, 20 torture programs
    and a step that ends in each halt reason.

    And one retire rule holds on both: a step is charged exactly when it
    retires, which is when it ends in RETIRED, ebreak or ecall; a step
    that halts leaves pc and the registers as they were (ebreak and ecall
    write neither)."""
    shared = {id(out) for out in (golden.RETIRED, *golden.HALT.values())}
    retiring = {id(golden.RETIRED), id(golden.HALT[golden.EBREAK]),
                id(golden.HALT[golden.ECALL])}
    reasons = {"core": set(), "golden": set()}

    def seen(model, out, state, before):
        assert id(out) in shared, (model, out)
        reasons[model].add(out.reason)
        if out.halted:
            assert (state.pc, state.regs) == before, (model, out)

    step, execute = MicroCore.step, golden.execute

    def core_step(self, *args, **kwargs):
        # every core step here is a plain one, a single instruction
        before = self.arch.pc, self.arch.regs[:]
        charged, out, ins = result = step(self, *args, **kwargs)
        seen("core", out, self.arch, before)
        assert (charged > 0) == (ins is not None and id(out) in retiring), \
            (charged, out, ins)
        return result

    def golden_execute(state, *args):
        before = state.pc, state.regs[:]
        out = execute(state, *args)
        seen("golden", out, state, before)
        return out

    monkeypatch.setattr(MicroCore, "step", core_step)
    monkeypatch.setattr(golden, "execute", golden_execute)

    # the sweep: the core at two widths, golden once
    for width in (1, 32):
        assert _sweep_digest(width) == SWEEP_DIGESTS[width]
    ref = ArchState()
    ref.mem.buf[:0x2000] = random.Random(9).randbytes(0x2000)
    for m in M:
        imm_of = _IMM_OF_FMT.get(isa.ENCODINGS[m].fmt, lambda b: 0)
        for a, b in _sweep_operands():
            ref.pc, ref.regs[1], ref.regs[2] = 0x1000, a, b
            ref.mem.store(0x1000, 4, instr(m, rd=5, rs1=1, rs2=2, imm=imm_of(b),
                                           bs=b & 3).raw)
            golden.step(ref)

    # the kernel cells, and golden's run of each kernel build
    cells = 0
    for kernel in bench.KERNELS.values():
        for variant, exts in bench.EXTS.items():
            kp = kernel.build(variant)
            for w in WIDTHS:
                bench.run_kernel(kp, CoreConfig(serial_width=w, extensions=exts))
                cells += 1
            ref = ArchState.from_image(kp.image)
            while not golden.step(ref, exts).halted:
                pass
    assert cells == 72

    # 20 torture programs, step by step on the core, recorded on golden
    assert _step_digests() == STEP_DIGESTS
    for seed in range(20):
        cosim._golden_run(cosim.generate(cosim.TortureConfig(seed=seed)),
                          isa.ZKN, 200_000)

    # a step that ends in each halt reason, at a width that chunks
    for pc, word, exts in [
            (0x1000, instr(M.EBREAK).raw, isa.ZKN),
            (0x1000, instr(M.ECALL).raw, isa.ZKN),
            (0x1000, 0, isa.ZKN),  # no RV32 instruction is all zeros
            (0x1000, instr(M.AES32ESI, rd=1, rs1=2, rs2=3, bs=0).raw, frozenset()),
            (0x1002, instr(M.ADDI, rd=1, rs1=1, imm=1).raw, isa.ZKN),
            (0x1000, instr(M.LH, rd=1, rs1=0, imm=0x201).raw, isa.ZKN),
            (0x1000, instr(M.SW, rs1=0, rs2=1, imm=0x202).raw, isa.ZKN)]:
        ref, arch = ArchState(pc=pc), ArchState(pc=pc)
        for state in (ref, arch):
            state.mem.store(0x1000, 4, word)
        golden.step(ref, exts)
        MicroCore(CoreConfig(serial_width=4, extensions=exts), arch).step()
    MicroCore(CoreConfig(serial_width=4), ArchState(pc=0x1000)).step(0)

    assert reasons["core"] == {None, *golden.HALT}
    assert reasons["golden"] == {None, *golden.HALT} - {golden.MAX_STEPS}


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
