import contextlib
import hashlib
import json
import random
import struct

import pytest

import mutants
import oracles
from test_bench import FULL_SUITE_JSON_SHA256, full_suite_json_sha256
from test_microarch import KNOB_SETS
from serialrv import bench, cosim, golden, isa, microarch
from serialrv.cosim import (MEMORY_WINDOW, TortureConfig, cosim_run, generate,
                            signature)
from serialrv.golden import ArchState, Memory
from serialrv.image import DEFAULT_BASE
from serialrv.isa import Ext, Mnemonic as M
from serialrv.microarch import CoreConfig


WIDTHS = (1, 2, 4, 8, 16, 32)


def test_generation_deterministic():
    tc = TortureConfig(seed=42)
    assert generate(tc) == generate(tc)


def test_generated_words_all_decode():
    tc = TortureConfig(seed=3)
    img = generate(tc)
    wbase = MEMORY_WINDOW[0]
    for off in range(0, len(img.data), 4):
        addr = img.base + off
        word = int.from_bytes(img.data[off:off + 4], "little")
        if addr < wbase and word != 0:
            isa.decode(word)  # must not raise


def test_extension_filter():
    tc = TortureConfig(seed=5, extensions=frozenset())
    img = generate(tc)
    wbase = MEMORY_WINDOW[0]
    for off in range(0, len(img.data), 4):
        if img.base + off >= wbase:
            break
        word = int.from_bytes(img.data[off:off + 4], "little")
        if word:
            m = isa.decode(word).mnemonic
            assert isa.EXT_OF[m] is Ext.RV32I, m


def test_instret_bounds():
    tc = TortureConfig(seed=7, length=200)
    rep = cosim_run(tc, CoreConfig.zkn_zkt(32))
    assert rep.passed
    # prologue (~61) + >=200 body + 31 dump stores; shadows add a bounded amount
    assert rep.instret >= 200
    assert rep.instret <= 200 + 3 * 200 + 62 + 32


def test_memory_traffic_stays_in_window():
    tc = TortureConfig(seed=11)
    img = generate(tc)
    state = ArchState.from_image(img)
    base, size = MEMORY_WINDOW
    snapshot_lo = state.mem.read_bytes(0, img.base)
    while not golden.step(state).halted:
        pass
    # nothing below the image or beyond the window was touched
    assert state.mem.read_bytes(0, img.base) == snapshot_lo
    assert not state.mem.sparse


def test_generator_output_pinned():
    # sha256 of the first 50 default programs, as generated before the
    # generator's hot spots were trimmed; any change to the stream shows here
    h = hashlib.sha256()
    for s in range(50):
        img = generate(TortureConfig(seed=s))
        h.update(f"{img.base} {img.entry} {img.code_size} {len(img.data)}\n".encode())
        h.update(img.data)
    assert h.hexdigest() == "657d1d0f056c49269a9ebea972facd698a5ed22c6fb54a94b4fe17d5c0f0541f"


def test_generator_output_pinned_across_lengths_and_extensions():
    # the same pin over short, mid and long programs and over pools with no
    # extension, one extension and all of Zkn, so a change to how draws are
    # taken must keep every stream, not only the default one
    h = hashlib.sha256()
    for length in (1, 37, 500):
        for exts in (frozenset(), frozenset({Ext.ZBKB}), isa.ZKN):
            for s in range(8):
                img = generate(TortureConfig(seed=s, length=length, extensions=exts))
                tag = ",".join(sorted(e.value for e in exts))
                h.update(f"{length} {tag} {s} {img.entry} {len(img.data)}\n".encode())
                h.update(img.data)
    assert h.hexdigest() == "2e8e21cd5c4016a91596a3bf6d0e8d6f6036e9f2198e99f6a3ec2e55c06ade40"


def test_generator_pins_come_from_the_draw_rule(monkeypatch):
    """Both generator pins again, with Random's own below-n draw raising:
    the pinned streams are the ones cosim's draw rule takes from
    getrandbits, and no draw goes through choice or randrange."""
    def no_randbelow(self, n):
        raise AssertionError(f"generate drew below {n} through Random")
    monkeypatch.setattr(random.Random, "_randbelow", no_randbelow)
    with pytest.raises(AssertionError, match="below 5 through Random"):
        random.Random(0).randrange(5)
    test_generator_output_pinned()
    test_generator_output_pinned_across_lengths_and_extensions()


def test_generated_instrs_equal_their_decode():
    """cosim puts the generator's Instrs in the decode cache in place of
    decoding its words, so each must be what decode gives for its word,
    and every instruction word of the program must have one."""
    ebreak = isa.encode(isa.Instr(M.EBREAK))
    for length in (1, 37, 500):
        for exts in (frozenset(), frozenset({Ext.ZBKB}), isa.ZKN):
            for s in range(8):
                cached = {}
                img = generate(TortureConfig(seed=s, length=length,
                                             extensions=exts), cached)
                assert img == generate(TortureConfig(seed=s, length=length,
                                                     extensions=exts))
                code = set()
                for (word,) in struct.iter_unpack("<I", img.data):
                    code.add(word)
                    if word == ebreak:
                        break
                assert set(cached) == code
                for word, ins in cached.items():
                    assert isa.decode(word) == ins


def test_overlong_program_rejected():
    with pytest.raises(cosim.ProgramTooLong, match="scratch window at 0x2000"):
        generate(TortureConfig(seed=0, length=2000))


def test_program_that_overruns_the_window_once_assembled_rejected():
    """A length that passes the up-front bound but whose branches and
    li forms push the code past the window is rejected after assembly."""
    room = (MEMORY_WINDOW[0] - 0x1000) // 4
    assert 900 <= room
    with pytest.raises(cosim.ProgramTooLong, match=(
            "length 900 runs to 0x22e0, past the scratch window at 0x2000")):
        generate(TortureConfig(seed=0, length=900))


def _no_slot(*args):
    raise AssertionError("generate emitted a slot")


def test_overlong_program_rejected_before_generating(monkeypatch):
    """A length past the words between the code base and the window can
    never fit, so it is rejected before any slot is generated."""
    monkeypatch.setattr(cosim, "_random_non_branch", _no_slot)
    room = (MEMORY_WINDOW[0] - 0x1000) // 4
    for length in (room + 1, 10**8):
        with pytest.raises(cosim.ProgramTooLong, match="scratch window at 0x2000"):
            generate(TortureConfig(seed=0, length=length))


@pytest.mark.parametrize("seed,length,needs", [
    pytest.param(0, 0, "length >= 1", id="0"),
    pytest.param(0, -5, "length >= 1", id="-5"),
    # Random seeds with the absolute value, so -3 would run seed 3's program
    pytest.param(-3, 200, "seed >= 0", id="seed-3"),
])
def test_nonpositive_length_rejected(seed, length, needs):
    tc = TortureConfig(seed=seed, length=length)
    for call in (lambda: generate(tc),
                 lambda: cosim_run(tc, CoreConfig.zkn_zkt(4)),
                 lambda: cosim.run_matrix(range(seed, seed + 1), (4,),
                                          length=length)):
        with pytest.raises(ValueError, match=needs) as exc:
            call()
        assert not isinstance(exc.value, cosim.ProgramTooLong)


# --- signature -------------------------------------------------------------------

def test_signature_of_reset_state_pinned():
    state = ArchState(pc=0)
    # FNV-1a-64 of 31 zero words, computed with an independent implementation
    want = f"{oracles.fnv1a64(bytes(124)):016x}"
    assert signature(state, (0x2000, 0)) == want


def test_signature_equal_states():
    s1, s2 = ArchState(), ArchState()
    s1.regs[5] = s2.regs[5] = 0xABCD
    assert signature(s1, (0, 64)) == signature(s2, (0, 64))


def test_signature_single_bit_sensitivity():
    rng = random.Random(13)
    base = ArchState()
    ref = signature(base, (0x2000, 64))
    diffs = 0
    for _ in range(1000):
        s = ArchState()
        reg = rng.randrange(1, 32)
        bit = rng.randrange(32)
        s.regs[reg] = 1 << bit
        if signature(s, (0x2000, 64)) != ref:
            diffs += 1
    assert diffs == 1000


def test_signature_covers_window_memory():
    s = ArchState()
    ref = signature(s, (0x2000, 64))
    s.mem.store(0x2000 + 63, 1, 1)
    assert signature(s, (0x2000, 64)) != ref
    s2 = ArchState()
    s2.mem.store(0x2000 + 64, 1, 1)  # just outside
    assert signature(s2, (0x2000, 64)) == ref


# --- lockstep -------------------------------------------------------------------

def test_width32_always_passes():
    rep = cosim_run(TortureConfig(seed=100), CoreConfig.zkn_zkt(32))
    assert rep.passed and rep.sig_micro == rep.sig_golden


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32])
def test_all_widths_one_seed(width):
    rep = cosim_run(TortureConfig(seed=20), CoreConfig.zkn_zkt(width))
    assert rep.passed, (rep.divergence_pc, rep.divergence_field)


def test_cross_width_signatures_identical():
    sigs = {cosim_run(TortureConfig(seed=33), CoreConfig.zkn_zkt(w)).sig_micro
            for w in (1, 2, 4, 8, 16, 32)}
    assert len(sigs) == 1


def test_corrupted_micro_model_detected():
    """Harness self-test: break the micro adder, expect a divergence."""
    with mutants.broken_adder():
        rep = cosim_run(TortureConfig(seed=1), CoreConfig.zkn_zkt(4))
    assert not rep.passed
    assert rep.divergence_pc is not None
    assert rep.divergence_field.startswith("x") or rep.divergence_field == "pc"


@pytest.mark.parametrize("fault,field,pc", [
    (mutants.beq_as_bne, "pc", 0x13EC),
    (mutants.ebreak_as_ecall, "halt-reason", 0x1554),  # the final ebreak
], ids=["beq-as-bne", "ebreak-as-ecall"])
def test_core_control_fault_diverges(fault, field, pc):
    with fault():
        rep = cosim_run(TortureConfig(seed=1), CoreConfig.zkn_zkt(4))
    assert not rep.passed
    assert (rep.divergence_pc, rep.divergence_field) == (pc, field)
    d = rep.to_json_dict()
    assert d["pass"] is False
    assert (d["divergence_pc"], d["divergence_field"]) == (f"0x{pc:08x}", field)


def _knob_set_failures():
    """(seed, width, knob set) of every failing cosim cell over 40 seeds,
    six widths and the three knob sets."""
    return [(seed, width, knobs)
            for seed in range(40) for knobs in sorted(KNOB_SETS)
            for width in WIDTHS
            if not cosim_run(TortureConfig(seed=seed),
                             CoreConfig(serial_width=width, **KNOB_SETS[knobs])).passed]


def test_cosim_passes_under_every_knob_set():
    """Both models agree at every width under each knob set, not only
    under the default knobs."""
    assert _knob_set_failures() == []


def test_knob_set_cosim_kills_the_emulated_shift_mutant():
    """A result fault on the emulated left shift, which no default-knob
    cell reaches, fails cells of the knob set that emulates left shifts,
    and the fault leaves the shared bindings as it found them (as every
    fault does: `test_a_fault_leaves_the_shared_bindings_as_it_found_them`)."""
    cached = microarch._binding.cache_info()
    with mutants.sll_by_3_masked_as_by_4():
        failures = _knob_set_failures()
    assert failures and {knobs for _, _, knobs in failures} == {"knobs"}
    assert microarch._binding.cache_info() == cached


def test_cosim_misses_a_funct3_swap_that_encode_and_decode_share():
    """A known gap: the generator, golden and the core all encode and
    decode through the one table, so a funct3 misread there changes the
    programs and still passes every cell. The spec's layouts in
    tests/test_isa.py are what see it."""
    seeds = range(2)
    clean = [generate(TortureConfig(seed=s)) for s in seeds]
    with mutants.swapped_funct3(M.SLTI, M.SLTIU):
        assert all(generate(TortureConfig(seed=s)) != image
                   for s, image in zip(seeds, clean))
        reports = cosim.run_matrix(seeds, WIDTHS)
    assert len(reports) == 12 and all(r.passed for r in reports)


def test_report_json_shape():
    rep = cosim_run(TortureConfig(seed=2), CoreConfig.zkn_zkt(16))
    d = rep.to_json_dict()
    assert set(d) == {"seed", "width", "extensions", "pass",
                      "sig_micro", "sig_golden"}
    assert list(rep.extensions) == sorted(rep.extensions) == d["extensions"]
    json.dumps(d)


def test_matrix_helper():
    reports = cosim.run_matrix(range(3), (8, 32))
    assert len(reports) == 6
    assert all(r.passed for r in reports)


# --- trace replay -------------------------------------------------------------------

def _lockstep(img, core, max_steps=200_000):
    """Step golden and the core side by side on `img`, comparing pc and all
    32 registers after every step, and the outcome of the halting step,
    then at that step the console bytes and the exit code. Returns
    (golden state, core, instret, divergence or None)."""
    gold = ArchState.from_image(img)
    micro = microarch.MicroCore(core, ArchState.from_image(img))
    exts = frozenset(core.extensions) - {Ext.ZKT}
    divergence = None
    instret = 0
    for _ in range(max_steps):
        pc = gold.pc
        g_out = golden.step(gold, exts)
        _, m_out, _ = micro.step()
        if micro.arch.pc != gold.pc:
            divergence = (pc, "pc")
            break
        if micro.arch.regs != gold.regs:
            i = next(i for i in range(32) if micro.arch.regs[i] != gold.regs[i])
            divergence = (pc, f"x{i}")
            break
        if g_out.halted or m_out.halted:
            if g_out != m_out:
                divergence = (pc, "halt-reason")
            elif micro.arch.mem.console != gold.mem.console:
                divergence = (pc, "console")
            elif micro.arch.mem.exit_code != gold.mem.exit_code:
                divergence = (pc, "exit")
            break
        instret += 1
    else:
        divergence = (gold.pc, "no-halt")
    return gold, micro, instret, divergence


def _lockstep_oracle(torture, core, max_steps=200_000):
    """cosim_run as a plain lockstep loop: both models are stepped side by
    side, with nothing recorded or shared between widths."""
    gold, micro, instret, divergence = _lockstep(generate(torture), core,
                                                 max_steps)
    sig_g = signature(gold, MEMORY_WINDOW)
    sig_m = signature(micro.arch, MEMORY_WINDOW)
    return cosim.CosimReport(
        seed=torture.seed, width=core.serial_width,
        extensions=tuple(sorted(e.value for e in core.extensions)),
        passed=divergence is None and sig_g == sig_m,
        sig_micro=sig_m, sig_golden=sig_g,
        divergence_pc=divergence[0] if divergence else None,
        divergence_field=divergence[1] if divergence else None,
        instret=instret, cycles=micro.cycle)


def test_every_bench_kernel_cell_runs_in_lockstep():
    """Both models agree after every step of all 72 bench cells, side by
    side and in cosim's replay of golden's recorded run, and both write
    the kernel's expected output. The kernels hold loops, backward
    branches and table loads, which the generator never emits."""
    cells = 0
    for name, kernel in bench.KERNELS.items():
        for variant, exts in bench.EXTS.items():
            kp = kernel.build(variant)
            trace = cosim._golden_run(kp.image, exts, cosim.MAX_STEPS)
            for w in WIDTHS:
                core = CoreConfig(serial_width=w, extensions=exts)
                rep = cosim.lockstep(trace, core)
                assert rep.passed, (name, variant, w, rep)
                gold, micro, _, divergence = _lockstep(kp.image, core)
                assert divergence is None, (name, variant, w, divergence)
                out = gold.mem.read_bytes(kp.out_addr, kp.out_len)
                assert out == micro.arch.mem.read_bytes(kp.out_addr, kp.out_len)
                assert out == kp.expected, (name, variant, w)
                cells += 1
    assert cells == 72


def _mmio_image():
    """A program that stores to both MMIO words and then halts on ebreak."""
    a = isa.Assembler()
    a.li(1, golden.CONSOLE_ADDR)
    a.li(2, 0x48)
    a.emit(M.SW, rs1=1, rs2=2, imm=0)
    a.li(2, 7)
    a.emit(M.SW, rs1=1, rs2=2, imm=golden.EXIT_ADDR - golden.CONSOLE_ADDR)
    a.emit(M.EBREAK)
    return a.build()


@pytest.mark.parametrize("fault,field", [
    (None, None),
    (golden.CONSOLE_ADDR, "console"),
    (golden.EXIT_ADDR, "exit"),
], ids=["clean", "console", "exit"])
def test_lockstep_compares_the_console_and_the_exit_code_at_the_end(fault, field):
    """A core store that flips bit 0 of the word written to one MMIO word
    leaves every register and the window as golden's, and the replay ends
    on the ebreak that golden halts on: lockstep and its oracle name the
    MMIO word at the pc of that last step."""
    image = _mmio_image()
    trace = cosim._golden_run(image, isa.ZKN, cosim.MAX_STEPS)
    assert (trace.console, trace.exit_code) == (b"H", 7)
    core = CoreConfig.zkn_zkt(4)
    with mutants.flipped_store(fault) if fault else contextlib.nullcontext():
        rep = cosim.lockstep(trace, core)
        _, _, _, oracle = _lockstep(image, core)
    ebreak_pc = image.base + len(image.data) - 4
    want = (ebreak_pc, field) if field else None
    got = (rep.divergence_pc, rep.divergence_field) if rep.divergence_field else None
    assert got == oracle == want and rep.passed is (want is None)


def test_every_benchmark_program_lies_in_the_dense_window():
    """Every bench kernel build, and the torture layout from the load
    address to the scratch window's end, lie inside the dense window at
    address 0. So every core the benchmark workloads run fetches each
    word straight from the window, the path the step frame is built
    for, and never through the memory port."""
    for name, kernel in bench.KERNELS.items():
        for variant in bench.EXTS:
            image = kernel.build(variant).image
            assert image.base + len(image.data) <= golden.WINDOW_SIZE, (name, variant)
    assert DEFAULT_BASE < sum(MEMORY_WINDOW) <= golden.WINDOW_SIZE


def test_replay_matches_lockstep_oracle():
    for seed in range(10):
        tc = TortureConfig(seed=seed)
        for w in WIDTHS:
            rep = cosim_run(tc, CoreConfig.zkn_zkt(w))
            assert rep.passed
            assert rep == _lockstep_oracle(tc, CoreConfig.zkn_zkt(w))


# every fault of tests/mutants.py that only the core carries, each with
# the knob set under which it shows: a result, store, control, halt or
# timing fault. The two common-mode faults, swapped_funct3 and
# big_endian_half_store, change both models at once, and their own tests
# pin that every cosim cell still passes.
REPLAY_FAULTS = {
    "broken-adder": (mutants.broken_adder, "zkt"),
    "flipped-store": (mutants.flipped_store, "zkt"),
    "flipped-x31-dump": (mutants.flipped_x31_dump, "zkt"),
    "stray-pack-write": (lambda: mutants.stray_register_write(M.PACK, 5), "zkt"),
    "beq-as-bne": (mutants.beq_as_bne, "zkt"),
    "ebreak-as-ecall": (mutants.ebreak_as_ecall, "zkt"),
    "short-transfer-penalty": (mutants.short_transfer_penalty, "zkt"),
    "fetch-stall-dropped": (mutants.fetch_stall_dropped, "zkt"),
    "sll-by-3-masked-as-by-4": (mutants.sll_by_3_masked_as_by_4, "knobs"),
}


@pytest.mark.parametrize("name", sorted(REPLAY_FAULTS))
def test_a_fault_leaves_the_shared_bindings_as_it_found_them(name):
    """A fault's cores bind their records uncached, so a fault neither
    reads nor adds a cached binding, and a core built after it shares the
    cached records and runs clean: add adds and sw stores its value."""
    fault, knobs = REPLAY_FAULTS[name]
    config = CoreConfig(serial_width=4, **KNOB_SETS[knobs])

    def core():
        state = ArchState(pc=0x1000)
        state.regs[1:4] = [0x200, 7, 5]
        for off, i in enumerate((isa.instr(M.ADD, rd=4, rs1=2, rs2=3),
                                 isa.instr(M.SW, rs1=1, rs2=4, imm=0))):
            state.mem.store(0x1000 + 4 * off, 4, i.raw)
        return microarch.MicroCore(config, state)

    before = core()
    cached = microarch._binding.cache_info()
    with fault():
        assert core()._bound is not before._bound
        cosim_run(TortureConfig(seed=1), config)
    assert microarch._binding.cache_info() == cached
    after = core()
    assert after._bound is before._bound
    assert [after.step()[1] for _ in range(2)] == [golden.RETIRED] * 2
    assert after.arch.regs[4] == 12 and after.arch.mem.load(0x200, 4) == 12


# faults that fail every cell of seeds 1 and 2: {name: only the signature
# sees it}
FIELD_IS_NONE = {"broken-adder": False, "flipped-x31-dump": True}


def test_replay_matches_oracle_on_divergence():
    """The replay's report equals the lockstep oracle's, field for field,
    under each fault: divergence pc and field, instret, cycles and both
    signatures. sig_golden describes the golden state at the divergence,
    not at halt; sig_micro hashes the core's own final state whenever its
    window differs from the golden one. Between them the faults end
    cells on every field the replay classifies."""
    fields = set()
    for name, (fault, knobs) in REPLAY_FAULTS.items():
        with fault():
            for seed in (1, 2):
                tc = TortureConfig(seed=seed)
                for w in (1, 4, 32):
                    core = CoreConfig(serial_width=w, **KNOB_SETS[knobs])
                    rep = cosim_run(tc, core)
                    assert rep == _lockstep_oracle(tc, core), (name, seed, w)
                    fields.add(rep.divergence_field and
                               rep.divergence_field.rstrip("0123456789"))
                    if name in FIELD_IS_NONE:
                        assert not rep.passed
                        assert rep.sig_micro != rep.sig_golden
                        assert ((rep.divergence_field is None)
                                is FIELD_IS_NONE[name])
    assert fields == {"pc", "x", "halt-reason", None}


def test_replay_matches_oracle_without_halt():
    """A trace cut off by golden's step budget, down to a single step,
    reports no-halt at the pc golden reached after its last step: the
    program's prologue is straight-line code."""
    tc = TortureConfig(seed=4)
    image = generate(tc)
    for max_steps in (1, 2, 3, 50):
        for w in WIDTHS:
            core = CoreConfig.zkn_zkt(w)
            trace = cosim._golden_run(image, core.extensions, max_steps)
            rep = cosim.lockstep(trace, core, tc.seed)
            assert rep.divergence_field == "no-halt"
            assert rep.instret == max_steps
            assert rep.divergence_pc == image.entry + 4 * max_steps
            assert rep == _lockstep_oracle(tc, core, max_steps=max_steps)


def _replay_core(img):
    """A core on `img` and golden's deltas of it."""
    trace = cosim._golden_run(img, isa.ZKN, 200_000)
    return microarch.MicroCore(CoreConfig.zkn_zkt(4),
                               ArchState.from_image(img)), trace.steps


def test_replay_step_returns_what_a_single_step_returns():
    """step(expect=...) returns (charged, outcome, Instr or None) like a
    single step, of the last step it ran: perfbench's tracer unpacks these
    three from every MicroCore.step call."""
    micro, deltas = _replay_core(generate(TortureConfig(seed=1)))
    result = micro.step(expect=(deltas, micro.arch.regs[:]))
    assert type(result) is tuple and len(result) == 3
    charged, outcome, ins = result
    assert type(charged) is int and charged >= 1
    assert type(outcome) is golden.StepOutcome and outcome.reason == golden.EBREAK
    assert type(ins) is isa.Instr and ins.mnemonic is M.EBREAK
    assert sum(n for n, _ in micro.retired().values()) == len(deltas)

    a = isa.Assembler()
    a.emit(M.ADDI, rd=1, rs1=0, imm=5)
    a.data(bytes(4))  # an illegal word
    micro, deltas = _replay_core(a.build())
    assert micro.step(expect=(deltas, micro.arch.regs[:])) == (
        0, golden.StepOutcome(True, golden.ILLEGAL), None)


def test_replay_budget_halt_leaves_what_single_steps_leave():
    """A cycle budget that runs out inside the replay halts it with
    max-steps and the last retired state, as single steps under the same
    budget do: only the core's first step takes back its fill."""
    img = generate(TortureConfig(seed=1))
    for budget in (1, 2, 40):
        micro, deltas = _replay_core(img)
        _, outcome, _ = micro.step(budget, expect=(deltas, micro.arch.regs[:]))
        ref = microarch.MicroCore(CoreConfig.zkn_zkt(4), ArchState.from_image(img))
        while not ref.step(budget)[1].halted:
            pass
        assert outcome.reason == golden.MAX_STEPS
        assert micro.retired() == ref.retired()
        assert (micro.cycle, micro.startup_cycles, micro.arch.pc) == (
            ref.cycle, ref.startup_cycles, ref.arch.pc)
        assert micro.arch.regs == ref.arch.regs


def test_replay_stops_at_the_first_step_unlike_golden():
    """The replay runs one step per delta and stops at the first whose
    registers differ from golden's, having compared all 32 after each."""
    micro, deltas = _replay_core(generate(TortureConfig(seed=1)))
    pc, rd, value = deltas[9]
    wrong = deltas[:9] + ((pc, rd, value ^ 1),) + deltas[10:]
    _, outcome, _ = micro.step(expect=(wrong, micro.arch.regs[:]))
    assert outcome is golden.RETIRED
    assert sum(n for n, _ in micro.retired().values()) == 10


def _first_executed(img, m, exts):
    """The pc and rd of the first `m` that golden executes in `img`."""
    gold = ArchState.from_image(img)
    while True:
        ins = isa.decode(gold.mem.load(gold.pc, 4))
        if ins.mnemonic is m:
            return gold.pc, ins.rd
        assert not golden.step(gold, exts).halted


def test_stray_register_write_fails_at_its_instruction():
    """Each step compares all 32 registers, not only the step's rd."""
    tc = TortureConfig(seed=1)
    pc, rd = _first_executed(generate(tc), M.PACK, tc.extensions)
    victim = 1 if rd != 1 else 2
    with mutants.stray_register_write(M.PACK, victim):
        reports = [cosim_run(tc, CoreConfig.zkn_zkt(w)) for w in WIDTHS]
    for rep in reports:
        assert not rep.passed
        assert (rep.divergence_pc, rep.divergence_field) == (pc, f"x{victim}")


def test_stray_write_caught_though_both_models_overwrite_it():
    """The stray write is gone by the end, and the instruction's own rd is
    right at every step, so only a compare of every register sees it."""
    a = isa.Assembler()
    a.li(5, 7)
    pack_pc = a.here
    a.emit(M.PACK, rd=1, rs1=2, rs2=3)
    a.emit(M.ADDI, rd=5, rs1=0, imm=9)  # both models overwrite x5
    a.emit(M.EBREAK)
    img = a.build()
    core = CoreConfig.zkn_zkt(4)
    trace = cosim._golden_run(img, core.extensions, 200_000)
    with mutants.stray_register_write(M.PACK, 5):
        rep = cosim.lockstep(trace, core)
        assert not rep.passed
        assert (rep.divergence_pc, rep.divergence_field) == (pack_pc, "x5")

        # what a compare of rd alone, or of the final state, would have seen
        micro = microarch.MicroCore(core, ArchState.from_image(img))
        for _, rd, value in trace.steps:
            micro.step()
            assert micro.arch.regs[rd] == value
    assert trace.outcome.halted
    assert signature(micro.arch, MEMORY_WINDOW) == trace.signature


def test_delta_names_the_register_of_the_word_before_the_step():
    """A store that overwrites its own word with an addi still records
    rd = 0: the delta's rd is bits 7-11 of the word that golden executed,
    which in this sw hold its immediate's low bits, 0, and in the addi
    would have held 7."""
    a = isa.Assembler()
    store_pc = a.base + 16
    a.li(6, store_pc)  # two words
    a.li(5, isa.encode(isa.Instr(M.ADDI, rd=7, rs1=0, imm=1)))  # two words
    a.emit(M.SW, rs1=6, rs2=5, imm=0)
    a.emit(M.EBREAK)
    trace = cosim._golden_run(a.build(), isa.ZKN, 200_000)
    assert [rd for _, rd, _ in trace.steps] == [6, 6, 5, 5, 0, 0]
    assert all(cosim.lockstep(trace, CoreConfig.zkn_zkt(w)).passed
               for w in WIDTHS)


def test_illegal_word_records_rd_zero():
    """A program that ends on an illegal word halts both models on it: the
    trace records the word's bits 7-11, here 0, as that step's rd, and the
    cell passes at every width."""
    a = isa.Assembler()
    a.emit(M.ADDI, rd=1, rs1=0, imm=5)
    a.word(0)  # no RV32 instruction is all zeros
    img = a.build()
    trace = cosim._golden_run(img, isa.ZKN, 200_000)
    assert [rd for _, rd, _ in trace.steps] == [1, 0]
    assert golden.step(ArchState.from_image(img)) is golden.RETIRED
    assert trace.outcome == golden.StepOutcome(True, golden.ILLEGAL)
    assert all(cosim.lockstep(trace, CoreConfig.zkn_zkt(w)).passed
               for w in WIDTHS)


def test_delta_register_is_the_word_rd_field():
    """A word that writes no register records the register in its bits
    7-11 and that register's unchanged value: a store's immediate bits, a
    branch's offset bits, an illegal word's ones. The cell passes at every
    width, and a stray write to the register a store's bits name is still
    caught at the store."""
    a = isa.Assembler()
    a.li(6, 0x2000)                        # lui: rd 6
    sb_pc = a.here
    a.emit(M.SB, rs1=6, rs2=5, imm=13)     # imm[4:0] = 13
    a.emit(M.ADDI, rd=13, rs1=13, imm=13)  # writes x13
    a.emit(M.SB, rs1=6, rs2=13, imm=13)
    a.emit(M.BEQ, rs1=0, rs2=1, imm=8)     # taken; imm[4:1|11] = 8
    a.emit(M.ADDI, rd=8, rs1=0, imm=1)     # skipped
    a.word(0xFFFFFFFF)                     # illegal: halts both models
    trace = cosim._golden_run(a.build(), isa.ZKN, 200_000)
    assert [rd for _, rd, _ in trace.steps] == [6, 13, 13, 13, 8, 31]
    assert trace.outcome == golden.StepOutcome(True, golden.ILLEGAL)
    assert all(cosim.lockstep(trace, CoreConfig.zkn_zkt(w)).passed
               for w in WIDTHS)
    with mutants.stray_register_write(M.SB, 13):
        for w in WIDTHS:
            rep = cosim.lockstep(trace, CoreConfig.zkn_zkt(w))
            assert (rep.divergence_pc, rep.divergence_field) == (sb_pc, "x13")


def _assert_deltas_replay_golden(img, exts):
    trace = cosim._golden_run(img, exts, 200_000)
    gold = ArchState.from_image(img)
    regs = [0] * 32
    outs = []
    for pc, rd, value in trace.steps:
        outs.append(golden.step(gold, exts))
        regs[rd] = value
        assert (gold.pc, regs) == (pc, gold.regs)
    assert all(out is golden.RETIRED for out in outs[:-1])
    assert outs[-1] == trace.outcome and trace.outcome.halted


def test_deltas_replay_to_golden_registers_after_every_step():
    """The deltas, applied in order to the reset registers, give a plain
    golden run's registers after every step, over every kernel image and
    50 torture programs."""
    for kernel in bench.KERNELS.values():
        for variant, exts in bench.EXTS.items():
            _assert_deltas_replay_golden(kernel.build(variant).image, exts)
    for seed in range(50):
        tc = TortureConfig(seed=seed)
        _assert_deltas_replay_golden(generate(tc), tc.extensions)


def test_reports_independent_of_loop_order():
    seeds = range(3)
    seeds_outer = {(s, w): cosim_run(TortureConfig(seed=s), CoreConfig.zkn_zkt(w))
                   for s in seeds for w in WIDTHS}
    widths_outer = {(s, w): cosim_run(TortureConfig(seed=s), CoreConfig.zkn_zkt(w))
                    for w in WIDTHS for s in seeds}
    assert seeds_outer == widths_outer


def test_matrix_leaves_one_program_in_the_decode_cache(monkeypatch):
    """Cosim seeds the decode cache with one program's words: a matrix
    leaves only its last program's words there, whether the cache started
    empty or full of every kernel's words, and no report moves, even with
    the cache emptied before every cell's replay. The kernels then refill
    it on demand and still give the pinned bench JSON."""
    seeds, widths = range(300, 320), (1, 8, 32)
    cache = isa._DECODE_CACHE
    last_program: dict = {}
    generate(TortureConfig(seed=seeds[-1]), last_program)

    cache.clear()
    want = cosim.run_matrix(seeds, widths)
    assert cache.keys() == last_program.keys()

    bench.run_suite()
    assert not cache.keys() <= last_program.keys()
    assert cosim.run_matrix(seeds, widths) == want
    assert cache.keys() == last_program.keys()

    replay, cells = cosim.lockstep, []

    def replay_on_empty_cache(*args):
        cache.clear()
        cells.append(args[1].serial_width)
        return replay(*args)

    monkeypatch.setattr(cosim, "lockstep", replay_on_empty_cache)
    assert cosim.run_matrix(seeds, widths) == want
    assert cells == list(widths) * len(seeds)

    assert full_suite_json_sha256() == FULL_SUITE_JSON_SHA256


def test_corrupted_golden_model_detected(monkeypatch):
    """Harness self-test: break a golden semantic, expect a divergence."""
    original = golden.clmul_semantics
    monkeypatch.setattr(golden, "clmul_semantics",
                        lambda m, rs1, rs2: original(m, rs1, rs2) ^ 1)
    [rep] = cosim.run_matrix([1], (4,))
    assert not rep.passed
    assert rep.divergence_field.startswith("x")


def test_matrix_replays_the_trace_it_records(monkeypatch):
    """run_matrix records each seed's trace itself, under the code as it
    is: a golden fault made after a clean sweep fails every faulted cell,
    though cosim_run's memo holds the clean trace of the same cells, and
    the sweep neither reads nor fills that memo."""
    cosim_run(TortureConfig(seed=1, extensions=isa.ZKN_ZKT),
              CoreConfig.zkn_zkt(4))
    memo = cosim._golden_trace.cache_info()
    assert all(r.passed for r in cosim.run_matrix([1], WIDTHS))
    original = golden.clmul_semantics
    monkeypatch.setattr(golden, "clmul_semantics",
                        lambda m, rs1, rs2: original(m, rs1, rs2) ^ 1)
    reports = cosim.run_matrix([1], WIDTHS)
    assert [r.passed for r in reports] == [False] * len(WIDTHS)
    assert all(r.divergence_field.startswith("x") for r in reports)
    assert cosim._golden_trace.cache_info() == memo


def test_cosim_run_memoizes_one_trace():
    """cosim_run records a program's trace once for all its widths, and a
    later program takes the memo's one entry."""
    cosim._golden_trace.cache_clear()
    for seed in (1, 2):
        for w in WIDTHS:
            cosim_run(TortureConfig(seed=seed), CoreConfig.zkn_zkt(w))
    info = cosim._golden_trace.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 10, 1)


# the golden function that computes each scalar-crypto subset's values
_SEMANTICS_OF = {Ext.ZBKB: "zbkb_semantics", Ext.ZBKC: "clmul_semantics",
                 Ext.ZBKX: "xperm_semantics", Ext.ZKNE: "aes32_semantics",
                 Ext.ZKND: "aes32_semantics", Ext.ZKNH: "sha2_semantics"}


def _step_pcs(trace):
    """The pc before each step of a golden trace."""
    return [trace.image.entry] + [pc for pc, *_ in trace.steps[:-1]]


@pytest.mark.parametrize("name", sorted(set(_SEMANTICS_OF.values())))
def test_each_semantics_function_is_the_one_golden_source(monkeypatch, name):
    """Cosim reaches each family's semantics through the module global, so
    flipping bit 0 of its result is a divergence in an xN field; the
    program runs every family with an rd other than x0."""
    torture = TortureConfig(seed=1)
    trace = cosim._golden_run(generate(torture), torture.extensions, 200_000)
    image = trace.image
    ran = set()
    for pc in _step_pcs(trace):
        off = pc - image.base
        i = isa.decode(int.from_bytes(image.data[off:off + 4], "little"))
        if i.rd and isa.EXT_OF[i.mnemonic] in _SEMANTICS_OF:
            ran.add(_SEMANTICS_OF[isa.EXT_OF[i.mnemonic]])
    assert ran == set(_SEMANTICS_OF.values())

    original = getattr(golden, name)
    monkeypatch.setattr(golden, name, lambda *args: original(*args) ^ 1)
    [rep] = cosim.run_matrix([torture.seed], (4,))
    assert not rep.passed
    assert rep.divergence_field.startswith("x")


def test_golden_run_fetches_each_step_once(monkeypatch):
    """_golden_run reads the word at pc once per step: the size-4 loads
    outside the scratch window are exactly the step pcs, in order."""
    loads = []
    load = Memory.load

    def spy(mem, addr, size):
        loads.append((addr, size))
        return load(mem, addr, size)

    image = generate(TortureConfig(seed=3))
    monkeypatch.setattr(Memory, "load", spy)
    trace = cosim._golden_run(image, isa.ZKN, 200_000)
    monkeypatch.undo()
    base, size = MEMORY_WINDOW
    fetches = [a for a, n in loads if n == 4 and not base <= a < base + size]
    assert fetches == _step_pcs(trace) and len(fetches) == len(trace.steps)
