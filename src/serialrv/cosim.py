"""Randomized torture tests and lockstep comparison against the golden model.

Generated programs are forward-branch-only (guaranteed termination): every
branch targets a point 1..3 instructions ahead, so the instructions in its
shadow execute only when it falls through. Memory traffic is confined to a
scratch window addressed off a reserved base register.

Cosim is a trace, then a lockstep. The golden model's run of a program
does not depend on the core's width: `torture_trace` generates the
program and records golden's run once, as the register in each step's rd
field and its value after the step, with the last step's outcome, the
console bytes and the exit code kept once. `lockstep` then checks the
cycle-accurate core against that trace at one width, all 32 registers
after every step. Each replay runs in one core frame (`MicroCore.step`
with `expect`), which stops at the first step that halts or differs from
golden, or at the recording's end; lockstep then classifies that last
step once, and compares the console and the exit code after a clean
end. A core that ends the run with the recording's final registers and
window bytes reuses its signature instead of hashing.

run_matrix records each seed's trace once and hands it to lockstep at
every width. cosim_run, one cell, is lockstep over `_golden_trace`, a
one-entry memo of torture_trace; only cosim_run reads it.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Tuple

from . import golden, isa
from .golden import ArchState
from .image import DEFAULT_BASE, ProgramImage
from .isa import Assembler, Ext, Mnemonic as M
from .microarch import CoreConfig, MicroCore

SCRATCH_REG = 3  # holds the scratch window base for all loads/stores
MEMORY_WINDOW = (0x2000, 0x200)  # (base, size) of the scratch window
BRANCH_DENSITY = 0.1  # chance that a slot starts a branch or jal
MAX_STEPS = 200_000  # golden's step budget for one torture program

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class TortureConfig(NamedTuple):
    seed: int
    length: int = 200
    extensions: frozenset = isa.ZKN


class CosimReport(NamedTuple):
    seed: int
    width: int
    extensions: tuple
    passed: bool
    sig_micro: str
    sig_golden: str
    divergence_pc: Optional[int] = None
    divergence_field: Optional[str] = None
    # the steps before the one that ends the run. That step retires only
    # if it is ebreak or ecall, and ExecStats.instret counts it then, so
    # this leaves out a final ebreak (seed 0, width 4, Zkn+Zkt: 307 vs 308)
    instret: int = 0
    cycles: int = 0  # the core's cycle count at the end; not in the JSON

    def to_json_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "width": self.width,
            "extensions": list(self.extensions),
            "pass": self.passed,
            "sig_micro": self.sig_micro,
            "sig_golden": self.sig_golden,
        }
        if self.divergence_pc is not None:
            d["divergence_pc"] = f"0x{self.divergence_pc:08x}"
            d["divergence_field"] = self.divergence_field
        return d


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def signature(state: ArchState, window: Tuple[int, int]) -> str:
    """FNV-1a-64 over x1..x31 (little-endian words) then the window bytes."""
    h = fnv1a64(b"".join(r.to_bytes(4, "little") for r in state.regs[1:]))
    base, size = window
    h = fnv1a64(state.mem.read_bytes(base, size), h)
    return f"{h:016x}"


def _rv32i_of_fmt(fmt: str) -> tuple:
    return tuple(m for m, e in isa.EXT_OF.items()
                 if e is Ext.RV32I and isa.ENCODINGS[m].fmt == fmt)


# the one draw rule: a draw below n takes k = n.bit_length() random bits
# and draws again while they read n or more. CPython 3.11's choice() and
# randrange() draw by this rule, so the programs are the ones those calls
# drew. k is one bit more than a power of two needs (6 for n = 32, 13 for
# n = 4096); another k draws another stream, and every pin moves.
def _below(bits: Callable[[int], int], n: int) -> int:
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


# (mnemonic, format, mask that aligns a window offset to the access size)
# per mnemonic, the format naming its operand shape; the mask is -1 for a
# mnemonic that is no access
_SLOT_OF = {m: (m, enc.fmt, -isa.ACCESS_BYTES.get(m, 1))
            for m, enc in isa.ENCODINGS.items()}

# mnemonic pools the generator draws from, in enum order (as in EXT_OF)
_BRANCHES = _rv32i_of_fmt(isa.FMT_BRANCH)
_BASE_POOL = tuple(m for fmt in (isa.FMT_R, isa.FMT_I, isa.FMT_I_SHAMT,
                                 isa.FMT_LOAD, isa.FMT_STORE, isa.FMT_U,
                                 isa.FMT_FENCE)
                   for m in _rv32i_of_fmt(fmt))
_POOL_BY_EXT = {e: tuple(m for m, x in isa.EXT_OF.items() if x is e)
                for e in Ext if e in isa.ZKN}
# destination registers: any but the scratch base
_RD_CHOICES = tuple(r for r in range(32) if r != SCRATCH_REG)
_N_RD = len(_RD_CHOICES)
_K_RD = _N_RD.bit_length()  # the draw rule's k for an rd
_K_REG = (32).bit_length()  # and for a source register
# bound once, as each `M.X` load goes through EnumType.__getattr__
_JAL, _SW, _EBREAK = M.JAL, M.SW, M.EBREAK


def _build_pool(extensions: frozenset) -> tuple:
    """The `_SLOT_OF` entries of the mnemonics a program draws from."""
    pool = list(_BASE_POOL)
    for ext, mnems in _POOL_BY_EXT.items():
        if ext in extensions:
            pool.extend(mnems)
    return tuple(_SLOT_OF[m] for m in pool)


def _random_non_branch(emit: Callable, bits: Callable[[int], int],
                       pool: tuple, k_pool: int, wsize: int) -> None:
    # every slot draws a mnemonic, rd, rs1 and rs2, in that order and
    # whether or not its format uses them: the draw rule, inlined
    n = len(pool)
    r = bits(k_pool)
    while r >= n:
        r = bits(k_pool)
    m, fmt, align = pool[r]
    r = bits(_K_RD)
    while r >= _N_RD:
        r = bits(_K_RD)
    rd = _RD_CHOICES[r]
    rs1 = bits(_K_REG)
    while rs1 >= 32:
        rs1 = bits(_K_REG)
    rs2 = bits(_K_REG)
    while rs2 >= 32:
        rs2 = bits(_K_REG)
    # formats in the order of their share of the Zkn pool, compared by
    # identity as in encode
    if fmt is isa.FMT_R:
        emit(m, rd=rd, rs1=rs1, rs2=rs2)
    elif fmt is isa.FMT_UNARY:
        emit(m, rd=rd, rs1=rs1)
    elif fmt is isa.FMT_I:
        emit(m, rd=rd, rs1=rs1, imm=_below(bits, 4096) - 2048)
    elif fmt is isa.FMT_LOAD:
        emit(m, rd=rd, rs1=SCRATCH_REG, imm=_below(bits, wsize - 4) & align)
    elif fmt is isa.FMT_I_SHAMT:
        emit(m, rd=rd, rs1=rs1, imm=_below(bits, 32))
    elif fmt is isa.FMT_R_AES:
        emit(m, rd=rd, rs1=rs1, rs2=rs2, bs=_below(bits, 4))
    elif fmt is isa.FMT_STORE:
        emit(m, rs1=SCRATCH_REG, rs2=rs2, imm=_below(bits, wsize - 4) & align)
    elif fmt is isa.FMT_U:
        emit(m, rd=rd, imm=_below(bits, 1 << 20))
    else:
        emit(m)  # fence


class ProgramTooLong(ValueError):
    """The generated code would overlap the scratch window."""


def generate(config: TortureConfig,
             instrs: Optional[dict] = None) -> ProgramImage:
    """Emit a legal, self-terminating random program ending in a register
    dump to the scratch window followed by ebreak.

    The program is a function of the config alone. Every draw below some
    n, a choice among n items included, takes k = n.bit_length() bits from
    `random.Random(seed).getrandbits` and draws again while they read n or
    more, as CPython 3.11's `choice` and `randrange` do.

    Given an `instrs` dict, every instruction word of the program is also
    recorded there as {word: Instr}, equal to `isa.decode(word)`.

    Raises ValueError if `config.seed` is below 0 (Random would seed with
    its absolute value) or `config.length` below 1, and ProgramTooLong if
    the length leaves no room for the code below the scratch window.
    """
    if config.seed < 0:
        raise ValueError(f"a torture program needs seed >= 0, "
                         f"not {config.seed}")
    if config.length < 1:
        raise ValueError(f"a torture program needs length >= 1, "
                         f"not {config.length}")
    wbase, wsize = MEMORY_WINDOW
    # every slot emits at least one word, so this bound needs no program
    room = (wbase - DEFAULT_BASE) // 4
    if config.length > room:
        raise ProgramTooLong(
            f"a torture program of length {config.length} needs more than "
            f"the {room} words below the scratch window at 0x{wbase:x}")
    rng = random.Random(config.seed)
    # every draw below n takes these bits by the draw rule (see _below)
    bits = rng.getrandbits
    pool = _build_pool(config.extensions)
    k_pool = len(pool).bit_length()
    a = Assembler(base=DEFAULT_BASE, instrs=instrs)
    emit = a.emit

    # prologue: scratch base plus pseudo-random values in every register
    a.li(SCRATCH_REG, wbase)
    for r in range(1, 32):
        if r != SCRATCH_REG:
            a.li(r, bits(32) | 0x800)  # avoid the 1-word li form

    executed = 0
    while executed < config.length:
        if rng.random() < BRANCH_DENSITY:
            shadow = 1 + _below(bits, 3)
            if rng.random() < 0.15:
                emit(_JAL, rd=_RD_CHOICES[_below(bits, _N_RD)],
                     imm=4 * (shadow + 1))
            else:
                emit(_BRANCHES[_below(bits, len(_BRANCHES))],
                     rs1=_below(bits, 32), rs2=_below(bits, 32),
                     imm=4 * (shadow + 1))
            for _ in range(shadow):
                _random_non_branch(emit, bits, pool, k_pool, wsize)
        else:
            _random_non_branch(emit, bits, pool, k_pool, wsize)
        executed += 1

    # epilogue: dump x1..x31 into the window tail, then halt
    dump_base = wsize - 31 * 4
    for r in range(1, 32):
        emit(_SW, rs1=SCRATCH_REG, rs2=r, imm=dump_base + 4 * (r - 1))
    emit(_EBREAK)

    # pad up to the scratch window and pre-seed it so loads see a
    # deterministic pattern even before the first store
    gap = wbase - a.here
    if gap < 0:
        raise ProgramTooLong(
            f"a torture program of length {config.length} runs to "
            f"0x{a.here:x}, past the scratch window at 0x{wbase:x}")
    a.data(bytes(gap & ~3))  # whole words of zeros
    seed_bytes = bytes(map(bits, repeat(8, wsize)))
    a.data(seed_bytes)
    return a.build()


class _GoldenTrace(NamedTuple):
    image: ProgramImage
    exts: frozenset     # the extensions golden ran under
    steps: tuple        # (pc after, rd, rd's value after) per step
    outcome: golden.StepOutcome  # the last step's; every earlier one retired
    signature: str      # golden signature after the last step
    window: bytes       # the scratch window's bytes after the last step
    console: bytes      # golden's console bytes after the last step
    exit_code: Optional[int]  # and its exit code, None if never stored


def _golden_run(image: ProgramImage, exts: frozenset,
                max_steps: int) -> _GoldenTrace:
    """Step the golden model on `image` until it halts or `max_steps` steps
    have run, recording each step as a delta and the last step's outcome
    once.

    A step writes no register but the rd of the word it fetches, so it is
    recorded as (pc after, rd, value of rd after). Each step reads
    the word at pc once, through `Memory.load`, and hands it to
    `golden.execute`; rd is its bits 7-11, read before the step, so a
    store over that word cannot change which register the delta names.
    Every RV32 format that writes a register keeps rd in those bits, so
    nothing is decoded here. For any other word (a store, branch, fence,
    ecall, ebreak or an illegal word) the bits name a register that the
    step leaves alone, and the delta holds its unchanged value. Applying
    the deltas in order to the reset registers gives golden's registers
    after each step.
    """
    gold = ArchState.from_image(image)
    mem, regs = gold.mem, gold.regs
    load, execute = mem.load, golden.execute
    steps = []
    for _ in range(max_steps):
        word = load(gold.pc, 4)
        out = execute(gold, word, exts)
        rd = word >> 7 & 31
        steps.append((gold.pc, rd, regs[rd]))
        if out is not golden.RETIRED:
            break
    return _GoldenTrace(image, exts, tuple(steps), out,
                        signature(gold, MEMORY_WINDOW),
                        mem.read_bytes(*MEMORY_WINDOW),
                        bytes(mem.console), mem.exit_code)


def torture_trace(torture: TortureConfig, exts: frozenset) -> _GoldenTrace:
    """Generate `torture`'s program and record golden's run of it under
    `exts`, for at most MAX_STEPS steps (`_golden_run`). Neither depends
    on the core's width, so run_matrix records each seed's trace here once
    and hands it to `lockstep` at every width. Nothing is cached: every
    call generates and runs golden again, under the code as it is at the
    call.

    The decode cache is cleared and then filled with the generator's own
    Instrs, so neither model decodes a generated word and the cache holds
    one program's words, not those of every program run before it. Every
    other fetch path fills it on demand; a kernel whose entries this
    drops decodes each word once more.
    """
    cache = isa._DECODE_CACHE
    cache.clear()
    return _golden_run(generate(torture, cache), exts, MAX_STEPS)


# cosim_run's memo of the last trace, so that a caller running one
# program's widths back to back through cosim_run (perfbench's
# cosim-matrix does) records it once. It is keyed by data, not by code: a
# test that changes the golden model or the generator and then calls
# cosim_run must call `_golden_trace.cache_clear()` first, or it gets the
# unchanged trace. run_matrix never reads it.
_golden_trace = functools.lru_cache(maxsize=1)(torture_trace)


def lockstep(trace: _GoldenTrace, core: CoreConfig,
             seed: int = 0) -> CosimReport:
    """Replay golden's recorded `trace` against a core of config `core`,
    and report the cell under `seed`, the torture program's (a trace of
    any other image takes 0).

    Architectural state is compared after every retired instruction;
    final-state signatures are compared at the end. The core replays the
    trace in one frame: `MicroCore.step(expect=...)` applies each
    step's delta to a copy of golden's reset registers and compares all 32
    of the core's registers with it, so a write to a register other than
    the step's rd is caught at that step. The replay stops at the first
    step that halts, leaves the pc or a register unlike golden's, or takes
    the trace's last delta; what it left of the deltas' iterator tells
    which step that was. That step alone is classified here: pc, then xN,
    then the halt reason, or no-halt when neither model halted by the
    trace's end. A run that ends on golden's halting step with none of
    these is then compared at that step on the MMIO the whole run wrote:
    the console bytes, then the exit code. A run that ends with no
    divergence, at the trace's last step, with the core's registers and
    window bytes equal to that step's golden ones, takes the trace's
    signature, since those are all that `signature` hashes. A run that
    ends before the trace's last step takes its golden signature from a
    second golden run, under the trace's extensions, cut after as many
    steps as the core ran.
    """
    steps = trace.steps
    micro = MicroCore(core, ArchState.from_image(trace.image))
    march = micro.arch
    regs = march.regs
    gold = regs[:]  # golden's registers; both models reset them to zero
    deltas = iter(steps)
    _, m_out, _ = micro.step(expect=(deltas, gold))

    # the replay reads one delta per step it runs
    ran = len(steps) - operator.length_hint(deltas)
    gold_pc, rd, value = steps[ran - 1]
    # only the trace's last step can halt golden
    g_out = trace.outcome if ran == len(steps) else golden.RETIRED
    gold[rd] = value  # a halting step returns before it applies its delta
    pc = steps[ran - 2][0] if ran > 1 else trace.image.entry
    instret = ran - 1
    divergence: Optional[Tuple[int, str]] = None
    if march.pc != gold_pc:
        divergence = (pc, "pc")
    elif regs != gold:
        i = next(i for i in range(32) if regs[i] != gold[i])
        divergence = (pc, f"x{i}")
    elif g_out is not m_out:
        divergence = (pc, "halt-reason")
    elif not g_out.halted:
        # only a golden run cut off by its budget ends with neither halted
        instret = ran
        divergence = (gold_pc, "no-halt")
    # with no divergence the replay took the trace's last step, so the
    # core's MMIO meets golden's at the end of its run
    elif march.mem.console != trace.console:
        divergence = (pc, "console")
    elif march.mem.exit_code != trace.exit_code:
        divergence = (pc, "exit")

    # the golden side of the report stops where the comparison did, after
    # `ran` steps
    if ran == len(steps):
        sig_g = trace.signature
    else:
        sig_g = _golden_run(trace.image, trace.exts, ran).signature
    # no divergence: the replay ended at the trace's last step, where the
    # core's registers equalled golden's, so only the window is left
    if (divergence is None
            and march.mem.read_bytes(*MEMORY_WINDOW) == trace.window):
        sig_m = trace.signature
    else:
        sig_m = signature(march, MEMORY_WINDOW)
    passed = divergence is None and sig_g == sig_m
    return CosimReport(
        seed=seed, width=core.serial_width,
        extensions=tuple(sorted(e.value for e in core.extensions)),
        passed=passed, sig_micro=sig_m, sig_golden=sig_g,
        divergence_pc=divergence[0] if divergence else None,
        divergence_field=divergence[1] if divergence else None,
        instret=instret, cycles=micro.cycle)


def cosim_run(torture: TortureConfig, core: CoreConfig) -> CosimReport:
    """Run one generated program on both models in lockstep: `lockstep`
    over golden's trace of the program under the core's extensions, read
    through `_golden_trace`, cosim_run's one-entry memo."""
    trace = _golden_trace(torture, core.extensions)
    return lockstep(trace, core, torture.seed)


def run_matrix(seeds, widths, extensions: frozenset = isa.ZKN_ZKT,
               length: int = 200) -> list:
    """The verification sweep: every seed crossed with every width. Each
    seed's trace is recorded once (`torture_trace`, uncached) and replayed
    at every width (`lockstep`), so no verdict comes from an earlier
    call's trace."""
    reports = []
    for seed in seeds:
        tc = TortureConfig(seed=seed, length=length,
                           extensions=frozenset(extensions))
        trace = torture_trace(tc, tc.extensions)
        for w in widths:
            cc = CoreConfig(serial_width=w, extensions=extensions)
            reports.append(lockstep(trace, cc, seed))
    return reports
