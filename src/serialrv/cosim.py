"""Randomized torture tests and lockstep comparison against the golden model.

Generated programs are forward-branch-only (guaranteed termination): every
branch targets a point 1..3 instructions ahead, so the instructions in its
shadow execute only when it falls through. Memory traffic is confined to a
scratch window addressed off a reserved base register.

The golden model's run of a program does not depend on the core's width:
it is recorded once, as the register each step writes and its new value,
and the cycle-accurate core is checked against the recording at each
width, all 32 registers after every step. A core that ends the run with
the recording's final registers and window bytes reuses its signature
instead of hashing.
"""

from __future__ import annotations

import functools
import random
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Tuple

from . import golden, isa, system
from .golden import ArchState
from .image import ProgramImage
from .isa import Assembler, Ext, Mnemonic as M
from .microarch import CoreConfig, MicroCore

SCRATCH_REG = 3  # holds the scratch window base for all loads/stores
MEMORY_WINDOW = (0x2000, 0x200)  # (base, size) of the scratch window
BRANCH_DENSITY = 0.1  # chance that a slot starts a branch or jal

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
    instret: int = 0

    def to_json_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "width": self.width,
            "extensions": sorted(self.extensions),
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
_FMT_OF = {m: enc.fmt for m, enc in isa.ENCODINGS.items()}


def _build_pool(extensions: frozenset) -> tuple:
    pool = list(_BASE_POOL)
    for ext, mnems in _POOL_BY_EXT.items():
        if ext in extensions:
            pool.extend(mnems)
    return tuple(pool)


def _random_non_branch(a: Assembler, below: Callable[[int], int],
                       pool: tuple, wbase: int, wsize: int) -> None:
    m = pool[below(len(pool))]
    rd = _RD_CHOICES[below(len(_RD_CHOICES))]
    rs1 = below(32)
    rs2 = below(32)
    fmt = _FMT_OF[m]
    if fmt == isa.FMT_I:
        a.emit(m, rd=rd, rs1=rs1, imm=below(4096) - 2048)
    elif fmt == isa.FMT_I_SHAMT:
        a.emit(m, rd=rd, rs1=rs1, imm=below(32))
    elif fmt == isa.FMT_LOAD:
        off = below(wsize - 4) & ~(isa.ACCESS_BYTES[m] - 1)
        a.emit(m, rd=rd, rs1=SCRATCH_REG, imm=off)
    elif fmt == isa.FMT_STORE:
        off = below(wsize - 4) & ~(isa.ACCESS_BYTES[m] - 1)
        a.emit(m, rs1=SCRATCH_REG, rs2=rs2, imm=off)
    elif fmt == isa.FMT_U:
        a.emit(m, rd=rd, imm=below(1 << 20))
    elif fmt == isa.FMT_FENCE:
        a.emit(m)
    elif fmt == isa.FMT_R_AES:
        a.emit(m, rd=rd, rs1=rs1, rs2=rs2, bs=below(4))
    elif fmt == isa.FMT_UNARY:
        a.emit(m, rd=rd, rs1=rs1)
    else:
        a.emit(m, rd=rd, rs1=rs1, rs2=rs2)


class ProgramTooLong(ValueError):
    """The generated code would overlap the scratch window."""


def generate(config: TortureConfig,
             instrs: Optional[dict] = None) -> ProgramImage:
    """Emit a legal, self-terminating random program ending in a register
    dump to the scratch window followed by ebreak.

    Given an `instrs` dict, every instruction word of the program is also
    recorded there as {word: Instr}, equal to `isa.decode(word)`.

    Raises ValueError if `config.length` is below 1, and ProgramTooLong
    if it leaves no room for the code below the scratch window.
    """
    if config.length < 1:
        raise ValueError(f"a torture program needs length >= 1, "
                         f"not {config.length}")
    wbase, wsize = MEMORY_WINDOW
    # every slot emits at least one word, so this bound needs no program
    room = (wbase - system.DEFAULT_BASE) // 4
    if config.length > room:
        raise ProgramTooLong(
            f"a torture program of length {config.length} needs more than "
            f"the {room} words below the scratch window at 0x{wbase:x}")
    rng = random.Random(config.seed)
    # CPython's choice(seq) and randrange(lo, hi) are seq[below(len(seq))]
    # and lo + below(hi - lo): the same stream, without their frames
    below = rng._randbelow
    pool = _build_pool(config.extensions)
    a = Assembler(base=system.DEFAULT_BASE, instrs=instrs)

    # prologue: scratch base plus pseudo-random values in every register
    a.li(SCRATCH_REG, wbase)
    for r in range(1, 32):
        if r != SCRATCH_REG:
            a.li(r, rng.getrandbits(32) | 0x800)  # avoid the 1-word li form

    executed = 0
    while executed < config.length:
        if rng.random() < BRANCH_DENSITY:
            shadow = 1 + below(3)
            if rng.random() < 0.15:
                a.emit(M.JAL, rd=_RD_CHOICES[below(len(_RD_CHOICES))],
                       imm=4 * (shadow + 1))
            else:
                a.emit(_BRANCHES[below(len(_BRANCHES))], rs1=below(32),
                       rs2=below(32), imm=4 * (shadow + 1))
            for _ in range(shadow):
                _random_non_branch(a, below, pool, wbase, wsize)
        else:
            _random_non_branch(a, below, pool, wbase, wsize)
        executed += 1

    # epilogue: dump x1..x31 into the window tail, then halt
    dump_base = wsize - 31 * 4
    for r in range(1, 32):
        a.emit(M.SW, rs1=SCRATCH_REG, rs2=r, imm=dump_base + 4 * (r - 1))
    a.emit(M.EBREAK)

    # pad up to the scratch window and pre-seed it so loads see a
    # deterministic pattern even before the first store
    gap = wbase - a.here
    if gap < 0:
        raise ProgramTooLong(
            f"a torture program of length {config.length} runs to "
            f"0x{a.here:x}, past the scratch window at 0x{wbase:x}")
    a.data(bytes(gap & ~3))  # whole words of zeros
    seed_bytes = bytes(map(rng.getrandbits, repeat(8, wsize)))
    a.data(seed_bytes)
    return a.build()


class _GoldenTrace(NamedTuple):
    image: ProgramImage
    steps: tuple        # (pc after, rd, rd's value after, outcome) per step
    signature: str      # golden signature after the last step
    window: bytes       # the scratch window's bytes after the last step


def _rd_of(word: int) -> int:
    """The destination register of `word` as golden decodes it, 0 if the
    word is illegal: golden halts on it and writes nothing."""
    try:
        return isa.decode_cached(word).rd
    except isa.IllegalInstruction:
        return 0


@functools.lru_cache(maxsize=1)
def _golden_trace(torture: TortureConfig, exts: frozenset,
                  max_steps: int) -> _GoldenTrace:
    """Generate `torture`'s program and step the golden model on it until it
    halts or `max_steps` steps have run, recording each step as a delta.

    A step writes no register but the rd of the word it fetches, so it is
    recorded as (pc after, rd, value of rd after, outcome), with rd decoded
    from the word at pc before the step: a store over that word cannot
    change which register the delta names. Stores, branches and ebreak
    decode with rd = 0, and an illegal word, which halts golden, records
    rd = 0. Applying the deltas in order to the reset registers gives
    golden's registers after each step.

    The generator's Instrs go into the decode cache first, so neither
    model decodes a generated word.

    Neither the program nor the trace depends on the core's width, so
    cosim_run records them once and replays them at every width; one entry
    suffices because callers run all widths of a program back to back. The
    cache is keyed by data, not by code: a test that changes the golden
    model or the generator must call `_golden_trace.cache_clear()` first,
    or it gets the unchanged trace.
    """
    instrs: dict = {}
    img = generate(torture, instrs)
    cache = isa._DECODE_CACHE
    if len(cache) + len(instrs) > isa._DECODE_CACHE_MAX:
        cache.clear()
    cache.update(instrs)
    gold = ArchState.from_image(img)
    mem, regs = gold.mem, gold.regs
    steps = []
    for _ in range(max_steps):
        word = mem.load(gold.pc, 4)
        ins = cache.get(word)
        rd = ins[1] if ins is not None else _rd_of(word)
        out = golden.step(gold, exts)
        steps.append((gold.pc, rd, regs[rd], out))
        if out.halted:
            break
    return _GoldenTrace(img, tuple(steps), signature(gold, MEMORY_WINDOW),
                        gold.mem.read_bytes(*MEMORY_WINDOW))


def _golden_signature(img: ProgramImage, exts: frozenset, n: int) -> str:
    """The golden signature after `n` steps, for a run that diverged early."""
    gold = ArchState.from_image(img)
    for _ in range(n):
        golden.step(gold, exts)
    return signature(gold, MEMORY_WINDOW)


def cosim_run(torture: TortureConfig, core: CoreConfig,
              max_steps: int = 200_000) -> CosimReport:
    """Run one generated program on both models in lockstep.

    Architectural state is compared after every retired instruction;
    final-state signatures are compared at the end. The golden side is a
    recorded trace shared by all widths (see _golden_trace): `expect`
    starts as the reset registers and takes each step's delta, and then
    all 32 of the core's registers are compared with it, so a write to a
    register other than the step's rd is caught at that step. A run that
    ends with no divergence, at the trace's last step, with the core's
    registers and window bytes equal to that step's golden ones, takes the
    trace's signature, since those are all that `signature` hashes.
    """
    exts = frozenset(core.extensions) - {Ext.ZKT}
    trace = _golden_trace(torture, exts, max_steps)
    micro = MicroCore(core, ArchState.from_image(trace.image))
    march = micro.arch
    step = micro.step
    regs = march.regs
    expect = regs[:]  # golden's registers; both models reset them to zero

    divergence: Optional[Tuple[int, str]] = None
    instret = 0
    pc = trace.image.entry
    for gold_pc, rd, value, g_out in trace.steps:
        _, m_out, _ = step()
        if march.pc != gold_pc:
            divergence = (pc, "pc")
            break
        expect[rd] = value
        if regs != expect:
            for i in range(32):
                if regs[i] != expect[i]:
                    divergence = (pc, f"x{i}")
                    break
            break
        # an equal int, but the core's own object: the next compare then
        # finds every register identical without comparing values
        expect[rd] = regs[rd]
        if g_out.halted or m_out.halted:
            if g_out != m_out:
                divergence = (pc, "halt-reason")
            break
        instret += 1
        pc = gold_pc
    else:
        # only a golden run cut off by max_steps ends without a break
        divergence = (pc, "no-halt")

    # the golden side of the report stops where the comparison did, after
    # instret + 1 steps (or all of them)
    if instret + 1 >= len(trace.steps):
        sig_g = trace.signature
    else:
        sig_g = _golden_signature(trace.image, exts, instret + 1)
    # no divergence: the loop ended at the trace's last step, where the
    # core's registers equalled golden's, so only the window is left
    if (divergence is None
            and march.mem.read_bytes(*MEMORY_WINDOW) == trace.window):
        sig_m = trace.signature
    else:
        sig_m = signature(march, MEMORY_WINDOW)
    passed = divergence is None and sig_g == sig_m
    return CosimReport(
        seed=torture.seed, width=core.serial_width,
        extensions=tuple(e.value for e in core.extensions),
        passed=passed, sig_micro=sig_m, sig_golden=sig_g,
        divergence_pc=divergence[0] if divergence else None,
        divergence_field=divergence[1] if divergence else None,
        instret=instret)


def run_matrix(seeds, widths, extensions: frozenset = isa.ZKN_ZKT,
               length: int = 200) -> list:
    """The verification sweep: every seed crossed with every width."""
    reports = []
    for seed in seeds:
        tc = TortureConfig(seed=seed, length=length,
                           extensions=frozenset(extensions) - {Ext.ZKT})
        for w in widths:
            cc = CoreConfig(serial_width=w, extensions=extensions)
            reports.append(cosim_run(tc, cc))
    return reports
