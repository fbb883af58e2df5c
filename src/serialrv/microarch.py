"""Cycle-accurate model of the serialized core.

Execution walks the operands through Serializer1/Serializer2 in
serial_width-bit chunks, LSB first, with a carry latch between chunks.
The fetch buffer overlaps instruction fetch with multi-cycle execution;
taken control transfers flush it and pay a fixed penalty.

At width 32 the ALU is full-width (Serializer2 is absent from the data
path) but the shift unit still serializes in 8-bit chunks plus single-bit
steps, and clmul keeps using Serializer1 for accumulation.

`latency_table` is the cycle model: the execution cycles of every
mnemonic under one CoreConfig. `run_instruction` adds the frontend rule
(fetch overlap, taken-transfer penalty) on top of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional, Tuple

from . import golden, isa
from .golden import (ArchState, StepOutcome, RETIRED, MASK32,
                     EBREAK, ECALL, ILLEGAL, MISALIGNED_FETCH, MISALIGNED_ACCESS)
from .isa import Ext, Instr, Mnemonic as M

VALID_WIDTHS = (1, 2, 4, 8, 16, 32)

# Latency classes.
ALU_CHUNKED = "alu_chunked"
SHIFT = "shift"
ROTATE = "rotate"
LOAD = "load"
STORE = "store"
BRANCH = "branch"
JUMP = "jump"
CLMUL = "clmul"
XPERM = "xperm"
AES = "aes"
SHA = "sha"
REORDER = "reorder_1cycle"
FENCE_NOP = "fence_nop"

CLASS_OF = {}
for _m in (M.ADD, M.ADDI, M.SUB, M.AND, M.ANDI, M.OR, M.ORI, M.XOR, M.XORI,
           M.SLT, M.SLTI, M.SLTU, M.SLTIU, M.LUI, M.AUIPC,
           M.ANDN, M.ORN, M.XNOR, M.PACK, M.PACKH):
    CLASS_OF[_m] = ALU_CHUNKED
for _m in (M.SLL, M.SLLI, M.SRL, M.SRLI, M.SRA, M.SRAI):
    CLASS_OF[_m] = SHIFT
for _m in (M.ROR, M.ROL, M.RORI):
    CLASS_OF[_m] = ROTATE
for _m in (M.LB, M.LH, M.LW, M.LBU, M.LHU):
    CLASS_OF[_m] = LOAD
for _m in (M.SB, M.SH, M.SW):
    CLASS_OF[_m] = STORE
for _m in (M.BEQ, M.BNE, M.BLT, M.BGE, M.BLTU, M.BGEU):
    CLASS_OF[_m] = BRANCH
CLASS_OF[M.JAL] = CLASS_OF[M.JALR] = JUMP
CLASS_OF[M.CLMUL] = CLASS_OF[M.CLMULH] = CLMUL
CLASS_OF[M.XPERM4] = CLASS_OF[M.XPERM8] = XPERM
for _m in isa.AES_MNEMONICS:
    CLASS_OF[_m] = AES
for _m, _e in isa.EXT_OF.items():
    if _e is Ext.ZKNH:
        CLASS_OF[_m] = SHA
for _m in (M.ZIP, M.UNZIP, M.REV8, M.BREV8):
    CLASS_OF[_m] = REORDER
for _m in (M.FENCE, M.ECALL, M.EBREAK):
    CLASS_OF[_m] = FENCE_NOP

SHIFT_MNEMONICS = frozenset(m for m, c in CLASS_OF.items()
                            if c in (SHIFT, ROTATE))
IMM_SHIFTS = frozenset({M.SLLI, M.SRLI, M.SRAI, M.RORI})
_LEFT_SHIFTS = frozenset({M.SLL, M.SLLI, M.ROL})


@dataclass(frozen=True)
class CoreConfig:
    """Serialization width, enabled extensions and timing-model knobs."""

    serial_width: int = 32
    extensions: frozenset = frozenset()
    left_shift_support: bool = True
    mem_latency: int = 1
    taken_branch_penalty: int = 2
    aes_latency: int = 3
    clmul_latency: int = 33
    reorder_latency: int = 1
    sha_select_latency: int = 1

    def __post_init__(self):
        if self.serial_width not in VALID_WIDTHS:
            raise ValueError(f"serial_width must be one of {VALID_WIDTHS}")
        if self.mem_latency < 1:
            raise ValueError("mem_latency must be >= 1")
        for knob in ("aes_latency", "clmul_latency", "reorder_latency"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be >= 1")
        for knob in ("taken_branch_penalty", "sha_select_latency"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be >= 0")
        object.__setattr__(self, "extensions", frozenset(self.extensions))

    @classmethod
    def zkn_zkt(cls, serial_width: int = 32, **knobs) -> "CoreConfig":
        """The full crypto preset: all six Zkn subsets plus Zkt."""
        return cls(serial_width=serial_width, extensions=isa.ZKN_ZKT, **knobs)

    @property
    def zkt(self) -> bool:
        return Ext.ZKT in self.extensions

    @property
    def chunks(self) -> int:
        return 32 // self.serial_width

    @property
    def shift_chunk_width(self) -> int:
        # the 32-bit configuration keeps an 8-bit serialized shift unit
        return 8 if self.serial_width == 32 else self.serial_width


def parse_extensions(spec: str) -> frozenset:
    """Parse a comma list like 'zbkb,zkne' or 'zkn,zkt' into an Ext set."""
    exts = set()
    for name in spec.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name == "zkn":
            exts |= isa.ZKN
        elif name == "rv32i":
            pass
        else:
            try:
                exts.add(Ext(name))
            except ValueError:
                raise ValueError(f"unknown extension {name!r}") from None
    return frozenset(exts)


# --- the cycle model ----------------------------------------------------------

def _movement(steps: int, chunk_w: int) -> int:
    return steps // chunk_w + steps % chunk_w


def shift_plan(config: CoreConfig, m: M, shamt: int) -> Tuple[bool, int, bool]:
    """How the shift unit carries out one shift/rotate: (left, amount, mask).

    The operand moves `amount` bits (left or right) in chunk steps plus
    single-bit steps. Without a usable left path, a left shift becomes a
    right rotate by 32 - shamt; the logical form then needs a mask pass to
    clear the bits that wrapped around. With left support the control
    still picks the emulated form for a logical shift when it is cheaper.
    """
    if m not in _LEFT_SHIFTS:
        return False, shamt, False
    logical = m is not M.ROL
    if config.left_shift_support:
        direct = _movement(shamt, config.shift_chunk_width)
        emulated = _movement(32 - shamt, config.shift_chunk_width) + config.chunks
        if not logical or direct <= emulated:
            return True, shamt, False
    return False, 32 - shamt, logical


@functools.lru_cache(maxsize=256)
def latency_table(config: CoreConfig) -> MappingProxyType:
    """Execution cycles of every mnemonic in CLASS_OF under `config`.

    Shifts and rotates map to a 32-entry tuple indexed by shift amount; the
    cost of a plan is its movement steps, the mask pass and one writeback
    cycle. Under Zkt each such tuple is its own maximum repeated, so the
    latency no longer depends on the shift amount. The table is shared by
    every caller with an equal config, so it is read-only.
    """
    chunks = config.chunks
    mem_op = chunks + config.mem_latency + 1  # address add, access, commit
    per_class = {
        ALU_CHUNKED: chunks, BRANCH: chunks, JUMP: chunks, XPERM: chunks,
        LOAD: mem_op, STORE: mem_op,
        CLMUL: config.clmul_latency, AES: config.aes_latency,
        SHA: config.sha_select_latency + chunks,
        REORDER: config.reorder_latency, FENCE_NOP: 1,
    }
    table = {}
    for m, klass in CLASS_OF.items():
        if m not in SHIFT_MNEMONICS:
            table[m] = per_class[klass]
            continue
        costs = []
        for shamt in range(32):
            _, amount, mask = shift_plan(config, m, shamt)
            costs.append(_movement(amount, config.shift_chunk_width)
                         + (chunks if mask else 0) + 1)
        table[m] = (max(costs),) * 32 if config.zkt else tuple(costs)
    return MappingProxyType(table)


def shift_latency(config: CoreConfig, mnemonic: M, shamt: int) -> int:
    """Cycles for one shift/rotate by `shamt`, including the writeback cycle."""
    return latency_table(config)[mnemonic][shamt]


def alu_mask_select(chunk_index: int, mode: str, control: int) -> Tuple[bool, int]:
    """Chunk gating decision of the combined ALU operand mask.

    Returns (enable, source_index): for clmul-bit mode the enable is the
    multiplier bit for this chunk; for the xperm modes the source digit
    index of rs1 to route through (with enable False when out of range).
    plain mode passes through.
    """
    if mode == "plain":
        return True, chunk_index
    if mode == "clmul-bit":
        return bool((control >> chunk_index) & 1), chunk_index
    if mode == "xperm-byte":
        idx = (control >> (8 * chunk_index)) & 0xFF
        return idx < 4, idx
    if mode == "xperm-nibble":
        idx = (control >> (4 * chunk_index)) & 0xF
        return idx < 8, idx
    raise ValueError(f"unknown mask mode {mode!r}")


# --- reorder unit wiring (fixed bit permutations) --------------------------

def _perm_table(fn) -> tuple:
    # table[i] = source bit of output bit i
    return tuple(fn(i) for i in range(32))


_REORDER_WIRING = {
    M.REV8: _perm_table(lambda i: (3 - i // 8) * 8 + i % 8),
    M.BREV8: _perm_table(lambda i: (i // 8) * 8 + (7 - i % 8)),
    M.ZIP: _perm_table(lambda i: i // 2 if i % 2 == 0 else 16 + i // 2),
    M.UNZIP: _perm_table(lambda i: 2 * i if i < 16 else 2 * (i - 16) + 1),
}


def _apply_wiring(table: tuple, v: int) -> int:
    out = 0
    for i, src in enumerate(table):
        out |= ((v >> src) & 1) << i
    return out


class MicroCore:
    """One serialized core instance: architectural state plus micro state."""

    def __init__(self, config: CoreConfig, state: ArchState):
        self.config = config
        self.latency = latency_table(config)
        self.arch = state
        self.serializer1 = 0
        self.serializer2 = 0
        self.fetch_buffer: Optional[Tuple[int, int]] = None
        self.lsu_buffer = 0
        self.cycle = 0
        self.phase = "reset"
        self.startup_cycles = 0

    # -- chunked ALU data path ---------------------------------------------

    def _chunk_add(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """LSB-first chunked addition; returns (sum32, carry_out)."""
        w = self.config.serial_width
        if w == 32:
            s = a + b + carry_in
            return s & MASK32, s >> 32
        mask = (1 << w) - 1
        res = 0
        carry = carry_in
        pos = 0
        while pos < 32:
            s = (a & mask) + (b & mask) + carry
            res |= (s & mask) << pos
            carry = s >> w
            a >>= w
            b >>= w
            pos += w
        self.serializer1 = 0
        self.serializer2 = res
        return res, carry

    def _chunk_logic(self, op: str, a: int, b: int) -> int:
        w = self.config.serial_width
        if w == 32:
            if op == "and":
                return a & b
            if op == "or":
                return a | b
            if op == "xor":
                return a ^ b
            if op == "andn":
                return a & ~b & MASK32
            if op == "orn":
                return (a | ~b) & MASK32
            return ~(a ^ b) & MASK32  # xnor
        mask = (1 << w) - 1
        res = 0
        pos = 0
        while pos < 32:
            ca = a & mask
            cb = b & mask
            if op == "and":
                c = ca & cb
            elif op == "or":
                c = ca | cb
            elif op == "xor":
                c = ca ^ cb
            elif op == "andn":
                c = ca & (~cb & mask)
            elif op == "orn":
                c = ca | (~cb & mask)
            else:  # xnor
                c = ~(ca ^ cb) & mask
            res |= c << pos
            a >>= w
            b >>= w
            pos += w
        self.serializer1 = 0
        self.serializer2 = res
        return res

    def _chunk_sub(self, a: int, b: int) -> Tuple[int, int]:
        # a - b == a + ~b + 1 with the carry latch preloaded
        return self._chunk_add(a, (~b) & MASK32, 1)

    def _less_than(self, a: int, b: int, signed: bool) -> int:
        diff, carry = self._chunk_sub(a, b)
        if not signed:
            return 0 if carry else 1  # carry-out set means no borrow
        a_neg = a >> 31
        b_neg = b >> 31
        if a_neg != b_neg:
            return a_neg
        return diff >> 31

    # -- serializer shift/rotate path ----------------------------------------

    def _serial_move(self, v: int, shamt: int, left: bool, arith: bool,
                     rotate: bool) -> int:
        """Move `v` by `shamt` bits via chunk steps plus single-bit steps."""
        cw = self.config.shift_chunk_width
        steps = [cw] * (shamt // cw) + [1] * (shamt % cw)
        for k in steps:
            if left:
                wrap = v >> (32 - k)
                v = (v << k) & MASK32
                if rotate:
                    v |= wrap
            else:
                wrap = v & ((1 << k) - 1)
                v >>= k
                if rotate:
                    v |= wrap << (32 - k)
                elif arith and (v >> (31 - k)) & 1:
                    v |= ((1 << k) - 1) << (32 - k)
        self.serializer1 = v
        return v

    def _shift_exec(self, m: M, value: int, shamt: int) -> int:
        """Result of any shift/rotate mnemonic, carried out by its plan."""
        left, amount, mask = shift_plan(self.config, m, shamt)
        rotate = mask or CLASS_OF[m] == ROTATE
        arith = m is M.SRA or m is M.SRAI
        res = self._serial_move(value, amount, left, arith, rotate)
        if mask:
            res &= (MASK32 << shamt) & MASK32
        return res

    # -- crypto function units ----------------------------------------------

    def _aes_unit(self, m: M, rs1: int, rs2: int, bs: int) -> int:
        # byte select via the operand mask, S-Box/xt2 through the LSU buffer,
        # rotate and XOR merge via Serializer1
        self.lsu_buffer = (rs2 >> (8 * bs)) & 0xFF
        if m is M.AES32ESI or m is M.AES32ESMI:
            s = golden.AES_SBOX[self.lsu_buffer]
        else:
            s = golden.AES_SBOX_INV[self.lsu_buffer]
        if m is M.AES32ESMI:
            d = golden.xt2(s)
            word = d | (s << 8) | (s << 16) | ((d ^ s) << 24)
        elif m is M.AES32DSMI:
            s2 = golden.xt2(s)
            s4 = golden.xt2(s2)
            s8 = golden.xt2(s4)
            word = ((s8 ^ s4 ^ s2) | ((s8 ^ s) << 8)
                    | ((s8 ^ s4 ^ s) << 16) | ((s8 ^ s2 ^ s) << 24))
        else:
            word = s
        rotated = self._serial_move(word, (8 * bs) & 31, True, False, True)
        return (rs1 ^ rotated) & MASK32


    _SHA_NETWORK = {
        # (source operand, op, amount); op r=rotate-right, s=shift-right,
        # l=shift-left. Sources: 1 = rs1, 2 = rs2.
        M.SHA256SIG0: ((1, "r", 7), (1, "r", 18), (1, "s", 3)),
        M.SHA256SIG1: ((1, "r", 17), (1, "r", 19), (1, "s", 10)),
        M.SHA256SUM0: ((1, "r", 2), (1, "r", 13), (1, "r", 22)),
        M.SHA256SUM1: ((1, "r", 6), (1, "r", 11), (1, "r", 25)),
        M.SHA512SIG0H: ((1, "s", 1), (1, "s", 7), (1, "s", 8), (2, "l", 31), (2, "l", 24)),
        M.SHA512SIG0L: ((1, "s", 1), (1, "s", 7), (1, "s", 8), (2, "l", 31), (2, "l", 25), (2, "l", 24)),
        M.SHA512SIG1H: ((1, "l", 3), (1, "s", 6), (1, "s", 19), (2, "s", 29), (2, "l", 13)),
        M.SHA512SIG1L: ((1, "l", 3), (1, "s", 6), (1, "s", 19), (2, "s", 29), (2, "l", 26), (2, "l", 13)),
        M.SHA512SUM0R: ((1, "l", 25), (1, "l", 30), (1, "s", 28), (2, "s", 7), (2, "s", 2), (2, "l", 4)),
        M.SHA512SUM1R: ((1, "l", 23), (1, "s", 14), (1, "s", 18), (2, "s", 9), (2, "l", 18), (2, "l", 14)),
    }

    def _sha_unit(self, m: M, rs1: int, rs2: int) -> int:
        # fixed-shift multiplexer feeding a chunked XOR accumulation
        acc = 0
        for src, op, n in self._SHA_NETWORK[m]:
            v = rs1 if src == 1 else rs2
            if op == "r":
                v = ((v >> n) | (v << (32 - n))) & MASK32
            elif op == "s":
                v >>= n
            else:
                v = (v << n) & MASK32
            acc = self._chunk_logic("xor", acc, v)
        return acc

    def _clmul_unit(self, m: M, rs1: int, rs2: int) -> int:
        # bit-serial accumulation: the multiplier bit gates whether the
        # shifted multiplicand is folded into the Serializer1 accumulator
        acc = 0
        for i in range(32):
            enable, _ = alu_mask_select(i, "clmul-bit", rs2)
            if enable:
                acc ^= rs1 << i
        self.serializer1 = acc & MASK32
        return (acc >> 32) & MASK32 if m is M.CLMULH else acc & MASK32

    def _xperm_unit(self, m: M, rs1: int, rs2: int) -> int:
        digit = 8 if m is M.XPERM8 else 4
        mode = "xperm-byte" if m is M.XPERM8 else "xperm-nibble"
        mask = (1 << digit) - 1
        out = 0
        for i in range(32 // digit):
            enable, src = alu_mask_select(i, mode, rs2)
            if enable:
                out |= ((rs1 >> (digit * src)) & mask) << (digit * i)
        if self.config.serial_width < 32:
            self.serializer2 = out
        return out

    # -- load/store unit ------------------------------------------------------

    def _lsu(self, m: M, addr: int, store_val: int) -> Tuple[Optional[int], bool]:
        """Full-width transaction through the LSU buffer.

        Returns (loaded value or None, ok).
        """
        width = {M.LB: 1, M.LBU: 1, M.LH: 2, M.LHU: 2, M.LW: 4,
                 M.SB: 1, M.SH: 2, M.SW: 4}[m]
        if addr % width:
            return None, False
        mem = self.arch.mem
        if m in (M.SB, M.SH, M.SW):
            self.lsu_buffer = store_val & MASK32
            if m is M.SB:
                mem.store_byte(addr, store_val)
            elif m is M.SH:
                mem.store_half(addr, store_val)
            else:
                mem.store_word(addr, store_val)
            return None, True
        self.lsu_buffer = mem.load_word(addr & ~3)
        sub = self.lsu_buffer >> (8 * (addr & 3))
        if m is M.LW:
            val = self.lsu_buffer
        elif m is M.LBU:
            val = sub & 0xFF
        elif m is M.LB:
            val = ((sub & 0xFF) ^ 0x80) - 0x80
        elif m is M.LHU:
            val = sub & 0xFFFF
        else:
            val = ((sub & 0xFFFF) ^ 0x8000) - 0x8000
        return val & MASK32, True

    # -- instruction execution -------------------------------------------------

    def run_instruction(self, ins: Instr) -> Tuple[int, StepOutcome]:
        """Execute one instruction at the current pc; returns charged cycles.

        Charged cycles include frontend effects: overlap of the next fetch
        with execution (a stall if execution is shorter than mem_latency)
        and the flush penalty of taken control transfers.
        """
        cfg = self.config
        m = ins.mnemonic
        ext = isa.EXT_OF[m]
        if ext is not Ext.RV32I and ext not in cfg.extensions:
            self.phase = "halted"
            return 0, StepOutcome(True, ILLEGAL)

        arch = self.arch
        regs = arch.regs
        pc = arch.pc
        rs1 = regs[ins.rs1]
        rs2 = regs[ins.rs2]
        imm = ins.imm
        self.phase = "execute"

        val = None
        next_pc = pc + 4
        taken = False
        klass = CLASS_OF[m]
        cycles = self.latency[m]

        if klass == ALU_CHUNKED:
            if m is M.ADD:
                val, _ = self._chunk_add(rs1, rs2, 0)
            elif m is M.ADDI:
                val, _ = self._chunk_add(rs1, imm & MASK32, 0)
            elif m is M.SUB:
                val, _ = self._chunk_sub(rs1, rs2)
            elif m is M.AND:
                val = self._chunk_logic("and", rs1, rs2)
            elif m is M.ANDI:
                val = self._chunk_logic("and", rs1, imm & MASK32)
            elif m is M.OR:
                val = self._chunk_logic("or", rs1, rs2)
            elif m is M.ORI:
                val = self._chunk_logic("or", rs1, imm & MASK32)
            elif m is M.XOR:
                val = self._chunk_logic("xor", rs1, rs2)
            elif m is M.XORI:
                val = self._chunk_logic("xor", rs1, imm & MASK32)
            elif m is M.ANDN:
                val = self._chunk_logic("andn", rs1, rs2)
            elif m is M.ORN:
                val = self._chunk_logic("orn", rs1, rs2)
            elif m is M.XNOR:
                val = self._chunk_logic("xnor", rs1, rs2)
            elif m is M.SLT:
                val = self._less_than(rs1, rs2, True)
            elif m is M.SLTI:
                val = self._less_than(rs1, imm & MASK32, True)
            elif m is M.SLTU:
                val = self._less_than(rs1, rs2, False)
            elif m is M.SLTIU:
                val = self._less_than(rs1, imm & MASK32, False)
            elif m is M.LUI:
                val = (imm << 12) & MASK32
            elif m is M.AUIPC:
                val, _ = self._chunk_add(pc, (imm << 12) & MASK32, 0)
            elif m is M.PACK:
                val = ((rs2 & 0xFFFF) << 16) | (rs1 & 0xFFFF)
            else:  # packh
                val = ((rs2 & 0xFF) << 8) | (rs1 & 0xFF)
        elif klass == SHIFT or klass == ROTATE:
            shamt = imm if m in IMM_SHIFTS else rs2 & 31
            val = self._shift_exec(m, rs1, shamt)
            cycles = cycles[shamt]
        elif klass == LOAD:
            addr = (rs1 + imm) & MASK32
            val, ok = self._lsu(m, addr, 0)
            if not ok:
                self.phase = "halted"
                return 0, StepOutcome(True, MISALIGNED_ACCESS)
        elif klass == STORE:
            addr = (rs1 + imm) & MASK32
            _, ok = self._lsu(m, addr, rs2)
            if not ok:
                self.phase = "halted"
                return 0, StepOutcome(True, MISALIGNED_ACCESS)
        elif klass == BRANCH:
            if m is M.BEQ:
                taken = self._chunk_logic("xor", rs1, rs2) == 0
            elif m is M.BNE:
                taken = self._chunk_logic("xor", rs1, rs2) != 0
            elif m is M.BLT:
                taken = self._less_than(rs1, rs2, True) == 1
            elif m is M.BGE:
                taken = self._less_than(rs1, rs2, True) == 0
            elif m is M.BLTU:
                taken = self._less_than(rs1, rs2, False) == 1
            else:  # bgeu
                taken = self._less_than(rs1, rs2, False) == 0
            if taken:
                next_pc = pc + imm
        elif klass == JUMP:
            val = next_pc & MASK32
            if m is M.JAL:
                target, _ = self._chunk_add(pc, imm & MASK32, 0)
            else:
                target, _ = self._chunk_add(rs1, imm & MASK32, 0)
                target &= ~1
            next_pc = target
            taken = True
        elif klass == AES:
            val = self._aes_unit(m, rs1, rs2, ins.bs)
        elif klass == SHA:
            val = self._sha_unit(m, rs1, rs2)
        elif klass == CLMUL:
            val = self._clmul_unit(m, rs1, rs2)
        elif klass == XPERM:
            val = self._xperm_unit(m, rs1, rs2)
        elif klass == REORDER:
            val = _apply_wiring(_REORDER_WIRING[m], rs1)
        else:  # fence_nop
            if m is M.EBREAK:
                self.cycle += cycles
                self.phase = "halted"
                return cycles, StepOutcome(True, EBREAK)
            if m is M.ECALL:
                self.cycle += cycles
                self.phase = "halted"
                return cycles, StepOutcome(True, ECALL)

        if val is not None and ins.rd:
            regs[ins.rd] = val & MASK32

        # frontend: overlap the sequential prefetch, or flush on a transfer
        if taken:
            charged = cycles + cfg.taken_branch_penalty + (cfg.mem_latency - 1)
            self.fetch_buffer = None
        else:
            charged = max(cycles, cfg.mem_latency)

        next_pc &= MASK32
        arch.pc = next_pc
        self.cycle += charged
        if next_pc & 3:
            self.phase = "halted"
            return charged, StepOutcome(True, MISALIGNED_FETCH)
        if not taken:
            self.fetch_buffer = (next_pc, arch.mem.load_word(next_pc))
        self.phase = "fetch"
        return charged, RETIRED

    def step(self) -> Tuple[int, StepOutcome, Optional[Instr]]:
        """Fetch, decode and execute one instruction.

        Returns (charged cycles, outcome, instruction or None when the
        fetch/decode itself trapped).
        """
        if self.phase == "reset":
            # initial fill of the fetch buffer
            self.startup_cycles = self.config.mem_latency
            self.cycle += self.startup_cycles
            self.phase = "fetch"
        pc = self.arch.pc
        if pc & 3:
            self.phase = "halted"
            return 0, StepOutcome(True, MISALIGNED_FETCH), None
        if self.fetch_buffer is not None and self.fetch_buffer[0] == pc:
            word = self.fetch_buffer[1]
        else:
            word = self.arch.mem.load_word(pc)
        try:
            ins = isa.decode_cached(word)
        except isa.IllegalInstruction:
            self.phase = "halted"
            return 0, StepOutcome(True, ILLEGAL), None
        cycles, outcome = self.run_instruction(ins)
        return cycles, outcome, ins
