"""Cycle-accurate model of the serialized core.

Execution walks the operands through Serializer1/Serializer2 in
serial_width-bit chunks, LSB first, with a carry latch between chunks:
`_chunk_add` returns the sum and leaves its carry-out in `carry`, where
`_less_than` reads it. The fetch buffer overlaps instruction fetch with
multi-cycle execution; taken control transfers flush it and pay a fixed
penalty.

At width 32 the ALU is full-width (Serializer2 is absent from the data
path) but the shift unit still serializes in 8-bit chunks plus single-bit
steps, and clmul keeps using Serializer1 for accumulation.

`latency_table` is the cycle model: the execution cycles of every
mnemonic under one CoreConfig. It is built in one pass with the config's
shift plans (see `shift_plan`), and each shift is costed from the same
plan the shift unit carries out. The frontend rule (fetch overlap,
taken-transfer penalty) is added on top of it when an instruction
retires.

One instruction is one call of `MicroCore.step`, and one frame carries it
from fetch to commit: fetch (the first step also fills the fetch buffer),
decode, bind, execute, the frontend charge, the cycle-budget check, the
per-mnemonic count and the commit, which also prefetches the next
sequential word straight from the dense memory window. A fetch that hits
isa's decode cache makes no call: the frame probes the dict itself and
unpacks the instruction's fields once. `step` is the core's only way in:
every instruction, a program's or the audit's, passes through these lines.

What a core binds once, so that a step need not look it up again (none
of it changes a simulated cycle):

- per config, in `__init__`: one binding shared by every core under an
  equal config and by `latency_table`. It holds the latency table, the
  shift plans, the shift unit's step sequence for every move amount, one
  lane per chunk and the lane masks (see `_binding`): a chunk loop
  combines each chunk where it sits, never moving it down to bit 0, and
  a bitwise loop walks the masks alone. A shift or rotate looks up its
  plan by amount, and `_serial_move` walks the loop the plan names one
  chunk or single-bit step at a time.
- per core, in `__init__`: the dense memory window the sequential
  prefetch reads: `_window` (the buffer, never replaced or resized),
  `_window_base` and `_window_last` (the offset of its last word).
- per mnemonic, the first time the core meets it: one record holding
  what executes it, whether operand 2 is the immediate (else rs2), its
  cycles (per shift amount for a shift or rotate) and its access size.
  What executes it is either a value unit or a handler (see `_EXECUTE`),
  or neither when its extension is not enabled. A value unit is a chunk
  function of the class (add, sub, and, or, xor and their I-forms),
  which the frame calls as `unit(core, rs1, operand 2)` for the rd value.
  The record holds the function, never a method bound to the core, so a
  finished core is freed as soon as nothing refers to it.
- A record holds no field of an instruction word: rd, rs1, rs2 and the
  immediate are read from the decoded instruction when it retires. The
  records live on the core, keyed by mnemonic, so storing over code
  needs no invalidation, and a handler or unit replaced before a core is
  built is the one that core uses.

Each record also carries the retired count and charged cycles of its
mnemonic, added where the cycles are charged; `retired` reads them out.
The reorder unit's wiring (`_REORDER_WIRING`) is applied through four
byte tables per mnemonic, built from it lazily by `_wiring_tables`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional, Tuple

from . import golden, isa
from .golden import (ArchState, StepOutcome, RETIRED, MASK32, EBREAK,
                     ECALL, ILLEGAL, MAX_STEPS, MISALIGNED_FETCH, MISALIGNED_ACCESS,
                     _unpack_word)
from .isa import _DECODE_CACHE, Ext, Instr, Mnemonic as M

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
# the loop of the shift unit that each shift/rotate walks on its direct
# path, named after its R-form: sll, rol, srl, ror or sra
_LOOP_OF = {m: isa.R_FORM_OF.get(m, m).value for m in SHIFT_MNEMONICS}

# the least value of each integer timing knob of CoreConfig
_KNOB_MIN = {"mem_latency": 1, "taken_branch_penalty": 0, "aes_latency": 1,
             "clmul_latency": 1, "reorder_latency": 1, "sha_select_latency": 0}


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
        if type(self.serial_width) is not int or self.serial_width not in VALID_WIDTHS:
            raise ValueError(f"serial_width must be one of {VALID_WIDTHS}, "
                             f"not {self.serial_width!r}")
        for knob, least in _KNOB_MIN.items():
            value = getattr(self, knob)
            if type(value) is not int or value < least:
                raise ValueError(f"{knob} must be an int >= {least}, not {value!r}")
        if type(self.left_shift_support) is not bool:
            raise ValueError("left_shift_support must be a bool, "
                             f"not {self.left_shift_support!r}")
        object.__setattr__(self, "extensions", frozenset(self.extensions))
        for ext in self.extensions:
            if not isinstance(ext, Ext):
                raise ValueError(f"extensions must hold Ext members, not {ext!r}")

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

@functools.lru_cache(maxsize=None)
def _move_steps(chunk_w: int) -> tuple:
    """The steps of a move by each amount 0..32: chunk steps, then
    single-bit steps."""
    return tuple((chunk_w,) * (n // chunk_w) + (1,) * (n % chunk_w)
                 for n in range(33))


def shift_plan(config: CoreConfig, m: M, shamt: int) -> Tuple[str, int, int]:
    """How the shift unit carries out one shift/rotate: (loop, amount, mask).

    The operand walks `loop` (sll or rol move it left; srl, ror or sra
    move it right) by `amount` bits, in chunk steps plus single-bit steps.
    Without a usable left path, a left shift becomes a right rotate by
    32 - shamt; the logical form then needs a mask pass, which ANDs the
    result with `mask` to clear the bits that wrapped around. `mask` is 0
    when there is no mask pass. With left support the control still
    picks the emulated form for a logical shift when it is cheaper.
    """
    loop = _LOOP_OF[m]
    if loop != "sll" and loop != "rol":
        return _plan(loop, shamt, 0)
    if config.left_shift_support:
        steps = _move_steps(config.shift_chunk_width)
        emulated = len(steps[32 - shamt]) + config.chunks
        if loop == "rol" or len(steps[shamt]) <= emulated:
            return _plan(loop, shamt, 0)
    return _plan("ror", 32 - shamt, (MASK32 << shamt) & MASK32 if loop == "sll" else 0)


@functools.lru_cache(maxsize=None)
def _plan(loop: str, amount: int, mask: int) -> Tuple[str, int, int]:
    # one tuple per distinct plan, shared by every config's plans
    return loop, amount, mask


@functools.lru_cache(maxsize=256)
def _binding(config: CoreConfig) -> tuple:
    """What every core under `config` binds, built once: (latency table,
    {shift/rotate mnemonic: its 32 plans by amount}, move steps, lanes,
    lane masks). A lane is (mask << p, 1 << (p + w)) for the w-bit chunk
    at bit p, LSB first: the chunk's bits, and the bit where its carry-out
    lands. The lane masks are the first of each lane, in the same order."""
    steps = _move_steps(config.shift_chunk_width)
    chunks = config.chunks
    mem_op = chunks + config.mem_latency + 1  # address add, access, commit
    per_class = {
        ALU_CHUNKED: chunks, BRANCH: chunks, JUMP: chunks, XPERM: chunks,
        LOAD: mem_op, STORE: mem_op,
        CLMUL: config.clmul_latency, AES: config.aes_latency,
        SHA: config.sha_select_latency + chunks,
        REORDER: config.reorder_latency, FENCE_NOP: 1,
    }
    table, plans = {}, {}
    for m, klass in CLASS_OF.items():
        if m not in SHIFT_MNEMONICS:
            table[m] = per_class[klass]
            continue
        plans[m] = tuple(shift_plan(config, m, s) for s in range(32))
        costs = [len(steps[amount]) + (chunks if mask else 0) + 1
                 for _, amount, mask in plans[m]]
        table[m] = (max(costs),) * 32 if config.zkt else tuple(costs)
    w = config.serial_width
    lanes = tuple((((1 << w) - 1) << p, 1 << (p + w)) for p in range(0, 32, w))
    return (MappingProxyType(table), plans, steps, lanes,
            tuple(mask for mask, _ in lanes))


def latency_table(config: CoreConfig) -> MappingProxyType:
    """Execution cycles of every mnemonic in CLASS_OF under `config`.

    Shifts and rotates map to a 32-entry tuple indexed by shift amount; the
    cost of a plan is its movement steps, the mask pass and one writeback
    cycle. Under Zkt each such tuple is its own maximum repeated, so the
    latency no longer depends on the shift amount. The table is built once
    per config, with the shift plans, and shared by every caller and every
    core with an equal config, so it is read-only.
    """
    return _binding(config)[0]


def shift_latency(config: CoreConfig, mnemonic: M, shamt: int) -> int:
    """Cycles for one shift/rotate by `shamt`, including the writeback cycle."""
    return latency_table(config)[mnemonic][shamt]


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


@functools.lru_cache(maxsize=None)
def _wiring_tables(m: M) -> memoryview:
    """Four 256-entry tables of 32-bit words, one per source byte, built on
    first use: entry 256 * k + b holds the output bits source byte k drives
    when it is b."""
    t = memoryview(bytearray(4 * 1024)).cast("I")
    for i, src in enumerate(_REORDER_WIRING[m]):
        k, bit = divmod(src, 8)
        for b in range(256):
            if b >> bit & 1:
                t[256 * k + b] |= 1 << i
    return t


def _apply_wiring(m: M, v: int) -> int:
    t = _wiring_tables(m)
    return (t[v & 0xFF] | t[256 + (v >> 8 & 0xFF)]
            | t[512 + (v >> 16 & 0xFF)] | t[768 + (v >> 24 & 0xFF)])


# --- SHA unit wiring (fixed shifts into an XOR tree) ------------------------

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


def _sha_shifts(op: str, n: int) -> Tuple[int, int]:
    # a term is (v >> right | v << left) & MASK32; a shift by 32 or more
    # contributes nothing
    return {"r": (n, 32 - n), "s": (n, 32), "l": (32, n)}[op]


# the network as (right, left) shift pairs, one tuple per source operand
_SHA_WIRING = {m: tuple(tuple(_sha_shifts(op, n) for s, op, n in terms if s == src)
                        for src in (1, 2))
               for m, terms in _SHA_NETWORK.items()}


class MicroCore:
    """One serialized core instance: architectural state plus micro state."""

    def __init__(self, config: CoreConfig, state: ArchState):
        self.config = config
        (self.latency, self._plans, self._steps, self._lanes,
         self._lane_masks) = _binding(config)
        self.arch = state
        self._window = state.mem.buf  # the dense window, for the prefetch
        self._window_base = state.mem.base
        self._window_last = len(state.mem.buf) - 4  # the last word's offset
        self.serializer1 = 0
        self.serializer2 = 0
        self.fetch_buffer: Optional[Tuple[int, int]] = None
        self.lsu_buffer = 0
        self.store_addr: Optional[int] = None  # a store waiting in the LSU buffer
        self.carry = 0  # the carry latch between chunks, left by the last add
        self.cycle = 0
        self.startup_cycles = 0  # stays 0 until the first step fills the fetch buffer
        self._full = config.serial_width == 32  # a full-width ALU; no Serializer2
        self._mem_latency = config.mem_latency
        self._transfer_penalty = config.taken_branch_penalty + config.mem_latency - 1
        self._bound: dict = {}  # mnemonic -> its record, see _bind

    # -- chunked ALU data path ---------------------------------------------
    # The value units: each takes (a, b) and returns a 32-bit result. The
    # records of add, sub, and, or, xor and their I-forms hold one of them.

    def _chunk_add(self, a: int, b: int, carry_in: int = 0) -> int:
        """LSB-first chunked addition; returns the 32-bit sum and leaves the
        carry-out in the carry latch."""
        if self._full:
            s = a + b + carry_in
            self.carry = s >> 32
            return s & MASK32
        res = 0
        carry = carry_in
        for mask, out in self._lanes:
            s = (a & mask) + (b & mask) + carry
            res |= s & mask
            carry = s & out
        self.carry = carry >> 32
        self.serializer1 = 0
        self.serializer2 = res
        return res

    # One loop per bitwise op, lane by lane, LSB first, over the operands
    # combined once. andn, orn and xnor feed ~b to the and, or and xor loops.
    def _chunk_xor(self, a: int, b: int) -> int:
        if self._full:
            return (a ^ b) & MASK32
        v = a ^ b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        self.serializer1 = 0
        self.serializer2 = res
        return res

    def _chunk_and(self, a: int, b: int) -> int:
        if self._full:
            return a & b & MASK32
        v = a & b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        self.serializer1 = 0
        self.serializer2 = res
        return res

    def _chunk_or(self, a: int, b: int) -> int:
        if self._full:
            return (a | b) & MASK32
        v = a | b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        self.serializer1 = 0
        self.serializer2 = res
        return res

    def _chunk_sub(self, a: int, b: int) -> int:
        # a - b == a + ~b + 1 with the carry latch preloaded
        return self._chunk_add(a, (~b) & MASK32, 1)

    def _less_than(self, a: int, b: int, signed: bool) -> int:
        diff = self._chunk_sub(a, b)
        if not signed:
            return 0 if self.carry else 1  # carry-out set means no borrow
        a_neg = a >> 31
        b_neg = b >> 31
        if a_neg != b_neg:
            return a_neg
        return diff >> 31

    # -- serializer shift/rotate path ----------------------------------------

    def _serial_move(self, v: int, amount: int, loop: str) -> int:
        """Move `v` by `amount` bits along `loop` (sll, rol, srl, ror or
        sra), one step of `_steps[amount]` at a time: chunk steps, then
        single-bit steps."""
        steps = self._steps[amount]
        if loop == "srl":
            for k in steps:
                v >>= k
        elif loop == "sll":
            for k in steps:
                v = (v << k) & MASK32
        elif loop == "ror":
            for k in steps:
                v = (v >> k) | ((v & ((1 << k) - 1)) << (32 - k))
        elif loop == "rol":
            for k in steps:
                v = ((v << k) & MASK32) | (v >> (32 - k))
        elif v >> 31:  # sra of a negative operand
            # each step fills the k vacated bits with the sign, which stays set
            for k in steps:
                v = (v >> k) | ((MASK32 << (32 - k)) & MASK32)
        else:
            for k in steps:
                v >>= k
        self.serializer1 = v
        return v

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
        rotated = self._serial_move(word, (8 * bs) & 31, "rol")
        return (rs1 ^ rotated) & MASK32

    def _sha_unit(self, m: M, rs1: int, rs2: int) -> int:
        # fixed-shift multiplexer: the terms of each source meet in an XOR
        # tree, and one chunked XOR pass merges the two trees
        wiring1, wiring2 = _SHA_WIRING[m]
        t1 = t2 = 0
        for right, left in wiring1:
            t1 ^= (rs1 >> right) | (rs1 << left)
        for right, left in wiring2:
            t2 ^= (rs2 >> right) | (rs2 << left)
        return self._chunk_xor(t1 & MASK32, t2 & MASK32)

    def _clmul_unit(self, m: M, rs1: int, rs2: int) -> int:
        # bit-serial accumulation: the multiplier bit gates whether the
        # shifted multiplicand is folded into the Serializer1 accumulator
        acc = 0
        for i in range(32):
            if (rs2 >> i) & 1:
                acc ^= rs1 << i
        self.serializer1 = acc & MASK32
        return (acc >> 32) & MASK32 if m is M.CLMULH else acc & MASK32

    def _xperm_unit(self, m: M, rs1: int, rs2: int) -> int:
        # each digit of rs2 selects a digit of rs1; an index past the last
        # digit selects zero
        digit = 8 if m is M.XPERM8 else 4
        mask = (1 << digit) - 1
        out = 0
        for i in range(32 // digit):
            src = (rs2 >> (digit * i)) & mask
            if src < 32 // digit:
                out |= ((rs1 >> (digit * src)) & mask) << (digit * i)
        if self.config.serial_width < 32:
            self.serializer2 = out
        return out

    # -- instruction execution -------------------------------------------------

    def _bind(self, m: M) -> tuple:
        """Bind the record of mnemonic `m` under this core's config and keep
        it: (value unit, handler, operand 2 is the immediate, cycles, access
        size, [retired, charged cycles]). An illegal mnemonic has neither a
        unit nor a handler."""
        ext = isa.EXT_OF[m]
        execute = _EXECUTE[m]
        unit = handler = None
        if ext is Ext.RV32I or ext in self.config.extensions:
            if type(execute) is str:
                # the class's function, never a bound method: a record that
                # held the core would keep every finished core for the gc
                unit = getattr(type(self), execute)
            else:
                handler = execute
        rec = self._bound[m] = (unit, handler, m in isa.IMM_FORMS,
                                self.latency[m], isa.ACCESS_BYTES.get(m), [0, 0])
        return rec

    def retired(self) -> dict:
        """{mnemonic: (instructions retired, cycles charged to them)} over
        every mnemonic that retired on this core."""
        return {m: tuple(rec[5]) for m, rec in self._bound.items() if rec[5][0]}

    def step(self, max_cycles: Optional[int] = None
             ) -> Tuple[int, StepOutcome, Optional[Instr]]:
        """Fetch, decode and execute one instruction, in one frame.

        Returns (charged cycles, outcome, instruction or None when the
        fetch/decode itself trapped). The first step also fills the fetch
        buffer, which costs `startup_cycles` more. Charged cycles include
        the frontend effects: overlap of the next fetch with execution (a
        stall if execution is shorter than mem_latency) and the flush
        penalty of taken control transfers. If a step's cycles would take
        `cycle` past `max_cycles`, it writes nothing and halts with
        max-steps.
        """
        arch = self.arch
        fill = 0
        if not self.startup_cycles:
            fill = self._mem_latency
        if max_cycles is not None and self.cycle + fill > max_cycles:
            return 0, _OVER_BUDGET, None
        if fill:  # taken back below if the instruction overruns the budget
            self.startup_cycles = fill
            self.cycle += fill
        pc = arch.pc
        if pc & 3:
            return 0, _MISALIGNED_FETCH, None
        buf = self.fetch_buffer
        word = buf[1] if buf is not None and buf[0] == pc else arch.mem.load(pc, 4)
        # a word decoded before is one probe of the decode cache
        try:
            ins = _DECODE_CACHE[word]
        except KeyError:
            try:
                ins = isa.decode_cached(word)
            except isa.IllegalInstruction:
                return 0, _ILLEGAL, None

        # bind, then execute on the record
        m, rd, rs1, rs2, imm, _, _ = ins
        rec = self._bound.get(m)
        if rec is None:
            rec = self._bind(m)
        unit, handler, imm_op2, cycles, size, counts = rec
        regs = arch.regs
        op2 = imm & MASK32 if imm_op2 else regs[rs2]
        outcome = RETIRED
        if unit is not None:
            val = unit(self, regs[rs1], op2)
            target = None
        elif handler is None:
            return 0, _ILLEGAL, ins
        else:
            if type(cycles) is tuple:  # a shift or rotate, costed by its amount
                cycles = cycles[op2 & 31]
            try:
                val, target = handler(self, ins, regs[rs1], op2)
            except _Halt as halt:
                # ebreak and ecall retire, with no next fetch to overlap
                charged = cycles if halt.retires else 0
                outcome = halt.outcome

        # frontend: overlap the sequential prefetch, or flush on a transfer
        if outcome is RETIRED:
            if target is None:
                charged = self._mem_latency
                if cycles > charged:
                    charged = cycles
            else:
                charged = cycles + self._transfer_penalty
        if max_cycles is not None and self.cycle + charged > max_cycles:
            self.store_addr = None
            if fill:
                self.cycle -= fill
                self.startup_cycles = 0
            return 0, _OVER_BUDGET, ins
        self.cycle += charged
        if charged:  # cycles are charged to a retired instruction only
            counts[0] += 1
            counts[1] += charged
        if outcome is not RETIRED:
            return charged, outcome, ins

        # commit
        if self.store_addr is not None:
            arch.mem.store(self.store_addr, size, self.lsu_buffer)
            self.store_addr = None
        if val is not None and rd:
            regs[rd] = val & MASK32
        if target is None:
            pc = (arch.pc + 4) & MASK32
            arch.pc = pc
            if pc & 3:
                return charged, _MISALIGNED_FETCH, ins
            # the sequential prefetch: a dense-window word straight from the
            # bound buffer, anything else through the memory port
            off = pc - self._window_base
            if 0 <= off <= self._window_last:
                self.fetch_buffer = (pc, _unpack_word(self._window, off)[0])
            else:
                self.fetch_buffer = (pc, arch.mem.load(pc, 4))
        else:
            pc = target & MASK32
            arch.pc = pc
            self.fetch_buffer = None
            if pc & 3:
                return charged, _MISALIGNED_FETCH, ins
        return charged, RETIRED, ins


_OVER_BUDGET = StepOutcome(True, MAX_STEPS)
_ILLEGAL = StepOutcome(True, ILLEGAL)
_MISALIGNED_FETCH = StepOutcome(True, MISALIGNED_FETCH)


class _Halt(Exception):
    """Raised by a handler that halts the core; it has written nothing."""

    def __init__(self, reason: str, retires: bool = False):
        super().__init__(reason)
        self.outcome = StepOutcome(True, reason)
        self.retires = retires


def _halt(reason: str):
    def handler(core, i, a, b):
        raise _Halt(reason, retires=True)
    return handler


def _branch(taken):
    return lambda core, i, a, b: (
        None, core.arch.pc + i.imm if taken(core, a, b) else None)


def _lsu_address(ins: Instr, rs1: int) -> int:
    addr = (rs1 + ins.imm) & MASK32
    if addr % isa.ACCESS_BYTES[ins.mnemonic]:
        raise _Halt(MISALIGNED_ACCESS)
    return addr


def _load(signed: bool):
    def handler(core, i, a, b):
        # a full-word read through the LSU buffer, then the addressed bytes
        addr = _lsu_address(i, a)
        core.lsu_buffer = core.arch.mem.load(addr & ~3, 4)
        bits = 8 * isa.ACCESS_BYTES[i.mnemonic]
        val = (core.lsu_buffer >> (8 * (addr & 3))) & ((1 << bits) - 1)
        if signed:
            sign = 1 << (bits - 1)
            val = (val ^ sign) - sign
        return val, None
    return handler


def _shift(core, i, a, b):
    # the shift unit carries out the plan of this mnemonic and amount
    loop, amount, mask = core._plans[i.mnemonic][b & 31]
    v = core._serial_move(a, amount, loop)
    return (v & mask if mask else v), None


def _store(core, i, a, b):
    # the value waits in the LSU buffer until the instruction commits
    core.store_addr = _lsu_address(i, a)
    core.lsu_buffer = b
    return None, None


# What each mnemonic does on the chunked data path: the name of a MicroCore
# value unit, or a handler. A handler takes (core, instruction, rs1 value,
# operand 2) and returns (value for rd or None, jump target or None for the
# next instruction); it writes no architectural state. Operand 2 is the
# immediate for the isa.IMM_FORMS, so each I-form shares the entry of its
# R-form.
_EXECUTE = {
    M.ADD: "_chunk_add",
    M.SUB: "_chunk_sub",
    M.AND: "_chunk_and",
    M.OR: "_chunk_or",
    M.XOR: "_chunk_xor",
    M.ANDN: lambda core, i, a, b: (core._chunk_and(a, ~b & MASK32), None),
    M.ORN: lambda core, i, a, b: (core._chunk_or(a, ~b & MASK32), None),
    M.XNOR: lambda core, i, a, b: (core._chunk_xor(a, ~b & MASK32), None),
    M.SLT: lambda core, i, a, b: (core._less_than(a, b, True), None),
    M.SLTU: lambda core, i, a, b: (core._less_than(a, b, False), None),
    M.LUI: lambda core, i, a, b: ((i.imm << 12) & MASK32, None),
    M.AUIPC: lambda core, i, a, b: (
        core._chunk_add(core.arch.pc, (i.imm << 12) & MASK32), None),
    M.PACK: lambda core, i, a, b: (((b & 0xFFFF) << 16) | (a & 0xFFFF), None),
    M.PACKH: lambda core, i, a, b: (((b & 0xFF) << 8) | (a & 0xFF), None),
    M.BEQ: _branch(lambda core, a, b: core._chunk_xor(a, b) == 0),
    M.BNE: _branch(lambda core, a, b: core._chunk_xor(a, b) != 0),
    M.BLT: _branch(lambda core, a, b: core._less_than(a, b, True) == 1),
    M.BGE: _branch(lambda core, a, b: core._less_than(a, b, True) == 0),
    M.BLTU: _branch(lambda core, a, b: core._less_than(a, b, False) == 1),
    M.BGEU: _branch(lambda core, a, b: core._less_than(a, b, False) == 0),
    M.JAL: lambda core, i, a, b: (
        core.arch.pc + 4, core._chunk_add(core.arch.pc, i.imm & MASK32)),
    M.JALR: lambda core, i, a, b: (
        core.arch.pc + 4, core._chunk_add(a, i.imm & MASK32) & ~1),
    M.LB: _load(True),
    M.LH: _load(True),
    M.LW: _load(False),
    M.LBU: _load(False),
    M.LHU: _load(False),
    M.SB: _store,
    M.SH: _store,
    M.SW: _store,
    M.FENCE: lambda core, i, a, b: (None, None),
    M.EBREAK: _halt(EBREAK),
    M.ECALL: _halt(ECALL),
}
# each function unit serves its whole latency class
_BY_CLASS = {
    SHIFT: _shift,
    ROTATE: _shift,
    AES: lambda core, i, a, b: (core._aes_unit(i.mnemonic, a, b, i.bs), None),
    SHA: lambda core, i, a, b: (core._sha_unit(i.mnemonic, a, b), None),
    CLMUL: lambda core, i, a, b: (core._clmul_unit(i.mnemonic, a, b), None),
    XPERM: lambda core, i, a, b: (core._xperm_unit(i.mnemonic, a, b), None),
    REORDER: lambda core, i, a, b: (_apply_wiring(i.mnemonic, a), None),
}
_EXECUTE.update((m, _BY_CLASS[c]) for m, c in CLASS_OF.items() if c in _BY_CLASS)
for _m, _r in isa.R_FORM_OF.items():
    _EXECUTE[_m] = _EXECUTE[_r]
