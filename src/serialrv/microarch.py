"""Cycle-accurate model of the serialized core.

Execution walks the operands in serial_width-bit chunks, LSB first,
with a carry latch between chunks. The fetch buffer overlaps
instruction fetch with multi-cycle execution; taken control transfers
flush it and pay a fixed penalty. The buffer is timing alone: the core
holds no copy of a fetched word. Nor does it keep anything that ends
with its step: an add's carry-out (bit 32 of `_chunk_add`'s sum) and a
store's (address, value) travel in the step's own values to its commit.

At width 32 the ALU is full-width (one lane, so no chunk loop), but the
shift unit still serializes in 8-bit chunks plus single-bit steps, and
clmul still accumulates bit by bit.

`latency_table` is the cycle model: the execution cycles of every
mnemonic under one CoreConfig. It is built in one pass with the config's
shift plans (see `shift_plan`), and each shift is costed from the same
plan the shift unit carries out. The frontend rule (fetch overlap,
taken-transfer flush) is bound beside it, in the same pass, as each
mnemonic's two charges (see `_binding`).

One frame of `MicroCore.step` carries an instruction from fetch to
commit: fetch, decode, the record lookup, execute, the pick of one of
the record's charges, the cycle-budget check, the per-mnemonic count
and the commit; every instruction that retires, ebreak and ecall too,
takes the same lines. A plain call runs one instruction. A call with
`expect` (golden's recorded deltas and a copy of golden's registers, see
`cosim.lockstep`) runs the same lines in a loop, one instruction per
delta, and compares the core with golden after each: it stops at the
first instruction that halts, leaves the pc or any of the 32 registers
unlike golden's, or takes the last delta. The fetch has one path: the
core's first step pays the fill, then the pc's alignment is checked and
the word is read. Every memory's dense window lies at address 0 (see
`golden.Memory`), so a pc no higher than the window's last word reads
straight from the window, and any other pc through the memory port. A
fetch that hits isa's decode cache makes no Python call: the frame
probes the dict itself, through its bound `get`, and unpacks the
instruction's fields once. `step` is the core's only way in: every
instruction, a program's, the audit's or cosim's, passes through these
lines.

Every step ends in one of golden's shared outcomes, `RETIRED` or the
`HALT` entry of its reason, and nothing on the step path raises or
catches: an illegal word is `isa.decode_cached`'s None. One retire rule
holds in both models: a step that halts retires nothing and changes
nothing, except one whose outcome is ebreak's or ecall's, which retires
(charged and counted, pc left where it was) and halts. A store to the
exit word is such a step: it commits, takes its sequential charge and
halts with the ECALL outcome, as `Memory.store` tells the commit. Each
trap has one site. A misaligned pc traps at its fetch, so a taken
transfer to a target 2 mod 4 retires, writing rd and pc, and the next
step's fetch traps. A handler whose access is misaligned returns that
trap's outcome where a jump target would go, as ebreak and ecall return
theirs; on a step with a target the frame tells the trap apart by one
identity test, and the trap charges and counts nothing. A sequential
step never reaches that test.

What is bound once, so that a step need not work it out again (none of
it changes a simulated cycle):

- per mnemonic, at import: the handler in `_EXECUTE` of every mnemonic
  of a function-unit class but shift and rotate (load, store, AES, SHA,
  clmul, xperm, reorder), built by its unit's factory with that
  mnemonic's constants bound in: its access size and sign, its S-box and
  mix as one word per input byte, its SHA wiring, its digit width, its
  half of the product, or its four reorder byte tables, built from
  `_REORDER_WIRING` by `_wiring_tables`. No handler reads the mnemonic
  of the instruction it executes.
- per config, in `__init__`: one binding shared by every core under an
  equal config and by `latency_table`. It holds the latency table, one
  record per mnemonic, the shift unit's step sequence for every move
  amount, one lane per chunk and the lane masks (see `_binding`): a
  chunk loop combines each chunk where it sits, never moving it down to
  bit 0, and a bitwise loop walks the masks alone.
- per config, one record per mnemonic: what executes it, whether
  operand 2 is the immediate (else rs2), its sequential charge, its taken
  charge, its store size (None but for sb, sh and sw), which the commit
  tests to write the (address, value) that the store unit returned, and
  its count slot. What executes it is a value unit, a handler or a row,
  or none of them when its extension is not enabled: then the record
  binds no charge, so no row. A value unit is a chunk function of the
  class (add, sub, and, or, xor and their I-forms), which the frame calls
  as `unit(core, rs1, operand 2)` for the rd value. A shift or rotate's
  sequential charge is its row, one (charge, move function, steps, mask)
  per amount, so the frame reads its charge and plan at once and calls
  the move function itself, with no test of which loop it is. The record
  holds functions, never a method bound to a core, so a finished core is
  freed as soon as nothing refers to it.
- A record holds no field of an instruction word: rd, rs1, rs2 and the
  immediate are read from the decoded instruction when it retires, so
  storing over code needs no invalidation. A handler or unit is read
  when the binding is built, so one replaced later reaches only the
  cores built from an uncached binding (`_binding.__wrapped__`).
- per core, in `__init__`: the dense memory window the fetch reads,
  `_window` (the buffer, never replaced or resized), and the counts: the
  retired count and charged cycles of each mnemonic, at its record's
  count slot, added where the cycles are charged; `retired` reads them
  out.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import NamedTuple, Optional, Tuple

from . import golden, isa
from .golden import (ArchState, StepOutcome, RETIRED, HALT, MASK32, EBREAK,
                     ECALL, ILLEGAL, MAX_STEPS, MISALIGNED_FETCH, MISALIGNED_ACCESS,
                     _halt, _unpack_word)
from .isa import Ext, Instr, Mnemonic as M

VALID_WIDTHS = (1, 2, 4, 8, 16, 32)
# the decode cache's probe: the Instr of a word decoded before, else None
_cached_instr = isa._DECODE_CACHE.get
_NO_BUDGET = 1 << 64  # a cycle budget that no run reaches
_WINDOW_LAST = golden.WINDOW_SIZE - 4  # the dense window's last word address

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


class _Knobs(NamedTuple):
    serial_width: int = 32
    extensions: frozenset = frozenset()
    left_shift_support: bool = True
    mem_latency: int = 1
    taken_branch_penalty: int = 2
    aes_latency: int = 3
    clmul_latency: int = 33
    reorder_latency: int = 1
    sha_select_latency: int = 1


class CoreConfig(_Knobs):
    """Serialization width, enabled extensions and timing-model knobs.

    An immutable tuple of the nine knobs. Every way to build one, `_replace`
    and unpickling included, passes the checks of `__new__`."""

    __slots__ = ()

    def __new__(cls, *args, **knobs):
        self = super().__new__(cls, *args, **knobs)
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
        extensions = frozenset(self.extensions)
        for ext in extensions:
            if not isinstance(ext, Ext):
                raise ValueError(f"extensions must hold Ext members, not {ext!r}")
        return tuple.__new__(cls, (self[0], extensions) + self[2:])

    @classmethod
    def _make(cls, iterable) -> "CoreConfig":
        return cls(*iterable)

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
        return loop, shamt, 0
    if config.left_shift_support:
        steps = _move_steps(config.shift_chunk_width)
        emulated = len(steps[32 - shamt]) + config.chunks
        if loop == "rol" or len(steps[shamt]) <= emulated:
            return loop, shamt, 0
    return "ror", 32 - shamt, (MASK32 << shamt) & MASK32 if loop == "sll" else 0


# The shift unit's loops, one per direction and fill: each moves a 32-bit
# value by the steps it is given, one chunk or single-bit step at a time.

def _move_sll(v: int, steps: tuple) -> int:
    for k in steps:
        v = (v << k) & MASK32
    return v


def _move_rol(v: int, steps: tuple) -> int:
    for k in steps:
        v = ((v << k) & MASK32) | (v >> (32 - k))
    return v


def _move_srl(v: int, steps: tuple) -> int:
    for k in steps:
        v >>= k
    return v


def _move_ror(v: int, steps: tuple) -> int:
    for k in steps:
        v = (v >> k) | ((v & ((1 << k) - 1)) << (32 - k))
    return v


def _move_sra(v: int, steps: tuple) -> int:
    if v >> 31:  # a negative operand
        # each step fills the k vacated bits with the sign, which stays set
        for k in steps:
            v = (v >> k) | ((MASK32 << (32 - k)) & MASK32)
        return v
    for k in steps:
        v >>= k
    return v


_MOVE = {"sll": _move_sll, "rol": _move_rol, "srl": _move_srl,
         "ror": _move_ror, "sra": _move_sra}


@functools.lru_cache(maxsize=256)
def _binding(config: CoreConfig) -> tuple:
    """What every core under `config` binds, built once: (latency table,
    {mnemonic: its record}, move steps, lanes, lane masks).

    A record is (value unit, handler, operand 2 is the immediate,
    sequential charge or a shift's row, taken charge, store size, count
    slot), one per mnemonic in `Mnemonic` order. A mnemonic whose
    extension is not enabled has no unit, handler or charge. The count
    slot k is where a core counts the mnemonic: retirements at k, charged
    cycles at k + 1.

    The charges are the frontend rule. Going on to pc + 4 overlaps the next
    fetch with execution: max(execute, mem_latency), by amount for a shift
    or rotate (never taken: None). A taken branch or jump flushes the fetch
    buffer: execute + taken_branch_penalty + mem_latency - 1. ebreak and
    ecall, which fetch nothing after them, take their execute cycles.

    A shift or rotate's sequential charge is its row, one entry per amount:
    (charge, move function, steps, mask), the plan of `shift_plan` with its
    loop as the `_MOVE` function and MASK32 for no mask pass. Under Zkt
    each entry charges the maximum and keeps its own plan. A lane is
    (mask << p, 1 << (p + w)) for the w-bit chunk at bit p, LSB first: the
    chunk's bits, and the bit where its carry-out lands. The lane masks are
    the first of each lane, in the same order."""
    steps = _move_steps(config.shift_chunk_width)
    chunks = config.chunks
    fetch = config.mem_latency
    flush = config.taken_branch_penalty + fetch - 1
    mem_op = chunks + fetch + 1  # address add, access, commit
    per_class = {
        ALU_CHUNKED: chunks, BRANCH: chunks, JUMP: chunks, XPERM: chunks,
        LOAD: mem_op, STORE: mem_op,
        CLMUL: config.clmul_latency, AES: config.aes_latency,
        SHA: config.sha_select_latency + chunks,
        REORDER: config.reorder_latency, FENCE_NOP: 1,
    }
    table, records = {}, {}
    for slot, m in enumerate(M):
        if m not in SHIFT_MNEMONICS:
            execute = table[m] = per_class[CLASS_OF[m]]
            halts = m is M.EBREAK or m is M.ECALL
            sequential, taken = max(execute, fetch), execute + (0 if halts else flush)
        else:
            by_amount = [shift_plan(config, m, s) for s in range(32)]
            costs = [len(steps[amount]) + (chunks if mask else 0) + 1
                     for _, amount, mask in by_amount]
            table[m] = (max(costs),) * 32 if config.zkt else tuple(costs)
            sequential = tuple((max(c, fetch), _MOVE[loop], steps[amount], mask or MASK32)
                               for c, (loop, amount, mask) in zip(table[m], by_amount))
            taken = None
        unit = handler = None
        if m.ext is not Ext.RV32I and m.ext not in config.extensions:
            sequential = taken = None
        elif type(_EXECUTE[m]) is str:
            # the class's function, never a bound method: a record that
            # held a core would keep every finished core for the gc
            unit = getattr(MicroCore, _EXECUTE[m])
        else:
            handler = _EXECUTE[m]
        size = isa.ACCESS_BYTES[m] if CLASS_OF[m] == STORE else None
        records[m] = (unit, handler, m in isa.IMM_FORMS, sequential, taken, size, 2 * slot)
    w = config.serial_width
    lanes = tuple((((1 << w) - 1) << p, 1 << (p + w)) for p in range(0, 32, w))
    return (MappingProxyType(table), records, steps, lanes,
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


def _wiring_tables(m: M) -> tuple:
    """Four 256-entry tables, one per source byte: entry b of table k holds
    the output bits that source byte k drives when it is b."""
    drives = [0] * 32  # the output bits each source bit drives
    for i, src in enumerate(_REORDER_WIRING[m]):
        drives[src] |= 1 << i
    tables = []
    for k in range(0, 32, 8):
        t = [0]
        for drive in drives[k:k + 8]:  # t covers the values of the bits below
            t += [v | drive for v in t]
        tables.append(tuple(t))
    return tuple(tables)


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
        _, self._bound, self._steps, self._lanes, self._lane_masks = _binding(config)
        self._counts = [0] * (2 * len(self._bound))  # see retired
        self.arch = state
        self._window = state.mem.buf  # the dense window, for the fetch
        self.cycle = 0
        self.startup_cycles = 0  # stays 0 until the first step fills the fetch buffer
        self._full = config.serial_width == 32  # a full-width ALU: one lane, no loop

    # -- chunked ALU data path ---------------------------------------------
    # The value units of add, sub, and, or, xor and their I-forms: each takes
    # (a, b) and returns its result, an add's with the carry-out in bit 32.

    def _chunk_add(self, a: int, b: int, carry_in: int = 0) -> int:
        """LSB-first chunked addition; returns the 32-bit sum with the last
        chunk's carry-out in bit 32."""
        if self._full:
            return a + b + carry_in
        res = 0
        carry = carry_in  # the carry latch between chunks
        for mask, out in self._lanes:
            s = (a & mask) + (b & mask) + carry
            res |= s & mask
            carry = s & out
        return res | carry

    # One loop per bitwise op, lane by lane, LSB first, over the operands
    # combined once. andn, orn and xnor feed ~b to the and, or and xor loops.
    def _chunk_xor(self, a: int, b: int) -> int:
        if self._full:
            return (a ^ b) & MASK32
        v = a ^ b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        return res

    def _chunk_and(self, a: int, b: int) -> int:
        if self._full:
            return a & b & MASK32
        v = a & b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        return res

    def _chunk_or(self, a: int, b: int) -> int:
        if self._full:
            return (a | b) & MASK32
        v = a | b
        res = 0
        for mask in self._lane_masks:
            res |= v & mask
        return res

    def _chunk_sub(self, a: int, b: int) -> int:
        # a - b == a + ~b + 1, the 1 as the first chunk's carry-in
        return self._chunk_add(a, (~b) & MASK32, 1)

    def _less_than(self, a: int, b: int, signed: bool) -> int:
        diff = self._chunk_sub(a, b)
        if not signed:
            return 1 - (diff >> 32)  # carry-out set means no borrow
        a_neg = a >> 31
        b_neg = b >> 31
        if a_neg != b_neg:
            return a_neg
        return diff >> 31 & 1

    # -- instruction execution -------------------------------------------------

    def retired(self) -> dict:
        """{mnemonic: (instructions retired, cycles charged to them)} over
        every mnemonic that retired on this core, in `Mnemonic` order."""
        counts = self._counts  # the records' count slots are 0, 2, 4, ... in order
        return {m: (n, cycles) for m, n, cycles
                in zip(self._bound, counts[::2], counts[1::2]) if n}

    def step(self, max_cycles: int = _NO_BUDGET, expect: Optional[tuple] = None
             ) -> Tuple[int, StepOutcome, Optional[Instr]]:
        """Fetch, decode and execute one instruction, in one frame; with
        `expect`, as many as golden's run lets through.

        Returns (charged cycles, outcome, instruction or None when the
        fetch/decode itself trapped) of the last instruction run. The
        core's first step fills the fetch buffer, which adds
        `startup_cycles` to `cycle` but not to the returned charge. Every
        step then checks the pc's alignment and reads its word from memory
        as it is now: a dense-window word straight from the window, any
        other through the memory port. A step is charged one of its
        record's two charges (see `_binding`): the taken one when it
        transfers control or is ebreak or ecall, else the sequential one
        (an exit store's too), for a shift or rotate its row's entry for
        the amount, which also holds the plan the frame runs. If a step's
        cycles would take `cycle` past `max_cycles`, it writes nothing and
        halts with max-steps. Only a store's record has a size, so only a
        store commits through the memory port; one that hits the exit word
        halts there with the ECALL outcome, charged and counted, pc left
        on it.

        `expect` is (deltas, gold): golden's recorded steps, at least
        one, each (pc after, rd, rd's value after) as `cosim._golden_run`
        records them, and a list of golden's 32 registers before the
        first. The core then runs one instruction per delta, read just
        before it runs. After each retired one, the delta's value goes
        into `gold` and the core's pc and all 32 registers are compared
        with golden's. The run stops at the first instruction that halts
        (its delta is not applied), that leaves the pc or a register
        unlike golden's, or that takes the last delta. A delta holds no
        outcome: only golden's last step can halt, and cosim reads its
        outcome from the trace.
        """
        arch = self.arch
        regs = arch.regs
        counts = self._counts
        fill = 0
        if not self.startup_cycles:  # the first fetch fills the fetch buffer
            fill = self.startup_cycles = self.config.mem_latency
            self.cycle += fill
            if self.cycle > max_cycles:
                return self._over_budget(fill, None)
        if expect is not None:
            deltas, gold = expect
            deltas = iter(deltas)
            delta = next(deltas)
        while True:
            pc = arch.pc
            if pc & 3:
                return 0, HALT[MISALIGNED_FETCH], None
            # a dense-window word straight from the window bound in __init__,
            # any other through the memory port
            if pc <= _WINDOW_LAST:
                word = _unpack_word(self._window, pc)[0]
            else:
                word = arch.mem.load(pc, 4)
            # a word decoded before is one probe of the decode cache
            ins = _cached_instr(word)
            if ins is None:
                ins = isa.decode_cached(word)
                if ins is None:
                    return 0, HALT[ILLEGAL], None

            # execute on the mnemonic's record and pick its charge
            m, rd, rs1, rs2, imm, _, _ = ins
            unit, handler, imm_op2, charged, taken, size, k = self._bound[m]
            op2 = imm & MASK32 if imm_op2 else regs[rs2]
            if unit is not None:
                val = unit(self, regs[rs1], op2)
                target = None
            elif handler is None:
                if charged is None:  # its extension is not enabled
                    return 0, HALT[ILLEGAL], ins
                # a shift or rotate: its row's entry for the amount
                charged, move, steps, mask = charged[op2 & 31]
                val = move(regs[rs1], steps) & mask
                target = None
            else:
                val, target = handler(self, ins, regs[rs1], op2)
                if target is not None:
                    if target is _MISALIGNED_ACCESS:  # a trap: nothing charged or counted
                        return 0, target, ins
                    charged = taken
            cycle = self.cycle + charged
            if cycle > max_cycles:
                return self._over_budget(fill, ins)
            self.cycle = cycle
            counts[k] += 1
            counts[k + 1] += charged

            # commit: only a store's record has a size; its value is (address, value)
            if size is not None:
                if arch.mem.store(val[0], size, val[1]):  # the exit word: pc stays
                    return charged, HALT[ECALL], ins
            elif val is not None and rd:
                regs[rd] = val & MASK32
            if target is None:
                arch.pc = (pc + 4) & MASK32
            elif type(target) is StepOutcome:  # ebreak or ecall: pc stays
                return charged, target, ins
            else:
                arch.pc = target & MASK32
            if expect is None:
                return charged, RETIRED, ins

            # replay: every halting step has returned above; a retired one
            # applies its delta and is compared with golden
            gold_pc, gold_rd, value = delta
            gold[gold_rd] = value
            if arch.pc != gold_pc or regs != gold:
                return charged, RETIRED, ins
            # an equal int, but the core's own object: the next compare
            # then finds every register identical without comparing values
            gold[gold_rd] = regs[gold_rd]
            # the next step's delta: a `for` that breaks at once reads it
            # without a call
            for delta in deltas:
                break
            else:  # this step took the last delta
                return charged, RETIRED, ins
            fill = 0  # only the first step's budget halt takes back the fill

    def _over_budget(self, fill: int, ins: Optional[Instr]) -> tuple:
        """Halt with max-steps having written nothing: take back the first
        step's fill. The step returns before its commit, so nothing else
        of it is left to undo."""
        if fill:
            self.cycle -= fill
            self.startup_cycles = 0
        return 0, HALT[MAX_STEPS], ins


_MISALIGNED_ACCESS = HALT[MISALIGNED_ACCESS]  # the one trap a handler returns


def _branch(taken):
    return lambda core, i, a, b: (
        None, core.arch.pc + i.imm if taken(core, a, b) else None)


def _load_unit(m: M, signed: bool):
    size = isa.ACCESS_BYTES[m]
    field = (1 << 8 * size) - 1
    sign = 1 << (8 * size - 1) if signed else 0  # x ^ 0 - 0 is x

    def lsu_load(core, i, a, b):
        # a full-word read, then the addressed bytes
        addr = (a + i.imm) & MASK32
        if addr & (size - 1):
            return None, _MISALIGNED_ACCESS
        word = core.arch.mem.load(addr & ~3, 4)
        val = (word >> 8 * (addr & 3)) & field
        return (val ^ sign) - sign, None
    return lsu_load


def _store_unit(m: M):
    size = isa.ACCESS_BYTES[m]

    def lsu_store(core, i, a, b):
        # the (address, value) the commit writes
        addr = (a + i.imm) & MASK32
        if addr & (size - 1):
            return None, _MISALIGNED_ACCESS
        return (addr, b), None
    return lsu_store


def aes_words(m: M):
    """The word that the S-box and mix of `m` drive, for each input byte.

    It is the AES unit's table and, packed little-endian, bench's rv32i
    T-table: Te0 for AES32ESMI, Td0 for AES32DSMI. Golden's
    `aes32_semantics` computes the same words with its own arithmetic,
    so cosim checks this one table for both."""
    if m is M.AES32ESI:
        return golden.AES_SBOX
    if m is M.AES32DSI:
        return golden.AES_SBOX_INV
    x2 = [golden.xt2(b) for b in range(256)]
    if m is M.AES32ESMI:
        return tuple(x2[s] | (s << 8) | (s << 16) | ((x2[s] ^ s) << 24)
                     for s in golden.AES_SBOX)
    words = []
    for s in golden.AES_SBOX_INV:
        s2 = x2[s]
        s4 = x2[s2]
        s8 = x2[s4]
        words.append((s8 ^ s4 ^ s2) | ((s8 ^ s) << 8)
                     | ((s8 ^ s4 ^ s) << 16) | ((s8 ^ s2 ^ s) << 24))
    return tuple(words)


def _aes_unit(m: M):
    words = aes_words(m)

    def aes(core, i, a, b):
        # byte select via the operand mask, S-box and mix as one table
        # word, then rotate and XOR merge
        shift = 8 * i.bs
        byte = (b >> shift) & 0xFF
        return (a ^ _move_rol(words[byte], core._steps[shift])) & MASK32, None
    return aes


def _sha_unit(m: M):
    wiring1, wiring2 = _SHA_WIRING[m]

    def sha(core, i, a, b):
        # fixed-shift multiplexer: the terms of each source meet in an XOR
        # tree, and one chunked XOR pass merges the two trees
        t1 = t2 = 0
        for right, left in wiring1:
            t1 ^= (a >> right) | (a << left)
        for right, left in wiring2:
            t2 ^= (b >> right) | (b << left)
        return core._chunk_xor(t1 & MASK32, t2 & MASK32), None
    return sha


def _clmul_unit(m: M):
    half = 32 if m is M.CLMULH else 0  # the half of the product kept

    def clmul(core, i, a, b):
        # bit-serial accumulation: the multiplier bit gates whether the
        # shifted multiplicand is folded into the accumulator
        acc = 0
        for k in range(32):
            if (b >> k) & 1:
                acc ^= a << k
        return (acc >> half) & MASK32, None
    return clmul


def _xperm_unit(m: M):
    digit = 8 if m is M.XPERM8 else 4
    mask = (1 << digit) - 1
    count = 32 // digit

    def xperm(core, i, a, b):
        # each digit of rs2 selects a digit of rs1; an index past the last
        # digit selects zero
        out = 0
        for pos in range(0, 32, digit):
            src = (b >> pos) & mask
            if src < count:
                out |= ((a >> (digit * src)) & mask) << pos
        return out, None
    return xperm


def _reorder_unit(m: M):
    t0, t1, t2, t3 = _wiring_tables(m)

    def reorder(core, i, a, b):
        return (t0[a & 0xFF] | t1[a >> 8 & 0xFF]
                | t2[a >> 16 & 0xFF] | t3[a >> 24 & 0xFF]), None
    return reorder


# What each mnemonic does on the chunked data path: the name of a MicroCore
# value unit, a handler, or None for a shift or rotate, which the frame runs
# from its row (see `_binding`). A handler takes (core, instruction, rs1
# value, operand 2) and returns (value for rd or None, jump target or None
# for the next instruction, or a HALT outcome: ebreak's and ecall's, or the
# misaligned-access trap's, with no value); a store's value is the
# (address, value) it commits. A handler writes no state, of the core or
# architectural. Operand 2 is the immediate for the isa.IMM_FORMS, so each
# I-form shares the entry of its R-form.
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
    M.LB: _load_unit(M.LB, True),
    M.LH: _load_unit(M.LH, True),
    M.LW: _load_unit(M.LW, False),
    M.LBU: _load_unit(M.LBU, False),
    M.LHU: _load_unit(M.LHU, False),
    M.SB: _store_unit(M.SB),
    M.SH: _store_unit(M.SH),
    M.SW: _store_unit(M.SW),
    M.FENCE: lambda core, i, a, b: (None, None),
    M.EBREAK: _halt(EBREAK),
    M.ECALL: _halt(ECALL),
}
# each function unit serves its latency class, built once per mnemonic with
# that mnemonic's constants bound in
_UNIT_OF_CLASS = {AES: _aes_unit, SHA: _sha_unit, CLMUL: _clmul_unit,
                  XPERM: _xperm_unit, REORDER: _reorder_unit}
_EXECUTE.update((m, _UNIT_OF_CLASS[c](m)) for m, c in CLASS_OF.items()
                if c in _UNIT_OF_CLASS)
_EXECUTE.update((m, None) for m in CLASS_OF if m in SHIFT_MNEMONICS)
for _m, _r in isa.R_FORM_OF.items():
    _EXECUTE[_m] = _EXECUTE[_r]
