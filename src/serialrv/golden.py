"""Untimed functional reference model: one instruction per step.

Defines the architectural semantics of every supported instruction,
including the scalar-crypto primitives. The cycle-accurate core is
checked against this model instruction by instruction.

A step is a fetch of the word at pc (`step`) and its execution
(`execute`): one lookup in `_EXECUTE` picks the mnemonic's handler, and a
scalar-crypto handler calls its extension's semantics function, where
Zbkb and Zknh pick the formula with one more lookup in their table.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional

from . import isa
from .isa import Ext, Mnemonic as M
from .image import ProgramImage

MASK32 = 0xFFFFFFFF

# Memory-mapped I/O, matched on the access address of a store: a store to
# CONSOLE_ADDR appends the low byte of the stored value to the console
# buffer; a store to EXIT_ADDR keeps the stored bytes as exit code, and the
# step that stores there halts with the ECALL outcome in both models.
# Neither reaches memory.
CONSOLE_ADDR = 0xF0000000
EXIT_ADDR = 0xF0000004

# Halt reasons.
EBREAK = "ebreak"
ECALL = "ecall"
ILLEGAL = "illegal-instruction"
MISALIGNED_FETCH = "misaligned-fetch"
MISALIGNED_ACCESS = "misaligned-access"
MAX_STEPS = "max-steps"


class StepOutcome(NamedTuple):
    halted: bool
    reason: Optional[str] = None


# Every step of either model ends in one of these shared objects: RETIRED,
# or the HALT entry of its reason.
RETIRED = StepOutcome(False)
HALT = {reason: StepOutcome(True, reason) for reason in (
    EBREAK, ECALL, ILLEGAL, MISALIGNED_FETCH, MISALIGNED_ACCESS, MAX_STEPS)}

# the dense window: bytes 0 .. WINDOW_SIZE - 1, in Memory.buf
WINDOW_SIZE = 64 * 1024

# the word port of the dense window: one little-endian 32-bit read or write
_WORD = struct.Struct("<I")
_unpack_word = _WORD.unpack_from
_pack_word = _WORD.pack_into


class Memory:
    """Byte-addressed little-endian memory: a dense window plus sparse spill.

    Every byte address is masked to 32 bits, then lives in the dense
    window, the WINDOW_SIZE bytes from address 0, if it falls inside it,
    else in the sparse dict. Every memory has that one layout. `load` and
    `store` are the one access port of both models, so the golden and
    cycle models see identical behavior; `store` also holds the MMIO
    check.
    """

    def __init__(self):
        self.buf = bytearray(WINDOW_SIZE)
        self.sparse: dict = {}
        self.console = bytearray()
        self.exit_code: Optional[int] = None

    def load_program(self, image: ProgramImage) -> None:
        """Place the image's bytes; loading is not a store, so it reaches
        memory even at an MMIO address."""
        end = image.base + len(image.data)
        if end <= WINDOW_SIZE:
            self.buf[image.base:end] = image.data
        else:
            for i, b in enumerate(image.data):
                self._write((image.base + i) & MASK32, 1, b)

    def read_bytes(self, addr: int, n: int) -> bytes:
        return self.load(addr, n).to_bytes(n, "little")

    def load(self, addr: int, size: int) -> int:
        """The little-endian value of the `size` bytes at `addr`."""
        addr &= MASK32
        if addr <= WINDOW_SIZE - size:  # all in the window
            if size == 4:
                return _unpack_word(self.buf, addr)[0]
            return int.from_bytes(self.buf[addr:addr + size], "little")
        value = 0  # not all in the window: byte by byte
        for i in range(size):
            a = (addr + i) & MASK32
            byte = self.buf[a] if a < WINDOW_SIZE else self.sparse.get(a, 0)
            value |= byte << 8 * i
        return value

    def store(self, addr: int, size: int, value: int) -> bool:
        """Store the low `size` bytes of `value` at `addr`, little-endian,
        and return whether the store hit the exit word.

        A store to an MMIO word reaches the device instead of memory: MMIO
        is matched first, here and nowhere else. Its caller, either model's
        store, halts its step with the ECALL outcome when this returns True.
        """
        addr &= MASK32
        value &= (1 << 8 * size) - 1
        if addr == EXIT_ADDR:
            self.exit_code = value
            return True
        if addr == CONSOLE_ADDR:
            self.console.append(value & 0xFF)
        else:
            self._write(addr, size, value)
        return False

    def _write(self, addr: int, size: int, value: int) -> None:
        """Write `value` to memory at `addr`, already masked to 32 bits."""
        if addr <= WINDOW_SIZE - size:  # all in the window
            if size == 4:
                _pack_word(self.buf, addr, value)
            else:
                self.buf[addr:addr + size] = value.to_bytes(size, "little")
        elif size != 1:  # not all in the window: byte by byte
            for i in range(size):
                self._write((addr + i) & MASK32, 1, (value >> 8 * i) & 0xFF)
        else:
            self.sparse[addr] = value


class ArchState:
    """pc, 31 general registers (x0 hardwired to zero) and a fresh Memory."""

    __slots__ = ("pc", "regs", "mem")

    def __init__(self, pc: int = 0):
        self.pc = pc & MASK32
        self.regs = [0] * 32
        self.mem = Memory()

    @classmethod
    def from_image(cls, image: ProgramImage) -> "ArchState":
        state = cls(pc=image.entry)
        state.mem.load_program(image)
        return state


# --- scalar-crypto primitive semantics -----------------------------------

# FIPS-197's S-box, the one AES table transcribed in the package. The
# inverse S-box is its inverse permutation; every other AES table is
# derived from these two, the core's AES words and the rv32i T-tables by
# `microarch.aes_words`.
AES_SBOX = bytes((
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
))

AES_SBOX_INV = bytes(AES_SBOX.index(s) for s in range(256))  # S^-1(S(x)) = x


def xt2(b: int) -> int:
    """GF(2^8) doubling modulo the AES polynomial 0x11B."""
    b &= 0xFF
    return ((b << 1) ^ (0x1B if b & 0x80 else 0)) & 0xFF


def _gmul(b: int, c: int) -> int:
    # double-and-add over GF(2^8); c is a small constant
    r = 0
    while c:
        if c & 1:
            r ^= b
        b = xt2(b)
        c >>= 1
    return r & 0xFF


def _rol32(x: int, n: int) -> int:
    n &= 31
    return ((x << n) | (x >> (32 - n))) & MASK32 if n else x & MASK32


def _ror32(x: int, n: int) -> int:
    n &= 31
    return ((x >> n) | (x << (32 - n))) & MASK32 if n else x & MASK32


# Members read on every step, bound once: each `M.X` or `Ext.X` load goes
# through EnumType.__getattr__, about five times a module global's cost
_RV32I = Ext.RV32I
_AES32ESI, _AES32ESMI, _AES32DSMI = M.AES32ESI, M.AES32ESMI, M.AES32DSMI
_CLMULH, _XPERM8 = M.CLMULH, M.XPERM8


def aes32_semantics(mnemonic: M, rs1: int, rs2: int, bs: int) -> int:
    """One quarter-round AES instruction over 32-bit words.

    The mix is computed here with `_gmul`, not read from a word table:
    the core's AES unit and bench's rv32i T-tables both take their words
    from `microarch.aes_words`, so cosim checks that one table against
    this independent arithmetic."""
    si = (rs2 >> (8 * bs)) & 0xFF
    if mnemonic is _AES32ESI or mnemonic is _AES32ESMI:
        so = AES_SBOX[si]
        if mnemonic is _AES32ESMI:
            mixed = _gmul(so, 2) | (so << 8) | (so << 16) | (_gmul(so, 3) << 24)
        else:
            mixed = so
    else:
        so = AES_SBOX_INV[si]
        if mnemonic is _AES32DSMI:
            mixed = (_gmul(so, 0xE) | (_gmul(so, 0x9) << 8)
                     | (_gmul(so, 0xD) << 16) | (_gmul(so, 0xB) << 24))
        else:
            mixed = so
    return (rs1 ^ _rol32(mixed, 8 * bs)) & MASK32


# Zknh's fixed shift/rotate compositions of x = rs1 and y = rs2, each
# masked to 32 bits by sha2_semantics; the sha512* forms pair two words
_SHA2 = {
    M.SHA256SIG0: lambda x, y: _ror32(x, 7) ^ _ror32(x, 18) ^ (x >> 3),
    M.SHA256SIG1: lambda x, y: _ror32(x, 17) ^ _ror32(x, 19) ^ (x >> 10),
    M.SHA256SUM0: lambda x, y: _ror32(x, 2) ^ _ror32(x, 13) ^ _ror32(x, 22),
    M.SHA256SUM1: lambda x, y: _ror32(x, 6) ^ _ror32(x, 11) ^ _ror32(x, 25),
    M.SHA512SIG0H: lambda x, y: ((x >> 1) ^ (x >> 7) ^ (x >> 8)
                                 ^ (y << 31) ^ (y << 24)),
    M.SHA512SIG0L: lambda x, y: ((x >> 1) ^ (x >> 7) ^ (x >> 8)
                                 ^ (y << 31) ^ (y << 25) ^ (y << 24)),
    M.SHA512SIG1H: lambda x, y: ((x << 3) ^ (x >> 6) ^ (x >> 19)
                                 ^ (y >> 29) ^ (y << 13)),
    M.SHA512SIG1L: lambda x, y: ((x << 3) ^ (x >> 6) ^ (x >> 19)
                                 ^ (y >> 29) ^ (y << 26) ^ (y << 13)),
    M.SHA512SUM0R: lambda x, y: ((x << 25) ^ (x << 30) ^ (x >> 28)
                                 ^ (y >> 7) ^ (y >> 2) ^ (y << 4)),
    M.SHA512SUM1R: lambda x, y: ((x << 23) ^ (x >> 14) ^ (x >> 18)
                                 ^ (y >> 9) ^ (y << 18) ^ (y << 14)),
}


def sha2_semantics(mnemonic: M, rs1: int, rs2: int = 0) -> int:
    """Zknh fixed shift/rotate compositions (sha512* forms pair two words)."""
    formula = _SHA2.get(mnemonic)
    if formula is None:
        raise ValueError(f"not a Zknh mnemonic: {mnemonic}")
    return formula(rs1 & MASK32, rs2 & MASK32) & MASK32


def clmul_semantics(mnemonic: M, rs1: int, rs2: int) -> int:
    """Carry-less 32x32 product; clmul keeps the low word, clmulh the high."""
    a, b = rs1 & MASK32, rs2 & MASK32
    p = 0
    i = 0
    while b:
        if b & 1:
            p ^= a << i
        b >>= 1
        i += 1
    return (p >> 32) & MASK32 if mnemonic is _CLMULH else p & MASK32


def xperm_semantics(mnemonic: M, rs1: int, rs2: int) -> int:
    """Crossbar permutation: rs2 digits index bytes (xperm8) or nibbles (xperm4)."""
    out = 0
    if mnemonic is _XPERM8:
        for i in range(4):
            idx = (rs2 >> (8 * i)) & 0xFF
            if idx < 4:
                out |= ((rs1 >> (8 * idx)) & 0xFF) << (8 * i)
    else:
        for i in range(8):
            idx = (rs2 >> (4 * i)) & 0xF
            if idx < 8:
                out |= ((rs1 >> (4 * idx)) & 0xF) << (4 * i)
    return out & MASK32


def _brev8(x: int, y: int) -> int:
    out = 0
    for i in range(4):
        b = (x >> (8 * i)) & 0xFF
        b = int(f"{b:08b}"[::-1], 2)
        out |= b << (8 * i)
    return out


def _zip(x: int, y: int) -> int:
    out = 0
    for i in range(16):
        out |= ((x >> i) & 1) << (2 * i)
        out |= ((x >> (i + 16)) & 1) << (2 * i + 1)
    return out


def _unzip(x: int, y: int) -> int:
    out = 0
    for i in range(16):
        out |= ((x >> (2 * i)) & 1) << i
        out |= ((x >> (2 * i + 1)) & 1) << (i + 16)
    return out


# Zbkb's formulas of x = rs1 and y = rs2 or the immediate, both 32 bits
_ZBKB = {
    M.ROR: lambda x, y: _ror32(x, y & 31),
    M.ROL: lambda x, y: _rol32(x, y & 31),
    M.ANDN: lambda x, y: x & ~y & MASK32,
    M.ORN: lambda x, y: (x | ~y) & MASK32,
    M.XNOR: lambda x, y: ~(x ^ y) & MASK32,
    M.PACK: lambda x, y: ((y & 0xFFFF) << 16) | (x & 0xFFFF),
    M.PACKH: lambda x, y: ((y & 0xFF) << 8) | (x & 0xFF),
    M.REV8: lambda x, y: int.from_bytes(x.to_bytes(4, "little"), "big"),
    M.BREV8: _brev8,
    M.ZIP: _zip,
    M.UNZIP: _unzip,
}
_ZBKB[M.RORI] = _ZBKB[M.ROR]  # operand 2 is the immediate


def zbkb_semantics(mnemonic: M, rs1: int, rs2_or_imm: int) -> int:
    formula = _ZBKB.get(mnemonic)
    if formula is None:
        raise ValueError(f"not a Zbkb mnemonic: {mnemonic}")
    return formula(rs1 & MASK32, rs2_or_imm & MASK32)


# --- the step function ----------------------------------------------------

def _sra32(x: int, n: int) -> int:
    if x & 0x80000000:
        return ((x | (0xFFFFFFFF00000000)) >> n) & MASK32
    return x >> n


def _signed(x: int) -> int:
    return x - (1 << 32) if x & 0x80000000 else x


def _halt(reason: str):
    outcome = HALT[reason]
    return lambda s, i, a, b: (None, outcome)


def _branch(taken):
    return lambda s, i, a, b: (None, s.pc + i.imm if taken(a, b) else None)


def _load(width: int, signed: bool):
    sign = 1 << (8 * width - 1)

    def handler(s, i, a, b):
        addr = (a + i.imm) & MASK32
        if addr % width:
            return None, HALT[MISALIGNED_ACCESS]
        val = s.mem.load(addr, width)
        return ((val ^ sign) - sign) & MASK32 if signed else val, None
    return handler


def _store(width: int):
    def handler(s, i, a, b):
        addr = (a + i.imm) & MASK32
        if addr % width:
            return None, HALT[MISALIGNED_ACCESS]
        return None, HALT[ECALL] if s.mem.store(addr, width, b) else None
    return handler


# What each mnemonic does. A handler takes (state, instruction, rs1 value,
# operand 2) and returns (value for rd or None, jump target or None for the
# next instruction), or (None, the HALT outcome) for a step that halts having
# written no register: a store to the exit word halts having stored. Operand
# 2 is the immediate for the isa.IMM_FORMS, so each I-form shares the handler
# of its R-form.
_EXECUTE = {
    M.ADD: lambda s, i, a, b: ((a + b) & MASK32, None),
    M.SUB: lambda s, i, a, b: ((a - b) & MASK32, None),
    M.AND: lambda s, i, a, b: (a & b, None),
    M.OR: lambda s, i, a, b: (a | b, None),
    M.XOR: lambda s, i, a, b: (a ^ b, None),
    M.SLT: lambda s, i, a, b: (1 if _signed(a) < _signed(b) else 0, None),
    M.SLTU: lambda s, i, a, b: (1 if a < b else 0, None),
    M.SLL: lambda s, i, a, b: ((a << (b & 31)) & MASK32, None),
    M.SRL: lambda s, i, a, b: (a >> (b & 31), None),
    M.SRA: lambda s, i, a, b: (_sra32(a, b & 31), None),
    M.LUI: lambda s, i, a, b: ((i.imm << 12) & MASK32, None),
    M.AUIPC: lambda s, i, a, b: ((s.pc + (i.imm << 12)) & MASK32, None),
    M.JAL: lambda s, i, a, b: ((s.pc + 4) & MASK32, s.pc + i.imm),
    M.JALR: lambda s, i, a, b: ((s.pc + 4) & MASK32, (a + i.imm) & ~1),
    M.BEQ: _branch(lambda a, b: a == b),
    M.BNE: _branch(lambda a, b: a != b),
    M.BLT: _branch(lambda a, b: _signed(a) < _signed(b)),
    M.BGE: _branch(lambda a, b: _signed(a) >= _signed(b)),
    M.BLTU: _branch(lambda a, b: a < b),
    M.BGEU: _branch(lambda a, b: a >= b),
    M.LB: _load(1, True),
    M.LBU: _load(1, False),
    M.LH: _load(2, True),
    M.LHU: _load(2, False),
    M.LW: _load(4, False),
    M.SB: _store(1),
    M.SH: _store(2),
    M.SW: _store(4),
    M.FENCE: lambda s, i, a, b: (None, None),
    M.EBREAK: _halt(EBREAK),
    M.ECALL: _halt(ECALL),
}
# each scalar-crypto semantics function covers one extension subset
_BY_EXT = {
    Ext.ZBKB: lambda s, i, a, b: (zbkb_semantics(i.mnemonic, a, b), None),
    Ext.ZBKC: lambda s, i, a, b: (clmul_semantics(i.mnemonic, a, b), None),
    Ext.ZBKX: lambda s, i, a, b: (xperm_semantics(i.mnemonic, a, b), None),
    Ext.ZKNE: lambda s, i, a, b: (aes32_semantics(i.mnemonic, a, b, i.bs), None),
    Ext.ZKNH: lambda s, i, a, b: (sha2_semantics(i.mnemonic, a, b), None),
}
_BY_EXT[Ext.ZKND] = _BY_EXT[Ext.ZKNE]
_EXECUTE.update((m, _BY_EXT[e]) for m, e in isa.EXT_OF.items() if e in _BY_EXT)
for _m, _r in isa.R_FORM_OF.items():
    _EXECUTE[_m] = _EXECUTE[_r]


def step(state: ArchState, extensions: frozenset = isa.ZKN) -> StepOutcome:
    """Fetch the word at pc through `Memory.load` and `execute` it; mutates
    state. A fetch at a misaligned pc reads memory, with no side effect,
    and `execute` halts before using the word."""
    return execute(state, state.mem.load(state.pc, 4), extensions)


def execute(state: ArchState, word: int, extensions: frozenset) -> StepOutcome:
    """Execute exactly one instruction, `word`, as the one at pc; mutates
    state.

    A step that halts leaves pc and the registers as they were: ebreak,
    ecall and a store to the exit word, the only halts that retire (the
    store halts with the ECALL outcome, its exit code kept in
    `Memory.exit_code`), and every trap. A misaligned pc traps here, at
    its fetch, and nowhere else: a taken transfer to a target 2 mod 4
    retires, writing rd and pc, and the step after it traps.

    Instructions whose extension subset is not in `extensions` halt with
    an illegal-instruction reason (RV32I itself is always enabled). The
    decode goes through `isa.decode_cached`, the port both models share;
    only `MicroCore.step` probes the decode cache itself. A caller that
    has the word at pc already, as cosim's golden trace does, passes it
    here instead of fetching it twice through `step`.
    """
    pc = state.pc
    if pc & 3:
        return HALT[MISALIGNED_FETCH]
    ins = isa.decode_cached(word)
    if ins is None:
        return HALT[ILLEGAL]
    m, rd, rs1, rs2, imm, _, _ = ins
    ext = isa.EXT_OF[m]
    if ext is not _RV32I and ext not in extensions:
        return HALT[ILLEGAL]

    regs = state.regs
    op2 = imm & MASK32 if m in isa.IMM_FORMS else regs[rs2]
    val, target = _EXECUTE[m](state, ins, regs[rs1], op2)
    if target is not None and type(target) is StepOutcome:
        return target
    if val is not None and rd:
        regs[rd] = val
    state.pc = (pc + 4 if target is None else target) & MASK32
    return RETIRED
