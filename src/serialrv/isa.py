"""RV32I + scalar-crypto instruction set: mnemonics, encode/decode, assembler.

Covers the base integer ISA plus the Zbkb, Zbkc, Zbkx, Zkne, Zknd and Zknh
subsets (RV32 forms only; zip/unzip exist only on RV32, the RV64-only forms
are excluded). Compressed instructions are not supported: any word whose low
two bits are not 0b11 is rejected.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterable, NamedTuple, Optional, Union

from .image import ProgramImage


class IllegalInstruction(Exception):
    """Word does not decode to a supported instruction."""

    def __init__(self, word: int):
        self.word = word

    def __str__(self) -> str:
        return f"illegal instruction word 0x{self.word & 0xFFFFFFFF:08x}"


class FieldRange(Exception):
    """Operand does not fit its encoding field."""


class UnresolvedLabel(Exception):
    """Branch or jump target label was never defined."""


class Ext(str, enum.Enum):
    """Extension subset a mnemonic belongs to."""

    RV32I = "rv32i"
    ZBKB = "zbkb"
    ZBKC = "zbkc"
    ZBKX = "zbkx"
    ZKNE = "zkne"
    ZKND = "zknd"
    ZKNH = "zknh"
    ZKT = "zkt"  # latency contract only; owns no mnemonics


# The NIST suite: everything needed for AES/SHA-2 workloads.
ZKN = frozenset({Ext.ZBKB, Ext.ZBKC, Ext.ZBKX, Ext.ZKNE, Ext.ZKND, Ext.ZKNH})
ZKN_ZKT = ZKN | {Ext.ZKT}


class Mnemonic(str, enum.Enum):
    # RV32I
    LUI = "lui"
    AUIPC = "auipc"
    JAL = "jal"
    JALR = "jalr"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    LB = "lb"
    LH = "lh"
    LW = "lw"
    LBU = "lbu"
    LHU = "lhu"
    SB = "sb"
    SH = "sh"
    SW = "sw"
    ADDI = "addi"
    SLTI = "slti"
    SLTIU = "sltiu"
    XORI = "xori"
    ORI = "ori"
    ANDI = "andi"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    ADD = "add"
    SUB = "sub"
    SLL = "sll"
    SLT = "slt"
    SLTU = "sltu"
    XOR = "xor"
    SRL = "srl"
    SRA = "sra"
    OR = "or"
    AND = "and"
    FENCE = "fence"
    ECALL = "ecall"
    EBREAK = "ebreak"
    # Zbkb
    ROR = "ror"
    ROL = "rol"
    RORI = "rori"
    ANDN = "andn"
    ORN = "orn"
    XNOR = "xnor"
    PACK = "pack"
    PACKH = "packh"
    BREV8 = "brev8"
    REV8 = "rev8"
    ZIP = "zip"
    UNZIP = "unzip"
    # Zbkc
    CLMUL = "clmul"
    CLMULH = "clmulh"
    # Zbkx
    XPERM4 = "xperm4"
    XPERM8 = "xperm8"
    # Zkne / Zknd
    AES32ESI = "aes32esi"
    AES32ESMI = "aes32esmi"
    AES32DSI = "aes32dsi"
    AES32DSMI = "aes32dsmi"
    # Zknh
    SHA256SIG0 = "sha256sig0"
    SHA256SIG1 = "sha256sig1"
    SHA256SUM0 = "sha256sum0"
    SHA256SUM1 = "sha256sum1"
    SHA512SIG0H = "sha512sig0h"
    SHA512SIG0L = "sha512sig0l"
    SHA512SIG1H = "sha512sig1h"
    SHA512SIG1L = "sha512sig1l"
    SHA512SUM0R = "sha512sum0r"
    SHA512SUM1R = "sha512sum1r"


M = Mnemonic  # local shorthand for the tables below

EXT_OF = {m: Ext.RV32I for m in M}
EXT_OF.update({m: Ext.ZBKB for m in (M.ROR, M.ROL, M.RORI, M.ANDN, M.ORN, M.XNOR,
                                     M.PACK, M.PACKH, M.BREV8, M.REV8, M.ZIP, M.UNZIP)})
EXT_OF.update({M.CLMUL: Ext.ZBKC, M.CLMULH: Ext.ZBKC})
EXT_OF.update({M.XPERM4: Ext.ZBKX, M.XPERM8: Ext.ZBKX})
EXT_OF.update({M.AES32ESI: Ext.ZKNE, M.AES32ESMI: Ext.ZKNE})
EXT_OF.update({M.AES32DSI: Ext.ZKND, M.AES32DSMI: Ext.ZKND})
EXT_OF.update({m: Ext.ZKNH for m in (M.SHA256SIG0, M.SHA256SIG1, M.SHA256SUM0, M.SHA256SUM1,
                                     M.SHA512SIG0H, M.SHA512SIG0L, M.SHA512SIG1H, M.SHA512SIG1L,
                                     M.SHA512SUM0R, M.SHA512SUM1R)})

# Data-independent-latency contract coverage: every crypto-subset instruction
# plus the base shifts and the ALU ops that touch key material in software
# crypto (logic, add/sub).
ZKT_COVERED = frozenset(m for m, e in EXT_OF.items() if e is not Ext.RV32I) | {
    M.SLL, M.SLLI, M.SRL, M.SRLI, M.SRA, M.SRAI,
    M.AND, M.ANDI, M.OR, M.ORI, M.XOR, M.XORI,
    M.ADD, M.ADDI, M.SUB,
}


def zkt_covered(m: Mnemonic) -> bool:
    return m in ZKT_COVERED


class Instr(NamedTuple):
    """One decoded instruction.

    Fields not used by the format are held at their canonical defaults so
    that encode/decode round-trips compare equal. `bs` is the AES byte
    select and is only present on aes32* instructions.
    """

    mnemonic: Mnemonic
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    bs: Optional[int] = None
    raw: int = 0


# Instruction formats. UNARY covers the fixed-function OP-IMM instructions
# (rev8, zip, sha256sig0, ...) whose entire imm12 field is a constant.
FMT_R = "r"
FMT_R_AES = "r_aes"
FMT_I = "i"
FMT_I_SHAMT = "i_shamt"
FMT_UNARY = "unary"
FMT_LOAD = "load"
FMT_STORE = "store"
FMT_BRANCH = "branch"
FMT_U = "u"
FMT_JAL = "jal"
FMT_JALR = "jalr"
FMT_SYSTEM = "system"
FMT_FENCE = "fence"


class Enc(NamedTuple):
    fmt: str
    opcode: int
    funct3: int = 0
    funct7: int = 0  # funct7 for R, funct5 for R_AES, full imm12 for UNARY/SYSTEM


_OP = 0b0110011
_OP_IMM = 0b0010011
_LOAD = 0b0000011
_STORE = 0b0100011
_BRANCH = 0b1100011

ENCODINGS = {
    M.LUI: Enc(FMT_U, 0b0110111),
    M.AUIPC: Enc(FMT_U, 0b0010111),
    M.JAL: Enc(FMT_JAL, 0b1101111),
    M.JALR: Enc(FMT_JALR, 0b1100111, 0b000),
    M.BEQ: Enc(FMT_BRANCH, _BRANCH, 0b000),
    M.BNE: Enc(FMT_BRANCH, _BRANCH, 0b001),
    M.BLT: Enc(FMT_BRANCH, _BRANCH, 0b100),
    M.BGE: Enc(FMT_BRANCH, _BRANCH, 0b101),
    M.BLTU: Enc(FMT_BRANCH, _BRANCH, 0b110),
    M.BGEU: Enc(FMT_BRANCH, _BRANCH, 0b111),
    M.LB: Enc(FMT_LOAD, _LOAD, 0b000),
    M.LH: Enc(FMT_LOAD, _LOAD, 0b001),
    M.LW: Enc(FMT_LOAD, _LOAD, 0b010),
    M.LBU: Enc(FMT_LOAD, _LOAD, 0b100),
    M.LHU: Enc(FMT_LOAD, _LOAD, 0b101),
    M.SB: Enc(FMT_STORE, _STORE, 0b000),
    M.SH: Enc(FMT_STORE, _STORE, 0b001),
    M.SW: Enc(FMT_STORE, _STORE, 0b010),
    M.ADDI: Enc(FMT_I, _OP_IMM, 0b000),
    M.SLTI: Enc(FMT_I, _OP_IMM, 0b010),
    M.SLTIU: Enc(FMT_I, _OP_IMM, 0b011),
    M.XORI: Enc(FMT_I, _OP_IMM, 0b100),
    M.ORI: Enc(FMT_I, _OP_IMM, 0b110),
    M.ANDI: Enc(FMT_I, _OP_IMM, 0b111),
    M.SLLI: Enc(FMT_I_SHAMT, _OP_IMM, 0b001, 0b0000000),
    M.SRLI: Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0000000),
    M.SRAI: Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0100000),
    M.RORI: Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0110000),
    M.ADD: Enc(FMT_R, _OP, 0b000, 0b0000000),
    M.SUB: Enc(FMT_R, _OP, 0b000, 0b0100000),
    M.SLL: Enc(FMT_R, _OP, 0b001, 0b0000000),
    M.SLT: Enc(FMT_R, _OP, 0b010, 0b0000000),
    M.SLTU: Enc(FMT_R, _OP, 0b011, 0b0000000),
    M.XOR: Enc(FMT_R, _OP, 0b100, 0b0000000),
    M.SRL: Enc(FMT_R, _OP, 0b101, 0b0000000),
    M.SRA: Enc(FMT_R, _OP, 0b101, 0b0100000),
    M.OR: Enc(FMT_R, _OP, 0b110, 0b0000000),
    M.AND: Enc(FMT_R, _OP, 0b111, 0b0000000),
    M.FENCE: Enc(FMT_FENCE, 0b0001111, 0b000),
    M.ECALL: Enc(FMT_SYSTEM, 0b1110011, 0b000, 0x000),
    M.EBREAK: Enc(FMT_SYSTEM, 0b1110011, 0b000, 0x001),
    M.ROR: Enc(FMT_R, _OP, 0b101, 0b0110000),
    M.ROL: Enc(FMT_R, _OP, 0b001, 0b0110000),
    M.ANDN: Enc(FMT_R, _OP, 0b111, 0b0100000),
    M.ORN: Enc(FMT_R, _OP, 0b110, 0b0100000),
    M.XNOR: Enc(FMT_R, _OP, 0b100, 0b0100000),
    M.PACK: Enc(FMT_R, _OP, 0b100, 0b0000100),
    M.PACKH: Enc(FMT_R, _OP, 0b111, 0b0000100),
    M.BREV8: Enc(FMT_UNARY, _OP_IMM, 0b101, 0b011010000111),
    M.REV8: Enc(FMT_UNARY, _OP_IMM, 0b101, 0b011010011000),
    M.ZIP: Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000010001111),
    M.UNZIP: Enc(FMT_UNARY, _OP_IMM, 0b101, 0b000010001111),
    M.CLMUL: Enc(FMT_R, _OP, 0b001, 0b0000101),
    M.CLMULH: Enc(FMT_R, _OP, 0b011, 0b0000101),
    M.XPERM4: Enc(FMT_R, _OP, 0b010, 0b0010100),
    M.XPERM8: Enc(FMT_R, _OP, 0b100, 0b0010100),
    M.AES32ESI: Enc(FMT_R_AES, _OP, 0b000, 0b10001),
    M.AES32ESMI: Enc(FMT_R_AES, _OP, 0b000, 0b10011),
    M.AES32DSI: Enc(FMT_R_AES, _OP, 0b000, 0b10101),
    M.AES32DSMI: Enc(FMT_R_AES, _OP, 0b000, 0b10111),
    M.SHA256SIG0: Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000010),
    M.SHA256SIG1: Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000011),
    M.SHA256SUM0: Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000000),
    M.SHA256SUM1: Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000001),
    M.SHA512SIG0H: Enc(FMT_R, _OP, 0b000, 0b0101110),
    M.SHA512SIG0L: Enc(FMT_R, _OP, 0b000, 0b0101010),
    M.SHA512SIG1H: Enc(FMT_R, _OP, 0b000, 0b0101111),
    M.SHA512SIG1L: Enc(FMT_R, _OP, 0b000, 0b0101011),
    M.SHA512SUM0R: Enc(FMT_R, _OP, 0b000, 0b0101000),
    M.SHA512SUM1R: Enc(FMT_R, _OP, 0b000, 0b0101001),
}

AES_MNEMONICS = frozenset({M.AES32ESI, M.AES32ESMI, M.AES32DSI, M.AES32DSMI})

# I-type forms take their second ALU operand from the immediate. Each is
# the OP-IMM twin of the R-type form with the same funct3 (and, for shifts,
# funct7) and computes the same operation: addi/add, slli/sll, rori/ror, ...
_R_BY_FUNCT = {(e.funct3, e.funct7): m for m, e in ENCODINGS.items()
               if e.fmt == FMT_R}
R_FORM_OF = {m: _R_BY_FUNCT[e.funct3, e.funct7] for m, e in ENCODINGS.items()
             if e.fmt in (FMT_I, FMT_I_SHAMT)}
IMM_FORMS = frozenset(R_FORM_OF)

# Bytes moved by each load and store.
ACCESS_BYTES = {M.LB: 1, M.LBU: 1, M.LH: 2, M.LHU: 2, M.LW: 4,
                M.SB: 1, M.SH: 2, M.SW: 4}


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _check(cond: bool, msg: str, *args) -> None:
    # the message is formatted only on failure: encode runs once per
    # assembled instruction
    if not cond:
        raise FieldRange(msg.format(*args))


def encode(i: Instr) -> int:
    """Produce the canonical 32-bit encoding of `i`.

    Raises FieldRange if any operand does not fit its field.
    """
    enc = ENCODINGS[i.mnemonic]
    _check(0 <= i.rd < 32, "rd {} out of range", i.rd)
    _check(0 <= i.rs1 < 32, "rs1 {} out of range", i.rs1)
    _check(0 <= i.rs2 < 32, "rs2 {} out of range", i.rs2)
    if i.mnemonic in AES_MNEMONICS:
        _check(i.bs is not None and 0 <= i.bs < 4, "bs {} out of range", i.bs)
    else:
        _check(i.bs is None, "{.value} takes no byte select", i.mnemonic)
    base = enc.opcode | (enc.funct3 << 12)
    fmt, imm = enc.fmt, i.imm

    if fmt == FMT_R:
        return base | (i.rd << 7) | (i.rs1 << 15) | (i.rs2 << 20) | (enc.funct7 << 25)
    if fmt == FMT_R_AES:
        assert i.bs is not None
        funct7 = (i.bs << 5) | enc.funct7
        return base | (i.rd << 7) | (i.rs1 << 15) | (i.rs2 << 20) | (funct7 << 25)
    if fmt in (FMT_I, FMT_LOAD, FMT_JALR):
        _check(-2048 <= imm <= 2047, "imm {} exceeds 12-bit signed range", imm)
        return base | (i.rd << 7) | (i.rs1 << 15) | ((imm & 0xFFF) << 20)
    if fmt == FMT_I_SHAMT:
        _check(0 <= imm <= 31, "shamt {} exceeds 5-bit range", imm)
        return base | (i.rd << 7) | (i.rs1 << 15) | (imm << 20) | (enc.funct7 << 25)
    if fmt == FMT_UNARY:
        return base | (i.rd << 7) | (i.rs1 << 15) | (enc.funct7 << 20)
    if fmt == FMT_STORE:
        _check(-2048 <= imm <= 2047, "imm {} exceeds 12-bit signed range", imm)
        v = imm & 0xFFF
        return base | ((v & 0x1F) << 7) | (i.rs1 << 15) | (i.rs2 << 20) | ((v >> 5) << 25)
    if fmt == FMT_BRANCH:
        _check(imm % 2 == 0, "branch offset {} must be even", imm)
        _check(-4096 <= imm <= 4094, "branch offset {} out of range", imm)
        v = imm & 0x1FFF
        return (base | (i.rs1 << 15) | (i.rs2 << 20)
                | (((v >> 11) & 1) << 7) | (((v >> 1) & 0xF) << 8)
                | (((v >> 5) & 0x3F) << 25) | (((v >> 12) & 1) << 31))
    if fmt == FMT_U:
        _check(0 <= imm <= 0xFFFFF, "imm {} exceeds 20-bit range", imm)
        return base | (i.rd << 7) | (imm << 12)
    if fmt == FMT_JAL:
        _check(imm % 2 == 0, "jump offset {} must be even", imm)
        _check(-(1 << 20) <= imm <= (1 << 20) - 2, "jump offset {} out of range", imm)
        v = imm & 0x1FFFFF
        return (base | (i.rd << 7) | (((v >> 12) & 0xFF) << 12)
                | (((v >> 11) & 1) << 20) | (((v >> 1) & 0x3FF) << 21)
                | (((v >> 20) & 1) << 31))
    if fmt == FMT_SYSTEM:
        _check(i.rd == 0 and i.rs1 == 0 and imm == 0, "{.value} takes no operands", i.mnemonic)
        return base | (enc.funct7 << 20)
    if fmt == FMT_FENCE:
        # imm carries the raw fm/pred/succ bits
        _check(0 <= imm <= 0xFFF, "fence bits {} out of range", imm)
        return base | (i.rd << 7) | (i.rs1 << 15) | (imm << 20)
    raise AssertionError(f"unhandled format {fmt}")


# operand fields each format actually encodes; everything else is
# canonicalized to zero so round-trips compare equal
_FIELDS_OF_FMT = {
    FMT_R: ("rd", "rs1", "rs2"),
    FMT_R_AES: ("rd", "rs1", "rs2", "bs"),
    FMT_I: ("rd", "rs1", "imm"),
    FMT_I_SHAMT: ("rd", "rs1", "imm"),
    FMT_UNARY: ("rd", "rs1"),
    FMT_LOAD: ("rd", "rs1", "imm"),
    FMT_JALR: ("rd", "rs1", "imm"),
    FMT_STORE: ("rs1", "rs2", "imm"),
    FMT_BRANCH: ("rs1", "rs2", "imm"),
    FMT_U: ("rd", "imm"),
    FMT_JAL: ("rd", "imm"),
    FMT_SYSTEM: (),
    FMT_FENCE: ("imm",),
}


def instr(mnemonic: Union[Mnemonic, str], rd: int = 0, rs1: int = 0, rs2: int = 0,
          imm: int = 0, bs: Optional[int] = None) -> Instr:
    """Build an Instr with its canonical encoding filled in (validates fields)."""
    m = Mnemonic(mnemonic)
    fmt = ENCODINGS[m].fmt
    used = _FIELDS_OF_FMT[fmt]
    if fmt == FMT_FENCE and imm == 0:
        imm = 0x0FF  # canonical `fence iorw, iorw`
    i = Instr(m,
              rd if "rd" in used else 0,
              rs1 if "rs1" in used else 0,
              rs2 if "rs2" in used else 0,
              imm if "imm" in used else 0,
              bs if "bs" in used else None)
    return i._replace(raw=encode(i))


# Decode dispatch tables, keyed by (opcode, funct3).
_R_BY_F7: dict = {}
_UNARY_BY_IMM12: dict = {}
_SHAMT_BY_F7: dict = {}
_I_ARITH: dict = {}
_AES_BY_F5: dict = {}
_LOADS: dict = {}
_STORES: dict = {}
_BRANCHES: dict = {}
for _m, _e in ENCODINGS.items():
    _k = (_e.opcode, _e.funct3)
    if _e.fmt == FMT_R:
        _R_BY_F7.setdefault(_k, {})[_e.funct7] = _m
    elif _e.fmt == FMT_UNARY:
        _UNARY_BY_IMM12.setdefault(_k, {})[_e.funct7] = _m
    elif _e.fmt == FMT_I_SHAMT:
        _SHAMT_BY_F7.setdefault(_k, {})[_e.funct7] = _m
    elif _e.fmt == FMT_I:
        _I_ARITH[_k] = _m
    elif _e.fmt == FMT_R_AES:
        _AES_BY_F5[_e.funct7] = _m
    elif _e.fmt == FMT_LOAD:
        _LOADS[_e.funct3] = _m
    elif _e.fmt == FMT_STORE:
        _STORES[_e.funct3] = _m
    elif _e.fmt == FMT_BRANCH:
        _BRANCHES[_e.funct3] = _m


def decode(word: int) -> Instr:
    """Decode a 32-bit word; raises IllegalInstruction for unsupported encodings."""
    word &= 0xFFFFFFFF
    if word & 0b11 != 0b11:  # no compressed support
        raise IllegalInstruction(word)
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    f3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    f7 = word >> 25
    key = (opcode, f3)

    if opcode == _OP:
        m = _R_BY_F7.get(key, {}).get(f7)
        if m is not None:
            return Instr(m, rd, rs1, rs2, 0, None, word)
        if f3 == 0 and (f7 & 0b10001) == 0b10001:
            m = _AES_BY_F5.get(f7 & 0x1F)
            if m is not None:
                return Instr(m, rd, rs1, rs2, 0, f7 >> 5, word)
        raise IllegalInstruction(word)

    if opcode == _OP_IMM:
        imm12 = word >> 20
        m = _UNARY_BY_IMM12.get(key, {}).get(imm12)
        if m is not None:
            return Instr(m, rd, rs1, 0, 0, None, word)
        m = _SHAMT_BY_F7.get(key, {}).get(f7)
        if m is not None:
            return Instr(m, rd, rs1, 0, rs2, None, word)
        m = _I_ARITH.get(key)
        if m is not None:
            return Instr(m, rd, rs1, 0, _sext(imm12, 12), None, word)
        raise IllegalInstruction(word)

    if opcode == _LOAD:
        m = _LOADS.get(f3)
        if m is None:
            raise IllegalInstruction(word)
        return Instr(m, rd, rs1, 0, _sext(word >> 20, 12), None, word)

    if opcode == _STORE:
        m = _STORES.get(f3)
        if m is None:
            raise IllegalInstruction(word)
        imm = _sext((f7 << 5) | rd, 12)
        return Instr(m, 0, rs1, rs2, imm, None, word)

    if opcode == _BRANCH:
        m = _BRANCHES.get(f3)
        if m is None:
            raise IllegalInstruction(word)
        imm = (((word >> 8) & 0xF) << 1) | (((word >> 25) & 0x3F) << 5) \
            | (((word >> 7) & 1) << 11) | ((word >> 31) << 12)
        return Instr(m, 0, rs1, rs2, _sext(imm, 13), None, word)

    if opcode == 0b0110111 or opcode == 0b0010111:
        m = M.LUI if opcode == 0b0110111 else M.AUIPC
        return Instr(m, rd, 0, 0, word >> 12, None, word)

    if opcode == 0b1101111:  # jal
        imm = (((word >> 21) & 0x3FF) << 1) | (((word >> 20) & 1) << 11) \
            | (((word >> 12) & 0xFF) << 12) | ((word >> 31) << 20)
        return Instr(M.JAL, rd, 0, 0, _sext(imm, 21), None, word)

    if opcode == 0b1100111:  # jalr
        if f3 != 0:
            raise IllegalInstruction(word)
        return Instr(M.JALR, rd, rs1, 0, _sext(word >> 20, 12), None, word)

    if opcode == 0b0001111:  # fence
        if f3 != 0:
            raise IllegalInstruction(word)
        return Instr(M.FENCE, rd, rs1, 0, word >> 20, None, word)

    if opcode == 0b1110011:  # system
        if f3 == 0 and rd == 0 and rs1 == 0:
            if word >> 20 == 0:
                return Instr(M.ECALL, 0, 0, 0, 0, None, word)
            if word >> 20 == 1:
                return Instr(M.EBREAK, 0, 0, 0, 0, None, word)
        raise IllegalInstruction(word)

    raise IllegalInstruction(word)


_DECODE_CACHE: dict = {}


def decode_cached(word: int) -> Instr:
    """decode() with memoization; used on simulator fetch paths."""
    i = _DECODE_CACHE.get(word)
    if i is None:
        if len(_DECODE_CACHE) > (1 << 17):
            _DECODE_CACHE.clear()
        i = _DECODE_CACHE[word] = decode(word)
    return i


def disassemble(i: Instr) -> str:
    """Render one instruction in assembler syntax (lowercase, comma-separated)."""
    m = i.mnemonic
    fmt = ENCODINGS[m].fmt
    if fmt == FMT_R:
        return f"{m.value} x{i.rd}, x{i.rs1}, x{i.rs2}"
    if fmt == FMT_R_AES:
        return f"{m.value} x{i.rd}, x{i.rs1}, x{i.rs2}, {i.bs}"
    if fmt in (FMT_I, FMT_I_SHAMT):
        return f"{m.value} x{i.rd}, x{i.rs1}, {i.imm}"
    if fmt == FMT_UNARY:
        return f"{m.value} x{i.rd}, x{i.rs1}"
    if fmt == FMT_LOAD or fmt == FMT_JALR:
        return f"{m.value} x{i.rd}, {i.imm}(x{i.rs1})"
    if fmt == FMT_STORE:
        return f"{m.value} x{i.rs2}, {i.imm}(x{i.rs1})"
    if fmt == FMT_BRANCH:
        return f"{m.value} x{i.rs1}, x{i.rs2}, {i.imm}"
    if fmt == FMT_U:
        return f"{m.value} x{i.rd}, 0x{i.imm:x}"
    if fmt == FMT_JAL:
        return f"{m.value} x{i.rd}, {i.imm}"
    return m.value  # fence/ecall/ebreak


class Label(NamedTuple):
    name: str


class Word(NamedTuple):
    """A raw 32-bit data word placed in the instruction stream."""

    value: int


class _Fixup(NamedTuple):
    index: int
    mnemonic: Mnemonic
    rd: int
    rs1: int
    rs2: int
    target: str


class Assembler:
    """Programmatic assembler producing a ProgramImage.

    Usage:
        a = Assembler(base=0x1000)
        a.label("loop")
        a.emit("addi", rd=1, rs1=1, imm=-1)
        a.emit("bne", rs1=1, rs2=0, target="loop")
        a.emit("ebreak")
        img = a.build()
    """

    def __init__(self, base: int = 0x1000):
        if base % 4 != 0:
            raise FieldRange(f"base 0x{base:x} not word-aligned")
        self.base = base
        self._words: list = []  # int words; None placeholders for fixups
        self._labels: dict = {}
        self._fixups: list = []

    @property
    def here(self) -> int:
        return self.base + 4 * len(self._words)

    def label(self, name: str) -> None:
        self._labels[name] = self.here

    def emit(self, mnemonic: Union[Mnemonic, str], rd: int = 0, rs1: int = 0,
             rs2: int = 0, imm: int = 0, bs: Optional[int] = None,
             target: Optional[str] = None) -> None:
        m = mnemonic if type(mnemonic) is Mnemonic else Mnemonic(mnemonic)
        if target is not None:
            self._fixups.append(_Fixup(len(self._words), m, rd, rs1, rs2, target))
            self._words.append(None)
        else:
            self._words.append(encode(Instr(m, rd, rs1, rs2, imm, bs)))

    def put(self, i: Instr) -> None:
        self._words.append(encode(i))

    def word(self, value: int) -> None:
        self._words.append(value & 0xFFFFFFFF)

    def data(self, blob: bytes) -> None:
        """Append raw bytes, padded to a word boundary."""
        padded = blob + bytes(-len(blob) % 4)
        self._words.extend(struct.unpack(f"<{len(padded) // 4}I", padded))

    # pseudo-instructions: nop, li (1 or 2 words), j
    def nop(self) -> None:
        self.emit(M.ADDI, rd=0, rs1=0, imm=0)

    def li(self, rd: int, value: int) -> None:
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value >> 31 else value
        if -2048 <= signed <= 2047:
            self.emit(M.ADDI, rd=rd, rs1=0, imm=signed)
            return
        hi = ((value + 0x800) >> 12) & 0xFFFFF
        lo = _sext(value, 12)
        self.emit(M.LUI, rd=rd, imm=hi)
        if lo:
            self.emit(M.ADDI, rd=rd, rs1=rd, imm=lo)

    def j(self, target: str) -> None:
        self.emit(M.JAL, rd=0, target=target)

    def build(self, entry: Optional[int] = None) -> ProgramImage:
        for fx in self._fixups:
            if fx.target not in self._labels:
                raise UnresolvedLabel(fx.target)
            offset = self._labels[fx.target] - (self.base + 4 * fx.index)
            self._words[fx.index] = encode(
                Instr(fx.mnemonic, fx.rd, fx.rs1, fx.rs2, offset))
        blob = struct.pack(f"<{len(self._words)}I", *self._words)
        return ProgramImage(base=self.base, data=blob,
                            entry=self.base if entry is None else entry,
                            code_size=len(blob))


def assemble(records: Iterable, base: int = 0x1000,
             entry: Optional[int] = None) -> ProgramImage:
    """Assemble a sequence of records into a ProgramImage.

    Records may be Instr values, Label/Word markers, or
    (mnemonic, kwargs-dict) tuples; the tuple form supports a
    `target` kwarg for label-relative branches and jumps.
    """
    a = Assembler(base=base)
    for rec in records:
        if isinstance(rec, Label):
            a.label(rec.name)
        elif isinstance(rec, Word):
            a.word(rec.value)
        elif isinstance(rec, Instr):
            a.put(rec)
        elif isinstance(rec, tuple) and len(rec) == 2:
            a.emit(rec[0], **rec[1])
        else:
            raise TypeError(f"unsupported assembler record: {rec!r}")
    return a.build(entry=entry)
