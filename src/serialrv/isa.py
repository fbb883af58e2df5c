"""RV32I + scalar-crypto instruction set: mnemonics, encode/decode, assembler.

Covers the base integer ISA plus the Zbkb, Zbkc, Zbkx, Zkne, Zknd and Zknh
subsets (RV32 forms only; zip/unzip exist only on RV32, the RV64-only forms
are excluded). Compressed instructions are not supported: any word whose low
two bits are not 0b11 is rejected.

Each mnemonic is one row of `Mnemonic`, holding its name, extension subset
and encoding; EXT_OF, ENCODINGS and AES_MNEMONICS are read off the rows.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple, Optional, Union

from .image import DEFAULT_BASE, ProgramImage


class IllegalInstruction(Exception):
    """Word does not decode to a supported instruction; args[0] is the word.

    No Python-level __init__: decode raises this for most random words, and
    the C constructor of BaseException is much cheaper.
    """

    @property
    def word(self) -> int:
        return self.args[0]

    def __str__(self) -> str:
        return f"illegal instruction word 0x{self.args[0] & 0xFFFFFFFF:08x}"


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


# Instruction formats. UNARY covers the fixed-function OP-IMM instructions
# (rev8, zip, sha256sig0, ...) whose entire imm12 field is a constant.
# encode and decode compare formats by identity: use these constants.
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


class Mnemonic(str, enum.Enum):
    """One row per instruction: its name (the member's value), the extension
    subset it belongs to (`ext`) and its encoding (`enc`)."""

    def __new__(cls, name: str, ext: Ext, enc: Enc):
        member = str.__new__(cls, name)
        member._value_ = name
        member.ext = ext
        member.enc = enc
        return member

    # RV32I
    LUI = "lui", Ext.RV32I, Enc(FMT_U, 0b0110111)
    AUIPC = "auipc", Ext.RV32I, Enc(FMT_U, 0b0010111)
    JAL = "jal", Ext.RV32I, Enc(FMT_JAL, 0b1101111)
    JALR = "jalr", Ext.RV32I, Enc(FMT_JALR, 0b1100111, 0b000)
    BEQ = "beq", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b000)
    BNE = "bne", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b001)
    BLT = "blt", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b100)
    BGE = "bge", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b101)
    BLTU = "bltu", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b110)
    BGEU = "bgeu", Ext.RV32I, Enc(FMT_BRANCH, _BRANCH, 0b111)
    LB = "lb", Ext.RV32I, Enc(FMT_LOAD, _LOAD, 0b000)
    LH = "lh", Ext.RV32I, Enc(FMT_LOAD, _LOAD, 0b001)
    LW = "lw", Ext.RV32I, Enc(FMT_LOAD, _LOAD, 0b010)
    LBU = "lbu", Ext.RV32I, Enc(FMT_LOAD, _LOAD, 0b100)
    LHU = "lhu", Ext.RV32I, Enc(FMT_LOAD, _LOAD, 0b101)
    SB = "sb", Ext.RV32I, Enc(FMT_STORE, _STORE, 0b000)
    SH = "sh", Ext.RV32I, Enc(FMT_STORE, _STORE, 0b001)
    SW = "sw", Ext.RV32I, Enc(FMT_STORE, _STORE, 0b010)
    ADDI = "addi", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b000)
    SLTI = "slti", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b010)
    SLTIU = "sltiu", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b011)
    XORI = "xori", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b100)
    ORI = "ori", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b110)
    ANDI = "andi", Ext.RV32I, Enc(FMT_I, _OP_IMM, 0b111)
    SLLI = "slli", Ext.RV32I, Enc(FMT_I_SHAMT, _OP_IMM, 0b001, 0b0000000)
    SRLI = "srli", Ext.RV32I, Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0000000)
    SRAI = "srai", Ext.RV32I, Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0100000)
    ADD = "add", Ext.RV32I, Enc(FMT_R, _OP, 0b000, 0b0000000)
    SUB = "sub", Ext.RV32I, Enc(FMT_R, _OP, 0b000, 0b0100000)
    SLL = "sll", Ext.RV32I, Enc(FMT_R, _OP, 0b001, 0b0000000)
    SLT = "slt", Ext.RV32I, Enc(FMT_R, _OP, 0b010, 0b0000000)
    SLTU = "sltu", Ext.RV32I, Enc(FMT_R, _OP, 0b011, 0b0000000)
    XOR = "xor", Ext.RV32I, Enc(FMT_R, _OP, 0b100, 0b0000000)
    SRL = "srl", Ext.RV32I, Enc(FMT_R, _OP, 0b101, 0b0000000)
    SRA = "sra", Ext.RV32I, Enc(FMT_R, _OP, 0b101, 0b0100000)
    OR = "or", Ext.RV32I, Enc(FMT_R, _OP, 0b110, 0b0000000)
    AND = "and", Ext.RV32I, Enc(FMT_R, _OP, 0b111, 0b0000000)
    FENCE = "fence", Ext.RV32I, Enc(FMT_FENCE, 0b0001111, 0b000)
    ECALL = "ecall", Ext.RV32I, Enc(FMT_SYSTEM, 0b1110011, 0b000, 0x000)
    EBREAK = "ebreak", Ext.RV32I, Enc(FMT_SYSTEM, 0b1110011, 0b000, 0x001)
    # Zbkb
    ROR = "ror", Ext.ZBKB, Enc(FMT_R, _OP, 0b101, 0b0110000)
    ROL = "rol", Ext.ZBKB, Enc(FMT_R, _OP, 0b001, 0b0110000)
    RORI = "rori", Ext.ZBKB, Enc(FMT_I_SHAMT, _OP_IMM, 0b101, 0b0110000)
    ANDN = "andn", Ext.ZBKB, Enc(FMT_R, _OP, 0b111, 0b0100000)
    ORN = "orn", Ext.ZBKB, Enc(FMT_R, _OP, 0b110, 0b0100000)
    XNOR = "xnor", Ext.ZBKB, Enc(FMT_R, _OP, 0b100, 0b0100000)
    PACK = "pack", Ext.ZBKB, Enc(FMT_R, _OP, 0b100, 0b0000100)
    PACKH = "packh", Ext.ZBKB, Enc(FMT_R, _OP, 0b111, 0b0000100)
    BREV8 = "brev8", Ext.ZBKB, Enc(FMT_UNARY, _OP_IMM, 0b101, 0b011010000111)
    REV8 = "rev8", Ext.ZBKB, Enc(FMT_UNARY, _OP_IMM, 0b101, 0b011010011000)
    ZIP = "zip", Ext.ZBKB, Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000010001111)
    UNZIP = "unzip", Ext.ZBKB, Enc(FMT_UNARY, _OP_IMM, 0b101, 0b000010001111)
    # Zbkc
    CLMUL = "clmul", Ext.ZBKC, Enc(FMT_R, _OP, 0b001, 0b0000101)
    CLMULH = "clmulh", Ext.ZBKC, Enc(FMT_R, _OP, 0b011, 0b0000101)
    # Zbkx
    XPERM4 = "xperm4", Ext.ZBKX, Enc(FMT_R, _OP, 0b010, 0b0010100)
    XPERM8 = "xperm8", Ext.ZBKX, Enc(FMT_R, _OP, 0b100, 0b0010100)
    # Zkne / Zknd
    AES32ESI = "aes32esi", Ext.ZKNE, Enc(FMT_R_AES, _OP, 0b000, 0b10001)
    AES32ESMI = "aes32esmi", Ext.ZKNE, Enc(FMT_R_AES, _OP, 0b000, 0b10011)
    AES32DSI = "aes32dsi", Ext.ZKND, Enc(FMT_R_AES, _OP, 0b000, 0b10101)
    AES32DSMI = "aes32dsmi", Ext.ZKND, Enc(FMT_R_AES, _OP, 0b000, 0b10111)
    # Zknh
    SHA256SIG0 = "sha256sig0", Ext.ZKNH, Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000010)
    SHA256SIG1 = "sha256sig1", Ext.ZKNH, Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000011)
    SHA256SUM0 = "sha256sum0", Ext.ZKNH, Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000000)
    SHA256SUM1 = "sha256sum1", Ext.ZKNH, Enc(FMT_UNARY, _OP_IMM, 0b001, 0b000100000001)
    SHA512SIG0H = "sha512sig0h", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101110)
    SHA512SIG0L = "sha512sig0l", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101010)
    SHA512SIG1H = "sha512sig1h", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101111)
    SHA512SIG1L = "sha512sig1l", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101011)
    SHA512SUM0R = "sha512sum0r", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101000)
    SHA512SUM1R = "sha512sum1r", Ext.ZKNH, Enc(FMT_R, _OP, 0b000, 0b0101001)


M = Mnemonic  # local shorthand for the tables below

# plain dicts in enum order: encode's hot path is one lookup in ENCODINGS
EXT_OF = {m: m.ext for m in M}
ENCODINGS = {m: m.enc for m in M}
AES_MNEMONICS = frozenset(m for m in M if m.enc.fmt is FMT_R_AES)

# Data-independent-latency contract coverage: every crypto-subset instruction
# plus the RV32I instructions that the ratified RISC-V Scalar Cryptography
# spec lists in its "Zkt - Data Independent Execution Latency" section:
# lui, auipc, the register and immediate ALU ops, shifts and set-less-than.
ZKT_COVERED = frozenset(m for m, e in EXT_OF.items() if e is not Ext.RV32I) | {
    M.LUI, M.AUIPC,
    M.SLL, M.SLLI, M.SRL, M.SRLI, M.SRA, M.SRAI,
    M.AND, M.ANDI, M.OR, M.ORI, M.XOR, M.XORI,
    M.ADD, M.ADDI, M.SUB,
    M.SLT, M.SLTI, M.SLTU, M.SLTIU,
}


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


def encode(i: Instr) -> int:
    """Produce the canonical 32-bit encoding of `i`, an Instr or any
    7-tuple in its field order (`raw` is not read).

    Raises FieldRange if any operand does not fit its field. The register
    fields are checked first (rd, rs1, rs2), then the byte select, then the
    format's own fields; messages are formatted only on failure.
    """
    m, rd, rs1, rs2, imm, bs, _ = i
    fmt, opcode, funct3, funct7 = ENCODINGS[m]
    if not (0 <= rd < 32 and 0 <= rs1 < 32 and 0 <= rs2 < 32):
        for name, reg in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
            if not 0 <= reg < 32:
                raise FieldRange(f"{name} {reg} out of range")
    if bs is not None and fmt is not FMT_R_AES:
        raise FieldRange(f"{m.value} takes no byte select")
    base = opcode | (funct3 << 12)

    if fmt is FMT_R:
        return base | (rd << 7) | (rs1 << 15) | (rs2 << 20) | (funct7 << 25)
    if fmt is FMT_I or fmt is FMT_LOAD or fmt is FMT_JALR:
        if not -2048 <= imm <= 2047:
            raise FieldRange(f"imm {imm} exceeds 12-bit signed range")
        return base | (rd << 7) | (rs1 << 15) | ((imm & 0xFFF) << 20)
    if fmt is FMT_STORE:
        if not -2048 <= imm <= 2047:
            raise FieldRange(f"imm {imm} exceeds 12-bit signed range")
        v = imm & 0xFFF
        return base | ((v & 0x1F) << 7) | (rs1 << 15) | (rs2 << 20) | ((v >> 5) << 25)
    if fmt is FMT_BRANCH:
        if imm % 2:
            raise FieldRange(f"branch offset {imm} must be even")
        if not -4096 <= imm <= 4094:
            raise FieldRange(f"branch offset {imm} out of range")
        v = imm & 0x1FFF
        return (base | (rs1 << 15) | (rs2 << 20)
                | (((v >> 11) & 1) << 7) | (((v >> 1) & 0xF) << 8)
                | (((v >> 5) & 0x3F) << 25) | (((v >> 12) & 1) << 31))
    if fmt is FMT_U:
        if not 0 <= imm <= 0xFFFFF:
            raise FieldRange(f"imm {imm} exceeds 20-bit range")
        return base | (rd << 7) | (imm << 12)
    if fmt is FMT_JAL:
        if imm % 2:
            raise FieldRange(f"jump offset {imm} must be even")
        if not -(1 << 20) <= imm <= (1 << 20) - 2:
            raise FieldRange(f"jump offset {imm} out of range")
        v = imm & 0x1FFFFF
        return (base | (rd << 7) | (((v >> 12) & 0xFF) << 12)
                | (((v >> 11) & 1) << 20) | (((v >> 1) & 0x3FF) << 21)
                | (((v >> 20) & 1) << 31))
    if fmt is FMT_I_SHAMT:
        if not 0 <= imm <= 31:
            raise FieldRange(f"shamt {imm} exceeds 5-bit range")
        return base | (rd << 7) | (rs1 << 15) | (imm << 20) | (funct7 << 25)
    if fmt is FMT_UNARY:
        return base | (rd << 7) | (rs1 << 15) | (funct7 << 20)
    if fmt is FMT_R_AES:
        if bs is None or not 0 <= bs < 4:
            raise FieldRange(f"bs {bs} out of range")
        return base | (rd << 7) | (rs1 << 15) | (rs2 << 20) | (((bs << 5) | funct7) << 25)
    if fmt is FMT_SYSTEM:
        if rd or rs1 or imm:
            raise FieldRange(f"{m.value} takes no operands")
        return base | (funct7 << 20)
    if fmt is FMT_FENCE:
        # imm carries the raw fm/pred/succ bits
        if not 0 <= imm <= 0xFFF:
            raise FieldRange(f"fence bits {imm} out of range")
        return base | (rd << 7) | (rs1 << 15) | (imm << 20)
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
    FMT_FENCE: ("rd", "rs1", "imm"),
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


def _decode_table(encodings: dict) -> dict:
    """Build decode's table from the encodings.

    Keys are `word & 0x707F` (opcode | funct3). A key whose format fixes no
    bits above funct3 maps to `(fmt, mnemonic)`; U and J formats claim all
    eight funct3 values, since those bits belong to their immediate. A key
    whose formats fix more bits maps to `(None, (shift, sub))`, where `sub`
    maps `word >> shift` to `(fmt, mnemonic)`: funct7 for R (and funct5 with
    every byte select for R_AES), imm12 for OP-IMM (every shamt for a shift),
    and everything above the opcode for the exact ecall/ebreak words.
    Sub-entries are added in precedence order and never replaced, so an exact
    imm12 form (zip, rev8, sha256sig0, ...) wins over a shift on the same
    bits, and an R form over an AES form.
    """
    top: dict = {}
    subs: dict = {}
    last = (FMT_I_SHAMT, FMT_R_AES)  # the lower-precedence forms
    for m, e in sorted(encodings.items(), key=lambda kv: kv[1].fmt in last):
        fmt, f7 = e.fmt, e.funct7
        entry = (fmt, m)
        if fmt == FMT_R:
            shift, sub_keys = 25, [f7]
        elif fmt == FMT_R_AES:
            shift, sub_keys = 25, [(bs << 5) | f7 for bs in range(4)]
        elif fmt == FMT_UNARY:
            shift, sub_keys = 20, [f7]
        elif fmt == FMT_I_SHAMT:
            shift, sub_keys = 20, [(f7 << 5) | shamt for shamt in range(32)]
        elif fmt == FMT_SYSTEM:
            shift, sub_keys = 7, [f7 << 13]
        else:
            for f3 in range(8) if fmt in (FMT_U, FMT_JAL) else [e.funct3]:
                top[e.opcode | (f3 << 12)] = entry
            continue
        _, sub = subs.setdefault(e.opcode | (e.funct3 << 12), (shift, {}))
        for k in sub_keys:
            sub.setdefault(k, entry)
    for key, shift_sub in subs.items():
        assert key not in top, f"key 0x{key:04x} is both direct and sub-tabled"
        top[key] = (None, shift_sub)
    return top


_DECODE = _decode_table(ENCODINGS)


def decode(word: int) -> Instr:
    """Decode a 32-bit word; raises IllegalInstruction for unsupported encodings."""
    word &= 0xFFFFFFFF
    # compressed words (low bits not 0b11) have no key
    hit = _DECODE.get(word & 0x707F)
    if hit is None:
        raise IllegalInstruction(word)
    fmt, m = hit
    if fmt is None:
        shift, sub = m
        hit = sub.get(word >> shift)
        if hit is None:
            raise IllegalInstruction(word)
        fmt, m = hit

    rd = (word >> 7) & 0x1F
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    if fmt is FMT_U:
        return Instr(m, rd, 0, 0, word >> 12, None, word)
    if fmt is FMT_JAL:
        imm = (((word >> 21) & 0x3FF) << 1) | (((word >> 20) & 1) << 11) \
            | (((word >> 12) & 0xFF) << 12) | ((word >> 31) << 20)
        return Instr(m, rd, 0, 0, _sext(imm, 21), None, word)
    if fmt is FMT_I or fmt is FMT_LOAD or fmt is FMT_JALR:
        return Instr(m, rd, rs1, 0, _sext(word >> 20, 12), None, word)
    if fmt is FMT_R:
        return Instr(m, rd, rs1, rs2, 0, None, word)
    if fmt is FMT_BRANCH:
        imm = (((word >> 8) & 0xF) << 1) | (((word >> 25) & 0x3F) << 5) \
            | (((word >> 7) & 1) << 11) | ((word >> 31) << 12)
        return Instr(m, 0, rs1, rs2, _sext(imm, 13), None, word)
    if fmt is FMT_STORE:
        return Instr(m, 0, rs1, rs2, _sext(((word >> 25) << 5) | rd, 12), None, word)
    if fmt is FMT_I_SHAMT:
        return Instr(m, rd, rs1, 0, rs2, None, word)
    if fmt is FMT_UNARY:
        return Instr(m, rd, rs1, 0, 0, None, word)
    if fmt is FMT_R_AES:
        return Instr(m, rd, rs1, rs2, 0, word >> 30, word)
    if fmt is FMT_FENCE:
        return Instr(m, rd, rs1, 0, word >> 20, None, word)
    return Instr(m, 0, 0, 0, 0, None, word)  # ecall/ebreak: the sub-key fixed every bit


_DECODE_CACHE: dict = {}  # word -> Instr; see decode_cached
_DECODE_CACHE_MAX = 1 << 17  # past this many entries decode_cached clears it


def decode_cached(word: int) -> Instr:
    """decode() with memoization in `_DECODE_CACHE`; used on simulator fetch
    paths. `golden.execute` decodes through here, for `golden.step` and for
    cosim's golden trace alike, where every word hits the generator's seeded
    Instrs. Only `MicroCore.step` probes the dict itself, through its bound
    `get`, and calls this on a miss, so the dict is cleared in place, never
    rebound. Kernels, the audit and `serialrv run` fill it here on demand,
    and past `_DECODE_CACHE_MAX` entries it is cleared. Cosim seeds it with
    exactly one program's words: `cosim.torture_trace` clears it and fills
    it with the generator's own Instrs."""
    i = _DECODE_CACHE.get(word)
    if i is None:
        if len(_DECODE_CACHE) > _DECODE_CACHE_MAX:
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


class _Fixup(NamedTuple):
    index: int
    mnemonic: Mnemonic
    rd: int
    rs1: int
    rs2: int
    target: str


# bound once, as each `M.X` load goes through EnumType.__getattr__
_ADDI, _LUI, _JAL = M.ADDI, M.LUI, M.JAL
# the mnemonics whose immediate Assembler.build can resolve from a label
_TARGET_MNEMONICS = frozenset(
    m for m, e in ENCODINGS.items() if e.fmt == FMT_BRANCH) | {_JAL, _LUI, _ADDI}


def _hi_lo(value: int) -> tuple:
    """The lui and addi immediates that together load `value`."""
    return ((value + 0x800) >> 12) & 0xFFFFF, _sext(value, 12)


class Assembler:
    """Programmatic assembler producing a ProgramImage.

    Usage:
        a = Assembler()
        a.label("loop")
        a.emit("addi", rd=1, rs1=1, imm=-1)
        a.emit("bne", rs1=1, rs2=0, target="loop")
        a.emit("ebreak")
        img = a.build()

    A `target` label is resolved in build(). Branches and jal take the
    pc-relative offset to it; lui and addi take the hi and lo parts of its
    absolute address, so the pair `lui rd, target=L` then
    `addi rd, rd, target=L` loads the address of L. emit() rejects a
    target on any other mnemonic.

    Given an `instrs` dict, each emit() without a target also records its
    instruction there as {word: Instr(..., raw=word)}. The record is the
    Instr as given, so it equals decode(word) only if the fields its
    format does not encode are left at their defaults.
    """

    def __init__(self, base: int = DEFAULT_BASE, instrs: Optional[dict] = None):
        if base % 4 != 0:
            raise FieldRange(f"base 0x{base:x} not word-aligned")
        self.base = base
        self.instrs = instrs
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
            if m not in _TARGET_MNEMONICS:
                raise FieldRange(f"{m.value} cannot take a target label")
            self._fixups.append(_Fixup(len(self._words), m, rd, rs1, rs2, target))
            self._words.append(None)
        else:
            # a plain tuple in Instr's field order: encode reads no names,
            # and the one Instr built is the record, which needs the word
            w = encode((m, rd, rs1, rs2, imm, bs, 0))
            self._words.append(w)
            if self.instrs is not None:
                self.instrs[w] = Instr(m, rd, rs1, rs2, imm, bs, w)

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
        self.emit(_ADDI, rd=0, rs1=0, imm=0)

    def li(self, rd: int, value: int) -> None:
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value >> 31 else value
        if -2048 <= signed <= 2047:
            self.emit(_ADDI, rd=rd, rs1=0, imm=signed)
            return
        hi, lo = _hi_lo(value)
        self.emit(_LUI, rd=rd, imm=hi)
        if lo:
            self.emit(_ADDI, rd=rd, rs1=rd, imm=lo)

    def j(self, target: str) -> None:
        self.emit(_JAL, rd=0, target=target)

    def build(self, entry: Optional[int] = None) -> ProgramImage:
        for fx in self._fixups:
            if fx.target not in self._labels:
                raise UnresolvedLabel(fx.target)
            address = self._labels[fx.target]
            if fx.mnemonic is _LUI:
                imm = _hi_lo(address)[0]
            elif fx.mnemonic is _ADDI:
                imm = _hi_lo(address)[1]
            else:
                imm = address - (self.base + 4 * fx.index)
            self._words[fx.index] = encode(
                Instr(fx.mnemonic, fx.rd, fx.rs1, fx.rs2, imm))
        blob = struct.pack(f"<{len(self._words)}I", *self._words)
        return ProgramImage(base=self.base, data=blob,
                            entry=self.base if entry is None else entry)

