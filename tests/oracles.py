"""Independent reference implementations used as test oracles.

Nothing in here may import the simulator's semantic code paths; values
come from the `cryptography` package, hashlib, or first-principles
reimplementations.
"""

import functools
import hashlib

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def aes128_encrypt_block(key: bytes, pt: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(pt) + enc.finalize()


def aes128_decrypt_block(key: bytes, ct: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(ct) + dec.finalize()


def sha256(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


def _gf_mul(a: int, b: int) -> int:
    """Product in GF(2^8) modulo the AES polynomial x^8 + x^4 + x^3 + x + 1."""
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return p


def aes_sbox_algebraic(x: int) -> int:
    """S-box from first principles: GF(2^8) inverse + affine transform."""
    inv = 0
    if x:
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inv = y
                break
    rot = lambda b, n: ((b << n) | (b >> (8 - n))) & 0xFF
    return inv ^ rot(inv, 1) ^ rot(inv, 2) ^ rot(inv, 3) ^ rot(inv, 4) ^ 0x63


@functools.lru_cache(maxsize=None)
def _aes_sboxes() -> tuple:
    """(S-box, inverse S-box): the S-box from first principles, and its
    inverse by inverting that permutation."""
    sbox = [aes_sbox_algebraic(x) for x in range(256)]
    inverse = [0] * 256
    for x, s in enumerate(sbox):
        inverse[s] = x
    return sbox, inverse


# each aes32* form: (whether it takes the inverse S-box, its MixColumns
# column, byte 0 first, or None for no mix). The columns are FIPS-197's:
# {02, 01, 01, 03} for MixColumns and {0e, 09, 0d, 0b} for InvMixColumns.
_AES32 = {
    "aes32esi": (False, None),
    "aes32esmi": (False, (0x02, 0x01, 0x01, 0x03)),
    "aes32dsi": (True, None),
    "aes32dsmi": (True, (0x0E, 0x09, 0x0D, 0x0B)),
}


def aes32(mnemonic: str, rs1: int, rs2: int, bs: int) -> int:
    """The Zkne/Zknd `mnemonic` (its text), as the Scalar Cryptography
    spec defines it: byte `bs` of rs2 goes through the S-box, the inverse
    one for the aes32ds* forms, and for the *mi forms through the column
    of MixColumns or InvMixColumns; that word, rotated left by 8 * bs, is
    XORed into rs1."""
    inverse, column = _AES32[mnemonic]
    s = _aes_sboxes()[inverse][(rs2 >> 8 * bs) & 0xFF]
    if column is None:
        word = s
    else:
        word = sum(_gf_mul(s, c) << 8 * i for i, c in enumerate(column))
    return rs1 ^ shift("rol", word, 8 * bs)


def clmul64_convolution(a: int, b: int) -> int:
    """Carry-less product via bitwise convolution (not shift-accumulate)."""
    out = 0
    for k in range(63):
        bit = 0
        lo = max(0, k - 31)
        for i in range(lo, min(k, 31) + 1):
            bit ^= ((a >> i) & 1) & ((b >> (k - i)) & 1)
        out |= bit << k
    return out


def clmul64_shift_xor(a: int, b: int) -> int:
    """The brute-force 64-bit shift-XOR formulation."""
    p = 0
    for i in range(32):
        if (b >> i) & 1:
            p ^= a << i
    return p & MASK64


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def ror64(x: int, n: int) -> int:
    n %= 64
    return ((x >> n) | (x << (64 - n))) & MASK64 if n else x


def sha512_sigma0(x: int) -> int:
    return ror64(x, 1) ^ ror64(x, 8) ^ (x >> 7)


def sha512_sigma1(x: int) -> int:
    return ror64(x, 19) ^ ror64(x, 61) ^ (x >> 6)


def sha512_sum0(x: int) -> int:
    return ror64(x, 28) ^ ror64(x, 34) ^ ror64(x, 39)


def sha512_sum1(x: int) -> int:
    return ror64(x, 14) ^ ror64(x, 18) ^ ror64(x, 41)


def shift(mnemonic: str, x: int, n: int) -> int:
    """The RV32 shift or rotate `mnemonic` (its text) of the 32-bit `x` by
    the amount `n`, as the ISA manual defines it: the amount is the low 5
    bits of rs2 or of the immediate, sll shifts zeros in at the bottom, srl
    zeros and sra copies of bit 31 in at the top, and rol and ror move the
    bits that leave one end in at the other."""
    n &= 31
    if mnemonic in ("sll", "slli"):
        return (x << n) & MASK32
    if mnemonic in ("srl", "srli"):
        return x >> n
    if mnemonic in ("sra", "srai"):
        return ((x - (x >> 31 << 32)) >> n) & MASK32
    if mnemonic == "rol":
        return ((x << n) | (x >> (32 - n))) & MASK32
    if mnemonic in ("ror", "rori"):
        return ((x >> n) | (x << (32 - n))) & MASK32
    raise ValueError(f"{mnemonic!r} is not a shift or rotate")


# --- Zbkb and the SHA-256 Zknh forms, from the spec's pseudo-code -----------------

def _bits(x: int) -> list:
    """The 32 bits of `x`, bit 0 first."""
    return [(x >> i) & 1 for i in range(32)]


def _word(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def zbkb(mnemonic: str, x: int, y: int) -> int:
    """The Zbkb instruction `mnemonic` (its text) on rs1 = `x` and rs2 or
    the immediate = `y`, bit by bit as the Scalar Cryptography v1.0.1
    pseudo-code writes its RV32 forms."""
    X, Y = _bits(x), _bits(y)
    if mnemonic in ("ror", "rori"):  # shamt is the low 5 bits of rs2 or imm
        return _word(X[(i + (y & 31)) % 32] for i in range(32))
    if mnemonic == "rol":
        return _word(X[(i - (y & 31)) % 32] for i in range(32))
    if mnemonic == "andn":
        return _word(a & (1 - b) for a, b in zip(X, Y))
    if mnemonic == "orn":
        return _word(a | (1 - b) for a, b in zip(X, Y))
    if mnemonic == "xnor":
        return _word(1 - (a ^ b) for a, b in zip(X, Y))
    if mnemonic == "pack":  # rs2[15..0] @ rs1[15..0]
        return _word(X[:16] + Y[:16])
    if mnemonic == "packh":  # zext(rs2[7..0] @ rs1[7..0])
        return _word(X[:8] + Y[:8])
    if mnemonic == "rev8":  # output byte k is input byte 3 - k
        return _word(X[8 * (3 - i // 8) + i % 8] for i in range(32))
    if mnemonic == "brev8":  # each byte's bits reversed in place
        return _word(X[8 * (i // 8) + 7 - i % 8] for i in range(32))
    if mnemonic == "zip":  # output[2i] = rs1[i], output[2i+1] = rs1[i+16]
        return _word(X[i // 2 + 16 * (i % 2)] for i in range(32))
    if mnemonic == "unzip":  # output[i] = rs1[2i], output[i+16] = rs1[2i+1]
        return _word(X[2 * (i % 16) + i // 16] for i in range(32))
    raise ValueError(f"{mnemonic!r} is not a Zbkb instruction")


def sha2_word(mnemonic: str, x: int) -> int:
    """The Zknh SHA-256 instruction `mnemonic` (its text) on rs1 = `x`, as
    the Scalar Cryptography v1.0.1 pseudo-code writes it: FIPS 180-4's
    sigma and Sigma functions of one 32-bit word."""
    ror = functools.partial(shift, "ror", x)
    if mnemonic == "sha256sig0":
        return ror(7) ^ ror(18) ^ (x >> 3)
    if mnemonic == "sha256sig1":
        return ror(17) ^ ror(19) ^ (x >> 10)
    if mnemonic == "sha256sum0":
        return ror(2) ^ ror(13) ^ ror(22)
    if mnemonic == "sha256sum1":
        return ror(6) ^ ror(11) ^ ror(25)
    raise ValueError(f"{mnemonic!r} is not a SHA-256 instruction")


# lowRISC OpenTitan's PRINCE reference table
PRINCE_SBOX4 = (0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1,
                0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4)


# --- the README cycle model, row by row -------------------------------------------

# The rows of the README's "Cycle model" table, each with the mnemonics it
# names, written from the table rather than read from the simulator.
_README_ROWS = {
    "alu": "add addi sub and andi or ori xor xori slt slti sltu sltiu lui auipc"
           " andn orn xnor pack packh",
    "shift": "sll slli srl srli sra srai ror rol rori",
    "memory": "lb lh lw lbu lhu sb sh sw",
    "branch": "beq bne blt bge bltu bgeu",
    "jump": "jal jalr",
    "clmul": "clmul clmulh",
    "xperm": "xperm4 xperm8",
    "aes": "aes32esi aes32esmi aes32dsi aes32dsmi",
    "sha": "sha256sig0 sha256sig1 sha256sum0 sha256sum1 sha512sig0h sha512sig0l"
           " sha512sig1h sha512sig1l sha512sum0r sha512sum1r",
    "reorder": "zip unzip rev8 brev8",
    "fence": "fence ecall ebreak",
}
_ROW_OF = {name: row for row, names in _README_ROWS.items()
           for name in names.split()}


def _shift_cycles(cfg, mnemonic, shamt):
    # chunk steps + single-bit steps + 1 writeback; a left shift without
    # (or slower on) the left path is a right rotate by 32 - shamt, plus a
    # 32/w mask pass for the logical form
    cw = 8 if cfg.serial_width == 32 else cfg.serial_width
    steps = lambda k: k // cw + k % cw
    if mnemonic in ("sll", "slli"):
        emulated = steps(32 - shamt) + 32 // cfg.serial_width + 1
        if cfg.left_shift_support:
            return min(steps(shamt) + 1, emulated)
        return emulated
    if mnemonic == "rol" and not cfg.left_shift_support:
        return steps(32 - shamt) + 1
    return steps(shamt) + 1


def _execute_cycles(cfg, mnemonic, shamt):
    """The README table's execution cycles of `mnemonic` (its text) under
    the knobs of `cfg`; a shift or rotate by `shamt`, or by its worst amount
    under Zkt."""
    n = 32 // cfg.serial_width
    row = _ROW_OF[mnemonic]
    if row == "shift":
        if any(e.value == "zkt" for e in cfg.extensions):
            return max(_shift_cycles(cfg, mnemonic, s) for s in range(32))
        return _shift_cycles(cfg, mnemonic, shamt)
    return {"alu": n, "branch": n, "jump": n, "xperm": n,
            "memory": n + cfg.mem_latency + 1, "clmul": cfg.clmul_latency,
            "aes": cfg.aes_latency, "sha": cfg.sha_select_latency + n,
            "reorder": cfg.reorder_latency, "fence": 1}[row]


@functools.lru_cache(maxsize=None)
def step_cycles(cfg, mnemonic, shamt, taken, first):
    """The cycles that one retiring instruction adds to the core's cycle
    count, by the README's frontend rule: ebreak and ecall halt after their
    execute cycles; a taken branch, or any jump, flushes the fetch buffer
    and pays execute + taken_branch_penalty + mem_latency - 1; anything
    else overlaps the next fetch and pays max(execute, mem_latency). The
    first step also fills the fetch buffer, for mem_latency more."""
    execute = _execute_cycles(cfg, mnemonic, shamt)
    if mnemonic in ("ebreak", "ecall"):
        cycles = execute
    elif taken or _ROW_OF[mnemonic] == "jump":
        cycles = execute + cfg.taken_branch_penalty + cfg.mem_latency - 1
    else:
        cycles = max(execute, cfg.mem_latency)
    return cycles + (cfg.mem_latency if first else 0)


# --- instruction encodings, from the spec's tables ------------------------------

# The bit layout of every supported instruction, bit 31 first, copied from
# the RV32I base opcode map of the unprivileged ISA manual and from the
# instruction listings of Scalar Cryptography v1.0.1 (RV32 forms), not read
# from the simulator. A run of 0s and 1s is fixed; rd, rs1, rs2 and shamt
# are 5 bits wide, bs 2, and fence's fm, pred and succ 4 each; an imm[...]
# token names the immediate's bits that it holds, high to low.
LAYOUTS = {
    # RV32I
    "lui": "imm[31:12] rd 0110111",
    "auipc": "imm[31:12] rd 0010111",
    "jal": "imm[20|10:1|11|19:12] rd 1101111",
    "jalr": "imm[11:0] rs1 000 rd 1100111",
    "beq": "imm[12|10:5] rs2 rs1 000 imm[4:1|11] 1100011",
    "bne": "imm[12|10:5] rs2 rs1 001 imm[4:1|11] 1100011",
    "blt": "imm[12|10:5] rs2 rs1 100 imm[4:1|11] 1100011",
    "bge": "imm[12|10:5] rs2 rs1 101 imm[4:1|11] 1100011",
    "bltu": "imm[12|10:5] rs2 rs1 110 imm[4:1|11] 1100011",
    "bgeu": "imm[12|10:5] rs2 rs1 111 imm[4:1|11] 1100011",
    "lb": "imm[11:0] rs1 000 rd 0000011",
    "lh": "imm[11:0] rs1 001 rd 0000011",
    "lw": "imm[11:0] rs1 010 rd 0000011",
    "lbu": "imm[11:0] rs1 100 rd 0000011",
    "lhu": "imm[11:0] rs1 101 rd 0000011",
    "sb": "imm[11:5] rs2 rs1 000 imm[4:0] 0100011",
    "sh": "imm[11:5] rs2 rs1 001 imm[4:0] 0100011",
    "sw": "imm[11:5] rs2 rs1 010 imm[4:0] 0100011",
    "addi": "imm[11:0] rs1 000 rd 0010011",
    "slti": "imm[11:0] rs1 010 rd 0010011",
    "sltiu": "imm[11:0] rs1 011 rd 0010011",
    "xori": "imm[11:0] rs1 100 rd 0010011",
    "ori": "imm[11:0] rs1 110 rd 0010011",
    "andi": "imm[11:0] rs1 111 rd 0010011",
    "slli": "0000000 shamt rs1 001 rd 0010011",
    "srli": "0000000 shamt rs1 101 rd 0010011",
    "srai": "0100000 shamt rs1 101 rd 0010011",
    "add": "0000000 rs2 rs1 000 rd 0110011",
    "sub": "0100000 rs2 rs1 000 rd 0110011",
    "sll": "0000000 rs2 rs1 001 rd 0110011",
    "slt": "0000000 rs2 rs1 010 rd 0110011",
    "sltu": "0000000 rs2 rs1 011 rd 0110011",
    "xor": "0000000 rs2 rs1 100 rd 0110011",
    "srl": "0000000 rs2 rs1 101 rd 0110011",
    "sra": "0100000 rs2 rs1 101 rd 0110011",
    "or": "0000000 rs2 rs1 110 rd 0110011",
    "and": "0000000 rs2 rs1 111 rd 0110011",
    "fence": "fm pred succ rs1 000 rd 0001111",
    "ecall": "000000000000 00000 000 00000 1110011",
    "ebreak": "000000000001 00000 000 00000 1110011",
    # Zbkb
    "ror": "0110000 rs2 rs1 101 rd 0110011",
    "rol": "0110000 rs2 rs1 001 rd 0110011",
    "rori": "0110000 shamt rs1 101 rd 0010011",
    "andn": "0100000 rs2 rs1 111 rd 0110011",
    "orn": "0100000 rs2 rs1 110 rd 0110011",
    "xnor": "0100000 rs2 rs1 100 rd 0110011",
    "pack": "0000100 rs2 rs1 100 rd 0110011",
    "packh": "0000100 rs2 rs1 111 rd 0110011",
    "brev8": "011010000111 rs1 101 rd 0010011",
    "rev8": "011010011000 rs1 101 rd 0010011",
    "zip": "000010001111 rs1 001 rd 0010011",
    "unzip": "000010001111 rs1 101 rd 0010011",
    # Zbkc
    "clmul": "0000101 rs2 rs1 001 rd 0110011",
    "clmulh": "0000101 rs2 rs1 011 rd 0110011",
    # Zbkx
    "xperm4": "0010100 rs2 rs1 010 rd 0110011",
    "xperm8": "0010100 rs2 rs1 100 rd 0110011",
    # Zkne, Zknd
    "aes32esi": "bs 10001 rs2 rs1 000 rd 0110011",
    "aes32esmi": "bs 10011 rs2 rs1 000 rd 0110011",
    "aes32dsi": "bs 10101 rs2 rs1 000 rd 0110011",
    "aes32dsmi": "bs 10111 rs2 rs1 000 rd 0110011",
    # Zknh
    "sha256sig0": "000100000010 rs1 001 rd 0010011",
    "sha256sig1": "000100000011 rs1 001 rd 0010011",
    "sha256sum0": "000100000000 rs1 001 rd 0010011",
    "sha256sum1": "000100000001 rs1 001 rd 0010011",
    "sha512sig0h": "0101110 rs2 rs1 000 rd 0110011",
    "sha512sig0l": "0101010 rs2 rs1 000 rd 0110011",
    "sha512sig1h": "0101111 rs2 rs1 000 rd 0110011",
    "sha512sig1l": "0101011 rs2 rs1 000 rd 0110011",
    "sha512sum0r": "0101000 rs2 rs1 000 rd 0110011",
    "sha512sum1r": "0101001 rs2 rs1 000 rd 0110011",
}

_WIDTH = {"rd": 5, "rs1": 5, "rs2": 5, "bs": 2, "shamt": 5, "fm": 4, "pred": 4, "succ": 4}
# layout fields that the simulator's Instr holds in another operand: the
# operand, and where the field's lowest bit sits in it
_HELD_IN = {"shamt": ("imm", 0), "fm": ("imm", 8), "pred": ("imm", 4), "succ": ("imm", 0)}


@functools.lru_cache(maxsize=None)
def _sources(mnemonic):
    """Where each bit of `mnemonic`'s word comes from, bit 31 first: "0" or
    "1" where the layout fixes it, else (operand, bit), that bit of the
    Instr operand. Instr holds a U immediate's upper 20 bits, so
    imm[31:12] comes from its imm bits 19 to 0."""
    sources = []
    for token in LAYOUTS[mnemonic].split():
        if not token.strip("01"):
            sources += token
        elif token.startswith("imm["):
            drop = 12 if token == "imm[31:12]" else 0
            for part in token[4:-1].split("|"):
                high, _, low = part.partition(":")
                sources += [("imm", b - drop)
                            for b in range(int(high), int(low or high) - 1, -1)]
        else:
            operand, shift = _HELD_IN.get(token, (token, 0))
            sources += [(operand, shift + b) for b in range(_WIDTH[token] - 1, -1, -1)]
    assert len(sources) == 32, mnemonic
    return tuple(sources)


def operand_ranges(mnemonic):
    """{operand: range of its values} for each Instr operand (rd, rs1, rs2,
    imm, bs) that `mnemonic`'s layout holds. An immediate written imm[...]
    is signed, with its top bit the sign, except the U immediate; bits below
    the lowest one it holds are 0. Any other operand is unsigned."""
    bits = {}
    for source in _sources(mnemonic):
        if type(source) is tuple:
            bits.setdefault(source[0], []).append(source[1])
    signed = "imm[" in LAYOUTS[mnemonic] and "imm[31:12]" not in LAYOUTS[mnemonic]
    ranges = {}
    for operand, held in bits.items():
        top, step = max(held), 1 << min(held)
        if operand == "imm" and signed:
            ranges[operand] = range(-(1 << top), 1 << top, step)
        else:
            ranges[operand] = range(0, 2 << top, step)
    return ranges


def fixed_bits(mnemonic):
    """(mask, match): the bits that `mnemonic`'s layout fixes, and their
    values; a word can be `mnemonic` only if word & mask == match."""
    mask = match = 0
    for source in _sources(mnemonic):
        mask = mask << 1 | (type(source) is str)
        match = match << 1 | (source == "1")
    return mask, match


def encode(mnemonic, **operands):
    """The word that `mnemonic`'s layout gives for the named Instr operands
    (rd, rs1, rs2, imm, bs; those not named are 0). As Instr holds them, a
    shift amount is imm, a U-format imm is the immediate's upper 20 bits,
    and a fence's imm is its fm, pred and succ bits as one 12-bit value.
    An operand that the layout lacks or cannot hold raises ValueError."""
    ranges = operand_ranges(mnemonic)
    for name, value in operands.items():
        if value not in ranges.get(name, ()):
            raise ValueError(f"{mnemonic} cannot hold {name}={value}")
    word = 0
    for source in _sources(mnemonic):
        if type(source) is str:
            word = word << 1 | int(source)
        else:
            operand, bit = source
            word = word << 1 | (operands.get(operand, 0) >> bit & 1)
    return word
