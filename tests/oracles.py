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


def aes_sbox_algebraic(x: int) -> int:
    """S-box from first principles: GF(2^8) inverse + affine transform."""
    def gmul(a, b):
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

    inv = 0
    if x:
        for y in range(1, 256):
            if gmul(x, y) == 1:
                inv = y
                break
    rot = lambda b, n: ((b << n) | (b >> (8 - n))) & 0xFF
    return inv ^ rot(inv, 1) ^ rot(inv, 2) ^ rot(inv, 3) ^ rot(inv, 4) ^ 0x63


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
