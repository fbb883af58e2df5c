"""Built-in cryptographic kernels and benchmark metrics.

Every kernel comes in an rv32i variant (base ISA only) and a zkn variant.
For the crypto kernels the zkn variant uses the dedicated instructions and
runs on the full Zkn-Zkt configuration; the rv32i variant is the classic
software formulation (T-table AES, shift/xor SHA-2, table-lookup S-box).
The synthetic kernels (alumix, shiftstorm) use the same instruction stream
in both variants; their zkn variant simply runs on the Zkn-Zkt core, which
is how a non-crypto workload experiences the constant-time contract.

Kernels are assembled programmatically and verified functionally before
any timing is reported: every builder returns the output its inputs must
produce, when bench knows it, and a cell whose output bytes differ from it
raises ChecksumMismatch. A kernel's code is assembled once per variant (see
`_build`), and a build places only its data after it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import golden, isa, system
from .cosim import fnv1a64
from .golden import AES_SBOX, AES_SBOX_INV, ArchState, MASK32
from .image import ProgramImage
from .isa import Assembler, Mnemonic as M
from .microarch import VALID_WIDTHS, CoreConfig

# the extensions each variant's cells run on
EXTS = {"rv32i": frozenset(), "zkn": isa.ZKN_ZKT}
VARIANTS = tuple(EXTS)


def _is_zkn(variant: str) -> bool:
    """Whether `variant` builds the Zkn code. A variant that EXTS does not
    name raises KeyError, before a build does any work."""
    return bool(EXTS[variant])


class ChecksumMismatch(Exception):
    def __init__(self, kernel: str, variant: str, width: int,
                 got: bytes, want: bytes):
        super().__init__(f"{kernel}/{variant}@w{width}: output "
                         f"{got.hex()} != expected {want.hex()}")


class KernelProgram(NamedTuple):
    image: ProgramImage
    out_addr: int
    out_len: int
    expected: bytes  # the output bytes; empty when bench does not know them


class BenchResult(NamedTuple):
    kernel: str
    variant: str
    width: int
    cycles: int
    instret: int
    code_size: int
    checksum: str

    def to_json_dict(self) -> dict:
        return self._asdict()


# --- AES data preparation ---------------------------------------------------

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
# (decrypt, input block) -> output block, under FIPS_KEY
_FIPS_OUT = {(False, FIPS_PT): FIPS_CT, (True, FIPS_CT): FIPS_PT}


def _aes_key_schedule(key: bytes) -> list:
    """AES-128 expansion: 44 words as 4-byte groups in FIPS byte order."""
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [AES_SBOX[b] for b in t]
            t[0] ^= rcon
            rcon = golden.xt2(rcon)
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return words


def _inv_mix_word(bts: Sequence[int]) -> list:
    b0, b1, b2, b3 = bts
    g = golden._gmul
    return [g(b0, 0xE) ^ g(b1, 0xB) ^ g(b2, 0xD) ^ g(b3, 0x9),
            g(b0, 0x9) ^ g(b1, 0xE) ^ g(b2, 0xB) ^ g(b3, 0xD),
            g(b0, 0xD) ^ g(b1, 0x9) ^ g(b2, 0xE) ^ g(b3, 0xB),
            g(b0, 0xB) ^ g(b1, 0xD) ^ g(b2, 0x9) ^ g(b3, 0xE)]


def _enc_round_key_bytes(key: bytes) -> bytes:
    return bytes(b for w in _aes_key_schedule(key) for b in w)


def _dec_round_key_bytes(key: bytes) -> bytes:
    """Equivalent-inverse-cipher keys: reversed rounds, middle ones
    through InvMixColumns."""
    ws = _aes_key_schedule(key)
    rounds = [ws[4 * r:4 * r + 4] for r in range(11)]
    out = []
    for r in range(11):
        src = rounds[10 - r]
        if 1 <= r <= 9:
            src = [_inv_mix_word(w) for w in src]
        out.extend(b for w in src for b in w)
    return bytes(out)


@functools.lru_cache(maxsize=None)
def _te0_table() -> bytes:
    # Te0[x] = MixColumns column contribution of S(x): LE bytes [2s, s, s, 3s]
    out = bytearray()
    for x in range(256):
        s = AES_SBOX[x]
        out += bytes((golden.xt2(s), s, s, golden.xt2(s) ^ s))
    return bytes(out)


@functools.lru_cache(maxsize=None)
def _td0_table() -> bytes:
    # Td0[x] = InvMixColumns contribution of InvS(x): LE bytes [Es, 9s, Ds, Bs]
    g = golden._gmul
    out = bytearray()
    for x in range(256):
        s = AES_SBOX_INV[x]
        out += bytes((g(s, 0xE), g(s, 0x9), g(s, 0xD), g(s, 0xB)))
    return bytes(out)


# --- SHA-256 constants (derived, not transcribed) ---------------------------

def _primes(n: int) -> list:
    ps = []
    c = 2
    while len(ps) < n:
        if all(c % p for p in ps):
            ps.append(c)
        c += 1
    return ps


def _icbrt(n: int) -> int:
    x = max(1, int(round(n ** (1.0 / 3.0))))
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


SHA256_IV = tuple(math.isqrt(p << 64) & MASK32 for p in _primes(8))
SHA256_K = tuple(_icbrt(p << 96) & MASK32 for p in _primes(64))


def sha256_pad(msg: bytes) -> bytes:
    bl = len(msg) * 8
    padded = msg + b"\x80" + b"\x00" * ((55 - len(msg)) % 64)
    return padded + bl.to_bytes(8, "big")


def _swap_words(b: bytes) -> bytes:
    """Reverse the bytes of each 32-bit word: SHA-2's big-endian words to
    the little-endian registers the kernel loads and stores, and back."""
    return b"".join(b[i:i + 4][::-1] for i in range(0, len(b), 4))


SHA256_ABC_BLOCK = sha256_pad(b"abc")
_ABC_OUT = _swap_words(bytes.fromhex(  # the NIST "abc" digest
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"))


# --- PRINCE S-box (reference table from the cipher specification) -----------

PRINCE_SBOX = (0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1,
               0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4)
PRINCE_INPUT = (0x76543210, 0xFEDCBA98)


def _prince_sbox_words(words: Sequence[int]) -> bytes:
    """The S-box layer over `words`, as the kernel stores it."""
    return b"".join(sum(PRINCE_SBOX[(w >> s) & 0xF] << s for s in range(0, 32, 4))
                    .to_bytes(4, "little") for w in words)


# --- kernel builders ---------------------------------------------------------

def _emit_la(a: Assembler, rd: int, label: str) -> None:
    """Load the address of `label`, which may be placed later."""
    a.emit(M.LUI, rd=rd, target=label)
    a.emit(M.ADDI, rd=rd, rs1=rd, target=label)


def _program(a: Assembler, blocks: Dict[str, bytes],
             expected: bytes = b"") -> KernelProgram:
    """Place each data block after the code under its label, then build;
    the program writes its output into the block labelled `out`."""
    for label, blob in blocks.items():
        if label == "out":
            out_addr, out_len = a.here, len(blob)
        a.label(label)
        a.data(blob)
    return KernelProgram(a.build(), out_addr, out_len, expected)


@functools.lru_cache(maxsize=None)
def _assembled(emit: Callable, args: tuple, layout: tuple) -> KernelProgram:
    a = Assembler()
    emit(a, *args)
    return _program(a, {label: bytes(size) for label, size in layout})


def _build(emit: Callable, args: tuple, blocks: Dict[str, bytes],
           expected: bytes) -> KernelProgram:
    """`emit(a, *args)` with `blocks` placed after the code by `_program`.

    The code reads its data only through labels, whose addresses depend on
    the block sizes alone, so it is assembled once per emitter, arguments
    and layout. A build splices its blocks in after that code, each padded
    to a word as `Assembler.data` pads it."""
    kp = _assembled(emit, args, tuple((k, len(v)) for k, v in blocks.items()))
    data = b"".join(blob + bytes(-len(blob) % 4) for blob in blocks.values())
    code = kp.image.data[:len(kp.image.data) - len(data)]
    return kp._replace(image=kp.image._replace(data=code + data),
                       expected=expected)


_ENC_COLSRC = [[(c + r) % 4 for r in range(4)] for c in range(4)]
_DEC_COLSRC = [[(c - r) % 4 for r in range(4)] for c in range(4)]


def _emit_byte_extract(a: Assembler, dst: int, src: int, r: int) -> None:
    if r == 0:
        a.emit(M.ANDI, rd=dst, rs1=src, imm=0xFF)
    elif r == 3:
        a.emit(M.SRLI, rd=dst, rs1=src, imm=24)
    else:
        a.emit(M.SRLI, rd=dst, rs1=src, imm=8 * r)
        a.emit(M.ANDI, rd=dst, rs1=dst, imm=0xFF)


def _emit_aes_round_zkn(a: Assembler, op: M, colsrc: list) -> None:
    for c in range(4):
        a.emit(M.LW, rd=12 + c, rs1=5, imm=4 * c)
    for c in range(4):
        for r in range(4):
            a.emit(op, rd=12 + c, rs1=12 + c, rs2=8 + colsrc[c][r], bs=r)


def _emit_aes_round_ttable(a: Assembler, colsrc: list) -> None:
    for c in range(4):
        a.emit(M.LW, rd=12 + c, rs1=5, imm=4 * c)
        for r in range(4):
            _emit_byte_extract(a, 7, 8 + colsrc[c][r], r)
            a.emit(M.SLLI, rd=7, rs1=7, imm=2)
            a.emit(M.ADD, rd=7, rs1=7, rs2=19)
            a.emit(M.LW, rd=7, rs1=7, imm=0)
            if r:
                a.emit(M.SLLI, rd=17, rs1=7, imm=8 * r)
                a.emit(M.SRLI, rd=7, rs1=7, imm=32 - 8 * r)
                a.emit(M.OR, rd=7, rs1=7, rs2=17)
            a.emit(M.XOR, rd=12 + c, rs1=12 + c, rs2=7)


def _emit_aes_final_rv32i(a: Assembler, colsrc: list, decrypt: bool) -> None:
    for c in range(4):                           # no column mix
        a.emit(M.LW, rd=18, rs1=5, imm=4 * c)
        a.emit(M.ADDI, rd=12 + c, rs1=0, imm=0)
        for r in range(4):
            _emit_byte_extract(a, 7, 8 + colsrc[c][r], r)
            if decrypt:
                a.emit(M.ADD, rd=7, rs1=7, rs2=20)
                a.emit(M.LBU, rd=7, rs1=7, imm=0)
            else:
                a.emit(M.SLLI, rd=7, rs1=7, imm=2)
                a.emit(M.ADD, rd=7, rs1=7, rs2=19)
                a.emit(M.LW, rd=7, rs1=7, imm=0)
                a.emit(M.SRLI, rd=7, rs1=7, imm=8)
                a.emit(M.ANDI, rd=7, rs1=7, imm=0xFF)
            if r:
                a.emit(M.SLLI, rd=7, rs1=7, imm=8 * r)
            a.emit(M.OR, rd=12 + c, rs1=12 + c, rs2=7)
        a.emit(M.XOR, rd=12 + c, rs1=12 + c, rs2=18)


def _emit_aes(a: Assembler, decrypt: bool, zkn: bool) -> None:
    # data layout: [round keys 176][input block 16][out 16][rv32i tables]
    colsrc = _DEC_COLSRC if decrypt else _ENC_COLSRC
    _emit_la(a, 6, "data")
    a.emit(M.ADDI, rd=5, rs1=6, imm=0)          # round-key walker
    if not zkn:
        a.emit(M.ADDI, rd=19, rs1=6, imm=208)    # T-table base
        if decrypt:
            _emit_la(a, 20, "inv_sbox")
    for c in range(4):                           # state <- input block
        a.emit(M.LW, rd=8 + c, rs1=6, imm=176 + 4 * c)
    for c in range(4):                           # whitening
        a.emit(M.LW, rd=7, rs1=5, imm=4 * c)
        a.emit(M.XOR, rd=8 + c, rs1=8 + c, rs2=7)
    a.emit(M.ADDI, rd=5, rs1=5, imm=16)
    a.emit(M.ADDI, rd=16, rs1=0, imm=9)          # middle-round counter
    a.label("round")
    if zkn:
        _emit_aes_round_zkn(a, M.AES32DSMI if decrypt else M.AES32ESMI, colsrc)
    else:
        _emit_aes_round_ttable(a, colsrc)
    for c in range(4):
        a.emit(M.ADD, rd=8 + c, rs1=12 + c, rs2=0)
    a.emit(M.ADDI, rd=5, rs1=5, imm=16)
    a.emit(M.ADDI, rd=16, rs1=16, imm=-1)
    a.emit(M.BNE, rs1=16, rs2=0, target="round")
    if zkn:                                      # final round
        _emit_aes_round_zkn(a, M.AES32DSI if decrypt else M.AES32ESI, colsrc)
    else:
        _emit_aes_final_rv32i(a, colsrc, decrypt)
    for c in range(4):
        a.emit(M.SW, rs1=6, rs2=12 + c, imm=192 + 4 * c)
    a.emit(M.EBREAK)


def build_aes128(variant: str, decrypt: bool = False,
                 key: bytes = FIPS_KEY, block: Optional[bytes] = None) -> KernelProgram:
    zkn = _is_zkn(variant)
    if block is None:
        block = FIPS_CT if decrypt else FIPS_PT
    if len(key) != 16 or len(block) != 16:
        raise ValueError("AES-128 takes a 16-byte key and a 16-byte block, "
                         f"not {len(key)} and {len(block)} bytes")
    rk = _dec_round_key_bytes(key) if decrypt else _enc_round_key_bytes(key)
    blocks = {"data": rk + block, "out": bytes(16)}
    if not zkn:
        blocks["ttable"] = _td0_table() if decrypt else _te0_table()
        if decrypt:
            blocks["inv_sbox"] = AES_SBOX_INV
    expected = _FIPS_OUT.get((decrypt, block), b"") if key == FIPS_KEY else b""
    return _build(_emit_aes, (decrypt, zkn), blocks, expected)


# --- SHA-256 single-block compression ---------------------------------------

def _emit_ror_rv32i(a: Assembler, dst: int, src: int, n: int, tmp: int) -> None:
    a.emit(M.SRLI, rd=dst, rs1=src, imm=n)
    a.emit(M.SLLI, rd=tmp, rs1=src, imm=32 - n)
    a.emit(M.OR, rd=dst, rs1=dst, rs2=tmp)


def _emit_sha256(a: Assembler, zkn: bool) -> None:
    # data layout: [IV 32][K 256][block 64][out 32]
    iv_off, k_off, blk_off, out_off = 0, 32, 288, 352
    _emit_la(a, 6, "data")
    for i in range(8):
        a.emit(M.LW, rd=8 + i, rs1=6, imm=iv_off + 4 * i)
    for i in range(16):
        a.emit(M.LW, rd=16 + i, rs1=6, imm=blk_off + 4 * i)

    def reg(role: int, t: int) -> int:
        # role 0..7 = a..h; registers rotate instead of the data
        return 8 + (role - t) % 8

    for t in range(64):
        if t >= 16:
            # W[t%16] += sigma1(W[t-2]) + W[t-7] + sigma0(W[t-15])
            w = lambda k: 16 + (t - k) % 16
            if zkn:
                a.emit(M.SHA256SIG1, rd=1, rs1=w(2))
            else:
                _emit_ror_rv32i(a, 1, w(2), 17, 2)
                _emit_ror_rv32i(a, 2, w(2), 19, 4)
                a.emit(M.XOR, rd=1, rs1=1, rs2=2)
                a.emit(M.SRLI, rd=2, rs1=w(2), imm=10)
                a.emit(M.XOR, rd=1, rs1=1, rs2=2)
            a.emit(M.ADD, rd=1, rs1=1, rs2=w(7))
            if zkn:
                a.emit(M.SHA256SIG0, rd=2, rs1=w(15))
            else:
                _emit_ror_rv32i(a, 2, w(15), 7, 4)
                _emit_ror_rv32i(a, 4, w(15), 18, 7)
                a.emit(M.XOR, rd=2, rs1=2, rs2=4)
                a.emit(M.SRLI, rd=4, rs1=w(15), imm=3)
                a.emit(M.XOR, rd=2, rs1=2, rs2=4)
            a.emit(M.ADD, rd=1, rs1=1, rs2=2)
            a.emit(M.ADD, rd=w(16), rs1=w(16), rs2=1)
        e, f, g, h = reg(4, t), reg(5, t), reg(6, t), reg(7, t)
        aa, b, c, d = reg(0, t), reg(1, t), reg(2, t), reg(3, t)
        # t1 = h + Sum1(e) + Ch(e,f,g) + K[t] + W[t]
        if zkn:
            a.emit(M.SHA256SUM1, rd=7, rs1=e)
        else:
            _emit_ror_rv32i(a, 7, e, 6, 1)
            _emit_ror_rv32i(a, 1, e, 11, 2)
            a.emit(M.XOR, rd=7, rs1=7, rs2=1)
            _emit_ror_rv32i(a, 1, e, 25, 2)
            a.emit(M.XOR, rd=7, rs1=7, rs2=1)
        a.emit(M.ADD, rd=7, rs1=7, rs2=h)
        a.emit(M.LW, rd=1, rs1=6, imm=k_off + 4 * t)
        a.emit(M.ADD, rd=7, rs1=7, rs2=1)
        a.emit(M.ADD, rd=7, rs1=7, rs2=16 + t % 16)
        a.emit(M.AND, rd=1, rs1=e, rs2=f)
        if zkn:
            a.emit(M.ANDN, rd=2, rs1=g, rs2=e)
        else:
            a.emit(M.XORI, rd=2, rs1=e, imm=-1)
            a.emit(M.AND, rd=2, rs1=2, rs2=g)
        a.emit(M.XOR, rd=1, rs1=1, rs2=2)
        a.emit(M.ADD, rd=7, rs1=7, rs2=1)
        # t2 = Sum0(a) + Maj(a,b,c)
        if zkn:
            a.emit(M.SHA256SUM0, rd=1, rs1=aa)
        else:
            _emit_ror_rv32i(a, 1, aa, 2, 2)
            _emit_ror_rv32i(a, 2, aa, 13, 4)
            a.emit(M.XOR, rd=1, rs1=1, rs2=2)
            _emit_ror_rv32i(a, 2, aa, 22, 4)
            a.emit(M.XOR, rd=1, rs1=1, rs2=2)
        a.emit(M.AND, rd=2, rs1=aa, rs2=b)
        a.emit(M.AND, rd=4, rs1=aa, rs2=c)
        a.emit(M.XOR, rd=2, rs1=2, rs2=4)
        a.emit(M.AND, rd=4, rs1=b, rs2=c)
        a.emit(M.XOR, rd=2, rs1=2, rs2=4)
        a.emit(M.ADD, rd=1, rs1=1, rs2=2)
        # rotate roles: d += t1 (new e); h = t1 + t2 (new a)
        a.emit(M.ADD, rd=d, rs1=d, rs2=7)
        a.emit(M.ADD, rd=h, rs1=7, rs2=1)
    for i in range(8):
        a.emit(M.LW, rd=1, rs1=6, imm=iv_off + 4 * i)
        a.emit(M.ADD, rd=8 + i, rs1=8 + i, rs2=1)
        a.emit(M.SW, rs1=6, rs2=8 + i, imm=out_off + 4 * i)
    a.emit(M.EBREAK)


def build_sha256(variant: str, block: bytes = SHA256_ABC_BLOCK) -> KernelProgram:
    """Compress one block from the IV; the output is the digest words in
    register byte order (`_swap_words` gives the digest)."""
    zkn = _is_zkn(variant)
    if len(block) != 64:
        raise ValueError(f"SHA-256 compresses a 64-byte block, not {len(block)} bytes")
    data = b"".join(v.to_bytes(4, "little") for v in SHA256_IV)
    data += b"".join(v.to_bytes(4, "little") for v in SHA256_K)
    data += _swap_words(block)  # plain lw reads give the schedule words
    expected = _ABC_OUT if block == SHA256_ABC_BLOCK else b""
    return _build(_emit_sha256, (zkn,),
                  {"data": data, "out": bytes(32)}, expected)


# --- PRINCE S-box layer -------------------------------------------------------

def _emit_prince_zkn(a: Assembler) -> None:
    lo = sum(PRINCE_SBOX[i] << (4 * i) for i in range(8))
    hi = sum(PRINCE_SBOX[8 + i] << (4 * i) for i in range(8))
    a.li(5, lo)
    a.li(7, hi)
    a.li(17, 0x88888888)
    _emit_la(a, 6, "data")
    for i in range(2):
        a.emit(M.LW, rd=8 + i, rs1=6, imm=4 * i)
        a.emit(M.XPERM4, rd=12 + i, rs1=5, rs2=8 + i)
        a.emit(M.XOR, rd=1, rs1=8 + i, rs2=17)
        a.emit(M.XPERM4, rd=2, rs1=7, rs2=1)
        a.emit(M.OR, rd=12 + i, rs1=12 + i, rs2=2)
        a.emit(M.SW, rs1=6, rs2=12 + i, imm=8 + 4 * i)
    a.emit(M.EBREAK)


def _emit_prince_rv32i(a: Assembler) -> None:
    _emit_la(a, 6, "data")
    a.emit(M.ADDI, rd=5, rs1=6, imm=16)          # table base
    for i in range(2):
        a.emit(M.LW, rd=8 + i, rs1=6, imm=4 * i)
        a.emit(M.ADDI, rd=12 + i, rs1=0, imm=0)
        for nib in range(8):
            if nib:
                a.emit(M.SRLI, rd=7, rs1=8 + i, imm=4 * nib)
                a.emit(M.ANDI, rd=7, rs1=7, imm=0xF)
            else:
                a.emit(M.ANDI, rd=7, rs1=8 + i, imm=0xF)
            a.emit(M.ADD, rd=7, rs1=7, rs2=5)
            a.emit(M.LBU, rd=7, rs1=7, imm=0)
            if nib:
                a.emit(M.SLLI, rd=7, rs1=7, imm=4 * nib)
            a.emit(M.OR, rd=12 + i, rs1=12 + i, rs2=7)
        a.emit(M.SW, rs1=6, rs2=12 + i, imm=8 + 4 * i)
    a.emit(M.EBREAK)


def build_prince_sbox(variant: str,
                      words: Sequence[int] = PRINCE_INPUT) -> KernelProgram:
    emit = _emit_prince_zkn if _is_zkn(variant) else _emit_prince_rv32i
    if len(words) != 2:
        raise ValueError(f"the PRINCE S-box layer takes 2 words, not {len(words)}")
    return _build(emit, (), {"data": b"".join(w.to_bytes(4, "little") for w in words),
                              "out": bytes(8),
                              "sbox": bytes(PRINCE_SBOX)},  # read by rv32i only
                  _prince_sbox_words(words))


# --- synthetic kernels --------------------------------------------------------

@functools.lru_cache(maxsize=None)  # no inputs, so one build per variant
def build_alumix(variant: str) -> KernelProgram:
    _is_zkn(variant)  # one program for both variants; an unknown one caches nothing
    a = Assembler()
    _emit_la(a, 6, "out")
    mirror = [0] * 8
    for i in range(8):
        mirror[i] = (0x9E3779B9 * (i + 1)) & MASK32
        a.li(8 + i, mirror[i])
    ops = (M.ADD, M.XOR, M.SUB, M.OR, M.AND, M.SLT)
    for i in range(256):
        op = ops[i % 6]
        d, s1, s2 = i % 8, (i + 3) % 8, (i + 5) % 8
        a.emit(op, rd=8 + d, rs1=8 + s1, rs2=8 + s2)
        x, y = mirror[s1], mirror[s2]
        if op is M.ADD:
            mirror[d] = (x + y) & MASK32
        elif op is M.XOR:
            mirror[d] = x ^ y
        elif op is M.SUB:
            mirror[d] = (x - y) & MASK32
        elif op is M.OR:
            mirror[d] = x | y
        elif op is M.AND:
            mirror[d] = x & y
        else:
            sx = x - (1 << 32) if x >> 31 else x
            sy = y - (1 << 32) if y >> 31 else y
            mirror[d] = 1 if sx < sy else 0
    for i in range(8):
        a.emit(M.SW, rs1=6, rs2=8 + i, imm=4 * i)
    a.emit(M.EBREAK)
    return _program(a, {"out": bytes(32)},
                    b"".join(v.to_bytes(4, "little") for v in mirror))


@functools.lru_cache(maxsize=None)
def build_shiftstorm(variant: str) -> KernelProgram:
    _is_zkn(variant)  # one program for both variants; an unknown one caches nothing
    acc, src = 0xDEADBEEF, 0x0BADF00D
    a = Assembler()
    _emit_la(a, 6, "out")
    a.li(8, acc)
    a.li(9, src)

    def sra(x, n):
        return ((x | 0xFFFFFFFF00000000) >> n) & MASK32 if x >> 31 else x >> n

    for i in range(128):
        shamt = (7 * i + 1) % 32
        kind = i % 6
        if kind < 3:  # register-operand shifts
            a.emit(M.ADDI, rd=5, rs1=0, imm=shamt)
            op = (M.SLL, M.SRL, M.SRA)[kind]
            a.emit(op, rd=7, rs1=9, rs2=5)
        else:
            op = (M.SLLI, M.SRLI, M.SRAI)[kind - 3]
            a.emit(op, rd=7, rs1=9, imm=shamt)
        if kind in (0, 3):
            val = (src << shamt) & MASK32
        elif kind in (1, 4):
            val = src >> shamt
        else:
            val = sra(src, shamt)
        a.emit(M.XOR, rd=8, rs1=8, rs2=7)
        acc ^= val
        a.emit(M.ADDI, rd=9, rs1=9, imm=1)
        src = (src + 1) & MASK32
    a.emit(M.SW, rs1=6, rs2=8, imm=0)
    a.emit(M.EBREAK)
    return _program(a, {"out": bytes(4)}, acc.to_bytes(4, "little"))


# --- kernel registry ----------------------------------------------------------

class Kernel(NamedTuple):
    name: str
    build: Callable[[str], KernelProgram]   # variant -> program, default inputs
    # read by perfbench/workloads.py; bench itself reads EXTS and kp.expected
    zkn_exts = EXTS["zkn"]
    rv32i_exts = EXTS["rv32i"]

    @property
    def expected(self) -> bytes:
        """The output bytes of the default build."""
        return self.build(VARIANTS[0]).expected


KERNELS = {k.name: k for k in (
    Kernel("aes128-enc", lambda v: build_aes128(v, False)),
    Kernel("aes128-dec", lambda v: build_aes128(v, True)),
    Kernel("sha256-compress", build_sha256),
    Kernel("prince-sbox", build_prince_sbox),
    Kernel("alumix", build_alumix),
    Kernel("shiftstorm", build_shiftstorm),
)}
SUITE_ALIASES = {"aes128": "aes128-enc", "sha256": "sha256-compress",
                 "prince": "prince-sbox"}


def run_kernel(kp: KernelProgram,
               config: CoreConfig) -> Tuple[system.ExecStats, bytes]:
    """Run one kernel cell and return (stats, output bytes)."""
    state = ArchState.from_image(kp.image)
    stats = system.run(kp.image, config, state=state)
    return stats, state.mem.read_bytes(kp.out_addr, kp.out_len)


def resolve_suite(kernel_names: Optional[Sequence[str]] = None,
                  variants: Sequence[str] = VARIANTS) -> Tuple[dict, dict]:
    """The kernels and variants a suite run covers, each once, as
    ({kernel name: Kernel}, {variant: extensions}). An alias and its kernel,
    or a name given twice, count once. Raises KeyError, its one argument
    the message, for the first unknown variant (an ext preset, as the CLI
    calls it), then for the first unknown kernel."""
    for v in variants:
        if v not in EXTS:
            raise KeyError(f"unknown preset {v!r}")
    names = dict.fromkeys(SUITE_ALIASES.get(n, n) for n in kernel_names or KERNELS)
    for n in names:
        if n not in KERNELS:
            raise KeyError(f"unknown kernel {n!r}")
    return {n: KERNELS[n] for n in names}, {v: EXTS[v] for v in variants}


def run_suite(kernel_names: Optional[Sequence[str]] = None,
              widths: Sequence[int] = VALID_WIDTHS,
              variants: Sequence[str] = VARIANTS) -> Tuple[list, dict]:
    """Run the benchmark matrix; returns (results, derived metrics).

    Every name is looked up before any cell runs (`resolve_suite`).
    Raises ChecksumMismatch for a cell whose output is not its program's
    expected one, and so for every cell of a program that expects nothing.
    """
    kernels, exts = resolve_suite(kernel_names, variants)
    results = []
    for name, kernel in kernels.items():
        for variant, ext_set in exts.items():
            kp = kernel.build(variant)
            for w in widths:
                config = CoreConfig(serial_width=w, extensions=ext_set)
                stats, out = run_kernel(kp, config)
                if out != kp.expected:
                    raise ChecksumMismatch(name, variant, w, out, kp.expected)
                results.append(BenchResult(
                    kernel=name, variant=variant, width=w,
                    cycles=stats.cycles, instret=stats.instret,
                    code_size=kp.image.code_size,
                    checksum=f"{fnv1a64(out):016x}"))
    results.sort(key=lambda r: (r.kernel, r.variant, r.width))
    return results, derive_metrics(results)


def derive_metrics(results: Sequence[BenchResult]) -> dict:
    """Speedups, cross-width ratios and code-size reduction."""
    by_cell = {(r.kernel, r.variant, r.width): r for r in results}
    kernels_seen = sorted({r.kernel for r in results})
    widths_seen = sorted({r.width for r in results})
    metrics: dict = {"speedup_zkn": {}, "cross_width": {},
                     "code_size_reduction_pct": {}}
    for k in kernels_seen:
        sp = {}
        for w in widths_seen:
            a = by_cell.get((k, "rv32i", w))
            b = by_cell.get((k, "zkn", w))
            if a and b:
                sp[w] = round(a.cycles / b.cycles, 3)
        if sp:
            metrics["speedup_zkn"][k] = sp
        a = by_cell.get((k, "rv32i", widths_seen[0]))
        b = by_cell.get((k, "zkn", widths_seen[0]))
        if a and b and a.code_size:
            metrics["code_size_reduction_pct"][k] = round(
                100.0 * (1 - b.code_size / a.code_size), 2)
        cw = {}
        for variant in VARIANTS:
            pairs = {}
            for w in widths_seen:
                lo = by_cell.get((k, variant, w))
                hi = by_cell.get((k, variant, 2 * w))
                if lo and hi:
                    pairs[f"{w}->{2*w}"] = round(lo.cycles / hi.cycles, 3)
            if pairs:
                cw[variant] = pairs
        if cw:
            metrics["cross_width"][k] = cw
    return metrics
