import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import callprofile
import mutants
import oracles
from serialrv import cosim, golden, isa
from serialrv.golden import ArchState, Memory
from serialrv.isa import Assembler, Ext, Mnemonic as M, instr
from serialrv.microarch import CoreConfig

words = st.integers(min_value=0, max_value=0xFFFFFFFF)


def fresh_state(pc=0x1000):
    return ArchState(pc=pc)


def run_one(i, regs=None, pc=0x1000, exts=isa.ZKN):
    st_ = fresh_state(pc)
    if regs:
        for r, v in regs.items():
            st_.regs[r] = v & 0xFFFFFFFF
    st_.mem.store(pc, 4, i.raw)
    out = golden.step(st_, exts)
    return st_, out


# --- step basics -------------------------------------------------------------

def test_addi_from_reset():
    s, out = run_one(instr(M.ADDI, rd=1, rs1=0, imm=5))
    assert not out.halted and s.regs[1] == 5 and s.pc == 0x1004


def test_x0_stays_zero():
    s, out = run_one(instr(M.ADDI, rd=0, rs1=0, imm=123))
    assert s.regs[0] == 0


def test_ebreak_halts():
    _, out = run_one(instr(M.EBREAK))
    assert out == golden.StepOutcome(True, golden.EBREAK)


def test_ecall_halts_with_distinct_reason():
    _, out = run_one(instr(M.ECALL))
    assert out.reason == golden.ECALL


def test_misaligned_fetch():
    s = fresh_state(pc=0x1002)
    assert golden.step(s).reason == golden.MISALIGNED_FETCH


def test_misaligned_load_halts():
    _, out = run_one(instr(M.LH, rd=1, rs1=0, imm=0x201))
    assert out.reason == golden.MISALIGNED_ACCESS


@pytest.mark.parametrize("m,offset", [(M.SH, 1), (M.SW, 2)])
def test_misaligned_store_halts_and_writes_nothing(m, offset):
    s, out = run_one(instr(m, rs1=1, rs2=2, imm=offset),
                     regs={1: 0x200, 2: 0xDEADBEEF})
    assert out == golden.StepOutcome(True, golden.MISALIGNED_ACCESS)
    assert s.mem.read_bytes(0x200, 8) == bytes(8) and s.pc == 0x1000


@pytest.mark.parametrize("ins,target", [
    (instr(M.JAL, rd=1, imm=6), 0x1006),
    (instr(M.JALR, rd=1, rs1=2, imm=2), 0x2002),
])
def test_jump_to_a_half_word_target_links_then_halts(ins, target):
    """The jump retires, writing rd and pc; the next step's fetch from the
    target is what traps, and it changes nothing."""
    s, out = run_one(ins, regs={2: 0x2000})
    assert out is golden.RETIRED
    assert (s.regs[1], s.pc) == (0x1004, target)
    regs = s.regs[:]
    assert golden.step(s) is golden.HALT[golden.MISALIGNED_FETCH]
    assert (s.regs, s.pc) == (regs, target)


def test_illegal_word_halts():
    s = fresh_state()
    s.mem.store(0x1000, 4, 0)
    assert golden.step(s).reason == golden.ILLEGAL


# a rotate of each form and one mnemonic of each other gated family
_GATED = (M.ROL, M.ROR, M.RORI, M.PACK, M.CLMUL, M.XPERM8, M.AES32ESI,
          M.AES32DSMI, M.SHA256SIG0, M.SHA512SUM0R)


@pytest.mark.parametrize("m", _GATED, ids=lambda m: m.value)
def test_disabled_extension_is_illegal(m):
    """Without its extension a gated mnemonic halts illegal and writes
    nothing; with only its own subset it retires."""
    i = instr(m, rd=1, rs1=2, rs2=3, imm=5, bs=1)
    regs = {2: 0x80000001, 3: 13}
    s, out = run_one(i, regs, exts=frozenset())
    assert out.halted and out.reason == golden.ILLEGAL
    assert s.pc == 0x1000 and s.regs == [0, 0, 0x80000001, 13] + [0] * 28
    s, out = run_one(i, regs, exts=frozenset({isa.EXT_OF[m]}))
    assert not out.halted and s.pc == 0x1004


def test_fence_is_noop():
    s, out = run_one(instr(M.FENCE))
    assert not out.halted and s.pc == 0x1004


def test_branch_taken_and_not():
    i = instr(M.BEQ, rs1=1, rs2=2, imm=16)
    s, _ = run_one(i, regs={1: 7, 2: 7})
    assert s.pc == 0x1010
    s, _ = run_one(i, regs={1: 7, 2: 8})
    assert s.pc == 0x1004


def test_jalr_clears_bit0():
    s, _ = run_one(instr(M.JALR, rd=1, rs1=2, imm=1), regs={2: 0x2000})
    assert s.pc == 0x2000 and s.regs[1] == 0x1004


def test_sign_extended_loads():
    s = fresh_state()
    s.mem.store(0x1000, 4, instr(M.LB, rd=1, rs1=0, imm=0x200).raw)
    s.mem.store(0x200, 1, 0x80)
    golden.step(s)
    assert s.regs[1] == 0xFFFFFF80


def test_store_byte_preserves_neighbors():
    s = fresh_state()
    s.mem.store(0x200, 4, 0x11223344)
    s.regs[2] = 0xAA
    s.mem.store(0x1000, 4, instr(M.SB, rs1=0, rs2=2, imm=0x201).raw)
    golden.step(s)
    assert s.mem.load(0x200, 4) == 0x1122AA44


# --- MMIO ---------------------------------------------------------------------

def test_console_mmio():
    s = fresh_state()
    s.regs[1] = golden.CONSOLE_ADDR
    s.regs[2] = 0x48  # 'H'
    s.mem.store(0x1000, 4, instr(M.SW, rs1=1, rs2=2, imm=0).raw)
    golden.step(s)
    assert bytes(s.mem.console) == b"H"
    assert s.mem.load(golden.CONSOLE_ADDR, 4) == 0


def test_exit_mmio():
    s = fresh_state()
    s.regs[1] = golden.EXIT_ADDR
    s.regs[2] = 42
    s.mem.store(0x1000, 4, instr(M.SW, rs1=1, rs2=2, imm=0).raw)
    golden.step(s)
    assert s.mem.exit_code == 42


@pytest.mark.parametrize("m,want", [
    (M.SB, 0x03), (M.SH, 0x5603), (M.SW, 0x12345603)])
def test_exit_mmio_takes_the_stored_bytes(m, want):
    """The exit store halts its own step with the ecall outcome, pc left
    on it, and its stored bytes become the exit code."""
    s = fresh_state()
    s.regs[1] = golden.EXIT_ADDR
    s.regs[2] = 0x12345603
    s.mem.store(0x1000, 4, instr(m, rs1=1, rs2=2, imm=0).raw)
    assert golden.step(s) is golden.HALT[golden.ECALL]
    assert s.pc == 0x1000
    assert s.mem.exit_code == want
    assert s.mem.load(golden.EXIT_ADDR, 4) == 0


@pytest.mark.parametrize("size", (1, 2, 4))
def test_console_mmio_appends_the_low_byte(size):
    mem = Memory()
    mem.store(golden.CONSOLE_ADDR, size, 0x12345648)
    mem.store(golden.CONSOLE_ADDR, size, 0x69)
    assert bytes(mem.console) == b"Hi"
    assert mem.load(golden.CONSOLE_ADDR, 4) == 0
    assert mem.sparse == {} and mem.exit_code is None


# --- the memory port ----------------------------------------------------------

# addresses near the two edges of the dense window (the low edge is also
# the 2^32 wrap) and deep in the sparse range
_EDGES = (0, golden.WINDOW_SIZE, 0x80000000)
addresses = st.builds(lambda e, d: (e + d) & 0xFFFFFFFF,
                      st.sampled_from(_EDGES), st.integers(-5, 5))
sizes = st.sampled_from((1, 2, 4))


def _check_against_a_byte_dict(ops):
    """Run `ops`, each (store size, address, value, load size, address),
    on a fresh Memory and on a dict of bytes, asserting after every store
    that both loads return what the dict holds, and at the end that each
    byte sits where the one layout puts it: in the window below
    WINDOW_SIZE, else in `sparse`."""
    mem, model = Memory(), {}

    def expect(addr, size):
        return sum(model.get((addr + i) & 0xFFFFFFFF, 0) << 8 * i
                   for i in range(size))

    for size, addr, value, load_size, load_addr in ops:
        mem.store(addr, size, value)
        for i in range(size):
            model[(addr + i) & 0xFFFFFFFF] = (value >> 8 * i) & 0xFF
        assert mem.load(addr, size) == expect(addr, size)
        assert mem.load(load_addr, load_size) == expect(load_addr, load_size)
    for a, b in model.items():
        assert (mem.buf[a] if a < golden.WINDOW_SIZE else mem.sparse[a]) == b
    assert not any(a < golden.WINDOW_SIZE for a in mem.sparse)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(sizes, addresses, words, sizes, addresses), max_size=30))
def test_load_store_match_a_byte_dict(ops):
    """Each byte of an access is placed by one rule, whatever the access
    size and wherever it starts, so every load returns what stores left."""
    _check_against_a_byte_dict(ops)


@pytest.mark.parametrize("addr", (0x2000, 0x80000000), ids=["window", "sparse"])
def test_byte_dict_check_kills_the_big_endian_half_store(addr):
    """A half-word stored big-endian through the one memory port fails the
    byte-dict check, in the window and in the sparse bytes. Both models
    store through that port, so a cosim cell that retires an `sh` still
    passes under the fault: a gap that only a reference with its own
    memory closes."""
    ops = [(2, addr, 0x1234, 2, addr)]
    _check_against_a_byte_dict(ops)
    with mutants.big_endian_half_store():
        with pytest.raises(AssertionError):
            _check_against_a_byte_dict(ops)

    tc = cosim.TortureConfig(seed=0)
    config = CoreConfig.zkn_zkt(4)
    with mutants.big_endian_half_store():
        trace = cosim.torture_trace(tc, config.extensions)
        report = cosim.lockstep(trace, config, tc.seed)
    image = trace.image
    pcs = [image.entry] + [pc for pc, *_ in trace.steps[:-1]]
    ran = {isa.decode(int.from_bytes(image.data[pc - image.base:][:4], "little"))
           .mnemonic for pc in pcs}
    assert M.SH in ran and report.passed


def test_word_across_the_wrap():
    mem = Memory()
    mem.store(0xFFFFFFFE, 4, 0x44332211)
    assert mem.load(0xFFFFFFFE, 4) == 0x44332211
    assert mem.buf[:2] == b"\x33\x44"
    assert mem.sparse == {0xFFFFFFFE: 0x11, 0xFFFFFFFF: 0x22}
    assert mem.read_bytes(0xFFFFFFFE, 4) == bytes.fromhex("11223344")


def test_word_outside_the_window_is_read_in_one_load_call():
    """Two sparse bytes below the wrap, then two window bytes at 0: the
    word a byte dict gives, read without a call per byte."""
    mem, model = Memory(), {0xFFFFFFFE: 0x11, 0xFFFFFFFF: 0x22, 0: 0x33, 1: 0x44}
    for a, b in model.items():
        mem.store(a, 1, b)
    calls = []
    port = mem.load
    mem.load = lambda addr, size: calls.append((addr, size)) or port(addr, size)
    want = sum(model.get((0xFFFFFFFE + i) & 0xFFFFFFFF, 0) << 8 * i for i in range(4))
    assert mem.load(0xFFFFFFFE, 4) == want == 0x44332211
    assert calls == [(0xFFFFFFFE, 4)]


@pytest.mark.parametrize("size", (1, 2, 4))
def test_mmio_is_matched_before_a_window_that_covers_it(size):
    """MMIO is matched before memory: a store to either MMIO word reaches
    the console or the exit code and neither the window's bytes nor the
    sparse ones; the word after them is plain sparse memory."""
    mem = Memory()
    mem.store(golden.CONSOLE_ADDR, size, 0x41)
    mem.store(golden.EXIT_ADDR, size, 7)
    assert bytes(mem.console) == b"A" and mem.exit_code == 7
    assert not any(mem.buf) and mem.sparse == {}
    assert mem.load(golden.CONSOLE_ADDR, 4) == mem.load(golden.EXIT_ADDR, 4) == 0
    mem.store(golden.EXIT_ADDR + 4, size, 0x5A)
    assert mem.sparse == {golden.EXIT_ADDR + 4 + i: 0x5A if i == 0 else 0
                          for i in range(size)}
    assert mem.load(golden.EXIT_ADDR + 4, size) == 0x5A
    assert bytes(mem.console) == b"A" and mem.exit_code == 7
    assert not any(mem.buf)


# --- the oracles' independence -------------------------------------------------

def test_oracles_import_nothing_from_the_simulator():
    """oracles.py checks the simulator, so it may not import any of it."""
    path = pathlib.Path(oracles.__file__)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "serialrv", \
                f"{path.name}:{node.lineno} imports {name}"


# --- AES primitives ------------------------------------------------------------

def test_sbox_known_values():
    assert golden.AES_SBOX[0x00] == 0x63
    assert golden.AES_SBOX_INV[0x63] == 0x00


def test_sbox_matches_algebraic_oracle():
    for x in range(256):
        assert golden.AES_SBOX[x] == oracles.aes_sbox_algebraic(x)


def test_sbox_bijection():
    for b in range(256):
        assert golden.AES_SBOX_INV[golden.AES_SBOX[b]] == b


def test_xt2():
    assert golden.xt2(0x00) == 0x00
    assert golden.xt2(0x80) == 0x1B
    assert golden.xt2(0x01) == 0x02
    assert golden.xt2(0x57) == 0xAE  # FIPS-197 multiplication example


def test_aes32esi_zero():
    assert golden.aes32_semantics(M.AES32ESI, 0, 0, 0) == 0x63


def test_aes32esmi_zero():
    # forward mix of sbox(0)=0x63: [2*63, 63, 63, 3*63]
    s = 0x63
    want = golden.xt2(s) | (s << 8) | (s << 16) | ((golden.xt2(s) ^ s) << 24)
    assert golden.aes32_semantics(M.AES32ESMI, 0, 0, 0) == want


@given(words, words, st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_aes32_rotation_consistency(rs1, rs2, bs):
    # byte-select plus rotate: result with bs equals the bs=0 result of the
    # byte-rotated inputs
    rot = lambda x, n: ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF if n else x
    for m in (M.AES32ESI, M.AES32ESMI, M.AES32DSI, M.AES32DSMI):
        direct = golden.aes32_semantics(m, rs1, rs2, bs)
        base = golden.aes32_semantics(m, 0, (rs2 >> (8 * bs)) & 0xFF, 0)
        assert direct == (rs1 ^ rot(base, 8 * bs)) & 0xFFFFFFFF


# --- SHA-2 primitives -----------------------------------------------------------

def test_sha2_semantics_rejects_other_mnemonics():
    with pytest.raises(ValueError, match="not a Zknh mnemonic"):
        golden.sha2_semantics(M.ADD, 1, 2)


def test_sha256_fixed_points():
    assert golden.sha2_semantics(M.SHA256SIG0, 0) == 0
    assert golden.sha2_semantics(M.SHA256SUM0, 0xFFFFFFFF) == 0xFFFFFFFF


def test_sha256_sigma_formulas():
    ror = lambda x, n: ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF
    x = 0x12345678
    assert golden.sha2_semantics(M.SHA256SIG0, x) == \
        ror(x, 7) ^ ror(x, 18) ^ (x >> 3)
    assert golden.sha2_semantics(M.SHA256SUM1, x) == \
        ror(x, 6) ^ ror(x, 11) ^ ror(x, 25)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=300, deadline=None)
def test_sha512_halves_compose(x64):
    """The paired 32-bit instructions must compose to the 64-bit transforms."""
    lo, hi = x64 & 0xFFFFFFFF, x64 >> 32
    sem = golden.sha2_semantics

    sig0 = (sem(M.SHA512SIG0H, hi, lo) << 32) | sem(M.SHA512SIG0L, lo, hi)
    assert sig0 == oracles.sha512_sigma0(x64)
    sig1 = (sem(M.SHA512SIG1H, hi, lo) << 32) | sem(M.SHA512SIG1L, lo, hi)
    assert sig1 == oracles.sha512_sigma1(x64)
    sum0 = (sem(M.SHA512SUM0R, hi, lo) << 32) | sem(M.SHA512SUM0R, lo, hi)
    assert sum0 == oracles.sha512_sum0(x64)
    sum1 = (sem(M.SHA512SUM1R, hi, lo) << 32) | sem(M.SHA512SUM1R, lo, hi)
    assert sum1 == oracles.sha512_sum1(x64)


# The paired sha512* forms as halves of the 64-bit functions: the H and L
# forms give the high and low word of (rs1 << 32 | rs2) and (rs2 << 32 | rs1);
# an R form, a function of rotations only, gives either half of either.
_SHA512_HALF = {
    M.SHA512SIG0H: (oracles.sha512_sigma0, "hi"),
    M.SHA512SIG0L: (oracles.sha512_sigma0, "lo"),
    M.SHA512SIG1H: (oracles.sha512_sigma1, "hi"),
    M.SHA512SIG1L: (oracles.sha512_sigma1, "lo"),
    M.SHA512SUM0R: (oracles.sha512_sum0, "hi"),
    M.SHA512SUM1R: (oracles.sha512_sum1, "hi"),
}
EDGE_WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _zknh_oracle(m, x, y):
    if m in _SHA512_HALF:
        fn, half = _SHA512_HALF[m]
        return fn(x << 32 | y) >> 32 if half == "hi" else fn(y << 32 | x) & 0xFFFFFFFF
    return oracles.sha2_word(m.value, x)


def test_every_zknh_mnemonic_follows_the_spec_at_the_edge_words():
    """Each of the ten Zknh mnemonics, at every pair of edge words, equals
    the spec's formula, so a swapped entry of golden's table is seen here
    and not only by cosim."""
    zknh = [m for m in M if isa.EXT_OF[m] is Ext.ZKNH]
    assert len(zknh) == 10
    wrong = sorted({m.value for m in zknh for x in EDGE_WORDS for y in EDGE_WORDS
                    if golden.sha2_semantics(m, x, y) != _zknh_oracle(m, x, y)})
    assert wrong == []


# --- clmul ------------------------------------------------------------------------

def test_clmul_trivial():
    assert golden.clmul_semantics(M.CLMUL, 0x12345678, 0) == 0
    assert golden.clmul_semantics(M.CLMUL, 0x12345678, 1) == 0x12345678
    assert golden.clmul_semantics(M.CLMULH, 0x12345678, 1) == 0


def test_clmul_against_convolution_oracle():
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        p = oracles.clmul64_convolution(a, b)
        assert golden.clmul_semantics(M.CLMUL, a, b) == p & 0xFFFFFFFF
        assert golden.clmul_semantics(M.CLMULH, a, b) == p >> 32


def test_clmul_against_shift_xor_oracle_bulk():
    rng = random.Random(12)
    for _ in range(100_000):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        p = oracles.clmul64_shift_xor(a, b)
        assert golden.clmul_semantics(M.CLMUL, a, b) == p & 0xFFFFFFFF
        assert golden.clmul_semantics(M.CLMULH, a, b) == p >> 32


# --- xperm -------------------------------------------------------------------------

def test_xperm_identity_and_out_of_range():
    x = 0xDEADBEEF
    assert golden.xperm_semantics(M.XPERM8, x, 0x03020100) == x
    assert golden.xperm_semantics(M.XPERM8, x, 0xFFFFFFFF) == 0
    assert golden.xperm_semantics(M.XPERM4, x, 0x76543210) == x
    assert golden.xperm_semantics(M.XPERM4, x, 0x88888888) == 0


def test_xperm4_nibble_reversal():
    # rs1 nibble i holds i, indices select 7-i into slot i
    got = golden.xperm_semantics(M.XPERM4, 0x76543210, 0x01234567)
    assert got == 0x01234567


@given(words, words)
@settings(max_examples=300, deadline=None)
def test_xperm8_bruteforce(rs1, rs2):
    want = 0
    for i in range(4):
        idx = (rs2 >> (8 * i)) & 0xFF
        if idx < 4:
            want |= ((rs1 >> (8 * idx)) & 0xFF) << (8 * i)
    assert golden.xperm_semantics(M.XPERM8, rs1, rs2) == want


# --- Zbkb --------------------------------------------------------------------------

def test_zbkb_semantics_rejects_other_mnemonics():
    with pytest.raises(ValueError, match="not a Zbkb mnemonic"):
        golden.zbkb_semantics(M.CLMUL, 1, 2)


def test_rev8():
    assert golden.zbkb_semantics(M.REV8, 0x11223344, 0) == 0x44332211


def test_pack_packh():
    assert golden.zbkb_semantics(M.PACK, 0xAAAA1111, 0xBBBB2222) == 0x22221111
    assert golden.zbkb_semantics(M.PACKH, 0x11, 0x22) == 0x2211


def test_ror_zero():
    assert golden.zbkb_semantics(M.ROR, 0x12345678, 0) == 0x12345678


@given(words)
@settings(max_examples=500, deadline=None)
def test_zip_unzip_inverse(x):
    z = golden.zbkb_semantics(M.ZIP, x, 0)
    assert golden.zbkb_semantics(M.UNZIP, z, 0) == x


@given(words)
@settings(max_examples=500, deadline=None)
def test_rev8_brev8_involutions(x):
    for m in (M.REV8, M.BREV8):
        assert golden.zbkb_semantics(m, golden.zbkb_semantics(m, x, 0), 0) == x


def test_zip_bit_placement():
    # low half goes to even bits, high half to odd bits
    assert golden.zbkb_semantics(M.ZIP, 0x0000FFFF, 0) == 0x55555555
    assert golden.zbkb_semantics(M.ZIP, 0xFFFF0000, 0) == 0xAAAAAAAA


@given(words, words)
@settings(max_examples=300, deadline=None)
def test_logic_with_inverted_operand(x, y):
    assert golden.zbkb_semantics(M.ANDN, x, y) == x & (~y & 0xFFFFFFFF)
    assert golden.zbkb_semantics(M.ORN, x, y) == (x | ~y) & 0xFFFFFFFF
    assert golden.zbkb_semantics(M.XNOR, x, y) == ~(x ^ y) & 0xFFFFFFFF


def test_every_zbkb_mnemonic_follows_the_spec_at_the_edge_words():
    """Each of the twelve Zbkb mnemonics, at the edge words as rs1 and at
    the edge words, every rotate amount 0-31 and each amount with bits 5-31
    set as operand 2, equals the spec's formula."""
    zbkb = [m for m in M if isa.EXT_OF[m] is Ext.ZBKB]
    assert len(zbkb) == 12
    op2s = EDGE_WORDS + tuple(range(32)) + tuple(0xFFFFFFE0 | n for n in range(32))
    wrong = sorted({m.value for m in zbkb for x in EDGE_WORDS for y in op2s
                    if golden.zbkb_semantics(m, x, y) != oracles.zbkb(m.value, x, y)})
    assert wrong == []


@pytest.mark.parametrize("semantics, ext, message", [
    (golden.zbkb_semantics, Ext.ZBKB, "not a Zbkb mnemonic"),
    (golden.sha2_semantics, Ext.ZKNH, "not a Zknh mnemonic"),
], ids=["zbkb", "zknh"])
def test_family_table_covers_exactly_its_extension(semantics, ext, message):
    """Every one of the 70 mnemonics is accepted exactly when EXT_OF puts
    it in the family's extension, and rejected with ValueError otherwise."""
    misplaced = []
    for m in M:
        try:
            semantics(m, 0x12345678, 5)
            accepted = True
        except ValueError as e:
            assert message in str(e)
            accepted = False
        if accepted != (isa.EXT_OF[m] is ext):
            misplaced.append(m.value)
    assert len(M) == 70 and misplaced == []


# --- determinism ---------------------------------------------------------------------

def test_step_determinism():
    def run():
        s = fresh_state()
        a = Assembler(base=0x1000)
        a.li(1, 0x1234)
        a.emit(M.SHA256SIG1, rd=2, rs1=1)
        a.emit(M.EBREAK)
        img = a.build()
        s.mem.load_program(img)
        while not golden.step(s).halted:
            pass
        return list(s.regs)
    assert run() == run()


# --- fetch ---------------------------------------------------------------------------

def _run_to_halt(state, exts):
    outcomes = []
    while not outcomes or not outcomes[-1].halted:
        outcomes.append(golden.step(state, exts))
    return outcomes


def test_decode_cache_cleared_between_steps(monkeypatch):
    """Clearing isa's decode cache between golden steps, as decode_cached
    does past its size limit, changes no result, and every fetch after a
    clear misses: golden reads the live cache, never a copy of it."""
    img = cosim.generate(cosim.TortureConfig(seed=3))
    want = ArchState.from_image(img)
    want_out = _run_to_halt(want, isa.ZKN)

    misses = []
    decode_cached, step = isa.decode_cached, golden.step

    def counted_decode(word):
        misses.append(word)
        return decode_cached(word)

    def step_after_clear(state, exts):
        isa._DECODE_CACHE.clear()
        return step(state, exts)

    monkeypatch.setattr(isa, "decode_cached", counted_decode)
    monkeypatch.setattr(golden, "step", step_after_clear)
    state = ArchState.from_image(img)
    assert _run_to_halt(state, isa.ZKN) == want_out
    assert (state.pc, state.regs) == (want.pc, want.regs)
    assert state.mem.buf == want.mem.buf
    assert len(misses) == len(want_out)


def test_fetch_outside_and_across_the_window_end_goes_through_load(monkeypatch):
    """Code that runs from the dense window's last two words, 0xFFF8 and
    0xFFFC, on past its end at 0x10000 into sparse memory, runs as
    written; every fetch, the in-window words' included, goes through
    Memory.load."""
    a = Assembler(base=0xFFF8)
    a.emit(M.ADDI, rd=1, rs1=0, imm=5)   # 0xfff8: in the window
    a.emit(M.ADDI, rd=2, rs1=1, imm=7)   # 0xfffc: its last word
    a.emit(M.ADDI, rd=3, rs1=2, imm=1)   # 0x10000: sparse
    a.emit(M.EBREAK)                     # 0x10004: sparse
    image = a.build()
    state = ArchState.from_image(image)
    assert state.mem.buf[-8:] == image.data[:8]
    assert sorted(state.mem.sparse) == list(range(0x10000, 0x10008))

    fetches = []
    load = Memory.load

    def counted_load(self, addr, size):
        fetches.append((addr, size))
        return load(self, addr, size)

    monkeypatch.setattr(Memory, "load", counted_load)
    outcomes = _run_to_halt(state, isa.ZKN)
    assert outcomes[-1] == golden.StepOutcome(True, golden.EBREAK)
    assert len(outcomes) == 4
    assert state.regs[1:4] == [5, 12, 13]
    assert fetches == [(0xFFF8, 4), (0xFFFC, 4), (0x10000, 4), (0x10004, 4)]


def test_decoded_in_window_step_calls_only_the_ports_and_its_handler():
    """A golden step over a word decoded before, in the dense window, goes
    through the shared ports and nothing else: it calls Memory.load, then
    execute, which calls decode_cached, then the mnemonic's _EXECUTE
    handler."""
    word = instr(M.ADD, rd=1, rs1=2, rs2=3).raw
    state = fresh_state()
    state.mem.store(0x1000, 4, word)
    state.mem.store(0x1004, 4, word)
    golden.step(state)
    codes, _ = callprofile.calls_of(golden.step, state)
    assert codes == [Memory.load.__code__, golden.execute.__code__,
                     isa.decode_cached.__code__,
                     golden._EXECUTE[M.ADD].__code__]
    assert state.pc == 0x1008


def test_misaligned_store_step_calls_only_the_ports_and_its_handler():
    """A golden step whose sw traps on a misaligned address makes the calls
    of a step that retires and no other: Memory.load, then execute, which
    calls decode_cached, then the sw handler, which returns the shared
    outcome of the trap."""
    state = fresh_state()
    state.mem.store(0x1000, 4, instr(M.SW, rs1=1, rs2=2, imm=2).raw)
    golden.step(state)
    codes, _ = callprofile.calls_of(golden.step, state)
    assert codes == [Memory.load.__code__, golden.execute.__code__,
                     isa.decode_cached.__code__,
                     golden._EXECUTE[M.SW].__code__]
    assert golden.step(state) is golden.HALT[golden.MISALIGNED_ACCESS]
    assert state.pc == 0x1000
