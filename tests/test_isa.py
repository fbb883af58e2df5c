import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import mutants
import oracles
from serialrv import isa
from serialrv.image import ProgramImage
from serialrv.isa import (Assembler, Ext, FieldRange, IllegalInstruction,
                          Instr, Mnemonic as M, UnresolvedLabel, decode,
                          disassemble, encode, instr)

# encodings pinned against the ratified base/bitmanip/crypto tables
KNOWN_WORDS = {
    0x00000013: "addi x0, x0, 0",
    0x00100093: "addi x1, x0, 1",
    0x00100073: "ebreak",
    0x00000073: "ecall",
    0x00008067: "jalr x0, 0(x1)",       # ret
    0x00208233: "add x4, x1, x2",
    0x40208233: "sub x4, x1, x2",
    0x00209233: "sll x4, x1, x2",
    0xFE209EE3: "bne x1, x2, -4",
    0x0000A203: "lw x4, 0(x1)",
    0x0020A023: "sw x2, 0(x1)",
    0x6020D213: "rori x4, x1, 2",
    0x60209233: "rol x4, x1, x2",
    0x6020D233: "ror x4, x1, x2",
    0x4020F233: "andn x4, x1, x2",
    0x4020E233: "orn x4, x1, x2",
    0x0820C233: "pack x4, x1, x2",
    0x0A209233: "clmul x4, x1, x2",
    0x2820A233: "xperm4 x4, x1, x2",
    0x6980D213: "rev8 x4, x1",
    0x6870D213: "brev8 x4, x1",
    0x08F09213: "zip x4, x1",
    0x08F0D213: "unzip x4, x1",
    0x10209213: "sha256sig0 x4, x1",
    0x10109213: "sha256sum1 x4, x1",
    0xE6220233: "aes32esmi x4, x4, x2, 3",
}


def test_known_encodings_decode():
    for word, text in KNOWN_WORDS.items():
        assert disassemble(decode(word)) == text


def test_known_encodings_round_trip():
    for word in KNOWN_WORDS:
        assert encode(decode(word)) == word


def test_all_zero_and_all_ones_are_illegal():
    with pytest.raises(IllegalInstruction):
        decode(0x00000000)
    with pytest.raises(IllegalInstruction):
        decode(0xFFFFFFFF)


def test_compressed_words_rejected():
    for low2 in (0b00, 0b01, 0b10):
        with pytest.raises(IllegalInstruction):
            decode(0x00000010 | low2)


def test_extension_partition():
    seen = {}
    for m in M:
        assert m in isa.EXT_OF
        seen.setdefault(isa.EXT_OF[m], []).append(m)
    assert Ext.ZKT not in seen  # zkt owns no mnemonics
    total = sum(len(v) for v in seen.values())
    assert total == len(list(M))


def test_zkt_coverage_flags():
    for m in M:
        if isa.EXT_OF[m] is not Ext.RV32I:
            assert m in isa.ZKT_COVERED, m
    for m in (M.SLL, M.SRAI, M.ADD, M.SUB, M.XORI, M.AND, M.LUI, M.AUIPC,
              M.SLT, M.SLTU, M.SLTI, M.SLTIU):
        assert m in isa.ZKT_COVERED
    for m in (M.BEQ, M.LW, M.SW, M.JAL, M.JALR, M.FENCE, M.EBREAK):
        assert m not in isa.ZKT_COVERED


def _operands_for(m):
    fmt = isa.ENCODINGS[m].fmt
    kw = {}
    if fmt in (isa.FMT_R, isa.FMT_R_AES):
        kw = dict(rd=3, rs1=17, rs2=29)
        if fmt == isa.FMT_R_AES:
            kw["bs"] = 2
    elif fmt == isa.FMT_I_SHAMT:
        kw = dict(rd=1, rs1=2, imm=31)
    elif fmt in (isa.FMT_I, isa.FMT_LOAD, isa.FMT_JALR):
        kw = dict(rd=1, rs1=2, imm=-2048)
    elif fmt == isa.FMT_UNARY:
        kw = dict(rd=30, rs1=31)
    elif fmt == isa.FMT_STORE:
        kw = dict(rs1=2, rs2=3, imm=2047)
    elif fmt == isa.FMT_BRANCH:
        kw = dict(rs1=4, rs2=5, imm=-4096)
    elif fmt == isa.FMT_U:
        kw = dict(rd=6, imm=0xFFFFF)
    elif fmt == isa.FMT_JAL:
        kw = dict(rd=1, imm=-(1 << 20))
    return kw


@pytest.mark.parametrize("m", list(M))
def test_builder_round_trip_every_mnemonic(m):
    i = instr(m, **_operands_for(m))
    assert decode(encode(i)) == i


def _layout_mismatches():
    """The mnemonics whose encode differs from the word that the spec's
    layout gives, or whose decode of that word does not give the operands
    back, at edge values: registers 0 and 31, both ends of each immediate
    and shift amount, and every byte select."""
    wrong = set()
    for m in M:
        ranges = oracles.operand_ranges(m.value)
        names = sorted(ranges)
        ends = [ranges[n] if n == "bs" else (ranges[n][0], ranges[n][-1])
                for n in names]
        for values in itertools.product(*ends):
            operands = dict(zip(names, values))
            word = oracles.encode(m.value, **operands)
            i = Instr(m, **operands)
            try:
                if encode(i) == word and decode(word) == i._replace(raw=word):
                    continue
            except (FieldRange, IllegalInstruction):
                pass
            wrong.add(m.value)
    return wrong


def test_encode_and_decode_follow_the_spec_layouts():
    assert set(oracles.LAYOUTS) == {m.value for m in M}
    assert _layout_mismatches() == set()


def test_swapped_funct3_is_seen_by_the_layouts_not_the_round_trip():
    """A funct3 misread that encode and decode share: the round trip
    through the one table still holds, and the spec's layouts name the
    two mnemonics."""
    with mutants.swapped_funct3(M.SLTI, M.SLTIU):
        assert _layout_mismatches() == {"slti", "sltiu"}
        for m in M:
            i = instr(m, **_operands_for(m))
            assert decode(encode(i)) == i
    assert _layout_mismatches() == set()
    assert isa._DECODE == isa._decode_table(isa.ENCODINGS)


# each format's immediate at both ends of its range; fence bits start at
# 1, since instr() reads 0 as the canonical `iorw, iorw`
_IMM_ENDS = {isa.FMT_I: (-2048, 2047), isa.FMT_LOAD: (-2048, 2047),
             isa.FMT_JALR: (-2048, 2047), isa.FMT_STORE: (-2048, 2047),
             isa.FMT_I_SHAMT: (0, 31), isa.FMT_BRANCH: (-4096, 4094),
             isa.FMT_U: (0, 0xFFFFF), isa.FMT_JAL: (-(1 << 20), (1 << 20) - 2),
             isa.FMT_FENCE: (1, 0xFFF)}


@pytest.mark.parametrize("m", list(M))
def test_emit_records_the_decode_of_every_mnemonic(m):
    """Assembler(instrs=...) records each word it emits as decode(word), on
    instr()'s canonical fields at their edges: registers 0 and 31, the
    immediate's extremes and every AES byte select."""
    fmt = isa.ENCODINGS[m].fmt
    edges = {instr(m, rd=rd, rs1=rs1, rs2=rs2, imm=imm, bs=bs)
             for rd in (0, 31) for rs1 in (0, 31) for rs2 in (0, 31)
             for imm in _IMM_ENDS.get(fmt, (0,))
             for bs in (range(4) if fmt == isa.FMT_R_AES else (None,))}
    recorded = {}
    a = Assembler(instrs=recorded)
    for i in edges:
        a.emit(m, rd=i.rd, rs1=i.rs1, rs2=i.rs2, imm=i.imm, bs=i.bs)
    assert len(recorded) == len(edges)
    for word, record in recorded.items():
        assert type(record) is Instr
        assert record == decode(word)
    assert set(recorded.values()) == edges


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=2000, deadline=None)
def test_decode_totality_and_reencode(word):
    try:
        i = decode(word)
    except IllegalInstruction:
        return
    assert encode(i) == word


def _class_words(rng):
    """One word of every class that decode tells apart. Decode picks the
    mnemonic from the opcode and funct3, then from funct7, or from all of
    imm12 under OP-IMM funct3 1 and 5, or from every bit above the opcode
    for the system words; the bits left over are register fields, drawn
    at random here."""
    def regs():  # rd, rs1 and rs2
        r = rng.getrandbits(15)
        return (r & 31) << 7 | (r >> 5 & 31) << 15 | (r >> 10) << 20

    words = [opcode | funct3 << 12 | funct7 << 25 | regs()
             for opcode in range(128) for funct3 in range(8)
             for funct7 in range(128)]
    op_imm = 0b0010011
    words += [op_imm | funct3 << 12 | imm12 << 20 | (regs() & 0xF8F80)
              for funct3 in (1, 5) for imm12 in range(4096)]
    for exact in (0x00000073, 0x00100073):  # ecall, ebreak
        words += [exact] + [exact ^ 1 << b for b in range(32)]
    return words


def _layouts_by_key():
    """The spec layouts as (mask, match, name), bucketed by the opcode and
    funct3 bits (`word & 0x707F`) of the words that each admits."""
    layouts = [(*oracles.fixed_bits(name), name) for name in oracles.LAYOUTS]
    return {key: [(mask, match, name) for mask, match, name in layouts
                  if (key ^ match) & mask & 0x707F == 0]
            for key in (opcode | funct3 << 12
                        for opcode in range(128) for funct3 in range(8))}


def test_decode_on_every_class_of_word_it_tells_apart():
    """Each class word either is illegal or re-encodes to itself, and
    together the classes decode to every mnemonic. A uniform sample, like
    acceptance 10's, almost never holds ecall, ebreak or their one-bit
    neighbours. A word is legal exactly when it matches the fixed bits of
    one of the spec's layouts, and decodes to that layout's mnemonic; a
    disagreement names the mnemonics on both sides."""
    words = _class_words(random.Random(0xC1A55))
    assert len(words) == 139_330
    layouts = _layouts_by_key()
    hit, wrong = set(), set()
    for word in words:
        named = [name for mask, match, name in layouts[word & 0x707F]
                 if word & mask == match]
        try:
            i = decode(word)
        except IllegalInstruction:
            wrong.update(named)
            continue
        assert encode(i) == word, (hex(word), i)
        hit.add(i.mnemonic)
        if named != [i.mnemonic.value]:
            wrong.update(named, [i.mnemonic.value])
    assert wrong == set()
    assert hit == set(M) and len(hit) == 70
    assert decode(0x00000073).mnemonic is M.ECALL
    assert decode(0x00100073).mnemonic is M.EBREAK


def test_instr_rebuilds_every_decoded_fence_word():
    """instr() keeps a fence's rd and rs1 fields, which encode and decode
    carry; fence bits of 0 alone are canonicalized, to iorw, iorw."""
    fence = isa.ENCODINGS[M.FENCE].opcode
    words = [fence | rd << 7 | rs1 << 15 | 0x5FE << 20
             for rd in range(32) for rs1 in range(32)]
    words += [fence | 19 << 7 | 25 << 15 | bits << 20 for bits in range(1, 4096)]
    for word in words:
        i = decode(word)
        assert instr(M.FENCE, rd=i.rd, rs1=i.rs1, imm=i.imm) == i
    assert instr(M.FENCE, rd=19, rs1=25, imm=0x5FE).raw == 0x5FEC898F
    assert instr(M.FENCE).raw == 0x0FF0000F


def _decode_record(word):
    try:
        i = decode(word)
    except IllegalInstruction as exc:
        return f"{word:08x} ! {exc}\n"
    return (f"{word:08x} {i.mnemonic.value} {i.rd} {i.rs1} {i.rs2} {i.imm} "
            f"{i.bs} {i.raw:08x} {encode(i):08x}\n")


def test_decode_output_pinned():
    # sha256 over 200k seeded uniform words plus every single-bit flip of
    # each mnemonic's canonical encoding (zero and non-zero operands), as
    # decoded before the codec became table-driven; each record is the
    # decoded fields and re-encoding, or the IllegalInstruction message
    rng = random.Random(0xDEC0DE)
    words = [rng.getrandbits(32) for _ in range(200_000)]
    for m in M:
        bs = 0 if m in isa.AES_MNEMONICS else None
        for base in (instr(m, bs=bs).raw, instr(m, **_operands_for(m)).raw):
            words.append(base)
            words.extend(base ^ (1 << b) for b in range(32))
    h = hashlib.sha256()
    for word in words:
        h.update(_decode_record(word).encode())
    assert h.hexdigest() == "b83459b868353350590fa0c531242f94d68b2166025500969e644bd6a525d7de"


@pytest.mark.parametrize("reverse", [False, True])
def test_decode_table_precedence_by_construction(reverse):
    # forms that claim the same bits: the exact imm12 form beats the shift,
    # the R form beats the AES form, whatever order the encodings come in
    op_imm = isa.ENCODINGS[M.SLLI].opcode
    op = isa.ENCODINGS[M.ADD].opcode
    encodings = {
        "shift": isa.Enc(isa.FMT_I_SHAMT, op_imm, 0b001, 0b0000000),
        "unary": isa.Enc(isa.FMT_UNARY, op_imm, 0b001, 0b000000000011),
        "aes": isa.Enc(isa.FMT_R_AES, op, 0b000, 0b10001),
        "r": isa.Enc(isa.FMT_R, op, 0b000, 0b0110001),
    }
    if reverse:
        encodings = dict(reversed(encodings.items()))
    table = isa._decode_table(encodings)
    shift, sub = table[op_imm | 0b001 << 12][1]
    assert shift == 20
    assert sub[3] == (isa.FMT_UNARY, "unary")
    assert sub[4] == (isa.FMT_I_SHAMT, "shift")
    shift, sub = table[op][1]
    assert shift == 25
    assert sub[0b0110001] == (isa.FMT_R, "r")
    assert sub[0b0010001] == (isa.FMT_R_AES, "aes")


def test_random_encode_decode_identity():
    rng = random.Random(7)
    for _ in range(2000):
        m = rng.choice(list(M))
        fmt = isa.ENCODINGS[m].fmt
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32),
                  rs2=rng.randrange(32))
        if fmt == isa.FMT_R_AES:
            kw["bs"] = rng.randrange(4)
        if fmt == isa.FMT_I_SHAMT:
            kw["imm"] = rng.randrange(32)
        elif fmt in (isa.FMT_I, isa.FMT_LOAD, isa.FMT_JALR, isa.FMT_STORE):
            kw["imm"] = rng.randrange(-2048, 2048)
        elif fmt == isa.FMT_BRANCH:
            kw["imm"] = rng.randrange(-2048, 2048) * 2
        elif fmt == isa.FMT_U:
            kw["imm"] = rng.getrandbits(20)
        elif fmt == isa.FMT_JAL:
            kw["imm"] = rng.randrange(-(1 << 19), 1 << 19) * 2
        i = instr(m, **{k: v for k, v in kw.items()
                        if k in isa._FIELDS_OF_FMT[fmt] or k == "bs"})
        assert decode(encode(i)) == i


# one case per encode field check, with the exact message; the operand
# checks come first, in rd, rs1, rs2, bs order, then the format's own fields
FIELD_ERRORS = [
    (Instr(M.ADD, 32, 0, 0), "rd 32 out of range"),
    (Instr(M.ADD, -1, 40, 40), "rd -1 out of range"),
    (Instr(M.SW, 40, 1, 2, 4096), "rd 40 out of range"),
    (Instr(M.ADDI, 1, 32, 0, 5000), "rs1 32 out of range"),
    (Instr(M.LUI, 1, -3, 0, 1 << 20), "rs1 -3 out of range"),
    (Instr(M.BEQ, 0, 1, 99, 3), "rs2 99 out of range"),
    (Instr(M.ECALL, 0, 0, -1), "rs2 -1 out of range"),
    (Instr(M.AES32ESI, 1, 1, 1, 0, 4), "bs 4 out of range"),
    (Instr(M.AES32DSMI, 1, 1, 1, 0, -1), "bs -1 out of range"),
    (Instr(M.AES32ESMI, 1, 1, 1), "bs None out of range"),
    (Instr(M.ADD, 1, 1, 1, 0, 1), "add takes no byte select"),
    (Instr(M.EBREAK, 1, 0, 0, 0, 0), "ebreak takes no byte select"),
    (Instr(M.ADDI, 1, 1, 0, 2048), "imm 2048 exceeds 12-bit signed range"),
    (Instr(M.LW, 1, 1, 0, -2049), "imm -2049 exceeds 12-bit signed range"),
    (Instr(M.JALR, 1, 1, 0, 4096), "imm 4096 exceeds 12-bit signed range"),
    (Instr(M.SH, 0, 1, 2, 2048), "imm 2048 exceeds 12-bit signed range"),
    (Instr(M.RORI, 1, 1, 0, 32), "shamt 32 exceeds 5-bit range"),
    (Instr(M.SLLI, 1, 1, 0, -1), "shamt -1 exceeds 5-bit range"),
    (Instr(M.BEQ, 0, 1, 2, 3), "branch offset 3 must be even"),
    (Instr(M.BNE, 0, 1, 2, 4097), "branch offset 4097 must be even"),
    (Instr(M.BGEU, 0, 1, 2, 4096), "branch offset 4096 out of range"),
    (Instr(M.BLT, 0, 1, 2, -4098), "branch offset -4098 out of range"),
    (Instr(M.LUI, 1, 0, 0, 1 << 20), "imm 1048576 exceeds 20-bit range"),
    (Instr(M.AUIPC, 1, 0, 0, -1), "imm -1 exceeds 20-bit range"),
    (Instr(M.JAL, 1, 0, 0, 1), "jump offset 1 must be even"),
    (Instr(M.JAL, 1, 0, 0, 1 << 20), "jump offset 1048576 out of range"),
    (Instr(M.JAL, 1, 0, 0, -(1 << 20) - 2), "jump offset -1048578 out of range"),
    (Instr(M.ECALL, 1), "ecall takes no operands"),
    (Instr(M.EBREAK, 0, 1), "ebreak takes no operands"),
    (Instr(M.ECALL, 0, 0, 0, 1), "ecall takes no operands"),
    (Instr(M.FENCE, 0, 0, 0, 0x1000), "fence bits 4096 out of range"),
    (Instr(M.FENCE, 0, 0, 0, -1), "fence bits -1 out of range"),
]


def test_field_range_errors():
    for ins, message in FIELD_ERRORS:
        with pytest.raises(FieldRange) as exc:
            encode(ins)
        assert str(exc.value) == message, ins
    with pytest.raises(FieldRange, match="^shamt 32 exceeds 5-bit range$"):
        instr(M.RORI, rd=1, rs1=1, imm=32)


def test_illegal_instruction_surface():
    with pytest.raises(IllegalInstruction) as exc:
        decode(0x1_0000_0000 | 0xFFFFFFFF)
    e = exc.value
    assert e.word == 0xFFFFFFFF
    assert e.args == (0xFFFFFFFF,)
    assert str(e) == "illegal instruction word 0xffffffff"
    assert repr(e) == "IllegalInstruction(4294967295)"
    e = IllegalInstruction(0x13)
    assert (e.word, e.args, str(e)) == (0x13, (0x13,), "illegal instruction word 0x00000013")
    assert str(IllegalInstruction(-1)) == "illegal instruction word 0xffffffff"
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is IllegalInstruction
    assert (back.word, back.args, str(back)) == (e.word, e.args, str(e))


def test_decode_cache_is_cleared_past_its_limit(monkeypatch):
    """Past `_DECODE_CACHE_MAX` entries decode_cached clears the cache in
    place, and every word still decodes as decode() does."""
    monkeypatch.setattr(isa, "_DECODE_CACHE_MAX", 4)
    cache = isa._DECODE_CACHE
    cache.clear()
    words = [encode(instr(M.ADDI, rd=1, rs1=0, imm=k)) for k in range(12)]
    sizes = []
    for word in words:
        assert isa.decode_cached(word) == decode(word)
        sizes.append(len(cache))
    assert isa._DECODE_CACHE is cache
    assert max(sizes) == 5 and sizes[5] == 1  # full past 4, then cleared
    assert all(isa.decode_cached(w) == decode(w) for w in words)


def test_aes_bs_field_position():
    i = instr(M.AES32ESMI, rd=1, rs1=1, rs2=2, bs=3)
    assert encode(i) >> 30 == 0b11
    assert decode(encode(i)).bs == 3


# --- assembler -------------------------------------------------------------

def test_assemble_empty_sequence():
    img = Assembler().build()
    assert isinstance(img, ProgramImage)
    assert len(img.data) == 0 and img.code_size == 0


def test_assembler_rejects_unaligned_base():
    with pytest.raises(FieldRange, match="^base 0x1002 not word-aligned$"):
        Assembler(base=0x1002)


def test_assemble_single_ebreak():
    a = Assembler()
    a.put(instr(M.EBREAK))
    img = a.build()
    assert len(img.data) == 4
    assert int.from_bytes(img.data, "little") == 0x00100073


def test_backward_branch_offset():
    a = Assembler(base=0x1000)
    a.label("loop")
    a.emit(M.ADDI, rd=1, rs1=1, imm=-1)
    a.emit(M.BNE, rs1=1, rs2=0, target="loop")
    img = a.build()
    branch = decode(int.from_bytes(img.data[4:8], "little"))
    assert branch.imm == -4  # one instruction back


def test_forward_branch_offset():
    a = Assembler(base=0x1000)
    a.emit(M.BEQ, rs1=0, rs2=0, target="out")
    a.nop()
    a.nop()
    a.label("out")
    a.emit(M.EBREAK)
    img = a.build()
    branch = decode(int.from_bytes(img.data[0:4], "little"))
    assert branch.imm == 12


def test_unresolved_label():
    a = Assembler(base=0x1000)
    a.emit(M.JAL, rd=0, target="nowhere")
    with pytest.raises(UnresolvedLabel):
        a.build()


@pytest.mark.parametrize("pad,want", [
    (0, 0x100C),
    (0x7F4, 0x1800),   # bit 11 set: addi adds -2048, lui rounds up
    (0x7F8, 0x1804),
    (0xFF4, 0x2000),   # low 12 bits zero
])
def test_lui_addi_target_load_label_address(pad, want):
    a = Assembler(base=0x1000)
    a.emit(M.LUI, rd=5, target="data")
    a.emit(M.ADDI, rd=5, rs1=5, target="data")
    a.emit(M.EBREAK)
    a.data(bytes(pad))
    a.label("data")
    img = a.build()
    lui, addi = (decode(int.from_bytes(img.data[k:k + 4], "little"))
                 for k in (0, 4))
    assert (lui.mnemonic, lui.rd) == (M.LUI, 5)
    assert (addi.mnemonic, addi.rd, addi.rs1) == (M.ADDI, 5, 5)
    assert ((lui.imm << 12) + addi.imm) & 0xFFFFFFFF == want


@pytest.mark.parametrize("m", [M.LUI, M.ADDI])
def test_absolute_load_of_missing_label(m):
    a = Assembler(base=0x1000)
    a.emit(m, rd=1, target="nowhere")
    with pytest.raises(UnresolvedLabel):
        a.build()


@pytest.mark.parametrize("m", [M.AUIPC, M.JALR, M.LW, M.SW])
def test_target_on_unresolvable_mnemonic_is_field_error(m):
    """build resolves a label only for branches, jal, lui and addi; any
    other mnemonic would take the pc-relative offset as its raw immediate."""
    a = Assembler(base=0x1000)
    with pytest.raises(FieldRange):
        a.emit(m, rd=1, rs1=2, rs2=3, target="L")
    a.label("L")
    assert a.build().data == b""


def test_branch_out_of_range_is_field_error():
    a = Assembler(base=0x1000)
    a.emit(M.BEQ, rs1=0, rs2=0, target="far")
    for _ in range(2000):
        a.nop()
    a.label("far")
    with pytest.raises(FieldRange):
        a.build()


def test_li_small_and_large():
    a = Assembler(base=0)
    a.li(1, 42)
    a.li(2, 0x12345678)
    a.li(3, -1)
    img = a.build()
    words = [int.from_bytes(img.data[i:i + 4], "little")
             for i in range(0, len(img.data), 4)]
    assert len(words) == 4  # addi, lui+addi, addi
    assert decode(words[0]).imm == 42
    assert decode(words[3]).imm == -1


def test_assemble_record_forms():
    a = Assembler()
    a.emit("addi", rd=1, rs1=0, imm=5)
    a.label("done")
    a.word(0xDEADBEEF)
    a.put(instr(M.EBREAK))
    img = a.build()
    assert len(img.data) == 12
    assert int.from_bytes(img.data[4:8], "little") == 0xDEADBEEF


def test_disassembly_formats():
    assert disassemble(decode(0x00000013)) == "addi x0, x0, 0"
    assert disassemble(instr(M.LUI, rd=1, imm=0x12345)) == "lui x1, 0x12345"
    assert disassemble(instr(M.LW, rd=1, rs1=2, imm=8)) == "lw x1, 8(x2)"
    assert disassemble(instr(M.SW, rs1=2, rs2=3, imm=-4)) == "sw x3, -4(x2)"
    assert disassemble(instr(M.JAL, rd=1, imm=2048)) == "jal x1, 2048"
    assert disassemble(instr(M.FENCE)) == "fence"
    assert disassemble(instr(M.SHA512SIG0H, rd=1, rs1=2, rs2=3)) == \
        "sha512sig0h x1, x2, x3"
