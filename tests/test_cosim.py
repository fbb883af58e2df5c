import hashlib
import json
import random

import pytest

import oracles
from serialrv import cosim, golden, isa, microarch
from serialrv.cosim import (MEMORY_WINDOW, TortureConfig, cosim_run, generate,
                            signature)
from serialrv.golden import ArchState, Memory
from serialrv.isa import Ext, Mnemonic as M
from serialrv.microarch import CoreConfig


WIDTHS = (1, 2, 4, 8, 16, 32)


@pytest.fixture
def fresh_golden_trace():
    """For tests that change the golden model: the trace cache is keyed by
    data, not code, so it must be empty before and after them."""
    cosim._golden_trace.cache_clear()
    yield
    cosim._golden_trace.cache_clear()


def test_generation_deterministic():
    tc = TortureConfig(seed=42)
    assert generate(tc) == generate(tc)


def test_generated_words_all_decode():
    tc = TortureConfig(seed=3)
    img = generate(tc)
    wbase = MEMORY_WINDOW[0]
    for off in range(0, len(img.data), 4):
        addr = img.base + off
        word = int.from_bytes(img.data[off:off + 4], "little")
        if addr < wbase and word != 0:
            isa.decode(word)  # must not raise


def test_extension_filter():
    tc = TortureConfig(seed=5, extensions=frozenset())
    img = generate(tc)
    wbase = MEMORY_WINDOW[0]
    for off in range(0, len(img.data), 4):
        if img.base + off >= wbase:
            break
        word = int.from_bytes(img.data[off:off + 4], "little")
        if word:
            m = isa.decode(word).mnemonic
            assert isa.EXT_OF[m] is Ext.RV32I, m


def test_instret_bounds():
    tc = TortureConfig(seed=7, length=200)
    rep = cosim_run(tc, CoreConfig.zkn_zkt(32))
    assert rep.passed
    # prologue (~61) + >=200 body + 31 dump stores; shadows add a bounded amount
    assert rep.instret >= 200
    assert rep.instret <= 200 + 3 * 200 + 62 + 32


def test_memory_traffic_stays_in_window():
    tc = TortureConfig(seed=11)
    img = generate(tc)
    state = ArchState.from_image(img)
    base, size = MEMORY_WINDOW
    snapshot_lo = state.mem.read_bytes(0, img.base)
    while not golden.step(state).halted:
        pass
    # nothing below the image or beyond the window was touched
    assert state.mem.read_bytes(0, img.base) == snapshot_lo
    assert not state.mem.sparse


def test_generator_output_pinned():
    # sha256 of the first 50 default programs, as generated before the
    # generator's hot spots were trimmed; any change to the stream shows here
    h = hashlib.sha256()
    for s in range(50):
        img = generate(TortureConfig(seed=s))
        h.update(f"{img.base} {img.entry} {img.code_size} {len(img.data)}\n".encode())
        h.update(img.data)
    assert h.hexdigest() == "657d1d0f056c49269a9ebea972facd698a5ed22c6fb54a94b4fe17d5c0f0541f"


def test_generator_output_pinned_across_lengths_and_extensions():
    # the same pin over short, mid and long programs and over pools with no
    # extension, one extension and all of Zkn, so a change to how draws are
    # taken must keep every stream, not only the default one
    h = hashlib.sha256()
    for length in (1, 37, 500):
        for exts in (frozenset(), frozenset({Ext.ZBKB}), isa.ZKN):
            for s in range(8):
                img = generate(TortureConfig(seed=s, length=length, extensions=exts))
                tag = ",".join(sorted(e.value for e in exts))
                h.update(f"{length} {tag} {s} {img.entry} {len(img.data)}\n".encode())
                h.update(img.data)
    assert h.hexdigest() == "2e8e21cd5c4016a91596a3bf6d0e8d6f6036e9f2198e99f6a3ec2e55c06ade40"


def test_overlong_program_rejected():
    with pytest.raises(cosim.ProgramTooLong, match="scratch window at 0x2000"):
        generate(TortureConfig(seed=0, length=2000))


def _no_slot(*args):
    raise AssertionError("generate emitted a slot")


def test_overlong_program_rejected_before_generating(monkeypatch):
    """A length past the words between the code base and the window can
    never fit, so it is rejected before any slot is generated."""
    monkeypatch.setattr(cosim, "_random_non_branch", _no_slot)
    room = (MEMORY_WINDOW[0] - 0x1000) // 4
    for length in (room + 1, 10**8):
        with pytest.raises(cosim.ProgramTooLong, match="scratch window at 0x2000"):
            generate(TortureConfig(seed=0, length=length))


@pytest.mark.parametrize("length", (0, -5))
def test_nonpositive_length_rejected(length):
    tc = TortureConfig(seed=0, length=length)
    for call in (lambda: generate(tc),
                 lambda: cosim_run(tc, CoreConfig.zkn_zkt(4)),
                 lambda: cosim.run_matrix(range(1), (4,), length=length)):
        with pytest.raises(ValueError, match="length >= 1") as exc:
            call()
        assert not isinstance(exc.value, cosim.ProgramTooLong)


# --- signature -------------------------------------------------------------------

def test_signature_of_reset_state_pinned():
    state = ArchState(pc=0, mem=Memory())
    # FNV-1a-64 of 31 zero words, computed with an independent implementation
    want = f"{oracles.fnv1a64(bytes(124)):016x}"
    assert signature(state, (0x2000, 0)) == want


def test_signature_equal_states():
    s1, s2 = ArchState(mem=Memory()), ArchState(mem=Memory())
    s1.regs[5] = s2.regs[5] = 0xABCD
    assert signature(s1, (0, 64)) == signature(s2, (0, 64))


def test_signature_single_bit_sensitivity():
    rng = random.Random(13)
    base = ArchState(mem=Memory())
    ref = signature(base, (0x2000, 64))
    diffs = 0
    for _ in range(1000):
        s = ArchState(mem=Memory())
        reg = rng.randrange(1, 32)
        bit = rng.randrange(32)
        s.regs[reg] = 1 << bit
        if signature(s, (0x2000, 64)) != ref:
            diffs += 1
    assert diffs == 1000


def test_signature_covers_window_memory():
    s = ArchState(mem=Memory())
    ref = signature(s, (0x2000, 64))
    s.mem.store(0x2000 + 63, 1, 1)
    assert signature(s, (0x2000, 64)) != ref
    s2 = ArchState(mem=Memory())
    s2.mem.store(0x2000 + 64, 1, 1)  # just outside
    assert signature(s2, (0x2000, 64)) == ref


# --- lockstep -------------------------------------------------------------------

def test_width32_always_passes():
    rep = cosim_run(TortureConfig(seed=100), CoreConfig.zkn_zkt(32))
    assert rep.passed and rep.sig_micro == rep.sig_golden


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32])
def test_all_widths_one_seed(width):
    rep = cosim_run(TortureConfig(seed=20), CoreConfig.zkn_zkt(width))
    assert rep.passed, (rep.divergence_pc, rep.divergence_field)


def test_cross_width_signatures_identical():
    sigs = {cosim_run(TortureConfig(seed=33), CoreConfig.zkn_zkt(w)).sig_micro
            for w in (1, 2, 4, 8, 16, 32)}
    assert len(sigs) == 1


def test_corrupted_micro_model_detected(monkeypatch):
    """Harness self-test: break the micro adder, expect a divergence."""
    original = microarch.MicroCore._chunk_add

    def broken(self, a, b, carry_in=0):
        return original(self, a, b, carry_in) ^ 2

    monkeypatch.setattr(microarch.MicroCore, "_chunk_add", broken)
    rep = cosim_run(TortureConfig(seed=1), CoreConfig.zkn_zkt(4))
    assert not rep.passed
    assert rep.divergence_pc is not None
    assert rep.divergence_field.startswith("x") or rep.divergence_field == "pc"


def test_report_json_shape():
    rep = cosim_run(TortureConfig(seed=2), CoreConfig.zkn_zkt(16))
    d = rep.to_json_dict()
    assert set(d) == {"seed", "width", "extensions", "pass",
                      "sig_micro", "sig_golden"}
    json.dumps(d)


def test_matrix_helper():
    reports = cosim.run_matrix(range(3), (8, 32))
    assert len(reports) == 6
    assert all(r.passed for r in reports)


# --- trace replay -------------------------------------------------------------------

def _lockstep_oracle(torture, core, max_steps=200_000):
    """cosim_run as a plain lockstep loop: both models are stepped side by
    side, with nothing recorded or shared between widths."""
    img = generate(torture)
    gold = ArchState.from_image(img)
    micro = microarch.MicroCore(core, ArchState.from_image(img))
    exts = frozenset(core.extensions) - {Ext.ZKT}
    divergence = None
    instret = 0
    for _ in range(max_steps):
        pc = gold.pc
        g_out = golden.step(gold, exts)
        _, m_out, _ = micro.step()
        if micro.arch.pc != gold.pc:
            divergence = (pc, "pc")
            break
        if micro.arch.regs != gold.regs:
            i = next(i for i in range(32) if micro.arch.regs[i] != gold.regs[i])
            divergence = (pc, f"x{i}")
            break
        if g_out.halted or m_out.halted:
            if g_out != m_out:
                divergence = (pc, "halt-reason")
            break
        instret += 1
    else:
        divergence = (gold.pc, "no-halt")
    sig_g = signature(gold, MEMORY_WINDOW)
    sig_m = signature(micro.arch, MEMORY_WINDOW)
    return cosim.CosimReport(
        seed=torture.seed, width=core.serial_width,
        extensions=tuple(e.value for e in core.extensions),
        passed=divergence is None and sig_g == sig_m,
        sig_micro=sig_m, sig_golden=sig_g,
        divergence_pc=divergence[0] if divergence else None,
        divergence_field=divergence[1] if divergence else None,
        instret=instret)


def test_replay_matches_lockstep_oracle():
    for seed in range(10):
        tc = TortureConfig(seed=seed)
        for w in WIDTHS:
            rep = cosim_run(tc, CoreConfig.zkn_zkt(w))
            assert rep.passed
            assert rep == _lockstep_oracle(tc, CoreConfig.zkn_zkt(w))


def _break_adder(mp):
    """A core adder that flips bit 1 of every chunk sum: a register diverges."""
    original = microarch.MicroCore._chunk_add

    def broken(self, a, b, carry_in=0):
        return original(self, a, b, carry_in) ^ 2

    mp.setattr(microarch.MicroCore, "_chunk_add", broken)


def _flip_x31_dump(mp):
    """A core sw that flips bit 0 of the word it writes to the register
    dump's x31 slot, which no later instruction reads: the run ends with no
    divergence and equal registers, and only the window differs."""
    base, size = MEMORY_WINDOW
    x31_slot = base + size - 4
    store = microarch._EXECUTE[M.SW]

    def faulty(core, i, a, b):
        result = store(core, i, a, b)
        if core.store_addr == x31_slot:
            core.lsu_buffer ^= 1
        return result

    mp.setitem(microarch._EXECUTE, M.SW, faulty)


def test_replay_matches_oracle_on_divergence(monkeypatch):
    tc = TortureConfig(seed=1)
    for fault, field_is_none in ((_break_adder, False), (_flip_x31_dump, True)):
        with monkeypatch.context() as mp:
            fault(mp)
            for w in (1, 4, 32):
                rep = cosim_run(tc, CoreConfig.zkn_zkt(w))
                assert not rep.passed and rep.sig_micro != rep.sig_golden
                assert (rep.divergence_field is None) is field_is_none
                # sig_golden describes the golden state at the divergence,
                # not at halt; sig_micro hashes the core's own final state
                # whenever its window differs from the golden one
                assert rep == _lockstep_oracle(tc, CoreConfig.zkn_zkt(w))


def test_replay_matches_oracle_without_halt():
    tc = TortureConfig(seed=4)
    for w in WIDTHS:
        rep = cosim_run(tc, CoreConfig.zkn_zkt(w), max_steps=50)
        assert rep.divergence_field == "no-halt" and rep.instret == 50
        assert rep == _lockstep_oracle(tc, CoreConfig.zkn_zkt(w), max_steps=50)


def test_reports_independent_of_loop_order():
    seeds = range(3)
    seeds_outer = {(s, w): cosim_run(TortureConfig(seed=s), CoreConfig.zkn_zkt(w))
                   for s in seeds for w in WIDTHS}
    widths_outer = {(s, w): cosim_run(TortureConfig(seed=s), CoreConfig.zkn_zkt(w))
                    for w in WIDTHS for s in seeds}
    assert seeds_outer == widths_outer


def test_corrupted_golden_model_detected(monkeypatch, fresh_golden_trace):
    """Harness self-test: break a golden semantic, expect a divergence."""
    original = golden.clmul_semantics
    monkeypatch.setattr(golden, "clmul_semantics",
                        lambda m, rs1, rs2: original(m, rs1, rs2) ^ 1)
    rep = cosim_run(TortureConfig(seed=1), CoreConfig.zkn_zkt(4))
    assert not rep.passed
    assert rep.divergence_field.startswith("x")
