import hashlib
import json
import random

import pytest

import oracles
from serialrv import audit, bench, isa
from serialrv.audit import audit_constant_time
from serialrv.bench import (ChecksumMismatch, KERNELS, build_aes128,
                            build_alumix, build_prince_sbox, build_sha256,
                            build_shiftstorm, run_kernel, run_suite,
                            sha256_digest_from_out, sha256_pad)
from serialrv.isa import Ext, Mnemonic as M
from serialrv.microarch import SHIFT_MNEMONICS, CoreConfig

ZKN_CFG = CoreConfig.zkn_zkt(32)
BASE_CFG = CoreConfig(serial_width=32)


# --- functional pinning against independent oracles ---------------------------

def test_aes128_enc_fips_vector_both_variants():
    want = oracles.aes128_encrypt_block(bench.FIPS_KEY, bench.FIPS_PT)
    assert want == bench.FIPS_CT  # oracle agrees with the pinned constant
    for variant, cfg in (("zkn", ZKN_CFG), ("rv32i", BASE_CFG)):
        _, out = run_kernel(build_aes128(variant), cfg)
        assert out == want, variant


def test_aes128_dec_fips_vector_both_variants():
    for variant, cfg in (("zkn", ZKN_CFG), ("rv32i", BASE_CFG)):
        _, out = run_kernel(build_aes128(variant, decrypt=True), cfg)
        assert out == bench.FIPS_PT, variant


def test_aes128_random_pairs_against_library():
    rng = random.Random(101)
    for _ in range(10):
        key = rng.getrandbits(128).to_bytes(16, "big")
        pt = rng.getrandbits(128).to_bytes(16, "big")
        want = oracles.aes128_encrypt_block(key, pt)
        _, out = run_kernel(build_aes128("zkn", key=key, block=pt), ZKN_CFG)
        assert out == want
        _, back = run_kernel(build_aes128("zkn", decrypt=True, key=key,
                                          block=want), ZKN_CFG)
        assert back == pt


def test_sha256_abc_both_variants():
    want = oracles.sha256(b"abc")
    for variant, cfg in (("zkn", ZKN_CFG), ("rv32i", BASE_CFG)):
        _, out = run_kernel(build_sha256(variant), cfg)
        assert sha256_digest_from_out(out) == want, variant


def test_sha256_random_single_block_messages():
    rng = random.Random(103)
    for _ in range(10):
        msg = bytes(rng.getrandbits(8) for _ in range(rng.randrange(56)))
        _, out = run_kernel(build_sha256("zkn", block=sha256_pad(msg)), ZKN_CFG)
        assert sha256_digest_from_out(out) == oracles.sha256(msg)


def test_sha256_constants_derived_correctly():
    assert bench.SHA256_IV[0] == 0x6A09E667
    assert bench.SHA256_K[0] == 0x428A2F98
    assert bench.SHA256_K[63] == 0xC67178F2


def test_prince_sbox_against_reference_table():
    for variant, cfg in (("zkn", ZKN_CFG), ("rv32i", BASE_CFG)):
        _, out = run_kernel(build_prince_sbox(variant), cfg)
        for w, inp in zip((0, 4), bench.PRINCE_INPUT):
            got = int.from_bytes(out[w:w + 4], "little")
            want = 0
            for i in range(8):
                want |= oracles.PRINCE_SBOX4[(inp >> (4 * i)) & 0xF] << (4 * i)
            assert got == want, variant


def test_synthetic_kernels_self_check():
    for build in (build_alumix, build_shiftstorm):
        kp = build("rv32i")
        assert kp.expected and any(kp.expected)
        _, out = run_kernel(kp, CoreConfig(serial_width=16))
        assert out == kp.expected


def test_every_kernel_cell_has_an_expected_output():
    for name, kernel in KERNELS.items():
        for variant in bench.VARIANTS:
            assert kernel.build(variant).expected or kernel.expected, \
                (name, variant)


# sha256 over each registry kernel x variant's load address, entry, code
# size, output window, expected output and image bytes; the kernels were
# assembled in two passes when this was taken, so it pins that one-pass
# assembly with labels lays out every image the same
KERNEL_IMAGES_SHA256 = \
    "a9939325979de26f4ca3930924e63ec06b077d974d3ac43f40e967a4af32fbde"


def test_kernel_images_are_pinned():
    lines = []
    for name, kernel in sorted(KERNELS.items()):
        for variant in bench.VARIANTS:
            kp = kernel.build(variant)
            img = kp.image
            lines.append(
                f"{name} {variant} base={img.base:#x} entry={img.entry:#x} "
                f"code_size={img.code_size} out={kp.out_addr:#x}+{kp.out_len} "
                f"expected={(kp.expected or kernel.expected).hex()} "
                f"image={hashlib.sha256(img.data).hexdigest()}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_IMAGES_SHA256


def _drawn_builds(rng):
    """(builder, args, kwargs) of every kernel variant, over inputs drawn
    from `rng` the way perfbench's kernel-suite draws them."""
    key, block = rng.randbytes(16), rng.randbytes(16)
    sha_block = sha256_pad(rng.randbytes(rng.randrange(56)))
    words = (rng.getrandbits(32), rng.getrandbits(32))
    calls = []
    for v in bench.VARIANTS:
        calls += [(build_aes128, (v, False), {"key": key, "block": block}),
                  (build_aes128, (v, True), {"key": key, "block": block}),
                  (build_sha256, (v,), {"block": sha_block}),
                  (build_prince_sbox, (v, words), {}),
                  (build_alumix, (v,), {}),
                  (build_shiftstorm, (v,), {})]
    return calls


def _fresh_build(emit, args, blocks):
    a = isa.Assembler()
    emit(a, *args)
    return bench._program(a, blocks)


def test_cached_kernel_builds_equal_a_fresh_assembly(monkeypatch):
    # each draw is built right after the builds of the draw before it, so
    # a cached build must not keep anything of other inputs
    draws = [_drawn_builds(random.Random(seed)) for seed in range(5)]
    cached = [[fn(*args, **kw) for fn, args, kw in calls] for calls in draws]
    monkeypatch.setattr(bench, "_build", _fresh_build)
    for calls, built in zip(draws, cached):
        for (fn, args, kw), kp in zip(calls, built):
            # alumix and shiftstorm are cached whole; __wrapped__ builds anew
            fresh = getattr(fn, "__wrapped__", fn)(*args, **kw)
            assert kp == fresh, (fn.__name__, args)


def test_build_pads_each_block_to_a_word():
    # the registry's blocks are all whole words; these are not
    def emit(a):
        bench._emit_la(a, 6, "tail")
        a.emit(M.EBREAK)

    for blocks in ({"head": b"\x01" * 3, "out": b"\x02" * 5, "tail": b"\x03"},
                   {"head": b"\x04" * 6, "out": b"\x05" * 2, "tail": b"\x06" * 7}):
        assert bench._build(emit, (), blocks) == _fresh_build(emit, (), blocks)


def test_checksum_invariant_across_variant_and_width():
    for name, kernel in KERNELS.items():
        sums = set()
        for variant in ("rv32i", "zkn"):
            kp = kernel.build(variant)
            exts = kernel.zkn_exts if variant == "zkn" else kernel.rv32i_exts
            for w in (1, 8, 32):
                _, out = run_kernel(kp, CoreConfig(serial_width=w,
                                                   extensions=exts))
                sums.add(out)
        assert len(sums) == 1, name


# --- suite metrics --------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_1_32():
    return run_suite(widths=(1, 32))


def test_zkn_crypto_kernels_strictly_faster(suite_1_32):
    _, metrics = suite_1_32
    for kernel in ("aes128-enc", "aes128-dec", "sha256-compress", "prince-sbox"):
        for w, speedup in metrics["speedup_zkn"][kernel].items():
            assert speedup > 1.0, (kernel, w)


def test_zkn_crypto_kernels_strictly_smaller(suite_1_32):
    _, metrics = suite_1_32
    for kernel in ("aes128-enc", "aes128-dec", "sha256-compress", "prince-sbox"):
        assert metrics["code_size_reduction_pct"][kernel] > 0


def test_shiftstorm_slower_under_zkt(suite_1_32):
    results, _ = suite_1_32
    cells = {(r.variant, r.width): r.cycles
             for r in results if r.kernel == "shiftstorm"}
    for w in (1,):
        assert cells[("zkn", w)] > cells[("rv32i", w)]


# sha256 of what `serialrv bench --json` writes for the full suite: any moved
# cycle, instret, code size or checksum in the 72 cells changes it
FULL_SUITE_JSON_SHA256 = \
    "28fdd45946ba9efb85b8635e581e953a6b91d9dd5f2d83fc1354f63bad61a4b3"


def test_full_suite_json_is_pinned():
    results, _ = run_suite()
    text = json.dumps([r.to_json_dict() for r in results], indent=2,
                      sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_SUITE_JSON_SHA256


def test_results_sorted_and_json_ready(suite_1_32):
    results, _ = suite_1_32
    keys = [(r.kernel, r.variant, r.width) for r in results]
    assert keys == sorted(keys)
    assert all(isinstance(r.to_json_dict(), dict) for r in results)


def test_alumix_width_scaling():
    results, metrics = run_suite(kernel_names=["alumix"],
                                 widths=(1, 2, 4, 8, 16, 32),
                                 variants=("rv32i",))
    ratios = metrics["cross_width"]["alumix"]["rv32i"]
    for pair, ratio in ratios.items():
        assert 1.8 <= ratio <= 2.1, (pair, ratio)


def test_wider_never_slower_for_zkn_crypto():
    results, _ = run_suite(
        kernel_names=["aes128-enc", "sha256-compress", "prince-sbox"],
        widths=(1, 2, 4, 8, 16, 32), variants=("zkn",))
    by_kernel = {}
    for r in results:
        by_kernel.setdefault(r.kernel, {})[r.width] = r.cycles
    for kernel, cells in by_kernel.items():
        for w in (1, 2, 4, 8, 16):
            assert cells[2 * w] <= cells[w], (kernel, w)


def test_checksum_mismatch_raised(monkeypatch):
    bad = KERNELS["prince-sbox"]
    monkeypatch.setitem(bench.KERNELS, "prince-sbox",
                        bench.Kernel(bad.name, bad.build, b"\x00" * 8))
    with pytest.raises(ChecksumMismatch):
        run_suite(kernel_names=["prince-sbox"], widths=(32,))


def test_cell_without_expected_output_is_a_mismatch(monkeypatch):
    unchecked = KERNELS["prince-sbox"]
    monkeypatch.setitem(bench.KERNELS, "prince-sbox",
                        bench.Kernel(unchecked.name, unchecked.build, b""))
    with pytest.raises(ChecksumMismatch):
        run_suite(kernel_names=["prince-sbox"], widths=(32,))


def test_suite_alias():
    results, _ = run_suite(kernel_names=["aes128"], widths=(1, 32))
    assert {r.kernel for r in results} == {"aes128-enc"}
    assert len(results) == 4


# --- constant-time audit ----------------------------------------------------------

@pytest.fixture(scope="module")
def audit_w1_zkt():
    return audit_constant_time(CoreConfig.zkn_zkt(1), trials=256)


def test_audit_all_spreads_zero_with_zkt(audit_w1_zkt):
    assert audit_w1_zkt.passed
    assert all(r.spread == 0 for r in audit_w1_zkt.rows)


def test_audit_covers_every_enabled_covered_mnemonic(audit_w1_zkt):
    audited = {r.mnemonic for r in audit_w1_zkt.rows}
    want = {m.value for m in isa.ZKT_COVERED}
    assert audited == want


def test_audit_sll_varies_without_zkt():
    report = audit_constant_time(
        CoreConfig(serial_width=1, extensions=isa.ZKN), trials=256)
    rows = {r.mnemonic: r for r in report.rows}
    assert rows["sll"].spread > 0
    assert rows["rori"].spread > 0
    assert not report.passed


def test_audit_aes_constant_either_way():
    for exts in (isa.ZKN, isa.ZKN_ZKT):
        report = audit_constant_time(
            CoreConfig(serial_width=1, extensions=exts), trials=64)
        rows = {r.mnemonic: r for r in report.rows}
        assert rows["aes32esmi"].spread == 0


def test_audit_respects_extension_subset():
    report = audit_constant_time(
        CoreConfig(serial_width=4, extensions=frozenset({Ext.ZKT})), trials=32)
    audited = {r.mnemonic for r in report.rows}
    assert "clmul" not in audited and "sll" in audited
    assert report.passed


# sha256 over the audit rows at every width, with and without Zkt, 256
# trials; taken while the audit's operand branches still shared one stream
AUDIT_ROWS_SHA256 = \
    "0f6eba2614b79c3bf5b6ccc74723d741940100fbbf4a7cdd25ba55255f29aaf6"


def test_audit_rows_are_pinned():
    lines = []
    for w in (1, 2, 4, 8, 16, 32):
        for exts in (isa.ZKN, isa.ZKN_ZKT):
            r = audit_constant_time(CoreConfig(serial_width=w, extensions=exts),
                                    trials=256)
            lines.append(f"w{w} zkt={r.zkt} " + " ".join(
                f"{x.mnemonic}:{x.latency_class}:{x.min_cycles}:{x.max_cycles}"
                for x in r.rows))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_ROWS_SHA256


def _audited_operands(monkeypatch, covered):
    """Every (instruction, rs1, rs2) the audit measures, by mnemonic."""
    seen = {}

    def spy(config, ins, rs1, rs2):
        seen.setdefault(ins.mnemonic, []).append((ins, rs1, rs2))
        return 1

    monkeypatch.setattr(audit, "_measure_once", spy)
    monkeypatch.setattr(isa, "ZKT_COVERED", covered)
    audit_constant_time(CoreConfig.zkn_zkt(4), trials=64)
    return seen


@pytest.mark.parametrize("change", [M.LW, M.ADD], ids=["add-lw", "remove-add"])
def test_audit_operands_independent_of_other_mnemonics(monkeypatch, change):
    full = _audited_operands(monkeypatch, isa.ZKT_COVERED)
    changed = _audited_operands(monkeypatch, isa.ZKT_COVERED ^ {change})
    assert (change in full) != (change in changed)
    full.pop(change, None)
    changed.pop(change, None)
    assert changed == full


def test_audit_too_few_trials_rejected():
    with pytest.raises(ValueError):
        audit_constant_time(CoreConfig.zkn_zkt(4), trials=31)


def test_zkt_never_faster():
    zkt_on = CoreConfig.zkn_zkt(4)
    zkt_off = CoreConfig(serial_width=4, extensions=isa.ZKN)
    for m in sorted(isa.ZKT_COVERED, key=lambda x: x.value):
        if m in SHIFT_MNEMONICS & isa.IMM_FORMS:
            for s in (0, 1, 17, 31):
                i = isa.instr(m, rd=4, rs1=1, imm=s)
                assert audit._measure_once(zkt_on, i, 0xDEAD, 0) >= \
                    audit._measure_once(zkt_off, i, 0xDEAD, 0)
        elif isa.ENCODINGS[m].fmt == isa.FMT_UNARY:
            i = isa.instr(m, rd=4, rs1=1)
            assert audit._measure_once(zkt_on, i, 5, 0) >= \
                audit._measure_once(zkt_off, i, 5, 0)
        elif m in isa.AES_MNEMONICS:
            i = isa.instr(m, rd=4, rs1=1, rs2=2, bs=1)
            assert audit._measure_once(zkt_on, i, 5, 9) >= \
                audit._measure_once(zkt_off, i, 5, 9)
        else:
            i = isa.instr(m, rd=4, rs1=1, rs2=2)
            for rs2 in (0, 13, 31):
                assert audit._measure_once(zkt_on, i, 0xBEEF, rs2) >= \
                    audit._measure_once(zkt_off, i, 0xBEEF, rs2)
