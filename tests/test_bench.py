import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from serialrv import audit, bench, isa
from serialrv.audit import audit_constant_time
from serialrv.bench import (ChecksumMismatch, KERNELS, _swap_words,
                            build_aes128, build_alumix, build_prince_sbox,
                            build_sha256, build_shiftstorm, run_kernel,
                            run_suite, sha256_pad)
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
        assert _swap_words(out) == want, variant


def test_sha256_random_single_block_messages():
    rng = random.Random(103)
    for _ in range(10):
        msg = bytes(rng.getrandbits(8) for _ in range(rng.randrange(56)))
        _, out = run_kernel(build_sha256("zkn", block=sha256_pad(msg)), ZKN_CFG)
        assert _swap_words(out) == oracles.sha256(msg)


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


def test_builders_expect_the_outputs_bench_knows():
    rng = random.Random(5)
    key, block = rng.randbytes(16), rng.randbytes(16)
    words = (rng.getrandbits(32), rng.getrandbits(32))
    for variant, exts in bench.EXTS.items():
        config = CoreConfig(serial_width=8, extensions=exts)
        known = (build_aes128(variant, False, key=bench.FIPS_KEY, block=bench.FIPS_PT),
                 build_aes128(variant, True, block=bench.FIPS_CT),
                 build_sha256(variant, block=sha256_pad(b"abc")),
                 build_prince_sbox(variant, words))
        for kp in known:
            assert kp.expected and run_kernel(kp, config)[1] == kp.expected
        unknown = (build_aes128(variant, key=key),
                   build_aes128(variant, True, key=key),
                   build_aes128(variant, block=block),
                   build_aes128(variant, True, block=bench.FIPS_PT),
                   build_sha256(variant, block=sha256_pad(b"abd")))
        assert all(kp.expected == b"" for kp in unknown)


def test_import_builds_nothing():
    """Importing bench assembles no kernel: a registry that built its
    expected outputs at import would move that work into every caller's
    setup."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from serialrv import bench\n"
            "print(*(f.cache_info().currsize for f in (\n"
            "    bench._assembled, bench.build_alumix, bench.build_shiftstorm)))\n"
            "print(sorted({'dataclasses', 'inspect', 'json'}\n"
            "             & (set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(bench.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    # nor does it load a module the package does not use (a site hook may
    # have loaded one before the import)
    assert out.splitlines() == ["0 0 0", "[]"]


@pytest.mark.parametrize("build", [build_aes128, build_sha256, build_prince_sbox,
                                   build_alumix, build_shiftstorm])
def test_builders_reject_an_unknown_variant(build):
    cached = getattr(build, "cache_info", None)
    before = cached and cached().currsize
    with pytest.raises(KeyError, match="zkm"):
        build("zkm")
    assert not cached or cached().currsize == before


@pytest.mark.parametrize("build,kwargs,size", [
    (build_aes128, {"key": bytes(15)}, "16-byte key"),
    (build_aes128, {"decrypt": True, "block": bytes(17)}, "16-byte block"),
    (build_sha256, {"block": bytes(63)}, "64-byte block"),
    (build_prince_sbox, {"words": (1,)}, "2 words"),
], ids=["aes128-key", "aes128-block", "sha256-block", "prince-words"])
def test_builders_reject_an_input_of_the_wrong_size(build, kwargs, size):
    """A wrong-sized input is refused with the size expected, whether or
    not Python runs with asserts."""
    with pytest.raises(ValueError, match=size):
        build("zkn", **kwargs)


def test_every_kernel_cell_has_an_expected_output():
    for name, kernel in KERNELS.items():
        for variant in bench.VARIANTS:
            assert kernel.build(variant).expected == kernel.expected, \
                (name, variant)
        assert kernel.expected, name


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
                f"expected={kp.expected.hex()} "
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


def _fresh_build(emit, args, blocks, expected):
    a = isa.Assembler()
    emit(a, *args)
    return bench._program(a, blocks, expected)


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
        assert bench._build(emit, (), blocks, b"") == \
            _fresh_build(emit, (), blocks, b"")


def test_checksum_invariant_across_variant_and_width():
    for name, kernel in KERNELS.items():
        sums = set()
        for variant, exts in bench.EXTS.items():
            kp = kernel.build(variant)
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


def full_suite_json_sha256() -> str:
    results, _ = run_suite()
    text = json.dumps([r.to_json_dict() for r in results], indent=2,
                      sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_full_suite_json_is_pinned():
    assert full_suite_json_sha256() == FULL_SUITE_JSON_SHA256


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


def _expecting(monkeypatch, name, expected):
    """Make KERNELS[name]'s builds expect `expected`."""
    kernel = KERNELS[name]
    monkeypatch.setitem(bench.KERNELS, name, bench.Kernel(
        name, lambda v: kernel.build(v)._replace(expected=expected)))


def test_checksum_mismatch_raised(monkeypatch):
    _expecting(monkeypatch, "prince-sbox", b"\x00" * 8)
    with pytest.raises(ChecksumMismatch):
        run_suite(kernel_names=["prince-sbox"], widths=(32,))


def test_cell_without_expected_output_is_a_mismatch(monkeypatch):
    _expecting(monkeypatch, "prince-sbox", b"")
    with pytest.raises(ChecksumMismatch):
        run_suite(kernel_names=["prince-sbox"], widths=(32,))


def test_unknown_variant_raises():
    with pytest.raises(KeyError):
        run_suite(kernel_names=["alumix"], widths=(32,), variants=("zkm",))


@pytest.mark.parametrize("names,variants", [
    (["alumix", "nosuch"], ("rv32i", "zkn")),
    (["alumix"], ("rv32i", "zkm")),
], ids=["kernel", "variant"])
def test_unknown_name_raises_before_any_cell(names, variants, monkeypatch):
    cells = []
    monkeypatch.setattr(bench, "run_kernel", lambda *a: cells.append(a))
    with pytest.raises(KeyError):
        run_suite(kernel_names=names, widths=(4,), variants=variants)
    assert cells == []


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
