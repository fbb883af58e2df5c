"""Acceptance suite: one test per criterion, one printed verdict line each,
plus the cosim digest pins, which reuse the criteria's full matrix.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
the full matrix in criteria 1 and 2 and the fuzz in criterion 10 dominate
the runtime. They are marked `slow`, so `pytest -m "not slow"` skips them;
the plain command runs them.
"""

import hashlib
import json
import random
import time

import pytest

import oracles
from serialrv import bench, cosim, isa
from serialrv.isa import Mnemonic as M
from serialrv.audit import audit_constant_time
from serialrv.bench import (build_aes128, build_sha256, run_kernel, run_suite,
                            sha256_digest_from_out, sha256_pad)
from serialrv.microarch import CoreConfig, shift_latency

WIDTHS = (1, 2, 4, 8, 16, 32)
ZKN_CFG32 = CoreConfig.zkn_zkt(32)


def _verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[acceptance {num:02d}] {tag} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def full_matrix():
    """Criteria 1 and 2 share the 1000-seed x 6-width sweep."""
    t0 = time.time()
    reports = cosim.run_matrix(range(1000), WIDTHS)
    return reports, time.time() - t0


@pytest.mark.slow
def test_criterion_01_cosim_equivalence(full_matrix):
    reports, elapsed = full_matrix
    matches = sum(1 for r in reports if r.passed)
    divergences = [r for r in reports if r.divergence_pc is not None]
    ok = matches == 6000 and not divergences and elapsed < 120.0
    _verdict(1, "co-simulation equivalence 1000 seeds x 6 widths", ok,
             f"{matches}/6000 matches, {len(divergences)} divergences, "
             f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_02_cross_width_invariance(full_matrix):
    reports, _ = full_matrix
    by_seed = {}
    for r in reports:
        by_seed.setdefault(r.seed, set()).add(r.sig_micro)
    bad = [s for s, sigs in by_seed.items() if len(sigs) != 1]
    _verdict(2, "cross-width signature invariance", not bad,
             f"{len(by_seed)} seeds, {len(bad)} mismatching")


@pytest.mark.slow
def test_full_matrix_pinned(full_matrix):
    """The matrix's first 600 reports are `serialrv cosim --seed 0
    --programs 100 --json`, whose digest every change keeps; the second
    pin covers all 6000 signatures and instrets."""
    reports, _ = full_matrix
    jsonl = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                    for r in reports[:600])
    assert hashlib.sha256(jsonl.encode()).hexdigest() == (
        "a1261cd50f1de4289bbe0a6d55d7afdafd249c906882c0315fb6c70a9248a746")
    h = hashlib.sha256()
    for r in reports:
        h.update(f"{r.seed} {r.width} {int(r.passed)} {r.sig_micro} "
                 f"{r.sig_golden} {r.instret}\n".encode())
    assert h.hexdigest() == (
        "9827dcbdd981cce0b1018b1e870c39eca379dab38332f20feca4cdf5406500c1")


def test_criterion_03_crypto_functional_pinning():
    ok = True
    detail = []
    # FIPS-197 block vector, encrypt and decrypt, via the zkn kernels
    _, out = run_kernel(build_aes128("zkn"), ZKN_CFG32)
    ok &= out == bench.FIPS_CT
    _, out = run_kernel(build_aes128("zkn", decrypt=True), ZKN_CFG32)
    ok &= out == bench.FIPS_PT
    detail.append("fips-197 ok" if ok else "fips-197 MISMATCH")
    # NIST 'abc' digest
    _, out = run_kernel(build_sha256("zkn"), ZKN_CFG32)
    sha_ok = sha256_digest_from_out(out) == oracles.sha256(b"abc")
    ok &= sha_ok
    detail.append("sha-abc ok" if sha_ok else "sha-abc MISMATCH")
    # 100 random AES pairs against the library oracle
    rng = random.Random(2024)
    aes_ok = 0
    for _ in range(100):
        key = rng.getrandbits(128).to_bytes(16, "big")
        pt = rng.getrandbits(128).to_bytes(16, "big")
        ct = oracles.aes128_encrypt_block(key, pt)
        _, got = run_kernel(build_aes128("zkn", key=key, block=pt), ZKN_CFG32)
        _, back = run_kernel(build_aes128("zkn", decrypt=True, key=key,
                                          block=ct), ZKN_CFG32)
        aes_ok += got == ct and back == pt
    ok &= aes_ok == 100
    detail.append(f"aes random {aes_ok}/100")
    # 100 random single-block messages against hashlib
    sha_n = 0
    for _ in range(100):
        msg = bytes(rng.getrandbits(8) for _ in range(rng.randrange(56)))
        _, out = run_kernel(build_sha256("zkn", block=sha256_pad(msg)),
                            ZKN_CFG32)
        sha_n += sha256_digest_from_out(out) == oracles.sha256(msg)
    ok &= sha_n == 100
    detail.append(f"sha random {sha_n}/100")
    _verdict(3, "crypto functional pinning", ok, ", ".join(detail))


def test_criterion_04_zkt_constant_time_audit():
    worst = 0
    audited = 0
    for w in WIDTHS:
        report = audit_constant_time(CoreConfig.zkn_zkt(w), trials=256)
        audited += len(report.rows)
        worst = max(worst, max(r.spread for r in report.rows))
    _verdict(4, "Zkt latency spread is zero for every covered mnemonic",
             worst == 0, f"{audited} mnemonic/width rows, max spread {worst}")


def test_criterion_05_alu_scaling_law():
    _, metrics = run_suite(kernel_names=["alumix"], widths=WIDTHS,
                           variants=("rv32i",))
    ratios = metrics["cross_width"]["alumix"]["rv32i"]
    bad = {p: r for p, r in ratios.items() if not 1.8 <= r <= 2.1}
    _verdict(5, "alumix halves its cycles when width doubles", not bad,
             f"ratios {ratios}")


def test_criterion_06_left_shift_optimization():
    everywhere_ok = True
    min_ratio = 1.0
    for w in WIDTHS:
        sup = CoreConfig(serial_width=w, left_shift_support=True)
        emu = CoreConfig(serial_width=w, left_shift_support=False)
        for s in range(1, 32):
            a = shift_latency(sup, M.SLL, s)
            b = shift_latency(emu, M.SLL, s)
            everywhere_ok &= a <= b
            min_ratio = min(min_ratio, a / b)
    ok = everywhere_ok and min_ratio <= 0.5
    _verdict(6, "hardware left shift never loses, halves cost somewhere", ok,
             f"min ratio {min_ratio:.3f}")


@pytest.fixture(scope="module")
def aes_speed_suite():
    return run_suite(kernel_names=["aes128-enc"], widths=WIDTHS)


def test_criterion_07_zkn_speedup_floor(aes_speed_suite):
    _, metrics = aes_speed_suite
    sp = metrics["speedup_zkn"]["aes128-enc"]
    ok = sp[32] >= 3.0 and all(v >= 2.0 for v in sp.values())
    _verdict(7, "aes128-enc speedup >=3x at width 32, >=2x everywhere", ok,
             f"speedups {sp}")


def test_criterion_08_code_size_floor(aes_speed_suite):
    _, metrics = aes_speed_suite
    pct = metrics["code_size_reduction_pct"]["aes128-enc"]
    _verdict(8, "aes128-enc image >=40% smaller with zkn", pct >= 40.0,
             f"reduction {pct:.1f}%")


def test_criterion_09_zkt_overhead_direction():
    results, _ = run_suite(kernel_names=["shiftstorm"], widths=WIDTHS)
    cells = {(r.variant, r.width): r.cycles for r in results}
    spreads = {}
    ok = True
    for w in WIDTHS:
        off, on = cells[("rv32i", w)], cells[("zkn", w)]
        spreads[w] = round(on / off, 3)
        if w < 32:
            ok &= on > off
    _verdict(9, "shiftstorm slows down under Zkt at every width < 32", ok,
             f"zkt-on/zkt-off cycle ratios {spreads}")


@pytest.mark.slow
def test_criterion_10_decoder_totality_fuzz():
    rng = random.Random(0xFA22)
    t0 = time.time()
    legal = 0
    reencode_bad = 0
    for _ in range(10_000_000):
        word = rng.getrandbits(32)
        try:
            ins = isa.decode(word)
        except isa.IllegalInstruction:
            continue
        legal += 1
        if isa.encode(ins) != word:
            reencode_bad += 1
    elapsed = time.time() - t0
    ok = reencode_bad == 0 and elapsed < 30.0
    _verdict(10, "decode total over 1e7 words, re-encode identity", ok,
             f"{legal} legal, {reencode_bad} re-encode mismatches, "
             f"{elapsed:.1f}s")
