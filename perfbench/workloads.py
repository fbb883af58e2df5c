"""The benchmark's three workloads, their correctness gates and digests.

Each workload turns the benchmark seed into an endless stream of rounds.
A round is a few cells that are checked together; the harness stops only
between rounds, so every run covers whole rounds and the same mix of
cells. `run_round` runs its cells through a Meter, which times them. It
returns how many cells failed a gate, the work done (instructions retired
by MicroCore, or words decoded) and one line per cell of simulated
results, which the harness hashes into the run's `sim_digest`.

Layers are called through their module attributes at call time, so that
the tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import List, NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from serialrv import bench, cosim, isa
from serialrv.microarch import CoreConfig

import reference

WIDTHS = (1, 2, 4, 8, 16, 32)


class RoundResult(NamedTuple):
    attempted: int           # cells attempted, including any whose build failed
    failed: int
    work: int
    records: List[str]
    failures: List[str]


class Meter:
    """Runs and times cells, with a sample of the reference loop before
    each cell and one after the last (see reference.py)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.marks: List[float] = []   # clock before each reference sample
        self.ref_s: List[float] = []
        self.cell_s: List[float] = []

    def sample(self) -> None:
        with self.tracer.span("harness.reference"):
            self.marks.append(time.perf_counter())
            self.ref_s.append(reference.sample())

    def cell(self, width, fn, *args):
        """Run one cell; returns its result, or the exception it raised."""
        self.sample()
        with self.tracer.span("harness.cell", width):
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # a crashing cell is a failed cell, not a crashed run
                result = exc
            self.cell_s.append(time.perf_counter() - t0)
        return result


class CosimMatrix:
    """One torture program (TortureConfig defaults, Zkn) per round, run in
    lockstep by cosim.cosim_run at all six widths with Zkn+Zkt."""

    name = "cosim-matrix"
    prefix_rounds = 16
    work_name = "sim_instr_per_s"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def run_round(self, meter: Meter) -> RoundResult:
        tseed = self._rng.getrandbits(32)
        torture = cosim.TortureConfig(seed=tseed)
        results = [meter.cell(w, cosim.cosim_run, torture,
                              CoreConfig(serial_width=w, extensions=isa.ZKN_ZKT))
                   for w in WIDTHS]

        bad = [not isinstance(r, cosim.CosimReport) or not r.passed for r in results]
        failures = [f"cosim seed={tseed} w={w}: {r!r}"
                    for w, r, b in zip(WIDTHS, results, bad) if b]
        sigs = {r.sig_micro for r, b in zip(results, bad) if not b}
        if len(sigs) > 1:
            # the program's final state must not depend on the width
            bad = [True] * len(WIDTHS)
            failures.append(f"cosim seed={tseed}: signatures differ across widths {sorted(sigs)}")
        records, work = [], 0
        for w, r in zip(WIDTHS, results):
            if isinstance(r, cosim.CosimReport):
                work += r.instret
                records.append(f"{tseed} w{w} {r.passed} {r.sig_micro} "
                               f"{r.sig_golden} {r.instret}")
            else:
                records.append(f"{tseed} w{w} error {type(r).__name__}")
        return RoundResult(len(WIDTHS), sum(bad), work, records, failures)


def _aes_ecb(key: bytes, block: bytes, decrypt: bool) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.ECB())
    ctx = cipher.decryptor() if decrypt else cipher.encryptor()
    return ctx.update(block) + ctx.finalize()


def _swap_words(b: bytes) -> bytes:
    # the SHA-256 kernel leaves the digest words in register (little-endian)
    # byte order
    return b"".join(b[i:i + 4][::-1] for i in range(0, len(b), 4))


KERNEL_NAMES = ("aes128-enc", "aes128-dec", "sha256-compress", "prince-sbox",
                "alumix", "shiftstorm")
VARIANTS = ("rv32i", "zkn")


class KernelSuite:
    """Every registry kernel x {rv32i, zkn} x six widths per round.

    AES keys and blocks and the SHA-256 message (at most 55 bytes, so one
    block) are drawn from the seed each round; the other kernels take
    their fixed inputs.
    """

    name = "kernel-suite"
    prefix_rounds = 3
    work_name = "sim_instr_per_s"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        diff = set(KERNEL_NAMES) ^ set(bench.KERNELS)
        if diff:
            raise RuntimeError(f"kernel registry differs from the benchmark's: {sorted(diff)}")

    def _programs(self):
        """(name, build thunk, oracle thunk) for this round's inputs."""
        rng = self._rng
        key_e, blk_e, key_d, blk_d = (rng.randbytes(16) for _ in range(4))
        msg = rng.randbytes(rng.randrange(56))
        block = bench.sha256_pad(msg)
        return (
            ("aes128-enc",
             lambda v: bench.build_aes128(v, False, key=key_e, block=blk_e),
             lambda kp: _aes_ecb(key_e, blk_e, decrypt=False)),
            ("aes128-dec",
             lambda v: bench.build_aes128(v, True, key=key_d, block=blk_d),
             lambda kp: _aes_ecb(key_d, blk_d, decrypt=True)),
            ("sha256-compress",
             lambda v: bench.build_sha256(v, block=block),
             lambda kp: _swap_words(hashlib.sha256(msg).digest())),
            ("prince-sbox",
             lambda v: bench.build_prince_sbox(v),
             lambda kp: bench.KERNELS["prince-sbox"].expected),
            ("alumix",
             lambda v: bench.build_alumix(v),
             lambda kp: kp.expected),
            ("shiftstorm",
             lambda v: bench.build_shiftstorm(v),
             lambda kp: kp.expected),
        )

    def run_round(self, meter: Meter) -> RoundResult:
        records, failures = [], []
        attempted = failed = work = 0
        for name, build, oracle in self._programs():
            kernel = bench.KERNELS[name]
            for variant in VARIANTS:
                exts = kernel.zkn_exts if variant == "zkn" else kernel.rv32i_exts
                attempted += len(WIDTHS)
                try:
                    kp = build(variant)
                    want = oracle(kp)
                except Exception as exc:
                    failed += len(WIDTHS)
                    failures.append(f"{name}/{variant}: build failed: {exc!r}")
                    records.extend(f"{name}/{variant}/w{w} error" for w in WIDTHS)
                    continue
                for w in WIDTHS:
                    res = meter.cell(w, bench.run_kernel, kp,
                                     CoreConfig(serial_width=w, extensions=exts))
                    tag = f"{name}/{variant}/w{w}"
                    if isinstance(res, Exception):
                        failed += 1
                        failures.append(f"{tag}: {res!r}")
                        records.append(f"{tag} error {type(res).__name__}")
                        continue
                    stats, out = res
                    work += stats.instret
                    if not want or out != want or stats.halt != "ebreak":
                        failed += 1
                        failures.append(f"{tag}: halt={stats.halt} output {out.hex()} "
                                        f"!= expected {want.hex()}")
                    classes = ",".join(f"{c}:{n}:{cy}"
                                       for c, (n, cy) in sorted(stats.classes.items()))
                    records.append(f"{tag} {stats.cycles} {stats.instret} {stats.halt} "
                                   f"{stats.code_size} {classes} {out.hex()}")
        return RoundResult(attempted, failed, work, records, failures)


# 20,000 words take about 20 ms: each cell is short enough for the
# reference samples around it to track the host's speed
BATCH_WORDS = 20_000


def _decode_batch(words):
    """Decode every word and re-encode each legal one (acceptance 10's loop)."""
    decode, encode, illegal = isa.decode, isa.encode, isa.IllegalInstruction
    legal = []
    for word in words:
        try:
            ins = decode(word)
        except illegal:
            continue
        legal.append((word, ins, encode(ins)))
    return legal


class DecodeFuzz:
    """One cell of BATCH_WORDS uniform random 32-bit words per round."""

    name = "decode-fuzz"
    prefix_rounds = 10
    work_name = "words_per_s"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def run_round(self, meter: Meter) -> RoundResult:
        words = [self._rng.getrandbits(32) for _ in range(BATCH_WORDS)]
        res = meter.cell(0, _decode_batch, words)
        if isinstance(res, Exception):
            return RoundResult(1, 1, 0, [f"error {type(res).__name__}"],
                               [f"decode batch: {res!r}"])
        bad = [(w, enc) for w, _, enc in res if enc != w]
        h = hashlib.sha256()
        for w, ins, enc in res:
            h.update(f"{w:08x} {ins.mnemonic.value} {ins.rd} {ins.rs1} {ins.rs2} "
                     f"{ins.imm} {ins.bs} {enc:08x}\n".encode())
        failures = [f"decode: {len(bad)} legal words do not re-encode to themselves, "
                    f"first 0x{bad[0][0]:08x} -> 0x{bad[0][1]:08x}"] if bad else []
        return RoundResult(1, int(bool(bad)), BATCH_WORDS,
                           [f"{len(res)} {h.hexdigest()}"], failures)


WORKLOADS = {w.name: w for w in (CosimMatrix, KernelSuite, DecodeFuzz)}
