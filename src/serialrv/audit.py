"""The constant-time audit: each measurement places one instruction word at
pc in a fresh core and takes the charged cycles of its first `step`; the
fetch-buffer fill goes to `startup_cycles`, never to those cycles."""

from __future__ import annotations

import random
from typing import NamedTuple

from . import isa
from .golden import RETIRED, ArchState, MASK32
from .image import DEFAULT_BASE
from .microarch import CLASS_OF, SHIFT_MNEMONICS, CoreConfig, MicroCore


class AuditRow(NamedTuple):
    mnemonic: str
    latency_class: str
    min_cycles: int
    max_cycles: int

    @property
    def spread(self) -> int:
        return self.max_cycles - self.min_cycles


class AuditReport(NamedTuple):
    width: int
    zkt: bool
    trials: int
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.spread == 0 for r in self.rows)


def _measure_once(config: CoreConfig, ins: isa.Instr, rs1: int, rs2: int) -> int:
    state = ArchState(pc=DEFAULT_BASE)
    state.mem.store(DEFAULT_BASE, 4, ins.raw)
    state.regs[1] = rs1 & MASK32
    state.regs[2] = rs2 & MASK32
    cycles, outcome, _ = MicroCore(config, state).step()
    assert outcome is RETIRED
    return cycles


_AUDIT_PATTERNS = (0, MASK32) + tuple(1 << k for k in range(32))
MIN_TRIALS = 32  # so that immediate shifts sweep every shift amount


def audit_constant_time(config: CoreConfig, trials: int = 256) -> AuditReport:
    """Measure per-mnemonic latency spread over `trials` operand samples.

    Sample i runs `isa.instr(m, rd=4, rs1=1, rs2=2, imm=i % 32, bs=i % 4)`,
    so immediate shifts sweep every shift amount and the AES forms every
    byte select. rs1 takes 0, all-ones and each single-bit pattern first,
    then random words; rs2 is i % 32 for shifts and rotates, else random.
    Each mnemonic draws from its own seeded stream, so its operands do not
    depend on which other mnemonics are audited. Under Zkt every covered
    mnemonic must report a spread of exactly zero.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS} to cover every shift amount")
    rows = []
    for m in sorted(isa.ZKT_COVERED, key=lambda x: x.value):
        ext = isa.EXT_OF[m]
        if ext is not isa.Ext.RV32I and ext not in config.extensions:
            continue
        rng = random.Random(m.value)
        forms = [isa.instr(m, rd=4, rs1=1, rs2=2, imm=k, bs=k % 4)
                 for k in range(32)]
        lats = []
        for i in range(trials):
            rs1 = (_AUDIT_PATTERNS[i] if i < len(_AUDIT_PATTERNS)
                   else rng.getrandbits(32))
            rs2 = i % 32 if m in SHIFT_MNEMONICS else rng.getrandbits(32)
            lats.append(_measure_once(config, forms[i % 32], rs1, rs2))
        rows.append(AuditRow(m.value, CLASS_OF[m], min(lats), max(lats)))
    return AuditReport(width=config.serial_width, zkt=config.zkt,
                       trials=trials, rows=tuple(rows))
