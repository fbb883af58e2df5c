"""Injected faults for the self-tests, each defined once: a context manager
that puts one fault into the simulator and restores the code on exit."""

import contextlib

import pytest

from serialrv import cosim, golden, isa, microarch
from serialrv.isa import Mnemonic as M


@contextlib.contextmanager
def _patched(target, name, value):
    with pytest.MonkeyPatch.context() as mp:
        (mp.setitem if isinstance(target, dict) else mp.setattr)(target, name, value)
        yield


@contextlib.contextmanager
def _core_fault(target, name, value):
    """`_patched`, with every core built inside binding its records
    uncached: a record holds its mnemonic's unit or handler, so no binding
    cached before the fault is used inside it, and none made inside
    outlives it."""
    with _patched(target, name, value), \
            _patched(microarch, "_binding", microarch._binding.__wrapped__):
        yield


def broken_adder():
    """A core adder that flips bit 1 of every chunk sum: a register diverges."""
    add = microarch.MicroCore._chunk_add
    return _core_fault(microarch.MicroCore, "_chunk_add",
                       lambda self, a, b, carry_in=0: add(self, a, b, carry_in) ^ 2)


def flipped_store(addr=None):
    """A core sw that flips bit 0 of the word it writes, at `addr` only if given."""
    store = microarch._EXECUTE[M.SW]

    def faulty(core, i, a, b):
        stored, target = store(core, i, a, b)
        if stored is None:  # a misaligned sw: its trap outcome passes through
            return stored, target
        where, value = stored
        return (where, value ^ (addr is None or where == addr)), target

    return _core_fault(microarch._EXECUTE, M.SW, faulty)


def flipped_x31_dump():
    """A store flipped in the register dump's x31 slot, which nothing reads back."""
    return flipped_store(sum(cosim.MEMORY_WINDOW) - 4)


def stray_register_write(m, victim):
    """A core `m` that also flips bit 7 of register `victim`: a stray write."""
    handler = microarch._EXECUTE[m]

    def faulty(core, i, a, b):
        core.arch.regs[victim] ^= 1 << 7
        return handler(core, i, a, b)

    return _core_fault(microarch._EXECUTE, m, faulty)


def beq_as_bne():
    """The core's beq branches when its operands differ."""
    return _core_fault(microarch._EXECUTE, M.BEQ, microarch._EXECUTE[M.BNE])


def ebreak_as_ecall():
    """The core halts on ebreak as if on a plain ecall."""
    return _core_fault(microarch._EXECUTE, M.EBREAK, microarch._halt(golden.ECALL))


def sll_by_3_masked_as_by_4():
    """With left shifts emulated, an sll or slli by 3 is masked as if by 4,
    which clears result bit 3 and leaves its cycles as they were. Cores
    built inside bind uncached plans (see `_core_fault`)."""
    plan = microarch.shift_plan

    def faulty(config, m, shamt):
        loop, amount, mask = plan(config, m, shamt)
        if mask and shamt == 3:  # only an emulated sll has a mask pass
            mask = (mask << 1) & microarch.MASK32
        return loop, amount, mask

    return _core_fault(microarch, "shift_plan", faulty)


def _charged_through(fault):
    """Cores built inside bind uncached records whose (sequential, taken)
    charges are as `fault(mnemonic, execute cycles, sequential, taken)`
    returns them. A shift or rotate's charges are rewritten amount by
    amount, each entry of its row keeping its plan; a disabled mnemonic's
    record, which has no charge, is kept as it is."""
    binding = microarch._binding.__wrapped__

    def faulty(config):
        table, records, *rest = binding(config)
        faulted = {}
        for m, (unit, handler, imm_op2, seq, taken, size, slot) in records.items():
            if seq is not None and m in microarch.SHIFT_MNEMONICS:
                seq = tuple((fault(m, cycles, charge, taken)[0], *plan)
                            for cycles, (charge, *plan) in zip(table[m], seq))
            elif seq is not None:
                seq, taken = fault(m, table[m], seq, taken)
            faulted[m] = (unit, handler, imm_op2, seq, taken, size, slot)
        return (table, faulted, *rest)

    return _patched(microarch, "_binding", faulty)


def short_transfer_penalty():
    """A taken branch or jump is charged one cycle less than its penalty."""
    transfers = {m for m, c in microarch.CLASS_OF.items()
                 if c in (microarch.BRANCH, microarch.JUMP)}
    return _charged_through(lambda m, execute, seq, taken:
                            (seq, taken - 1 if m in transfers else taken))


def fetch_stall_dropped():
    """A sequential step is charged its execute cycles alone, however much
    longer the fetch of the next word takes."""
    return _charged_through(lambda m, execute, seq, taken: (execute, taken))


def big_endian_half_store():
    """`golden.Memory` stores each half-word big-endian: a common-mode
    fault of the one memory port that both models store through."""
    write = golden.Memory._write

    def faulty(mem, addr, size, value):
        if size == 2:
            value = (value & 0xFF) << 8 | value >> 8
        write(mem, addr, size, value)

    return _patched(golden.Memory, "_write", faulty)


@contextlib.contextmanager
def swapped_funct3(a, b):
    """`isa.ENCODINGS` with the funct3 of mnemonics `a` and `b` swapped, and
    decode's table rebuilt from it: one misread of the spec that encode,
    decode, the assembler and the generator all share. The decode cache
    is emptied on entry and on exit."""
    enc_a, enc_b = isa.ENCODINGS[a], isa.ENCODINGS[b]
    isa._DECODE_CACHE.clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(isa.ENCODINGS, a, enc_a._replace(funct3=enc_b.funct3))
            mp.setitem(isa.ENCODINGS, b, enc_b._replace(funct3=enc_a.funct3))
            mp.setattr(isa, "_DECODE", isa._decode_table(isa.ENCODINGS))
            yield
    finally:
        isa._DECODE_CACHE.clear()
